from itertools import combinations_with_replacement, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wreathkit import (
    Field,
    FiltrationSchedule,
    FreeElement,
    Presentation,
    TruncatedAlgebra,
    build_layered_presentation,
    growth_dims,
    parse_element,
    sandwich_check,
    sandwich_report,
    x_part_presentation,
)
from wreathkit.words import Alphabet

Q = Field.rationals()
TWO = Alphabet([("x", 1), ("y", 1)])
COMM = parse_element("x*y - y*x", TWO, Q)


def relation_strings(pres):
    return sorted(r.format() for r in pres.relations)


def test_two_layer_instantiation():
    pres = build_layered_presentation(Q, 2, FiltrationSchedule([2, 4]), [COMM])
    rels = relation_strings(pres)
    # no distinct triples exist at k_max = 2; the pair ideal, centrality,
    # and squares remain
    assert "x1*x2 - x2*x1" in rels
    assert "y1^2" in rels and "y2^2" in rels
    assert "x1*y1 - y1*x1" in rels and "x2*y2 - y2*x2" in rels
    assert not any(r.count("*") >= 2 and "-" not in r for r in rels)


def test_triple_products_at_three_layers():
    pres = build_layered_presentation(Q, 3, FiltrationSchedule([2, 4, 6]), [])
    triples = [
        r
        for r in pres.relations
        if len(r.terms) == 1 and next(iter(r.terms)).degree == 3
    ]
    words = {next(iter(r.terms)).letters for r in triples}
    # all six orderings of the three distinct layer generators
    assert words == {
        (0, 1, 2),
        (0, 2, 1),
        (1, 0, 2),
        (1, 2, 0),
        (2, 0, 1),
        (2, 1, 0),
    }


def test_single_layer_no_pair_ideal():
    pres = build_layered_presentation(Q, 1, FiltrationSchedule([2]), [])
    rels = relation_strings(pres)
    assert rels == sorted(["x1*y1 - y1*x1", "y1^2"])


def test_ideal_power_family_enumeration():
    # with four thresholds, the first layer's ideal power n_4 = 4 activates:
    # every word containing x1 at least four times, up to the truncation
    pres = build_layered_presentation(
        Q, 1, FiltrationSchedule([1, 2, 3, 4]), [], truncation_degree=5
    )
    alg = TruncatedAlgebra(pres, 5)
    # commutative in (x1, y1) with y1^2 = 0 and x1^4 = 0:
    # monomials x1^a y1^b, a <= 3, b <= 1
    expected = {1: 2, 2: 2, 3: 2, 4: 1, 5: 0}
    for d, dim in expected.items():
        assert alg.graded_dim(d) == dim, d


def test_ideal_power_cap_guard():
    with pytest.raises(ValueError):
        build_layered_presentation(
            Q,
            4,
            FiltrationSchedule([1, 2, 3, 4, 5, 6, 7]),
            [],
            truncation_degree=8,
            power_word_cap=50,
        )


def test_pair_relations_validated():
    three = Alphabet([("a", 1), ("b", 1), ("c", 1)])
    bad = parse_element("a*b - b*a", three, Q)
    with pytest.raises(ValueError):
        build_layered_presentation(Q, 2, FiltrationSchedule([2]), [bad])


@pytest.mark.parametrize("field", [Q, Field.prime(101)], ids=repr)
@pytest.mark.parametrize(
    "k_max, schedule, n, count",
    [(4, [2, 4, 6, 8], 10, 2397), (3, [2, 4, 6, 2000, 100000], 8, 24)],
    ids=["sandwich_k4_N10", "sandwich_k3_N8"],
)
def test_bench_presentations_relation_count(field, k_max, schedule, n, count):
    """The layered presentations of the bench's two sandwich jobs (J
    commutative) keep one relation per class of equal or opposite relations:
    the commutators [g, y] and [y, g] of two y's appear once."""
    comm = parse_element("x*y - y*x", TWO, field)
    pres = build_layered_presentation(
        field, k_max, FiltrationSchedule(schedule), [comm], truncation_degree=n
    )
    assert len(pres.relations) == count
    assert len(set(relation_strings(pres))) == count
    ab = pres.alphabet
    y1, y2 = ab.index("y1"), ab.index("y2")
    commutator = {ab.word((y1, y2)), ab.word((y2, y1))}
    assert sum(set(r.terms) == commutator for r in pres.relations) == 1


def test_sandwich_equality_at_two_layers():
    schedule = FiltrationSchedule([2, 4])
    pres = build_layered_presentation(Q, 2, schedule, [COMM], truncation_degree=6)
    layered = TruncatedAlgebra(pres, 6)
    r_alg = TruncatedAlgebra(Presentation(TWO, Q, [COMM], unital=False), 6)
    rows = sandwich_check(layered, r_alg, schedule, 2, range(4, 7))
    for row in rows:
        assert row.note == ""
        assert row.f == row.g  # the binomial factor is 1 at k = 2
        assert row.lower_ok and row.upper_ok


def test_sandwich_precondition_rows():
    schedule = FiltrationSchedule([2, 4, 6])
    pres = build_layered_presentation(Q, 3, schedule, [COMM], truncation_degree=6)
    layered = TruncatedAlgebra(pres, 6)
    r_alg = TruncatedAlgebra(Presentation(TWO, Q, [COMM], unital=False), 6)
    rows = sandwich_check(layered, r_alg, schedule, 2, [2, 3, 4])
    assert rows[0].note == "precondition violated" and rows[0].lower_ok is None
    assert rows[1].note == "precondition violated"
    assert rows[2].note == "" and rows[2].lower_ok

    below = sandwich_check(layered, r_alg, schedule, 1, [2])
    assert below[0].note == "window index below 2"


def test_sandwich_range_outside_truncation():
    schedule = FiltrationSchedule([2, 4])
    pres = build_layered_presentation(Q, 2, schedule, [COMM], truncation_degree=4)
    layered = TruncatedAlgebra(pres, 4)
    r_alg = TruncatedAlgebra(Presentation(TWO, Q, [COMM], unital=False), 4)
    with pytest.raises(ValueError):
        sandwich_check(layered, r_alg, schedule, 2, [5])


def test_full_report_miniature():
    schedule = FiltrationSchedule([2, 4, 6])
    pres = build_layered_presentation(Q, 3, schedule, [COMM], truncation_degree=8)
    layered = TruncatedAlgebra(pres, 8)
    r_alg = TruncatedAlgebra(Presentation(TWO, Q, [COMM], unital=False), 8)
    rep = sandwich_report(layered, r_alg, schedule)
    assert rep.ok and rep.exact and not rep.faithful
    ks = {row.k for row in rep.rows}
    assert ks == {2, 3}
    # the two-letter growth is the cumulative commutative count
    for row in rep.rows:
        oracle = sum(
            len(set(combinations_with_replacement((0, 1), d)))
            for d in range(1, row.n + 1)
        )
        assert row.f == oracle


def test_layered_dims_product_structure():
    # x-part (pairs only) times squarefree y-part, as a dimension count
    schedule = FiltrationSchedule([2, 4, 6])
    pres = build_layered_presentation(Q, 3, schedule, [COMM], truncation_degree=6)
    layered = TruncatedAlgebra(pres, 6)

    def xdim(a):
        if a == 0:
            return 1
        return sum(
            1
            for mono in combinations_with_replacement((0, 1, 2), a)
            if len(set(mono)) < 3
        )

    from math import comb

    for d in range(1, 7):
        expected = sum(xdim(a) * comb(3, d - a) for a in range(max(0, d - 3), d + 1))
        assert layered.graded_dim(d) == expected


# -- the x-part route -----------------------------------------------------------

FIELDS = [Q, Field.prime(3), Field.prime(2**31 - 1)]


@st.composite
def two_letter_relation(draw, field):
    """A nonzero homogeneous element over x, y: two to four words, those
    whose coefficient is drawn as zero left out (one word at least)."""
    degree = draw(st.integers(1, 4))
    words = draw(
        st.lists(
            st.tuples(*[st.integers(0, 1)] * degree), min_size=2, max_size=4, unique=True
        )
    )
    terms = {}
    for letters in words:
        c = field.coerce(draw(st.integers(-4, 4)))
        if c:
            terms[TWO.word(letters)] = c
    if not terms:
        terms[TWO.word(words[0])] = field.one
    return FreeElement(TWO, field, terms)


@st.composite
def sandwich_instances(draw):
    field = draw(st.sampled_from(FIELDS))
    js = draw(st.lists(two_letter_relation(field), min_size=1, max_size=2))
    k_max = draw(st.integers(2, 4))
    thresholds = draw(st.lists(st.integers(1, 7), min_size=2, max_size=6, unique=True))
    n = draw(st.integers(max(3, *(j.degree() for j in js)), 7))
    return field, js, k_max, FiltrationSchedule(sorted(thresholds)), n


def _instance(field, js, k_max, thresholds, n):
    js = [parse_element(j, TWO, field) for j in js]
    return field, js, k_max, FiltrationSchedule(thresholds), n


@settings(max_examples=60)
@given(sandwich_instances())
@example(_instance(Field.prime(3), ["x^2*y^2 - y^2*x^2"], 4, [2, 3, 4, 5, 6, 7], 7))
@example(_instance(FIELDS[2], ["x*y - 2*y*x", "x*y*x"], 3, [1, 2, 3, 4, 5, 6], 7))
def test_x_part_route_matches_the_layered_route(instance):
    """The sandwich read in the x-part equals the one read in the whole
    layered algebra: every row, its exact flag and the verdict."""
    field, js, k_max, schedule, n = instance
    two = TruncatedAlgebra(Presentation(TWO, field, js), n)
    layered = TruncatedAlgebra(
        build_layered_presentation(field, k_max, schedule, js, truncation_degree=n), n
    )
    x_part = TruncatedAlgebra(
        x_part_presentation(field, k_max, schedule, js, truncation_degree=n), n
    )
    want = sandwich_report(layered, two, schedule)
    got = sandwich_report(x_part, two, schedule)
    assert got.rows == want.rows
    assert (got.exact, got.ok) == (want.exact, want.ok)
    assert {row.k for row in got.rows} <= set(range(2, k_max + 1))


def test_sandwich_reads_generators_that_are_not_normal_words():
    """J = x - 2*y over Q gives x_i = 2*x_j = 4*x_i, so every x_i vanishes:
    the rows say g = 0 < f instead of failing on x_1 not being a basis word."""
    j = parse_element("x - 2*y", TWO, Q)
    schedule = FiltrationSchedule([1, 2, 3])
    two = TruncatedAlgebra(Presentation(TWO, Q, [j]), 4)
    x_part = TruncatedAlgebra(x_part_presentation(Q, 3, schedule, [j], truncation_degree=4), 4)
    rep = sandwich_report(x_part, two, schedule)
    assert [(row.k, row.n, row.f, row.g) for row in rep.rows] == [
        (2, 2, 2, 0), (2, 3, 3, 0), (2, 4, 4, 0), (3, 3, 3, 0), (3, 4, 4, 0)
    ]
    assert rep.exact and not rep.ok


def test_x_part_g_below_kmax_needs_every_x_letter():
    """J = x^2 - x*y: x_3 -> 0 sends x_1^2 - x_1*x_3 to x_1^2, outside the
    ideal, so g_2 read on x_1, x_2 alone is wrong.  With all three letters
    x_1^3 = x_1*x_2*x_3 = 0 and g_2 stops at 4, as in the layered algebra."""
    j = parse_element("x^2 - x*y", TWO, Q)
    schedule = FiltrationSchedule([2, 3, 4])
    two = TruncatedAlgebra(Presentation(TWO, Q, [j]), 6)

    def g2(builder, k_max):
        alg = TruncatedAlgebra(builder(Q, k_max, schedule, [j], truncation_degree=6), 6)
        return [row.g for row in sandwich_check(alg, two, schedule, 2, range(1, 7))]

    assert g2(build_layered_presentation, 3) == [2, 4, 4, 4, 4, 4]
    assert g2(x_part_presentation, 3) == [2, 4, 4, 4, 4, 4]
    assert g2(x_part_presentation, 2) == [2, 4, 6, 8, 10, 12]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("j", ["x*y - y*x", "x*y*x - y*x*y", "x^2 - x*y", "x*y^2"])
def test_x_part_g_kmax_is_the_closure(field, j):
    """g_kmax in the x-part is its cumulative graded dimension; the closure
    of span{x_1..x_kmax} gives the same levels, all exact up to N."""
    schedule = FiltrationSchedule([1, 2, 3, 5])
    pres = x_part_presentation(
        field, 4, schedule, [parse_element(j, TWO, field)], truncation_degree=7
    )
    x_part = TruncatedAlgebra(pres, 7)
    two = TruncatedAlgebra(Presentation(TWO, field, []), 7)
    rows = sandwich_check(x_part, two, schedule, 4, range(1, 8))
    closure = growth_dims(x_part, [x_part.gen(i) for i in range(4)], 7)
    assert [(row.g, row.exact) for row in rows] == closure


def test_x_part_power_generators_and_cap():
    """Each ideal-power family lists exactly the words x_i*u_1*x_i...x_i
    with t letters x_i (a brute-force list), and power_word_cap counts them."""
    k_max, n = 3, 8
    schedule = FiltrationSchedule([1, 2, 3, 4, 5, 6])
    pres = x_part_presentation(Q, k_max, schedule, [], truncation_degree=n)
    words = {next(iter(r.terms)).letters for r in pres.relations}
    assert all(len(r.terms) == 1 for r in pres.relations)
    families = {}
    for i, t in enumerate((4, 5, 6)):
        families[i] = {
            w
            for d in range(t, n + 1)
            for w in product(range(k_max), repeat=d)
            if w[0] == w[-1] == i and w.count(i) == t
        }
    triples = {w for w in product(range(k_max), repeat=3) if len(set(w)) == 3}
    assert words == triples | set().union(*families.values())
    assert len(pres.relations) == len(triples) + sum(map(len, families.values()))

    largest = len(families[0])  # 1 + 6 + 24 + 80 + 240 for t = 4, d = 4..8
    assert largest == 351 == max(map(len, families.values()))
    x_part_presentation(Q, k_max, schedule, [], truncation_degree=n, power_word_cap=largest)
    with pytest.raises(ValueError, match="ideal-power family for x1 needs 351 minimal"):
        x_part_presentation(
            Q, k_max, schedule, [], truncation_degree=n, power_word_cap=largest - 1
        )


def test_sandwich_check_needs_x_letters():
    """x_1..x_k must be letters of the algebra: the x-part on x1, x2 has no
    window index 3, and the two-letter algebra on x, y has no x1 at all."""
    schedule = FiltrationSchedule([2, 4, 6])
    x_part = TruncatedAlgebra(x_part_presentation(Q, 2, schedule, [COMM], truncation_degree=6), 6)
    two = TruncatedAlgebra(Presentation(TWO, Q, [COMM]), 6)
    with pytest.raises(ValueError, match="x1..x3 are not letters"):
        sandwich_check(x_part, two, schedule, 3, [6])
    with pytest.raises(ValueError, match="x1..x2 are not letters"):
        sandwich_check(two, two, schedule, 2, [4])
    assert {row.k for row in sandwich_report(x_part, two, schedule).rows} == {2}
