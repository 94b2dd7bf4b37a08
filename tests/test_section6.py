from itertools import combinations_with_replacement

import pytest

from wreathkit import (
    Field,
    FiltrationSchedule,
    Presentation,
    TruncatedAlgebra,
    build_layered_presentation,
    parse_element,
    sandwich_check,
    sandwich_report,
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
