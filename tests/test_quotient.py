import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathkit import (
    Alphabet,
    BasisIndexing,
    Field,
    FreeElement,
    GammaMap,
    Presentation,
    PresentationError,
    Subspace,
    TruncatedAlgebra,
    TruncationOverflow,
    degree_component,
    degree_one_generators,
    growth_dims,
    parse_element,
)
from wreathkit import linalg
from wreathkit.growth import FiltrationSchedule, dense_dim_check
from wreathkit.linalg import Echelon, dense_rank
from wreathkit.quotient import _ESCAPED
from wreathkit.section6 import build_layered_presentation
from wreathkit.words import Word

from helpers import (
    ReferenceQuotient,
    _acc,
    all_fraction_copy,
    all_pairs_mul_terms,
    assert_raw,
    commutative_dim,
    dense_from,
    killed_above,
    make_algebra,
    random_element,
    rationals,
)

Q = Field.rationals()
GF5 = Field.prime(5)


def test_single_nilpotent_generator():
    alg = make_algebra(Q, ["x"], ["x^3"], n=5)
    assert [alg.graded_dim(d) for d in range(1, 6)] == [1, 1, 0, 0, 0]
    ab = alg.alphabet
    assert alg.degree_basis(1) == [ab.word((0,))]
    assert alg.degree_basis(2) == [ab.word((0, 0))]
    assert alg.degree_basis(3) == []


def test_free_algebra_dims():
    alg = make_algebra(Q, ["x", "y"], [], n=3)
    assert [alg.graded_dim(d) for d in (1, 2, 3)] == [2, 4, 8]


def test_commutative_quotient_dims_against_enumeration():
    alg = make_algebra(Q, ["x", "y"], ["x*y - y*x"], n=8)
    for d in range(1, 9):
        assert alg.graded_dim(d) == commutative_dim(2, d) == d + 1


def test_three_generator_commutative_dims():
    rels = ["x*y - y*x", "x*z - z*x", "y*z - z*y"]
    alg = make_algebra(Q, ["x", "y", "z"], rels, n=6)
    for d in range(1, 7):
        assert alg.graded_dim(d) == commutative_dim(3, d)


def test_normal_form_picks_deglex_smaller_word():
    alg = make_algebra(Q, ["x", "y"], ["x*y - y*x"], n=4)
    x, y = alg.gen("x"), alg.gen("y")
    # the pivot is the deglex-greatest word yx, so y*x reduces to xy
    assert (y * x) == (x * y)
    assert (y * x).terms == {alg._index(alg.alphabet.word((0, 1))): Q.one}


def test_nilpotent_product_vanishes():
    alg = make_algebra(Q, ["x"], ["x^3"], n=5)
    x = alg.gen("x")
    assert not x * (x * x)
    assert not (x * x) * x


def test_word_count_conservation():
    # quotient dim + ideal dim = full word count, in every degree
    for alg in (
        make_algebra(Q, ["x", "y"], ["x*y - y*x"], n=6),
        make_algebra(GF5, ["x", "y"], ["x*x"], n=6),
        make_algebra(Q, ["x", "y", "z"], ["x*y - y*x", "z*z"], n=4),
    ):
        m = len(alg.alphabet)
        for d in range(1, alg.truncation_degree + 1):
            assert alg.graded_dim(d) + alg.ideal_dim(d) == m**d


def words_of_degree(alphabet, d):
    """Letter tuples of every word of degree d (the empty word for d = 0)."""
    if d == 0:
        return [()]
    return [
        (g,) + rest
        for g, gd in enumerate(alphabet.degrees)
        if gd <= d
        for rest in words_of_degree(alphabet, d - gd)
    ]


def brute_force_ideal_dim(presentation, d):
    """Oracle: span all u*r*v over the full word space of degree d."""
    alphabet, field = presentation.alphabet, presentation.field
    vectors = []
    for r in presentation.relations:
        e = r.degree()
        for du in range(0, d - e + 1):
            for u in words_of_degree(alphabet, du):
                for v in words_of_degree(alphabet, d - e - du):
                    elem = r
                    if u:
                        elem = FreeElement.from_word(alphabet, field, alphabet.word(u)) * elem
                    if v:
                        elem = elem * FreeElement.from_word(alphabet, field, alphabet.word(v))
                    vectors.append(dict(elem.terms))
    return dense_rank(vectors, field)


@pytest.mark.parametrize(
    "gens,rels,n",
    [
        (["x", "y"], ["x*y - y*x"], 5),
        (["x", "y"], ["x*x + y*y"], 5),
        (["x", "y"], ["x*y - y*x", "x^3"], 5),
        (["x"], ["x^3"], 5),
    ],
)
def test_ideal_dims_against_brute_force(gens, rels, n):
    alg = make_algebra(Q, gens, rels, n=n)
    for d in range(1, n + 1):
        assert alg.ideal_dim(d) == brute_force_ideal_dim(alg.presentation, d)


# -- the build against the reference builder ------------------------------------

BUILD_FIELDS = [Q, Field.prime(2), Field.prime(2**31 - 1)]


@st.composite
def graded_presentations(draw, fields=BUILD_FIELDS):
    """(presentation, N): up to three generators of degrees 1..3, up to four
    random homogeneous relations, and N as large as a few hundred words allow."""
    field = draw(st.sampled_from(fields))
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    alphabet = Alphabet(list(zip("xyz", degrees)))
    cap = max(d for d in range(1, 12) if alphabet.word_count(d) <= 300)
    n = draw(st.integers(min(3, cap), cap))
    relations = draw_relations(draw, alphabet, field, 1, n)
    return Presentation(alphabet, field, relations, unital=draw(st.booleans())), n


def draw_relations(draw, alphabet, field, lo, hi):
    """Up to four random homogeneous relations of up to three terms, each of
    a degree in lo..hi."""
    if field.kind == "rational":
        coeff = rationals(4, 3)
    else:
        coeff = st.integers(0, field.characteristic - 1)
    relations = []
    for _ in range(draw(st.integers(0, 4))):
        words = words_of_degree(alphabet, draw(st.integers(lo, hi)))
        if not words:
            continue
        support = draw(st.lists(st.sampled_from(words), min_size=1, max_size=3, unique=True))
        r = FreeElement(alphabet, field, {alphabet.word(w): draw(coeff) for w in support})
        if r:
            relations.append(r)
    return relations


def assert_build_matches_reference(pres, n):
    alphabet, field = pres.alphabet, pres.field
    alg = TruncatedAlgebra(pres, n)
    ref = ReferenceQuotient(pres, n)
    assert alg.zero_above == ref.zero_above
    for d in range(1, n + 1):
        assert alg.degree_basis(d) == ref.basis[d]
        assert [alg._index(w) for w in ref.basis[d]] == list(alg._indices(d))
        for cand in ref.candidates[d]:
            nf = alg.from_free(FreeElement.from_word(alphabet, field, cand))
            expected = ref.reduction.get(cand, {cand: field.one})
            assert word_terms(alg, nf.terms) == expected and not nf.flag
            # the letter table's entry for cand = x*u
            tail = Word(cand.letters[1:], d - alphabet.degrees[cand.letters[0]])
            u = alg._index(tail) if tail.letters else alg._unit
            entry = alg._letter[cand.letters[0]][u]
            if cand in ref.reduction:
                assert word_terms(alg, entry) == expected
            else:
                assert alg._word(entry) == cand
        if alphabet.word_count(d) <= 40:
            assert alg.ideal_dim(d) == brute_force_ideal_dim(pres, d)
    if 0 < field.characteristic < linalg.DENSE_P_LIMIT:
        # the same build with every kernel packed after its first row
        with dense_from(1):
            packed = TruncatedAlgebra(pres, n)
        assert same_tables(packed, alg)


def word_terms(alg, terms):
    """Terms keyed by basis index, re-keyed by the words they stand for."""
    return {alg._word(i): c for i, c in terms.items()}


def same_tables(alg, other):
    """The two builds numbered the same words and hold the same reductions."""
    return (alg._first, alg._head, alg._tail, alg._letter) == (
        other._first,
        other._head,
        other._tail,
        other._letter,
    )


def reductions(alg):
    """The reductions in the letter tables."""
    return [t for table in alg._letter for t in table if t is not None and type(t) is not int]


@settings(max_examples=100)
@given(graded_presentations())
def test_build_matches_reference_builder(case):
    assert_build_matches_reference(*case)


@pytest.mark.parametrize(
    "field, gens, rels, n",
    [
        # extended rows whose terms meet on one candidate and cancel mod 2
        (Field.prime(2), [("x", 1), ("y", 1)], ["x^2 + x*y + y*x"], 6),
        (Q, [("x", 1), ("y", 1), ("z", 1)], ["x*y - 2*y*x", "y*z - z*y + x*x"], 5),
        (Field.prime(2**31 - 1), [("a", 1), ("b", 2), ("c", 3)], ["a*b - 3*b*a", "c*a - a*c + b*b"], 9),
        (Q, [("a", 1), ("b", 3)], ["a*b*a - b*a*a", "b*b - a^6"], 11),
        (Field.prime(3), [("x", 1), ("y", 1), ("z", 1)], ["x*y - 2*y*x", "y*z - z*y + x*x"], 6),
        # the extension y*y*x is one word whose row {y*y*x: 1, x*y*x: -1} is
        # not that word alone: inserting it puts x*y*x into the ideal
        (Q, [("x", 1), ("y", 1)], ["y*y", "y*y*x - x*y*x"], 4),
    ],
)
def test_build_matches_reference_builder_pinned(field, gens, rels, n):
    ab = Alphabet(gens)
    pres = Presentation(ab, field, [parse_element(r, ab, field) for r in rels])
    assert_build_matches_reference(pres, n)


# -- Q values as ints when integral, against an all-Fraction Q -------------------


def assert_matches_all_fraction_build(pres, n, growth_n, pairs=300):
    """The build over Q, which keeps an integral value as an int, and the
    build of the same presentation over `helpers.FractionRationals`, where
    every value is a Fraction, agree value by value: the bases, the reduction
    tables, `pairs` sampled word-pair products and the growth of the span of
    all generators up to `growth_n` factors."""
    alg = TruncatedAlgebra(pres, n)
    old = TruncatedAlgebra(all_fraction_copy(pres), n)
    # the oracle really is all-Fraction
    assert all(type(c) is Fraction for red in reductions(old) for c in red.values())
    assert same_tables(alg, old)
    for red in reductions(alg):
        for c in red.values():
            assert_raw(Q, c)
    rng = random.Random(n)
    short = [i for i in range(1, alg.total_dim() + 1) if 1 <= alg._degree[i] <= n // 2]
    for _ in range(pairs if short else 0):
        u, v = rng.choice(short), rng.choice(short)
        got = alg._word_pair_product(u, v)
        assert got == old._word_pair_product(u, v)
        for c in got.values():
            assert_raw(Q, c)
    gens = range(len(pres.alphabet))
    assert growth_dims(alg, [alg.gen(g) for g in gens], growth_n) == growth_dims(
        old, [old.gen(g) for g in gens], growth_n
    )
    return alg


def layered_k3_n8():
    """The bench's `sandwich_k3_N8` layered presentation (J commutative)."""
    ab = Alphabet([("x", 1), ("y", 1)])
    schedule = FiltrationSchedule([2, 4, 6, 2000, 100000])
    j = [parse_element("x*y - y*x", ab, Q)]
    return build_layered_presentation(Q, 3, schedule, j, truncation_degree=8)


def text_presentation(gens, rels):
    ab = Alphabet([(g, 1) for g in gens])
    return Presentation(ab, Q, [parse_element(r, ab, Q) for r in rels])


@pytest.mark.parametrize(
    "make, n, growth_n",
    [
        # the bench's build_tri_q_N11: normal forms with coefficients 1/2^k
        (lambda: text_presentation("xyz", ["x*y - 2*y*x", "y*z - z*y + x*x"]), 11, 11),
        # growth_xyx_N12: integral throughout
        (lambda: text_presentation("xy", ["x*y*x - y*x*y"]), 12, 12),
        (layered_k3_n8, 8, 8),
    ],
    ids=["tri_q", "xyx", "sandwich_k3_N8"],
)
def test_integral_values_as_ints_match_all_fraction_build(make, n, growth_n):
    alg = assert_matches_all_fraction_build(make(), n, growth_n)
    # the two builds do hold their values differently
    assert any(type(c) is int for red in reductions(alg) for c in red.values())


@settings(max_examples=100)
@given(graded_presentations(fields=[Q]))
def test_integral_values_as_ints_match_all_fraction_build_drawn(case):
    pres, n = case
    assert_matches_all_fraction_build(pres, n, n, pairs=60)


def test_build_work_counts(monkeypatch):
    """The quotient build's work, as counts: one-letter steps
    (`_apply_letter`) and row eliminations (`linalg._eliminate`) while
    building x*y - 2*y*x, y*z - z*y + x*x over Q at N=11, the bench's
    `build_tri_q_N11` instance.

    The bounds, 6,113 and 9,189, are the counts measured when the build got
    its right-action memo, interned candidate words and ascending-pivot
    extension order; the build before that, which replayed each row term's
    whole tail word one letter at a time, made 122,235 steps and 16,251
    eliminations.
    """
    counts = {"steps": 0, "eliminations": 0}
    step, eliminate = TruncatedAlgebra._apply_letter, linalg._eliminate

    def counted_step(self, x, vec):
        counts["steps"] += 1
        return step(self, x, vec)

    def counted_eliminate(v, row, c, p):
        counts["eliminations"] += 1
        return eliminate(v, row, c, p)

    monkeypatch.setattr(TruncatedAlgebra, "_apply_letter", counted_step)
    monkeypatch.setattr(linalg, "_eliminate", counted_eliminate)
    alg = make_algebra(Q, ["x", "y", "z"], ["x*y - 2*y*x", "y*z - z*y + x*x"], n=11)
    assert [alg.graded_dim(d) for d in range(1, 12)] == [2 ** (d + 1) - 1 for d in range(1, 12)]
    assert counts["steps"] <= 6113
    assert counts["eliminations"] <= 9189


def test_build_skips_inserts_that_add_nothing(monkeypatch):
    """The build inserts no empty extension or relation and no multiple of
    one word whose row is that word alone: both reduce to zero.  On the
    bench's `sandwich_k3_N8` presentation it makes 4,011 inserts, 2,075 of
    which raise the rank; inserting every extension made 8,658, and skipping
    only extensions 4,014.  The reference builder, which inserts them all,
    finds the same basis and reductions."""
    pres = layered_k3_n8()
    counts = {"inserts": 0, "empty": 0}
    insert = Echelon.insert

    def counted(self, vec):
        counts["inserts"] += 1
        counts["empty"] += not vec
        return insert(self, vec)

    monkeypatch.setattr(Echelon, "insert", counted)
    TruncatedAlgebra(pres, 8)
    monkeypatch.undo()
    assert counts["inserts"] <= 4011 and counts["empty"] == 0
    assert_build_matches_reference(pres, 8)


def test_build_letter_steps_stop_at_vanished_products(monkeypatch):
    """Once a right translate or a relation term's normal form is zero, the
    build takes no further letter step on it.  On the bench's
    `sandwich_k3_N8` presentation it makes 1,390 letter steps, none on an
    empty vector; stepping on through the vanished products made 1,923, 488
    of them on empty vectors."""
    pres = layered_k3_n8()
    counts = count_letter_steps(monkeypatch)
    TruncatedAlgebra(pres, 8)
    assert counts["steps"] <= 1390 and counts["empty"] == 0


def test_build_skips_relations_that_add_nothing(monkeypatch):
    """A relation whose candidate vector is empty (y*x*x, with x*x = 0) or a
    multiple of one word whose row is that word alone (2*x*y after x*y) is
    not inserted, as an extension would not be."""
    ab = Alphabet([("x", 1), ("y", 1)])
    pres = Presentation(ab, Q, [parse_element(r, ab, Q) for r in ("x*x", "y*x*x", "x*y", "2*x*y")])
    insert = Echelon.insert

    def checked(self, vec):
        assert vec and not (len(vec) == 1 and self.is_unit_row(next(iter(vec))))
        return insert(self, vec)

    monkeypatch.setattr(Echelon, "insert", checked)
    TruncatedAlgebra(pres, 4)
    monkeypatch.undo()
    assert_build_matches_reference(pres, 4)


def test_general_degree_generators():
    ab = Alphabet([("a", 1), ("b", 2)])
    pres = Presentation(ab, Q, [], unital=False)
    alg = TruncatedAlgebra(pres, 4)
    # degree d words over degrees (1, 2): 1, 2, 3, 5
    assert [alg.graded_dim(d) for d in (1, 2, 3, 4)] == [1, 2, 3, 5]
    rel = parse_element("a*b - b*a", ab, Q)
    alg2 = TruncatedAlgebra(Presentation(ab, Q, [rel], unital=False), 4)
    assert [alg2.graded_dim(d) for d in (1, 2, 3, 4)] == [1, 2, 2, 3]


def test_overflow_truncate_flags():
    alg = make_algebra(Q, ["x", "y"], [], n=2)
    x, y = alg.gen("x"), alg.gen("y")
    p = (x * y) * x
    assert not p and p.flag


def test_overflow_reject_raises():
    alg = make_algebra(Q, ["x", "y"], [], n=2, policy="reject")
    x, y = alg.gen("x"), alg.gen("y")
    with pytest.raises(TruncationOverflow):
        (x * y) * x


def test_zero_certificate_makes_products_exact():
    alg = killed_above(Q, ["x", "y"], kill_degree=4, n=4)
    assert alg.zero_above == 4
    x, y = alg.gen("x"), alg.gen("y")
    deep = ((x * y) * (x * y)) * ((y * x) * x)  # degree 7 > N
    assert not deep and not deep.flag  # exactly zero, not a truncation


def test_associativity_randomized():
    rng = random.Random(23)
    alg = make_algebra(GF5, ["x", "y"], ["x*y - y*x", "x^3"], n=6)
    for _ in range(150):
        a = random_element(alg, rng, max_degree=2)
        b = random_element(alg, rng, max_degree=2)
        c = random_element(alg, rng, max_degree=2)
        left, right = (a * b) * c, a * (b * c)
        assert left == right and not left.flag


def test_unital_hull():
    alg = make_algebra(Q, ["x"], ["x^3"], n=3, unital=True)
    one, x = alg.unit(), alg.gen("x")
    assert one * x == x == x * one
    assert one * one == one
    assert alg.graded_dim(0) == 1
    assert alg.total_dim() == 3


def test_unit_rejected_without_hull():
    alg = make_algebra(Q, ["x"], [], n=3)
    with pytest.raises(ValueError):
        alg.unit()
    fe = parse_element("1 + x", alg.alphabet, Q)
    with pytest.raises(ValueError):
        alg.from_free(fe)


def test_presentation_validation():
    ab = Alphabet([("x", 1), ("y", 1)])
    bad = parse_element("x + x*y", ab, Q)  # inhomogeneous
    with pytest.raises(PresentationError):
        Presentation(ab, Q, [bad])
    deep = parse_element("x^5", ab, Q)
    with pytest.raises(PresentationError):
        TruncatedAlgebra(Presentation(ab, Q, [deep]), 3)
    with pytest.raises(PresentationError):
        Presentation(ab, Q, [FreeElement.zero(ab, Q)])


def test_host_mismatch_errors():
    a1 = make_algebra(Q, ["x"], [], n=2)
    a2 = make_algebra(Q, ["x"], [], n=2)
    with pytest.raises(ValueError):
        a1.gen("x") * a2.gen("x")


# -- subspaces ---------------------------------------------------------------


def test_subspace_examples():
    alg = make_algebra(Q, ["x", "y"], [], n=3)
    x, y = alg.gen("x"), alg.gen("y")
    assert Subspace(alg, [x, x.scale(2)]).dim == 1
    assert Subspace(alg, [x, y, x + y]).dim == 2


def test_subspace_contains_and_membership():
    alg = make_algebra(Q, ["x", "y"], [], n=2)
    x, y = alg.gen("x"), alg.gen("y")
    s = Subspace(alg, [x + y, x - y])
    assert s.contains(x) and s.contains(y)
    assert not s.contains(x * y)


def test_degree_component():
    alg = make_algebra(Q, ["x", "y"], ["x*y - y*x"], n=4)
    assert degree_component(alg, 2).dim == 3


# -- growth -------------------------------------------------------------------


def test_growth_free_two_generators():
    alg = make_algebra(Q, ["x", "y"], [], n=8)
    gens = [alg.gen("x"), alg.gen("y")]
    dims = growth_dims(alg, gens, 8)
    for n, (dim, exact) in enumerate(dims, start=1):
        assert exact
        assert dim == 2 ** (n + 1) - 2 == sum(2**d for d in range(1, n + 1))


def test_growth_commutative():
    alg = make_algebra(Q, ["x", "y"], ["x*y - y*x"], n=8)
    gens = [alg.gen("x"), alg.gen("y")]
    dims = growth_dims(alg, gens, 8)
    for n, (dim, exact) in enumerate(dims, start=1):
        assert exact
        assert dim == (n * n + 3 * n) // 2 == sum(commutative_dim(2, d) for d in range(1, n + 1))


def test_growth_nilpotent_stabilizes():
    alg = make_algebra(Q, ["x"], ["x^3"], n=5)
    dims = growth_dims(alg, [alg.gen("x")], 5)
    assert [d for d, _ in dims] == [1, 2, 2, 2, 2]
    assert dims[3] == (2, True)


def test_growth_monotone_random():
    rng = random.Random(31)
    alg = make_algebra(GF5, ["x", "y"], ["x*x"], n=6)
    gens = [random_element(alg, rng, max_degree=2) for _ in range(2)]
    dims = [d for d, _ in growth_dims(alg, gens, 6)]
    assert dims == sorted(dims)


def test_growth_inexact_beyond_truncation():
    alg = make_algebra(Q, ["x", "y"], [], n=3)
    dims = growth_dims(alg, [alg.gen("x"), alg.gen("y")], 5)
    assert dims[2] == (14, True)
    assert dims[3][1] is False  # products of 4 factors escaped N=3


@pytest.mark.parametrize(
    "field", [Field.rationals(), Field.prime(2), Field.prime(2147483647)], ids=repr
)
def test_products_cancel_and_store_clean_coefficients(field):
    rng = random.Random(41)
    alg = make_algebra(field, ["x", "y"], ["x*y - y*x"], n=4, unital=True)
    x, y = alg.gen("x"), alg.gen("y")
    assert not (x * y - y * x).terms  # xy and yx meet on one normal word
    for _ in range(40):
        a, b, c = (random_element(alg, rng, max_degree=2, unit=True) for _ in range(3))
        assert not (a + (-a)).terms and not (a * b - b * a).terms
        left, right = a * (b + c), a * b + a * c
        assert left == right
        for e in (left, a + b, a - b, a * b):
            for v in e.terms.values():
                assert_raw(field, v)


# -- _mul_terms: inline arithmetic -----------------------------------------------

FIELDS = [Field.rationals(), Field.prime(2), Field.prime(101)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_mul_terms_equals_reduced_product_of_free_lifts(field):
    rng = random.Random(43)
    alg = make_algebra(field, ["x", "y"], ["x*y - 2*y*x", "x^3"], n=4, unital=True)
    for _ in range(60):
        a, b = (random_element(alg, rng, max_degree=3, unit=True) for _ in range(2))
        prod = a * b
        fa, fb = (FreeElement(alg.alphabet, field, word_terms(alg, e.terms)) for e in (a, b))
        lifted = fa * fb
        expected = alg.from_free(lifted)
        assert prod.terms == expected.terms
        # a surviving word beyond N comes from some escaping word pair
        assert prod.flag or not expected.flag
        for v in prod.terms.values():
            assert_raw(field, v)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_mul_terms_cancellation_stores_no_zero(field):
    alg = make_algebra(field, ["x", "y"], ["x*y - y*x"], n=3)
    x, y = alg.gen("x"), alg.gen("y")
    xy = (x * y).terms.keys() | (y * x).terms.keys()
    assert len(xy) == 1  # xy and yx share one normal word
    # (x + y)(x - y) = x^2 - y^2: the mixed terms cancel on that word
    diff = (x + y) * (x - y)
    assert not (xy & diff.terms.keys())
    assert diff == x * x - y * y
    # p - 1 copies of x times x, plus x*x, cancel over GF(p); over Q they don't
    if field.characteristic:
        p = field.characteristic
        assert not (x.scale(p - 1) * x + x * x).terms
    for v in diff.terms.values():
        assert_raw(field, v)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_mul_terms_unit_word_passes_through(field):
    rng = random.Random(44)
    alg = make_algebra(field, ["x", "y"], [], n=2, unital=True)
    one, x, y = alg.unit(), alg.gen("x"), alg.gen("y")
    two, three = one.scale(2), one.scale(3)
    assert (two + x) * (three + y) == one.scale(6) + x.scale(3) + y.scale(2) + x * y
    for _ in range(30):
        a = random_element(alg, rng, unit=True)
        assert one * a == a and a * one == a
        assert (two * a).terms == a.scale(2).terms
        for v in (two * a).terms.values():
            assert_raw(field, v)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_mul_terms_reject_policy_raises(field):
    strict = make_algebra(field, ["x", "y"], [], n=2, unital=True, policy="reject")
    x, y = strict.gen("x"), strict.gen("y")
    assert (strict.unit() * (x * y)).terms  # the unit never escapes
    with pytest.raises(TruncationOverflow):
        (x * y) * (strict.unit() + x)
    loose = make_algebra(field, ["x", "y"], [], n=2)
    u, v = loose.gen("x"), loose.gen("y")
    terms, flag = loose._mul_terms((u * v).terms, u.terms, "truncate")
    assert not terms and flag
    with pytest.raises(TruncationOverflow):
        loose._mul_terms((u * v).terms, u.terms, "reject")


# -- word-pair products from the cached product of the tail ----------------------


@st.composite
def pair_product_cases(draw, field):
    """(presentation, N, rng): up to three generators of degrees 1..3, up to
    four random homogeneous relations of degree >= 2, unital or not, and N
    near the largest that about 40 words allow, so that every pair of basis
    words can be taken.  Half of the cases also kill every word of a window
    of degrees, so that `zero_above` certifies the products beyond it."""
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    alphabet = Alphabet(list(zip("xyz", degrees)))
    cap = max(
        d for d in range(1, 12) if sum(alphabet.word_count(e) for e in range(1, d + 1)) <= 40
    )
    n = draw(st.integers(max(1, cap - 2), cap))
    relations = draw_relations(draw, alphabet, field, min(2, n), n)
    span = max(degrees)
    if span <= n and draw(st.booleans()):
        k = draw(st.integers(min(2, n - span + 1), n - span + 1))
        relations += [
            FreeElement.from_word(alphabet, field, alphabet.word(w))
            for e in range(k, k + span)
            for w in words_of_degree(alphabet, e)
        ]
    pres = Presentation(alphabet, field, relations, unital=draw(st.booleans()))
    return pres, n, draw(st.randoms(use_true_random=False))


def assert_pair_products_match_fresh_normal_forms(pres, n, rng):
    """`_word_pair_product` takes one letter step on the cached product of
    the tail.  Requested for every pair of basis words in a shuffled order,
    so that tail entries are filled both before and after their parents, it
    equals `_nf_word` of the concatenated word on a fresh algebra; so does
    every entry it leaves in `_pair_cache`; and pairs beyond N are flagged
    (or certified zero), and raise under `reject`, as before."""
    field = pres.field
    alg, oracle = TruncatedAlgebra(pres, n), TruncatedAlgebra(pres, n)
    one = field.one

    def expected(u, v):
        d = u.degree + v.degree
        if d > n:
            return {}, oracle.zero_above is None or d < oracle.zero_above
        return oracle._nf_word((u * v).letters), False

    words = alg.basis_words()
    pairs = [(u, v) for u in words for v in words]
    rng.shuffle(pairs)
    for u, v in pairs:
        iu, iv = alg._index(u), alg._index(v)
        before = {t: set(products) for t, products in alg._pair_cache.items()}
        got, (vec, escaped) = alg._word_pair_product(iu, iv), expected(u, v)
        assert got == vec and (got is _ESCAPED) == escaped
        if u.degree + v.degree <= n and v.letters:
            # every tail of u, down to the first whose product with v was
            # cached before the call, now has that product in the cache (a
            # product with the unit is the word itself, and is not stored)
            tail = iu
            while tail != alg._unit:
                assert iv in alg._pair_cache[tail]
                if iv in before.get(tail, ()):
                    break
                tail = alg._tail[tail]
    for u, products in alg._pair_cache.items():
        assert alg._degree[u] >= 1
        for v, hit in products.items():
            assert (hit, hit is _ESCAPED) == expected(alg._word(u), alg._word(v))

    # the same products through `_mul_terms`, on a filled and on a fresh cache
    strict = TruncatedAlgebra(pres, n, policy="reject")
    rng.shuffle(pairs)
    for u, v in pairs:
        vec, escaped = expected(u, v)
        iu, iv = alg._index(u), alg._index(v)
        assert alg._mul_terms({iu: one}, {iv: one}, "truncate") == (vec, escaped)
        for host in (alg, strict, strict):  # the second `strict` call hits the cache
            if escaped:
                with pytest.raises(TruncationOverflow):
                    host._mul_terms({iu: one}, {iv: one}, "reject")
            else:
                assert host._mul_terms({iu: one}, {iv: one}, "reject") == (vec, False)


@pytest.mark.parametrize("field", BUILD_FIELDS, ids=repr)
@settings(max_examples=30)
@given(data=st.data())
def test_pair_products_match_fresh_normal_forms(field, data):
    assert_pair_products_match_fresh_normal_forms(*data.draw(pair_product_cases(field)))


@pytest.mark.parametrize("field", BUILD_FIELDS, ids=repr)
@pytest.mark.parametrize(
    "gens, rels, n, unital",
    [
        ([("x", 1), ("y", 1), ("z", 2)], ["x*y - 2*y*x", "y*z - z*y + x*x*x"], 5, True),
        ([("a", 1), ("b", 2), ("c", 3)], ["a*b - 3*b*a", "c*a - a*c + b*b"], 7, False),
        ([("x", 1), ("y", 1)], ["x*y*x - y*x*y", "x^4"], 6, False),
    ],
    ids=["xyz", "abc", "xyx"],
)
def test_pair_products_match_fresh_normal_forms_pinned(field, gens, rels, n, unital):
    ab = Alphabet(gens)
    pres = Presentation(ab, field, [parse_element(r, ab, field) for r in rels], unital=unital)
    assert_pair_products_match_fresh_normal_forms(pres, n, random.Random(53))


@st.composite
def term_maps(draw, alg):
    """A term map of up to five basis words with small coefficients (the
    field's `one` among them), possibly empty, and with a unit term on a
    drawn coin when the algebra is unital."""
    f = alg.field
    words = range(alg._unit + 1, alg._first[-1])
    coeffs = st.integers(-3, 3).map(lambda c: f.scalar(c).raw).filter(bool)
    terms = draw(st.dictionaries(st.sampled_from(words), coeffs, max_size=5)) if words else {}
    if alg.unital and draw(st.booleans()):
        terms[alg._unit] = draw(coeffs)
    return terms


@pytest.mark.parametrize("field", BUILD_FIELDS, ids=repr)
@settings(max_examples=30)
@given(data=st.data())
def test_mul_terms_matches_all_pairs_oracle(field, data):
    """`_mul_terms`, which settles the pairs outside the truncation by
    degree, gives the terms and the flag of the all-pairs loop, raises under
    `reject` iff that loop flags, and leaves in `_pair_cache` only products
    inside the truncation."""
    pres, n, _ = data.draw(pair_product_cases(field))
    alg, strict, oracle = (TruncatedAlgebra(pres, n, policy=p) for p in ("truncate", "reject", "truncate"))
    for _ in range(4):
        a, b = data.draw(term_maps(alg)), data.draw(term_maps(alg))
        expected = all_pairs_mul_terms(oracle, a, b, "truncate")
        assert alg._mul_terms(a, b, "truncate") == expected
        if expected[1]:
            with pytest.raises(TruncationOverflow):
                strict._mul_terms(a, b, "reject")
        else:
            assert strict._mul_terms(a, b, "reject") == expected
    for host in (alg, strict):
        for u, products in host._pair_cache.items():
            for v, vec in products.items():
                assert vec is not _ESCAPED and host._degree[u] + host._degree[v] <= n


def test_pair_cache_holds_products_inside_the_truncation_only():
    """After the dense-law check on the acceptance test's A (every degree-4
    word killed, N=4, so zero from degree 4 on), every stored pair has
    degree <= 3; a left action on a free B stores no escaped pair."""
    field = Field.prime(101)
    b_alg = make_algebra(field, ["x", "y"], [], n=3, unital=True)
    a_alg = killed_above(field, ["s", "t", "u"], kill_degree=4, n=4, unital=True)
    assert a_alg.zero_above == 4
    rng = random.Random(909)
    idx = BasisIndexing(b_alg)
    values = {i: random_element(a_alg, rng, density=1.0, unit=True) for i in range(1, len(idx) + 1)}
    dense_dim_check(b_alg, a_alg, GammaMap(idx, a_alg, values), 2)
    degree = a_alg._degree
    assert a_alg._pair_cache
    assert all(degree[u] + degree[v] <= 3 for u, vs in a_alg._pair_cache.items() for v in vs)

    for w in range(2, len(idx) + 1):
        idx.left_action(w)
    assert idx.left_action(len(idx)).any_escaped
    assert not any(vec is _ESCAPED for vs in b_alg._pair_cache.values() for vec in vs.values())


def test_tails_are_basis_instances():
    """`_head` and `_tail` give the first letter and the tail index of each
    basis word x*u, the basis words as `ReferenceQuotient` finds them, so the
    walk in `_walk` steps from x*u to u."""
    alg = make_algebra(Q, ["x", "y", "z"], ["x*y - 2*y*x", "y*z - z*y + x*x"], n=6)
    ref = ReferenceQuotient(alg.presentation, 6)
    words = [w for d in range(1, 7) for w in ref.basis[d]]
    assert alg.total_dim() == len(words)
    for i, w in enumerate(words, start=1):
        x, rest = w.letters[0], w.letters[1:]
        assert alg._head[i] == x and alg._degree[i] == w.degree
        if rest:
            tail = Word(rest, w.degree - alg.alphabet.degrees[x])
            assert alg._tail[i] == words.index(tail) + 1
        else:
            assert alg._tail[i] == alg._unit


def count_letter_steps(monkeypatch):
    counts = {"steps": 0, "empty": 0}
    step = TruncatedAlgebra._apply_letter

    def counted_step(self, x, vec):
        counts["steps"] += 1
        counts["empty"] += not vec
        return step(self, x, vec)

    monkeypatch.setattr(TruncatedAlgebra, "_apply_letter", counted_step)
    return counts


@pytest.mark.parametrize(
    "rels, n, dim, bound",
    [([], 12, 8190, 8188), (["x*y - y*x"], 40, 860, 3200)],
    ids=["free2_N12", "comm2_N40"],
)
def test_growth_work_counts(monkeypatch, rels, n, dim, bound):
    """One-letter steps (`_apply_letter`) of the build plus `growth_dims` of
    the degree-one generators, on the bench's `growth_free_N12` and
    `growth_comm_N40` instances.

    The bounds, 8,188 and 3,200, are the counts measured when each word-pair
    product became one letter step on the cached product of its tail; the
    products before that replayed the whole left word, 81,924 and 44,202
    steps.  The free algebra needs no step for its build, and one step per
    basis word of degree 2..12 for the growth.
    """
    counts = count_letter_steps(monkeypatch)
    alg = make_algebra(Q, ["x", "y"], rels, n=n)
    dims = growth_dims(alg, degree_one_generators(alg), n)
    assert dims[-1] == (dim, True)
    assert counts["steps"] <= bound


# -- the basis numbering -----------------------------------------------------------


@settings(max_examples=60)
@given(graded_presentations())
def test_indices_and_candidate_keys_sort_like_their_words(case):
    """Basis indices run 1, 2, ... along the words in deglex order (the unit
    first when unital), and the build's candidate keys x*M + u, M the least
    index of the candidates' degree, sort like the candidate words x*u: every
    key the build inserts is one of them."""
    pres, n = case
    seen = []
    ideal_vectors = TruncatedAlgebra._ideal_vectors

    def recording(self, d, base, *rest):
        for vec in ideal_vectors(self, d, base, *rest):
            seen.append((d, base, vec))
            yield vec

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TruncatedAlgebra, "_ideal_vectors", recording)
        alg = TruncatedAlgebra(pres, n)
    words = alg.basis_words()
    assert words == sorted(words) and len(set(words)) == len(words)
    assert [alg._index(w) for w in words] == list(range(1, len(words) + 1))
    assert (words[:1] == [Word((), 0)]) == pres.unital
    degrees = pres.alphabet.degrees
    for d in range(1, n + 1):
        base = alg._first[d]
        candidates = {}  # key -> word
        for x, gd in enumerate(degrees):
            if gd <= d:
                for u in alg._indices(d - gd) if gd < d else [alg._unit]:
                    candidates[x * base + u] = Word((x,) + alg._word(u).letters, d)
        keys = sorted(candidates)
        assert [candidates[k] for k in keys] == sorted(candidates.values())
        # a candidate word has an index exactly when it is a basis word
        basis = set(alg.degree_basis(d))
        assert {w for w in candidates.values() if alg._index(w) is not None} == basis
        for dd, b, vec in seen:
            if dd == d:
                assert b == base and set(vec) <= set(candidates)


def reference_product(ref, a, b):
    """(a*b, escaped) for Word-keyed normal forms, through `ReferenceQuotient`."""
    f, out, escaped = ref.field, {}, False
    for u, cu in a.items():
        for v, cv in b.items():
            w = u * v
            if w.degree > len(ref.basis) - 1:
                escaped = escaped or ref.zero_above is None or w.degree < ref.zero_above
                continue
            for t, c in ref.nf_word(w).items():
                _acc(out, t, f.mul(f.mul(cu, cv), c), f)
    return out, escaped


def reference_growth_dims(ref, gens, n_max):
    """`growth_dims` of Word-keyed generators: the same frontier closure, with
    products from `reference_product` and ranks from `dense_rank`."""
    reps, exact = [], True

    def add(vec, escaped):
        nonlocal exact
        exact = exact and not escaped
        if dense_rank(reps + [vec], ref.field) > len(reps):
            reps.append(vec)
            return True
        return False

    frontier = [g for g in gens if add(g, False)]
    dims = [(len(reps), exact)]
    for _ in range(n_max - 1):
        new = []
        for e in frontier:
            for g in gens:
                p, escaped = reference_product(ref, e, g)
                if add(p, escaped):
                    new.append(p)
        frontier = new
        dims.append((len(reps), exact))
    return dims


# Pinned presentations: a letter of degree 2 (`x*z - z*x`), and generators
# that are not normal words, being a pivot (`x - y`, `z - x*y`,
# `z - x - 2*y`, the b and c of `abc`) or killed (`x`).
PINNED = {
    "generator-not-basis": ([("x", 1), ("y", 1)], ["x - y"], 6),
    "degree-two-letter": ([("x", 1), ("z", 2)], ["x*z - z*x"], 8),
    "z-is-xy": ([("x", 1), ("y", 1), ("z", 2)], ["z - x*y"], 5),
    "x-killed": ([("x", 1), ("y", 1)], ["x"], 6),
    "z-is-x-plus-2y": ([("x", 1), ("y", 1), ("z", 1)], ["z - x - 2*y"], 5),
    "abc": ([("a", 1), ("b", 2), ("c", 3)], ["c - a*b + 3*b*a", "b - a*a"], 8),
}


def pinned_presentation(name, field, unital=False):
    gens, rels, n = PINNED[name]
    ab = Alphabet(gens)
    return Presentation(ab, field, [parse_element(r, ab, field) for r in rels], unital=unital), n


@pytest.mark.parametrize("field", [Q, Field.prime(3), Field.prime(2**31 - 1)], ids=repr)
@pytest.mark.parametrize("unital", [False, True], ids=["non-unital", "unital"])
@pytest.mark.parametrize("name", list(PINNED))
def test_pinned_numbering_matches_reference(field, unital, name):
    """The build, its word-pair products and `growth_dims` of the generators
    agree with `ReferenceQuotient`, although the build extends by no
    generator that is not a normal word."""
    pres, n = pinned_presentation(name, field, unital)
    ab = pres.alphabet
    assert_build_matches_reference(pres, n)
    alg, ref = TruncatedAlgebra(pres, n), ReferenceQuotient(pres, n)
    if name == "generator-not-basis":  # y, the greater word, is the pivot: no basis word
        y = ab.gen(1)
        assert alg._index(y) is None and alg.gen("y") == alg.gen("x")
        with pytest.raises(ValueError, match="not a normal basis word"):
            alg.element({y: 1})
    words = [w for w in alg.basis_words() if w.letters]
    for u in words:
        for v in words:
            got = alg._word_pair_product(alg._index(u), alg._index(v))
            if u.degree + v.degree <= n:
                assert word_terms(alg, got) == ref.nf_word(u * v)
            else:
                d = u.degree + v.degree
                assert not got
                assert (got is _ESCAPED) == (ref.zero_above is None or d < ref.zero_above)
    gen_words = [ab.gen(g) for g in range(len(ab))]
    expected = reference_growth_dims(ref, [ref.nf_word(w) for w in gen_words], n)
    assert growth_dims(alg, [alg.gen(g) for g in range(len(ab))], n) == expected


@pytest.mark.parametrize(
    "name, inserts",
    [("generator-not-basis", 6), ("z-is-xy", 15), ("x-killed", 6), ("z-is-x-plus-2y", 31), ("abc", 13)],
)
def test_build_extends_by_normal_generators_only(monkeypatch, name, inserts):
    """The build extends the kernels by the generators that are normal words
    only (see `TruncatedAlgebra._ideal_vectors`).  Over Q it makes these
    inserts; extending by every generator, through its normal form, made
    11, 18, 6, 46 and 29."""
    pres, n = pinned_presentation(name, Q)
    counts = {"inserts": 0}
    insert = Echelon.insert

    def counted(self, vec):
        counts["inserts"] += 1
        return insert(self, vec)

    monkeypatch.setattr(Echelon, "insert", counted)
    TruncatedAlgebra(pres, n)
    assert counts["inserts"] <= inserts
