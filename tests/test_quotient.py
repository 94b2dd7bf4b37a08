import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathkit import (
    Alphabet,
    Field,
    FreeElement,
    Presentation,
    PresentationError,
    Subspace,
    TruncatedAlgebra,
    TruncationOverflow,
    degree_component,
    degree_one_generators,
    growth_dims,
    growth_g,
    parse_element,
)
from wreathkit import linalg
from wreathkit.linalg import dense_rank

from helpers import (
    ReferenceQuotient,
    assert_raw,
    commutative_dim,
    killed_above,
    make_algebra,
    random_element,
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
    assert (y * x).terms == {alg.alphabet.word((0, 1)): Q.one}


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
def graded_presentations(draw):
    """(presentation, N): up to three generators of degrees 1..3, up to four
    random homogeneous relations, and N as large as a few hundred words allow."""
    field = draw(st.sampled_from(BUILD_FIELDS))
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
        coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
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
        for cand in ref.candidates[d]:
            nf = alg.from_free(FreeElement.from_word(alphabet, field, cand))
            assert nf.terms == ref.reduction.get(cand, {cand: field.one}) and not nf.flag
        if alphabet.word_count(d) <= 40:
            assert alg.ideal_dim(d) == brute_force_ideal_dim(pres, d)


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
    ],
)
def test_build_matches_reference_builder_pinned(field, gens, rels, n):
    ab = Alphabet(gens)
    pres = Presentation(ab, field, [parse_element(r, ab, field) for r in rels])
    assert_build_matches_reference(pres, n)


@pytest.mark.parametrize("field", BUILD_FIELDS, ids=repr)
def test_products_and_degree_basis_share_the_basis_instances(field):
    """Every normal word exists once: products, normal forms and degree_basis
    hand out the instances stored in the basis, so dict lookups keyed by
    words succeed on identity."""
    rng = random.Random(47)
    ab = Alphabet([("x", 1), ("y", 1), ("z", 2)])
    rels = [parse_element(src, ab, field) for src in ("x*y - 2*y*x", "y*z - z*y + x*x*x")]
    alg = TruncatedAlgebra(Presentation(ab, field, rels), 6)
    canonical = {w: w for d in range(1, 7) for w in alg._basis[d]}
    for d in range(1, 7):
        assert all(a is b for a, b in zip(alg.degree_basis(d), alg._basis[d], strict=True))
    for _ in range(30):
        a, b = (random_element(alg, rng, max_degree=3) for _ in range(2))
        terms, _ = alg._mul_terms(a.terms, b.terms, "truncate")
        assert all(canonical[w] is w for w in terms)
    free = parse_element("z*y*x + 3*x*z*y - y^4", ab, field)
    assert all(canonical[w] is w for w in alg.from_free(free).terms)


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
    assert Subspace(alg, [x]).sum(Subspace(alg, [y])).dim == 2

    nil = make_algebra(Q, ["x"], ["x^3"], n=3)
    s = Subspace(nil, [nil.gen("x")])
    ps = s.product_span(s)
    assert ps.dim == 1
    assert ps.contains(nil.gen("x") * nil.gen("x"))


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
    assert growth_g(alg, [alg.gen("x")], 4) == (2, True)


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
        fa, fb = (FreeElement(alg.alphabet, field, e.terms) for e in (a, b))
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
        return oracle._nf_word(u * v), False

    words = alg.basis_words()
    pairs = [(u, v) for u in words for v in words]
    rng.shuffle(pairs)
    for u, v in pairs:
        assert alg._word_pair_product(u, v) == expected(u, v)
        if u.degree + v.degree <= n:
            # every tail of u now has its product with v in the cache
            tail = u
            while tail.letters:
                assert v in alg._pair_cache[tail]
                tail = alg._normal[tail]
    for u, products in alg._pair_cache.items():
        assert u in alg._normal
        for v, hit in products.items():
            assert hit == expected(u, v)

    # the same products through `_mul_terms`, on a filled and on a fresh cache
    strict = TruncatedAlgebra(pres, n, policy="reject")
    rng.shuffle(pairs)
    for u, v in pairs:
        vec, escaped = expected(u, v)
        assert alg._mul_terms({u: one}, {v: one}, "truncate") == (vec, escaped)
        for host in (alg, strict, strict):  # the second `strict` call hits the cache
            if escaped:
                with pytest.raises(TruncationOverflow):
                    host._mul_terms({u: one}, {v: one}, "reject")
            else:
                assert host._mul_terms({u: one}, {v: one}, "reject") == (vec, False)


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


def test_tails_are_basis_instances():
    """`_normal` maps each basis word x*u to the basis instance of its tail u,
    so the cache walk in `_word_pair_product` looks up on identity."""
    alg = make_algebra(Q, ["x", "y", "z"], ["x*y - 2*y*x", "y*z - z*y + x*x"], n=6)
    canonical = {w: w for w in alg.basis_words()}
    assert set(alg._normal) == set(canonical)
    for w, tail in alg._normal.items():
        assert w.letters[1:] == tail.letters
        assert tail.degree == w.degree - alg.alphabet.degrees[w.letters[0]]
        assert tail.is_empty or canonical[tail] is tail


def count_letter_steps(monkeypatch):
    counts = {"steps": 0}
    step = TruncatedAlgebra._apply_letter

    def counted_step(self, x, vec):
        counts["steps"] += 1
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
