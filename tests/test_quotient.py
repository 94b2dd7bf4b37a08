import random
from itertools import product

import pytest

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
    growth_dims,
    growth_g,
    parse_element,
)
from wreathkit.linalg import dense_rank

from helpers import assert_raw, commutative_dim, killed_above, make_algebra, random_element

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


def brute_force_ideal_dim(presentation, d):
    """Oracle: span all u*r*v over the full word space of degree d."""
    alphabet, field = presentation.alphabet, presentation.field
    m = len(alphabet)
    vectors = []
    for r in presentation.relations:
        e = r.degree()
        if e > d:
            continue
        for lu in range(0, d - e + 1):
            lv = d - e - lu
            for u in product(range(m), repeat=lu):
                for v in product(range(m), repeat=lv):
                    uw = FreeElement.from_word(alphabet, field, alphabet.word(u)) if lu else None
                    vw = FreeElement.from_word(alphabet, field, alphabet.word(v)) if lv else None
                    elem = r
                    if uw is not None:
                        elem = uw * elem
                    if vw is not None:
                        elem = elem * vw
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
