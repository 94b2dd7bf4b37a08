import random
from fractions import Fraction

import pytest

from wreathkit import (
    BasisIndexing,
    Field,
    GammaMap,
    WreathAlgebra,
    WreathSpan,
    matrix_unit_generation_check,
    nilpotency_check,
    nilpotent_host_embedding_check,
    unipotent_inverse,
    unit_row_projection,
    wreath_coords,
)
from wreathkit.wreath import wreath_from_coords
from wreathkit.linalg import Echelon, dense_rank
from wreathkit.words import Alphabet
from wreathkit.quotient import Presentation, TruncatedAlgebra

from helpers import make_algebra, random_element, random_gamma, random_smatrix, random_wreath, sample

Q = Field.rationals()
GF5 = Field.prime(5)
GF7 = Field.prime(7)


def nilpotent_pair(field=Q):
    """B = span(b, b^2) with b^3 = 0, A = single nilpotent generator."""
    b_alg = make_algebra(field, ["b"], ["b^3"], n=3)
    a_alg = make_algebra(field, ["z"], ["z^3"], n=3)
    return WreathAlgebra(b_alg, a_alg)


def hull_pair(field=GF7, nb=2, na=3):
    b_alg = make_algebra(field, ["x", "y"], [], n=nb, unital=True)
    a_alg = make_algebra(field, ["z"], ["z^3"], n=na)
    return WreathAlgebra(b_alg, a_alg)


# -- indexing -----------------------------------------------------------------


def test_indexing_unit_first_degree_major():
    alg = make_algebra(Q, ["x", "y"], [], n=2, unital=True)
    idx = BasisIndexing(alg)
    names = [alg.alphabet.format_word(idx.word_at(i)) for i in range(1, len(idx) + 1)]
    assert names == ["1", "x", "y", "x^2", "x*y", "y*x", "y^2"]
    assert idx.word_at(1).is_empty


def test_indexing_non_unital():
    wa = nilpotent_pair()
    idx = wa.indexing
    assert len(idx) == 2
    assert idx.word_at(1).letters == (0,)
    assert idx.word_at(2).letters == (0, 0)


def test_coords_round_trip():
    rng = random.Random(2)
    alg = make_algebra(Q, ["x", "y"], [], n=2, unital=True)
    for unipotent in (False, True):
        idx = BasisIndexing(alg, unipotent=unipotent)
        for _ in range(50):
            e = random_element(alg, rng, unit=True)
            back = alg.zero()
            for i, c in idx.element_coords(e).items():
                back = back + idx.basis_element(i).scale(c)
            assert back == e


def test_unipotent_needs_unit():
    alg = make_algebra(Q, ["x"], [], n=2)
    with pytest.raises(ValueError):
        BasisIndexing(alg, unipotent=True)


# -- left multiplication matrices ---------------------------------------------


def left_mult_entries(b, idx):
    """L(b) as {(i, j): c}: column j is `product_column(b, j)`."""
    return {
        (i, j): c
        for j in range(1, len(idx) + 1)
        for i, c in idx.product_column(b, j)[0].items()
    }


def test_left_mult_matrix_nilpotent_host():
    wa = nilpotent_pair()
    lam = left_mult_entries(wa.b_host.gen("b"), wa.indexing)
    assert lam == {(2, 1): Fraction(1)}  # b*b = b^2, b*b^2 = 0


def test_left_mult_identity_and_zero():
    alg = make_algebra(Q, ["x"], ["x^3"], n=3, unital=True)
    idx = BasisIndexing(alg)
    assert left_mult_entries(alg.unit(), idx) == {(i, i): 1 for i in range(1, len(idx) + 1)}
    assert not left_mult_entries(alg.zero(), idx)


def test_left_mult_is_homomorphism():
    rng = random.Random(8)
    alg = make_algebra(GF7, ["x", "y"], ["x*y - y*x"], n=4, unital=True)
    idx = BasisIndexing(alg)
    for _ in range(25):
        b1 = random_element(alg, rng, max_degree=2)
        b2 = random_element(alg, rng, max_degree=2)
        lhs = left_mult_entries(b1 * b2, idx)
        l2 = left_mult_entries(b2, idx)
        rhs = {}
        for (i, k), a in left_mult_entries(b1, idx).items():
            for (kk, j), b in l2.items():
                if kk == k:
                    rhs[(i, j)] = GF7.add(rhs.get((i, j), 0), GF7.mul(a, b))
        assert lhs == {key: c for key, c in rhs.items() if c}


# -- matrix units and row maps --------------------------------------------------


def test_matrix_unit_action():
    wa = hull_pair()
    a = wa.a_host.gen("z")
    e = wa.matrix_unit(2, 3, a)
    assert e.apply_column(3) == {2: a}
    assert e.apply_column(4) == {}
    assert not wa.matrix_unit(1, 1, wa.a_host.zero())


def test_matrix_unit_calculus():
    wa = hull_pair()
    a = wa.a_host.gen("z")
    b = wa.a_host.gen("z") * wa.a_host.gen("z")
    lhs = wa.matrix_unit(1, 3, a).matmul(wa.matrix_unit(3, 2, a))
    assert lhs == wa.matrix_unit(1, 2, a * a)
    assert not wa.matrix_unit(1, 3, a).matmul(wa.matrix_unit(2, 2, b))


def test_corner_unit_sends_one_to_u():
    wa = hull_pair()
    u = wa.a_host.gen("z")
    e = wa.matrix_unit(1, 1, u)
    assert e.apply_column(1) == {1: u}
    assert all(not e.apply_column(j) for j in range(2, len(wa.indexing) + 1))


def test_gamma_row_shape():
    wa = hull_pair()
    rng = random.Random(3)
    gamma = random_gamma(wa.indexing, wa.a_host, rng)
    c = wa.gamma_row(gamma)
    assert c.row_support() <= {1}
    for j, a in gamma.values.items():
        assert c.entry(1, j) == a
    zero = GammaMap(wa.indexing, wa.a_host, {})
    assert not wa.gamma_row(zero)


def test_row_map_composition_scales_by_unit_value():
    # c_alpha c_beta acts as left multiplication by alpha(1) on c_beta
    wa = hull_pair()
    rng = random.Random(4)
    for _ in range(40):
        alpha = random_gamma(wa.indexing, wa.a_host, rng)
        beta = random_gamma(wa.indexing, wa.a_host, rng)
        ca, cb = wa.gamma_row(alpha), wa.gamma_row(beta)
        a1 = alpha.value(1)
        scaled = GammaMap(
            wa.indexing, wa.a_host, {j: a1 * b for j, b in beta.values.items() if a1 * b}
        )
        assert ca.matmul(cb) == wa.gamma_row(scaled)


# -- wreath multiplication ------------------------------------------------------


def test_b_part_embeds_as_subalgebra():
    wa = hull_pair()
    rng = random.Random(5)
    for _ in range(30):
        b1 = random_element(wa.b_host, rng, max_degree=1)
        b2 = random_element(wa.b_host, rng, max_degree=1)
        prod = wa.embed(b1) * wa.embed(b2)
        assert prod.b == b1 * b2 and not prod.s


def test_pure_matrix_product_is_matmul():
    wa = hull_pair()
    rng = random.Random(6)
    for _ in range(30):
        s1 = random_smatrix(wa, rng)
        s2 = random_smatrix(wa, rng)
        prod = wa.from_matrix(s1) * wa.from_matrix(s2)
        assert not prod.b and prod.s == s1.matmul(s2)


def test_embedding_identity_single_case():
    # hand check of the host action on a single matrix entry
    wa = nilpotent_pair()
    a = wa.a_host.gen("z")
    f = wa.matrix_unit(1, 2, a)  # sends b^2 to b (x) a
    out = wa.embed(wa.b_host.gen("b")) * wa.from_matrix(f)
    assert out.s == wa.matrix_unit(2, 2, a)  # sends b^2 to b^2 (x) a
    assert not out.b


def test_addition_and_scaling():
    wa = hull_pair()
    rng = random.Random(7)
    e = random_wreath(wa, rng)
    zero = wa.element()
    assert e + zero == e
    assert not (e - e)
    two = e.scale(2)
    assert two.b == e.b.scale(2) and two.s == e.s.scale(2)


def test_wreath_associativity_random():
    wa = hull_pair()
    rng = random.Random(9)
    for _ in range(200):
        e1 = random_wreath(wa, rng)
        e2 = random_wreath(wa, rng)
        e3 = random_wreath(wa, rng)
        left = (e1 * e2) * e3
        right = e1 * (e2 * e3)
        assert left == right


def test_bimodule_axioms_random():
    wa = hull_pair(nb=3)
    rng = random.Random(10)
    for _ in range(100):
        f = random_smatrix(wa, rng, row_degree_cap=1)
        b1 = random_element(wa.b_host, rng, max_degree=1)
        b2 = random_element(wa.b_host, rng, max_degree=1)
        assert f.rmul_b(b1).rmul_b(b2) == f.rmul_b(b1 * b2)
        assert f.lmul_b(b2).lmul_b(b1) == f.lmul_b(b1 * b2)
        assert f.lmul_b(b1).rmul_b(b2) == f.rmul_b(b2).lmul_b(b1)


def test_row_ideal_closed_under_right_multiplication():
    wa = hull_pair()
    rng = random.Random(11)
    for _ in range(50):
        gamma = random_gamma(wa.indexing, wa.a_host, rng)
        c = wa.from_matrix(wa.gamma_row(gamma))
        e = random_wreath(wa, rng)
        prod = c * e
        assert prod.s.row_support() <= {1}
        assert not prod.b


def test_apply_examples():
    wa = hull_pair()
    a = wa.a_host.gen("z")
    e = wa.from_matrix(wa.matrix_unit(2, 3, a))
    b_coords, column, flag = e.apply(3)
    assert column == {2: a} and not b_coords and not flag
    b_coords, column, flag = e.apply(4)
    assert not column and not b_coords

    x = wa.b_host.gen("x")
    x_index = wa.indexing.index_of(wa.b_host.alphabet.word((0,)))
    b_coords, column, flag = wa.embed(x).apply(1)  # x * 1 = x
    assert not column
    assert b_coords == {x_index: 1}


def test_flag_propagation_on_lost_rows():
    # N=2 host: shifting a degree-2 row by a degree-1 element escapes
    wa = hull_pair(nb=2)
    deg2_index = next(
        i for i in range(1, len(wa.indexing) + 1) if wa.indexing.word_at(i).degree == 2
    )
    f = wa.matrix_unit(deg2_index, 1, wa.a_host.gen("z"))
    shifted = f.lmul_b(wa.b_host.gen("x"))
    assert shifted.flag and not shifted.entries
    # right action never loses data over a plain indexing
    moved = f.rmul_b(wa.b_host.gen("x"))
    assert not moved.flag


# -- projections, nilpotency, inverses -----------------------------------------


def test_unit_row_projection():
    wa = hull_pair()
    rng = random.Random(12)
    gamma = random_gamma(wa.indexing, wa.a_host, rng)
    c = wa.gamma_row(gamma)
    assert unit_row_projection(c) == gamma.value(1)
    assert not unit_row_projection(wa.zero_matrix())
    bad = wa.matrix_unit(2, 1, wa.a_host.gen("z"))
    with pytest.raises(ValueError):
        unit_row_projection(bad)


def test_projection_multiplicative_random():
    wa = hull_pair()
    rng = random.Random(13)
    for _ in range(1000):
        alpha = random_gamma(wa.indexing, wa.a_host, rng, density=0.5)
        beta = random_gamma(wa.indexing, wa.a_host, rng, density=0.5)
        ca, cb = wa.gamma_row(alpha), wa.gamma_row(beta)
        assert unit_row_projection(ca.matmul(cb)) == unit_row_projection(ca) * unit_row_projection(cb)


def test_kernel_of_projection_squares_to_zero():
    wa = hull_pair()
    rng = random.Random(14)
    for _ in range(100):
        alpha = random_gamma(wa.indexing, wa.a_host, rng)
        alpha.values.pop(1, None)  # force alpha(1) = 0
        c = wa.from_matrix(wa.gamma_row(alpha))
        if not c:
            continue
        rep = nilpotency_check(c, 4)
        assert rep.nilpotent and rep.index <= 2


def test_nilpotency_examples():
    wa = hull_pair()
    u = wa.a_host.gen("z") * wa.a_host.gen("z")  # u^2 = 0 since z^4 = 0... z^3 = 0 kills z^4
    e = wa.from_matrix(wa.matrix_unit(1, 1, u))
    rep = nilpotency_check(e, 10)
    assert rep.nilpotent and rep.index == 2

    a_unital = make_algebra(GF7, ["z"], ["z^3"], n=3, unital=True)
    wa2 = WreathAlgebra(wa.b_host, a_unital)
    idem = wa2.from_matrix(wa2.matrix_unit(1, 1, a_unital.unit()))
    assert nilpotency_check(idem, 15).verdict == "not-nilpotent-within-bound"


def test_nilpotency_inconclusive_on_overflow():
    b_alg = make_algebra(Q, ["x"], [], n=2, unital=True)
    a_alg = make_algebra(Q, ["z"], [], n=1)  # z*z escapes immediately
    wa = WreathAlgebra(b_alg, a_alg)
    e = wa.from_matrix(wa.matrix_unit(1, 1, a_alg.gen("z")))
    assert nilpotency_check(e, 5).verdict == "inconclusive-overflow"


def test_unipotent_inverse():
    alg = make_algebra(Q, ["n"], ["n^2"], n=2, unital=True)
    u = alg.unit() + alg.gen("n")
    inv = unipotent_inverse(u)
    assert inv == alg.unit() - alg.gen("n")
    assert u * inv == alg.unit()
    with pytest.raises(ValueError):
        unipotent_inverse(alg.gen("n"))


def test_unipotent_inverse_deeper():
    alg = make_algebra(Q, ["n"], [], n=4, unital=True)
    n = alg.gen("n")
    u = alg.unit() + n
    prod = u * unipotent_inverse(u)
    assert prod == alg.unit()  # geometric series truncates exactly in the quotient


# -- embedding and generation checks -------------------------------------------


def test_embedding_check_free_coefficients():
    a_alg = make_algebra(GF5, ["x", "y"], [], n=2)
    rep = nilpotent_host_embedding_check(a_alg)
    assert rep.ok and rep.cases_checked == 6 and rep.cube_vanishes


def test_embedding_check_one_dimensional():
    a_alg = TruncatedAlgebra(
        Presentation(Alphabet([]), Q, [], unital=True), 1
    )
    rep = nilpotent_host_embedding_check(a_alg)
    assert rep.ok and rep.cases_checked == 0 and rep.cube_vanishes


def test_generation_corner_alone_for_index_one():
    b_alg = make_algebra(Q, ["b"], ["b^2"], n=2, unital=True)
    a_alg = TruncatedAlgebra(Presentation(Alphabet([]), Q, [], unital=True), 1)
    rep = matrix_unit_generation_check(b_alg, a_alg, {}, index_cap=1)
    assert rep.ok and rep.targets_checked == 1


def test_generation_check_unipotent_basis():
    b_alg = make_algebra(Q, ["b"], ["b^2"], n=2, unital=True)
    a_alg = TruncatedAlgebra(Presentation(Alphabet([]), Q, [], unital=True), 1)
    gamma = {2: a_alg.unit()}
    rep = matrix_unit_generation_check(b_alg, a_alg, gamma, index_cap=2)
    assert rep.ok, rep.missing


def test_generation_check_with_coefficients():
    b_alg = make_algebra(Q, ["b"], ["b^2"], n=2, unital=True)
    a_alg = make_algebra(Q, ["z"], ["z^2"], n=2, unital=True)
    idx = BasisIndexing(b_alg, unipotent=True)
    gamma = {2: a_alg.gen("z"), 1: a_alg.unit()}
    rep = matrix_unit_generation_check(b_alg, a_alg, gamma, index_cap=2)
    assert rep.ok, rep.missing


# -- packed span coordinates ----------------------------------------------------


def tuple_coords(e):
    """Reference coordinates: keys ("b", w) and ("s", i, j, w), ordered as
    tuples, w the `Word` that a term's basis index stands for."""
    vec = {("b", e.b.host._word(k)): c for k, c in e.b.terms.items()}
    for (i, j), a in e.s.entries.items():
        for k, c in a.terms.items():
            vec[("s", i, j, a.host._word(k))] = c
    return vec


def packed_cases(field):
    """Wreath algebras over unital, non-unital and unipotent-indexed hosts."""
    b_unital = make_algebra(field, ["x", "y"], ["x*y - y*x"], n=3, unital=True)
    b_nil = make_algebra(field, ["x", "y"], ["x*x"], n=2)
    a_unital = make_algebra(field, ["z", "w"], ["z*w"], n=3, unital=True)
    a_nil = make_algebra(field, ["z"], ["z^3"], n=3)
    return [
        WreathAlgebra(b_unital, a_unital),
        WreathAlgebra(b_nil, a_nil),
        WreathAlgebra(b_unital, a_nil, BasisIndexing(b_unital, unipotent=True)),
    ]


def span_elements(wa, rng):
    """Random elements plus sums and products of them, so that spans see
    dependent vectors as well as independent ones."""
    base = [
        random_wreath(wa, rng, b_degree_cap=2, n_entries=4, row_degree_cap=2)
        for _ in range(12)
    ]
    sums = [a + b.scale(sample(wa.field, rng)) for a, b in zip(base, base[3:])]
    prods = [a * b for a, b in zip(base, base[1:6])]
    return base + sums + prods + [sums[0] - base[0]]


@pytest.mark.parametrize("field", [Field.prime(2), Field.prime(101), Q], ids=repr)
def test_packed_coords_sort_like_tuple_keys(field):
    rng = random.Random(31)
    for wa in packed_cases(field):
        packed_of = {}
        for e in span_elements(wa, rng):
            packed, ref = wreath_coords(e), tuple_coords(e)
            # both are built in the same order, key for key
            assert list(packed.values()) == list(ref.values())
            for key, int_key in zip(ref, packed):
                assert packed_of.setdefault(key, int_key) == int_key
        assert len(set(packed_of.values())) == len(packed_of)
        assert [packed_of[k] for k in sorted(packed_of)] == sorted(packed_of.values())


@pytest.mark.parametrize("field", [Field.prime(2), Field.prime(101), Q], ids=repr)
def test_wreath_coords_round_trip(field):
    """`wreath_from_coords` inverts `wreath_coords`, entry by entry, and puts
    a flag on the matrix part."""
    rng = random.Random(33)
    for wa in packed_cases(field):
        for e in span_elements(wa, rng):
            back = wreath_from_coords(wa, wreath_coords(e), e.flag)
            assert back == e and back.flag == e.flag == back.s.flag and not back.b.flag
            assert sorted(back.s.entries) == sorted(k for k, a in e.s.entries.items() if a)


@pytest.mark.parametrize("field", [Field.prime(2), Field.prime(101), Q], ids=repr)
def test_packed_span_matches_tuple_keyed_rank(field):
    rng = random.Random(32)
    for wa in packed_cases(field):
        elements = span_elements(wa, rng)
        span = WreathSpan(wa, elements)
        ref = [tuple_coords(e) for e in elements]
        assert span.dim == dense_rank(ref, field)
        # the same pivots as an echelon over the tuple keys
        ech = Echelon(field)
        packed_of = {}
        for e, vec in zip(elements, ref):
            ech.insert(vec)
            packed_of.update(zip(vec, wreath_coords(e)))
        assert {packed_of[k] for k, _ in ech.pivot_rows()} == {
            k for k, _ in span._ech.pivot_rows()
        }
