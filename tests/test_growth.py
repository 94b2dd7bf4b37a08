import random
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathkit import (
    BasisIndexing,
    Field,
    FiltrationSchedule,
    GammaMap,
    GrowthTable,
    Subspace,
    TruncatedAlgebra,
    WreathAlgebra,
    WreathSpan,
    build_slow_gamma,
    dense_dim_check,
    density_witness,
    degree_one_generators,
    gk_estimate,
    shift_independence_witness,
    span_inclusion_check,
    w_gamma_table,
)
from wreathkit import io as wio
from wreathkit import growth
from wreathkit.growth import (
    _mpf_to_fraction,
    exact_log_interval,
    exp_bounds,
    log_interval,
    power_chain,
    weighted_image_spans,
)
from wreathkit.linalg import dense_rank

from helpers import (
    killed_above,
    make_algebra,
    random_element,
    random_gamma,
    reference_dense_dim_check,
    reference_span_inclusion,
    reference_weighted_image_spans,
    run_main,
    span_bound_job_case,
    translate_span_inclusion,
)

Q = Field.rationals()
GF7 = Field.prime(7)
BENCH = Path(__file__).resolve().parents[1] / "bench"


def single_image_pair(n=8):
    """Host: free one-generator hull; coefficients: free one-generator chain;
    every power of the host generator maps to the same degree-one element."""
    b_alg = make_algebra(Q, ["b"], [], n=n, unital=True)
    a_alg = make_algebra(Q, ["x"], [], n=n)
    idx = BasisIndexing(b_alg)
    values = {
        idx.index_of(w): a_alg.gen("x")
        for d in range(1, n + 1)
        for w in b_alg.degree_basis(d)
    }
    return b_alg, a_alg, GammaMap(idx, a_alg, values)


def test_single_generator_image_grows_linearly():
    b_alg, a_alg, gamma = single_image_pair(8)
    table = w_gamma_table(b_alg, a_alg, gamma, 8)
    assert table.rows() == [(n, n, True) for n in range(1, 9)]


def test_zero_map_gives_zero():
    b_alg, a_alg, _ = single_image_pair(4)
    zero = GammaMap(BasisIndexing(b_alg), a_alg, {})
    assert w_gamma_table(b_alg, a_alg, zero, 4).dims() == [0, 0, 0, 0]


def test_weight_one_is_the_image_of_v():
    b_alg, a_alg, gamma = single_image_pair(4)
    gens = degree_one_generators(b_alg)
    chain = power_chain(b_alg, gens, 1)
    w1 = weighted_image_spans(gamma, chain, a_alg, 1)[0]
    assert w1.dim == 1 and Subspace(a_alg, w1.representatives()).contains(a_alg.gen("x"))


def test_finite_dimensional_image_stabilizes():
    b_alg = make_algebra(Q, ["b"], [], n=6, unital=True)
    a_alg = make_algebra(Q, ["x"], ["x^3"], n=3)  # two-dimensional
    idx = BasisIndexing(b_alg)
    values = {
        idx.index_of(w): a_alg.gen("x")
        for d in range(1, 7)
        for w in b_alg.degree_basis(d)
    }
    gamma = GammaMap(idx, a_alg, values)
    dims = w_gamma_table(b_alg, a_alg, gamma, 6).dims()
    assert dims == [1, 2, 2, 2, 2, 2]


def brute_weighted_span(gamma, b_alg, a_alg, n):
    """Oracle: enumerate every composition of weights and every product of
    basis-word images directly; rank by dense elimination."""
    images = {}
    for i in range(1, n + 1):
        vecs = []
        for d in range(1, i + 1):
            for w in b_alg.degree_basis(d):
                val = gamma.apply(b_alg.element({w: b_alg.field.one}))
                if val:
                    vecs.append(val)
        images[i] = vecs

    def compositions(total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    vectors = []
    for total in range(1, n + 1):
        for comp in compositions(total):
            if not comp:
                continue
            pools = [images[i] for i in comp]
            if any(not pool for pool in pools):
                continue
            for choice in product(*pools):
                prod = choice[0]
                for factor in choice[1:]:
                    prod = prod * factor
                if prod:
                    vectors.append(dict(prod.terms))
    return dense_rank(vectors, a_alg.field)


def test_weighted_span_against_brute_force():
    rng = random.Random(42)
    b_alg = make_algebra(GF7, ["x", "y"], [], n=3, unital=True)
    a_alg = make_algebra(GF7, ["z", "w"], ["z*w - w*z"], n=3)
    idx = BasisIndexing(b_alg)
    for _ in range(5):
        gamma = random_gamma(idx, a_alg, rng, density=0.5)
        table = w_gamma_table(b_alg, a_alg, gamma, 3)
        for m in range(1, 4):
            assert table.entries[m][0] == brute_weighted_span(gamma, b_alg, a_alg, m)


def test_w_chain_monotone():
    rng = random.Random(43)
    b_alg = make_algebra(GF7, ["x", "y"], [], n=3, unital=True)
    a_alg = make_algebra(GF7, ["z"], ["z^3"], n=3)
    gamma = random_gamma(BasisIndexing(b_alg), a_alg, rng)
    gens = degree_one_generators(b_alg)
    chain = power_chain(b_alg, gens, 3)
    ws = weighted_image_spans(gamma, chain, a_alg, 3)
    for smaller, larger in zip(ws, ws[1:]):
        assert smaller.dim <= larger.dim
        assert smaller.representatives() == larger.representatives()[: smaller.dim]


# -- inclusion checks ----------------------------------------------------------


def small_instance(rng_seed=7):
    b_alg = killed_above(GF7, ["x", "y"], kill_degree=4, n=4, unital=True)
    a_alg = make_algebra(GF7, ["z"], ["z^4"], n=4)
    rng = random.Random(rng_seed)
    gamma = random_gamma(BasisIndexing(b_alg), a_alg, rng, density=0.6)
    return b_alg, a_alg, gamma


def test_inclusion_trivial_at_one():
    b_alg, a_alg, gamma = small_instance()
    report = span_inclusion_check(b_alg, a_alg, gamma, 1)
    assert report.ok and report.rows[0][3]


def test_inclusion_zero_gamma():
    b_alg, a_alg, _ = small_instance()
    zero = GammaMap(BasisIndexing(b_alg), a_alg, {})
    report = span_inclusion_check(b_alg, a_alg, zero, 3)
    assert report.ok
    # with a zero map the generated span is just the host chain
    chain = power_chain(b_alg, degree_one_generators(b_alg), 3)
    for (n, dim, _, _, _, _), sub in zip(report.rows, chain):
        assert dim == sub.dim


def test_inclusion_random_instances():
    for seed in (1, 2, 3):
        b_alg, a_alg, gamma = small_instance(seed)
        report = span_inclusion_check(b_alg, a_alg, gamma, 4)
        assert report.ok and report.exact, report.rows


def test_corner_variant_requires_unit():
    b_alg, a_alg, gamma = small_instance()
    with pytest.raises(ValueError):
        span_inclusion_check(b_alg, a_alg, gamma, 2, with_corner=True)


def test_corner_compression_is_one_dimensional():
    # e_11(1) V^i e_11(1) collapses to multiples of e_11(1)
    b_alg = killed_above(GF7, ["x", "y"], kill_degree=3, n=3, unital=True)
    a_alg = make_algebra(GF7, ["z"], ["z^3"], n=3, unital=True)
    wa = WreathAlgebra(b_alg, a_alg)
    corner = wa.from_matrix(wa.matrix_unit(1, 1, a_alg.unit()))
    chain = power_chain(b_alg, degree_one_generators(b_alg), 2)
    span = WreathSpan(wa)
    for sub in chain:
        for v in sub.representatives():
            span.add(corner * wa.embed(v) * corner)
    assert span.dim <= 1
    assert span.contains(corner) or span.dim == 0


def test_corner_inclusion_random():
    b_alg = killed_above(GF7, ["x", "y"], kill_degree=3, n=3, unital=True)
    a_alg = make_algebra(GF7, ["z"], ["z^3"], n=3, unital=True)
    rng = random.Random(17)
    gamma = random_gamma(BasisIndexing(b_alg), a_alg, rng, density=0.5)
    report = span_inclusion_check(b_alg, a_alg, gamma, 3, with_corner=True)
    assert report.ok and report.exact, report.rows


def test_span_inclusion_zero_gamma():
    b_alg, a_alg, _ = small_instance()
    zero = GammaMap(BasisIndexing(b_alg), a_alg, {})
    report = span_inclusion_check(b_alg, a_alg, zero, 3)
    assert report.exact
    chain = power_chain(b_alg, degree_one_generators(b_alg), 3)
    for (n, dim, _, _, bound, ok), sub in zip(report.rows, chain):
        assert ok and dim == sub.dim <= bound


# -- dense dimension law ---------------------------------------------------------


def test_dense_bound_always_holds():
    for seed in range(5):
        b_alg, a_alg, gamma = small_instance(seed)
        rep = dense_dim_check(b_alg, a_alg, gamma, 2)
        assert rep.leq


def test_dense_zero_gamma():
    b_alg, a_alg, _ = small_instance()
    zero = GammaMap(BasisIndexing(b_alg), a_alg, {})
    rep = dense_dim_check(b_alg, a_alg, zero, 2)
    assert rep.lhs_dim == 0 and rep.leq and rep.product_bound == 0


DENSE_FIELDS = [Q, Field.prime(2), GF7, Field.prime(101)]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    field=st.sampled_from(DENSE_FIELDS),
    b_unital=st.booleans(),
    unipotent=st.booleans(),
    b_kills=st.booleans(),
    a_certified=st.booleans(),
    a_unital=st.booleans(),
    density=st.sampled_from([0.0, 0.3, 0.8]),
    n=st.integers(1, 3),
)
def test_dense_check_matches_every_product_route(
    seed, field, b_unital, unipotent, b_kills, a_certified, a_unital, density, n
):
    """The tensor-product rank against the span of every product: B unital
    or not, with a plain or (unital B only) a unipotent indexing, exact or
    truncating at degree 1 or 2; A with a zero certificate or truncating at
    degree 2, so products escape; density 0.0 draws the zero map."""
    rng = random.Random(seed)
    if b_kills:
        b_alg = killed_above(field, ["x", "y"], kill_degree=3, n=3, unital=b_unital)
    else:
        b_alg = make_algebra(field, ["x", "y"], [], n=rng.choice([1, 2]), unital=b_unital)
    if a_certified:
        a_alg = make_algebra(field, ["z"], ["z^3"], n=3, unital=a_unital)
    else:
        a_alg = make_algebra(field, ["s", "t"], [], n=2, unital=a_unital)
    idx = BasisIndexing(b_alg, unipotent=unipotent and b_unital)
    gamma = random_gamma(idx, a_alg, rng, density=density)
    assert dense_dim_check(b_alg, a_alg, gamma, n) == reference_dense_dim_check(
        b_alg, a_alg, gamma, n
    )


@pytest.mark.parametrize("image, exact", [("zero", True), ("z^2", True), ("z", False)])
def test_dense_check_flags_the_left_escape_only_with_a_product(image, exact):
    """Over a non-unital B truncated at degree 2, V^2 holds x^2, and x^2 * x
    escapes; the product route reads that escape only through L(b_i) S_a
    with S_a != 0.  The zero map forms no product, and a map into z^2 gives
    W_2 = <z^2> and every S_a = 0 (z^2 * z^2 is a certified zero): both stay
    exact.  A map into z gives S_z != 0, and that escape is the only flag."""
    b_alg = make_algebra(GF7, ["x", "y"], [], n=2)
    a_alg = make_algebra(GF7, ["z"], ["z^3"], n=3)
    idx = BasisIndexing(b_alg)
    x = b_alg.gen("x")
    assert (x * x * x).flag and a_alg.zero_above == 3
    z = a_alg.gen("z")
    value = {"zero": None, "z^2": z * z, "z": z}[image]
    values = {i: value for i in range(1, len(idx) + 1)} if value else {}
    gamma = GammaMap(idx, a_alg, values)
    rep = dense_dim_check(b_alg, a_alg, gamma, 2)
    assert rep == reference_dense_dim_check(b_alg, a_alg, gamma, 2)
    assert rep.exact == exact
    chain = power_chain(b_alg, degree_one_generators(b_alg), 2)
    assert chain[1].exact and all(w.exact for w in weighted_image_spans(gamma, chain, a_alg, 2))


def test_dense_equality_usually_holds_over_big_field():
    # the coefficient algebra must be deep enough that the weighted image
    # span misses the top degree, else its top part multiplies trivially
    field = Field.prime(101)
    b_alg = make_algebra(field, ["x", "y"], [], n=3, unital=True)
    a_alg = killed_above(field, ["s", "t", "u"], kill_degree=4, n=4, unital=True)
    rng = random.Random(5)
    hits = 0
    for _ in range(5):
        idx = BasisIndexing(b_alg)
        values = {}
        for i in range(1, len(idx) + 1):
            a = random_element(a_alg, rng, density=1.0, unit=True)
            if a:
                values[i] = a
        gamma = GammaMap(idx, a_alg, values)
        rep = dense_dim_check(b_alg, a_alg, gamma, 2)
        assert rep.leq and rep.exact
        hits += rep.equality
    assert hits >= 4


# -- density witness -------------------------------------------------------------


def test_density_witness_zero_gamma_exhausts():
    b_alg, a_alg, _ = small_instance()
    zero = GammaMap(BasisIndexing(b_alg), a_alg, {})
    rep = density_witness(zero, [b_alg.gen("x")], a_alg.gen("z"), 2)
    assert not rep.found and rep.checked > 0


def test_density_witness_single_element():
    # n = 1: any b with a*gamma(b_1 b) nonzero
    b_alg = make_algebra(Q, ["b"], [], n=4, unital=True)
    a_alg = make_algebra(Q, ["z"], ["z^3"], n=3)
    idx = BasisIndexing(b_alg)
    cube = b_alg.degree_basis(3)[0]
    gamma = GammaMap(idx, a_alg, {idx.index_of(cube): a_alg.gen("z")})
    rep = density_witness(gamma, [b_alg.gen("b")], a_alg.gen("z"), 3)
    assert rep.found and rep.verified
    assert rep.witness == b_alg.gen("b") * b_alg.gen("b")


def test_density_witness_respects_prefix_conditions():
    # two elements: gamma(b_1 b) must vanish while a*gamma(b_2 b) does not
    field = GF7
    b_alg = make_algebra(field, ["x", "y"], [], n=3, unital=True)
    a_alg = make_algebra(field, ["z"], ["z^3"], n=3)
    idx = BasisIndexing(b_alg)
    w_xy = b_alg.alphabet.word((0, 1))
    gamma = GammaMap(idx, a_alg, {idx.index_of(w_xy): a_alg.gen("z")})
    x, y = b_alg.gen("x"), b_alg.gen("y")
    rep = density_witness(gamma, [y, x], a_alg.gen("z"), 2)
    assert rep.found and rep.verified
    assert not gamma.apply(y * rep.witness)
    assert a_alg.gen("z") * gamma.apply(x * rep.witness)


def test_dependent_input_rejected():
    b_alg, a_alg, gamma = small_instance()
    x = b_alg.gen("x")
    with pytest.raises(ValueError):
        density_witness(gamma, [x, x.scale(2)], a_alg.gen("z"), 2)
    with pytest.raises(ValueError):
        shift_independence_witness(b_alg, [x, x.scale(3)], 1)


# -- shift witness ---------------------------------------------------------------


def test_shift_witness_free_two_generators():
    b_alg = make_algebra(Q, ["x", "y"], [], n=6)
    rep = shift_independence_witness(b_alg, [b_alg.gen("x"), b_alg.gen("y")], 1)
    assert rep.found and rep.verified
    assert rep.witness == b_alg.gen("x")  # first deglex candidate works


def test_shift_witness_single_element():
    b_alg = make_algebra(Q, ["x", "y"], [], n=4)
    rep = shift_independence_witness(b_alg, [b_alg.gen("y")], 2)
    assert rep.found and rep.witness.min_degree() >= 2


def test_shift_witness_s_below_zero_is_an_error():
    b_alg = make_algebra(Q, ["x", "y"], [], n=3)
    with pytest.raises(ValueError, match="degree -3 is below 0"):
        shift_independence_witness(b_alg, [b_alg.gen("x"), b_alg.gen("y")], -3)


def test_shift_witness_exhausted_when_powers_vanish():
    b_alg = make_algebra(Q, ["x"], ["x^2"], n=3)
    rep = shift_independence_witness(b_alg, [b_alg.gen("x")], 2)
    assert not rep.found and rep.note


# -- slow-growth construction ------------------------------------------------------


def test_slow_gamma_small_instance():
    a_alg = make_algebra(Q, ["x"], ["x^4"], n=4)
    b_alg = make_algebra(Q, ["u", "v"], [], n=3)
    schedule = FiltrationSchedule([1, 2, 3])
    rep = build_slow_gamma(a_alg, b_alg, schedule, Fraction(1))
    assert [w.degree for _, w, _ in rep.assignments] == [1, 2, 3]
    # deglex-greatest new word at each step is the pure v-power
    assert [w.letters for _, w, _ in rep.assignments] == [(1,), (1, 1), (1, 1, 1)]
    assert rep.table.dims() == [1, 2, 3]
    assert all(ok for _, _, _, ok in rep.bound_rows)


def test_slow_gamma_images_stay_in_enumerated_span():
    a_alg = make_algebra(Q, ["x"], ["x^4"], n=4)
    b_alg = make_algebra(Q, ["u", "v"], [], n=3)
    schedule = FiltrationSchedule([1, 2, 3])
    rep = build_slow_gamma(a_alg, b_alg, schedule, Fraction(1))
    a_words = [w for d in range(1, 5) for w in a_alg.degree_basis(d)]
    for k in range(1, 4):
        allowed = Subspace(
            a_alg, [a_alg.element({w: Q.one}) for w in a_words[:k]]
        )
        for d in range(1, schedule.threshold(k) + 1):
            for w in b_alg.degree_basis(d):
                img = rep.gamma.apply(b_alg.element({w: Q.one}))
                assert allowed.contains(img)


def test_slow_gamma_empty_schedule():
    a_alg = make_algebra(Q, ["x"], [], n=2)
    b_alg = make_algebra(Q, ["u"], [], n=2)
    rep = build_slow_gamma(a_alg, b_alg, FiltrationSchedule([]), Fraction(1))
    assert not rep.gamma.values


def test_slow_gamma_no_new_words_error():
    a_alg = make_algebra(Q, ["x"], [], n=4)
    b_alg = make_algebra(Q, ["u"], ["u^2"], n=4)
    with pytest.raises(ValueError):
        build_slow_gamma(a_alg, b_alg, FiltrationSchedule([1, 3]), Fraction(1))


# -- schedules and exponential bounds -----------------------------------------------


def test_schedule_validation():
    with pytest.raises(ValueError):
        FiltrationSchedule([2, 2])
    with pytest.raises(ValueError):
        FiltrationSchedule([3, 1])
    with pytest.raises(ValueError):
        FiltrationSchedule([0, 1])


def test_exp_bounds_enclose():
    lo, hi = exp_bounds(Fraction(1))
    assert lo < hi
    assert Fraction(27182818, 10**7) < lo < hi < Fraction(27182819, 10**7)
    lo4, hi4 = exp_bounds(Fraction(4))
    # e**4 = 54.598...
    assert lo4 < Fraction(54599, 1000) and hi4 > Fraction(54598, 1000)


def test_faithfulness_verdicts():
    ok, rows = FiltrationSchedule([2, 4, 6]).faithful()
    assert not ok
    ok_big, rows_big = FiltrationSchedule([16, 9_000_000]).faithful()
    assert ok_big
    # n_1 = 15 fails e**e** 1 ~ 15.15
    ok_edge, _ = FiltrationSchedule([15, 9_000_000]).faithful()
    assert not ok_edge


def faithful_by_taylor(thresholds):
    """Reference rows: e**x enclosed directly by `exp_bounds`, sharpened by
    adding Taylor terms until every integer comparison resolves."""
    rows = []
    for k, n_k in enumerate(thresholds, start=1):
        prev = thresholds[k - 2] if k > 1 else 0
        terms = 40
        while True:
            lo1, hi1 = exp_bounds(Fraction(prev), terms)
            lo_e, hi_e = exp_bounds(Fraction(k), terms)
            lo2, hi2 = exp_bounds(lo_e, terms)[0], exp_bounds(hi_e, terms)[1]
            if (n_k > hi1 or n_k <= lo1) and (n_k > hi2 or n_k <= lo2):
                break
            terms *= 2
        rows.append((k, n_k, n_k > hi1, n_k > hi2))
    return rows


def test_faithful_log_space_matches_taylor_route():
    rng = random.Random(5)
    schedules = [[1], [1, 2, 3], [2, 4, 6], [3, 21], [3, 20], [15, 16], [16, 17, 20]]
    for _ in range(30):
        schedules.append(sorted(rng.sample(range(1, 400), rng.randint(1, 4))))
    for thresholds in schedules:
        ok, rows = FiltrationSchedule(thresholds).faithful()
        assert rows == faithful_by_taylor(thresholds)
        assert ok == all(c1 and c2 for _, _, c1, c2 in rows)


def test_faithful_resolves_huge_thresholds_fast():
    start = time.perf_counter()
    ok, rows = FiltrationSchedule([1, 3, 30, 2000, 10**5, 10**7]).faithful()
    assert time.perf_counter() - start < 1.0
    assert not ok
    assert rows == [
        (1, 1, False, False),
        (2, 3, True, False),
        (3, 30, True, False),
        (4, 2000, False, False),
        (5, 10**5, False, False),
        (6, 10**7, False, False),
    ]
    # a faithful schedule of the paper's size: log(2**14_000_000) ~ 9.7e6 > 9e6
    ok, rows = FiltrationSchedule([16, 9_000_000, 2**14_000_000]).faithful()
    assert ok and [r[2:] for r in rows] == [(True, True)] * 3


def test_window_lookup():
    s = FiltrationSchedule([2, 4, 6])
    assert s.window_for(1) is None
    assert s.window_for(2) == 1
    assert s.window_for(5) == 2
    assert s.window_for(99) == 3


# -- GK window estimates --------------------------------------------------------------


def test_gk_polynomial_table():
    table = GrowthTable("poly", {n: ((n * n + 3 * n) // 2, True) for n in range(1, 45)})
    est = gk_estimate(table, (10, 40))
    assert abs(est.slope - 2) < Fraction(1, 4)
    assert est.slope_hi - est.slope_lo < Fraction(1, 10**20)
    assert not est.superpolynomial


def test_gk_exponential_table_flagged():
    table = GrowthTable("free", {n: (2 ** (n + 1) - 2, True) for n in range(1, 13)})
    est = gk_estimate(table, (4, 12))
    assert est.superpolynomial


def test_gk_constant_table():
    table = GrowthTable("const", {n: (5, True) for n in range(1, 10)})
    est = gk_estimate(table, (1, 9))
    assert est.slope_lo <= 0 <= est.slope_hi
    assert est.slope_hi - est.slope_lo < Fraction(1, 10**20)


def test_gk_requires_enough_exact_points():
    table = GrowthTable("short", {1: (1, True), 2: (2, True), 3: (4, False), 4: (8, False)})
    with pytest.raises(ValueError):
        gk_estimate(table, (1, 4))


def test_log_interval_encloses():
    # log 2 = 0.6931471805599453...
    iv = log_interval(Fraction(2))
    assert iv.lo < Fraction(6931471806, 10**10)
    assert iv.hi > Fraction(6931471805, 10**10)
    assert iv.width < Fraction(1, 10**30)


def mpmath_log(n, digits):
    """log n from mpmath at digits + 30 digits, as an exact Fraction: the
    oracle.  An int longer than 4 * prec bits is cut to that length and its
    power of 2 put back by ldexp (a relative change under 2**-(4 * prec)),
    since mpmath takes seconds to normalise a million-bit int."""
    import mpmath

    with mpmath.workdps(digits + 30):
        s = max(0, n.bit_length() - 4 * mpmath.mp.prec)
        return _mpf_to_fraction(mpmath.log(mpmath.ldexp(mpmath.mpf(n >> s), s)))


LOG_CASES = [1, 2, 3, 15, 16, 17, 2000, 100_000, 9_000_000, 10**7, 2**64 - 1, 2**64 + 1, 3**200]
HUGE = 2**14_000_000


@pytest.mark.parametrize("digits", [60, 120, 240, 480, 960, 1920, 3840, 7680])
def test_exact_log_interval_against_mpmath(digits):
    """`exact_log_interval` holds mpmath's log, within mpmath's own error,
    and is at most 10**-(digits - 2) wide, at every precision `faithful`
    asks for: the thresholds of the bench schedules and of the paper's size
    (2**14000000, and that plus 1, whose top bits are cut).  Above 960
    digits a few short ints and the huge ones keep the test quick."""
    cases = LOG_CASES if digits <= 960 else [2, 3, 17, 9_000_000]
    for n in cases + [HUGE, HUGE + 1]:
        iv = exact_log_interval(n, digits)
        v = mpmath_log(n, digits)
        slack = Fraction(max(1, n.bit_length()), 10 ** (digits + 25))
        assert iv.lo - slack <= v <= iv.hi + slack, (n, digits)
        assert 0 <= iv.width <= Fraction(1, 10 ** (digits - 2)), (n, digits)
    assert exact_log_interval(1, digits).lo == 0


def test_faithful_rows_match_the_mpmath_route(monkeypatch):
    """The rows of `faithful` on its exact logs are the rows it gave on
    mpmath's padded ones (`log_interval`), for the bench's schedules, the
    paper-sized one and drawn ones."""
    rng = random.Random(22)
    schedules = [[2, 4, 6, 8], [2, 4, 6, 2000, 100000], [15, 9_000_000], [16, 9_000_000, HUGE]]
    for _ in range(20):
        schedules.append(sorted(rng.sample(range(1, 10**6), rng.randint(1, 4))))
    exact = [FiltrationSchedule(t).faithful() for t in schedules]
    monkeypatch.setattr(growth, "exact_log_interval", log_interval)
    assert [FiltrationSchedule(t).faithful() for t in schedules] == exact


def inclusion_case(case):
    """(b_alg, a_alg, gamma, n, corner) of a named span-inclusion case."""
    if case == "exact":
        b_alg, a_alg, gamma = small_instance(4)
        return b_alg, a_alg, gamma, 4, False
    if case == "corner":
        b_alg = killed_above(GF7, ["x", "y"], kill_degree=3, n=3, unital=True)
        a_alg = make_algebra(GF7, ["z"], ["z^3"], n=3, unital=True)
        gamma = random_gamma(BasisIndexing(b_alg), a_alg, random.Random(5), density=0.5)
        return b_alg, a_alg, gamma, 3, True
    b_alg = make_algebra(GF7, ["x", "y"], [], n=2)
    a_alg = make_algebra(GF7, ["z"], [], n=2)
    gamma = random_gamma(BasisIndexing(b_alg), a_alg, random.Random(6), density=0.8)
    return b_alg, a_alg, gamma, 4, False


INCLUSION_CASES = ["exact", "corner", "truncated"]


@pytest.mark.parametrize("case", INCLUSION_CASES)
def test_inclusion_rows_match_per_m_rebuild(case):
    """The predicted span grown across m gives the rows of a per-m rebuild."""
    b_alg, a_alg, gamma, n, corner = inclusion_case(case)
    report = span_inclusion_check(b_alg, a_alg, gamma, n, with_corner=corner)
    rows, exact = reference_span_inclusion(b_alg, a_alg, gamma, n, with_corner=corner)
    assert report.rows == rows
    assert report.exact == exact == (case != "truncated")


@pytest.mark.parametrize("case", INCLUSION_CASES)
def test_inclusion_staircase_work(case, monkeypatch):
    """The A chain takes e_1 at level 0, then the column z_b for each b new
    at level i of V; the B chain takes the rows of the middles (c and the
    corner unit at level 0, then one a c [and e_11(a)] for each a new at
    level s of W), plus d row translates y L(g) for each row y that entered
    at level s - 1, with d = dim V^1: d dim B_(n-1) translates in all."""
    b_alg, a_alg, gamma, n, corner = inclusion_case(case)
    levels = []  # (filtration, vectors taken) of each level, in order
    level = growth._Filtration.level

    def recording(self, vecs):
        levels.append((self, len(vecs)))
        return level(self, vecs)

    monkeypatch.setattr(growth._Filtration, "level", recording)
    span_inclusion_check(b_alg, a_alg, gamma, n, with_corner=corner)
    monkeypatch.undo()
    (zs, _), (ys, _) = levels[:2]  # A_0, then B_0

    gens = degree_one_generators(b_alg)
    chain = power_chain(b_alg, gens, n)
    ws = weighted_image_spans(gamma, chain, a_alg, n)
    v_new = [1] + [chain[i].dim - (chain[i - 1].dim if i else 0) for i in range(n)]
    assert [k for f, k in levels if f is zs] == v_new
    lists, d = (2 if corner else 1), len(gens)
    w_new = [1] + [ws[j].dim - (ws[j - 1].dim if j else 0) for j in range(n)]
    b_new = [e - f for e, f in zip(ys.dims, [0] + ys.dims)]
    translates = [0] + [d * b_new[s - 1] for s in range(1, n + 1)]
    assert [k for f, k in levels if f is ys] == [lists * w + t for w, t in zip(w_new, translates)]
    assert sum(translates) == d * ys.dims[n - 1]


def test_inclusion_refuses_a_unipotent_indexing():
    """A chain of one-letter right translates S L(g) under a unipotent
    indexing can flag where the product with the whole right factor does
    not, so the check takes a plain indexing only."""
    b_alg = killed_above(GF7, ["x", "y"], kill_degree=3, n=3, unital=True)
    a_alg = make_algebra(GF7, ["z"], ["z^3"], n=3, unital=True)
    idx = BasisIndexing(b_alg, unipotent=True)
    gamma = random_gamma(idx, a_alg, random.Random(5), density=0.5)
    for corner in (False, True):
        with pytest.raises(ValueError, match="unipotent"):
            span_inclusion_check(b_alg, a_alg, gamma, 2, with_corner=corner)


def drawn_case(seed, density, b_kills, a_kills, field, b_unital):
    """(b_alg, a_alg, gamma) of a drawn case over field, exact or flagged:
    without kills the hosts truncate at degree 2, so products of degree 3
    escape.  B is unital or not; A is unital, as the corner unit needs."""
    if b_kills:
        b_alg = killed_above(field, ["x", "y"], kill_degree=3, n=3, unital=b_unital)
    else:
        b_alg = make_algebra(field, ["x", "y"], [], n=2, unital=b_unital)
    if a_kills:
        a_alg = make_algebra(field, ["z"], ["z^3"], n=3, unital=True)
    else:
        a_alg = make_algebra(field, ["z"], [], n=2, unital=True)
    gamma = random_gamma(BasisIndexing(b_alg), a_alg, random.Random(seed), density=density)
    return b_alg, a_alg, gamma


DRAWN = dict(
    seed=st.integers(0, 2**16),
    density=st.sampled_from([0.3, 0.6, 0.9]),
    n=st.integers(1, 4),
    b_kills=st.booleans(),
    a_kills=st.booleans(),
    field=st.sampled_from([GF7, Field.prime(2), Q]),
    b_unital=st.booleans(),
)


@settings(max_examples=40, deadline=5000)
@given(corner=st.booleans(), **DRAWN)
def test_inclusion_matches_per_m_rebuild_on_drawn_cases(
    seed, density, n, corner, b_kills, a_kills, field, b_unital
):
    b_alg, a_alg, gamma = drawn_case(seed, density, b_kills, a_kills, field, b_unital)
    report = span_inclusion_check(b_alg, a_alg, gamma, n, with_corner=corner)
    rows, exact = reference_span_inclusion(b_alg, a_alg, gamma, n, with_corner=corner)
    assert report.rows == rows
    assert report.exact == exact
    assert translate_span_inclusion(b_alg, a_alg, gamma, n, with_corner=corner) == (rows, exact)


@settings(max_examples=40, deadline=5000)
@given(**DRAWN)
def test_w_chain_matches_per_m_rebuild_on_drawn_cases(
    seed, density, n, b_kills, a_kills, field, b_unital
):
    """W grown in one span against W_m rebuilt at every m: the same dimension
    and exactness at every level, and the same subspace."""
    b_alg, a_alg, gamma = drawn_case(seed, density, b_kills, a_kills, field, b_unital)
    chain = power_chain(b_alg, degree_one_generators(b_alg), n)
    ws = weighted_image_spans(gamma, chain, a_alg, n)
    ref = reference_weighted_image_spans(gamma, chain, a_alg, n)
    assert [(w.dim, w.exact) for w in ws] == [(r.dim, r.exact) for r in ref]
    for w, r in zip(ws, ref):
        assert all(r.contains(e) for e in w.representatives())


def write_bench_inputs(seed, work):
    """The benchmark's seeded input files, written into work; returns the
    wreath-gfp jobs by name."""
    sys.path.insert(0, str(BENCH))
    try:
        import run as bench_run
    finally:
        sys.path.remove(str(BENCH))
    bench_run.write_inputs(seed, work)
    return {job.name: job for job in bench_run.workload_jobs("wreath-gfp", work)}


@pytest.mark.parametrize("seed", [5, 77])
@pytest.mark.parametrize("job", ["span_bound_n5", "span_bound_corner_n4"])
def test_inclusion_matches_the_translate_route_on_bench_inputs(seed, job, tmp_path):
    """At bench scale (906 predicted rows at n = 5, 541 with the corner at
    n = 4), where the per-m rebuild is too slow, the staircase gives the rows
    and the bit of the translate route."""
    jobs = write_bench_inputs(seed, tmp_path)
    b_alg, a_alg, gamma, n, corner = span_bound_job_case(jobs[job].argv)
    report = span_inclusion_check(b_alg, a_alg, gamma, n, with_corner=corner)
    rows, exact = translate_span_inclusion(b_alg, a_alg, gamma, n, with_corner=corner)
    assert report.rows == rows
    assert report.exact == exact
    assert [r[2] for r in rows] == ([14, 62, 208, 541] if corner else [9, 41, 139, 387, 906])


def test_w_chain_inserts_each_product_once(tmp_path, monkeypatch):
    """The W chain inserts the image of each representative of V^n once,
    into G = gamma(V), and each representative of G and each product s * t
    once, into W: with f_G(i) and f_W(k) the representatives new at level i
    of G and at level k of W, dim V^n + g(n) + sum_{i+k<=n} f_G(i) f_W(k)
    inserts.  On the benchmark's wgamma job at seed 5 (n = 4) there are 124
    products; rebuilding every W_m from scratch made 192."""
    write_bench_inputs(5, tmp_path)
    b_alg = TruncatedAlgebra(wio.load_presentation(BENCH / "inputs" / "host_gf101.pres"), 5)
    a_alg = TruncatedAlgebra(wio.load_presentation(BENCH / "inputs" / "coeff_gf101.pres"), 4)
    gamma = wio.load_gamma(tmp_path / "gamma.map", BasisIndexing(b_alg), a_alg)
    n = 4
    chain = power_chain(b_alg, degree_one_generators(b_alg), n)
    adds = []
    add = Subspace.add

    def counting_add(self, e):
        adds.append(self)
        return add(self, e)

    monkeypatch.setattr(Subspace, "add", counting_add)
    ws = weighted_image_spans(gamma, chain, a_alg, n)
    monkeypatch.undo()

    g = [0] + [Subspace(a_alg, [gamma.apply(v) for v in lv.representatives()]).dim for lv in chain]
    w = [0] + [lv.dim for lv in ws]
    products = sum(
        (g[i] - g[i - 1]) * (w[k] - w[k - 1]) for i in range(1, n) for k in range(1, n - i + 1)
    )
    assert products == 124
    assert len(adds) == chain[-1].dim + g[n] + products


def test_flagged_wgamma_and_span_bound_rows(tmp_path):
    """No benchmark job is inexact.  Over the free unital s, t, u algebra at
    NA 3 the images of the benchmark's gamma (seed 5) multiply past the
    truncation: the rows are flagged and the exit status is 2, and under
    --policy reject the first escaping product is an error."""
    write_bench_inputs(5, tmp_path)
    free = tmp_path / "free_stu.pres"
    free.write_text("field gf 101\nunital true\ngenerators s:1 t:1 u:1\n")
    args = ["--B", str(BENCH / "inputs" / "host_gf101.pres"), "--NB", "3",
            "--A", str(free), "--NA", "3", "--gamma", str(tmp_path / "gamma.map"), "-n", "3"]
    expected = {
        "wgamma": ["1,2,True", "2,10,False", "3,34,False"],
        "span-bound": ["1,3,9,True,9,True", "2,11,41,True,47,True", "3,33,139,True,213,True"],
    }
    for command, rows in expected.items():
        csv = tmp_path / f"{command}.csv"
        assert run_main(command, *args, "--emit", str(csv)).returncode == 2, command
        lines = csv.read_text().splitlines()
        assert [ln for ln in lines if ln and not ln.startswith("#")][1:] == rows
        out = run_main(command, *args, "--policy", "reject")
        assert out.returncode == 1, command
        assert out.stderr == "error: product of degrees 1 and 3 exceeds 3\n"


def test_inclusion_needs_gamma_of_one_zero(tmp_path):
    """A nonzero gamma(1) puts gamma(1) * gamma(b_j) into c * c, outside the
    predicted span: seed 5's first dense-law map of the benchmark (it maps
    the unit) is not included from n = 2, and the same map without its unit
    line is included at every n."""
    write_bench_inputs(5, tmp_path)
    with_unit = (tmp_path / "dense0.map").read_text()
    assert with_unit.startswith("map 1 -> ")
    (tmp_path / "no_unit.map").write_text(with_unit.split("\n", 1)[1])
    hosts = ["--B", str(BENCH / "inputs" / "host_gf101.pres"), "--NB", "3",
             "--A", str(BENCH / "inputs" / "coeff_gf101.pres"), "--NA", "4"]
    included = {}
    for name, code in (("dense0.map", 2), ("no_unit.map", 0)):
        argv = ["span-bound", *hosts, "--gamma", str(tmp_path / name), "-n", "3",
                "--emit", str(tmp_path / f"{name}.csv")]
        assert run_main(*argv).returncode == code, name
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        rows = [ln.split(",") for ln in lines if ln and not ln.startswith("#")][1:]
        included[name] = [r[3] for r in rows]
    assert included == {
        "dense0.map": ["True", "False", "False"],
        "no_unit.map": ["True", "True", "True"],
    }
