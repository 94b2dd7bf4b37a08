import random
from fractions import Fraction
from math import gcd

import pytest

from wreathkit import census_from_blocks, count_polynomial, golod_shafarevich_check
from wreathkit.gs import _cleared_value, _p_eval, _witness_candidates


def test_empty_census_satisfiable():
    rep = golod_shafarevich_check(2, {})
    assert rep.satisfied
    assert rep.t0 == Fraction(3, 5)
    assert rep.value == Fraction(-1, 5)


def test_one_quadratic_relation_two_generators_unsatisfiable():
    # 1 - 2t + t^2 = (1 - t)^2 > 0 on (0, 1)
    rep = golod_shafarevich_check(2, {2: 1})
    assert rep.status == "unsatisfiable"
    rep_at = golod_shafarevich_check(2, {2: 1}, t0=Fraction(1, 2))
    assert rep_at.status == "not-satisfied-at-t0"
    assert rep_at.value == Fraction(1, 4)


def test_three_generators_one_quadratic():
    rep = golod_shafarevich_check(3, {2: 1}, t0=Fraction(1, 2))
    assert rep.satisfied and rep.value == Fraction(-1, 4)


def test_empty_census_satisfiable_for_all_small_m():
    for m in range(2, 8):
        assert golod_shafarevich_check(m, {}).satisfied


def test_m_below_two_rejected():
    with pytest.raises(ValueError):
        golod_shafarevich_check(1, {})


def test_t0_out_of_range():
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            golod_shafarevich_check(2, {}, t0=bad)


def test_interior_double_root_certified_unsatisfiable():
    # 1 - 4t + 4t^2 = (1 - 2t)^2: minimum 0 at t = 1/2, never negative
    rep = golod_shafarevich_check(4, {2: 4})
    assert rep.status == "unsatisfiable"


def test_strictly_positive_census_unsatisfiable():
    # 1 - 3t + 3t^2 has minimum 1/4 at t = 1/2
    rep = golod_shafarevich_check(3, {2: 3})
    assert rep.status == "unsatisfiable"


def test_verdicts_against_grid_oracle():
    # independent route: a rational grid detects satisfiability whenever a
    # denominator-120 witness exists; certified verdicts must agree
    rng = random.Random(2024)
    for _ in range(60):
        m = rng.randrange(2, 5)
        census = {}
        for _ in range(rng.randrange(0, 4)):
            census[rng.randrange(1, 5)] = rng.randrange(0, 5)
        phi = count_polynomial(m, census)
        grid_hit = any(_p_eval(phi, Fraction(k, 120)) < 0 for k in range(1, 120))
        rep = golod_shafarevich_check(m, census, denominator_bound=120)
        if grid_hit:
            assert rep.satisfied, (m, census)
        if rep.status == "unsatisfiable":
            assert not grid_hit, (m, census)


def test_witness_is_smallest_in_bound():
    rep = golod_shafarevich_check(2, {}, denominator_bound=3)
    assert rep.t0 == Fraction(2, 3)
    rep = golod_shafarevich_check(2, {}, denominator_bound=64)
    assert rep.t0 == Fraction(32, 63)


def test_witness_candidates_are_the_sorted_reduced_fractions():
    """The lazy merged walk lists what sorting every reduced fraction in
    (1/m, 1) with denominator <= bound lists."""
    for m in range(2, 7):
        for bound in [*range(1, 41), 97]:
            brute = sorted(
                Fraction(p, q)
                for q in range(2, bound + 1)
                for p in range(1, q)
                if p * m > q and gcd(p, q) == 1
            )
            walked = [Fraction(p, q) for p, q in _witness_candidates(m, bound)]
            assert walked == brute, (m, bound)


@pytest.mark.parametrize(
    "m, census",
    [(2, {}), (2, {2: 1}), (3, {2: 1}), (3, {2: 1, 3: 4, 5: 7}), (4, {2: 3, 4: 9}), (5, {7: 200})],
)
def test_cleared_value_has_the_sign_of_phi(m, census):
    """The integer q^d phi(p/q) the witness search tests has the sign of the
    `Fraction` value phi(p/q), on every candidate up to a small bound."""
    phi = count_polynomial(m, census)
    coeffs = [int(c) for c in phi]
    for p, q in _witness_candidates(m, 40):
        value, cleared = _p_eval(phi, Fraction(p, q)), _cleared_value(coeffs, p, q)
        assert (value > 0) - (value < 0) == (cleared > 0) - (cleared < 0), (p, q)
        assert cleared == value * q ** (len(phi) - 1)


def test_witness_search_at_the_largest_bound():
    rep = golod_shafarevich_check(3, {2: 1}, denominator_bound=500)
    assert rep.satisfied and rep.t0 == Fraction(89, 233)
    assert rep.value == _p_eval(count_polynomial(3, {2: 1}), Fraction(89, 233)) < 0


def test_census_from_blocks_examples():
    census, bound = census_from_blocks([(3, 2)], Fraction(1, 2))
    assert census == {3: 2} and bound == Fraction(1, 4)
    census, bound = census_from_blocks([], Fraction(1, 2))
    assert census == {} and bound == 0
    census, bound = census_from_blocks([(2, 1), (4, 1)], Fraction(1, 2))
    assert census == {2: 1, 4: 1} and bound == Fraction(5, 16)


def test_blocks_merge_equal_degrees():
    census, bound = census_from_blocks([(2, 1), (2, 3)], Fraction(1, 3))
    assert census == {2: 4}
    assert bound == 4 * Fraction(1, 9)
