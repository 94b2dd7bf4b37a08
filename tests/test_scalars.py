import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wreathkit import Field, FieldMismatchError, Scalar

from helpers import rationals


Q = Field.rationals()
GF5 = Field.prime(5)
GF7 = Field.prime(7)


def test_rational_examples():
    assert Q.scalar(Fraction(1, 2)) + Q.scalar(Fraction(1, 3)) == Q.scalar(Fraction(5, 6))
    assert Q.scalar(Fraction(2, 3)) * Q.scalar(Fraction(3, 4)) == Q.scalar(Fraction(1, 2))
    assert Q.scalar(Fraction(2, 3)).inv() == Q.scalar(Fraction(3, 2))


def test_prime_field_examples():
    assert GF5.scalar(3) + GF5.scalar(4) == GF5.scalar(2)
    assert GF5.scalar(2) * GF5.scalar(3) == GF5.scalar(1)
    assert GF7.scalar(3).inv() == GF7.scalar(5)


def test_identity_cases():
    a = Q.scalar(Fraction(7, 3))
    assert a + Q.scalar(0) == a
    assert a * Q.scalar(1) == a
    b = GF5.scalar(4)
    assert b + GF5.scalar(0) == b
    assert b * GF5.scalar(1) == b


def test_zero_inverse_signaled():
    with pytest.raises(ZeroDivisionError):
        Q.scalar(0).inv()
    with pytest.raises(ZeroDivisionError):
        GF5.scalar(0).inv()


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        Q.scalar(1) + GF5.scalar(1)
    with pytest.raises(FieldMismatchError):
        GF5.scalar(1) * GF7.scalar(1)


def test_field_validation():
    with pytest.raises(ValueError):
        Field.prime(4)
    with pytest.raises(ValueError):
        Field.prime(1)
    with pytest.raises(ValueError):
        Field.prime(2**31 + 11)
    Field.prime(2)  # smallest prime is fine


@pytest.mark.parametrize("field", [Q, GF5, GF7], ids=repr)
def test_field_axioms_randomized(field):
    rng = random.Random(20240601)
    f = field
    for _ in range(10_000):
        a, b, c = f.sample(rng), f.sample(rng), f.sample(rng)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        if not f.is_zero(a):
            assert f.mul(a, f.inv(a)) == f.one


def test_representatives_always_reduced():
    rng = random.Random(7)
    for _ in range(2000):
        a, b = Q.sample(rng), Q.sample(rng)
        s = Q.add(a, b)
        assert s.denominator > 0
        assert Fraction(s.numerator, s.denominator) == s
        x, y = GF7.sample(rng), GF7.sample(rng)
        assert 0 <= GF7.mul(x, y) < 7
        assert 0 <= GF7.sub(x, y) < 7


def test_parse_and_format():
    assert Q.fmt(Fraction(2, 3)) == "2/3"
    assert Q.fmt(Fraction(5)) == "5"
    assert Q.fmt(5) == "5" and Q.fmt(-3) == "-3"


def test_scalar_operations():
    a = Scalar(Q, Fraction(3, 4))
    assert (a - a) == Q.scalar(0)
    assert -a + a == Q.scalar(0)
    assert a / a == Q.scalar(1)
    assert bool(a) and not bool(Q.scalar(0))
    assert repr(GF5.scalar(9)) == "4"


# -- Q raw values: an int when integral, a Fraction otherwise -------------------

QVALUES = rationals(50, 12)


def is_q_raw(r) -> bool:
    """An int (never a bool) or a Fraction: never a float."""
    return type(r) is int or type(r) is Fraction


def test_rational_constants_are_ints():
    assert type(Q.zero) is int and Q.zero == 0
    assert type(Q.one) is int and Q.one == 1
    assert type(Q.from_int(-7)) is int and Q.from_int(-7) == -7
    assert type(Q.from_int(True)) is int and Q.from_int(True) == 1


def test_division_of_ints_is_exact():
    """`1 / a` on an int is a float; inv and div go through Fraction."""
    assert Q.inv(2) == Fraction(1, 2) and type(Q.inv(2)) is Fraction
    assert Q.div(1, 3) == Fraction(1, 3) and type(Q.div(1, 3)) is Fraction
    assert Q.div(4, 2) == 2 and type(Q.div(4, 2)) is int
    assert Q.inv(Fraction(1, 3)) == 3 and type(Q.inv(Fraction(1, 3))) is int
    assert Q.inv(-1) == -1 and type(Q.inv(-1)) is int
    with pytest.raises(ZeroDivisionError):
        Q.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        Q.div(Fraction(1, 2), Fraction(0))


@given(QVALUES, QVALUES, st.integers(-10**6, 10**6))
def test_rational_methods_never_return_floats_or_bools(a, b, n):
    results = [Q.from_int(n), Q.add(a, b), Q.sub(a, b), Q.mul(a, b), Q.neg(a)]
    if b:
        results += [Q.inv(b), Q.div(a, b)]
    for r in results:
        assert is_q_raw(r), repr(r)
    assert is_q_raw(Q.scalar(a).raw) and is_q_raw(Q.scalar(n).raw)


@given(QVALUES, QVALUES)
def test_inv_and_div_are_ints_exactly_when_integral(a, b):
    if not b:
        return
    for got, exact in [(Q.inv(b), 1 / Fraction(b)), (Q.div(a, b), Fraction(a) / Fraction(b))]:
        assert got == exact and is_q_raw(got)
        assert (type(got) is int) == (exact.denominator == 1), repr(got)


def test_sample_draws_ints_and_fractions():
    rng = random.Random(11)
    values = [Q.sample(rng) for _ in range(200)]
    assert all(is_q_raw(c) for c in values)
    assert {type(c) for c in values} == {int, Fraction}
    assert all(type(c) is int for c in values if c == int(c))
