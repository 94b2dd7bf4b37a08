import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wreathkit import Alphabet, Field, FieldMismatchError, FreeElement

from helpers import rationals, sample


Q = Field.rationals()
GF5 = Field.prime(5)
GF7 = Field.prime(7)


def test_rational_examples():
    assert Q.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert Q.mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)
    assert Q.inv(Fraction(2, 3)) == Fraction(3, 2)


def test_prime_field_examples():
    assert GF5.add(3, 4) == 2
    assert GF5.mul(2, 3) == 1
    assert GF7.inv(3) == 5


def test_identity_cases():
    a = Fraction(7, 3)
    assert Q.add(a, Q.zero) == a
    assert Q.mul(a, Q.one) == a
    assert GF5.add(4, GF5.zero) == 4
    assert GF5.mul(4, GF5.one) == 4


def test_zero_inverse_signaled():
    with pytest.raises(ZeroDivisionError):
        Q.inv(0)
    with pytest.raises(ZeroDivisionError):
        GF5.inv(0)


def test_field_mismatch():
    """Raw values carry no field; elements do, and mixing fields is refused."""
    xy = Alphabet([("x", 1), ("y", 1)])
    with pytest.raises(FieldMismatchError):
        FreeElement.generator(xy, Q, 0) + FreeElement.generator(xy, GF5, 0)
    with pytest.raises(FieldMismatchError):
        FreeElement.generator(xy, GF5, 0) * FreeElement.generator(xy, GF7, 0)


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
        a, b, c = sample(f, rng), sample(f, rng), sample(f, rng)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        if a:
            assert f.mul(a, f.inv(a)) == f.one


def test_representatives_always_reduced():
    rng = random.Random(7)
    for _ in range(2000):
        a, b = sample(Q, rng), sample(Q, rng)
        s = Q.add(a, b)
        assert s.denominator > 0
        assert Fraction(s.numerator, s.denominator) == s
        x, y = sample(GF7, rng), sample(GF7, rng)
        assert 0 <= GF7.mul(x, y) < 7
        assert 0 <= GF7.sub(x, y) < 7


def test_parse_and_format():
    assert Q.fmt(Fraction(2, 3)) == "2/3"
    assert Q.fmt(Fraction(5)) == "5"
    assert Q.fmt(5) == "5" and Q.fmt(-3) == "-3"


def test_scalar_operations():
    """A field element is a raw value.  `coerce` sends an int (a bool too)
    through `from_int` and keeps a `Fraction` as it is, over Q only."""
    a = Fraction(3, 4)
    assert Q.sub(a, a) == 0
    assert Q.add(Q.neg(a), a) == 0
    assert Q.div(a, a) == 1
    assert GF5.fmt(GF5.coerce(9)) == "4"
    assert GF5.coerce(-1) == 4 and GF5.coerce(True) == 1
    assert type(Q.coerce(True)) is int and Q.coerce(True) == 1
    one = Q.coerce(Fraction(1))
    assert one == 1 and type(one) is Fraction
    with pytest.raises(ValueError):
        GF5.coerce(Fraction(1, 2))
    for value in (0.5, "1", None):
        with pytest.raises(TypeError):
            Q.coerce(value)


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
    assert is_q_raw(Q.coerce(a)) and is_q_raw(Q.coerce(n))


@given(QVALUES, QVALUES)
def test_inv_and_div_are_ints_exactly_when_integral(a, b):
    if not b:
        return
    for got, exact in [(Q.inv(b), 1 / Fraction(b)), (Q.div(a, b), Fraction(a) / Fraction(b))]:
        assert got == exact and is_q_raw(got)
        assert (type(got) is int) == (exact.denominator == 1), repr(got)


def test_sample_draws_ints_and_fractions():
    rng = random.Random(11)
    values = [sample(Q, rng) for _ in range(200)]
    assert all(is_q_raw(c) for c in values)
    assert {type(c) for c in values} == {int, Fraction}
    assert all(type(c) is int for c in values if c == int(c))
