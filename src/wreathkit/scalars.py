"""Exact scalar arithmetic over the rationals and prime fields GF(p).

There is no floating point anywhere in the kernel.  A rational value is an
int when it is integral and a `fractions.Fraction` otherwise, so integer
relations never make a `Fraction`; prime-field residues are plain ints in
[0, p).  The two mix freely: int * `Fraction` is a `Fraction`, and
2 == Fraction(2) with the same hash.  Only `Field.inv` and `Field.div`
divide, through `Fraction` (an int `/` would give a float), and they return
an int when the quotient is integral; an integral `Fraction` that a sum
makes may stay one.

The raw-value methods on `Field` serve the code off the hot paths (the
parsers, `dense_rank`, inverses and formatting); the sums of the hot loops do
their residue or rational arithmetic inline, and `linalg` is where
coefficients are summed.  `Field.scalar` coerces an int, a raw value or a
`Scalar` into this field, and `Scalar` is the boundary wrapper with operator
overloads and field checks.
"""

from __future__ import annotations

from fractions import Fraction

# GF(p) is capped so that a*b fits comfortably in native double-width
# arithmetic on every platform Python runs on.
MAX_PRIME = 2**31


class FieldMismatchError(ValueError):
    """Two operands live over different fields."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _integral(q: Fraction):
    """q as an int when its denominator is 1, else q itself."""
    return q.numerator if q.denominator == 1 else q


class Field:
    """The ground field: the rationals or GF(p) for a prime p < 2**31."""

    __slots__ = ("kind", "characteristic", "zero", "one")

    def __init__(self, kind: str, characteristic: int = 0):
        if kind == "rational":
            if characteristic != 0:
                raise ValueError("rational field has characteristic 0")
        elif kind == "gf":
            p = characteristic
            if not isinstance(p, int) or not _is_prime(p):
                raise ValueError(f"GF({p!r}): characteristic must be prime")
            if p >= MAX_PRIME:
                raise ValueError(f"GF({p}): prime must be < 2**31")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.characteristic = characteristic
        # raw constants: the hot loops read `one` on every term
        self.zero = 0
        self.one = 1

    @classmethod
    def rationals(cls) -> "Field":
        return cls("rational")

    @classmethod
    def prime(cls, p: int) -> "Field":
        return cls("gf", p)

    # -- raw-value arithmetic ------------------------------------------
    # Raw values: over the rationals an int when integral, else a Fraction;
    # over GF(p) an int in [0, p).

    def from_int(self, n: int):
        if self.kind == "rational":
            return int(n)  # a bool becomes 0 or 1
        return n % self.characteristic

    def add(self, a, b):
        if self.kind == "rational":
            return a + b
        return (a + b) % self.characteristic

    def sub(self, a, b):
        if self.kind == "rational":
            return a - b
        return (a - b) % self.characteristic

    def mul(self, a, b):
        if self.kind == "rational":
            return a * b
        return (a * b) % self.characteristic

    def neg(self, a):
        if self.kind == "rational":
            return -a
        return (-a) % self.characteristic

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        if self.kind == "rational":
            return _integral(1 / Fraction(a))
        return pow(a, self.characteristic - 2, self.characteristic)

    def div(self, a, b):
        if self.kind == "rational":
            return _integral(Fraction(a) * self.inv(b))
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return not a

    # -- text syntax: `a/b` for rationals, decimal residue for GF(p) ---

    def fmt(self, raw) -> str:
        if self.kind == "rational" and raw.denominator != 1:
            return f"{raw.numerator}/{raw.denominator}"
        return str(int(raw) if self.kind == "gf" else raw.numerator)

    def sample(self, rng):
        """A small random element, for property tests."""
        if self.kind == "rational":
            return self.div(rng.randint(-6, 6), rng.randint(1, 6))
        return rng.randrange(self.characteristic)

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatchError("scalar from another field")
            return value
        if isinstance(value, int):
            return Scalar(self, self.from_int(value))
        if isinstance(value, Fraction):
            if self.kind != "rational":
                raise ValueError("Fraction value over a prime field")
            return Scalar(self, value)
        raise TypeError(f"cannot coerce {value!r} to a scalar")

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.kind == other.kind
            and self.characteristic == other.characteristic
        )

    def __hash__(self):
        return hash((self.kind, self.characteristic))

    def __repr__(self):
        return "Q" if self.kind == "rational" else f"GF({self.characteristic})"


class Scalar:
    """An exact field element tied to its field."""

    __slots__ = ("field", "raw")

    def __init__(self, field: Field, raw):
        self.field = field
        self.raw = raw

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"mixed fields {self.field!r} and {other.field!r}"
                )
            return other
        if isinstance(other, int):
            return Scalar(self.field, self.field.from_int(other))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.add(self.raw, o.raw))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.sub(self.raw, o.raw))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.sub(o.raw, self.raw))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.mul(self.raw, o.raw))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.div(self.raw, o.raw))

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.raw))

    def inv(self) -> "Scalar":
        return Scalar(self.field, self.field.inv(self.raw))

    def __bool__(self):
        return not self.field.is_zero(self.raw)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.raw == self.field.from_int(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field == other.field and self.raw == other.raw

    def __hash__(self):
        return hash((self.field, self.raw))

    def __repr__(self):
        return self.field.fmt(self.raw)
