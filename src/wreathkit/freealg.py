"""Finite linear combinations of words: the ambient free associative algebra.

Elements are sparse maps Word -> coefficient with no zero coefficients ever
stored.  The text syntax accepted by `parse_element` is the one used in
presentation and gamma files: `+`/`-` separated terms, optional `*` between
letters, `^` powers, rational coefficients like `2/3` (decimal residues over
GF(p)).
"""

from __future__ import annotations

import re

from .scalars import Field, FieldMismatchError, Scalar
from .words import EMPTY_WORD, Alphabet, Word


# Deepest parenthesis nesting the recursive-descent parsers accept; each
# level costs a few interpreter frames, so this keeps them far from
# Python's recursion limit.
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message, pos=None):
        super().__init__(message if pos is None else f"{message} (at column {pos + 1})")
        self.pos = pos


def _acc(terms: dict, key, c, f: Field):
    """terms[key] += c, dropping zeros; c must be a raw value of f."""
    old = terms.get(key)
    if old is None:
        if not f.is_zero(c):
            terms[key] = c
        return
    s = f.add(old, c)
    if f.is_zero(s):
        del terms[key]
    else:
        terms[key] = s


class FreeElement:
    """A finite linear combination of words over one alphabet and one field."""

    __slots__ = ("alphabet", "field", "terms")

    def __init__(self, alphabet: Alphabet, field: Field, terms=None):
        self.alphabet = alphabet
        self.field = field
        clean = {}
        if terms:
            for w, c in terms.items():
                if not field.is_zero(c):
                    clean[w] = c
        self.terms = clean

    @classmethod
    def zero(cls, alphabet, field):
        return cls(alphabet, field)

    @classmethod
    def from_word(cls, alphabet, field, word: Word, coeff=None):
        c = field.one if coeff is None else coeff
        return cls(alphabet, field, {word: c})

    @classmethod
    def generator(cls, alphabet, field, i: int):
        return cls.from_word(alphabet, field, alphabet.gen(i))

    def _check(self, other: "FreeElement"):
        if self.alphabet != other.alphabet:
            raise ValueError("elements over different alphabets")
        if self.field != other.field:
            raise FieldMismatchError("elements over different fields")

    def __add__(self, other):
        self._check(other)
        f = self.field
        terms = dict(self.terms)
        for w, c in other.terms.items():
            _acc(terms, w, c, f)
        out = FreeElement(self.alphabet, f)
        out.terms = terms
        return out

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        out = FreeElement(self.alphabet, f)
        out.terms = {w: f.neg(c) for w, c in self.terms.items()}
        return out

    def scale(self, c) -> "FreeElement":
        f = self.field
        if isinstance(c, Scalar):
            if c.field != f:
                raise FieldMismatchError("scalar from another field")
            c = c.raw
        elif isinstance(c, int):
            c = f.from_int(c)
        if f.is_zero(c):
            return FreeElement.zero(self.alphabet, f)
        out = FreeElement(self.alphabet, f)
        out.terms = {w: f.mul(c, v) for w, v in self.terms.items()}
        return out

    def __mul__(self, other):
        self._check(other)
        f = self.field
        terms = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                _acc(terms, u * v, f.mul(cu, cv), f)
        out = FreeElement(self.alphabet, f)
        out.terms = terms
        return out

    def __pow__(self, k: int):
        if k < 1:
            raise ValueError("powers of free elements start at 1")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, FreeElement)
            and self.alphabet == other.alphabet
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.alphabet, self.field, frozenset(self.terms.items())))

    def coefficient(self, word: Word) -> Scalar:
        return Scalar(self.field, self.terms.get(word, self.field.zero))

    def min_degree(self) -> int:
        """Minimal degree of a nonzero homogeneous component."""
        if not self.terms:
            raise ValueError("the zero element has no degree")
        return min(w.degree for w in self.terms)

    def homogeneous_component(self, d: int) -> "FreeElement":
        out = FreeElement(self.alphabet, self.field)
        out.terms = {w: c for w, c in self.terms.items() if w.degree == d}
        return out

    def is_homogeneous(self) -> bool:
        degrees = {w.degree for w in self.terms}
        return len(degrees) <= 1

    def degree(self) -> int:
        """Common degree of a nonzero homogeneous element."""
        degrees = {w.degree for w in self.terms}
        if len(degrees) != 1:
            raise ValueError("degree is defined for nonzero homogeneous elements")
        return degrees.pop()

    def words(self):
        return sorted(self.terms)

    def format(self) -> str:
        if not self.terms:
            return "0"
        f = self.field
        parts = []
        for w in sorted(self.terms):
            c = self.terms[w]
            neg = f.kind == "rational" and c < 0
            mag = f.neg(c) if neg else c
            body = self.alphabet.format_word(w)
            if w.is_empty:
                text = f.fmt(mag)
            elif mag == f.one:
                text = body
            else:
                text = f"{f.fmt(mag)}*{body}"
            if not parts:
                parts.append(f"-{text}" if neg else text)
            else:
                parts.append(f"- {text}" if neg else f"+ {text}")
        return " ".join(parts)

    __repr__ = format


# -- expression parser ---------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()]))")


def _tokenize(text):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        num, name, op = m.groups()
        if num is not None:
            tokens.append(("num", num, m.start(1)))
        elif name is not None:
            tokens.append(("name", name, m.start(2)))
        else:
            tokens.append(("op", op, m.start(3)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, alphabet, field):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.alphabet = alphabet
        self.field = field

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, None)

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> FreeElement:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"trailing input {val!r}", pos)
        return e

    def expr(self) -> FreeElement:
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        e = self.term()
        if sign < 0:
            e = -e
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                t = self.term()
                e = e - t if val == "-" else e + t
            else:
                return e

    def term(self) -> FreeElement:
        e = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                e = e * self.factor()
            elif kind in ("name", "num") or (kind == "op" and val == "("):
                e = e * self.factor()
            else:
                return e

    def factor(self) -> FreeElement:
        kind, val, pos = self.take()
        f, alphabet = self.field, self.alphabet
        if kind == "num":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.take()
                k3, v3, p3 = self.take()
                if k3 != "num":
                    raise ParseError("expected a denominator", p3)
                if f.kind != "rational":
                    raise ParseError("fraction coefficients require the rational field", pos)
                raw = f.parse(f"{val}/{v3}")
            else:
                raw = f.from_int(int(val))
            raw = self._maybe_power_scalar(raw)
            return FreeElement(alphabet, f, {EMPTY_WORD: raw})
        if kind == "name":
            try:
                letters = alphabet.segment(val)
            except KeyError as exc:
                raise ParseError(str(exc), pos) from None
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "^":
                self.take()
                n = self._power_exponent()
                # the power binds the last letter: x*y^2 == xy^2 == x y y
                letters = letters[:-1] + [letters[-1]] * n
            return FreeElement.from_word(alphabet, f, alphabet.word(letters))
        if kind == "op" and val == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            e = self.expr()
            self.expect_op(")")
            self.depth -= 1
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "^":
                self.take()
                n = self._power_exponent()
                if n == 0:
                    return FreeElement(alphabet, f, {EMPTY_WORD: f.one})
                return e**n
            return e
        raise ParseError(f"unexpected token {val!r}", pos)

    def _power_exponent(self) -> int:
        kind, val, pos = self.take()
        if kind != "num":
            raise ParseError("expected an integer exponent", pos)
        return int(val)

    def _maybe_power_scalar(self, raw):
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            n = self._power_exponent()
            out = self.field.one
            for _ in range(n):
                out = self.field.mul(out, raw)
            return out
        return raw


def parse_element(text: str, alphabet: Alphabet, field: Field) -> FreeElement:
    """Parse a free-algebra expression like `x*y - y*x` or `2/3*x^2`."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    return _Parser(tokens, alphabet, field).parse()
