"""Finite linear combinations of words: the ambient free associative algebra.

Elements are sparse maps Word -> coefficient with no zero coefficients ever
stored; `Combination` holds the arithmetic that `FreeElement` shares with
the truncated algebras' `quotient.AlgElement`.  The text syntax accepted by `parse_element` is the one used in
presentation and gamma files, and `_Parser` is also the grammar of wreath
expressions (`io.parse_wreath_expression`): `+`/`-` separated terms,
optional `*` between factors, `^` powers, rational coefficients like `2/3`
(decimal residues over GF(p)).
"""

from __future__ import annotations

import re

from .linalg import _eliminate, reduced
from .scalars import Field, FieldMismatchError, Scalar
from .words import EMPTY_WORD, Alphabet, Word


# Deepest parenthesis nesting the recursive-descent parsers accept; each
# level costs a few interpreter frames, so this keeps them far from
# Python's recursion limit.
MAX_NESTING = 100

# Largest exponent `^n` the parsers accept.  A power is expanded as written
# (a word of n letters, n multiplications) before any degree check, so an
# unbounded n would cost memory and time in proportion to it.
MAX_EXPONENT = 1000

# Most digits a number in an expression may have, leading zeros aside:
# Python's int() refuses longer decimal strings by default.
MAX_DIGITS = 4300


class ParseError(ValueError):
    def __init__(self, message, pos=None):
        super().__init__(message if pos is None else f"{message} (at column {pos + 1})")
        self.pos = pos


class Combination:
    """The arithmetic shared by free and truncated-algebra elements.

    An element is a sparse map `terms`: Word -> raw coefficient, with no zero
    ever stored (residues in [1, p) over GF(p), `Fraction`s over the
    rationals).  Subclasses give `field` and `alphabet`, `_like(terms, flag)`
    (an element of the same kind and space with these terms), `_check` (the
    operands live in one space), `__mul__`, `__eq__` and `__hash__`.  `flag`
    marks a truncated result; a free element never is one.  The sums go
    through `linalg`, with no `Field` call per term.
    """

    __slots__ = ()
    flag = False

    def __add__(self, other):
        self._check(other)
        p = self.field.characteristic
        terms = dict(self.terms)
        _eliminate(terms, other.terms, p - 1 if p else -1, p)
        return self._like(terms, self.flag or other.flag)

    def __sub__(self, other):
        self._check(other)
        terms = dict(self.terms)
        _eliminate(terms, other.terms, 1, self.field.characteristic)
        return self._like(terms, self.flag or other.flag)

    def __neg__(self):
        p = self.field.characteristic
        if p:
            return self._like({w: p - c for w, c in self.terms.items()}, self.flag)
        return self._like({w: -c for w, c in self.terms.items()}, self.flag)

    def scale(self, c):
        """c times this element; c is a `Scalar` of this field, an int, or a
        raw value of this field."""
        f = self.field
        c = f.scalar(c).raw
        p = f.characteristic
        if not c:
            return self._like({}, self.flag)
        if p:
            return self._like({w: c * v % p for w, v in self.terms.items()}, self.flag)
        return self._like({w: c * v for w, v in self.terms.items()}, self.flag)

    def __pow__(self, k: int):
        if k < 1:
            raise ValueError("powers start at 1")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, word: Word) -> Scalar:
        return Scalar(self.field, self.terms.get(word, self.field.zero))

    def min_degree(self) -> int:
        """Minimal degree of a nonzero homogeneous component."""
        if not self.terms:
            raise ValueError("the zero element has no degree")
        return min(w.degree for w in self.terms)

    def homogeneous_component(self, d: int):
        return self._like({w: c for w, c in self.terms.items() if w.degree == d}, self.flag)

    def format(self) -> str:
        if not self.terms:
            return "0"
        f = self.field
        parts = []
        for w in sorted(self.terms):
            c = self.terms[w]
            neg = f.kind == "rational" and c < 0
            mag = -c if neg else c
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

    def __repr__(self):
        text = self.format()
        return f"{text} (truncated)" if self.flag else text


class FreeElement(Combination):
    """A finite linear combination of words over one alphabet and one field."""

    __slots__ = ("alphabet", "field", "terms")

    def __init__(self, alphabet: Alphabet, field: Field, terms=None):
        """A coefficient is a `Scalar` of this field, an int, or a raw value
        of this field (see `Field.scalar`); zeros are dropped."""
        self.alphabet = alphabet
        self.field = field
        scalar = field.scalar
        self.terms = {w: r for w, c in terms.items() if (r := scalar(c).raw)} if terms else {}

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

    def _like(self, terms, flag=False):
        out = FreeElement(self.alphabet, self.field)
        out.terms = terms
        return out

    def _check(self, other: "FreeElement"):
        if self.alphabet != other.alphabet:
            raise ValueError("elements over different alphabets")
        if self.field != other.field:
            raise FieldMismatchError("elements over different fields")

    def __mul__(self, other):
        self._check(other)
        acc = {}
        get = acc.get
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                w = u * v
                x = get(w)
                acc[w] = cu * cv if x is None else x + cu * cv
        return self._like(reduced(acc, self.field.characteristic))

    def __eq__(self, other):
        return (
            isinstance(other, FreeElement)
            and self.alphabet == other.alphabet
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.alphabet, self.field, frozenset(self.terms.items())))

    def is_homogeneous(self) -> bool:
        return len({w.degree for w in self.terms}) <= 1

    def degree(self) -> int:
        """Common degree of a nonzero homogeneous element."""
        degrees = {w.degree for w in self.terms}
        if len(degrees) != 1:
            raise ValueError("degree is defined for nonzero homogeneous elements")
        return degrees.pop()

    def words(self):
        return sorted(self.terms)


# -- expression parser ---------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^(),]))")


def _tokenize(text):
    """The tokens of `text` and the position just past its last non-blank character."""
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
    if not tokens:
        raise ParseError("empty expression")
    return tokens, len(text.rstrip())


def _opens_factor(token):
    return token[0] in ("num", "name") or token[:2] == ("op", "(")


class _Parser:
    """Recursive descent over `expr := [+-] term ([+-] term)*`.

    A term is a product of factors with optional `*`; its numbers (`2`,
    `2/3`, `2^3`) multiply into one scalar wherever they stand.  A factor is
    a name, read as a word in the generators, or a parenthesised expression.
    `^n` after a name binds the name's last letter (`xy^2` is x y y), after
    `)` the whole group.  Subclasses change what a name or a word stands
    for (`word`, `named`) and what a term without factors is (`constant`).
    """

    def __init__(self, tokens, end, alphabet, field, i=0, depth=0):
        self.tokens = tokens
        self.end = end
        self.i = i
        self.depth = depth
        self.alphabet = alphabet
        self.field = field

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, self.end)

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    @staticmethod
    def error(message, token):
        kind, _, pos = token
        return ParseError("unexpected end of input" if kind is None else message, pos)

    def expect(self, op, what=None):
        token = self.take()
        if token[:2] != ("op", op):
            raise self.error(f"expected {what or repr(op)}", token)

    def parse(self):
        e = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"trailing input {val!r}", pos)
        return e

    def expr(self):
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

    def term(self):
        f = self.field
        e, scale = None, f.one
        start = self.peek()[2]
        while True:
            token = self.peek()
            if not _opens_factor(token):
                raise self.error(f"unexpected token {token[1]!r}", token)
            if token[0] == "num":
                scale = f.mul(scale, self.number())
            else:
                x = self.factor()
                e = x if e is None else e * x
            if self.peek()[:2] == ("op", "*"):
                self.take()
            elif not _opens_factor(self.peek()):
                break
        if e is None:
            return self.constant(scale, start)
        return e if scale == f.one else e.scale(scale)

    def factor(self):
        kind, val, pos = self.take()
        if kind == "name":
            return self.named(val, pos)
        # term() calls factor() only on a name or "("
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
        e = self.expr()
        self.expect(")")
        self.depth -= 1
        return self.raised(e, pos)

    def number(self):
        _, val, pos = self.take()
        f = self.field
        raw = f.from_int(self.integer(val, pos))
        if self.peek()[:2] == ("op", "/"):
            self.take()
            kind, den, at = token = self.take()
            if kind != "num":
                raise self.error("expected a denominator", token)
            if f.kind != "rational":
                raise ParseError("fraction coefficients require the rational field", pos)
            den = self.integer(den, at)
            if not den:
                raise ParseError("zero denominator", at)
            raw = f.div(raw, f.from_int(den))
        n = self.power()
        if n is None:
            return raw
        out = f.one
        for _ in range(n):
            out = f.mul(out, raw)
        return out

    def named(self, val, pos):
        try:
            letters = self.alphabet.segment(val)
        except KeyError as exc:
            raise ParseError(str(exc), pos) from None
        n = self.power()
        if n is not None:
            letters = letters[:-1] + [letters[-1]] * n
        return self.word(letters, pos) if letters else self.constant(self.field.one, pos)

    def raised(self, e, pos):
        """`e`, or `e^n` when a power follows."""
        n = self.power()
        if n is None:
            return e
        return self.constant(self.field.one, pos) if n == 0 else e**n

    def power(self):
        """The exponent of a `^n` at the current position, or None."""
        if self.peek()[:2] != ("op", "^"):
            return None
        self.take()
        kind, val, pos = token = self.take()
        if kind != "num":
            raise self.error("expected an integer exponent", token)
        # lengths first: int() refuses a string of more than 4300 digits
        digits = val.lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or "0") > MAX_EXPONENT:
            raise ParseError(f"exponent exceeds the limit {MAX_EXPONENT}", pos)
        return int(digits or "0")

    @staticmethod
    def integer(val, pos):
        """The value of the digits `val` read at `pos`, leading zeros aside."""
        digits = val.lstrip("0")
        if len(digits) > MAX_DIGITS:
            raise ParseError(f"number has more than {MAX_DIGITS} digits", pos)
        return int(digits or "0")

    def word(self, letters, pos):
        return FreeElement.from_word(self.alphabet, self.field, self.alphabet.word(letters))

    def constant(self, raw, pos):
        return FreeElement(self.alphabet, self.field, {EMPTY_WORD: raw})


def parse_element(text: str, alphabet: Alphabet, field: Field) -> FreeElement:
    """Parse a free-algebra expression like `x*y - y*x` or `2/3*x^2`."""
    return _Parser(*_tokenize(text), alphabet, field).parse()
