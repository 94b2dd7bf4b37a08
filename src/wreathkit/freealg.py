"""Finite linear combinations of words: the ambient free associative algebra.

Elements are sparse maps Word -> coefficient with no zero coefficients ever
stored; `Combination` holds the arithmetic that `FreeElement` shares with
the truncated algebras' `quotient.AlgElement`, whose keys are basis indices.
The text syntax accepted by `parse_element` is the one used in
presentation and gamma files, and `_Parser` is also the grammar of wreath
expressions (`io.parse_wreath_expression`): `+`/`-` separated terms,
optional `*` between factors, `^` powers, rational coefficients like `2/3`
(decimal residues over GF(p)).  The parser reads an expression in one pass:
a run of names is one word, not a product of one-letter elements, and a sum
accumulates its terms in one dict, not in a new element per `+`.
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

# Most term products the expansion of one power `(...)^n` may form, summed
# over its n - 1 multiplications (a partial power of t terms times a base of
# s terms forms t * s).  Within the exponent limit a power of a sum still
# grows like s^n: `(x+y)^40` asks for 2^40 terms before any degree check.
MAX_POWER_TERMS = 100_000

# Most digits a number in an expression may have, leading zeros aside:
# Python's int() refuses longer decimal strings by default.
MAX_DIGITS = 4300


class ParseError(ValueError):
    def __init__(self, message, pos=None):
        super().__init__(message if pos is None else f"{message} (at column {pos + 1})")
        self.message, self.pos = message, pos


class Combination:
    """The arithmetic shared by free and truncated-algebra elements.

    An element is a sparse map `terms`: key -> raw coefficient, with no zero
    ever stored (residues in [1, p) over GF(p), ints and `Fraction`s over the
    rationals).  A key stands for a word: it is the word here, and
    `AlgElement` overrides `_word` and `_key`, which convert.  Keys sort like
    their words.  Subclasses give `field` and `alphabet`, `_like(terms, flag)`
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

    def _word(self, key) -> Word:
        """The word that a key of `terms` stands for."""
        return key

    def _key(self, word: Word):
        """The key of `terms` that stands for a word, or None if none does."""
        return word

    def coefficient(self, word: Word) -> Scalar:
        return Scalar(self.field, self.terms.get(self._key(word), self.field.zero))

    def min_degree(self) -> int:
        """Minimal degree of a nonzero homogeneous component."""
        if not self.terms:
            raise ValueError("the zero element has no degree")
        return min(self._word(k).degree for k in self.terms)

    def homogeneous_component(self, d: int):
        terms = {k: c for k, c in self.terms.items() if self._word(k).degree == d}
        return self._like(terms, self.flag)

    def format(self) -> str:
        if not self.terms:
            return "0"
        f = self.field
        parts = []
        for k in sorted(self.terms):
            c, w = self.terms[k], self._word(k)
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


# -- expression parser ---------------------------------------------------

# One token per match: a number, a name, an operator, or any other non-blank
# character, which is an error; blanks before a token are skipped.
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^(),])|(\S))")


def _tokenize(text):
    """The tokens of `text` as (kind, text, position), kind "num", "name" or
    the operator itself, then the end token (None, None, position past the
    last non-blank character)."""
    tokens = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        g = m.lastindex
        if g == 1:
            append(("num", m[1], m.start(1)))
        elif g == 2:
            append(("name", m[2], m.start(2)))
        elif g == 3:
            append((m[3], m[3], m.start(3)))
        else:
            raise ParseError(f"unexpected character {m[4]!r}", m.start(4))
    if not tokens:
        raise ParseError("empty expression")
    append((None, None, len(text.rstrip())))
    return tokens


class _Parser:
    """Recursive descent over `expr := [+-] term ([+-] term)*`.

    A term is a product of factors with optional `*`; its numbers (`2`,
    `2/3`, `2^3`) multiply into one scalar wherever they stand.  A factor is
    a name, read as a word in the generators, or a parenthesised expression.
    `^n` after a name binds the name's last letter (`xy^2` is x y y), after
    `)` the whole group.  Subclasses change what a name or a word stands
    for (`word`, `named`) and what a term without factors is (`constant`).

    One pass gives the element of a product per factor and a sum per term.
    A run of names (numbers may stand between) is one word, `word` called
    once on its letters: words multiply by concatenation.  A parenthesised
    factor, or a name that is not a word, ends the run and multiplies in.
    A sum is one dict: each term goes in by `linalg._eliminate` in place,
    with the c of `Combination`'s `+`/`-` times the term's coefficient.
    `e + t` makes that step on a copy, so keys, values and their order are
    those of the chain of `+`/`-`, keys that cancel and come back included.
    Values need `terms`, `flag`, `_like` and `*` (see `Combination`).
    """

    def __init__(self, tokens, alphabet, field, i=0, depth=0):
        self.tokens = tokens
        self.i = i
        self.depth = depth
        self.alphabet = alphabet
        self.field = field

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        # taking the end token is always an error, so i never passes it
        t = self.tokens[self.i]
        self.i += 1
        return t

    @staticmethod
    def error(message, token):
        kind, _, pos = token
        return ParseError("unexpected end of input" if kind is None else message, pos)

    def expect(self, op, what=None):
        token = self.take()
        if token[0] != op:
            raise self.error(f"expected {what or repr(op)}", token)

    def parse(self):
        e = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"trailing input {val!r}", pos)
        return e

    def expr(self):
        tokens = self.tokens
        op = tokens[self.i][0]
        if op == "+" or op == "-":
            self.i += 1
        p = self.field.characteristic
        terms, flag = {}, False
        while True:
            e, scale = self.term()
            flag = flag or e.flag
            if scale:
                # v -= c * row with c = -scale for "+" and scale for "-": the
                # step of Combination.__add__/__sub__ (there scale is 1)
                if op != "-":
                    scale = p - scale if p else -scale
                _eliminate(terms, e.terms, scale, p)
            op = tokens[self.i][0]
            if op != "+" and op != "-":
                return e._like(terms, flag)
            self.i += 1

    def term(self):
        """(e, c): the term is c times the element e, c a raw scalar."""
        f = self.field
        tokens = self.tokens
        e, scale, run = None, f.one, []
        start = run_at = tokens[self.i][2]
        while True:
            kind, val, pos = token = tokens[self.i]
            if kind == "num":
                scale = f.mul(scale, self.number())
            elif kind == "name" or kind == "(":
                self.i += 1
                if kind == "(":
                    x = self.group(pos)
                else:
                    if not run:
                        run_at = pos
                    x = self.named(val, pos, run)
                if x is not None:
                    if run:
                        w = self.word(run, run_at)
                        e = w if e is None else e * w
                        run = []
                    e = x if e is None else e * x
            else:
                raise self.error(f"unexpected token {val!r}", token)
            kind = tokens[self.i][0]
            if kind == "*":
                self.i += 1
            elif kind != "num" and kind != "name" and kind != "(":
                break
        if run:
            w = self.word(run, run_at)
            e = w if e is None else e * w
        if e is None:
            return self.constant(scale, start), f.one
        return e, scale

    def group(self, pos):
        """The parenthesised factor whose "(" stood at `pos`, with its power."""
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
        if self.peek()[0] == "/":
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

    def named(self, val, pos, run):
        """Put the letters of the name `val`, with its `^n`, onto `run` and
        return None, or return the element of a name that is not a word
        (`x^0` is the constant 1)."""
        try:
            letters = self.alphabet.segment(val)
        except KeyError as exc:
            raise ParseError(str(exc), pos) from None
        n = self.power()
        if n is None:
            run += letters
        elif n or len(letters) > 1:
            run += letters[:-1]
            run += letters[-1:] * n
        else:
            return self.constant(self.field.one, pos)

    def raised(self, e, pos):
        """`e`, or `e^n` when a power follows, within `MAX_POWER_TERMS`."""
        n = self.power()
        if n is None:
            return e
        if n == 0:
            return self.constant(self.field.one, pos)
        out, size, products = e, len(e.terms), 0
        for _ in range(n - 1):
            products += len(out.terms) * size
            if products > MAX_POWER_TERMS:
                raise ParseError(f"power expands past the limit of {MAX_POWER_TERMS} term products", pos)
            out = out * e
        return out

    def power(self):
        """The exponent of a `^n` at the current position, or None."""
        if self.tokens[self.i][0] != "^":
            return None
        self.i += 1
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
        e = FreeElement(self.alphabet, self.field)
        e.terms = {self.alphabet.word(letters): self.field.one}
        return e

    def constant(self, raw, pos):
        return FreeElement(self.alphabet, self.field, {EMPTY_WORD: raw})


def parse_element(text: str, alphabet: Alphabet, field: Field) -> FreeElement:
    """Parse a free-algebra expression like `x*y - y*x` or `2/3*x^2`."""
    return _Parser(_tokenize(text), alphabet, field).parse()
