"""File formats and report writers.

Presentation files:   `field rational|gf <p>`, `unital true|false`,
`generators x:1 y:1 ...`, then `rel <expression>` lines.  Gamma files:
`map <basis-word|1> -> <expression over the coefficient algebra>` lines.
`#` starts a comment.  CSV reports carry their run header as `#` comment
lines and are byte-stable for equal inputs; every CSV gets a JSON mirror on
request.
"""

from __future__ import annotations

import json

from .freealg import Combination, ParseError, _Parser, _tokenize, parse_element
from .quotient import Presentation, TruncatedAlgebra
from .scalars import Field
from .words import EMPTY_WORD, Alphabet
from .wreath import (
    BasisIndexing,
    GammaMap,
    WreathAlgebra,
    WreathElement,
    wreath_coords,
    wreath_from_coords,
)


class FileFormatError(ValueError):
    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def _content_lines(text: str):
    """(line number, content, offset of the content in the line) for every
    line that holds more than blanks and a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, at = _stripped(raw.split("#", 1)[0], 0)
        if line:
            yield lineno, line, at


def _stripped(text: str, at: int):
    """text without its surrounding blanks, and the offset in the line of
    what is left, text standing at offset `at`."""
    body = text.lstrip()
    return body.rstrip(), at + len(text) - len(body)


def _line_error(exc: ParseError, lineno: int, at: int) -> FileFormatError:
    """The error of the line for a parse error in an expression that stands
    at offset `at` of the line: the column counts from the line's start."""
    if exc.pos is not None:
        exc = ParseError(exc.message, exc.pos + at)
    return FileFormatError(str(exc), lineno)


def parse_presentation(text: str) -> Presentation:
    field = None
    unital = False
    alphabet = None
    relation_sources = []
    for lineno, line, at in _content_lines(text):
        head, _, rest = line.partition(" ")
        rest, rest_at = _stripped(rest, at + len(head) + 1)
        if head == "field":
            parts = rest.split()
            if parts == ["rational"]:
                field = Field.rationals()
            elif len(parts) == 2 and parts[0] == "gf":
                try:
                    field = Field.prime(int(parts[1]))
                except ValueError as exc:
                    raise FileFormatError(str(exc), lineno) from None
            else:
                raise FileFormatError(f"bad field spec {rest!r}", lineno)
        elif head == "unital":
            if rest not in ("true", "false"):
                raise FileFormatError("unital takes true or false", lineno)
            unital = rest == "true"
        elif head == "generators":
            gens = []
            for part in rest.split():
                name, _, deg = part.partition(":")
                try:
                    gens.append((name, int(deg) if deg else 1))
                except ValueError:
                    raise FileFormatError(f"bad generator {part!r}", lineno) from None
            try:
                alphabet = Alphabet(gens)
            except ValueError as exc:
                raise FileFormatError(str(exc), lineno) from None
        elif head == "rel":
            relation_sources.append((lineno, rest, rest_at))
        else:
            raise FileFormatError(f"unknown directive {head!r}", lineno)
    if field is None:
        raise FileFormatError("missing `field` line")
    if alphabet is None:
        raise FileFormatError("missing `generators` line")
    relations = []
    for lineno, src, at in relation_sources:
        try:
            relations.append(parse_element(src, alphabet, field))
        except ParseError as exc:
            raise _line_error(exc, lineno, at) from None
    try:
        return Presentation(alphabet, field, relations, unital=unital)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None


def load_presentation(path) -> Presentation:
    with open(path, encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def parse_gamma(text: str, indexing: BasisIndexing, a_host: TruncatedAlgebra) -> GammaMap:
    values = {}
    seen = set()
    b_alphabet = indexing.host.alphabet
    for lineno, line, at in _content_lines(text):
        head, _, rest = line.partition(" ")
        if head != "map":
            raise FileFormatError(f"unknown directive {head!r}", lineno)
        lhs, arrow, rhs = rest.partition("->")
        if not arrow:
            raise FileFormatError("expected `map <basis word> -> <expression>`", lineno)
        at += len(head) + 1  # where rest starts
        rhs, rhs_at = _stripped(rhs, at + len(lhs) + len(arrow))
        lhs, lhs_at = _stripped(lhs, at)
        if lhs == "1":
            word = EMPTY_WORD
        else:
            try:
                parsed = parse_element(lhs, b_alphabet, indexing.host.field)
            except ParseError as exc:
                raise _line_error(exc, lineno, lhs_at) from None
            if len(parsed.terms) != 1:
                raise FileFormatError(f"{lhs!r} is not a single basis word", lineno)
            word = next(iter(parsed.terms))
        try:
            index = indexing.index_of(word)
        except KeyError:
            raise FileFormatError(f"{lhs!r} is not a basis word of the host", lineno) from None
        if index in seen:
            raise FileFormatError(f"duplicate mapping for {lhs!r}", lineno)
        seen.add(index)
        try:
            value = parse_element(rhs, a_host.alphabet, a_host.field)
        except ParseError as exc:
            raise _line_error(exc, lineno, rhs_at) from None
        try:
            value = a_host.from_free(value)
        except ValueError as exc:
            raise FileFormatError(str(exc), lineno) from None
        values[index] = value
    return GammaMap(indexing, a_host, values)


def load_gamma(path, indexing, a_host) -> GammaMap:
    with open(path, encoding="utf-8") as fh:
        return parse_gamma(fh.read(), indexing, a_host)


def load_growth_table(path) -> dict:
    """The table {n: (dim, exact)} of a CSV whose header names the columns n,
    dim and exact, as `growth` writes it.  A missing column or cell, a cell of
    the wrong kind or a repeated n is an error that names its line and
    column."""
    entries, first, header = {}, {}, None
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    for lineno, line, _ in _content_lines(text):
        if header is None:
            header = line.split(",")
            for col in ("n", "dim", "exact"):
                if col not in header:
                    raise FileFormatError(f"the header has no column {col!r}", lineno)
            continue
        cells = line.split(",")
        if len(cells) < len(header):
            raise FileFormatError(f"column {header[len(cells)]!r}: no cell", lineno)
        if len(cells) > len(header):
            raise FileFormatError(f"{len(cells)} cells under {len(header)} columns", lineno)
        row = dict(zip(header, cells))
        for col in ("n", "dim"):
            try:
                row[col] = int(row[col])
            except ValueError:
                raise FileFormatError(f"column {col!r}: {row[col]!r} is not an integer", lineno) from None
        n = row["n"]
        if row["exact"] not in ("True", "False"):
            raise FileFormatError(f"column 'exact': {row['exact']!r} is not True or False", lineno)
        if n in first:
            raise FileFormatError(f"column 'n': n={n} repeats line {first[n]}", lineno)
        first[n] = lineno
        entries[n] = (row["dim"], row["exact"] == "True")
    return entries


# -- wreath expressions ------------------------------------------------------


class _WreathTerms(Combination):
    """A wreath element as the parser's sums hold it: its `wreath_coords`
    as terms, and its flag.  Products go through `WreathElement`."""

    __slots__ = ("algebra", "field", "terms", "flag")

    def __init__(self, algebra: WreathAlgebra, terms: dict, flag: bool):
        self.algebra, self.field, self.terms, self.flag = algebra, algebra.field, terms, flag

    @classmethod
    def of(cls, e: WreathElement):
        return cls(e.algebra, wreath_coords(e), e.flag)

    def _like(self, terms, flag=False):
        return _WreathTerms(self.algebra, terms, flag)

    def __mul__(self, other):
        return _WreathTerms.of(self.element() * other.element())

    def element(self) -> WreathElement:
        return wreath_from_coords(self.algebra, self.terms, self.flag)


class _WreathParser(_Parser):
    """The element grammar over B's generators, plus `c_gamma` and
    `e(i, j, <expression over A>)`; a word stands for its embedding in the
    wreath product, and a term of numbers alone is not a wreath element.
    Its values are `_WreathTerms`, so that sums accumulate as in `_Parser`."""

    def __init__(self, tokens, wa: WreathAlgebra, gamma):
        super().__init__(tokens, wa.b_host.alphabet, wa.field)
        self.wa = wa
        self.gamma = gamma

    def named(self, val, pos, run):
        wa = self.wa
        if val == "c_gamma":
            if self.gamma is None:
                raise ParseError("c_gamma needs a gamma file", pos)
            return self.raised(_WreathTerms.of(wa.from_matrix(wa.gamma_row(self.gamma))), pos)
        if val != "e":
            return super().named(val, pos, run)
        self.expect("(")
        i = self._index()
        self.expect(",", "a comma")
        j = self._index()
        self.expect(",", "a comma")
        inner = _Parser(self.tokens, wa.a_host.alphabet, wa.field, self.i, self.depth)
        a = wa.a_host.from_free(inner.expr())
        self.i = inner.i
        self.expect(")")
        return self.raised(_WreathTerms.of(wa.from_matrix(wa.matrix_unit(i, j, a))), pos)

    def word(self, letters, pos):
        b_host = self.wa.b_host
        b = b_host.gen(letters[0])
        for letter in letters[1:]:
            b = b * b_host.gen(letter)
        return _WreathTerms.of(self.wa.embed(b))

    def constant(self, raw, pos):
        raise ParseError("expected a wreath element", pos)

    def _index(self):
        token = self.take()
        if token[0] != "num":
            raise self.error("expected a basis index", token)
        i, n = self.integer(token[1], token[2]), len(self.wa.indexing)
        if not 1 <= i <= n:
            raise ParseError(f"basis index {i} out of range 1..{n}", token[2])
        return i


def parse_wreath_expression(text: str, wa: WreathAlgebra, gamma=None):
    return _WreathParser(_tokenize(text), wa, gamma).parse().element()


# -- report writers ----------------------------------------------------------


def format_csv(meta: dict, columns, rows) -> str:
    """Byte-stable CSV text with a `# key=value` header block."""
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(columns))
    lines.extend(",".join(str(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_csv(path, meta: dict, columns, rows):
    data = format_csv(meta, columns, rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)
    return data


def write_json(path, meta: dict, columns, rows):
    payload = {
        "meta": {k: str(v) for k, v in meta.items()},
        "columns": list(columns),
        "rows": [[c if isinstance(c, (int, bool)) else str(c) for c in row] for row in rows],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
