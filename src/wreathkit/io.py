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

from .freealg import MAX_NESTING, ParseError, parse_element
from .quotient import Presentation, TruncatedAlgebra
from .scalars import Field
from .words import EMPTY_WORD, Alphabet
from .wreath import BasisIndexing, GammaMap, WreathAlgebra


class FileFormatError(ValueError):
    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_presentation(text: str) -> Presentation:
    field = None
    unital = False
    alphabet = None
    relation_sources = []
    for lineno, line in _content_lines(text):
        head, _, rest = line.partition(" ")
        rest = rest.strip()
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
            relation_sources.append((lineno, rest))
        else:
            raise FileFormatError(f"unknown directive {head!r}", lineno)
    if field is None:
        raise FileFormatError("missing `field` line")
    if alphabet is None:
        raise FileFormatError("missing `generators` line")
    relations = []
    for lineno, src in relation_sources:
        try:
            relations.append(parse_element(src, alphabet, field))
        except ParseError as exc:
            raise FileFormatError(str(exc), lineno) from None
    try:
        return Presentation(alphabet, field, relations, unital=unital)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None


def presentation_to_text(p: Presentation) -> str:
    lines = []
    if p.field.kind == "rational":
        lines.append("field rational")
    else:
        lines.append(f"field gf {p.field.characteristic}")
    lines.append(f"unital {'true' if p.unital else 'false'}")
    gens = " ".join(f"{n}:{d}" for n, d in zip(p.alphabet.names, p.alphabet.degrees))
    lines.append(f"generators {gens}")
    for r in p.relations:
        lines.append(f"rel {r.format()}")
    return "\n".join(lines) + "\n"


def load_presentation(path) -> Presentation:
    with open(path, encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def parse_gamma(text: str, indexing: BasisIndexing, a_host: TruncatedAlgebra) -> GammaMap:
    values = {}
    seen = set()
    b_alphabet = indexing.host.alphabet
    for lineno, line in _content_lines(text):
        head, _, rest = line.partition(" ")
        if head != "map":
            raise FileFormatError(f"unknown directive {head!r}", lineno)
        lhs, arrow, rhs = rest.partition("->")
        if not arrow:
            raise FileFormatError("expected `map <basis word> -> <expression>`", lineno)
        lhs, rhs = lhs.strip(), rhs.strip()
        if lhs == "1":
            word = EMPTY_WORD
        else:
            try:
                parsed = parse_element(lhs, b_alphabet, indexing.host.field)
            except ParseError as exc:
                raise FileFormatError(str(exc), lineno) from None
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
            value = a_host.from_free(parse_element(rhs, a_host.alphabet, a_host.field))
        except (ParseError, ValueError) as exc:
            raise FileFormatError(str(exc), lineno) from None
        if value:
            values[index] = value
    return GammaMap(indexing, a_host, values)


def gamma_to_text(gamma: GammaMap) -> str:
    lines = []
    alphabet = gamma.indexing.host.alphabet
    for i in sorted(gamma.values):
        w = gamma.indexing.word_at(i)
        lhs = "1" if w.is_empty else alphabet.format_word(w)
        lines.append(f"map {lhs} -> {gamma.values[i].format()}")
    return "\n".join(lines) + "\n"


def load_gamma(path, indexing, a_host) -> GammaMap:
    with open(path, encoding="utf-8") as fh:
        return parse_gamma(fh.read(), indexing, a_host)


# -- wreath expressions ------------------------------------------------------


class _WreathParser:
    """Expressions over the host generators, `c_gamma`, and `e(i, j, <expr>)`."""

    def __init__(self, tokens, wa: WreathAlgebra, gamma):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.wa = wa
        self.gamma = gamma

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, None)

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

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
        e, scale = None, self.wa.field.one
        while True:
            kind, val, pos = self.peek()
            if kind == "num":
                self.take()
                k2, v2, _ = self.peek()
                if k2 == "op" and v2 == "/":
                    self.take()
                    k3, v3, p3 = self.take()
                    if k3 != "num":
                        raise ParseError("expected a denominator", p3)
                    raw = self.wa.field.parse(f"{val}/{v3}")
                else:
                    raw = self.wa.field.from_int(int(val))
                scale = self.wa.field.mul(scale, raw)
            elif kind == "name" or (kind == "op" and val == "("):
                f = self.factor()
                e = f if e is None else e * f
            elif kind == "op" and val == "*":
                self.take()
            else:
                break
        if e is None:
            raise ParseError("expected a wreath element", self.peek()[2])
        return e.scale(scale) if scale != self.wa.field.one else e

    def factor(self):
        kind, val, pos = self.take()
        wa = self.wa
        if kind == "op" and val == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            e = self.expr()
            self.expect(")")
            self.depth -= 1
            return self._maybe_power(e)
        if kind != "name":
            raise ParseError(f"unexpected token {val!r}", pos)
        if val == "c_gamma":
            if self.gamma is None:
                raise ParseError("c_gamma needs a gamma file", pos)
            return self._maybe_power(wa.from_matrix(wa.gamma_row(self.gamma)))
        if val == "e":
            self.expect("(")
            i = self._int_arg()
            self.expect_comma()
            j = self._int_arg()
            self.expect_comma()
            depth, start = 1, self.i
            while depth > 0:
                kind2, val2, pos2 = self.take()
                if kind2 is None:
                    raise ParseError("unterminated e(...)", pos2)
                if kind2 == "op" and val2 == "(":
                    depth += 1
                elif kind2 == "op" and val2 == ")":
                    depth -= 1
            inner = self.tokens[start : self.i - 1]
            from .freealg import _Parser

            a_elem = wa.a_host.from_free(
                _Parser(inner, wa.a_host.alphabet, wa.field).parse()
            )
            return self._maybe_power(wa.from_matrix(wa.matrix_unit(i, j, a_elem)))
        try:
            letters = wa.b_host.alphabet.segment(val)
        except KeyError as exc:
            raise ParseError(str(exc), pos) from None
        e = None
        for letter in letters:
            g = wa.embed(wa.b_host.gen(letter))
            e = g if e is None else e * g
        return self._maybe_power(e)

    def _maybe_power(self, e):
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            k, v, pos = self.take()
            if k != "num":
                raise ParseError("expected an integer exponent", pos)
            return e ** int(v)
        return e

    def _int_arg(self):
        kind, val, pos = self.take()
        if kind != "num":
            raise ParseError("expected a basis index", pos)
        return int(val)

    def expect_comma(self):
        kind, val, pos = self.take()
        if not (kind == "op" and val == ","):
            raise ParseError("expected a comma", pos)


def parse_wreath_expression(text: str, wa: WreathAlgebra, gamma=None):
    from .freealg import _TOKEN_RE

    tokens, pos = [], 0
    while pos < len(text):
        if text[pos] == ",":
            tokens.append(("op", ",", pos))
            pos += 1
            continue
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
    return _WreathParser(tokens, wa, gamma).parse()


# -- report writers ----------------------------------------------------------


def write_csv(path, meta: dict, columns, rows):
    """Byte-stable CSV with a `# key=value` header block."""
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    data = "\n".join(lines) + "\n"
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
