"""The one-pass expression parser against the element-by-element oracle.

`helpers.reference_parse_element` evaluates the same grammar one factor and
one term at a time: each name is an element multiplied into its term, each
term is added to the sum so far.  The parser under test reads a run of names
as one word and sums its terms in one dict; the two must give the same
`list(terms.items())`, key order and value types included, and the same
`ParseError` wherever the reference raises one.
"""

import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathkit import Alphabet, BasisIndexing, Field, ParseError, WreathAlgebra, parse_element
from wreathkit import io as wio
from wreathkit.freealg import _tokenize
from wreathkit.io import FileFormatError, parse_wreath_expression

from helpers import (
    make_algebra,
    random_gamma,
    reference_parse_element,
    reference_parse_wreath_expression,
    reference_tokenize,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"

Q = Field.rationals()
FIELDS = [Q, Field.prime(2), Field.prime(101)]

# (alphabet, names a term may use): single letters, multi-character names,
# and names whose longest-first reading has to back off (`abc` is a*bc)
ALPHABETS = [
    (Alphabet([("x", 1), ("y", 1)]), ["x", "y", "xy", "yx", "xxy"]),
    (Alphabet([("x1", 1), ("x2", 1)]), ["x1", "x2", "x1x2", "x2x1x2"]),
    (Alphabet([("a", 1), ("ab", 1), ("bc", 1)]), ["a", "ab", "bc", "abc", "abab", "aab"]),
    (Alphabet([("s", 1), ("t", 2), ("u", 1)]), ["s", "t", "u", "st", "tu"]),
]


def number(rational):
    digits = st.sampled_from(["0", "1", "2", "3", "7", "12", "100", "0003"])
    if not rational:
        return digits
    return st.one_of(digits, st.builds("{}/{}".format, digits, st.sampled_from(["1", "2", "3", "6"])))


@st.composite
def expressions(draw, names, rational, depth=2):
    """Expression text: runs of names with `*`, blanks or nothing between
    them, numbers anywhere in a term, `^n` with n = 0 too, parenthesised
    groups with powers, leading signs, and terms repeated with either sign
    so that they cancel and come back."""
    power = st.sampled_from(["", "", "^0", "^1", "^2", "^3"])

    def factor():
        kinds = ["name", "name", "name", "number"] + (["group"] if depth else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "name":
            return draw(st.sampled_from(names)) + draw(power)
        if kind == "number":
            return draw(number(rational)) + draw(st.sampled_from(["", "", "^2"]))
        inner = draw(expressions(names, rational, depth - 1))
        return f"({inner}){draw(st.sampled_from(['', '^0', '^2']))}"

    def term():
        text = factor()
        for _ in range(draw(st.integers(0, 3))):
            text += draw(st.sampled_from(["*", " * ", " ", ""])) + factor()
        return text

    pool = [term() for _ in range(draw(st.integers(1, 3)))]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6))
    text = draw(st.sampled_from(["", "-", "+", " - "])) + pool[picks[0]]
    for i in picks[1:]:
        text += draw(st.sampled_from([" + ", " - ", "+", "-"])) + pool[i]
    return text


def items(e):
    return [(w, c, type(c)) for w, c in e.terms.items()]


def assert_same_parse(text, alphabet, field):
    try:
        want = reference_parse_element(text, alphabet, field)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_element(text, alphabet, field)
        assert str(got.value) == str(exc), text
        return
    assert _tokenize(text) == reference_tokenize(text), text
    assert items(parse_element(text, alphabet, field)) == items(want), text


@settings(max_examples=200)
@given(st.data())
def test_one_pass_parse_matches_the_element_by_element_oracle(data):
    alphabet, names = data.draw(st.sampled_from(ALPHABETS))
    field = data.draw(st.sampled_from(FIELDS))
    text = data.draw(expressions(names, field.kind == "rational"))
    assert_same_parse(text, alphabet, field)


@pytest.mark.parametrize(
    "text",
    ["x*y - x*y + x*y", "x*y*x - y*x*y + 3*x*y*x - 2*x*y*x - x*y*x", "2/3 x y + 1/3*x*y",
     "-x - -y", "x^0", "2 x^0 y", "xy^0*x", "(x - y)^2 - (x + y)^2", "x + y - x + x",
     "0*x + y", "x y 0", "(x)^0 y"],
)
def test_cancelling_and_returning_terms(text):
    xy = ALPHABETS[0][0]
    for field in FIELDS:
        assert_same_parse(text, xy, field)


def _bench_inputs(tmp_path_factory):
    sys.path.insert(0, str(BENCH))
    try:
        import run as bench_run
    finally:
        sys.path.remove(str(BENCH))
    texts = {path.name: path.read_text() for path in sorted((BENCH / "inputs").glob("*.pres"))}
    for seed in (5, 77):
        work = tmp_path_factory.mktemp(f"inputs{seed}")
        bench_run.write_inputs(seed, work)
        for path in sorted(work.glob("*.map")):
            texts[f"{path.name}@{seed}"] = path.read_text()
    return texts


def test_bench_inputs_parse_as_the_oracle_parses_them(tmp_path_factory):
    """Every `rel` of the bench's presentations, and both sides of every
    line of its seeded gamma maps (seeds 5 and 77)."""
    texts = _bench_inputs(tmp_path_factory)
    assert len(texts) == 7 + 2 * 4
    b_alphabet = Alphabet([("x", 1), ("y", 1)])
    a_alphabet = Alphabet([("s", 1), ("t", 1), ("u", 1)])
    gf101 = Field.prime(101)
    checked = 0
    for name, text in texts.items():
        if name.endswith(".pres"):
            pres = wio.parse_presentation(text)
            for line in text.splitlines():
                if line.startswith("rel "):
                    assert_same_parse(line[4:], pres.alphabet, pres.field)
                    checked += 1
            continue
        for line in text.splitlines():
            lhs, rhs = line[len("map "):].split(" -> ")
            if lhs != "1":
                assert_same_parse(lhs, b_alphabet, gf101)
            assert_same_parse(rhs, a_alphabet, gf101)
            checked += 1
    assert checked >= 200


# -- wreath expressions -------------------------------------------------------

WREATH_FIELDS = [Q, Field.prime(101)]


def wreath_env(field):
    b_alg = make_algebra(field, ["x", "y"], ["x*y - 2*y*x"], n=3)
    a_alg = make_algebra(field, ["s", "t"], ["s*s"], n=2, unital=True)
    wa = WreathAlgebra(b_alg, a_alg, BasisIndexing(b_alg))
    gamma = random_gamma(wa.indexing, a_alg, random.Random(7))
    return wa, gamma


WREATH_ENVS = {field: wreath_env(field) for field in WREATH_FIELDS}


@settings(max_examples=120)
@given(st.data())
def test_wreath_parse_matches_the_element_by_element_oracle(data):
    """Wreath values sum as coordinates in one dict; the element and its
    flag are those of `WreathElement` sums and products, also when a word
    escapes B's truncation (x^4 at N = 3) or an entry A's (s*t*t at N = 2)."""
    field = data.draw(st.sampled_from(WREATH_FIELDS))
    wa, gamma = WREATH_ENVS[field]
    n = len(wa.indexing)
    units = st.builds(
        "e({},{},{})".format,
        st.integers(1, n),
        st.integers(1, n),
        expressions(["s", "t", "st", "tt"], field.kind == "rational", depth=1),
    )
    atoms = st.one_of(st.sampled_from(["x", "y", "xy", "c_gamma", "x^4", "c_gamma^2"]), units)
    text = data.draw(expressions(["x", "y", "xy", "c_gamma"], field.kind == "rational", depth=1))
    text += data.draw(st.sampled_from([" + ", " - ", "*"])) + data.draw(atoms)
    try:
        want = reference_parse_wreath_expression(text, wa, gamma)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_wreath_expression(text, wa, gamma)
        assert str(got.value) == str(exc), text
        return
    got = parse_wreath_expression(text, wa, gamma)
    assert got == want, text
    assert got.flag == want.flag, text


# -- robustness: mutated input lines end in a value or a clean error ----------

MUTATION_TOKENS = ["x", "y", "s", "t", "u", "xy", "*", "+", "-", "/", "^", "(", ")", ",",
                   "0", "1", "2", "3", "9" * 40, "7" * 5000, "$", ";", ".", "#", "'", "é", "\t"]


@st.composite
def mutated(draw, text):
    """`text` with a few tokens inserted, deleted or swapped, stray printable
    characters, huge numbers and `^` with no exponent.  Tokens are joined by
    blanks and stray characters are no digits, so every number stays whole:
    an exponent is 0-3 or far above the limit, and no power of a long sum
    is expanded."""
    tokens = _split(text)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["insert", "delete", "swap", "char", "caret"]))
        at = draw(st.integers(0, len(tokens)))
        if op == "insert" or not tokens:
            tokens.insert(at, draw(st.sampled_from(MUTATION_TOKENS)))
        elif op == "delete":
            del tokens[min(at, len(tokens) - 1)]
        elif op == "swap":
            other = draw(st.integers(0, len(tokens) - 1))
            at = min(at, len(tokens) - 1)
            tokens[at], tokens[other] = tokens[other], tokens[at]
        elif op == "char":
            char = st.characters(min_codepoint=33, max_codepoint=126, exclude_characters="0123456789")
            tokens.insert(at, draw(char))
        else:
            tokens.insert(at, "^")
    return " ".join(tokens)


def _split(text):
    out, word = [], ""
    for ch in text:
        if ch.isalnum() or ch == "_":
            word += ch
            continue
        if word:
            out.append(word)
            word = ""
        if not ch.isspace():
            out.append(ch)
    return out + ([word] if word else [])


ROBUST_LINES = ["s*s*s*s", "x*y - 2*y*x", "y*z - z*y + x*x", "x*y*x - y*x*y",
                "48 + 20*s + 8*t*u + 54*u*s*t", "2/3*x*y - (x + y)^2"]


@settings(max_examples=200, deadline=2000)
@given(st.data())
def test_mutated_expressions_parse_or_raise_parse_error(data):
    alphabet = Alphabet([("x", 1), ("y", 1), ("z", 1), ("s", 1), ("t", 1), ("u", 1)])
    field = data.draw(st.sampled_from(FIELDS))
    text = data.draw(mutated(data.draw(st.sampled_from(ROBUST_LINES))))
    try:
        parse_element(text, alphabet, field)
    except ParseError:
        pass


GAMMA_TEXT = "map x -> 3*s + t\nmap y -> s*t - 2*t*s\nmap x*y -> 1/2*s\n"


@settings(max_examples=100, deadline=2000)
@given(st.data())
def test_mutated_gamma_files_load_or_raise_file_format_error(data):
    field = data.draw(st.sampled_from(WREATH_FIELDS))
    wa, _ = WREATH_ENVS[field]
    lines = GAMMA_TEXT.splitlines()
    k = data.draw(st.integers(0, len(lines) - 1))
    lines[k] = data.draw(mutated(lines[k]))
    try:
        wio.parse_gamma("\n".join(lines) + "\n", wa.indexing, wa.a_host)
    except FileFormatError:
        pass


@pytest.mark.parametrize(
    "text, char, column", [("x + $y", "$", 5), ("x*y  ;", ";", 6), ("\t x\t@", "@", 5)]
)
def test_bad_character_is_reported_at_its_own_column(text, char, column):
    """Blanks before a bad character are skipped, not reported in its place."""
    xy = ALPHABETS[0][0]
    message = re.escape(f"unexpected character {char!r} (at column {column})")
    with pytest.raises(ParseError, match=message):
        parse_element(text, xy, Q)
    wa, gamma = WREATH_ENVS[Q]
    with pytest.raises(ParseError, match=message):
        parse_wreath_expression(text, wa, gamma)

