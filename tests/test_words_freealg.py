import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathkit import Alphabet, EMPTY_WORD, Field, FreeElement, ParseError, parse_element
from wreathkit.freealg import MAX_NESTING

from helpers import assert_raw

Q = Field.rationals()
GF2 = Field.prime(2)
XY = Alphabet([("x", 1), ("y", 1)])


def gen(alphabet, field, name):
    return FreeElement.generator(alphabet, field, alphabet.index(name))


def test_word_concat():
    x, y = XY.gen(0), XY.gen(1)
    assert (x * y).letters == (0, 1)
    xy = XY.word((0, 1))
    assert xy * EMPTY_WORD == xy
    xxx = XY.gen(0) * XY.word((0, 0))
    assert xxx.degree == 3 and xxx.letters == (0, 0, 0)


def test_deglex_order():
    # degree first, then the letter sequence in generator order
    words = [XY.word(t) for t in [(1,), (0,), (0, 1), (1, 0), (0, 0)]]
    assert sorted(words) == [XY.word(t) for t in [(0,), (1,), (0, 0), (0, 1), (1, 0)]]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_word_count_matches_enumeration(m):
    ab = Alphabet([(f"g{i}", 1) for i in range(m)])
    for d in range(0, 9):
        assert ab.word_count(d) == len(list(product(range(m), repeat=d))) == m**d


def test_word_count_general_degrees():
    ab = Alphabet([("a", 1), ("b", 2)])
    # words of degree 4: aaaa, aab, aba, baa, bb
    assert ab.word_count(4) == 5


def test_free_mul_expansion():
    x, y = gen(XY, Q, "x"), gen(XY, Q, "y")
    e = (x + y) * (x - y)
    assert e.terms == {
        XY.word((0, 0)): Fraction(1),
        XY.word((0, 1)): Fraction(-1),
        XY.word((1, 0)): Fraction(1),
        XY.word((1, 1)): Fraction(-1),
    }
    assert not (x * FreeElement.zero(XY, Q))


def test_char2_square():
    x, y = gen(XY, GF2, "x"), gen(XY, GF2, "y")
    sq = (x + y) ** 2
    assert sorted(sq.terms) == sorted(
        [XY.word(t) for t in [(0, 0), (0, 1), (1, 0), (1, 1)]]
    )


def test_min_degree():
    x, y = gen(XY, Q, "x"), gen(XY, Q, "y")
    assert (x + x * y).min_degree() == 1
    assert (x * y * x).min_degree() == 3
    with pytest.raises(ValueError):
        FreeElement.zero(XY, Q).min_degree()


def test_homogeneous_component():
    x, y = gen(XY, Q, "x"), gen(XY, Q, "y")
    e = x + x * y + y * x * y
    assert e.homogeneous_component(2) == x * y
    assert not e.homogeneous_component(4)
    sq = (x + y) ** 2
    assert sq.homogeneous_component(2) == sq


def test_mul_properties_randomized():
    rng = random.Random(11)

    def rand_elem():
        terms = {}
        for _ in range(rng.randrange(4)):
            letters = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
            terms[XY.word(letters)] = Q.sample(rng)
        return FreeElement(XY, Q, terms)

    for _ in range(300):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_degree_multiplicative_for_homogeneous():
    rng = random.Random(5)
    for _ in range(200):
        d1, d2 = rng.randrange(1, 4), rng.randrange(1, 4)
        a = FreeElement(
            XY, Q, {XY.word(tuple(rng.randrange(2) for _ in range(d1))): Fraction(1)}
        )
        b = FreeElement(
            XY, Q, {XY.word(tuple(rng.randrange(2) for _ in range(d2))): Fraction(1)}
        )
        assert (a * b).degree() == d1 + d2


def test_parser_basics():
    e = parse_element("x*y - y*x", XY, Q)
    assert e.terms == {XY.word((0, 1)): Fraction(1), XY.word((1, 0)): Fraction(-1)}
    assert parse_element("x^3", XY, Q).terms == {XY.word((0, 0, 0)): Fraction(1)}
    assert parse_element("xy", XY, Q) == parse_element("x*y", XY, Q)
    assert parse_element("2/3*x", XY, Q).terms == {XY.word((0,)): Fraction(2, 3)}
    assert parse_element("x*y^2", XY, Q) == parse_element("x*y*y", XY, Q)
    assert parse_element("(x+y)^2", XY, Q) == parse_element("x", XY, Q).__class__.generator(
        XY, Q, 0
    ).__add__(parse_element("y", XY, Q)) ** 2


def test_parser_multichar_names():
    ab = Alphabet([("x1", 1), ("x2", 1)])
    e = parse_element("x1x2 - x2x1", ab, Q)
    assert e.terms == {ab.word((0, 1)): Fraction(1), ab.word((1, 0)): Fraction(-1)}


def test_parser_errors():
    with pytest.raises(ParseError):
        parse_element("x*z", XY, Q)  # unknown generator
    with pytest.raises(ParseError):
        parse_element("x +* y", XY, Q)
    with pytest.raises(ParseError):
        parse_element("1/2*x", XY, GF2)  # fraction over a prime field
    with pytest.raises(ParseError):
        parse_element("", XY, Q)


def test_parser_nesting_limit():
    ok = "(" * MAX_NESTING + "x*y" + ")" * MAX_NESTING
    assert parse_element(ok, XY, Q) == parse_element("x*y", XY, Q)
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_element("(" * depth + "x" + ")" * depth, XY, Q)


def test_segment_long_and_backtracking_tokens():
    assert XY.segment("xy" * 2500) == [0, 1] * 2500
    # longest match first, backing off when the rest cannot be read
    ab = Alphabet([("a", 1), ("ab", 1), ("bc", 1)])
    assert ab.segment("abc") == [0, 2]
    assert ab.segment("abab") == [1, 1]
    with pytest.raises(KeyError):
        ab.segment("abcb")


def test_format_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            letters = tuple(rng.randrange(2) for _ in range(rng.randrange(3)))
            terms[XY.word(letters)] = Q.sample(rng)
        e = FreeElement(XY, Q, terms)
        assert parse_element(e.format(), XY, Q) == e


def test_format_round_trip_gf():
    gf = Field.prime(7)
    rng = random.Random(4)
    for _ in range(100):
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            letters = tuple(rng.randrange(2) for _ in range(1, rng.randrange(1, 4)))
            terms[XY.word(letters)] = gf.sample(rng)
        e = FreeElement(XY, gf, terms)
        assert parse_element(e.format(), XY, gf) == e


# -- accumulation: cancellation and stored coefficients ------------------------

ACC_FIELDS = [Q, GF2, Field.prime(2147483647)]
ACC_WORDS = [XY.word(t) for d in (0, 1, 2) for t in product(range(2), repeat=d)]


@st.composite
def free_elements(draw, field):
    coeff = (
        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
        if field.kind == "rational"
        else st.integers(0, field.characteristic - 1)
    )
    support = draw(st.lists(st.sampled_from(ACC_WORDS), max_size=5, unique=True))
    return FreeElement(XY, field, {w: draw(coeff) for w in support})


def reference_terms(field, pairs):
    """Sum of (word, coefficient) pairs by plain accumulation from zero."""
    out = {}
    for w, c in pairs:
        out[w] = field.add(out.get(w, field.zero), c)
    return {w: c for w, c in out.items() if not field.is_zero(c)}


def assert_stored(e):
    for c in e.terms.values():
        assert_raw(e.field, c)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_free_sums_and_products_store_clean_coefficients(data):
    f = data.draw(st.sampled_from(ACC_FIELDS))
    a, b = data.draw(free_elements(f)), data.draw(free_elements(f))
    total, prod = a + b, a * b
    assert total.terms == reference_terms(f, [*a.terms.items(), *b.terms.items()])
    assert prod.terms == reference_terms(
        f, [(u * v, f.mul(cu, cv)) for u, cu in a.terms.items() for v, cv in b.terms.items()]
    )
    assert not (a + (-a)).terms and not (a - a).terms
    for e in (total, prod, a - b, a * b - b * a):
        assert_stored(e)


@pytest.mark.parametrize("field", ACC_FIELDS, ids=repr)
def test_free_cancellation_examples(field):
    one = FreeElement(XY, field, {EMPTY_WORD: field.one})
    x, y = gen(XY, field, "x"), gen(XY, field, "y")
    # (1 + x)(1 - x) = 1 - x^2: the two x terms cancel inside one product
    e = (one + x) * (one - x)
    assert e == one - x * x
    assert XY.gen(0) not in e.terms
    assert not ((x + y) * x - x * x - y * x).terms
    assert_stored(e)
