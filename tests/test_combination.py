"""The element arithmetic shared by free and truncated-algebra elements.

`freealg.Combination` gives `FreeElement` and `AlgElement` one `+`, `-`,
unary `-`, `scale`, `**`, `coefficient`, `homogeneous_component` and
`format`, summing through `linalg`.  These tests check both element kinds
against `helpers._acc`, an accumulator that goes through `Field` calls, over
Q, GF(2) and GF(2^31 - 1): the values, the stored coefficients (no zero,
residues in [0, p), ints or `Fraction`s over Q) and the truncation flags.  They also
check `GammaMap.apply` against a per-index sum and the round trip between
elements and basis coordinates.
"""

from fractions import Fraction
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathkit import (
    EMPTY_WORD,
    AlgElement,
    Alphabet,
    BasisIndexing,
    Field,
    FieldMismatchError,
    FreeElement,
    GammaMap,
    degree_one_generators,
    growth_dims,
)
from wreathkit.freealg import Combination
from wreathkit.growth import power_chain

from helpers import _acc, assert_raw, make_algebra

Q = Field.rationals()
GF2 = Field.prime(2)
BIG = Field.prime(2**31 - 1)
FIELDS = [Q, GF2, BIG]
XY = Alphabet([("x", 1), ("y", 1)])
FREE_WORDS = [XY.word(t) for d in (0, 1, 2) for t in product(range(2), repeat=d)]

SHARED = (
    "__add__", "__sub__", "__neg__", "scale", "__pow__", "__bool__",
    "coefficient", "min_degree", "homogeneous_component", "format",
)


def coefficient_pool(field):
    """Small values whose sums cancel often, and residues next to p."""
    if field.kind == "rational":
        # ints, integral Fractions and proper Fractions: every shape of a Q value
        return [-2, -1, 1, 2, Fraction(-1), Fraction(1), Fraction(-1, 2), Fraction(1, 2)]
    p = field.characteristic
    return sorted({1, 2 % p, p - 1, p - 2, (p + 1) // 2} - {0})


HOSTS = {}


def host(field, coefficients=False):
    """A small unital algebra: commutative in x, y truncated at degree 3, or
    (coefficients=True) s with s^3 = 0."""
    if (field, coefficients) not in HOSTS:
        gens, rels = (["s"], ["s^3"]) if coefficients else (["x", "y"], ["x*y - y*x"])
        HOSTS[field, coefficients] = make_algebra(field, gens, rels, n=3, unital=True)
    return HOSTS[field, coefficients]


@st.composite
def elements(draw, field, kind):
    """A FreeElement over XY, or a possibly flagged AlgElement of `host`."""
    words = FREE_WORDS if kind == "free" else host(field).basis_words()
    support = draw(st.lists(st.sampled_from(words), max_size=6, unique=True))
    terms = {w: draw(st.sampled_from(coefficient_pool(field))) for w in support}
    if kind == "free":
        return FreeElement(XY, field, terms)
    return AlgElement(host(field), host(field).element(terms).terms, draw(st.booleans()))


def oracle(field, pairs):
    out = {}
    for w, c in pairs:
        _acc(out, w, c, field)
    return out


def assert_clean(e):
    for c in e.terms.values():
        assert_raw(e.field, c)


def negated(field, e):
    return [(w, field.neg(c)) for w, c in e.terms.items()]


@pytest.mark.parametrize("kind", ["free", "truncated"])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=80)
@given(st.data())
def test_linear_arithmetic_matches_the_field_call_oracle(field, kind, data):
    a = data.draw(elements(field, kind))
    b = data.draw(elements(field, kind))
    pairs_a, pairs_b = list(a.terms.items()), list(b.terms.items())
    cases = [
        (a + b, oracle(field, pairs_a + pairs_b), a.flag or b.flag),
        (a - b, oracle(field, pairs_a + negated(field, b)), a.flag or b.flag),
        (-a, oracle(field, negated(field, a)), a.flag),
        (a - a, {}, a.flag),
        (a + (-a), {}, a.flag),
    ]
    # a truncated element's keys are basis indices
    degree = (lambda k: k.degree) if kind == "free" else host(field)._degree.__getitem__
    key = (lambda w: w) if kind == "free" else host(field)._index
    for d in range(4):
        component = {k: c for k, c in a.terms.items() if degree(k) == d}
        cases.append((a.homogeneous_component(d), component, a.flag))
    for result, terms, flag in cases:
        assert type(result) is type(a)
        assert result.terms == terms
        assert result.flag == flag
        assert bool(result) == bool(terms)
        assert_clean(result)
    for w in FREE_WORDS if kind == "free" else host(field).basis_words():
        assert a.coefficient(w) == a.terms.get(key(w), field.zero)
    if a:
        assert a.min_degree() == min(degree(k) for k in a.terms)
    else:
        with pytest.raises(ValueError):
            a.min_degree()


@pytest.mark.parametrize("kind", ["free", "truncated"])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60)
@given(st.data())
def test_scale_takes_scalars_ints_and_raw_values(field, kind, data):
    a = data.draw(elements(field, kind))
    raw = data.draw(st.sampled_from(coefficient_pool(field) + [field.zero]))
    n = data.draw(st.integers(-5, 2**40))
    for c, c_raw in [(raw, raw), (n, field.from_int(n)), (True, field.one)]:
        result = a.scale(c)
        assert result.terms == oracle(field, [(w, field.mul(c_raw, v)) for w, v in a.terms.items()])
        assert result.flag == a.flag
        assert_clean(result)


@pytest.mark.parametrize("kind", ["free", "truncated"])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40)
@given(st.data())
def test_powers_are_repeated_products(field, kind, data):
    a = data.draw(elements(field, kind))
    k = data.draw(st.integers(1, 3))
    power = a**k
    product_ = reduce(lambda x, y: x * y, [a] * k)
    assert power == product_ and power.flag == product_.flag
    assert_clean(power)
    if kind == "free":
        expected = oracle(field, list(a.terms.items()))
        for _ in range(k - 1):
            expected = oracle(
                field,
                [(u * v, field.mul(cu, cv)) for u, cu in expected.items() for v, cv in a.terms.items()],
            )
        assert power.terms == expected
    with pytest.raises(ValueError):
        a**0


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_flags_reach_every_operation(field):
    alg = host(field)
    x, y = alg.gen("x"), alg.gen("y")
    escaped = (x * x) * (y * y)  # degree 4 > 3: zero, flagged
    assert not escaped and escaped.flag
    e = x + escaped
    for result in (e, escaped + x, x - escaped, escaped - x, -e, e.scale(3), e.scale(0),
                   e**2, e * x, x * e, e.homogeneous_component(1)):
        assert result.flag
    assert not (x + y).flag and not (x * y).flag
    assert repr(e) == "x (truncated)" and repr(x) == "x"


def test_one_set_of_shared_methods():
    for name in SHARED:
        assert name in Combination.__dict__
        assert name not in FreeElement.__dict__
        assert name not in AlgElement.__dict__


def test_format_is_the_same_for_both_kinds():
    for field in FIELDS:
        alg = host(field)
        lift = FreeElement(alg.alphabet, field, {w: field.from_int(-3) for w in alg.basis_words()[:5]})
        assert alg.from_free(lift).format() == lift.format()


# -- coercion of scalars ---------------------------------------------------------


@pytest.mark.parametrize("kind", ["free", "truncated"])
def test_scalars_of_another_field_are_rejected(kind):
    """A raw value carries no field, so a value of Q (a `Fraction`) is refused
    over GF(p), and an element, not a value, is refused by `scale`; an element
    over another field is refused by the field check."""
    gf = Field.prime(101)
    for field, other in [(gf, Q), (Q, gf), (gf, Field.prime(103))]:
        e = FreeElement.generator(XY, field, 0) if kind == "free" else host(field).gen("x")
        o = FreeElement.generator(XY, other, 0)
        with pytest.raises(FieldMismatchError):
            e + o if kind == "free" else host(field).from_free(o)
        with pytest.raises(TypeError):
            e.scale(o)
    e = FreeElement.generator(XY, gf, 0) if kind == "free" else host(gf).gen("x")
    with pytest.raises(ValueError):
        e.scale(Fraction(1, 2))
    with pytest.raises(ValueError):
        e.scale(Fraction(2))
    if kind == "truncated":
        with pytest.raises(ValueError):
            host(gf).element({XY.gen(0): Fraction(1, 2)})


def test_element_coerces_ints():
    alg = host(Q)
    x = XY.gen(0)
    ix = alg._index(x)  # x's basis index, the same in both hosts
    e = alg.element({x: 2, EMPTY_WORD: 0})
    assert e.terms == {ix: Fraction(2)}
    assert_raw(Q, e.terms[ix])
    gf = host(Field.prime(101))
    assert gf.element({x: 205}).terms == {ix: 3}
    assert gf.element({x: -1}).terms == {ix: 100}
    assert not gf.element({x: 101})
    with pytest.raises(TypeError):
        gf.element({x: 0.5})


def test_free_constructor_coerces_coefficients():
    """`FreeElement(...)` coerces like `element`: residues mod p, multiples
    of p dropped, a `Fraction` over GF(p) refused, ints over Q stored as
    ints; the internal `_like` path keeps what it is given."""
    gf = Field.prime(101)
    x, y = XY.gen(0), XY.gen(1)
    e = FreeElement(XY, gf, {x: 205, y: -1})
    assert e.terms == {x: 3, y: 100}
    assert e.format() == "3*x + 100*y"
    zero = FreeElement(XY, gf, {x: 101, y: 0})
    assert not zero and zero.terms == {}
    with pytest.raises(ValueError):
        FreeElement(XY, gf, {x: 205, y: Fraction(1, 2)})
    with pytest.raises(TypeError):
        FreeElement(XY, gf, {x: 0.5})
    q = FreeElement(XY, Q, {x: 2, y: Fraction(-1, 3)})
    assert q.terms == {x: Fraction(2), y: Fraction(-1, 3)}
    for c in q.terms.values():
        assert_raw(Q, c)
    alg = make_algebra(gf, ["x", "y"], [], n=2)
    assert alg.from_free(e).terms == {alg._index(x): 3, alg._index(y): 100}


# -- gamma and basis coordinates -------------------------------------------------


@pytest.mark.parametrize("unipotent", [False, True], ids=["plain", "unipotent"])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40)
@given(st.data())
def test_gamma_apply_is_the_per_index_sum(field, unipotent, data):
    b_host = host(field)
    a_host = host(field, coefficients=True)
    indexing = BasisIndexing(b_host, unipotent=unipotent)
    a_elements = st.builds(
        lambda terms, flag: AlgElement(a_host, a_host.element(terms).terms, flag),
        st.dictionaries(st.sampled_from(a_host.basis_words()),
                        st.sampled_from(coefficient_pool(field)), max_size=3),
        st.booleans(),
    )
    values = data.draw(st.dictionaries(st.integers(1, len(indexing)), a_elements, max_size=6))
    gamma = GammaMap(indexing, a_host, values)
    b = data.draw(elements(field, "truncated"))
    coords = indexing.element_coords(b)
    expected, flag = {}, b.flag
    for i, c in coords.items():
        v = gamma.value(i)
        for w, a in v.terms.items():
            _acc(expected, w, field.mul(c, a), field)
        flag = flag or v.flag
    out = gamma.apply(b)
    assert out.host is a_host
    assert out.terms == expected and out.flag == flag
    assert_clean(out)


@pytest.mark.parametrize("unipotent", [False, True], ids=["plain", "unipotent"])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60)
@given(st.data())
def test_basis_coordinates_round_trip(field, unipotent, data):
    alg = host(field)
    indexing = BasisIndexing(alg, unipotent=unipotent)
    e = data.draw(elements(field, "truncated"))
    coords = indexing.element_coords(e)
    for c in coords.values():
        assert_raw(field, c)
    # the coordinates expand e in the indexed basis, summed through `Field` calls
    expanded = {}
    for i, c in coords.items():
        for w, v in indexing.basis_element(i).terms.items():
            _acc(expanded, w, field.mul(c, v), field)
    assert expanded == e.terms
    raw = data.draw(st.dictionaries(st.integers(1, len(indexing)),
                                    st.sampled_from(coefficient_pool(field)), max_size=6))
    back = reduce(lambda u, v: u + v,
                  [indexing.basis_element(i).scale(c) for i, c in raw.items()], alg.zero())
    assert_clean(back)
    assert indexing.element_coords(back) == raw


# -- factor counts -----------------------------------------------------------------


@pytest.mark.parametrize("n", [0, -3])
def test_factor_count_below_one_is_an_error(n):
    alg = host(Q)
    with pytest.raises(ValueError, match="factor count"):
        growth_dims(alg, degree_one_generators(alg), n)
    with pytest.raises(ValueError, match="factor count"):
        power_chain(alg, degree_one_generators(alg), n)
