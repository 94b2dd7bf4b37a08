"""The shared span type, `closure` and the filtrations grown by
`linalg.power_levels`, against brute-force oracles.

`growth_dims` and `power_chain` grow one span with `power_levels` and hand
out its levels: level r is a `Level`, the span of the first d_r of one
shared list of representatives.  The oracle here spans every left-to-right
product of at most n generators, enumerated directly, and is inexact as soon
as one of those products is flagged.
"""

import dataclasses
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathkit import (
    Alphabet,
    Field,
    FreeElement,
    GammaMap,
    Presentation,
    Subspace,
    TruncatedAlgebra,
    WreathAlgebra,
    WreathSpan,
    growth_dims,
)
from wreathkit.growth import power_chain
from wreathkit.linalg import Level, Span, closure, dense_rank
from wreathkit.wreath import wreath_coords

from helpers import brute_products, contains_span, killed_above, make_algebra, random_wreath

Q = Field.rationals()
GF2 = Field.prime(2)


def oracle(generators, n, coords, field):
    """[(dim, exact)] of the span of all products of at most k factors, k = 1..n."""
    out, vectors, exact = [], [], True
    for level in brute_products(generators, n):
        vectors.extend(coords(p) for p in level)
        exact = exact and not any(p.flag for p in level)
        out.append((dense_rank(vectors, field), exact))
    return out


def check_chain(chain, generators, n, coords, field):
    expected = oracle(generators, n, coords, field)
    assert [(s.dim, s.exact) for s in chain] == expected
    # each level's representatives are a prefix of the next level's, and all
    # levels read one list
    for lower, upper in zip(chain, chain[1:]):
        reps = upper.representatives()
        assert lower.representatives() == reps[: lower.dim]
        assert lower.reps is upper.reps
    return expected


@st.composite
def small_instances(draw):
    """A small presentation over Q or GF(2), spanning elements and a length."""
    field = draw(st.sampled_from([Q, GF2]))
    names = ["x", "y"][: draw(st.integers(1, 2))]
    N = draw(st.integers(2, 4))
    alphabet = Alphabet([(g, 1) for g in names])
    degree_two = [alphabet.word(w) for w in product(range(len(names)), repeat=2)]
    relations = []
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(degree_two), max_size=len(degree_two)))
        terms = {w: field.from_int(c) for w, c in zip(degree_two, coeffs)}
        terms = {w: c for w, c in terms.items() if c}
        if terms:
            relations.append(FreeElement(alphabet, field, terms))
    alg = TruncatedAlgebra(Presentation(alphabet, field, relations), N)
    basis = [w for d in (1, 2) for w in alg.degree_basis(d)]
    generators = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = draw(st.lists(st.integers(0, 2), min_size=len(basis), max_size=len(basis)))
        generators.append(alg.element({w: field.from_int(c) for w, c in zip(basis, coeffs)}))
    return alg, generators, draw(st.integers(1, 5))


@settings(max_examples=40)
@given(small_instances())
def test_growth_and_power_chain_match_brute_force(instance):
    alg, generators, n = instance
    chain = power_chain(alg, generators, n)
    assert len(chain) == n
    expected = check_chain(chain, generators, n, lambda e: e.terms, alg.field)
    assert growth_dims(alg, generators, n) == expected


def test_truncated_growth_goes_inexact():
    alg = make_algebra(Q, ["x", "y"], [], n=3)
    gens = [alg.gen("x"), alg.gen("y")]
    expected = oracle(gens, 5, lambda e: e.terms, Q)
    assert [e for _, e in expected] == [True, True, True, False, False]
    assert growth_dims(alg, gens, 5) == expected
    check_chain(power_chain(alg, gens, 5), gens, 5, lambda e: e.terms, Q)


@pytest.mark.parametrize("field", [Q, GF2], ids=repr)
def test_padding_after_early_stabilisation(field):
    alg = make_algebra(field, ["x"], ["x^3"], n=5)
    gens = [alg.gen("x")]
    dims = growth_dims(alg, gens, 7)
    assert dims == [(1, True)] + [(2, True)] * 6 == oracle(gens, 7, lambda e: e.terms, field)
    chain = power_chain(alg, gens, 7)
    assert [(s.dim, s.exact) for s in chain] == dims
    assert chain[-1].representatives() == chain[1].representatives()


def test_degenerate_lengths():
    alg = make_algebra(Q, ["x", "y"], [], n=3)
    gens = [alg.gen("x"), alg.gen("y")]
    assert growth_dims(alg, gens, 1) == [(2, True)]
    assert len(power_chain(alg, gens, 1)) == 1
    assert growth_dims(alg, [], 3) == [(0, True)] * 3


@pytest.mark.parametrize("seed", [3, 11])
def test_power_chain_on_a_wreath_algebra(seed):
    rng = random.Random(seed)
    b_alg = killed_above(GF2, ["x", "y"], 3, unital=True)
    a_alg = killed_above(GF2, ["s"], 3, unital=True)
    wa = WreathAlgebra(b_alg, a_alg)
    gens = [random_wreath(wa, rng) for _ in range(2)]
    chain = power_chain(wa, gens, 4)
    assert all(isinstance(s, Level) for s in chain)
    expected = check_chain(chain, gens, 4, wreath_coords, GF2)
    assert expected[-1][0] > expected[0][0]
    brute = WreathSpan(wa, [p for level in brute_products(gens, 4) for p in level])
    assert brute.dim == chain[-1].dim
    assert all(brute.contains(e) for e in chain[-1].representatives())


def test_levels_read_one_list():
    """A level prints without its list and is read-only; `Span.level` marks
    the span as it stands."""
    alg = make_algebra(Q, ["x", "y"], [], n=3)
    chain = power_chain(alg, [alg.gen("x"), alg.gen("y")], 3)
    assert repr(chain[0]) == "Level(dim=2, exact=True)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        chain[0].dim = 3
    span = Subspace(alg, [alg.gen("x")])
    level = span.level(False)
    span.add(alg.gen("y"))
    assert (level.dim, level.exact, level.representatives()) == (1, False, [alg.gen("x")])
    assert level.reps is span.level().reps


# -- closure ------------------------------------------------------------------


def test_closure_records_rounds_and_stops():
    alg = make_algebra(Q, ["x"], ["x^4"], n=4)
    x = alg.gen("x")
    span = Subspace(alg, [x])
    assert closure(span, lambda e: [e * x]) == [(1, True), (2, True), (3, True), (3, True)]
    span = Subspace(alg, [x])
    assert closure(span, lambda e: [e * x], rounds=1) == [(1, True), (2, True)]
    assert closure(Subspace(alg), lambda e: [e * x]) == [(0, True)]


def test_closure_step_sees_the_span_before_its_candidates():
    alg = make_algebra(Q, ["x", "y"], [], n=3)
    x, y = alg.gen("x"), alg.gen("y")
    span = Subspace(alg, [x, y])
    seen = []

    def step(e):
        seen.append(span.dim)
        return [e * x]

    closure(span, step, rounds=1)
    assert seen == [2, 3]


# -- generation ---------------------------------------------------------------


def test_is_generating_true_and_false():
    b_alg = make_algebra(Q, ["x"], [], n=2)
    a_alg = make_algebra(Q, ["s", "t"], [], n=2)
    idx = WreathAlgebra(b_alg, a_alg).indexing
    s, t = a_alg.gen("s"), a_alg.gen("t")
    assert GammaMap(idx, a_alg, {1: s, 2: t}).is_generating()
    only_s = GammaMap(idx, a_alg, {1: s, 2: s * s})
    assert only_s.is_generating() is False
    assert GammaMap(idx, a_alg, {}).is_generating() is False


# -- owner checks ---------------------------------------------------------------


def _subspace_case():
    a1 = make_algebra(Q, ["x"], [], n=2)
    a2 = make_algebra(Q, ["x"], [], n=2)
    return Subspace, a1, a2, a1.gen("x"), a2.gen("x")


def _wreath_case():
    w1, w2 = (
        WreathAlgebra(make_algebra(Q, ["b"], ["b^3"], n=3), make_algebra(Q, ["z"], ["z^3"], n=3))
        for _ in range(2)
    )
    return WreathSpan, w1, w2, w1.embed(w1.b_host.gen("b")), w2.embed(w2.b_host.gen("b"))


@pytest.mark.parametrize("case", [_subspace_case, _wreath_case], ids=["Subspace", "WreathSpan"])
def test_spans_reject_elements_and_spans_of_other_algebras(case):
    kind, own, other, e_own, e_other = case()
    span = kind(own, [e_own])
    foreign = kind(other, [e_other])
    assert isinstance(span, Span)
    for call in (
        lambda: span.add(e_other),
        lambda: span.contains(e_other),
        lambda: contains_span(span, foreign),
    ):
        with pytest.raises(ValueError):
            call()
    assert span.dim == 1 and span.exact


def test_shared_methods_and_accessors():
    alg = make_algebra(Q, ["x", "y"], [], n=2)
    x, y = alg.gen("x"), alg.gen("y")
    s = Subspace(alg, [x])
    assert s.host is alg
    total = Subspace(alg, [x, y])
    assert total.dim == 2 and contains_span(total, s) and not contains_span(s, total)
    assert repr(total) == "Subspace(dim=2, exact=True)"
    wa = WreathAlgebra(make_algebra(Q, ["b"], ["b^3"], n=3), make_algebra(Q, ["z"], ["z^3"], n=3))
    b = wa.embed(wa.b_host.gen("b"))
    ws = WreathSpan(wa, [b])
    assert ws.algebra is wa
    assert repr(ws.extend([b * b, b.scale(Q.from_int(2))])) == "WreathSpan(dim=2, exact=True)"


def test_representatives_track_rank_increases():
    """`add` returns whether the element raised the dimension, and only such
    elements become representatives, in insertion order."""
    alg = make_algebra(Q, ["a", "b"], [], n=2)
    a, b = alg.gen("a"), alg.gen("b")
    shadow = a.scale(Q.from_int(5))
    span = Subspace(alg)
    assert span.add(a)
    assert not span.add(shadow)  # dependent: no representative
    assert span.add(b)
    assert not span.add(a + b)
    reps = span.representatives()
    assert span.dim == 2 and len(reps) == 2
    assert reps[0] is a and reps[1] is b
