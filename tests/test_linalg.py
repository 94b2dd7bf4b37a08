import random
from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from wreathkit import Alphabet, Field
from wreathkit.linalg import Echelon, dense_rank

from helpers import assert_raw

Q = Field.rationals()
GF7 = Field.prime(7)


def test_insert_and_dim():
    e = Echelon(Q)
    assert e.insert({"a": Q.from_int(1)})
    assert not e.insert({"a": Q.from_int(2)})  # dependent
    assert e.insert({"a": Q.from_int(1), "b": Q.from_int(1)})
    assert e.dim == 2


def test_contains_and_reduce():
    e = Echelon(Q)
    e.insert({"a": Q.from_int(1), "b": Q.from_int(2)})
    e.insert({"b": Q.from_int(1)})
    assert e.contains({"a": Q.from_int(3), "b": Q.from_int(1)})
    assert not e.contains({"c": Q.from_int(1)})
    res = e.reduce({"a": Q.from_int(1), "c": Q.from_int(1)})
    assert set(res) == {"c"}


def test_rref_invariant():
    rng = random.Random(9)
    e = Echelon(GF7)
    keys = list("abcdefgh")
    for _ in range(30):
        vec = {k: GF7.sample(rng) for k in keys if rng.random() < 0.5}
        e.insert(vec)
    pivots = e.pivot_keys()
    for i, row in enumerate(e.rows):
        own = max(row)
        assert row[own] == 1
        for key in row:
            if key != own:
                assert key not in pivots, "row contains a foreign pivot"


def test_pivot_is_greatest_key():
    e = Echelon(Q)
    e.insert({"a": Q.from_int(1), "z": Q.from_int(1)})
    assert set(e.pivots) == {"z"}


def test_payloads_track_rank_increases():
    e = Echelon(Q)
    e.insert({"a": Q.from_int(1)}, payload="first")
    e.insert({"a": Q.from_int(5)}, payload="shadow")
    e.insert({"b": Q.from_int(1)}, payload="second")
    assert e.reps == ["first", "second"]


def test_echelon_agrees_with_dense_rank():
    rng = random.Random(17)
    keys = list(range(12))
    for trial in range(40):
        vecs = []
        for _ in range(rng.randrange(1, 15)):
            vecs.append({k: GF7.sample(rng) for k in keys if rng.random() < 0.4})
        e = Echelon(GF7)
        for v in vecs:
            e.insert(v)
        assert e.dim == dense_rank(vecs, GF7), f"trial {trial}"


def test_dense_rank_rationals():
    one = Q.from_int(1)
    assert dense_rank([{0: one, 1: one}, {0: one}, {1: one}], Q) == 2
    assert dense_rank([], Q) == 0


# -- differential tests against dense_rank -------------------------------------

FIELDS = [Q, Field.prime(2), Field.prime(2147483647)]
XY = Alphabet([("x", 1), ("y", 1)])
KEY_POOLS = {
    "int": list(range(10)),
    "word": sorted(XY.word(t) for d in (1, 2, 3) for t in product(range(2), repeat=d)),
}
DIFF = settings(max_examples=40)


def coefficients(field):
    if field.kind == "rational":
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
    return st.one_of(
        st.integers(0, min(field.characteristic - 1, 3)),
        st.integers(0, field.characteristic - 1),
    )


def assert_rref(e):
    """Rows normalized, each pivot its row's greatest key, fully inter-reduced."""
    f = e.field
    assert len(e.rows) == len(e.pivots) == len(e.reps)
    assert e._order == sorted(e.pivots)
    assert all(r is e.rows[e.pivots[k]] for k, r in zip(e._order, e._ordered_rows))
    for key, idx in e.pivots.items():
        row = e.rows[idx]
        assert max(row) == key and row[key] == f.one
        for k, c in row.items():
            assert_raw(f, c)
            if k != key:
                assert k not in e.pivots, "row contains a foreign pivot"


@st.composite
def vector_lists(draw):
    """A field, a key pool, and vectors with planted linear dependencies."""
    field = draw(st.sampled_from(FIELDS))
    keys = KEY_POOLS[draw(st.sampled_from(sorted(KEY_POOLS)))]
    coeff = coefficients(field)
    vecs = []
    for _ in range(draw(st.integers(1, 10))):
        support = draw(st.lists(st.sampled_from(keys), max_size=6, unique=True))
        vecs.append({k: draw(coeff) for k in support})
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(vecs) - 1))
        j = draw(st.integers(0, len(vecs) - 1))
        a, b = draw(coeff), draw(coeff)
        combo = {}
        for k in set(vecs[i]) | set(vecs[j]):
            c = field.add(
                field.mul(a, vecs[i].get(k, field.zero)),
                field.mul(b, vecs[j].get(k, field.zero)),
            )
            if not field.is_zero(c):
                combo[k] = c
        vecs.append(combo)
    return field, keys, vecs


@st.composite
def descending_pivots(draw):
    """Vectors whose greatest keys strictly descend: every insert may back-reduce."""
    field = draw(st.sampled_from(FIELDS))
    keys = KEY_POOLS[draw(st.sampled_from(sorted(KEY_POOLS)))]
    coeff = coefficients(field).filter(lambda c: not field.is_zero(c))
    vecs = []
    for top in range(len(keys) - 1, 0, -1):
        below = draw(st.lists(st.sampled_from(keys[:top]), min_size=1, max_size=5, unique=True))
        vec = {k: draw(coeff) for k in below}
        vec[keys[top]] = draw(coeff)
        vecs.append(vec)
    return field, keys, vecs


def insert_checked(field, vecs):
    e = Echelon(field)
    for n, v in enumerate(vecs, start=1):
        before = dict(v)
        e.insert(v, payload=n)
        assert v == before, "insert mutated its input"
        assert_rref(e)
        assert e.dim == dense_rank(vecs[:n], field)
    return e


def probes(field, keys):
    one = field.one
    return [{k: one} for k in keys] + [{k: field.from_int(i + 1) for i, k in enumerate(keys)}]


@DIFF
@given(vector_lists(), st.randoms(use_true_random=False))
def test_echelon_random_orders_agree_with_dense_rank(case, rng):
    field, keys, vecs = case
    shuffled = vecs[:]
    rng.shuffle(shuffled)
    e1 = insert_checked(field, vecs)
    e2 = insert_checked(field, shuffled)
    assert e1.pivot_keys() == e2.pivot_keys()
    for p in probes(field, keys):
        assert e1.reduce(p) == e2.reduce(p)
        assert e1.contains(p) == (dense_rank(vecs + [p], field) == e1.dim)


@DIFF
@given(descending_pivots())
def test_echelon_descending_pivots_back_reduce(case):
    field, keys, vecs = case
    e1 = insert_checked(field, vecs)
    assert e1.dim == len(vecs)  # distinct greatest keys: independent
    e2 = insert_checked(field, vecs[::-1])
    assert sorted(map(sorted, (r.items() for r in e1.rows))) == sorted(
        map(sorted, (r.items() for r in e2.rows))
    )
    for p in probes(field, keys):
        assert e1.reduce(p) == e2.reduce(p)
