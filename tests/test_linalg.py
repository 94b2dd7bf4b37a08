import random
import sys
from bisect import bisect_right
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathkit import (
    Alphabet,
    BasisIndexing,
    Field,
    Presentation,
    TruncatedAlgebra,
    dense_dim_check,
    growth_dims,
    linalg,
    packed,
    parse_element,
    span_inclusion_check,
)
from wreathkit import io as wio
from wreathkit.linalg import Echelon, dense_rank

from helpers import (
    assert_raw,
    dense_from,
    rationals,
    reference_dense_dim_check,
    run_main,
    sample,
    span_bound_job_case,
    sparse_only,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
try:
    import run as bench_run
finally:
    sys.path.remove(str(BENCH))

Q = Field.rationals()
GF7 = Field.prime(7)


def pivot_keys(e):
    """The pivots of e's rows, in insertion order."""
    return [k for k, _ in e.pivot_rows()]


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
        vec = {k: sample(GF7, rng) for k in keys if rng.random() < 0.5}
        e.insert(vec)
    for own, row in e.pivot_rows():
        assert max(row) == own and row[own] == 1
        for key in row:
            if key != own:
                assert key not in e, "row contains a foreign pivot"


def test_pivot_is_greatest_key():
    e = Echelon(Q)
    e.insert({"a": Q.from_int(1), "z": Q.from_int(1)})
    assert pivot_keys(e) == ["z"]
    assert "z" in e and "a" not in e


def test_echelon_agrees_with_dense_rank():
    rng = random.Random(17)
    keys = list(range(12))
    for trial in range(40):
        vecs = []
        for _ in range(rng.randrange(1, 15)):
            vecs.append({k: sample(GF7, rng) for k in keys if rng.random() < 0.4})
        e = Echelon(GF7)
        for v in vecs:
            e.insert(v)
        assert e.dim == dense_rank(vecs, GF7), f"trial {trial}"


def test_dense_rank_rationals():
    one = Q.from_int(1)
    assert dense_rank([{0: one, 1: one}, {0: one}, {1: one}], Q) == 2
    assert dense_rank([], Q) == 0


# -- differential tests against dense_rank -------------------------------------

FIELDS = [Q, Field.prime(2), Field.prime(101), Field.prime(2147483647)]
# the fields below `linalg.DENSE_P_LIMIT`; 65521 is the largest prime below it
SMALL_P = [Field.prime(2), Field.prime(101), Field.prime(65521)]
XY = Alphabet([("x", 1), ("y", 1)])
KEY_POOLS = {
    "int": list(range(10)),
    "word": sorted(XY.word(t) for d in (1, 2, 3) for t in product(range(2), repeat=d)),
}
DIFF = settings(max_examples=40)


def coefficients(field):
    if field.kind == "rational":
        return rationals(4, 4)
    return st.one_of(
        st.integers(0, min(field.characteristic - 1, 3)),
        st.integers(0, field.characteristic - 1),
    )


def assert_rref(e):
    """Rows normalized, each pivot its row's greatest key, fully inter-reduced,
    and `ordered_rows()` the same rows in ascending pivot order.

    Reads only the public view (`pivot_rows()`, `ordered_rows()`, pivot
    membership), so it checks the sparse and the dense mode alike."""
    f = e.field
    pivot_rows = list(e.pivot_rows())
    keys = [k for k, _ in pivot_rows]
    assert len(pivot_rows) == len(set(keys)) == e.dim
    assert list(e.ordered_rows()) == sorted(pivot_rows)
    for key, row in pivot_rows:
        assert key in e
        assert max(row) == key and row[key] == f.one
        for k, c in row.items():
            assert_raw(f, c)
            if k != key:
                assert k not in e, "row contains a foreign pivot"


@st.composite
def vector_lists(draw, fields=FIELDS):
    """A field, a key pool, and vectors with planted linear dependencies."""
    field = draw(st.sampled_from(fields))
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
            if c:
                combo[k] = c
        vecs.append(combo)
    return field, keys, vecs


@st.composite
def descending_pivots(draw, fields=FIELDS):
    """Vectors whose greatest keys strictly descend: every insert may back-reduce."""
    field = draw(st.sampled_from(fields))
    keys = KEY_POOLS[draw(st.sampled_from(sorted(KEY_POOLS)))]
    coeff = coefficients(field).filter(bool)
    vecs = []
    for top in range(len(keys) - 1, 0, -1):
        below = draw(st.lists(st.sampled_from(keys[:top]), min_size=1, max_size=5, unique=True))
        vec = {k: draw(coeff) for k in below}
        vec[keys[top]] = draw(coeff)
        vecs.append(vec)
    return field, keys, vecs


def insert_checked(field, vecs, canonical=dict):
    """Insert vecs one by one, checking the echelon form and the rank after
    each against `dense_rank` of the canonical(v)s."""
    e = Echelon(field)
    for n, v in enumerate(vecs, start=1):
        before = dict(v)
        e.insert(v)
        assert v == before, "insert mutated its input"
        assert_rref(e)
        assert e.dim == dense_rank([canonical(w) for w in vecs[:n]], field)
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
    assert set(pivot_keys(e1)) == set(pivot_keys(e2))
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
    assert sorted(map(sorted, (r.items() for _, r in e1.pivot_rows()))) == sorted(
        map(sorted, (r.items() for _, r in e2.pivot_rows()))
    )
    for p in probes(field, keys):
        assert e1.reduce(p) == e2.reduce(p)


# -- insert's fast paths: lead-1 rows, ascending pivots, raw ints ----------------


def canonical(field, vec):
    """vec with its ints taken mod p over GF(p), zeros dropped."""
    p = field.characteristic
    if p:
        return {k: c % p for k, c in vec.items() if c % p}
    return {k: c for k, c in vec.items() if c}


@st.composite
def lead_one_vectors(draw, fields=FIELDS):
    """Vectors whose leading coefficient is 1 (over GF(p) possibly as 1 + p),
    with greatest keys in ascending, descending or random order; over GF(p)
    the other coefficients are raw ints, negative or >= p as often as not."""
    field = draw(st.sampled_from(fields))
    keys = KEY_POOLS[draw(st.sampled_from(sorted(KEY_POOLS)))]
    order = draw(st.sampled_from(["ascending", "descending", "random"]))
    tops = list(range(1, len(keys)))
    if order == "descending":
        tops.reverse()
    elif order == "random":
        tops = draw(st.permutations(tops))
    p = field.characteristic
    coeff = coefficients(field) if not p else st.integers(-3 * p, 3 * p)
    lead = st.just(field.one) if not p else st.sampled_from([1, 1 + p])
    vecs = []
    for top in tops:
        below = draw(st.lists(st.sampled_from(keys[:top]), max_size=5, unique=True))
        vec = {k: draw(coeff) for k in below}
        vec[keys[top]] = draw(lead)
        vecs.append(vec)
    return field, keys, vecs


@DIFF
@given(lead_one_vectors())
def test_echelon_lead_one_and_raw_ints(case):
    """Inserting lead-1 vectors skips the normalisation, and ascending
    pivots skip the bisection; the rows are still the ones a scaled copy of
    each (canonical) vector gives through the inverse, they hold residues in
    [0, p) whatever ints came in, and the rank is `dense_rank`'s.  Over Q a
    value may be an int in one and an integral Fraction in the other (the
    inverse 1/3 times 3c), which are equal."""
    field, keys, vecs = case
    e = insert_checked(field, vecs, canonical=lambda v: canonical(field, v))
    three = field.from_int(3)
    scaled = [{k: field.mul(three, c) for k, c in canonical(field, v).items()} for v in vecs]
    ref = insert_checked(field, scaled)
    assert list(e.pivot_rows()) == list(ref.pivot_rows())
    for (_, a), (_, b) in zip(e.pivot_rows(), ref.pivot_rows()):
        for k in a:
            assert_raw(field, a[k])
            assert_raw(field, b[k])
    for p in probes(field, keys):
        assert e.reduce(p) == ref.reduce(p)


@pytest.mark.parametrize(
    "field, packed",
    [(f, False) for f in FIELDS] + [(f, True) for f in SMALL_P],
    ids=lambda x: repr(x) if isinstance(x, Field) else ("dense" if x else "sparse"),
)
def test_is_unit_row(field, packed):
    """`is_unit_row(k)` holds exactly when a multiple of k reduces to zero,
    also for a row that back-reduction has cut down to its pivot."""
    c = field.from_int
    with dense_from(1) if packed else sparse_only():
        e = Echelon(field)
        e.insert({1: c(1), 0: c(3)})
        e.insert({3: c(3)})
        e.insert({4: c(-1), 3: c(5)})
        assert packed == (e._packed is not None)
        for k in range(5):
            assert e.is_unit_row(k) == (k in (3, 4)) == e.contains({k: c(3)})
        e.insert({0: c(1)})  # the row {1: 1, 0: 3} becomes {1: 1}
        for k in range(5):
            assert e.is_unit_row(k) == (k in (0, 1, 3, 4)) == e.contains({k: c(3)})


def test_ascending_pivots_skip_the_bisection(monkeypatch):
    """A pivot above every earlier one is placed after one comparison."""
    calls = []
    monkeypatch.setattr(linalg, "bisect_right", lambda *a: calls.append(a) or bisect_right(*a))
    e = Echelon(GF7)
    words = KEY_POOLS["word"]
    for i in range(0, len(words), 2):
        assert e.insert({words[i]: 1, words[i // 2]: 3})
    assert not calls
    assert sorted(pivot_keys(e)) == pivot_keys(e) == words[::2]
    assert e.insert({words[3]: 1, words[0]: -1})  # below the last pivot
    assert len(calls) == 1
    assert_rref(e)


# -- the dense GF(p) mode: packed rows against the sparse path ---------------------


def is_packed(e):
    """True once e's rows are packed ints (the dense mode)."""
    return e._packed is not None


def insert_modes(field, vecs, switch_rank):
    """The echelon of vecs built sparse only, and with its rows packed once the
    rank reaches switch_rank (a power of two); both are checked after every
    insert as `insert_checked` does."""
    canon = lambda v: canonical(field, v)  # noqa: E731
    with sparse_only():
        sparse = insert_checked(field, vecs, canon)
    with dense_from(switch_rank):
        dense = insert_checked(field, vecs, canon)
    assert not is_packed(sparse)
    assert is_packed(dense) == (dense.dim >= switch_rank)
    return sparse, dense


def assert_same_echelon(a, b, vecs):
    """a and b hold the same rows under the same pivots, inserted in the same
    order, and reduce alike."""
    assert a.dim == b.dim
    assert a.ordered_rows() == b.ordered_rows()
    assert list(a.pivot_rows()) == list(b.pivot_rows())
    for v in vecs:
        assert a.reduce(v) == b.reduce(v)
        assert a.contains(v) == b.contains(v)


@DIFF
@given(
    st.one_of(
        vector_lists(SMALL_P), descending_pivots(SMALL_P), lead_one_vectors(SMALL_P)
    ),
    st.sampled_from([1, 2, 4]),
)
def test_dense_mode_matches_sparse(case, switch_rank):
    """Packed from the first insert or mid-stream, with random, ascending or
    strictly descending pivots (back-reduction on every insert) and raw ints
    in [-3p, 3p]: the packed echelon has the sparse run's rows, pivots,
    reductions and membership, and `dense_rank`'s rank."""
    field, keys, vecs = case
    sparse, dense = insert_modes(field, vecs, switch_rank)
    assert_same_echelon(sparse, dense, probes(field, keys) + vecs)


def dense_vectors(field, rng, tops, width):
    """One vector per top key: the top key, then about half of the keys below
    it (at most `width` of them), with raw ints in [-p, 2p)."""
    p = field.characteristic
    vecs = []
    for top in tops:
        below = rng.sample(range(top), min(width, top // 2))
        vec = {k: rng.randrange(-p, 2 * p) for k in below}
        vec[top] = rng.randrange(1, p)
        vecs.append(vec)
    for _ in range(6):  # dependent vectors, inserted after the switch
        a, b = rng.sample(vecs, 2)
        c = rng.randrange(p)
        vecs.append({k: a.get(k, 0) + c * b.get(k, 0) for k in set(a) | set(b)})
    return vecs


@pytest.mark.parametrize("order", ["random", "descending"])
@pytest.mark.parametrize("field", SMALL_P, ids=repr)
def test_dense_switch_under_the_real_rule(field, order):
    """Dense vectors switch at rank DENSE_MIN_RANK, mid-stream, by the real
    density rule; afterwards the packed echelon keeps the sparse run's rows,
    pivots and reductions, and `dense_rank`'s rank."""
    rng = random.Random(field.characteristic)
    tops = range(63, 15, -1) if order == "descending" else rng.sample(range(16, 64), 48)
    vecs = dense_vectors(field, rng, tops, 24)
    with sparse_only():
        sparse = Echelon(field)
        for v in vecs:
            sparse.insert(v)
    dense = Echelon(field)
    for v in vecs:
        dense.insert(v)
        assert is_packed(dense) == (dense.dim >= linalg.DENSE_MIN_RANK)
    assert dense.dim == 48 == dense_rank([canonical(field, v) for v in vecs], field)
    assert_rref(dense)
    assert_same_echelon(sparse, dense, probes(field, range(64)) + vecs)


def assert_slots_bounded(e):
    """Every packed row's slots within its bound, within the slot bound."""
    pk = e._packed
    for k, x in pk.rows.items():
        assert max(pk._slots(x), default=0) <= pk.bounds[k] <= pk.slot_max


def test_slot_renormalisation_near_the_p_limit():
    """With p just under DENSE_P_LIMIT and the slot bound cut to 2^36, a few
    steps pass the bound: rows and reduce sums are renormalised, every slot
    of every row stays within its row's bound, no sum that is unpacked
    passes the bound, and the results equal the sparse run's."""
    field = Field.prime(65521)
    assert field.characteristic < linalg.DENSE_P_LIMIT
    assert packed.slot_bits(field.characteristic) == 64
    rng = random.Random(3)
    vecs = dense_vectors(field, rng, range(47, 7, -1), 30)
    renormalised = []  # True for a stored row, False for a reduce sum
    with sparse_only():
        sparse = Echelon(field)
        for v in vecs:
            sparse.insert(v)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(packed._SLOT_MAX, 64, (1 << 36) - 1)
        renormalize = packed.PackedRows.renormalize

        def recorded(pk, x):
            renormalised.append(any(x is row for row in dense._packed.rows.values()))
            return renormalize(pk, x)

        mp.setattr(packed.PackedRows, "renormalize", recorded)
        unpack = packed.PackedRows.unpack

        def bounded(pk, x):
            assert max(pk._slots(x), default=0) <= packed._SLOT_MAX[pk.bits]
            return unpack(pk, x)

        mp.setattr(packed.PackedRows, "unpack", bounded)
        with dense_from(4):
            dense = Echelon(field)
            for v in vecs:
                dense.insert(v)
                if is_packed(dense):
                    assert_slots_bounded(dense)
        assert is_packed(dense)
        assert_same_echelon(sparse, dense, probes(field, range(48)) + vecs)
    assert True in renormalised and False in renormalised


def test_32_bit_slots_cross_the_slot_bound():
    """Over GF(101) slots are 32 bits wide.  With their bound cut to 2^16, a
    stream with descending pivots passes it: rows and reduce sums are
    renormalised, every slot stays within the bound after each insert and
    each reduce, and the results equal the sparse run's."""
    assert [packed.slot_bits(p) for p in (2, 101, 1021, 1031, 65521)] == [32] * 3 + [64] * 2
    field = Field.prime(101)
    rng = random.Random(4)
    vecs = dense_vectors(field, rng, range(47, 7, -1), 30)
    with sparse_only():
        sparse = Echelon(field)
        for v in vecs:
            sparse.insert(v)
    renormalised = []  # True for a stored row, False for a reduce sum
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(packed._SLOT_MAX, 32, (1 << 16) - 1)
        renormalize, unpack = packed.PackedRows.renormalize, packed.PackedRows.unpack

        def recorded(pk, x):
            renormalised.append(any(x is row for row in dense._packed.rows.values()))
            return renormalize(pk, x)

        def bounded(pk, x):
            assert pk.bits == 32
            assert max(pk._slots(x), default=0) <= (1 << 16) - 1
            return unpack(pk, x)

        mp.setattr(packed.PackedRows, "renormalize", recorded)
        mp.setattr(packed.PackedRows, "unpack", bounded)
        with dense_from(4):
            dense = Echelon(field)
            for v in vecs:
                dense.insert(v)
                if is_packed(dense):
                    assert_slots_bounded(dense)
        assert dense._packed.slot_max == (1 << 16) - 1
        for v in probes(field, range(48)) + vecs:
            assert dense.reduce(v) == sparse.reduce(v)
            assert_slots_bounded(dense)
        assert_same_echelon(sparse, dense, vecs)
    assert True in renormalised and False in renormalised


# -- block-diagonal streams: rows of disjoint support, then rows that bridge them --


def insert_both(field, sparse, dense, vecs, done):
    """Insert vecs into the sparse and the packed echelon (after `done`
    earlier vectors), checking the packed one's form, slot bounds and rank
    against the sparse one's and `dense_rank`'s after each insert."""
    canon = [canonical(field, v) for v in done]
    for v in vecs:
        canon.append(canonical(field, v))
        with sparse_only():
            sparse.insert(v)
        dense.insert(v)
        assert_rref(dense)
        assert_slots_bounded(dense)
        assert dense.dim == sparse.dim == dense_rank(canon, field)


BLOCK_FIELDS = [Field.prime(2), Field.prime(3), GF7]


@st.composite
def block_diagonal(draw):
    """A small field, 2 to 4 planted blocks whose keys interleave (key k in
    block k % blocks), one vector per key above the lowest two of its block
    with descending pivots and lower keys of its own block, then 1 to 4
    vectors that each bridge 2 or 3 blocks, sometimes through a key no
    vector has held."""
    field = draw(st.sampled_from(BLOCK_FIELDS))
    nblocks = draw(st.integers(2, 4))
    width = draw(st.integers(4, 7))
    size = nblocks * width
    coeff = st.integers(1, field.characteristic - 1)
    diag = []
    for top in range(size - 1, 2 * nblocks - 1, -1):
        own = range(top % nblocks, top, nblocks)
        below = draw(st.lists(st.sampled_from(own), min_size=1, max_size=4, unique=True))
        diag.append({k: draw(coeff) for k in [top, *below]})
    bridges = []
    for i in range(draw(st.integers(1, 4))):
        met = draw(st.lists(st.integers(0, nblocks - 1), min_size=2, max_size=3, unique=True))
        keys = [draw(st.sampled_from(range(b, size, nblocks))) for b in met]
        if draw(st.booleans()):
            keys.append(size + i)
        bridges.append({k: draw(coeff) for k in keys})
    return field, size, diag, bridges


@DIFF
@given(block_diagonal(), st.sampled_from([1, 2, 4]))
def test_blocks_match_sparse(case, switch_rank):
    """Block-diagonal vectors, then vectors bridging 2 or 3 blocks, some
    through a key the store has no slot for yet.  Throughout, the packed
    echelon has the sparse run's rows, pivots, reductions, membership and
    `pivot_rows()` order, and `dense_rank`'s rank."""
    field, size, diag, bridges = case
    sparse, dense = insert_modes(field, diag, switch_rank)
    assert_slots_bounded(dense)
    insert_both(field, sparse, dense, bridges, diag)
    vecs = diag + bridges
    assert_same_echelon(sparse, dense, probes(field, range(size + 4)) + vecs)


def test_dense_law_span_packs_into_one_store(tmp_path):
    """The dense-law span of the bench's seed-5 draw 0, all its products
    formed, is 360 vectors on 1,680 columns, which the oracle packs into
    one store.  `dense_dim_check` ranks it as a tensor product and packs
    one span, the right factors': one store of 60 rows on 280 keys."""
    made = []
    init = packed.PackedRows.__init__

    def recorded(pk, p, rows):
        made.append(pk)
        init(pk, p, rows)

    jobs = {job.name: job for job in bench_run.workload_jobs("wreath-gfp", tmp_path)}
    bench_run.write_inputs(5, tmp_path)
    spec = jobs["dense_law_0"].dense
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packed.PackedRows, "__init__", recorded)
        reference = reference_dense_dim_check(*load_dense_law(spec), spec["n"])
        assert reference.lhs_dim == 360 and len(made) == 1
        assert (len(made[0].keys), len(made[0].rows)) == (1680, 360)
        made.clear()
        assert dense_dim_check(*load_dense_law(spec), spec["n"]) == reference
    assert len(made) == 1
    assert (len(made[0].keys), len(made[0].rows)) == (280, 60)


def record_switches(monkeypatch):
    """Record the p and the rank of every switch to the packed mode."""
    made = []

    class Recording(packed.PackedRows):
        __slots__ = ()

        def __init__(self, p, rows):
            made.append((p, len(rows)))
            super().__init__(p, rows)

    monkeypatch.setattr(packed, "PackedRows", Recording)
    return made


def load_dense_law(spec):
    """(B, A, gamma) of a bench dense-law job's spec."""
    b_alg = TruncatedAlgebra(wio.load_presentation(spec["B"]), spec["NB"])
    a_alg = TruncatedAlgebra(wio.load_presentation(spec["A"]), spec["NA"])
    gamma = wio.load_gamma(spec["gamma"], BasisIndexing(b_alg), a_alg)
    return b_alg, a_alg, gamma


def test_which_spans_switch(monkeypatch, tmp_path):
    """Rows as dense as the rule asks switch at rank DENSE_MIN_RANK over
    GF(101) and stay sparse over Q and over p = 2^31 - 1.  The build kernels
    of the bench's tri presentation (over its p = 2^31 - 1 and over GF(101),
    about 2 keys a row) and a free closure over GF(101) (one key a row) stay
    sparse.  The bench's span-bound and wgamma runs switch nothing (so they
    never import `packed`); the dense law switches its right factors' span
    once, at rank DENSE_MIN_RANK."""
    made = record_switches(monkeypatch)
    # 64 rows of 17 nonzeros in 80 columns: density 0.21
    rng = random.Random(5)
    rows = [
        {16 + i: 1, **{k: rng.randrange(1, 50) for k in range(16)}}
        for i in range(64)
    ]
    for field in (Q, Field.prime(2**31 - 1), Field.prime(101)):
        e = Echelon(field)
        for row in rows:
            e.insert({k: field.from_int(c) for k, c in row.items()})
        assert e.dim == 64
        assert is_packed(e) == (field.characteristic == 101)
    assert made == [(101, linalg.DENSE_MIN_RANK)]
    made.clear()

    xyz = Alphabet([("x", 1), ("y", 1), ("z", 1)])
    gf101 = Field.prime(101)
    for field in (Field.prime(2**31 - 1), gf101):
        rel = parse_element("x*y - 2*y*x", xyz, field)
        TruncatedAlgebra(Presentation(xyz, field, [rel]), 11)
    free = TruncatedAlgebra(Presentation(xyz, gf101, []), 7)
    assert growth_dims(free, [free.gen(x) for x in "xyz"], 7)[-1][0] == 3279
    assert not made

    jobs = {job.name: job for job in bench_run.workload_jobs("wreath-gfp", tmp_path)}
    bench_run.write_inputs(11, tmp_path)
    for name in ("span_bound_n5", "span_bound_corner_n4", "wgamma_n4"):
        out = run_main(*jobs[name].argv)
        assert out.returncode == 0 and out.stdout
    assert not made

    spec = jobs["dense_law_0"].dense
    assert dense_dim_check(*load_dense_law(spec), spec["n"]).equality
    assert made == [(101, linalg.DENSE_MIN_RANK)]


def echelon_streams(monkeypatch, run):
    """The vectors inserted into each `Echelon` while run() runs, by echelon
    in order of its first insert: (field, [vector, ...]).  The streams are
    keyed by the echelon itself, which keeps it alive: keyed by `id()`, a
    freed echelon's id could pass to the next one and merge two streams."""
    streams = {}
    insert = Echelon.insert

    def recording(self, vec):
        streams.setdefault(self, (self.field, []))[1].append(dict(vec))
        return insert(self, vec)

    with monkeypatch.context() as mp:
        mp.setattr(Echelon, "insert", recording)
        run()
    return list(streams.values())


def test_span_bound_spans_pack_as_they_ran_sparse(monkeypatch, tmp_path):
    """Every echelon of span-bound's route (`span_inclusion_check`) on the
    bench's seed-5 inputs, replayed sparse only and packed from rank 16
    however sparse: the same rows, pivots, reductions and membership.  The
    generated span (rank 235) packs."""
    jobs = {job.name: job for job in bench_run.workload_jobs("wreath-gfp", tmp_path)}
    bench_run.write_inputs(5, tmp_path)
    b_host, a_host, gamma, n, corner = span_bound_job_case(jobs["span_bound_n5"].argv)
    streams = echelon_streams(
        monkeypatch, lambda: span_inclusion_check(b_host, a_host, gamma, n, with_corner=corner)
    )
    packed_ranks = []
    for field, vecs in streams:
        assert field.characteristic == 101
        with sparse_only():
            sparse = Echelon(field)
            for v in vecs:
                sparse.insert(v)
        with dense_from(16):
            dense = Echelon(field)
            for v in vecs:
                dense.insert(v)
        if is_packed(dense):
            packed_ranks.append(dense.dim)
            assert_slots_bounded(dense)
        assert_same_echelon(sparse, dense, vecs)
    assert max(packed_ranks) >= 200
