"""Differential tests: the left action read from the pair cache against
direct multiplication.

`BasisIndexing.product_column` sums the host's word-pair products w*t over
the words w of b and t of b_j at each call; `product_row` and `escapes` read
the one table an indexing keeps, the rows of L(w) for each host basis word w
with their escape bit, built from the same reads.  `SMatrix.lmul_b`/`rmul_b`
and `WreathElement.apply` read those.  The references in helpers.py multiply
by every basis element instead.  Entries and every flag must agree, on the
call that fills a row table and on later calls that only read it.
"""

import random

import pytest

from wreathkit import (
    AlgElement,
    BasisIndexing,
    Field,
    SMatrix,
    WreathAlgebra,
)

from helpers import (
    assert_raw,
    killed_above,
    make_algebra,
    random_element,
    reference_apply,
    reference_left_mult_matrix,
    reference_lmul_b,
    reference_product,
    reference_rmul_b,
)

FIELDS = [Field.prime(2), Field.prime(101), Field.rationals()]

# name -> host builder; "free" hosts let b*b_j escape the truncation,
# "killed" hosts certify every product beyond N as an exact zero
HOSTS = {
    "free": lambda f: make_algebra(f, ["x", "y"], [], n=3),
    "killed": lambda f: killed_above(f, ["x", "y"], 3),
    "free-unital": lambda f: make_algebra(f, ["x", "y"], [], n=2, unital=True),
    "comm-unital": lambda f: make_algebra(f, ["x", "y"], ["x*y - y*x"], n=3, unital=True),
    "killed-unital": lambda f: killed_above(f, ["x", "y"], 3, unital=True),
}

CASES = [
    (field, host, unipotent)
    for field in FIELDS
    for host in HOSTS
    for unipotent in (False, True)
    if host.endswith("unital") or not unipotent
]


def _flagged(e):
    return AlgElement(e.host, dict(e.terms), True)


def _host_elements(b_host, rng):
    """Host elements to act by: generators, sums with a unit part, a flagged
    element and zero."""
    out = [b_host.gen("x"), b_host.gen("y"), b_host.zero()]
    for _ in range(4):
        out.append(random_element(b_host, rng, unit=True))
    out.append(_flagged(random_element(b_host, rng, max_degree=2)))
    return out


def _matrices(wa, rng):
    """Matrices with entries in every row and column, column 1 included,
    some with a flagged entry."""
    idx, n = wa.indexing, len(wa.indexing)
    out = []
    for k in range(5):
        entries = {}
        for _ in range(1 + k):
            a = random_element(wa.a_host, rng)
            if a:
                entries[(rng.randint(1, n), rng.randint(1, n))] = a
        out.append(SMatrix(idx, wa.a_host, entries))
    a = wa.a_host.gen("s")
    out.append(SMatrix(idx, wa.a_host, {(1, 1): a, (n, 1): a}))
    out.append(SMatrix(idx, wa.a_host, {(2, 1): _flagged(a), (n, 2): a}))
    return out


def _same_left_action(idx, b):
    """Every column, row and flag of L(b) as the tables give it, against
    L(b) multiplied out by `reference_product`."""
    entries, flag = reference_left_mult_matrix(b, idx)
    n = len(idx)
    for j in range(1, n + 1):
        coords, escaped = idx.product_column(b, j)
        ref, ref_flag = reference_product(b, idx, j)
        assert coords == ref == {i: c for (i, jj), c in entries.items() if jj == j}
        assert (escaped or b.flag) == ref_flag
        for c in coords.values():
            assert_raw(b.host.field, c)
    for k in range(1, n + 1):
        assert idx.product_row(b, k) == {j: c for (i, j), c in entries.items() if i == k}
    assert (idx.escapes(b) or b.flag) == flag


def _same_smatrix(got, ref):
    assert got == ref
    assert got.flag == ref.flag
    for cell in got.entries.values():
        assert cell
        for c in cell.values():
            assert_raw(got.a_host.field, c)


@pytest.mark.parametrize(
    "field,host,unipotent",
    CASES,
    ids=[f"{f!r}-{h}-{'unipotent' if u else 'plain'}" for f, h, u in CASES],
)
def test_tables_match_direct_multiplication(field, host, unipotent):
    rng = random.Random(f"{field!r}-{host}-{unipotent}")
    b_host = HOSTS[host](field)
    a_host = make_algebra(field, ["s", "t"], [], n=2)
    idx = BasisIndexing(b_host, unipotent=unipotent)
    wa = WreathAlgebra(b_host, a_host, idx)
    elements = _host_elements(b_host, rng)
    matrices = _matrices(wa, rng)
    n = len(idx)
    # columns are summed from the pair cache at each call, never tabulated
    for b in elements:
        for j in range(1, n + 1):
            idx.product_column(b, j)
        for s in matrices:
            s.lmul_b(b)
        if not (b_host.unital and 1 in b.terms):
            for j in range(1, n + 1):
                wa.element(b=b, s=matrices[0]).apply(j)
    assert not idx._rows
    for _ in ("fill", "hit"):
        for b in elements:
            _same_left_action(idx, b)
            for s in matrices:
                _same_smatrix(s.lmul_b(b), reference_lmul_b(s, b))
                _same_smatrix(s.rmul_b(b), reference_rmul_b(s, b))
            if b_host.unital and 1 in b.terms:
                continue  # a wreath b-part has no unit component
            for s in matrices[:3]:
                e = wa.element(b=b, s=s)
                for j in range(1, n + 1):
                    assert e.apply(j) == reference_apply(e, j)
    assert set(idx._rows) <= set(range(1, n + 1))
    if not unipotent:  # a one-word b's column is the pair-cache entry itself
        degree, unit = b_host._degree, b_host._unit
        for w in range(1, n + 1):
            b = AlgElement(b_host, {w: field.one})
            for j in range(1, n + 1):
                if unit not in (w, j) and degree[w] + degree[j] <= b_host.truncation_degree:
                    assert idx.product_column(b, j)[0] is b_host._pair_cache[w][j]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_column_one_loss_under_unipotent_indexing(field):
    """S L(b) mixes the unit coordinate into every column under a unipotent
    indexing, so a truncated b*b_j flags a matrix with entries in column 1 --
    and only such a matrix."""
    b_host = HOSTS["free-unital"](field)
    a_host = make_algebra(field, ["s", "t"], [], n=2)
    x = b_host.gen("x")
    for unipotent in (False, True):
        idx = BasisIndexing(b_host, unipotent=unipotent)
        a = a_host.gen("s")
        col1 = SMatrix(idx, a_host, {(1, 1): a})
        col2 = SMatrix(idx, a_host, {(1, 2): a})
        for _ in range(2):
            assert col1.rmul_b(x).flag is unipotent
            assert reference_rmul_b(col1, x).flag is unipotent
            assert not col2.rmul_b(x).flag and not reference_rmul_b(col2, x).flag
        assert idx.escapes(x) and idx._row_table(next(iter(x.terms)))[1]


def test_killed_host_never_escapes():
    b_host = HOSTS["killed-unital"](Field.prime(101))
    idx = BasisIndexing(b_host, unipotent=True)
    for w in range(1, len(idx) + 1):
        assert not idx._row_table(w)[1]
    x = b_host.gen("x")
    assert not idx.escapes(x) and not reference_left_mult_matrix(x, idx)[1]
