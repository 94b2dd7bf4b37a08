"""Exact sparse linear algebra over ordered coordinate keys.

`Echelon` keeps a reduced-echelon collection of sparse vectors.  Keys can be
any totally ordered hashables (words, matrix-entry tags, ...); the pivot of a
row is its greatest key, and rows are fully inter-reduced so no row contains
another row's pivot.  That makes reduction a single pass and dimensions,
membership, and pivot bookkeeping deterministic.

A row holds no key above its own pivot: the pivot is the row's greatest key
when it is inserted, and back-reduction by a later row only brings in keys at
or below that row's pivot.  So a new pivot can occur only in rows whose pivot
is greater, and `insert` visits just those, found by bisecting the ascending
list of pivot keys.  In the sparse regime (pivots arriving in increasing
order, as in degree-by-degree span closure) no row is visited at all.

`dense_rank` is a deliberately independent second route (dense rows,
first-column pivoting) used to cross-check ranks.
"""

from __future__ import annotations

from bisect import bisect_right

from .scalars import Field


class Echelon:
    __slots__ = ("field", "rows", "pivots", "reps", "_order", "_ordered_rows")

    def __init__(self, field: Field):
        self.field = field
        self.rows = []  # list[dict key -> raw], pivot coefficient normalized to 1
        self.pivots = {}  # key -> row index
        self.reps = []  # payloads of the inserts that increased rank
        self._order = []  # pivot keys, ascending
        self._ordered_rows = []  # the rows, in the same order as _order

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Residual of vec after eliminating every pivot key.  Input not mutated."""
        f = self.field
        v = {k: c for k, c in vec.items() if not f.is_zero(c)}
        hits = sorted((k for k in v if k in self.pivots), reverse=True)
        for k in hits:
            c = v.get(k)
            if c is None or f.is_zero(c):
                continue
            row = self.rows[self.pivots[k]]
            for key, val in row.items():
                s = f.sub(v.get(key, f.zero), f.mul(c, val))
                if f.is_zero(s):
                    v.pop(key, None)
                else:
                    v[key] = s
        return v

    def insert(self, vec: dict, payload=None) -> bool:
        """Add a vector; returns True when it increased the rank."""
        f = self.field
        v = self.reduce(vec)
        if not v:
            return False
        pivot = max(v)
        inv = f.inv(v[pivot])
        row = {k: f.mul(inv, c) for k, c in v.items()}
        order, ordered_rows = self._order, self._ordered_rows
        at = bisect_right(order, pivot)
        for other in ordered_rows[at:]:
            c = other.get(pivot)
            if c is None:
                continue
            for key, val in row.items():
                s = f.sub(other.get(key, f.zero), f.mul(c, val))
                if f.is_zero(s):
                    other.pop(key, None)
                else:
                    other[key] = s
        self.pivots[pivot] = len(self.rows)
        self.rows.append(row)
        order.insert(at, pivot)
        ordered_rows.insert(at, row)
        self.reps.append(payload)
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def pivot_keys(self):
        return set(self.pivots)


def dense_rank(vectors, field: Field) -> int:
    """Rank of a list of sparse vectors, by dense elimination.

    Pivots on the first nonzero column in ascending key order — intentionally
    a different strategy from `Echelon` so the two can check each other.
    """
    keys = sorted({k for v in vectors for k in v})
    pos = {k: i for i, k in enumerate(keys)}
    f = field
    rows = []
    for v in vectors:
        row = [f.zero] * len(keys)
        for k, c in v.items():
            row[pos[k]] = c
        rows.append(row)
    rank = 0
    for col in range(len(keys)):
        pivot_row = None
        for r in range(rank, len(rows)):
            if not f.is_zero(rows[r][col]):
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = f.inv(rows[rank][col])
        rows[rank] = [f.mul(inv, c) for c in rows[rank]]
        for r in range(len(rows)):
            if r == rank or f.is_zero(rows[r][col]):
                continue
            c = rows[r][col]
            rows[r] = [f.sub(a, f.mul(c, b)) for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank
