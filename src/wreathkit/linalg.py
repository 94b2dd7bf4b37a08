"""Exact sparse linear algebra over ordered coordinate keys.

This is the one module that sums raw coefficients (residues mod p, or
`Fraction`s over the rationals) of sparse vectors: `combine` forms a linear
combination of vectors, `reduced` is the finish every such sum needs (reduce
mod p once, drop the zeros), and `_eliminate` subtracts a multiple of one
vector from another in place.  Elements of the free and the truncated
algebras, host actions and matrices add through them.

`Echelon` keeps a reduced-echelon collection of sparse vectors.  Keys can be
any totally ordered hashables (words, packed wreath coordinates, ...); the
pivot of a row is its greatest key, and rows are fully inter-reduced so no row
contains another row's pivot.  That makes reduction a single pass and
dimensions, membership, and pivot bookkeeping deterministic.

A row holds no key above its own pivot: the pivot is the row's greatest key
when it is inserted, and back-reduction by a later row only brings in keys at
or below that row's pivot.  So a new pivot can occur only in rows whose pivot
is greater, and `insert` visits just those, found by bisecting the ascending
list of pivot keys.  In the sparse regime (pivots arriving in increasing
order, as in degree-by-degree span closure) no row is visited at all.

`Span` is a subspace of an algebra's elements kept as one `Echelon`, and
`closure` grows a span under a step map until it stops changing; every
growth function, power chain and generation check runs through the two.

`dense_rank` is a deliberately independent second route (dense rows,
first-column pivoting) used to cross-check ranks.
"""

from __future__ import annotations

from bisect import bisect_right

from .scalars import Field


def reduced(acc: dict, p: int) -> dict:
    """The finish of a raw sum: residues mod p when p > 0, zeros dropped.

    acc maps keys to unreduced sums (arbitrary ints over GF(p), `Fraction`s
    over the rationals, p == 0); a new dict is returned.
    """
    if p:
        return {key: r for key, x in acc.items() if (r := x % p)}
    return {key: x for key, x in acc.items() if x}


def combine(parts, p: int) -> dict:
    """sum of c * vec over the (c, vec) in parts, with no zero values kept.

    c and the vector values are raw values for characteristic p.  A single
    part with c == 1 is returned as it is, without a copy: read the result,
    never mutate it.
    """
    if len(parts) == 1 and parts[0][0] == 1:
        return parts[0][1]
    out = {}
    get = out.get
    for c, vec in parts:
        for key, val in vec.items():
            x = get(key)
            out[key] = c * val if x is None else x + c * val
    return reduced(out, p)


def _eliminate(v: dict, row: dict, c, p: int) -> None:
    """v -= c * row in place, dropping the keys that cancel.

    p is the field characteristic: raw residues mod p when p > 0, `Fraction`
    values over the rationals when p == 0.  This is the elimination step of
    every `Echelon` operation and of element addition (c = -1) and
    subtraction (c = 1), so it does its own arithmetic instead of a `Field`
    call per term.  c and the row entries are nonzero, so a key that v lacks
    takes -c * val, which is never zero, with no subtraction.
    """
    get = v.get
    if p:
        m = p - c
        for key, val in row.items():
            x = get(key)
            if x is None:
                v[key] = m * val % p
            else:
                s = (x + m * val) % p
                if s:
                    v[key] = s
                else:
                    del v[key]
    else:
        m = -c
        for key, val in row.items():
            x = get(key)
            if x is None:
                v[key] = m * val
            else:
                s = x + m * val
                if s:
                    v[key] = s
                else:
                    del v[key]


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
        """Residual of vec after eliminating every pivot key.  Input not mutated.

        Over GF(p) the input's ints are taken mod p, so the residual (and
        every row `insert` makes of one) holds residues in [0, p).
        """
        p = self.field.characteristic
        if p:
            v = {k: r for k, c in vec.items() if (r := c % p)}
        else:
            v = {k: c for k, c in vec.items() if c}
        pivots, rows = self.pivots, self.rows
        # rows hold no other row's pivot, so eliminating one never adds a hit
        for k in sorted((k for k in v if k in pivots), reverse=True):
            c = v.get(k)
            if c:
                _eliminate(v, rows[pivots[k]], c, p)
        return v

    def insert(self, vec: dict, payload=None) -> bool:
        """Add a vector; returns True when it increased the rank."""
        v = self.reduce(vec)
        if not v:
            return False
        f = self.field
        p = f.characteristic
        pivot = max(v)
        lead = v[pivot]
        if lead == 1:
            row = v  # already normalized: inv * c would be c
        else:
            inv = f.inv(lead)
            if p:
                row = {k: inv * c % p for k, c in v.items()}
            else:
                row = {k: inv * c for k, c in v.items()}
        order, ordered_rows = self._order, self._ordered_rows
        # pivots mostly arrive in ascending order: one comparison, no bisection
        if not order or order[-1] < pivot:
            at = len(order)
        else:
            at = bisect_right(order, pivot)
        for other in ordered_rows[at:]:
            c = other.get(pivot)
            if c is not None:
                _eliminate(other, row, c, p)
        self.pivots[pivot] = len(self.rows)
        self.rows.append(row)
        order.insert(at, pivot)
        ordered_rows.insert(at, row)
        self.reps.append(payload)
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def ordered_rows(self) -> tuple:
        """The rows in ascending pivot order; read them, never mutate them."""
        return tuple(self._ordered_rows)

    def pivot_keys(self):
        return set(self.pivots)


class Span:
    """An exact span of an algebra's elements, in reduced echelon form.

    Subclasses name the owner accessor and give `_coords(e)`, the sparse
    coordinates of an element of the owner (raising ValueError for an element
    of another algebra).  The representatives are the elements that raised the
    dimension, in insertion order.  `exact` is False once a spanning element
    (or a product feeding it) was truncated: the dimension is then a lower
    bound only.
    """

    __slots__ = ("owner", "_ech", "exact")

    def __init__(self, owner, elements=()):
        self.owner = owner
        self._ech = Echelon(owner.field)
        self.exact = True
        for e in elements:
            self.add(e)

    def _check_span(self, other: "Span"):
        if other.owner is not self.owner:
            raise ValueError("spans of different algebras")

    @property
    def dim(self) -> int:
        return self._ech.dim

    def add(self, e) -> bool:
        coords = self._coords(e)
        if e.flag:
            self.exact = False
        return self._ech.insert(coords, payload=e)

    def extend(self, elements):
        for e in elements:
            self.add(e)
        return self

    def representatives(self):
        return list(self._ech.reps)

    def contains(self, e) -> bool:
        return self._ech.contains(self._coords(e))

    def contains_subspace(self, other: "Span") -> bool:
        self._check_span(other)
        return all(self.contains(e) for e in other.representatives())

    def sum(self, other: "Span") -> "Span":
        self._check_span(other)
        out = type(self)(self.owner, self.representatives())
        out.extend(other.representatives())
        out.exact = out.exact and self.exact and other.exact
        return out

    def product_span(self, other: "Span") -> "Span":
        """span{s*t : s, t spanning elements} of the two spans."""
        self._check_span(other)
        out = type(self)(self.owner)
        for s in self.representatives():
            for t in other.representatives():
                out.add(s * t)
        out.exact = out.exact and self.exact and other.exact
        return out

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, exact={self.exact})"


def closure(span: Span, step, rounds=None):
    """Grow `span` in rounds until it stops changing.

    Round one adds step(e) for every representative e; each later round adds
    step(e) for every e that entered the span in the round before, in the
    order they entered.  step(e) is called just before its candidates are
    added, so it sees the span as it stands then.  Stops after a round that
    adds nothing, or after `rounds` rounds.  Returns [(dim, exact)] before the
    first round and after each one.
    """
    history = [(span.dim, span.exact)]
    frontier = span.representatives()
    while frontier and (rounds is None or len(history) <= rounds):
        new = []
        for e in frontier:
            for c in step(e):
                if span.add(c):
                    new.append(c)
        frontier = new
        history.append((span.dim, span.exact))
    return history


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
