"""Exact linear algebra over ordered keys: sparse, or packed dense over a small p.

This is the one module that sums raw coefficients (residues mod p, or ints
and `Fraction`s over the rationals) of sparse vectors: `combine` forms a
linear combination of vectors, `reduced` is the finish every such sum needs
(reduce mod p once, drop the zeros), and `_eliminate` subtracts a multiple
of one vector from another in place.  Elements of the free and the truncated
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

Over a small prime (p < `DENSE_P_LIMIT` = 2^16) a span can also be dense: the
right factors `growth.dense_dim_check` ranks are 60 rows on 280 keys, 0.6
nonzero: a sparse row operation costs 170 dict updates there.  When the rank
reaches `DENSE_MIN_RANK` = 16, and again at every power of two above, `insert`
checks that the rows average at least `DENSE_MIN_FILL` (8) nonzeros and that
nonzeros * 8 >= their block area: the sum over the blocks of connected support
of the rows of (rows in the block) * (keys in the block), the area the packed
blocks below would hold.  The blocks are found at the check only, by merging
the rows' supports.  Once both hold, the rows become packed ints for good.
Block fills (nonzeros over block area) on the bench's seed-5 inputs: the
dense-law right factors 0.60 at rank 16, one block; span-bound's two large
wreath spans 0.75 and 1.0 at rank 16, and 0.38-0.80 at rank 32-512, where
their fill of rank * every column is 0.004-0.048.  So both switch at rank 16.
The floor on row length keeps one- and two-key rows sparse, though their
blocks are full: free-algebra closures (one key a row) and the build kernels
of `x*y - 2*y*x` over GF(101) (two).  Q and larger p always stay sparse.

In the dense mode (`packed.PackedRows`, imported on the first switch) the
rows fall into blocks of disjoint support, and each block numbers its own
keys: a key gets a column slot in its block the first time an insert sees
it, and a row is one int holding slot i of its block in bits w*i ..
w*i + w - 1, so v += m * row is one big-int multiply-add done in C, as wide
as the block and not as every column seen.  The slot width w is 32 bits
when 4096 multiply-adds of (p - 1)^2 fit in one (p <= 1024; about 4*10^5
for p = 101), else 64.  Slots hold nonnegative ints congruent to the
coefficients mod p; subtracting c * row is adding (p - c) * row.  Each row
keeps an upper bound on its slots, and an operation that could take a slot
past 2^w - 1 first renormalises its operand (unpack mod p, repack).  A step
on renormalised operands leaves a slot at most (p - 1) + (p - 1)^2 < 2^32,
so renormalising always makes room, and a slot first needs it after
thousands of steps.  Rows stay reduced-echelon mod p, so `reduce`
subtracts (input coefficient at a pivot) * (its row) for each pivot key of
the input, no row changing another pivot's coefficient, and unpacks the sum
mod p once per block; a key no block holds passes through.  Back-reduction
reads one slot of each row of the new pivot's block with a greater pivot.

The blocks are the connected components of the supports placed so far, kept
as a union-find with small-to-large merges: the switch places the rows one
by one, and a residual whose support meets several blocks merges them into
the one with most keys first.  A merge gives the moved keys the slots after
the target's, in their order, so each moved row is shifted up, its slot
values and bound unchanged.  This is exact: a block's rows hold only that
block's keys, so the rows of other blocks hold neither a new pivot (nothing
to back-reduce there) nor any key of another block's part of an input (each
block reduces its part alone), and reduced-echelon rows of disjoint blocks
form together a reduced-echelon set.  So the rows, the pivots, the residuals
and the rank are the ones a single store would give.  The 360 dense-law
products emb(b_i) R_a emb(b_k) fall into 6 blocks of 280 keys, one per left
factor: a tensor product, which `dense_dim_check` ranks factor by factor.

Either way the rows live in one dict, pivot key -> row (a sparse dict, or a
packed int), in insertion order, beside the ascending list of pivot keys.
`key in echelon`, `ordered_rows()`, `pivot_rows()` and `is_unit_row` read
them, and return the same values in both modes.

`Span` is a subspace of an algebra's elements kept as one `Echelon` beside
the elements that raised its dimension, and
`closure` grows a span under a step map until it stops changing; every
growth function, power chain and generation check runs through the two.
A filtration is one grown span and its level marks: a `Level` is the span
of a prefix of one shared representative list, and `power_levels`, the one
grower of the powers V, V + V^2, ..., hands them out.

`dense_rank` is a deliberately independent second route (dense rows,
first-column pivoting) used to cross-check ranks.
"""

from __future__ import annotations

from bisect import bisect_right

from .scalars import Field

# The dense GF(p) mode (see the module docstring).
DENSE_MIN_RANK = 16  # checked when the rank reaches 16, 32, 64, ...
DENSE_MIN_FILL = 8  # dense once rows average 8 nonzeros and nonzeros * 8 >= block area
DENSE_P_LIMIT = 1 << 16  # only p below this: (p - 1)^2 < 2^32 per step


def reduced(acc: dict, p: int) -> dict:
    """The finish of a raw sum: residues mod p when p > 0, zeros dropped.

    acc maps keys to unreduced sums (arbitrary ints over GF(p), ints and
    `Fraction`s over the rationals, p == 0); a new dict is returned.
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

    p is the field characteristic: raw residues mod p when p > 0, int and
    `Fraction` values over the rationals when p == 0.  This is the
    elimination step of every `Echelon` operation and of element addition
    (c = -1) and subtraction (c = 1), so it does its own arithmetic instead
    of a `Field` call per term.  c and the row entries are nonzero, so a key
    that v lacks takes -c * val, which is never zero, with no subtraction.
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


def _dense_enough(rows) -> bool:
    """Whether the rows average `DENSE_MIN_FILL` nonzeros and fill at least
    1 / `DENSE_MIN_FILL` of the area their packed blocks would take: the sum
    over the blocks of connected support of rows * columns."""
    nonzeros = sum(map(len, rows))
    if nonzeros < DENSE_MIN_FILL * len(rows):
        return False
    block_of = {}  # key -> its block [row count, keys], merged small into large
    for row in rows:
        met = {id(b): b for b in map(block_of.get, row) if b is not None}
        if met:
            block = max(met.values(), key=lambda b: len(b[1]))
            for other in met.values():
                if other is not block:
                    block[0] += other[0]
                    block[1] += other[1]
                    block_of.update(dict.fromkeys(other[1], block))
        else:
            block = [0, []]
        block[0] += 1
        new = [k for k in row if k not in block_of]
        block[1] += new
        block_of.update(dict.fromkeys(new, block))
    blocks = {id(b): b for b in block_of.values()}.values()
    return nonzeros * DENSE_MIN_FILL >= sum(n * len(keys) for n, keys in blocks)


class Echelon:
    """A reduced-echelon span of sparse vectors; see the module docstring.

    `key in echelon` (whether key is a pivot), `ordered_rows()`,
    `pivot_rows()` and `is_unit_row` are the public view of the rows, the
    same in the sparse and in the dense mode.
    """

    __slots__ = ("field", "_rows", "_order", "_packed")

    def __init__(self, field: Field):
        self.field = field
        # pivot key -> row, in insertion order: a dict key -> raw with pivot
        # coefficient 1, or in the dense mode a packed int (_packed.rows)
        self._rows = {}
        self._order = []  # pivot keys, ascending
        self._packed = None  # the `packed.PackedRows` once the rows are packed

    @property
    def dim(self) -> int:
        return len(self._rows)

    def __contains__(self, key) -> bool:
        """Whether key is the pivot of a row."""
        return key in self._rows

    def reduce(self, vec: dict) -> dict:
        """Residual of vec after eliminating every pivot key.  Input not mutated.

        Over GF(p) the input's ints are taken mod p, so the residual (and
        every row `insert` makes of one) holds residues in [0, p).
        """
        if self._packed is not None:
            return self._packed.reduce(vec)
        p = self.field.characteristic
        if p:
            v = {k: r for k, c in vec.items() if (r := c % p)}
        else:
            v = {k: c for k, c in vec.items() if c}
        rows = self._rows
        hits = [k for k in v if k in rows]
        if not hits:
            return v
        if len(hits) > 1:
            hits.sort(reverse=True)
        # rows hold no other row's pivot, so eliminating one never adds a hit
        for k in hits:
            c = v.get(k)
            if c:
                _eliminate(v, rows[k], c, p)
        return v

    def insert(self, vec: dict) -> bool:
        """Add a vector; returns True when it increased the rank."""
        v = self.reduce(vec)
        if not v:
            return False
        f = self.field
        p = f.characteristic
        pivot = max(v)
        lead = v[pivot]
        order, rows = self._order, self._rows
        # pivots mostly arrive in ascending order: one comparison, no bisection
        if not order or order[-1] < pivot:
            at = len(order)
        else:
            at = bisect_right(order, pivot)
        if self._packed is not None:
            self._packed.append(v, pivot, 1 if lead == 1 else f.inv(lead))
        else:
            if lead == 1:
                row = v  # already normalized: inv * c would be c
            else:
                inv = f.inv(lead)
                if p:
                    row = {k: inv * c % p for k, c in v.items()}
                else:
                    row = {k: inv * c for k, c in v.items()}
            for k in order[at:]:
                other = rows[k]
                c = other.get(pivot)
                if c is not None:
                    _eliminate(other, row, c, p)
            rows[pivot] = row
        order.insert(at, pivot)
        n = len(rows)
        if n >= DENSE_MIN_RANK and not n & (n - 1) and self._packed is None:
            self._maybe_pack()
        return True

    def _maybe_pack(self) -> None:
        """Switch to packed rows if p is small and the rows are dense enough."""
        p = self.field.characteristic
        if not 0 < p < DENSE_P_LIMIT:
            return
        if not _dense_enough(self._rows.values()):
            return
        from . import packed  # compiled only by the runs that pack a span

        self._packed = packed.PackedRows(p, self._rows)
        self._rows = self._packed.rows

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def ordered_rows(self) -> tuple:
        """(pivot key, row) for every row, in ascending pivot order; read the
        rows, never mutate them."""
        row = self._rows.__getitem__ if self._packed is None else self._packed.row
        return tuple(zip(self._order, map(row, self._order)))

    def pivot_rows(self):
        """(pivot key, row) for every row, in insertion order, each row read once."""
        if self._packed is None:
            return self._rows.items()
        return zip(self._rows, map(self._packed.row, self._rows))

    def is_unit_row(self, key) -> bool:
        """Whether the row with pivot `key` is {key: 1}, so that every
        multiple of key reduces to zero."""
        row = self._rows.get(key)
        if row is None:
            return False
        return len(row if self._packed is None else self._packed.row(key)) == 1


class Span:
    """An exact span of an algebra's elements, in reduced echelon form.

    Subclasses name the owner accessor and give `_coords(e)`, the sparse
    coordinates of an element of the owner (raising ValueError for an element
    of another algebra).  The representatives are the elements that raised the
    dimension, in insertion order.  `exact` is False once a spanning element
    (or a product feeding it) was truncated: the dimension is then a lower
    bound only.  A vanished product (no coordinates) counts for `exact` only.
    """

    __slots__ = ("owner", "_ech", "_reps", "exact")

    def __init__(self, owner, elements=()):
        self.owner = owner
        self._ech = Echelon(owner.field)
        self._reps = []  # the elements that raised the dimension
        self.exact = True
        for e in elements:
            self.add(e)

    @property
    def dim(self) -> int:
        return self._ech.dim

    def add(self, e) -> bool:
        coords = self._coords(e)
        if e.flag:
            self.exact = False
        if not coords or not self._ech.insert(coords):
            return False
        self._reps.append(e)
        return True

    def extend(self, elements):
        for e in elements:
            self.add(e)
        return self

    def representatives(self):
        return list(self._reps)

    def level(self, exact=True) -> "Level":
        """The span as it stands, as a level; exact=False makes it inexact."""
        return Level(self.dim, self.exact and exact, self._reps)

    def contains(self, e) -> bool:
        return self._ech.contains(self._coords(e))

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


class Record:
    """A result record.  Its fields are the subclass's `__slots__`, in order,
    and `_defaults` gives the trailing ones that may be left out.  The
    fields are passed by position or by name; `==` compares records of one
    class field by field, and the repr shows every field by name."""

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):  # every field by position skips the dicts
            given = dict(zip(names, args))
            values = {**self._defaults, **given, **kwargs}
            if len(args) > len(names) or given.keys() & kwargs.keys() or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__}() takes each field of {names} once")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A record that refuses assignment once built, hashed by its fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._fields())


class Level(FrozenRecord):
    """A level of a filtration grown in one span: the span of the first `dim`
    of the span's representatives, with the span's bit at that point.  All
    levels of a filtration read the span's one list, `reps`; none copies it,
    and the repr leaves it out.  A level equals only itself."""

    __slots__ = ("dim", "exact", "reps")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __repr__(self):
        return f"Level(dim={self.dim}, exact={self.exact})"

    def representatives(self):
        return self.reps[: self.dim]


def power_levels(span: Span, n: int):
    """Levels 1..n of the powers of span's representatives, grown in span.

    Level r spans the products of at most r of them.  Round r of `closure`
    multiplies the elements new in round r - 1 by those generators, all that
    V^{r+1} = V^r + V^r V adds to V^r, and ends a level; once a round adds
    nothing, the last level repeats.
    """
    if n < 1:
        raise ValueError(f"the factor count must be at least 1, not {n}")
    gens = span.representatives()
    history = closure(span, lambda e: [e * g for g in gens], n - 1)
    history += history[-1:] * (n - len(history))
    return [Level(d, exact, span._reps) for d, exact in history]


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
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = f.inv(rows[rank][col])
        rows[rank] = [f.mul(inv, c) for c in rows[rank]]
        for r in range(len(rows)):
            if r == rank or not rows[r][col]:
                continue
            c = rows[r][col]
            rows[r] = [f.sub(a, f.mul(c, b)) for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank
