"""Packed dense rows over a small prime: the dense mode of `linalg.Echelon`.

`PackedRows` keeps the rows in blocks of disjoint support, each `Block`
with its own column slots.  `reduce` routes each key of its input to the
key's block, `append` back-reduces within the new pivot's block, and a
residual that meets several blocks merges them, the smaller into the
larger, shifting the rows it moves.  Slots are 32 bits wide when
`_MIN_STEPS` = 4096 multiply-adds of (p - 1)^2 fit in one (`slot_bits`), so
a multiply-add over GF(101) moves half the bits it would in 64-bit slots:
0.7 us instead of 2.4 us for a 280-slot block (min of 7, one CPU of a
2-vCPU VM, Python 3.11).  The `linalg` docstring describes the packing, the
slot-bound invariant, when an echelon switches, and why the blocks give the
rows a single store would.  `linalg` imports this module on the first
switch only: most runs never pack a span, and every CLI run compiles the
modules it imports.
"""

from __future__ import annotations

import sys
from bisect import bisect_right, insort
from itertools import compress, repeat
from operator import mod

_MIN_STEPS = 1 << 12  # 32-bit slots when this many steps of (p - 1)^2 fit in one
_SLOT_MAX = {32: (1 << 32) - 1, 64: (1 << 64) - 1}  # the largest value a slot may reach
_FORMAT = {32: "I", 64: "Q"}  # the memoryview item of a slot width
_BYTEORDER = sys.byteorder  # memoryview items are native-endian


def slot_bits(p: int) -> int:
    """The slot width for residues mod p: 32 bits when `_MIN_STEPS`
    multiply-adds of (p - 1)^2 fit in one (p <= 1024), else 64."""
    return 32 if _MIN_STEPS * (p - 1) ** 2 < 1 << 32 else 64


class Block:
    """The column slots of one block of rows: `slot[k]` is key k's slot,
    `keys` the keys in slot order, `pivots` the block's pivot keys, ascending.
    A row of the block is an int holding slot i in bits `bits` * i and up."""

    __slots__ = ("p", "bits", "slot", "keys", "pivots")

    def __init__(self, p: int, bits: int):
        self.p = p
        self.bits = bits
        self.slot = {}  # key -> slot index
        self.keys = []  # slot index -> key
        self.pivots = []

    def pack(self, vec: dict, scale: int = 1) -> int:
        """scale * vec mod p (vec of residues, every key with a slot) packed."""
        p, slot = self.p, self.slot
        buf = bytearray(self.bits // 8 * len(self.keys))
        arr = memoryview(buf).cast(_FORMAT[self.bits])
        if scale == 1:
            for k, c in vec.items():
                arr[slot[k]] = c
        else:
            for k, c in vec.items():
                arr[slot[k]] = scale * c % p
        return int.from_bytes(buf, _BYTEORDER)

    def _slots(self, x: int) -> memoryview:
        size = self.bits // 8 * len(self.keys)
        return memoryview(x.to_bytes(size, _BYTEORDER)).cast(_FORMAT[self.bits])

    def unpack(self, x: int) -> dict:
        """The row or residual x as a sparse dict of residues mod p."""
        res = list(map(mod, self._slots(x), repeat(self.p)))
        return dict(compress(zip(self.keys, res), res))

    def renormalize(self, x: int) -> int:
        """x with every slot reduced mod p."""
        return self.pack(self.unpack(x))


class PackedRows:
    """Reduced-echelon rows over GF(p), packed in blocks of disjoint support;
    the dense `Echelon` store.

    `rows[k]` is the row with pivot key k (pivot coefficient 1 mod p, every
    other pivot column 0 mod p), packed in the slots of its block
    `block_of[k]`, in insertion order, and `bounds[k]` an upper bound on its
    slots, at most `slot_max`.  Slots are `bits` = `slot_bits(p)` wide.
    `block_of` maps every key that a placed row or residual held to its
    block (a key keeps its slot when back-reduction clears it), and a row
    holds only keys of its own block.
    """

    __slots__ = ("p", "bits", "slot_max", "block_of", "rows", "bounds")

    def __init__(self, p: int, rows: dict):
        self.p = p
        self.bits = slot_bits(p)
        self.slot_max = _SLOT_MAX[self.bits]
        self.block_of = {}
        self.rows = {}
        self.bounds = {}
        for k, row in rows.items():
            block = self._place(row)
            self.rows[k] = block.pack(row)
            self.bounds[k] = p - 1
            insort(block.pivots, k)

    def _place(self, vec: dict) -> Block:
        """The block for a row with vec's keys: the blocks vec meets merged
        into the one with most keys (or a new block), with a slot for each of
        vec's keys that no block holds."""
        where = self.block_of
        met = dict.fromkeys(map(where.get, vec))
        met.pop(None, None)
        if met:
            block = max(met, key=lambda b: len(b.keys))
            for other in met:
                if other is not block:
                    self._merge(block, other)
        else:
            block = Block(self.p, self.bits)
        slot, keys = block.slot, block.keys
        for k in vec:
            if k not in slot:
                slot[k] = len(keys)
                keys.append(k)
                where[k] = block
        return block

    def _merge(self, block: Block, other: Block) -> None:
        """Move other's keys to slots after block's, in their order, so each
        of other's rows moves up by the same number of slots: a shift, which
        keeps its slot values and so its bound."""
        where, rows = self.block_of, self.rows
        offset = len(block.keys)
        for i, k in enumerate(other.keys, offset):
            block.slot[k] = i
            where[k] = block
        block.keys += other.keys
        shift = self.bits * offset
        for k in other.pivots:
            rows[k] <<= shift
        block.pivots = sorted(block.pivots + other.pivots)

    def row(self, key) -> dict:
        """The row with pivot key, unpacked."""
        return self.block_of[key].unpack(self.rows[key])

    def reduce(self, vec: dict) -> dict:
        """`Echelon.reduce`: one multiply-add per pivot key of vec, in the
        block of that key, and a key that no block holds passes through.

        The rows are reduced-echelon mod p, so the multiple of a row to
        subtract is the input's own coefficient at its pivot: no row changes
        another pivot's coefficient.  Each block's sum is unpacked mod p once.
        """
        p, where, rows, bounds = self.p, self.block_of, self.rows, self.bounds
        size, item, slot_max = self.bits // 8, _FORMAT[self.bits], self.slot_max
        parts, out = {}, {}
        block = None
        for k, c in vec.items():
            c %= p
            if not c:
                continue
            owner = where.get(k)
            if owner is None:
                out[k] = c  # a key without a slot: no row holds it
                continue
            if owner is not block:  # keys of one block mostly come together
                block, slot = owner, owner.slot
                part = parts.get(block)
                if part is None:
                    buf = bytearray(size * len(block.keys))
                    part = parts[block] = (buf, memoryview(buf).cast(item), [])
                _, arr, hits = part
            arr[slot[k]] = c
            if k in rows:
                hits.append((p - c, k))
        for block, (buf, _, hits) in parts.items():
            acc = int.from_bytes(buf, _BYTEORDER)
            bound = p - 1
            for m, k in hits:
                b = bounds[k]
                if bound + m * b > slot_max:
                    if m * b > slot_max >> 1:
                        rows[k] = block.renormalize(rows[k])
                        b = bounds[k] = p - 1
                    if bound + m * b > slot_max:
                        acc = block.renormalize(acc)
                        bound = p - 1
                acc += m * rows[k]
                bound += m * b
            out.update(block.unpack(acc))
        return out

    def append(self, v: dict, pivot, inv: int) -> None:
        """Add the row inv * v (v a residual, v[pivot] * inv = 1 mod p) to the
        block of its keys and clear its pivot column from that block's rows
        with a greater pivot: one slot read each, and a multiply-add where
        nonzero.  Rows of other blocks do not hold the pivot key."""
        p, rows, bounds, slot_max = self.p, self.rows, self.bounds, self.slot_max
        block = self._place(v)
        row = block.pack(v, inv)
        shift = self.bits * block.slot[pivot]
        mask = (1 << self.bits) - 1
        pivots = block.pivots
        at = bisect_right(pivots, pivot)
        for k in pivots[at:]:
            other = rows[k]
            c = (other >> shift & mask) % p
            if c:
                m = p - c
                b = bounds[k] + m * (p - 1)
                if b > slot_max:
                    other = block.renormalize(other)
                    b = (m + 1) * (p - 1)
                rows[k] = other + m * row
                bounds[k] = b
        pivots.insert(at, pivot)
        rows[pivot] = row
        bounds[pivot] = p - 1
