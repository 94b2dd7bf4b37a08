"""Packed dense rows over a small prime: the dense mode of `linalg.Echelon`.

`PackedRows` keeps one slot map for all its rows: a key gets a column slot
the first time a packed vector holds it.  Slots are 32 bits wide when
`_MIN_STEPS` = 4096 multiply-adds of (p - 1)^2 fit in one (`slot_bits`), so
a multiply-add over GF(101) moves half the bits it would in 64-bit slots:
0.7 us instead of 2.4 us for a 280-slot row (min of 7, one CPU of a 2-vCPU
VM, Python 3.11).  The `linalg` docstring describes the packing, the
slot-bound invariant and when an echelon switches.  `linalg` imports this
module on the first switch only: most runs never pack a span, and every CLI
run compiles the modules it imports.
"""

from __future__ import annotations

import sys
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


class PackedRows:
    """Reduced-echelon rows over GF(p), packed; the dense `Echelon` store.

    `rows[k]` is the row with pivot key k (pivot coefficient 1 mod p, every
    other pivot column 0 mod p), in insertion order: an int holding slot i
    in bits `bits` * i and up, `slot[key]` being key's slot and `keys` the
    keys in slot order.  `bounds[k]` is an upper bound on the row's slots,
    at most `slot_max`, and slots are `bits` = `slot_bits(p)` wide.
    """

    __slots__ = ("p", "bits", "slot_max", "slot", "keys", "rows", "bounds")

    def __init__(self, p: int, rows: dict):
        self.p = p
        self.bits = slot_bits(p)
        self.slot_max = _SLOT_MAX[self.bits]
        self.slot = {}  # key -> slot index
        self.keys = []  # slot index -> key
        self.rows = {k: self.pack(row) for k, row in rows.items()}
        self.bounds = dict.fromkeys(self.rows, p - 1)

    def pack(self, vec: dict, scale: int = 1) -> int:
        """scale * vec mod p (vec of residues) packed; unseen keys get slots."""
        p, slot, keys = self.p, self.slot, self.keys
        for k in vec:
            if k not in slot:
                slot[k] = len(keys)
                keys.append(k)
        buf = bytearray(self.bits // 8 * len(keys))
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

    def row(self, key) -> dict:
        """The row with pivot key, unpacked."""
        return self.unpack(self.rows[key])

    def reduce(self, vec: dict) -> dict:
        """`Echelon.reduce`: one multiply-add per pivot key of vec, and a key
        without a slot passes through.

        The rows are reduced-echelon mod p, so the multiple of a row to
        subtract is the input's own coefficient at its pivot: no row changes
        another pivot's coefficient.  The sum is unpacked mod p once.
        """
        p, slot, rows, bounds, slot_max = self.p, self.slot, self.rows, self.bounds, self.slot_max
        buf = bytearray(self.bits // 8 * len(self.keys))
        arr = memoryview(buf).cast(_FORMAT[self.bits])
        rest, hits = {}, []
        for k, c in vec.items():
            c %= p
            if not c:
                continue
            s = slot.get(k)
            if s is None:
                rest[k] = c  # a key without a slot: no row holds it
                continue
            arr[s] = c
            if k in rows:
                hits.append((p - c, k))
        acc = int.from_bytes(buf, _BYTEORDER)
        bound = p - 1
        for m, k in hits:
            b = bounds[k]
            if bound + m * b > slot_max:
                if m * b > slot_max >> 1:
                    rows[k] = self.renormalize(rows[k])
                    b = bounds[k] = p - 1
                if bound + m * b > slot_max:
                    acc = self.renormalize(acc)
                    bound = p - 1
            acc += m * rows[k]
            bound += m * b
        out = self.unpack(acc)
        out.update(rest)
        return out

    def append(self, v: dict, pivot, inv: int, greater) -> None:
        """Add the row inv * v (v a residual, v[pivot] * inv = 1 mod p) and
        clear its pivot column from the rows whose pivots `greater` lists (the
        pivots above this one): one slot read each, and a multiply-add where
        nonzero."""
        p, rows, bounds, slot_max = self.p, self.rows, self.bounds, self.slot_max
        row = self.pack(v, inv)
        shift = self.bits * self.slot[pivot]
        mask = (1 << self.bits) - 1
        for k in greater:
            other = rows[k]
            c = (other >> shift & mask) % p
            if c:
                m = p - c
                b = bounds[k] + m * (p - 1)
                if b > slot_max:
                    other = self.renormalize(other)
                    b = (m + 1) * (p - 1)
                rows[k] = other + m * row
                bounds[k] = b
        rows[pivot] = row
        bounds[pivot] = p - 1
