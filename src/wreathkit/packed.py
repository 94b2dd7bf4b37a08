"""Packed dense rows over a small prime: the dense mode of `linalg.Echelon`.

The `linalg` docstring describes the packing, the slot-bound invariant and
when an echelon switches.  `linalg` imports this module on the first switch
only: most runs never pack a span, and every CLI run compiles the modules it
imports.
"""

from __future__ import annotations

import sys
from itertools import compress, repeat
from operator import mod

_SLOT_MASK = (1 << 64) - 1
_SLOT_MAX = _SLOT_MASK  # the largest value a slot may reach
_BYTEORDER = sys.byteorder  # memoryview "Q" items are native-endian


class PackedRows:
    """Reduced-echelon rows over GF(p), packed; the dense `Echelon` store.

    `rows[k]` is the row with pivot key k (pivot coefficient 1 mod p, every
    other pivot column 0 mod p), in insertion order, and `bounds[k]` an upper
    bound on its slots.  A key gets a slot the first time a packed vector
    holds it.
    """

    __slots__ = ("p", "slot", "keys", "rows", "bounds")

    def __init__(self, p: int, rows: dict):
        self.p = p
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
        buf = bytearray(8 * len(keys))
        arr = memoryview(buf).cast("Q")
        if scale == 1:
            for k, c in vec.items():
                arr[slot[k]] = c
        else:
            for k, c in vec.items():
                arr[slot[k]] = scale * c % p
        return int.from_bytes(buf, _BYTEORDER)

    def _slots(self, x: int) -> memoryview:
        return memoryview(x.to_bytes(8 * len(self.keys), _BYTEORDER)).cast("Q")

    def unpack(self, x: int) -> dict:
        """The row or residual x as a sparse dict of residues mod p."""
        res = list(map(mod, self._slots(x), repeat(self.p)))
        return dict(compress(zip(self.keys, res), res))

    def renormalize(self, x: int) -> int:
        """x with every slot reduced mod p."""
        return self.pack(self.unpack(x))

    def reduce(self, vec: dict) -> dict:
        """`Echelon.reduce`: one multiply-add per pivot key of vec.

        The rows are reduced-echelon mod p, so the multiple of a row to
        subtract is the input's own coefficient at its pivot: no row changes
        another pivot's coefficient.  The sum is unpacked mod p once.
        """
        p, slot, rows, bounds = self.p, self.slot, self.rows, self.bounds
        buf = bytearray(8 * len(self.keys))
        arr = memoryview(buf).cast("Q")
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
            if bound + m * b > _SLOT_MAX:
                if m * b > _SLOT_MAX >> 1:
                    rows[k] = self.renormalize(rows[k])
                    b = bounds[k] = p - 1
                if bound + m * b > _SLOT_MAX:
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
        p, rows, bounds = self.p, self.rows, self.bounds
        row = self.pack(v, inv)
        shift = 64 * self.slot[pivot]
        for k in greater:
            other = rows[k]
            c = (other >> shift & _SLOT_MASK) % p
            if c:
                m = p - c
                b = bounds[k] + m * (p - 1)
                if b > _SLOT_MAX:
                    other = self.renormalize(other)
                    b = (m + 1) * (p - 1)
                rows[k] = other + m * row
                bounds[k] = b
        rows[pivot] = row
        bounds[pivot] = p - 1
