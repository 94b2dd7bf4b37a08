"""Spans and counters for the traced benchmark passes.

The spans are recorded from the benchmark's own files: `Recorder.install`
wraps the public entry points of each wreathkit module listed in `LAYERS`
(methods on their class, module-level functions at every import site, e.g.
`cli.growth_dims` and `section6.growth_dims`).  Each call becomes a span
(name, start, end, parent); spans stay in memory and are written once, when
the job ends.  A span's self time is its duration minus its child spans.

`FieldOpCounter` counts `Field.add/sub/mul/neg/inv` in a pass of its own, so
that its wrapper cost stays out of every other layer's self time.
`wreathkit.words` is not wrapped: `Word.__hash__`/`__eq__` run tens of
millions of times, and their cost stays inside linalg and quotient.
"""

import functools
import itertools
import json
import sys
import time
from array import array

# metric stem -> entry points, as "module:qualname" inside wreathkit
LAYERS = {
    "linalg.insert": ["linalg:Echelon.insert"],
    "linalg.reduce": ["linalg:Echelon.reduce"],
    "wreath.mul": ["wreath:WreathElement.__mul__"],
    "wreath.rmul_b": ["wreath:SMatrix.rmul_b"],
    "wreath.lmul_b": ["wreath:SMatrix.lmul_b"],
    "wreath.matmul": ["wreath:SMatrix.matmul"],
    "wreath.basis_element": ["wreath:BasisIndexing.basis_element"],
    "wreath.span_add": ["wreath:WreathSpan.add"],
    "quotient.build": ["quotient:TruncatedAlgebra.__init__"],
    "quotient.mul": ["quotient:AlgElement.__mul__"],
    "quotient.subspace_add": ["quotient:Subspace.add"],
    "growth.closure": ["quotient:growth_dims", "growth:power_chain"],
    "growth.weighted_image_spans": ["growth:weighted_image_spans"],
    "growth.span_inclusion_check": ["growth:span_inclusion_check"],
    "growth.dense_dim_check": ["growth:dense_dim_check"],
    "growth.gk_estimate": ["growth:gk_estimate"],
    "growth.faithful": ["growth:FiltrationSchedule.faithful"],
    "growth.witness": ["growth:shift_independence_witness", "growth:density_witness"],
    "section6.layered_presentation": ["section6:build_layered_presentation"],
    "section6.sandwich": ["section6:sandwich_report", "section6:sandwich_check"],
    "gs.check": ["gs:golod_shafarevich_check"],
    "io.load": ["io:load_presentation", "io:load_gamma"],
    "io.write": ["io:write_csv", "io:write_json"],
    "freealg.parse": ["freealg:parse_element", "io:parse_wreath_expression"],
    "cli.main": ["cli:main"],
}

FIELD_OPS = ("add", "sub", "mul", "neg", "inv")

_INSERT = "linalg:Echelon.insert"


def _resolve(target):
    module, _, qualname = target.partition(":")
    owner = sys.modules["wreathkit." + module]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Recorder:
    """In-memory spans of every call into the entry points of `LAYERS`."""

    def __init__(self):
        self.names = [t for targets in LAYERS.values() for t in targets]
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.useful_inserts = 0
        self.rank_max = 0
        self._stack = [-1]  # shared by every wrapper, so spans nest across layers
        self._patches = _Patches()

    def _wrap(self, fn, nid, after=None):
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args[0], result)
            return result

        return traced

    def _after_insert(self, echelon, raised):
        if raised:
            self.useful_inserts += 1
            self.rank_max = max(self.rank_max, echelon.dim)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.startswith("wreathkit")]
        for nid, target in enumerate(self.names):
            owner, attr = _resolve(target)
            fn = owner.__dict__[attr]
            after = self._after_insert if target == _INSERT else None
            wrapped = self._wrap(fn, nid, after)
            if isinstance(owner, type):
                self._patches.set(owner, attr, wrapped)
                continue
            for module in modules:
                for name in [n for n, v in vars(module).items() if v is fn]:
                    self._patches.set(module, name, wrapped)

    def uninstall(self):
        self._patches.undo()

    def summary(self):
        return {"useful_inserts": self.useful_inserts, "rank_max": self.rank_max}

    def write(self, path, job):
        """Header line (JSON, with the job id) followed by the span arrays, raw."""
        with open(path, "wb") as fh:
            header = {"job": job, "names": self.names, "count": len(self.start)}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


def load_spans(path):
    """Inverse of `Recorder.write`: (names, name_of, parent, start, end)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for code in ("H", "q", "q", "q"):
            arr = array(code)
            arr.fromfile(fh, header["count"])
            arrays.append(arr)
    return (header["names"], *arrays)


def self_times(path):
    """{entry point: [calls, self seconds]} for one span file."""
    names, name_of, parent, start, end = load_spans(path)
    dur = [e - s for s, e in zip(start, end)]
    child = [0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    out = {}
    for i, nid in enumerate(name_of):
        entry = out.setdefault(names[nid], [0, 0.0])
        entry[0] += 1
        entry[1] += (dur[i] - child[i]) * 1e-9
    return out


class FieldOpCounter:
    """Counts every raw ground-field operation of the job."""

    def __init__(self):
        self._count = itertools.count()
        self._patches = _Patches()

    def install(self):
        from wreathkit.scalars import Field

        tick = self._count.__next__
        for op in FIELD_OPS:
            fn = Field.__dict__[op]

            def counted(*args, _fn=fn):
                tick()
                return _fn(*args)

            self._patches.set(Field, op, counted)

    def uninstall(self):
        self._patches.undo()

    def summary(self):
        return {"field_ops": next(self._count)}
