"""The benchmark's tracer must still find every entry point it wraps.

`bench/tracing.py` patches methods through each class's own `__dict__` and
module-level functions at every import site.  A refactor that removes or
renames one of them (say `Subspace.add`, now inherited from `linalg.Span`)
breaks the traced benchmark run without failing any other test.
"""

import sys
from pathlib import Path

import pytest

import wreathkit.cli  # noqa: F401  (imports every module the tracer resolves)
from wreathkit import Field, Subspace, WreathSpan, quotient
from wreathkit.linalg import Span

from helpers import make_algebra

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing as module
    finally:
        sys.path.remove(str(BENCH))
    return module


def test_recorder_installs_and_uninstalls(tracing):
    span_classes = {"Subspace": Subspace, "WreathSpan": WreathSpan}
    before = {name: dict(vars(cls)) for name, cls in span_classes.items()}
    growth_dims = quotient.growth_dims
    rec = tracing.Recorder()
    rec.install()
    try:
        # each span class is wrapped on its own, and the shared method is not
        assert Subspace.__dict__["add"] is not WreathSpan.__dict__["add"]
        assert Span.__dict__["add"] is before["Subspace"]["add"]
        alg = make_algebra(Field.rationals(), ["x", "y"], [], n=3)
        quotient.growth_dims(alg, [alg.gen("x"), alg.gen("y")], 3)
    finally:
        rec.uninstall()
    calls = [rec.names[i] for i in rec.name_of]
    assert calls.count("quotient:growth_dims") == 1
    assert calls.count("quotient:Subspace.add") == 2 + 4 + 8
    assert "wreath:WreathSpan.add" not in calls
    assert "linalg:Echelon.insert" in calls
    assert quotient.growth_dims is growth_dims
    for name, cls in span_classes.items():
        assert dict(vars(cls)) == before[name]


def test_field_op_counter_installs_and_uninstalls(tracing):
    ops = {op: Field.__dict__[op] for op in tracing.FIELD_OPS}
    counter = tracing.FieldOpCounter()
    counter.install()
    try:
        f = Field.prime(7)
        f.mul(f.add(3, 4), 5)
    finally:
        counter.uninstall()
    assert counter.summary()["field_ops"] == 2
    assert {op: Field.__dict__[op] for op in tracing.FIELD_OPS} == ops
