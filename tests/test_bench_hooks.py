"""The benchmark's tracer must still find every entry point it wraps.

`bench/tracing.py` patches methods through each class's own `__dict__` and
module-level functions at every import site.  A refactor that removes or
renames one of them (say `Subspace.add`, now inherited from `linalg.Span`)
breaks the traced benchmark run without failing any other test.
"""

import json
import sys
from pathlib import Path

import pytest

import wreathkit.cli  # noqa: F401  (imports every module the tracer resolves)
from wreathkit import Field, Subspace, WreathSpan, quotient
from wreathkit.linalg import Span

from helpers import make_algebra, run_main

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


def test_wreath_gfp_jobs_pass_their_checks(tmp_path):
    """The wreath-gfp workload has no golden rows, and `bench/child.py`
    imports kernel names of its own (`growth._scale_row`, `power_chain`,
    `weighted_image_spans`, `wreath.wreath_coords`).  One seed's inputs,
    one dense-law draw with its numpy rank oracle, and the span-bound,
    wgamma, nil-check and wreath-eval jobs pass the checks the benchmark
    applies."""
    sys.path.insert(0, str(BENCH))
    try:
        import child
        import run as bench_run
    finally:
        sys.path.remove(str(BENCH))
    bench_run.write_inputs(5, tmp_path)
    jobs = {job.name: job for job in bench_run.workload_jobs("wreath-gfp", tmp_path)}

    dense = jobs["dense_law_0"]
    objects, rep = child._dense_job(dense.dense)
    report = {"lhs_dim": rep.lhs_dim, "product_bound": rep.product_bound,
              "leq": rep.leq, "exact": rep.exact}
    assert dense.check(([], [json.dumps(report)]), {}) == []
    assert child._dense_oracle(objects, dense.dense["n"]) == rep.lhs_dim

    outputs = {}
    for name in ("span_bound_n5", "span_bound_corner_n4", "wgamma_n4", "nil_check", "wreath_eval"):
        job = jobs[name]
        argv = list(job.argv)
        if job.emit:
            argv += ["--emit", str(tmp_path / f"{name}.csv")]
        out = run_main(*argv)
        assert out.returncode == 0, name
        if job.emit:
            outputs[name] = bench_run._csv_rows((tmp_path / f"{name}.csv").read_text())
        else:
            outputs[name] = ([], out.stdout.splitlines())
    for name, out in outputs.items():
        assert jobs[name].check(out, outputs) == [], name
