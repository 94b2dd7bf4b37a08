"""The benchmark's golden reports, reproduced in process.

Every job of `bench/run.py` marked `golden=True` runs through `run_main` in
list order (a later job may read an earlier job's CSV), emitting into a
temporary directory, and its data rows must equal `bench/golden/<name>.txt`
byte for byte, as the benchmark checks them.  A refactor that changes any
reported dimension, verdict or formatting fails here, without a bench run.
"""

import sys
from pathlib import Path

import pytest

from helpers import run_main

BENCH = Path(__file__).resolve().parents[1] / "bench"

sys.path.insert(0, str(BENCH))
try:
    import run as bench_run
finally:
    sys.path.remove(str(BENCH))


def _golden_jobs(workload, work):
    return [job for job in bench_run.workload_jobs(workload, work) if job.golden]


@pytest.mark.parametrize(
    "workload", [w for w in bench_run.WORKLOADS if _golden_jobs(w, Path("."))]
)
def test_golden_rows(workload, tmp_path):
    jobs = _golden_jobs(workload, tmp_path)
    assert jobs
    for job in jobs:
        argv = list(job.argv)
        if job.emit:
            argv += ["--emit", str(tmp_path / f"{job.name}.csv")]
        out = run_main(*argv)
        assert out.returncode == 0, job.name
        if job.emit:
            _, rows = bench_run._csv_rows((tmp_path / f"{job.name}.csv").read_text())
        else:
            rows = out.stdout.splitlines()
        golden = (bench_run.GOLDEN / f"{job.name}.txt").read_text()
        assert "\n".join(rows) + "\n" == golden, job.name
