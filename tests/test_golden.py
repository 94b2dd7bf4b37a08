"""The benchmark's golden reports, reproduced in process.

Every job of `bench/run.py` marked `golden=True` runs through `cli.main` in
list order (a later job may read an earlier job's CSV), emitting into a
temporary directory, and its data rows must equal `bench/golden/<name>.txt`
byte for byte, as the benchmark checks them.  A refactor that changes any
reported dimension, verdict or formatting fails here, without a bench run.
"""

import sys
from pathlib import Path

import pytest

from wreathkit import cli

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
def test_golden_rows(workload, tmp_path, capsys):
    jobs = _golden_jobs(workload, tmp_path)
    assert jobs
    for job in jobs:
        argv = list(job.argv)
        if job.emit:
            argv += ["--emit", str(tmp_path / f"{job.name}.csv")]
        capsys.readouterr()
        code = cli.main(argv)
        stdout = capsys.readouterr().out
        assert code == 0, job.name
        if job.emit:
            _, rows = bench_run._csv_rows((tmp_path / f"{job.name}.csv").read_text())
        else:
            rows = stdout.splitlines()
        golden = (bench_run.GOLDEN / f"{job.name}.txt").read_text()
        assert "\n".join(rows) + "\n" == golden, job.name
