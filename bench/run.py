"""wreathkit benchmark: fixed batch jobs per workload, checked and timed.

    python3 bench/run.py --workload growth-closure --seed 1 --seconds 35 --trace 0

Run from the repository root.  Each job runs in a fresh child interpreter
(bench/child.py), one at a time (a closed loop with one client), the way a
user runs the one-shot CLI.  The inputs are the presentation files in
bench/inputs/ plus gamma maps drawn from --seed; the program only ever sees
the generated files.  Every output is checked off the clock; a wrong exit
code or output counts as a failed job.

--trace 0 repeats the job list (at least once) while the next pass is
expected to end within half a pass of --seconds, and reports per workload:

  wall_s       sum over jobs of the median in-child job time (from the call
               into wreathkit.cli.main, or the API entry, to its return)
  max_job_s    the largest of those medians
  setup_s      median over all jobs of child spawn to `import wreathkit` done
  peak_rss_mb  largest ru_maxrss of the job children

The times are rescaled to a reference machine speed.  This process and its
children are pinned to one CPU, a fixed pure-Python workload (`calibrate`)
runs a few times between consecutive jobs, and each job's times are
multiplied by CAL_REF_S over the mean calibration time just before and just
after it.  The unscaled times and the median speed factor are kept in the
result record.

--trace 1 runs the job list three times, whatever --seconds says: untraced,
with spans around every layer's entry points (bench/tracing.py), and
counting field operations.  It reports the per-layer calls and self times
(rescaled like the end-to-end times), and trace.overhead_ratio, the traced
over the untraced wall_s.

The last stdout line is the JSON result; a fuller record (git sha, Python
version, CPU count, per-job times) goes to bench/results/.  Compare two such
records with bench/compare.py.
"""

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
INPUTS = BENCH / "inputs"
GOLDEN = BENCH / "golden"
RESULTS = BENCH / "results"

RUN_LIMIT_S = 165  # a run must end within 180 s: jobs still running then fail

END_TO_END_UNITS = {"wall_s": "s", "max_job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, source); a source is a tracing.LAYERS stem with
# ".calls" or ".s", or a counter a child reports.
PER_LAYER = {
    "linalg.insert_calls": ("count", "linalg.insert.calls"),
    "linalg.insert_s": ("s", "linalg.insert.s"),
    "linalg.reduce_calls": ("count", "linalg.reduce.calls"),
    "linalg.reduce_s": ("s", "linalg.reduce.s"),
    "linalg.insert_useful_ratio": ("ratio", "useful_ratio"),
    "linalg.rank_max": ("count", "rank_max"),
    "wreath.mul_calls": ("count", "wreath.mul.calls"),
    "wreath.mul_s": ("s", "wreath.mul.s"),
    "wreath.rmul_b_calls": ("count", "wreath.rmul_b.calls"),
    "wreath.rmul_b_s": ("s", "wreath.rmul_b.s"),
    "wreath.lmul_b_s": ("s", "wreath.lmul_b.s"),
    "wreath.matmul_s": ("s", "wreath.matmul.s"),
    "wreath.basis_element_calls": ("count", "wreath.basis_element.calls"),
    "wreath.basis_element_s": ("s", "wreath.basis_element.s"),
    "wreath.span_add_s": ("s", "wreath.span_add.s"),
    "quotient.build_calls": ("count", "quotient.build.calls"),
    "quotient.build_s": ("s", "quotient.build.s"),
    "quotient.mul_calls": ("count", "quotient.mul.calls"),
    "quotient.mul_s": ("s", "quotient.mul.s"),
    "quotient.subspace_add_s": ("s", "quotient.subspace_add.s"),
    "growth.closure_s": ("s", "growth.closure.s"),
    "growth.weighted_image_spans_s": ("s", "growth.weighted_image_spans.s"),
    "growth.span_inclusion_check_s": ("s", "growth.span_inclusion_check.s"),
    "growth.dense_dim_check_s": ("s", "growth.dense_dim_check.s"),
    "growth.gk_estimate_s": ("s", "growth.gk_estimate.s"),
    "growth.faithful_s": ("s", "growth.faithful.s"),
    "growth.witness_s": ("s", "growth.witness.s"),
    "section6.layered_presentation_s": ("s", "section6.layered_presentation.s"),
    "section6.sandwich_s": ("s", "section6.sandwich.s"),
    "gs.check_s": ("s", "gs.check.s"),
    "io.load_s": ("s", "io.load.s"),
    "io.write_s": ("s", "io.write.s"),
    "freealg.parse_s": ("s", "freealg.parse.s"),
    "cli.main_s": ("s", "cli.main.s"),
    "scalars.field_ops": ("count", "field_ops"),
    "trace.overhead_ratio": ("ratio", "overhead_ratio"),
}


class BenchError(Exception):
    """The benchmark cannot run here (e.g. the program's sources are missing)."""


# -- inputs ---------------------------------------------------------------------

A_WORDS = [w for d in range(0, 4) for w in product("stu", repeat=d)]  # A's basis below degree 4


def _term(coeff, letters):
    return str(coeff) if not letters else f"{coeff}*{'*'.join(letters)}"


def _gamma_text(rng, b_min_degree, with_unit, stride):
    """A gamma map on every host word in x, y of degree b_min_degree..3.

    The value of the h-th host word has the A-words a (below degree 4; the
    unit only when with_unit) with (a + h) % stride == 0, each with a nonzero
    coefficient drawn from rng.  Only the coefficients depend on the seed, so
    every seed asks for the same amount of work.
    """
    lines = []
    words = [w for d in range(b_min_degree, 4) for w in product("xy", repeat=d)]
    a_words = A_WORDS if with_unit else A_WORDS[1:]
    for h, w in enumerate(words):
        terms = [
            _term(rng.randrange(1, 101), letters)
            for a, letters in enumerate(a_words)
            if (a + h) % stride == 0
        ]
        lhs = "*".join(w) if w else "1"
        lines.append(f"map {lhs} -> {' + '.join(terms)}")
    return "\n".join(lines) + "\n"


def write_inputs(seed, work):
    """The seeded inputs: one gamma for the wreath commands, three dense-law draws.

    The wreath gamma maps the non-unit words of degree <= 3 into the
    augmentation ideal of A, so every wreath expression built on it is
    nilpotent; a third of A's words enter each value, which keeps the n=5
    span-bound job near 2 s at this commit.  The dense-law draws follow the
    acceptance test: every basis word of B at N=3 maps to a fully dense
    element of A with a unit term.
    """
    rng = random.Random(seed)
    (work / "gamma.map").write_text(_gamma_text(rng, 1, with_unit=False, stride=3))
    for k in range(3):
        (work / f"dense{k}.map").write_text(_gamma_text(rng, 0, with_unit=True, stride=1))


# -- jobs and their checks ------------------------------------------------------


@dataclass
class Job:
    name: str
    argv: list = field(default_factory=list)  # CLI argv; empty for the API job
    emit: bool = False  # the CLI writes a CSV report (else: stdout is the output)
    golden: bool = False  # data rows are compared with bench/golden/<name>.txt
    check: object = None  # check(rows, outputs) -> list of problems
    dense: dict = None  # the dense_dim_check API call, when set


def _csv_rows(text):
    """(columns, data rows) of a report; `#` header lines are skipped."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), lines[1:]


def _records(columns, rows):
    return [dict(zip(columns, r.split(","))) for r in rows]


def _cumulative(graded):
    """n -> sum of graded(d) for d = 1..n."""
    return lambda n: sum(graded(d) for d in range(1, n + 1))


def _fib(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def _comm_count(n):
    return (n * n + 3 * n) // 2


def check_dims(formula, n_col="n", top=None):
    """Each row's `dim` equals formula(n), it is exact, and n runs 1..top."""

    def check(out, _outputs):
        recs = _records(*out)
        problems = []
        if top is not None and [int(r[n_col]) for r in recs] != list(range(1, top + 1)):
            problems.append(f"rows cover {[r[n_col] for r in recs]}, not 1..{top}")
        for r in recs:
            n = int(r[n_col])
            if int(r["dim"]) != formula(n) or r["exact"] != "True":
                problems.append(f"{n_col}={n}: dim {r['dim']} exact {r['exact']}, want {formula(n)}")
        return problems

    return check


def check_same_rows_as(other):
    def check(out, outputs):
        return [] if out == outputs.get(other) else [f"rows differ from {other}"]

    return check


def check_all_true(*cols):
    def check(out, _outputs):
        recs = _records(*out)
        problems = [] if recs else ["no data rows"]
        for r in recs:
            bad = [c for c in cols if r.get(c) != "True"]
            if bad:
                problems.append(f"row {r}: {bad} not True")
        return problems

    return check


def check_span_bound(out, outputs):
    problems = check_all_true("included", "bound_ok")(out, outputs)
    for r in _records(*out):
        if int(r["dim"]) > int(r["bound"]):
            problems.append(f"n={r['n']}: dim {r['dim']} above bound {r['bound']}")
    return problems


def check_wgamma(out, outputs):
    problems = check_all_true("exact")(out, outputs)
    w = [int(r["w"]) for r in _records(*out)]
    if w != sorted(w):
        problems.append(f"w(n) not monotone: {w}")
    return problems


def check_gk(out, _outputs):
    recs = _records(*out)
    if len(recs) != 1:
        return [f"{len(recs)} rows, want 1"]
    r = recs[0]
    if not Fraction(r["slope_lo"]) <= Fraction(r["slope_hi"]):
        return ["slope_lo above slope_hi"]
    return []


def check_sandwich(out, outputs):
    problems = []
    for r in _records(*out):
        n = int(r["n"])
        if int(r["f"]) != _comm_count(n):
            problems.append(f"n={n}: f={r['f']}, want {_comm_count(n)}")
        if r["note"] == "" and (r["lower_ok"] != "True" or r["upper_ok"] != "True"):
            problems.append(f"k={r['k']} n={n}: sandwich fails")
        if r["exact"] != "True":
            problems.append(f"k={r['k']} n={n}: inexact")
    return problems


def check_nil(out, _outputs):
    lines = out[1]
    head, _, index = lines[0].partition(", index ") if lines else ("", "", "")
    if head != "nilpotent" or not index.isdigit() or not 1 <= int(index) <= 4:
        return [f"want nilpotent of index <= 4 (entries lie in A's augmentation ideal), got {lines}"]
    return []


def check_wreath_eval(out, _outputs):
    lines = out[1]
    if not lines or lines[0] != "b-part: x^2*y":
        return [f"b-part line {lines[:1]}, want 'b-part: x^2*y'"]
    if not any(ln.startswith("s-part (") for ln in lines) or any(ln.startswith("flag") for ln in lines):
        return ["s-part missing or flagged"]
    return []


def check_dense(out, _outputs):
    """The dense law's inequality; run_job compares the rank with the oracle."""
    rep = json.loads(out[1][0])
    if not (rep["exact"] and rep["leq"] and rep["lhs_dim"] <= rep["product_bound"]):
        return [f"dense law violated: {rep}"]
    return []


def _inp(name):
    return str(INPUTS / name)


def workload_jobs(name, work):
    """The fixed job list of a workload; paths point at inputs and `work`."""
    gamma = ["--gamma", str(work / "gamma.map")]
    hosts = ["--B", _inp("host_gf101.pres"), "--A", _inp("coeff_gf101.pres"), "--NB", "5", "--NA", "4"]
    if name == "growth-closure":
        return [
            Job("growth_free_N12", ["growth", "-p", _inp("free2.pres"), "-N", "12"], emit=True,
                golden=True, check=check_dims(_cumulative(lambda d: 2**d), top=12)),
            Job("growth_xyx_N12", ["growth", "-p", _inp("xyx.pres"), "-N", "12"], emit=True,
                golden=True, check=check_dims(_cumulative(lambda d: _fib(d + 3) - 1), top=12)),
            Job("growth_comm_N40", ["growth", "-p", _inp("comm2.pres"), "-N", "40"], emit=True,
                golden=True, check=check_dims(_comm_count, top=40)),
            Job("gk_comm", ["gk", "--table", str(work / "growth_comm_N40.csv"), "--window", "10:40"],
                emit=True, golden=True, check=check_gk),
            Job("shift_witness_free", ["shift-witness", "--B", _inp("free2.pres"), "--NB", "6",
                                       "--blist", "x;y", "--s", "3"],
                emit=True, golden=True, check=check_all_true("found", "verified")),
        ]
    if name == "wreath-gfp":
        jobs = [
            Job("span_bound_n5", ["span-bound", *hosts, *gamma, "-n", "5"], emit=True,
                check=check_span_bound),
            Job("span_bound_corner_n4", ["span-bound", *hosts, *gamma, "-n", "4", "--corner"],
                emit=True, check=check_span_bound),
            Job("wgamma_n4", ["wgamma", *hosts, *gamma, "-n", "4"], emit=True, check=check_wgamma),
            Job("nil_check", ["nil-check", *hosts, *gamma, "--expr", "x*c_gamma + e(1,2,s*t)",
                              "--max-power", "20"], check=check_nil),
            Job("wreath_eval", ["wreath-eval", *hosts, *gamma,
                                "--expr", "(x + c_gamma)^2*y - e(1,1,s + 2*t*u)"],
                check=check_wreath_eval),
        ]
        for k in range(3):
            dense = {"B": _inp("host_gf101.pres"), "NB": 3, "A": _inp("coeff_gf101.pres"), "NA": 4,
                     "gamma": str(work / f"dense{k}.map"), "n": 2}
            jobs.append(Job(f"dense_law_{k}", dense=dense, check=check_dense))
        return jobs
    if name == "build-certify":
        tri_dims = check_dims(lambda d: 2 ** (d + 1) - 1, n_col="degree", top=11)
        # J commutative: f(n) is the commutative count and the sandwich holds.
        # With the free J the kmax=4, N=10 layered build runs for minutes.
        comm_j = ["--J", _inp("comm2.pres")]
        return [
            Job("build_tri_q_N11", ["build", "-p", _inp("tri_q.pres"), "-N", "11"], emit=True,
                golden=True, check=tri_dims),
            Job("build_tri_p_N11", ["build", "-p", _inp("tri_p.pres"), "-N", "11"], emit=True,
                golden=True, check=check_same_rows_as("build_tri_q_N11")),
            Job("sandwich_k4_N10", ["sandwich", "--kmax", "4", "--schedule", "2,4,6,8", *comm_j,
                                    "-N", "10"], emit=True, golden=True, check=check_sandwich),
            Job("sandwich_k3_N8", ["sandwich", "--kmax", "3", "--schedule", "2,4,6,2000,100000",
                                   *comm_j, "-N", "8"], emit=True, golden=True, check=check_sandwich),
            Job("gs_m2", ["gs-check", "-m", "2", "--census", "2:1"], golden=True),
            Job("gs_m3", ["gs-check", "-m", "3", "--census", "2:1,3:4,5:7", "--bound", "12"],
                golden=True),
        ]
    raise BenchError(f"unknown workload {name!r}")


WORKLOADS = ("growth-closure", "wreath-gfp", "build-certify")


# -- machine-speed calibration ---------------------------------------------------

# Other tenants of the machine slow its CPUs in bursts of a fraction of a
# second, and how often they do drifts over seconds to minutes: the same job
# took from 1.9 s to 3.6 s in runs a few minutes apart, far more than a run
# can average out.  A fixed pure-Python workload sampled right before and
# after a job measures the slowdown it met, and its times are rescaled by it.
# On five runs of wreath-gfp this cut the spread (quartile distance over
# median) of wall_s from 0.46 unscaled, and 0.23 with one factor per run, to
# 0.14.

CAL_REF_S = 0.034  # `calibrate` on an idle CPU of a 2-vCPU 2.1 GHz VM, Python 3.11
CAL_SAMPLES = 6  # calibrations between two jobs


def _cal_rows():
    rng = random.Random(7)
    return [{rng.randrange(700): rng.randrange(1, 101) for _ in range(30)} for _ in range(400)]


_CAL_ROWS = _cal_rows()


def calibrate():
    """Seconds for a fixed sparse row reduction mod 101, dict-based like linalg."""
    start = time.perf_counter()
    pivots = {}
    for row in _CAL_ROWS:
        v = dict(row)
        for k in sorted(v, reverse=True):
            if k in pivots and k in v:
                c = v[k]
                for kk, pv in pivots[k].items():
                    s = (v.get(kk, 0) - c * pv) % 101
                    if s:
                        v[kk] = s
                    else:
                        v.pop(kk, None)
        if v:
            top = max(v)
            inv = pow(v[top], 99, 101)
            pivots[top] = {k: c * inv % 101 for k, c in v.items()}
    return time.perf_counter() - start


# -- running jobs ---------------------------------------------------------------


@dataclass
class JobRun:
    job: str
    ok: bool
    problems: list
    job_s: float = 0.0
    setup_s: float = 0.0
    maxrss_kb: int = 0
    record: dict = None
    output: tuple = None
    speed: float = 1.0  # CAL_REF_S over the mean calibration just before and after


def _spans_path(work, job_name):
    return work / f"{job_name}.spans.bin"


def run_job(job, index, work, trace, deadline, oracle=False):
    """Spawn the child for one job, wait for it, and read back its output."""
    stem = work / f"{job.name}.{trace}"
    spec = {
        "job": index,
        "kind": "dense" if job.dense else "cli",
        "trace": trace,
        "stdout": str(stem) + ".out",
        "record": str(stem) + ".record.json",
        "spans": str(_spans_path(work, job.name)),
        "oracle": oracle,
    }
    if job.dense:
        spec.update(job.dense)
    else:
        spec["argv"] = list(job.argv)
        if job.emit:
            spec["argv"] += ["--emit", str(work / f"{job.name}.csv")]
    spec_path = Path(str(stem) + ".spec.json")
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    with open(str(stem) + ".err", "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(spec_path)],
            cwd=str(work), env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return JobRun(job.name, False, [f"still running {RUN_LIMIT_S}s into the run"])
    if proc.returncode != 0 or not os.path.exists(spec["record"]):
        tail = Path(str(stem) + ".err").read_text()[-400:]
        return JobRun(job.name, False, [f"child exited {proc.returncode}: {tail}"])
    record = json.loads(Path(spec["record"]).read_text())
    if job.emit:
        output = _csv_rows(Path(work / f"{job.name}.csv").read_text())
    else:
        output = ([], Path(spec["stdout"]).read_text().splitlines())
    # every job's instance is exact and its verdict definite: exit status 0
    problems = [] if record["code"] == 0 else [f"exit {record['code']}, want 0"]
    if "oracle_rank" in record:
        lhs_dim = json.loads(output[1][0])["lhs_dim"]
        if record["oracle_rank"] != lhs_dim:
            problems.append(f"rank {lhs_dim}, numpy elimination gives {record['oracle_rank']}")
    return JobRun(
        job.name, not problems, problems, record["job_s"], record["ready"] - spawned,
        record["maxrss_kb"], record, output,
    )


def _golden_path(job):
    return GOLDEN / f"{job.name}.txt"


def check_round(jobs, runs, reference):
    """Check one pass over the job list, in place.

    `reference` holds the outputs of the first pass of this run (the data
    rows of every later pass, traced ones included, must match it).
    """
    outputs = {r.job: r.output for r in runs}
    for job, run in zip(jobs, runs):
        if run.output is None:
            continue
        if job.check is not None:
            try:
                run.problems += job.check(run.output, outputs)
            except (ValueError, KeyError, IndexError) as exc:
                run.problems.append(f"unreadable output: {exc!r}")
        if job.golden:
            rows = "\n".join(run.output[1]) + "\n"
            if _golden_path(job).read_text() != rows:
                run.problems.append("data rows differ from the golden rows")
        if reference.setdefault(job.name, run.output) != run.output:
            run.problems.append("data rows differ from this run's first pass")
        run.ok = not run.problems


def run_pass(jobs, work, trace, reference, deadline, first=False):
    # the numpy rank oracle is checked on the first dense-law draw of a run,
    # as the acceptance test checks it on a sample of its draws
    gaps = [[calibrate() for _ in range(CAL_SAMPLES)]]
    runs = []
    for i, job in enumerate(jobs):
        oracle = first and job.name == "dense_law_0"
        runs.append(run_job(job, i, work, trace, deadline, oracle))
        gaps.append([calibrate() for _ in range(CAL_SAMPLES)])
    for r, before, after in zip(runs, gaps, gaps[1:]):
        r.speed = CAL_REF_S / statistics.fmean(before + after)
    check_round(jobs, runs, reference)
    return runs


# -- metrics --------------------------------------------------------------------


def end_to_end(rounds, scaled=True):
    """Metrics over repeated passes: per-job medians, then sum and max.

    Each job's times are rescaled by its own speed factor unless `scaled` is
    false.
    """
    ok = [r for runs in rounds for r in runs if r.ok]
    if not ok:
        raise BenchError("no job completed")
    per_job = {}
    for r in ok:
        per_job.setdefault(r.job, []).append(r.job_s * (r.speed if scaled else 1.0))
    medians = {j: statistics.median(ts) for j, ts in per_job.items()}
    metrics = {
        "wall_s": sum(medians.values()),
        "max_job_s": max(medians.values()),
        "setup_s": statistics.median(r.setup_s * (r.speed if scaled else 1.0) for r in ok),
        "peak_rss_mb": max(r.maxrss_kb for r in ok) / 1024,
    }
    return metrics, {j: {"median_s": medians[j], "samples_s": per_job[j]} for j in medians}


def per_layer(span_runs, count_runs, overhead_ratio, work):
    sources = {"overhead_ratio": overhead_ratio, "field_ops": 0, "rank_max": 0}
    useful = 0
    stem_of = {t: stem for stem, targets in tracing.LAYERS.items() for t in targets}
    for stem in tracing.LAYERS:
        sources[stem + ".calls"] = 0
        sources[stem + ".s"] = 0.0
    for r in span_runs:
        if r.record is None:
            continue
        useful += r.record["useful_inserts"]
        sources["rank_max"] = max(sources["rank_max"], r.record["rank_max"])
        for target, (calls, self_s) in tracing.self_times(_spans_path(work, r.job)).items():
            sources[stem_of[target] + ".calls"] += calls
            sources[stem_of[target] + ".s"] += self_s * r.speed
    for r in count_runs:
        if r.record is not None:
            sources["field_ops"] += r.record["field_ops"]
    inserts = sources["linalg.insert.calls"]
    sources["useful_ratio"] = useful / inserts if inserts else 0.0
    return {name: sources[src] for name, (_, src) in PER_LAYER.items()}


# -- entry point -----------------------------------------------------------------


def git_sha():
    """HEAD's sha read from .git without running git; 'unknown' outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(args, work):
    deadline = time.monotonic() + RUN_LIMIT_S
    jobs = workload_jobs(args.workload, work)
    write_inputs(args.seed, work)
    reference = {}
    if args.trace:
        plain = run_pass(jobs, work, "off", reference, deadline, first=True)
        spans = run_pass(jobs, work, "spans", reference, deadline)
        counts = run_pass(jobs, work, "count", reference, deadline)
        base = end_to_end([plain])[0]["wall_s"]
        traced = end_to_end([spans])[0]["wall_s"]
        metrics = per_layer(spans, counts, traced / base, work)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        passes, job_times, unscaled = [plain, spans, counts], {}, {}
        keep = RESULTS / f"{args.workload}-seed{args.seed}-spans"
        shutil.rmtree(keep, ignore_errors=True)
        keep.mkdir(parents=True)
        for r in spans:
            if _spans_path(work, r.job).exists():
                shutil.copy(_spans_path(work, r.job), keep / f"{r.job}.spans.bin")
    else:
        passes, measured = [], 0.0
        while True:
            start = time.monotonic()
            passes.append(run_pass(jobs, work, "off", reference, deadline, first=not passes))
            # the first pass also runs the dense-law oracle, which is not measured
            oracle_s = sum((r.record or {}).get("oracle_s", 0.0) for r in passes[-1])
            took = time.monotonic() - start - oracle_s
            measured += took
            # another pass while it is expected to end within half a pass of --seconds
            if measured + took / 2 > args.seconds:
                break
        metrics, job_times = end_to_end(passes)
        unscaled = end_to_end(passes, scaled=False)[0]
        units = END_TO_END_UNITS
    runs = [r for p in passes for r in p]
    failed = [r for r in runs if not r.ok]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(passes),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "failed_ratio": len(failed) / len(runs),
        "failures": [{"job": r.job, "problems": r.problems} for r in failed],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "unscaled": unscaled,
        "speed": statistics.median(r.speed for r in runs),
        "jobs": job_times,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wreathkit" / "__init__.py").is_file():
        print(f"error: no wreathkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    # one CPU for this process and (inherited) every child: calibration and jobs
    # then see the same slowdowns.  The highest-numbered one, since CPU 0 usually
    # takes the device interrupts and kernel workers: in alternating runs on a
    # 2-vCPU VM, the rescaled times of the same two jobs varied by 6-8% on CPU 1
    # and by 10-15% on CPU 0.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        result = run(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    for f in result["failures"]:
        print(f"FAILED {f['job']}: {'; '.join(f['problems'])}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {result['attempted']} jobs "
          f"in {result['passes']} passes, failed_ratio={result['failed_ratio']:.3f}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"  machine speed {result['speed']:.3f} x reference; unscaled:",
          ", ".join(f"{k}={v:.6g}" for k, v in result["unscaled"].items()))
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
