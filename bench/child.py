"""Run one benchmark job in a fresh interpreter, the way a user runs the CLI.

Usage: python3 bench/child.py SPEC.json

SPEC names the job (a CLI argv, or the `dense` API call), where its stdout
goes, where to write the timing record, and the trace mode:

- "off": no instrumentation;
- "spans": wrap each layer's public entry points (see tracing.py) and write the
  spans to SPEC["spans"] when the job ends;
- "count": count the ground-field operations only.

The timing record holds `ready` (CLOCK_MONOTONIC once `import wreathkit` is
done, compared with the parent's spawn time), `job_s` (the call into
`wreathkit.cli.main` or the API entry, to its return), the exit code and the
peak RSS of this process at the end of the job.
"""

import json
import resource
import sys
import time

from wreathkit import cli

READY = time.monotonic()  # set-up ends once the package is imported


def _dense_job(spec):
    """The dense dimension law through the public API; returns its report."""
    from wreathkit import BasisIndexing, TruncatedAlgebra, dense_dim_check
    from wreathkit import io as wio

    b_alg = TruncatedAlgebra(wio.load_presentation(spec["B"]), spec["NB"])
    a_alg = TruncatedAlgebra(wio.load_presentation(spec["A"]), spec["NA"])
    gamma = wio.load_gamma(spec["gamma"], BasisIndexing(b_alg), a_alg)
    rep = dense_dim_check(b_alg, a_alg, gamma, spec["n"])
    return (b_alg, a_alg, gamma), rep


def _rank_mod_p(vectors, p):
    """Rank of sparse vectors by dense numpy elimination mod p (p < 2**31)."""
    import numpy as np

    keys = sorted({k for v in vectors for k in v})
    pos = {k: i for i, k in enumerate(keys)}
    mat = np.zeros((len(vectors), len(keys)), dtype=np.int64)
    for r, v in enumerate(vectors):
        for k, c in v.items():
            mat[r, pos[k]] = int(c) % p
    rank = 0
    for col in range(mat.shape[1]):
        nz = np.nonzero(mat[rank:, col])[0]
        if nz.size == 0:
            continue
        pivot = rank + int(nz[0])
        mat[[rank, pivot]] = mat[[pivot, rank]]
        mat[rank] = (mat[rank] * pow(int(mat[rank, col]), p - 2, p)) % p
        rows = rank + 1 + np.nonzero(mat[rank + 1 :, col])[0]
        if rows.size:
            # entries stay below p < 2**31, so each product fits in an int64
            mat[rows] = (mat[rows] - (mat[rows, col, None] * mat[rank]) % p) % p
        rank += 1
        if rank == mat.shape[0]:
            break
    return rank


def _dense_oracle(objects, n):
    """Rebuild the spanning set dense_dim_check ranks, and rank it with numpy."""
    from wreathkit import WreathAlgebra, degree_one_generators
    from wreathkit.growth import _scale_row, power_chain, weighted_image_spans
    from wreathkit.wreath import wreath_coords

    b_alg, a_alg, gamma = objects
    wa = WreathAlgebra(b_alg, a_alg, indexing=gamma.indexing)
    chain = power_chain(b_alg, degree_one_generators(b_alg), n)
    ws = weighted_image_spans(gamma, chain, a_alg, n)
    vn = chain[n - 1].representatives()
    vectors = []
    for bi in vn:
        emb_i = wa.embed(bi)
        for a in ws[n - 1].representatives():
            mid = emb_i * _scale_row(wa, gamma, a)
            for bk in vn:
                vectors.append(wreath_coords(mid * wa.embed(bk)))
    return _rank_mod_p(vectors, b_alg.field.characteristic)


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    mode = spec["trace"]
    recorder = None
    if mode != "off":
        import tracing

        recorder = tracing.Recorder() if mode == "spans" else tracing.FieldOpCounter()
        recorder.install()
    record = {"ready": READY}
    with open(spec["stdout"], "w", encoding="utf-8") as out:
        saved, sys.stdout = sys.stdout, out
        try:
            if spec["kind"] == "cli":
                start = time.perf_counter()
                code = cli.main(spec["argv"])
                record["job_s"] = time.perf_counter() - start
            else:
                start = time.perf_counter()
                objects, rep = _dense_job(spec)
                record["job_s"] = time.perf_counter() - start
                code = 0
                result = {
                    "lhs_dim": rep.lhs_dim,
                    "product_bound": rep.product_bound,
                    "leq": rep.leq,
                    "exact": rep.exact,
                }
                print(json.dumps(result, sort_keys=True))
        finally:
            sys.stdout = saved
    record["code"] = code
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        recorder.uninstall()
        record.update(recorder.summary())
        if mode == "spans":
            recorder.write(spec["spans"], spec["job"])
    if spec["kind"] == "dense" and spec.get("oracle"):
        start = time.monotonic()
        record["oracle_rank"] = _dense_oracle(objects, spec["n"])
        record["oracle_s"] = time.monotonic() - start
    with open(spec["record"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
