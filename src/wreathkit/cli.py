"""Batch command-line front end.

One kernel command per invocation, no REPL.  Every run is deterministic
given its inputs; the overflow policy lands in each report header, and
outputs are reproducible byte for byte.  Exit status: 0 for definite exact
verdicts, 2 when any reported quantity is flagged inexact or a verdict is
inconclusive, 1 for hard errors and usage errors.
"""

from __future__ import annotations

import argparse
import functools
import shutil
import sys
import time
from fractions import Fraction

from . import io as wio
from .freealg import parse_element
from .growth import (
    FiltrationSchedule,
    GrowthTable,
    degree_one_generators,
    density_witness,
    gk_estimate,
    growth_dims,
    shift_independence_witness,
    span_inclusion_check,
    w_gamma_table,
)
from .gs import golod_shafarevich_check
from .quotient import Presentation, TruncatedAlgebra
from .scalars import Field
from .section6 import sandwich_report, x_part_presentation
from .words import Alphabet
from .wreath import BasisIndexing, GammaMap, WreathAlgebra, nilpotency_check

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INEXACT = 2


def _meta(args, **extra):
    meta = {"command": args.command, "policy": args.policy}
    meta.update(extra)
    return meta


def _emit(args, meta, columns, rows):
    if args.emit:
        wio.write_csv(args.emit, meta, columns, rows)
    if args.json:
        wio.write_json(args.json, meta, columns, rows)
    if not args.emit:
        print(wio.format_csv(meta, columns, rows), end="")


def _check_degrees(args):
    """Truncation degrees, -N, --NB and --NA, are at least 1."""
    for flag in ("-N", "--NB", "--NA"):
        value = getattr(args, flag.lstrip("-"), None)
        if value is not None and value < 1:
            raise ValueError(f"{flag} {value} is below 1")


def _load_algebra(path, n, policy):
    return TruncatedAlgebra(wio.load_presentation(path), n, policy)


def _gamma_context(args):
    b_alg = _load_algebra(args.B, args.NB, args.policy)
    a_alg = _load_algebra(args.A, args.NA, args.policy)
    indexing = BasisIndexing(b_alg)
    gamma = None
    if getattr(args, "gamma", None):
        gamma = wio.load_gamma(args.gamma, indexing, a_alg)
    return b_alg, a_alg, indexing, gamma


# -- commands ---------------------------------------------------------------


def cmd_build(args):
    alg = _load_algebra(args.presentation, args.N, args.policy)
    rows = [(d, alg.graded_dim(d), True) for d in range(1, args.N + 1)]
    _emit(args, _meta(args, N=args.N, input=args.presentation), ["degree", "dim", "exact"], rows)
    return EXIT_OK


def _check_factor_count(n):
    """-n counts factors: at least one."""
    if n < 1:
        raise ValueError(f"-n {n} is below 1")


def cmd_growth(args):
    if args.n is not None:
        _check_factor_count(args.n)
    alg = _load_algebra(args.presentation, args.N, args.policy)
    n = args.N if args.n is None else args.n
    dims = growth_dims(alg, degree_one_generators(alg), n)
    rows = [(i + 1, d, e) for i, (d, e) in enumerate(dims)]
    _emit(args, _meta(args, N=args.N, n=n, input=args.presentation), ["n", "dim", "exact"], rows)
    return EXIT_OK if all(e for _, _, e in rows) else EXIT_INEXACT


def cmd_wgamma(args):
    _check_factor_count(args.n)
    b_alg, a_alg, indexing, gamma = _gamma_context(args)
    if gamma is None:
        gamma = GammaMap(indexing, a_alg, {})
    table = w_gamma_table(b_alg, a_alg, gamma, args.n)
    rows = table.rows()
    _emit(args, _meta(args, n=args.n, B=args.B, A=args.A), ["n", "w", "exact"], rows)
    return EXIT_OK if table.exact else EXIT_INEXACT


def cmd_span_bound(args):
    _check_factor_count(args.n)
    b_alg, a_alg, indexing, gamma = _gamma_context(args)
    if gamma is None:
        gamma = GammaMap(indexing, a_alg, {})
    report = span_inclusion_check(b_alg, a_alg, gamma, args.n, with_corner=args.corner)
    rows = report.rows
    _emit(
        args,
        _meta(args, n=args.n, corner=args.corner, ok=report.ok, exact=report.exact),
        ["n", "dim", "rhs_dim", "included", "bound", "bound_ok"],
        rows,
    )
    if not report.exact:
        return EXIT_INEXACT
    return EXIT_OK if report.ok else EXIT_INEXACT


def _window(text: str) -> tuple:
    """The `--window lo:hi` bounds: integers with 1 <= lo < hi."""
    lo, _, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        lo = hi = 0
    if not 1 <= lo < hi:
        raise ValueError(f"--window {text!r} is not lo:hi with integers 1 <= lo < hi")
    return lo, hi


def cmd_gk(args):
    window = _window(args.window)
    est = gk_estimate(GrowthTable("table", wio.load_growth_table(args.table)), window)
    meta = _meta(
        args,
        window=args.window,
        points=est.points,
        superpolynomial=est.superpolynomial,
        note=est.note,
    )
    rows = [
        (
            str(est.slope_lo),
            str(est.slope_hi),
            f"{float(est.slope):.6f}",
            str(est.residual_hi),
        )
    ]
    _emit(args, meta, ["slope_lo", "slope_hi", "slope_mid", "residual_hi"], rows)
    print(
        f"window slope in [{float(est.slope_lo):.6f}, {float(est.slope_hi):.6f}]"
        + (" [super-polynomial ratios]" if est.superpolynomial else ""),
        file=sys.stderr,
    )
    return EXIT_OK


def _blist(alg, text):
    """The `--blist` elements: `;`-separated expressions over alg."""
    return [alg.from_free(parse_element(src, alg.alphabet, alg.field)) for src in text.split(";")]


def _check_cap(args):
    """A witness scan reads host words up to --cap, which --NB must cover."""
    if args.cap is not None and args.cap > args.NB:
        raise ValueError(f"--cap {args.cap} exceeds --NB {args.NB}")


def _emit_witness(args, meta, rep):
    witness = rep.witness.format() if rep.found else ""
    rows = [(rep.found, witness, rep.checked, rep.verified, rep.note)]
    _emit(args, meta, ["found", "witness", "checked", "verified", "note"], rows)


def cmd_density_witness(args):
    _check_cap(args)
    b_alg, a_alg, indexing, gamma = _gamma_context(args)
    if gamma is None:
        raise ValueError("a gamma file is required")
    b_list = _blist(b_alg, args.blist)
    a = a_alg.from_free(parse_element(args.a, a_alg.alphabet, a_alg.field))
    rep = density_witness(gamma, b_list, a, args.cap)
    _emit_witness(args, _meta(args), rep)
    return EXIT_OK if rep.found else EXIT_INEXACT


def cmd_shift_witness(args):
    _check_cap(args)
    if args.s < 0:
        raise ValueError(f"--s {args.s} is below 0")
    b_alg = _load_algebra(args.B, args.NB, args.policy)
    rep = shift_independence_witness(b_alg, _blist(b_alg, args.blist), args.s, args.cap)
    _emit_witness(args, _meta(args, s=args.s), rep)
    return EXIT_OK if rep.found and rep.verified else EXIT_INEXACT


def cmd_sandwich(args):
    if args.kmax < 2:
        raise ValueError(f"--kmax {args.kmax} is below 2: the sandwich needs x1 and x2")
    try:
        schedule = FiltrationSchedule([int(t) for t in args.schedule.split(",")])
    except ValueError:
        raise ValueError(
            f"--schedule {args.schedule!r} is not comma-separated increasing positive integers"
        ) from None
    if args.J:
        two_pres = wio.load_presentation(args.J)
    else:  # the free algebra on x, y over Q
        xy = Alphabet([("x", 1), ("y", 1)])
        two_pres = Presentation(xy, Field.rationals(), [], unital=False)
    # g_k lives in the x-part of the layered algebra (see x_part_presentation)
    x_pres = x_part_presentation(
        two_pres.field, args.kmax, schedule, list(two_pres.relations), truncation_degree=args.N
    )
    x_alg = TruncatedAlgebra(x_pres, args.N, args.policy)
    two_alg = TruncatedAlgebra(two_pres, args.N, args.policy)
    report = sandwich_report(x_alg, two_alg, schedule)
    rows = [
        (r.k, r.n, r.f, r.g, r.lower_ok, r.upper_ok, r.exact, r.note)
        for r in report.rows
    ]
    meta = _meta(
        args,
        kmax=args.kmax,
        schedule=args.schedule,
        N=args.N,
        faithful="yes" if report.faithful else "no",
        ok=report.ok,
    )
    _emit(args, meta, ["k", "n", "f", "g", "lower_ok", "upper_ok", "exact", "note"], rows)
    if not report.exact:
        return EXIT_INEXACT
    return EXIT_OK if report.ok else EXIT_INEXACT


def cmd_wreath_eval(args):
    b_alg, a_alg, indexing, gamma = _gamma_context(args)
    wa = WreathAlgebra(b_alg, a_alg, indexing)
    e = wio.parse_wreath_expression(args.expr, wa, gamma)
    print(f"b-part: {e.b.format()}")
    cells = sorted(e.s.entries)
    if not cells:
        print("s-part: 0")
    for i, j in cells:
        print(f"s-part ({i},{j}): {e.s.entry(i, j).format()}")
    if e.flag:
        print("flag: truncated (result is a lower-degree shadow)")
        return EXIT_INEXACT
    return EXIT_OK


def cmd_nil_check(args):
    if args.max_power < 1:
        raise ValueError(f"--max-power {args.max_power} is below 1")
    b_alg, a_alg, indexing, gamma = _gamma_context(args)
    wa = WreathAlgebra(b_alg, a_alg, indexing)
    e = wio.parse_wreath_expression(args.expr, wa, gamma)
    rep = nilpotency_check(e, args.max_power)
    if rep.verdict == "nilpotent":
        print(f"nilpotent, index {rep.index}")
        return EXIT_OK
    if rep.verdict == "not-nilpotent-within-bound":
        print(f"not nilpotent within power {args.max_power}")
        return EXIT_OK
    print("inconclusive: a power escaped the truncation")
    return EXIT_INEXACT


def cmd_gs_check(args):
    census = {}
    try:
        for part in args.census.split(",") if args.census else ():
            d, c = map(int, part.split(":"))
            census[d] = census.get(d, 0) + c
    except ValueError:
        raise ValueError(f"--census {args.census!r} is not comma-separated degree:count pairs") from None
    t0 = None
    if args.t0:
        try:
            t0 = Fraction(args.t0)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"--t0 {args.t0!r} is not a rational number") from None
    report = golod_shafarevich_check(args.m, census, t0, args.bound)
    if report.status == "satisfied":
        print(f"satisfiable, t0={report.t0}, value={report.value}")
        return EXIT_OK
    if report.status == "not-satisfied-at-t0":
        print(f"not satisfied at t0={report.t0}, value={report.value}")
        return EXIT_OK
    if report.status == "unsatisfiable":
        print(f"unsatisfiable ({report.note})")
        return EXIT_OK
    print(report.note)
    return EXIT_INEXACT


# -- argument wiring ----------------------------------------------------------


def _add_common(p):
    p.add_argument("--policy", choices=["truncate", "reject"], default="truncate")
    p.add_argument("--emit", help="write a CSV report here")
    p.add_argument("--json", help="write a JSON mirror here")


def _add_hosts(p, gamma=True):
    p.add_argument("--B", required=True, help="host presentation file")
    p.add_argument("--A", required=True, help="coefficient presentation file")
    p.add_argument("--NB", type=int, default=4, help="host truncation degree")
    p.add_argument("--NA", type=int, default=4, help="coefficient truncation degree")
    if gamma:
        p.add_argument("--gamma", help="gamma map file")


class _ArgumentParser(argparse.ArgumentParser):
    """argparse, but a usage error exits 1: exit 2 means an inexact result."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser():
    # argparse makes a formatter per argument, and each one reads the
    # terminal size unless given a width: read it once, as the formatter does
    width = shutil.get_terminal_size().columns - 2
    formatter = functools.partial(argparse.HelpFormatter, width=width)
    parser = _ArgumentParser(
        prog="wreathkit",
        description="exact computations in truncated graded algebras and their matrix wreath products",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, formatter_class=formatter)

    p = add_parser("build", help="per-degree dimensions of a truncated quotient")
    p.add_argument("-p", "--presentation", required=True)
    p.add_argument("-N", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = add_parser("growth", help="growth of the degree-one generating subspace")
    p.add_argument("-p", "--presentation", required=True)
    p.add_argument("-N", type=int, required=True)
    p.add_argument("-n", type=int, help="largest factor count (default N)")
    _add_common(p)
    p.set_defaults(func=cmd_growth)

    p = add_parser("wgamma", help="weighted image-span growth of a gamma map")
    _add_hosts(p)
    p.add_argument("-n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_wgamma)

    p = add_parser("span-bound", help="span inclusion and counting bound for V + F c")
    _add_hosts(p)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--corner", action="store_true", help="include the corner unit e_11(1)")
    _add_common(p)
    p.set_defaults(func=cmd_span_bound)

    p = add_parser("gk", help="window slope of a growth table")
    p.add_argument("--table", required=True, help="growth CSV")
    p.add_argument("--window", required=True, help="lo:hi")
    _add_common(p)
    p.set_defaults(func=cmd_gk)

    p = add_parser("density-witness", help="search a density witness for gamma")
    _add_hosts(p)
    p.add_argument("--blist", required=True, help="semicolon-separated host elements")
    p.add_argument("--a", required=True, help="nonzero coefficient element")
    p.add_argument("--cap", type=int, default=4, help="degree cap for the scan")
    _add_common(p)
    p.set_defaults(func=cmd_density_witness)

    p = add_parser("shift-witness", help="right-shift keeping elements independent")
    p.add_argument("--B", required=True)
    p.add_argument("--NB", type=int, default=6)
    p.add_argument("--blist", required=True, help="semicolon-separated host elements")
    p.add_argument("--s", type=int, default=1, help="least factor count of the shift")
    p.add_argument("--cap", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_shift_witness)

    p = add_parser(
        "sandwich", help="two-letter growth sandwich, g_k read in the layered algebra's x-part"
    )
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--schedule", required=True, help="comma-separated thresholds")
    p.add_argument("--J", help="two-letter presentation file")
    p.add_argument("-N", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_sandwich)

    p = add_parser("wreath-eval", help="evaluate a wreath expression")
    _add_hosts(p)
    p.add_argument("--expr", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_wreath_eval)

    p = add_parser("nil-check", help="nilpotency of a wreath expression")
    _add_hosts(p)
    p.add_argument("--expr", required=True)
    p.add_argument("--max-power", type=int, default=20)
    _add_common(p)
    p.set_defaults(func=cmd_nil_check)

    p = add_parser("gs-check", help="relation-count condition in exact rationals")
    p.add_argument("-m", type=int, required=True, help="generator count")
    p.add_argument("--census", help="degree:count pairs, comma separated")
    p.add_argument("--t0", help="evaluate at this rational instead of searching")
    p.add_argument("--bound", type=int, default=5, help="denominator bound for the search")
    _add_common(p)
    p.set_defaults(func=cmd_gs_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        _check_degrees(args)
        code = args.func(args)
    except (ValueError, KeyError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
