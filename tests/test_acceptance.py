"""Acceptance suite: one test per criterion, exact tolerances, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines as the
criteria complete.  Every expected value is either computed by an independent
oracle inside this file or verified arithmetic (never copied from the code
under test).
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product
import pytest

from wreathkit import (
    BasisIndexing,
    Field,
    FiltrationSchedule,
    GammaMap,
    Presentation,
    TruncatedAlgebra,
    WreathAlgebra,
    build_layered_presentation,
    dense_dim_check,
    golod_shafarevich_check,
    growth_dims,
    degree_one_generators,
    nilpotency_check,
    nilpotent_host_embedding_check,
    parse_element,
    sandwich_report,
    shift_independence_witness,
    span_inclusion_check,
    unit_row_projection,
    w_gamma_table,
)
from wreathkit.words import Alphabet
from wreathkit.wreath import wreath_coords

from helpers import killed_above, make_algebra, random_element, random_gamma, random_smatrix, random_wreath


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# -- shared hosts -------------------------------------------------------------

GF5 = Field.prime(5)
Q = Field.rationals()


@pytest.fixture(scope="module")
def assoc_pair():
    b_alg = make_algebra(GF5, ["x", "y"], [], n=4, unital=True)
    a_alg = make_algebra(GF5, ["x"], ["x^3"], n=3)
    return WreathAlgebra(b_alg, a_alg)


def test_criterion_wreath_associativity(assoc_pair):
    wa = assoc_pair
    rng = random.Random(101)
    start = time.monotonic()
    clean = flagged = 0
    for _ in range(500):
        e1, e2, e3 = (random_wreath(wa, rng) for _ in range(3))
        left = (e1 * e2) * e3
        right = e1 * (e2 * e3)
        assert left == right
        if left.flag or right.flag:
            flagged += 1
        else:
            clean += 1
    elapsed = time.monotonic() - start
    report(
        "wreath associativity, 500 random triples",
        clean > 0 and elapsed < 60,
        f"{clean} clean, {flagged} flagged, {elapsed:.1f}s",
    )


def test_criterion_matrix_homomorphism(assoc_pair):
    wa = assoc_pair
    rng = random.Random(102)
    for _ in range(500):
        s1 = random_smatrix(wa, rng, n_entries=3)
        s2 = random_smatrix(wa, rng, n_entries=3)
        prod = wa.from_matrix(s1) * wa.from_matrix(s2)
        assert prod.s == s1.matmul(s2) and not prod.b
    report("matrix representation of transformation products, 500 pairs", True)


def test_criterion_bimodule_axioms(assoc_pair):
    wa = assoc_pair
    rng = random.Random(103)
    for _ in range(500):
        f = random_smatrix(wa, rng, n_entries=3, row_degree_cap=2)
        b1 = random_element(wa.b_host, rng, max_degree=1)
        b2 = random_element(wa.b_host, rng, max_degree=1)
        assert f.rmul_b(b1).rmul_b(b2) == f.rmul_b(b1 * b2)
        assert f.lmul_b(b2).lmul_b(b1) == f.lmul_b(b1 * b2)
        assert f.lmul_b(b1).rmul_b(b2) == f.rmul_b(b2).lmul_b(b1)
    report("bimodule identities as matrix identities, 500 samples", True)


def test_criterion_nilpotent_host_embedding():
    a_alg = make_algebra(GF5, ["x", "y"], [], n=2)
    rep = nilpotent_host_embedding_check(a_alg)
    report(
        "two-dimensional nilpotent host embedding",
        rep.ok and rep.cases_checked == 6 and rep.cube_vanishes,
        f"{rep.cases_checked} basis elements, cube vanishes: {rep.cube_vanishes}",
    )


def test_criterion_span_inclusion_and_bound():
    start = time.monotonic()
    b_alg = killed_above(Q, ["x", "y"], kill_degree=4, n=4, unital=True)
    a_alg = make_algebra(Q, ["x"], ["x^4"], n=4)
    idx = BasisIndexing(b_alg)
    x_a = a_alg.gen("x")
    w_x = b_alg.alphabet.word((0,))
    w_y = b_alg.alphabet.word((1,))
    w_xx = b_alg.alphabet.word((0, 0))
    gammas = {
        "zero": GammaMap(idx, a_alg, {}),
        "single-word": GammaMap(idx, a_alg, {idx.index_of(w_x): x_a}),
        "generating": GammaMap(
            idx,
            a_alg,
            {
                idx.index_of(w_x): x_a,
                idx.index_of(w_y): x_a * x_a,
                idx.index_of(w_xx): x_a * x_a * x_a,
            },
        ),
    }
    assert gammas["generating"].is_generating()
    all_ok = True
    for label, gamma in gammas.items():
        rep = span_inclusion_check(b_alg, a_alg, gamma, 4)
        assert rep.exact, label
        for n, dim, rhs, included, bound, bound_ok in rep.rows:
            all_ok = all_ok and included and bound_ok and dim <= bound
    elapsed = time.monotonic() - start
    report(
        "span inclusion and counting bound, three gamma maps, n <= 4",
        all_ok and elapsed < 300,
        f"{elapsed:.1f}s",
    )


def test_criterion_relation_count_checker():
    rep1 = golod_shafarevich_check(2, {})
    ok1 = rep1.satisfied and rep1.t0 is not None and rep1.value < 0
    # 1 - 2t + t^2 = (1 - t)^2: certified never negative on (0, 1)
    rep2 = golod_shafarevich_check(2, {2: 1})
    ok2 = rep2.status == "unsatisfiable"
    rep3 = golod_shafarevich_check(3, {2: 1}, t0=Fraction(1, 2))
    ok3 = rep3.satisfied and rep3.value == Fraction(-1, 4)
    report(
        "relation-count condition checker",
        ok1 and ok2 and ok3,
        f"t0={rep1.t0}, value={rep1.value}; square case unsatisfiable; -1/4 exact",
    )


def test_criterion_growth_exactness(tmp_path):
    free = make_algebra(Q, ["x", "y"], [], n=12)
    dims = growth_dims(free, degree_one_generators(free), 12)
    for n, (dim, exact) in enumerate(dims, start=1):
        assert exact and dim == sum(2**d for d in range(1, n + 1))

    comm = make_algebra(Q, ["x", "y"], ["x*y - y*x"], n=12)
    dims_c = growth_dims(comm, degree_one_generators(comm), 12)
    for n, (dim, exact) in enumerate(dims_c, start=1):
        oracle = sum(
            len(set(combinations_with_replacement((0, 1), d))) for d in range(1, n + 1)
        )
        assert exact and dim == oracle == (n * n + 3 * n) // 2

    # byte-stability of the emitted reports, for both presentations, across
    # two interpreters with different hash seeds
    sources = {
        "free": "field rational\nunital false\ngenerators x:1 y:1\n",
        "comm": "field rational\nunital false\ngenerators x:1 y:1\nrel x*y - y*x\n",
    }
    stable = True
    for label, text in sources.items():
        pres = tmp_path / f"{label}.pres"
        pres.write_text(text)
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"{label}-{seed}.csv"
            argv = [sys.executable, "-m", "wreathkit.cli", "growth", "-p", str(pres), "-N", "12"]
            env = {**os.environ, "PYTHONHASHSEED": seed}
            code = subprocess.run([*argv, "--emit", str(out)], env=env, capture_output=True).returncode
            assert code == 0
            outs.append(out.read_bytes())
        stable = stable and outs[0] == outs[1]
    report("growth exactness to n = 12, free and commutative, byte-stable reports", stable)


def test_criterion_weighted_image_span_linear():
    b_alg = make_algebra(Q, ["b"], [], n=10, unital=True)
    a_alg = make_algebra(Q, ["x"], [], n=10)
    idx = BasisIndexing(b_alg)
    values = {
        idx.index_of(w): a_alg.gen("x")
        for d in range(1, 11)
        for w in b_alg.degree_basis(d)
    }
    gamma = GammaMap(idx, a_alg, values)
    table = w_gamma_table(b_alg, a_alg, gamma, 10)
    ok = table.rows() == [(n, n, True) for n in range(1, 11)]
    report("weighted image span w(n) = n for n <= 10", ok)


def _rank_mod_p(vectors, p):
    """Independent oracle: dense elimination over int64, exact mod p.  Each
    pivot clears its column below it in one numpy step; entries stay below
    p < 2**31, so every product fits in an int64."""
    import numpy as np

    keys = sorted({k for v in vectors for k in v})
    pos = {k: i for i, k in enumerate(keys)}
    mat = np.zeros((len(vectors), len(keys)), dtype=np.int64)
    for r, v in enumerate(vectors):
        for k, c in v.items():
            mat[r, pos[k]] = int(c) % p
    rank = 0
    for col in range(mat.shape[1]):
        rest = mat[rank:, col:]  # a view: the rows below the pivots found
        hits = np.flatnonzero(rest[:, 0])
        if not hits.size:
            continue
        rest[[0, hits[0]]] = rest[[hits[0], 0]]
        rest[0] = rest[0] * pow(int(rest[0, 0]), p - 2, p) % p
        hits = hits[1:]  # after the swap, row hits[0] is zero in this column
        rest[hits] = (rest[hits] - np.outer(rest[hits, 0], rest[0])) % p
        rank += 1
        if rank == mat.shape[0]:
            break
    return rank


def test_criterion_dense_dimension_law():
    field = Field.prime(101)
    b_alg = make_algebra(field, ["x", "y"], [], n=3, unital=True)
    a_alg = killed_above(field, ["s", "t", "u"], kill_degree=4, n=4, unital=True)
    rng = random.Random(909)
    leq_all = True
    equal_hits = 0
    oracle_agreed = True
    draws = 50
    for draw in range(draws):
        idx = BasisIndexing(b_alg)
        values = {}
        for i in range(1, len(idx) + 1):
            a = random_element(a_alg, rng, density=1.0, unit=True)
            if a:
                values[i] = a
        gamma = GammaMap(idx, a_alg, values)
        rep = dense_dim_check(b_alg, a_alg, gamma, 2)
        assert rep.exact
        leq_all = leq_all and rep.leq
        equal_hits += rep.equality
        if draw < 5:
            # independent route: rebuild the spanning set and rank it densely
            from wreathkit.growth import _scale_row, power_chain, weighted_image_spans

            wa = WreathAlgebra(b_alg, a_alg, indexing=idx)
            chain = power_chain(b_alg, degree_one_generators(b_alg), 2)
            ws = weighted_image_spans(gamma, chain, a_alg, 2)
            vectors = []
            for bi in chain[1].representatives():
                emb_i = wa.embed(bi)
                for a in ws[1].representatives():
                    mid = emb_i * _scale_row(wa, gamma, a)
                    for bk in chain[1].representatives():
                        vectors.append(wreath_coords(mid * wa.embed(bk)))
            oracle_agreed = oracle_agreed and _rank_mod_p(vectors, 101) == rep.lhs_dim
    report(
        "dense dimension law: bound always, equality in >= 80% of 50 draws",
        leq_all and equal_hits >= 40 and oracle_agreed,
        f"equality in {equal_hits}/50; oracle agreed on sampled draws: {oracle_agreed}",
    )


def test_criterion_unit_row_projection():
    gf7 = Field.prime(7)
    b_alg = make_algebra(gf7, ["x", "y"], [], n=2, unital=True)
    a_alg = make_algebra(gf7, ["z"], ["z^3"], n=3)
    wa = WreathAlgebra(b_alg, a_alg)
    rng = random.Random(110)
    for _ in range(1000):
        alpha = random_gamma(wa.indexing, wa.a_host, rng, density=0.6)
        beta = random_gamma(wa.indexing, wa.a_host, rng, density=0.6)
        ca, cb = wa.gamma_row(alpha), wa.gamma_row(beta)
        assert unit_row_projection(ca.matmul(cb)) == unit_row_projection(ca) * unit_row_projection(cb)
    kernel_ok = True
    for _ in range(200):
        alpha = random_gamma(wa.indexing, wa.a_host, rng)
        alpha.values.pop(1, None)
        c = wa.from_matrix(wa.gamma_row(alpha))
        if c:
            rep = nilpotency_check(c, 3)
            kernel_ok = kernel_ok and rep.nilpotent and rep.index <= 2
    report(
        "row projection multiplicative on 1000 pairs; kernel squares to zero",
        kernel_ok,
    )


def test_criterion_layered_sandwich():
    ab = Alphabet([("x", 1), ("y", 1)])
    comm = parse_element("x*y - y*x", ab, Q)
    schedule = FiltrationSchedule([2, 4, 6])
    layered_pres = build_layered_presentation(Q, 3, schedule, [comm], truncation_degree=8)
    layered = TruncatedAlgebra(layered_pres, 8)
    two_letter = TruncatedAlgebra(Presentation(ab, Q, [comm], unital=False), 8)
    rep = sandwich_report(layered, two_letter, schedule)

    def pairs_only_count(d):
        # monomials of degree d in three commuting letters, never all three
        return sum(
            1
            for mono in combinations_with_replacement((0, 1, 2), d)
            if len(set(mono)) < 3
        )

    oracle_ok = True
    for row in rep.rows:
        f_oracle = sum(
            len(set(combinations_with_replacement((0, 1), d))) for d in range(1, row.n + 1)
        )
        oracle_ok = oracle_ok and row.f == f_oracle
        if row.k == 2:
            oracle_ok = oracle_ok and row.g == f_oracle
        if row.k == 3:
            g_oracle = sum(pairs_only_count(d) for d in range(1, row.n + 1))
            oracle_ok = oracle_ok and row.g == g_oracle
    report(
        "layered growth sandwich at k_max=3, schedule (2,4,6), N=8",
        rep.ok and rep.exact and not rep.faithful and oracle_ok and len(rep.rows) > 0,
        f"{len(rep.rows)} window rows, faithful: no",
    )


def test_criterion_shift_witness():
    b_alg = make_algebra(Q, ["x", "y"], [], n=6)
    b_list = [b_alg.gen("x"), b_alg.gen("y")]
    witnesses = []
    for s in (1, 2, 3):
        first = shift_independence_witness(b_alg, b_list, s)
        second = shift_independence_witness(b_alg, b_list, s)
        assert first.found and first.verified
        assert second.witness == first.witness  # deterministic scan
        witnesses.append(first.witness)
    report(
        "independence-preserving right shift found for s in {1, 2, 3}",
        all(w.min_degree() >= s for s, w in enumerate(witnesses, start=1)),
        "; ".join(w.format() for w in witnesses),
    )
