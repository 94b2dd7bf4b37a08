"""Growth machinery: weighted image spans, span-inclusion bounds, density and
independence witnesses, slow-growth map construction, and window estimates of
the Gelfand-Kirillov dimension.

Everything here is exact except the final log-log slope, which is computed in
rational interval arithmetic: logarithms are evaluated by mpmath at 60
digits and padded to a certified rational enclosure, so the reported slope
interval is a true bound for the exact least-squares slope of the window.
The schedule check `FiltrationSchedule.faithful` encloses its logarithms in
exact integer arithmetic (`exact_log_interval`) and loads no mpmath.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .linalg import Echelon, dense_rank, power_levels
from .quotient import AlgElement, Subspace, TruncatedAlgebra, growth_dims
from .wreath import BasisIndexing, GammaMap, SMatrix, WreathAlgebra, WreathSpan


# -- growth tables ---------------------------------------------------------


@dataclass
class GrowthTable:
    """Dimension per number of factors, with per-entry exactness bits."""

    label: str
    entries: dict  # n -> (dim, exact)

    def dims(self):
        return [self.entries[n][0] for n in sorted(self.entries)]

    def rows(self):
        return [(n, self.entries[n][0], self.entries[n][1]) for n in sorted(self.entries)]

    @property
    def exact(self) -> bool:
        return all(e for _, e in self.entries.values())


def degree_one_generators(alg: TruncatedAlgebra):
    one = alg.field.one
    return [alg.element({w: one}) for w in alg.degree_basis(1)]


# -- filtration schedules ----------------------------------------------------


def exp_bounds(x: Fraction, terms: int = 40):
    """Certified rational enclosure of e**x for x >= 0, by the Taylor series
    with an explicit geometric tail bound."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("nonnegative arguments only")
    terms = max(terms, 2 * (int(x) + 2))
    total = Fraction(1)
    term = Fraction(1)
    for k in range(1, terms + 1):
        term = term * x / k
        total += term
    ratio = x / (terms + 1)
    if ratio >= 1:
        raise ValueError("increase the term count")
    tail = term * ratio / (1 - ratio)
    return total, total + tail


class FiltrationSchedule:
    """A strictly increasing sequence of thresholds 0 = n_0 < n_1 < ...

    The analytic constraints a faithful schedule must satisfy (each threshold
    beyond the exponential of its predecessor and of e**e**k) are checked and
    reported, never enforced: miniature schedules are allowed and flagged.
    """

    def __init__(self, thresholds):
        self.thresholds = list(thresholds)
        if any(t <= s for s, t in zip([0] + self.thresholds, self.thresholds)):
            raise ValueError("thresholds must be strictly increasing positive integers")

    def __len__(self):
        return len(self.thresholds)

    def threshold(self, k: int) -> int:
        """n_k, 1-based; n_0 = 0."""
        if k == 0:
            return 0
        return self.thresholds[k - 1]

    def window_for(self, n: int) -> Optional[int]:
        """Largest k with n_k <= n, or None when n < n_1."""
        k = None
        for i, t in enumerate(self.thresholds, start=1):
            if t <= n:
                k = i
        return k

    def faithful(self):
        """Certified check of the analytic constraints; returns (bool, rows).

        Both constraints are compared in log space: n_k > e**n_{k-1} iff
        log n_k > n_{k-1}, and n_k > e**e**k iff log n_k > e**k, with log n_k
        from `exact_log_interval` and e**k from `exp_bounds`.  n_{k-1} = 0 and
        n_k = 1 are decided exactly.  An enclosure that straddles its bound
        is sharpened, up to a cap past which the comparison is given up.
        """
        rows = []
        ok = True
        for k in range(1, len(self.thresholds) + 1):
            n_k, prev = self.threshold(k), self.threshold(k - 1)
            cond1 = n_k > 1 if prev == 0 else None
            cond2 = False if n_k == 1 else None
            digits, terms = 60, 40
            while cond1 is None or cond2 is None:
                if digits > _FAITHFUL_MAX_DIGITS:
                    raise RuntimeError("exponential comparison did not resolve")
                log_n = exact_log_interval(n_k, digits)
                if cond1 is None:
                    cond1 = _exceeds(log_n, prev, prev)
                if cond2 is None:
                    cond2 = _exceeds(log_n, *exp_bounds(Fraction(k), terms))
                # sharpen whatever did not resolve
                digits *= 2
                terms *= 2
            rows.append((k, n_k, cond1, cond2))
            ok = ok and cond1 and cond2
        return ok, rows


# Precision cap of the log-space comparison in `FiltrationSchedule.faithful`:
# the last attempt uses 7680 digits, so an unresolved comparison means log n_k
# lies within about 10**-7600 of its bound.
_FAITHFUL_MAX_DIGITS = 10000


def _exceeds(x: "RatInterval", lo, hi):
    """Whether a value enclosed by x exceeds one enclosed by [lo, hi]; None
    when the enclosures overlap."""
    if x.lo > hi:
        return True
    if x.hi <= lo:
        return False
    return None


# -- weighted image spans (the W chain) --------------------------------------


def power_chain(alg, generators, n: int):
    """Levels 1..n of the products of at most 1, 2, ..., n factors, grown
    in one span by `linalg.power_levels`; alg is a `TruncatedAlgebra` or a
    `WreathAlgebra`."""
    kind = WreathSpan if isinstance(alg, WreathAlgebra) else Subspace
    return power_levels(kind(alg, generators), n)


def _fresh(levels, k):
    """The representatives new at level k (1-based) of a filtration."""
    below = levels[k - 2].dim if k > 1 else 0
    return levels[k - 1].reps[below : levels[k - 1].dim]


def weighted_image_spans(gamma: GammaMap, v_chain, a_host: TruncatedAlgebra, n: int):
    """The chain W_1 <= ... <= W_n where W_n is spanned by all products of
    images gamma(V^{i_1}) ... gamma(V^{i_r}) with i_1 + ... + i_r <= n.

    Splitting a product at its first factor gives the dynamic program
    W_m = G_m + sum_{i<m} G_i W_{m-i} over the weight, with G_i = gamma(V^i).
    G and W each grow in one span (v_chain is a `power_chain`), one level
    per weight.  At weight m, W's span receives s * t for s new at level i
    of G and t new at level m - i of W, i < m (each pair once, at weight
    level(s) + level(t)), then the representatives new at level m of G:
    products first keeps W's representatives sparser (230 terms, not 292,
    at n = 5 on the benchmark's span-bound inputs).

    The representatives differ from those of a W_m rebuilt at every m; the
    subspaces, so the dimensions, are the same, and so are the exactness
    bits: the flag of s * t is the flag of s or t, or a pair of words of
    their supports whose product escapes; the words that a spanning set's
    supports meet are the words that its span meets; and W_m's bit includes
    the bits of G_1..G_m and of W_{m-1}.
    """
    g_span, g_levels = Subspace(a_host), []
    for k, v in enumerate(v_chain[:n], 1):
        g_span.extend(gamma.apply(b) for b in _fresh(v_chain, k))
        g_levels.append(g_span.level(v.exact))
    w_span, ws = Subspace(a_host), []
    for m in range(1, n + 1):
        for i in range(1, m):
            w_span.extend(s * t for s in _fresh(g_levels, i) for t in _fresh(ws, m - i))
        w_span.extend(_fresh(g_levels, m))
        ws.append(w_span.level(all(g.exact for g in g_levels[:m])))
    return ws


def w_gamma_table(
    b_host: TruncatedAlgebra,
    a_host: TruncatedAlgebra,
    gamma: GammaMap,
    n: int,
    generators=None,
) -> GrowthTable:
    """w(n) = dim W_n for the generating subspace (degree-one part by default)."""
    gens = degree_one_generators(b_host) if generators is None else generators
    chain = power_chain(b_host, gens, n)
    ws = weighted_image_spans(gamma, chain, a_host, n)
    return GrowthTable("w_gamma", {m + 1: (ws[m].dim, ws[m].exact) for m in range(n)})


# -- span inclusion and dimension bounds -------------------------------------


@dataclass
class InclusionReport:
    rows: list  # (n, dim_lhs, dim_rhs, included, bound, bound_ok)
    exact: bool

    @property
    def ok(self):
        return all(r[3] for r in self.rows) and all(r[5] for r in self.rows)


def _triple_products(fresh, middles, m, lefts):
    """The products of sum_{i+j+k = m} V^i * M_j * V^k that no lower weight made.

    fresh[i] lists the representatives new at level i of the V chain (all of
    V^1 at i = 1) and fresh[0] is empty: index 0 stands for no factor, so the
    bare middle (the row map itself, or the corner unit) is the degenerate
    term the inductive proof consumes, and without it the inclusion already
    fails at n = 1.  middles[j] lists the middles new at level j: M_0 is
    spanned by middles[0], and M_j (j >= 1) by middles[1..j].  lefts keeps
    each list le * mid across the weights, keyed by (i, j, position of mid).
    The products come in the order j, mid, i, le, ri.
    """
    out = []
    for j in range(m + 1):
        for t, mid in enumerate(middles[j]):
            for i in range(m - j + 1):
                lms = lefts.get((i, j, t))
                if lms is None:
                    lms = lefts[i, j, t] = [mid] if i == 0 else [le * mid for le in fresh[i]]
                k = m - j - i
                if k == 0:
                    out.extend(lms)
                else:
                    out.extend(lm * ri for lm in lms for ri in fresh[k])
    return out


def span_inclusion_check(
    b_host: TruncatedAlgebra,
    a_host: TruncatedAlgebra,
    gamma: GammaMap,
    n: int,
    generators=None,
    with_corner=False,
) -> InclusionReport:
    """Verify that products of at most n factors from V + F c (and the corner
    unit e_11(1) when with_corner is set) stay inside the predicted span

        sum_{i+j+k<=n} V^i (W_j c) V^k  +  V^n   [+ sum V^i e_11(W_j) V^k]

    and that the dimension obeys the counting bound
    sum_{i+j+k<=n} g(i) w(j) g(k) + g(n).

    Precondition: gamma(1) = 0 when B is unital.  W_j is built from the
    images gamma(V^i) with i >= 1 only, while c * c has the entry
    gamma(1) * gamma(b_j); a nonzero gamma(1) can therefore leave products
    outside the predicted span, and the check then reports them as not
    included.

    The predicted span at weight m receives only what no lower weight gave
    it, and the result is the same as inserting every product of weight
    <= m again:
    - `power_chain` levels are prefix-nested (level r is its first d_r
      representatives) and the middles are fixed across m, so a product
      le * mid * ri whose left factor is not new at level i >= 2 (or whose
      right factor is not new at level k >= 2) is the very product weight
      m - 1 made as (i - 1, j, k) (or (i, j, k - 1)); each product is made
      once, at the least weight whose levels hold its factors;
    - W's levels are prefix-nested too, so M_j = W_j c is spanned by the
      middles new at levels 1..j; a middle new at level j0 < j, taken as a
      middle of M_j, makes le * mid * ri at weight m only as the product
      that weight m - (j - j0) made with it at level j0, so middles[j] lists
      only the middles new at level j;
    - re-inserting an element the span already holds changes neither its
      rows, nor its representatives, nor `exact`, whose flag was recorded the
      first time; the remaining inserts keep their order;
    - the predicted span only grows, so a representative of the generated
      span found inside it at weight m stays inside, and the inclusion test
      resumes at the first representative not yet found.
    """
    gens = degree_one_generators(b_host) if generators is None else generators
    wa = WreathAlgebra(b_host, a_host, indexing=gamma.indexing)
    c = wa.from_matrix(wa.gamma_row(gamma))
    if with_corner and not a_host.unital:
        raise ValueError("the corner unit needs a unital coefficient algebra")

    b_chain = power_chain(b_host, gens, n)
    ws = weighted_image_spans(gamma, b_chain, a_host, n)
    g_dims = [b_chain[i].dim for i in range(n)]
    w_dims = [ws[j].dim for j in range(n)]
    # fresh[i]: the representatives of V^i that V^{i-1} lacks (V^0 = 0)
    fresh = [[]] + [[wa.embed(v) for v in _fresh(b_chain, i)] for i in range(1, n + 1)]

    corner = [wa.from_matrix(wa.matrix_unit(1, 1, a_host.unit()))] if with_corner else []
    u_chain = power_chain(wa, fresh[1] + [c] + corner, n)

    # middles[j] (and corner_middles[j]) hold c (the corner unit) at j = 0 and
    # the images of W's representatives new at level j, j = 1..n
    new_w = [_fresh(ws, j) for j in range(1, n + 1)]
    middles = [[c]] + [[_scale_row(wa, gamma, a) for a in w] for w in new_w]
    if with_corner:
        corner_middles = [corner] + [
            [wa.from_matrix(wa.matrix_unit(1, 1, a)) for a in w] for w in new_w
        ]
    lefts, corner_lefts = {}, {}

    # rhs grows with m, adding only the products no lower weight made
    rhs = WreathSpan(wa, [c] + corner)
    rows = []
    exact = True
    found = 0  # the first `found` representatives of u_chain[-1] lie in rhs
    for m in range(1, n + 1):
        rhs.extend(fresh[m])
        rhs.extend(_triple_products(fresh, middles, m, lefts))
        if with_corner:
            rhs.extend(_triple_products(fresh, corner_middles, m, corner_lefts))

        lhs = u_chain[m - 1]
        reps = lhs.representatives()
        while found < lhs.dim and rhs.contains(reps[found]):
            found += 1
        included = found == lhs.dim
        bound = g_dims[m - 1]
        for i in range(0, m + 1):
            for j in range(0, m - i + 1):
                for k in range(0, m - i - j + 1):
                    gi = 1 if i == 0 else g_dims[i - 1]
                    gk = 1 if k == 0 else g_dims[k - 1]
                    wj = 1 if j == 0 else w_dims[j - 1]
                    bound += gi * wj * gk
                    if with_corner:
                        bound += gi * wj * gk
        rows.append((m, lhs.dim, rhs.dim, included, bound, lhs.dim <= bound))
        exact = exact and lhs.exact and rhs.exact
    return InclusionReport(rows, exact)


def _scale_row(wa: WreathAlgebra, gamma: GammaMap, a: AlgElement):
    """The row map b -> 1 (x) a*gamma(b), i.e. the left translate a*c."""
    entries = {(1, j): a * v for j, v in gamma.values.items()}
    return wa.from_matrix(SMatrix(wa.indexing, wa.a_host, entries))


@dataclass
class DenseCheckReport:
    lhs_dim: int
    product_bound: int
    v_dim: int
    w_dim: int
    leq: bool
    equality: bool
    exact: bool


def dense_dim_check(
    b_host: TruncatedAlgebra,
    a_host: TruncatedAlgebra,
    gamma: GammaMap,
    n: int,
    generators=None,
) -> DenseCheckReport:
    """Compare dim V^n (W_n c) V^n with its spanning bound (dim V^n)^2 w(n).

    Equality is the signature of a dense map; the inequality holds always.
    The span is that of emb(b_i) R_a emb(b_k), b_i and b_k representatives
    of V^n, a of W_n and R_a = `_scale_row(wa, gamma, a)` = (0, S_a).  S_a has
    row 1 only, so the product is (0, L(b_i) S_a L(b_k)) with matrix
    z_i (x) y_ak: z_i is column 1 of L(b_i), y_ak row 1 of the matrix of
    R_a emb(b_k).  `wreath_coords` maps (row, column, A-word) one to one to
    keys, so the span is span(z) (x) span(y), of dimension rank(z) rank(y).
    Flags: a product's is b_i's (V^n is inexact then), or the escape of
    b_i*b_1 when S_a != 0 (only then is column 1 of L(b_i) read), or that of
    R_a emb(b_k): b_k adds its flag, and under a unipotent indexing an escape
    of some b_k*b_j if column 1 is in the support, alike on L(b_i) S_a and on
    S_a, as z_i = b_i != 0 there (b_1 is the unit).
    """
    gens = degree_one_generators(b_host) if generators is None else generators
    wa = WreathAlgebra(b_host, a_host, indexing=gamma.indexing)
    b_chain = power_chain(b_host, gens, n)
    vn, wn = b_chain[n - 1], weighted_image_spans(gamma, b_chain, a_host, n)[n - 1]
    middles = [_scale_row(wa, gamma, a) for a in wn.representatives()]
    embedded = [wa.embed(b) for b in vn.representatives()]
    y_span = WreathSpan(wa, [row * emb_k for row in middles for emb_k in embedded])
    z_ech, z_flag, s_nonzero = Echelon(b_host.field), False, any(row.s for row in middles)
    for emb_i in embedded:
        z, escaped = wa.indexing.product_column(emb_i.b, 1)
        z_ech.insert(z)
        z_flag = z_flag or (s_nonzero and escaped)
    dim, bound = z_ech.dim * y_span.dim, vn.dim * vn.dim * wn.dim
    exact = y_span.exact and not z_flag and vn.exact and wn.exact
    return DenseCheckReport(dim, bound, vn.dim, wn.dim, dim <= bound, dim == bound, exact)


# -- witness searches --------------------------------------------------------


@dataclass
class WitnessReport:
    found: bool
    witness: Optional[AlgElement]
    checked: int
    verified: bool = False
    note: str = ""


def _candidate_elements(host: TruncatedAlgebra, min_degree: int, degree_cap: int, pair_coeffs):
    """Deterministic candidate stream: basis words in deglex order, then
    two-word combinations with small coefficients."""
    one = host.field.one
    words = [
        w
        for d in range(min_degree, degree_cap + 1)
        for w in host.degree_basis(d)
    ]
    for w in words:
        yield host.element({w: one})
    for a_i in range(len(words)):
        for b_i in range(a_i + 1, len(words)):
            for ca in pair_coeffs:
                for cb in pair_coeffs:
                    if not ca or not cb:
                        continue
                    yield host.element({words[a_i]: ca, words[b_i]: cb})


def _default_pair_coeffs(host: TruncatedAlgebra):
    f = host.field
    if f.kind == "rational":
        return [f.one, f.neg(f.one)]
    return [f.from_int(k) for k in range(1, f.characteristic)]


def density_witness(
    gamma: GammaMap,
    b_list,
    a: AlgElement,
    degree_cap: int,
    pair_coeffs=None,
) -> WitnessReport:
    """Search for b with gamma(b_i b) = 0 for i < n and a*gamma(b_n b) != 0.

    The scan covers basis words in deglex order and then two-word
    combinations with small coefficients; exhaustion is not a proof that no
    witness exists (over a finite field at desk scale the searched slice can
    be legitimately empty).
    """
    host = gamma.indexing.host
    if not b_list:
        raise ValueError("need at least one element")
    if not a:
        raise ValueError("the test element must be nonzero")
    if Subspace(host, b_list).dim != len(b_list):
        raise ValueError("the given elements are linearly dependent")
    coeffs = _default_pair_coeffs(host) if pair_coeffs is None else pair_coeffs
    checked = 0
    for b in _candidate_elements(host, 1, degree_cap, coeffs):
        checked += 1
        if _density_holds(gamma, b_list, a, b):
            verified = _density_holds(gamma, b_list, a, b)
            return WitnessReport(True, b, checked, verified)
    return WitnessReport(False, None, checked, note="search slice exhausted")


def _density_holds(gamma: GammaMap, b_list, a: AlgElement, b: AlgElement) -> bool:
    for bi in b_list[:-1]:
        prod = bi * b
        if prod.flag:
            return False
        if gamma.apply(prod):
            return False
    last = b_list[-1] * b
    if last.flag:
        return False
    image = gamma.apply(last)
    final = a * image
    return bool(final) and not final.flag


def shift_independence_witness(
    b_host: TruncatedAlgebra,
    b_list,
    s: int,
    degree_cap: Optional[int] = None,
    pair_coeffs=None,
) -> WitnessReport:
    """Find b among products of at least s factors keeping b_1 b, ..., b_n b
    linearly independent; the witness is re-verified by an independent dense
    rank computation."""
    if Subspace(b_host, b_list).dim != len(b_list):
        raise ValueError("the given elements are linearly dependent")
    cap = b_host.truncation_degree if degree_cap is None else degree_cap
    coeffs = _default_pair_coeffs(b_host) if pair_coeffs is None else pair_coeffs
    checked = 0
    for b in _candidate_elements(b_host, s, cap, coeffs):
        checked += 1
        shifted = [bi * b for bi in b_list]
        if any(e.flag for e in shifted):
            continue
        if Subspace(b_host, shifted).dim == len(b_list):
            verified = dense_rank([e.terms for e in shifted], b_host.field) == len(b_list)
            return WitnessReport(True, b, checked, verified)
    return WitnessReport(False, None, checked, note="search slice exhausted")


# -- slow-growth gamma construction ------------------------------------------


@dataclass
class SlowGammaReport:
    gamma: GammaMap
    assignments: list  # (k, chosen word, image word count)
    table: GrowthTable
    bound_rows: list  # (n, w, exponent denominator data, within_bound)


def build_slow_gamma(
    a_host: TruncatedAlgebra,
    b_host: TruncatedAlgebra,
    schedule: FiltrationSchedule,
    d: Fraction,
    n_max: Optional[int] = None,
) -> SlowGammaReport:
    """Construct a map whose weighted image span grows like the coefficient
    algebra's own growth: the deglex-greatest new basis word at each
    threshold is sent to the next enumerated basis element, everything else
    new to zero.

    Emits the w table and certified comparisons w(n) <= n**(d + 1/k) on each
    window (k the window index), by exact integer power comparison.
    """
    indexing = BasisIndexing(b_host)
    a_basis = a_host.basis_words()
    if a_host.unital:
        a_basis = [w for w in a_basis if not w.is_empty]
    if len(schedule) > len(a_basis):
        raise ValueError("coefficient algebra too small for the schedule")
    if schedule.thresholds and schedule.thresholds[-1] > b_host.truncation_degree:
        raise ValueError("schedule exceeds the host truncation")

    values = {}
    assignments = []
    f = b_host.field
    for k in range(1, len(schedule) + 1):
        lo, hi = schedule.threshold(k - 1), schedule.threshold(k)
        new_words = [
            w for dd in range(lo + 1, hi + 1) for w in b_host.degree_basis(dd)
        ]
        if not new_words:
            raise ValueError(f"schedule step {k}: no new basis words")
        v_k = max(new_words)
        a_k = a_host.element({a_basis[k - 1]: f.one})
        values[indexing.index_of(v_k)] = a_k
        assignments.append((k, v_k, len(new_words)))
    gamma = GammaMap(indexing, a_host, values)

    n_top = schedule.threshold(len(schedule)) if n_max is None else n_max
    # an empty schedule and no n_max: no factor count to tabulate
    table = w_gamma_table(b_host, a_host, gamma, n_top) if n_top else GrowthTable("w_gamma", {})
    d = Fraction(d)
    bound_rows = []
    for n, (w, exact) in sorted(table.entries.items()):
        k = schedule.window_for(n)
        if k is None or w == 0:
            bound_rows.append((n, w, None, True))
            continue
        # w <= n^(d + 1/k)  <=>  w^(qk) <= n^(pk + q) for d = p/q
        p, q = d.numerator, d.denominator
        ok = w ** (q * k) <= n ** (p * k + q)
        bound_rows.append((n, w, (k, p, q), bool(ok)))
    return SlowGammaReport(gamma, assignments, table, bound_rows)


# -- Gelfand-Kirillov window estimates ----------------------------------------


@dataclass(frozen=True)
class RatInterval:
    lo: Fraction
    hi: Fraction

    def __add__(self, other):
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other):
        return RatInterval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other):
        cs = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RatInterval(min(cs), max(cs))

    def __truediv__(self, other):
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("interval denominator contains zero")
        cs = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return RatInterval(min(cs), max(cs))

    def scale(self, c: Fraction):
        a, b = self.lo * c, self.hi * c
        return RatInterval(min(a, b), max(a, b))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def abs_hi(self) -> Fraction:
        return max(abs(self.lo), abs(self.hi))


def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    f = Fraction(man) * (Fraction(2) ** exp)
    return -f if sign else f


def _mpf_of_int(n: int):
    """n as an mpf at the working precision.  An int longer than twice that
    precision is cut to 2*prec bits first (a relative change under
    2**-(2*prec), far below the rounding to prec bits that follows): mpmath's
    pure-Python backend takes seconds to normalise a million-bit power of 2."""
    import mpmath  # here and in `log_interval` only: a CLI start need not load it
    shift = n.bit_length() - 2 * mpmath.mp.prec
    if shift <= 0:
        return mpmath.mpf(n)
    return mpmath.ldexp(mpmath.mpf(n >> shift), shift)


def _atanh_bounds(p: int, q: int, w: int):
    """(lo, hi), ints with lo <= 2**w * atanh(p/q) <= hi, for 0 <= p/q <= 1/3.

    The series sum z**(2j+1)/(2j+1), z = p/q, in ints scaled by 2**w, each
    division rounded down, so the sum is never high.  A power z**(2j+1) is
    less than 9/8 units low: a step by p**2/q**2 loses under 1 unit, and
    z**2 <= 1/9 shrinks what the steps before lost.  So each term is less
    than 3 units low, and the sum stops at the first power that rounds to 0,
    where the rest of the series, the true power times a geometric sum of
    ratio at most 1/9, is below 2.
    """
    power = (p << w) // q
    pp, qq = p * p, q * q
    total = j = 0
    while power:
        total += power // (2 * j + 1)
        power = power * pp // qq
        j += 1
    return total, total + 3 * j + 2


def exact_log_interval(n: int, digits: int = 60) -> RatInterval:
    """A certified enclosure of log(n) for an int n >= 1, about 10**-digits
    wide, in exact integer arithmetic.

    For c = 2**k * m with m in [1, 2), log c = k log 2 + 2 atanh(z) with
    z = (m - 1)/(m + 1) = (c - 2**k)/(c + 2**k) in [0, 1/3), and
    log 2 = 2 atanh(1/3); `_atanh_bounds` encloses both series in ints scaled
    by 2**w.  A long n is cut to its top w + 2 bits a: a * 2**s <= n <
    (a + 1) * 2**s, so log n lies between log(a * 2**s) and that plus
    log(1 + 1/a) <= 1/a < 2**-(w + 1), half a unit.  The guard bits of w
    cover the rounding of the series, times the multiple of log 2, up to
    the bit length of n.
    """
    bits = n.bit_length()
    w = digits * 3322 // 1000 + 2 * bits.bit_length() + 24
    s = max(0, bits - w - 2)
    a = n >> s
    k = a.bit_length() - 1
    two_lo, two_hi = _atanh_bounds(1, 3, w)
    lo, hi = _atanh_bounds(a - (1 << k), a + (1 << k), w)
    lo, hi = 2 * ((k + s) * two_lo + lo), 2 * ((k + s) * two_hi + hi) + (s > 0)
    return RatInterval(Fraction(lo, 1 << w), Fraction(hi, 1 << w))


def log_interval(x, digits: int = 60) -> RatInterval:
    """A certified rational enclosure of log(x) for rational x > 0.

    mpmath evaluates at `digits` digits (relative rounding error about
    10**-digits); the enclosure pads by 10**-(digits - 20), a margin
    millions of times wider than the worst-case rounding error for every
    log(x) below 10**10.
    """
    import mpmath
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log of a nonpositive value")
    with mpmath.workdps(digits):
        v = mpmath.log(_mpf_of_int(x.numerator) / _mpf_of_int(x.denominator))
    f = _mpf_to_fraction(v)
    pad = Fraction(1, 10 ** (digits - 20))
    return RatInterval(f - pad, f + pad)


@dataclass
class GKEstimate:
    slope_lo: Fraction
    slope_hi: Fraction
    window: tuple
    residual_hi: Fraction
    points: int
    superpolynomial: bool
    note: str = ""

    @property
    def slope(self) -> Fraction:
        return (self.slope_lo + self.slope_hi) / 2


def gk_estimate(
    table: GrowthTable,
    window: tuple,
    ratio_threshold: Fraction = Fraction(5, 4),
) -> GKEstimate:
    """Window least-squares slope of log dim against log n.

    This is a window-relative report, not the definition's infimum: no finite
    truncation can certify that.  Inexact entries are excluded; at least four
    exact points must remain.  The superpolynomial flag fires when every
    successive dimension ratio in the window exceeds the threshold.
    """
    lo, hi = window
    pts = [
        (n, dim)
        for n, (dim, exact) in sorted(table.entries.items())
        if lo <= n <= hi and exact and dim > 0
    ]
    if len(pts) < 4:
        raise ValueError("need at least four exact positive entries in the window")
    ratios = [Fraction(b[1], a[1]) for a, b in zip(pts, pts[1:])]
    superpoly = all(r > ratio_threshold for r in ratios)

    xs = [log_interval(n) for n, _ in pts]
    ys = [log_interval(dim) for _, dim in pts]
    m = len(pts)
    inv_m = Fraction(1, m)
    x_mean = _interval_sum(xs).scale(inv_m)
    y_mean = _interval_sum(ys).scale(inv_m)
    dx = [x - x_mean for x in xs]
    dy = [y - y_mean for y in ys]
    num = _interval_sum([a * b for a, b in zip(dx, dy)])
    den = _interval_sum([a * a for a in dx])
    slope = num / den
    residual = max((y - slope * x).abs_hi() for x, y in zip(dx, dy))
    return GKEstimate(
        slope.lo,
        slope.hi,
        (lo, hi),
        residual,
        m,
        superpoly,
        note="window slope only; the defining infimum is not computable from finite data",
    )


def _interval_sum(intervals):
    total = RatInterval(Fraction(0), Fraction(0))
    for iv in intervals:
        total = total + iv
    return total
