"""Relation counting: the Golod-Shafarevich condition in exact arithmetic.

For m generators and a census {degree: relation count}, the count polynomial

    phi(t) = 1 - m*t + sum_d census[d] * t^d

decides infinite-dimensionality when phi(t0) < 0 for some rational
t0 in (0, 1).  phi is convex on [0, 1] (every census coefficient is >= 0, so
phi'' >= 0), which lets a Sturm root count certify unsatisfiability exactly:
with phi(0) = 1, the set {phi < 0} meets (0, 1) iff phi(1) < 0, or phi(1) = 0
and phi has a root strictly inside, or phi(1) > 0 and phi crosses twice.

Witness search scans reduced fractions in (1/m, 1) with denominator up to a
bound, in increasing value, and returns the smallest satisfying one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

# Largest denominator bound the witness search takes.  It lists every reduced
# fraction up to the bound before it tests one, so its time grows with the
# square of the bound: 0.5 s at this bound and 2.2 s at 1,000 for
# `-m 3 --census 2:1` on a 2-vCPU x86-64 VM under Python 3.11.
MAX_DENOMINATOR_BOUND = 500


@dataclass
class GSReport:
    status: str  # satisfied | not-satisfied-at-t0 | unsatisfiable | no-witness-up-to-bound
    t0: Optional[Fraction]
    value: Optional[Fraction]
    note: str = ""

    @property
    def satisfied(self) -> bool:
        return self.status == "satisfied"


# -- dense rational polynomials, coefficient lists by ascending power -----


def _p_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _p_eval(p, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * t + c
    return acc


def _p_deriv(p):
    return _p_trim([c * k for k, c in enumerate(p)][1:])


def _p_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] * inv
        q[k] = c
        for j, bc in enumerate(b):
            a[k + j] -= c * bc
    return _p_trim(q), _p_trim(a)


def _p_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, _p_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _sign_changes(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def _sturm_distinct_roots(p, a: Fraction, b: Fraction) -> int:
    """Distinct real roots of p in the half-open interval (a, b].

    Requires p(a) != 0; multiple roots are counted once (the chain starts
    from the squarefree part).
    """
    g = _p_gcd(p, _p_deriv(p))
    sf = _p_divmod(p, g)[0] if len(g) > 1 else list(p)
    if len(sf) <= 1:
        return 0
    chain = [sf, _p_deriv(sf)]
    while len(chain[-1]) > 1:
        rem = _p_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    va = _sign_changes([_p_eval(q, a) for q in chain])
    vb = _sign_changes([_p_eval(q, b) for q in chain])
    return va - vb


def count_polynomial(m: int, census: dict) -> list:
    """Coefficients of 1 - m*t + sum census[d] t^d, ascending powers."""
    degree = max(census) if census else 1
    p = [Fraction(0)] * (degree + 1)
    p[0] = Fraction(1)
    p[1] = Fraction(-m)
    for d, count in census.items():
        if d < 1 or count < 0:
            raise ValueError("census maps degrees >= 1 to counts >= 0")
        p[d] += Fraction(count)
    return _p_trim(p)


def _witness_candidates(m: int, bound: int):
    """Reduced fractions in (1/m, 1) with denominator <= bound, ascending."""
    from math import gcd

    seen = set()
    out = []
    for q in range(2, bound + 1):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            t = Fraction(p, q)
            if Fraction(1, m) < t < 1 and t not in seen:
                seen.add(t)
                out.append(t)
    out.sort()
    return out


def golod_shafarevich_check(
    m: int,
    census: dict,
    t0: Optional[Fraction] = None,
    denominator_bound: int = 5,
) -> GSReport:
    """Decide the relation-count condition, or evaluate it at a given t0.

    With t0 given: exact evaluation and sign report.  Without: a certified
    satisfiability decision, then a search for the smallest rational witness
    with denominator up to the bound.
    """
    if m < 2:
        raise ValueError("the condition needs at least 2 generators")
    if not 1 <= denominator_bound <= MAX_DENOMINATOR_BOUND:
        raise ValueError(
            f"denominator bound {denominator_bound} is not between 1 and {MAX_DENOMINATOR_BOUND}"
        )
    phi = count_polynomial(m, census)

    if t0 is not None:
        t0 = Fraction(t0)
        if not (0 < t0 < 1):
            raise ValueError("t0 must lie strictly between 0 and 1")
        value = _p_eval(phi, t0)
        status = "satisfied" if value < 0 else "not-satisfied-at-t0"
        return GSReport(status, t0, value)

    v1 = _p_eval(phi, Fraction(1))
    if v1 < 0:
        satisfiable = True
    else:
        # strip (t - 1) factors so the Sturm endpoint is regular
        psi = list(phi)
        while psi and _p_eval(psi, Fraction(1)) == 0:
            psi = _p_divmod(psi, [Fraction(-1), Fraction(1)])[0]
        inner = _sturm_distinct_roots(psi, Fraction(0), Fraction(1)) if len(psi) > 1 else 0
        satisfiable = inner >= (1 if v1 == 0 else 2)

    if not satisfiable:
        return GSReport(
            "unsatisfiable",
            None,
            None,
            note="the convex count polynomial is >= 0 on (0, 1); certified by root counting",
        )
    for t in _witness_candidates(m, denominator_bound):
        value = _p_eval(phi, t)
        if value < 0:
            return GSReport("satisfied", t, value)
    return GSReport(
        "no-witness-up-to-bound",
        None,
        None,
        note=f"satisfiable, but no witness with denominator <= {denominator_bound}",
    )


def census_from_blocks(blocks, t0: Fraction):
    """Worst-case census for blocks (n_i, r_i): r_i relations of degree >= n_i.

    Returns the census placing the r_i at degree n_i together with the bound
    sum_i r_i * t0**n_i contributed to the count polynomial.
    """
    t0 = Fraction(t0)
    if not (0 < t0 < 1):
        raise ValueError("t0 must lie strictly between 0 and 1")
    census = {}
    bound = Fraction(0)
    for n_i, r_i in blocks:
        if n_i < 1 or r_i < 0:
            raise ValueError("blocks are (degree >= 1, count >= 0) pairs")
        census[n_i] = census.get(n_i, 0) + r_i
        bound += r_i * t0**n_i
    return census, bound
