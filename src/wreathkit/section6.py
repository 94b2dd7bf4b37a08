"""Layered nil presentations and the two-letter growth sandwich.

The presentation lives on generators x_1..x_k, y_1..y_k (all degree 1) and
instantiates five relation families: triple products of distinct x's vanish;
a user-supplied two-letter ideal is imposed on every ordered pair (x_i, x_j);
the two-sided ideal of each x_i raised to a scheduled power vanishes (expanded
word-by-word up to the truncation degree); every y_i is central; every y_i
squares to zero.

The sandwich check compares f(n), the cumulative growth of the two-letter
quotient R, against g_k(n), the growth of span{x_1..x_k} in the layered
algebra: f(n) <= g_k(n) <= C(k,2) f(n) on the window n_k <= n < n_{k+2}.
The analytic schedule the construction wants is astronomically beyond desk
scale; miniature schedules run every code path and are reported as
faithful: no.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Optional

from .freealg import FreeElement
from .growth import FiltrationSchedule, growth_dims
from .quotient import Presentation, TruncatedAlgebra
from .scalars import Field
from .words import Alphabet


def build_layered_presentation(
    field: Field,
    k_max: int,
    schedule: FiltrationSchedule,
    j_relations,
    truncation_degree: Optional[int] = None,
    power_word_cap: int = 200_000,
) -> Presentation:
    """Assemble the layered presentation on x_1..x_k, y_1..y_k.

    j_relations are homogeneous elements over any two-letter alphabet; each is
    imposed on every ordered pair (x_i, x_j), i != j, by substituting the
    first letter with x_i and the second with x_j.

    The ideal-power family for x_i uses the scheduled threshold three places
    up; its relations are the words containing x_i at least that many times,
    enumerated only up to the truncation degree (the full family is infinite).
    Thresholds beyond the schedule, or powers that cannot fit under the
    truncation, contribute nothing.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    gens = [(f"x{i}", 1) for i in range(1, k_max + 1)]
    gens += [(f"y{i}", 1) for i in range(1, k_max + 1)]
    alphabet = Alphabet(gens)
    x = list(range(k_max))
    y = list(range(k_max, 2 * k_max))

    def word_elem(letters):
        return FreeElement.from_word(alphabet, field, alphabet.word(letters))

    relations = []

    # triple products of pairwise distinct x's
    for i, j, k in product(x, x, x):
        if i != j and j != k and i != k:
            relations.append(word_elem((i, j, k)))

    # the two-letter ideal on every ordered pair of x's
    for rel in j_relations:
        if len(rel.alphabet) != 2:
            raise ValueError("pair relations must use a two-letter alphabet")
        if rel.field != field:
            raise ValueError("pair relation over a different field")
        if not rel.is_homogeneous() or not rel:
            raise ValueError("pair relations must be nonzero homogeneous")
        for i, j in product(x, x):
            if i == j:
                continue
            terms = {}
            for w, c in rel.terms.items():
                sub = tuple(i if letter == 0 else j for letter in w.letters)
                terms[alphabet.word(sub)] = c
            relations.append(FreeElement(alphabet, field, terms))

    # scheduled ideal powers, expanded degree by degree under the truncation
    if truncation_degree is not None:
        for pos, xi in enumerate(x, start=1):
            slot = pos + 3
            if slot > len(schedule):
                continue
            power = schedule.threshold(slot)
            if power > truncation_degree:
                continue
            total = sum(
                comb(d, j) * (2 * k_max - 1) ** (d - j)
                for d in range(power, truncation_degree + 1)
                for j in range(power, d + 1)
            )
            if total > power_word_cap:
                raise ValueError(
                    f"ideal-power family for x{pos} needs {total} words; "
                    f"raise power_word_cap or shrink the instance"
                )
            others = [g for g in range(2 * k_max) if g != xi]
            for d in range(power, truncation_degree + 1):
                for j in range(power, d + 1):
                    for places in combinations(range(d), j):
                        rest = d - j
                        for filler in product(others, repeat=rest):
                            letters, fi = [], 0
                            place_set = set(places)
                            for pos_d in range(d):
                                if pos_d in place_set:
                                    letters.append(xi)
                                else:
                                    letters.append(filler[fi])
                                    fi += 1
                            relations.append(word_elem(tuple(letters)))

    # the y's are central and square to zero
    for yi in y:
        for g in x + y:
            if g == yi:
                continue
            a = word_elem((g, yi))
            b = word_elem((yi, g))
            relations.append(a - b)
        relations.append(word_elem((yi, yi)))

    # drop duplicate relations (commutators appear once per unordered pair);
    # raw values are canonical, so equal relations have equal term sets
    seen, unique = set(), []
    for r in relations:
        key = frozenset(r.terms.items())
        if key in seen or frozenset((-r).terms.items()) in seen:
            continue
        seen.add(key)
        unique.append(r)
    return Presentation(alphabet, field, unique, unital=False)


@dataclass
class SandwichRow:
    n: int
    k: int
    f: int
    g: int
    lower_ok: Optional[bool]
    upper_ok: Optional[bool]
    exact: bool
    note: str = ""


@dataclass
class SandwichReport:
    rows: list
    faithful: bool
    faithful_rows: list
    exact: bool

    @property
    def ok(self):
        return all(
            r.lower_ok and r.upper_ok for r in self.rows if r.note == ""
        )


def sandwich_check(
    layered: TruncatedAlgebra,
    two_letter: TruncatedAlgebra,
    schedule: FiltrationSchedule,
    k: int,
    n_values,
) -> list:
    """Rows of the growth sandwich for one window index k.

    f(n) is the cumulative dimension of the two-letter quotient, g_k(n) the
    growth of span{x_1..x_k}; the claim needs k >= 2 and n in
    [n_k, n_{k+2}) -- outside that the row reports a precondition violation
    instead of a verdict.
    """
    if k > len(schedule):
        raise ValueError(f"window index {k} beyond the schedule")
    n_values = sorted(n_values)
    top = n_values[-1]
    if top > layered.truncation_degree or top > two_letter.truncation_degree:
        raise ValueError("requested range outside a truncation")

    f_cum = []
    total = 0
    for d in range(1, top + 1):
        total += two_letter.graded_dim(d)
        f_cum.append(total)

    one = layered.field.one
    x_gens = [
        layered.element({layered.alphabet.gen(i): one}) for i in range(k)
    ]
    g_dims = growth_dims(layered, x_gens, top)

    lo = schedule.threshold(k)
    hi = schedule.threshold(k + 2) if k + 2 <= len(schedule) else None
    binom = comb(k, 2)
    rows = []
    for n in n_values:
        f_n = f_cum[n - 1]
        g_n, exact = g_dims[n - 1]
        if k < 2:
            rows.append(SandwichRow(n, k, f_n, g_n, None, None, exact, "window index below 2"))
            continue
        if n < lo or (hi is not None and n >= hi):
            rows.append(SandwichRow(n, k, f_n, g_n, None, None, exact, "precondition violated"))
            continue
        rows.append(
            SandwichRow(n, k, f_n, g_n, f_n <= g_n, g_n <= binom * f_n, exact)
        )
    return rows


def sandwich_report(
    layered: TruncatedAlgebra,
    two_letter: TruncatedAlgebra,
    schedule: FiltrationSchedule,
) -> SandwichReport:
    """The full sandwich sweep: every window index k >= 2 with a nonempty
    range inside the truncation, plus the certified schedule-faithfulness
    verdict."""
    top = min(layered.truncation_degree, two_letter.truncation_degree)
    rows = []
    for k in range(2, len(schedule) + 1):
        lo = schedule.threshold(k)
        hi = schedule.threshold(k + 2) if k + 2 <= len(schedule) else None
        upper = top if hi is None else min(top, hi - 1)
        if lo > upper:
            continue
        rows.extend(
            sandwich_check(layered, two_letter, schedule, k, range(lo, upper + 1))
        )
    faithful, faithful_rows = schedule.faithful()
    exact = all(r.exact for r in rows)
    return SandwichReport(rows, faithful, faithful_rows, exact)
