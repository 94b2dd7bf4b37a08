"""Layered nil presentations and the two-letter growth sandwich.

The layered presentation lives on generators x_1..x_k, y_1..y_k (all degree
1) and instantiates five relation families: triple products of distinct x's
vanish; a user-supplied two-letter ideal is imposed on every ordered pair
(x_i, x_j); the two-sided ideal of each x_i raised to a scheduled power
vanishes (expanded word-by-word up to the truncation degree); every y_i is
central; every y_i squares to zero.

The sandwich check compares f(n), the cumulative growth of the two-letter
quotient R, against g_k(n), the growth of span{x_1..x_k} in the layered
algebra: f(n) <= g_k(n) <= C(k,2) f(n) on the window n_k <= n < n_{k+2}.
g_k reads only the subalgebra the x's generate, and `x_part_presentation`
presents that subalgebra on the x's alone, far smaller than the layered
algebra.  The analytic schedule the construction wants is astronomically
beyond desk scale; miniature schedules run every code path and are reported
as faithful: no.
"""

from __future__ import annotations

from itertools import accumulate, combinations, product
from math import comb

from .freealg import FreeElement
from .growth import FiltrationSchedule, growth_dims
from .linalg import Record
from .quotient import Presentation, TruncatedAlgebra
from .scalars import Field
from .words import Alphabet


def _ideal_powers(k_max, schedule, truncation_degree):
    """(i, t): x_(i+1) with the scheduled threshold t three places up, for
    every t that fits under the truncation (the family of x_(i+1) is then
    every word with at least t letters x_(i+1))."""
    for i in range(k_max):
        slot = i + 4
        if slot <= len(schedule) and schedule.threshold(slot) <= truncation_degree:
            yield i, schedule.threshold(slot)


def _x_relations(alphabet, field, k_max, j_relations):
    """The triple products of distinct x's and every J relation on every
    ordered pair (x_i, x_j); x_(i+1) is letter i of the alphabet."""

    def word_elem(letters):
        return FreeElement.from_word(alphabet, field, alphabet.word(letters))

    x = range(k_max)
    relations = [
        word_elem((i, j, k)) for i, j, k in product(x, x, x) if i != j and j != k and i != k
    ]
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
    return relations


def _presentation(alphabet, field, relations):
    """The non-unital presentation with one relation per class of equal or
    opposite relations; raw values are canonical, so equal relations have
    equal term sets."""
    seen, unique = set(), []
    for r in relations:
        key = frozenset(r.terms.items())
        if key in seen or frozenset((-r).terms.items()) in seen:
            continue
        seen.add(key)
        unique.append(r)
    return Presentation(alphabet, field, unique, unital=False)


def build_layered_presentation(
    field: Field,
    k_max: int,
    schedule: FiltrationSchedule,
    j_relations,
    truncation_degree: int | None = None,
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
    truncation, contribute nothing.  The sandwich reads this algebra through
    `x_part_presentation`; this one is the paper's object.
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

    relations = _x_relations(alphabet, field, k_max, j_relations)

    # scheduled ideal powers, expanded degree by degree under the truncation
    if truncation_degree is not None:
        for xi, power in _ideal_powers(k_max, schedule, truncation_degree):
            total = sum(
                comb(d, j) * (2 * k_max - 1) ** (d - j)
                for d in range(power, truncation_degree + 1)
                for j in range(power, d + 1)
            )
            if total > power_word_cap:
                raise ValueError(
                    f"ideal-power family for x{xi + 1} needs {total} words; "
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

    return _presentation(alphabet, field, relations)


def x_part_presentation(
    field: Field,
    k_max: int,
    schedule: FiltrationSchedule,
    j_relations,
    truncation_degree: int | None = None,
    power_word_cap: int = 200_000,
) -> Presentation:
    """The x-part X of the layered algebra, presented on x_1..x_kmax alone.

    Its relations are the x-only families of `build_layered_presentation`:
    the triple products, the pair copies of J, and the ideal powers, each
    listed by its minimal generators.  For x_i with threshold t these are the
    words x_i*u_1*x_i...u_(t-1)*x_i of degree <= truncation_degree, each u_j
    a word in the other x letters; `power_word_cap` bounds their number per
    family.

    Why the sandwich may read g_k in X.  Let A be the layered algebra (same
    arguments, same truncation N) and L = F[y_1..y_kmax]/(y_i^2).

    - The tensor split: A is the non-unital part of X+ (x) L, X+ being X
      with a unit adjoined, and x -> x (x) 1 embeds X in A.  Modulo the y
      relations (central, square zero) a word of A equals m*w, m the
      y-monomial of its y letters and w its x-word.  An ideal-power word of
      A with y letters is so m*w, where w keeps all the word's letters x_i,
      at least t of them, and has degree at most the word's, at most N: an
      ideal-power word of the x-only family.  The triples and pair copies
      are x-words already.  So A and X+ (x) L have the same relations up to
      degree N.  Every relation is homogeneous in the y letters, and A's
      y-degree-zero part, spanned by the x-words, is X (x) 1, a copy of X.
      The subalgebra generated by x_1..x_k lies in it, so g_k is the same in
      X as in A.  It must be computed in X with all kmax letters: x_j -> 0
      need not map the pair copies into the ideal (J = x^2 - x*y gives
      x_i^2 - x_i*x_j -> x_i^2), so a presentation on x_1..x_k alone can
      have other dimensions.
    - The minimal generators: a word with at least t letters x_i contains
      the factor from its first x_i to its t-th, x_i*u_1*x_i...u_(t-1)*x_i,
      whose u_j avoid x_i and whose degree is at most the word's.  So every
      ideal-power word of degree <= N lies in the ideal of the minimal
      generators of degree <= N, which are ideal-power words themselves:
      both families generate the same ideal in every degree <= N.

    Every letter of X has degree one, so g_kmax(n) is X's cumulative graded
    dimension (see `sandwich_check`).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    alphabet = Alphabet([(f"x{i}", 1) for i in range(1, k_max + 1)])
    relations = _x_relations(alphabet, field, k_max, j_relations)
    if truncation_degree is not None:
        for xi, power in _ideal_powers(k_max, schedule, truncation_degree):
            total = sum(
                comb(d - 2, power - 2) * (k_max - 1) ** (d - power)
                for d in range(power, truncation_degree + 1)
            )
            if total > power_word_cap:
                raise ValueError(
                    f"ideal-power family for x{xi + 1} needs {total} minimal generators; "
                    f"raise power_word_cap or shrink the instance"
                )
            others = [g for g in range(k_max) if g != xi]
            for letters in _power_generators(xi, others, power, truncation_degree):
                relations.append(FreeElement.from_word(alphabet, field, alphabet.word(letters)))
    return _presentation(alphabet, field, relations)


def _power_generators(xi, others, power, top):
    """The words xi*u_1*xi...u_(power-1)*xi of degree <= top, every u_j a
    word in `others`: the first and last letter are xi, and power - 2 more
    xi sit among the inner places (a scheduled power is at least 4)."""
    for d in range(power, top + 1):
        for inner in combinations(range(1, d - 1), power - 2):
            places = {0, d - 1, *inner}
            for filler in product(others, repeat=d - power):
                rest = iter(filler)
                yield tuple(xi if p in places else next(rest) for p in range(d))


class SandwichRow(Record):
    __slots__ = ("n", "k", "f", "g", "lower_ok", "upper_ok", "exact", "note")  # *_ok: bool | None
    _defaults = {"note": ""}


class SandwichReport(Record):
    __slots__ = ("rows", "faithful", "faithful_rows", "exact")

    @property
    def ok(self):
        """At least one row carries a verdict, and every verdict holds."""
        verdicts = [r.lower_ok and r.upper_ok for r in self.rows if r.note == ""]
        return bool(verdicts) and all(verdicts)


def _x_letter_count(alg: TruncatedAlgebra) -> int:
    """How many of alg's letters, from the first on, are x1, x2, ..."""
    names = alg.alphabet.names
    k = 0
    while k < len(names) and names[k] == f"x{k + 1}":
        k += 1
    return k


def sandwich_check(
    layered: TruncatedAlgebra,
    two_letter: TruncatedAlgebra,
    schedule: FiltrationSchedule,
    k: int,
    n_values,
) -> list:
    """Rows of the growth sandwich for one window index k.

    f(n) is the cumulative dimension of the two-letter quotient, g_k(n) the
    growth of span{x_1..x_k} in `layered`, the layered algebra or its x-part
    (`x_part_presentation`); x_1..x_k must be its first k letters.  When
    they are all its letters and have degree one, they span A_1 and A_d is
    A_1^d, so g_k(n) is the cumulative graded dimension, exact for n <= N;
    otherwise g_k comes from the closure (`growth_dims`).  The claim needs
    k >= 2 and n in [n_k, n_{k+2}) -- outside that the row reports a
    precondition violation instead of a verdict.
    """
    if k > len(schedule):
        raise ValueError(f"window index {k} beyond the schedule")
    if k > _x_letter_count(layered):
        raise ValueError(f"x1..x{k} are not letters of the algebra")
    n_values = sorted(n_values)
    top = n_values[-1]
    if top > layered.truncation_degree or top > two_letter.truncation_degree:
        raise ValueError("requested range outside a truncation")

    degrees = range(1, top + 1)
    f_cum = list(accumulate(two_letter.graded_dim(d) for d in degrees))
    if k == len(layered.alphabet) and set(layered.alphabet.degrees) == {1}:
        g_dims = [(g, True) for g in accumulate(layered.graded_dim(d) for d in degrees)]
    else:
        g_dims = growth_dims(layered, [layered.gen(i) for i in range(k)], top)

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
    """The full sandwich sweep: every window index 2 <= k <= kmax with a
    nonempty range inside the truncation, kmax the number of x letters,
    plus the certified schedule-faithfulness verdict."""
    top = min(layered.truncation_degree, two_letter.truncation_degree)
    rows = []
    for k in range(2, min(_x_letter_count(layered), len(schedule)) + 1):
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
