"""Shared builders for randomized tests: algebras, elements, matrices, maps."""

from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import strategies as st

from wreathkit import (
    AlgElement,
    Alphabet,
    Field,
    FreeElement,
    GammaMap,
    Presentation,
    Scalar,
    SMatrix,
    Subspace,
    TruncatedAlgebra,
    TruncationOverflow,
    WreathAlgebra,
    WreathSpan,
    degree_one_generators,
    parse_element,
)
from wreathkit import linalg
from wreathkit.growth import _scale_row
from wreathkit.linalg import Echelon
from wreathkit.quotient import _ESCAPED
from wreathkit.words import Word


def make_algebra(field, gens, relations=(), n=4, unital=False, policy="truncate"):
    alphabet = Alphabet([(g, 1) for g in gens])
    rels = [parse_element(src, alphabet, field) for src in relations]
    return TruncatedAlgebra(Presentation(alphabet, field, rels, unital=unital), n, policy)


def killed_above(field, gens, kill_degree, n=None, unital=False):
    """Free algebra with every word of `kill_degree` set to zero: all products
    are exact within the truncation."""
    alphabet = Alphabet([(g, 1) for g in gens])
    words = [
        "*".join(letters)
        for letters in product(gens, repeat=kill_degree)
    ]
    rels = [parse_element(w, alphabet, field) for w in words]
    n = kill_degree if n is None else n
    return TruncatedAlgebra(Presentation(alphabet, field, rels, unital=unital), n)


def random_element(alg, rng, max_degree=None, density=0.6, unit=False):
    cap = alg.truncation_degree if max_degree is None else max_degree
    terms = {}
    for d in range(1, cap + 1):
        for w in alg.degree_basis(d):
            if rng.random() < density:
                terms[w] = alg.field.sample(rng)
    if unit and alg.unital:
        from wreathkit import EMPTY_WORD

        terms[EMPTY_WORD] = alg.field.sample(rng)
    return alg.element(terms)


def random_smatrix(wa, rng, n_entries=2, row_degree_cap=1, a_degree_cap=None):
    indexing = wa.indexing
    rows = [
        i
        for i in range(1, len(indexing) + 1)
        if indexing.word_at(i).degree <= row_degree_cap
    ]
    entries = {}
    for _ in range(n_entries):
        i = rows[rng.randrange(len(rows))]
        j = rng.randrange(1, len(indexing) + 1)
        a = random_element(wa.a_host, rng, max_degree=a_degree_cap)
        if a:
            entries[(i, j)] = a
    return SMatrix(indexing, wa.a_host, entries)


def random_wreath(wa, rng, b_degree_cap=1, n_entries=2, row_degree_cap=1):
    b = random_element(wa.b_host, rng, max_degree=b_degree_cap)
    s = random_smatrix(wa, rng, n_entries=n_entries, row_degree_cap=row_degree_cap)
    return wa.element(b=b, s=s)


def random_gamma(indexing, a_host, rng, density=0.8):
    values = {}
    for i in range(1, len(indexing) + 1):
        if rng.random() < density:
            a = random_element(a_host, rng, density=0.8)
            if a:
                values[i] = a
    return GammaMap(indexing, a_host, values)


def commutative_dim(m, d):
    """Number of commutative monomials of degree d in m variables, enumerated."""
    return len(set(combinations_with_replacement(range(m), d)))


def enumerate_words(m, d):
    return list(product(range(m), repeat=d))


def _acc(terms: dict, key, c, f):
    """terms[key] += c through `Field` calls, dropping zeros; c is a raw value
    of f.  The oracles' own accumulator, independent of `linalg`'s sums."""
    old = terms.get(key)
    if old is None:
        if not f.is_zero(c):
            terms[key] = c
        return
    s = f.add(old, c)
    if f.is_zero(s):
        del terms[key]
    else:
        terms[key] = s


def rationals(bound, max_den):
    """Q raw values in the three shapes the kernel meets: ints, integral
    Fractions and Fractions k/d with 2 <= d <= max_den, drawn alike; |k| <= bound."""
    k = st.integers(-bound, bound)
    return st.one_of(k, st.builds(Fraction, k), st.builds(Fraction, k, st.integers(2, max_den)))


def assert_raw(field, c):
    """c is a stored coefficient: nonzero; over Q an int (never a bool) or a
    Fraction, never a float; over GF(p) a residue."""
    assert not field.is_zero(c), "a zero coefficient is stored"
    if field.kind == "rational":
        assert type(c) is int or isinstance(c, Fraction), f"{c!r} is not an int or a Fraction"
    else:
        assert isinstance(c, int) and 0 <= c < field.characteristic


class FractionRationals(Field):
    """Q with every raw value a `Fraction`: `zero`, `one`, `from_int`, `inv`
    and `div` return Fractions.  The oracle that `Field.rationals()`, which
    keeps integral values as ints, is compared against; the two fields are
    equal, so elements of the two mix."""

    __slots__ = ()

    def __init__(self):
        super().__init__("rational")
        self.zero, self.one = Fraction(0), Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) * self.inv(b)


def all_fraction_copy(presentation):
    """The presentation over `FractionRationals`, every coefficient a Fraction."""
    fq = FractionRationals()
    relations = [
        FreeElement(presentation.alphabet, fq, {w: Fraction(c) for w, c in r.terms.items()})
        for r in presentation.relations
    ]
    return Presentation(presentation.alphabet, fq, relations, unital=presentation.unital)


@contextmanager
def dense_from(rank):
    """Within the block every `Echelon` over a p below `linalg.DENSE_P_LIMIT`
    packs its rows when its rank first reaches a power of two >= rank,
    however sparse they are."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "DENSE_MIN_RANK", rank)
        mp.setattr(linalg, "DENSE_MIN_FILL", float("inf"))
        yield


@contextmanager
def sparse_only():
    """Within the block no `Echelon` packs its rows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "DENSE_P_LIMIT", 0)
        yield


# -- reference quotient build ---------------------------------------------------
# The degree-by-degree build without the right-action memo, interned words or
# ascending-pivot extension: every term of an extended row replays its tail word
# one letter at a time, the kernel rows are extended generator by generator in
# insertion order, and every sum goes through `_acc`.  The oracle for
# `TruncatedAlgebra._build`.


class ReferenceQuotient:
    """basis[d], reduction (pivot candidate -> normal form) and zero_above."""

    def __init__(self, presentation, truncation_degree):
        self.alphabet = alphabet = presentation.alphabet
        self.field = f = presentation.field
        N = truncation_degree
        by_degree = {}
        for r in presentation.relations:
            by_degree.setdefault(r.degree(), []).append(r)
        self.basis = [[] for _ in range(N + 1)]
        self.reduction = {}
        self.candidates = [[] for _ in range(N + 1)]
        gens = range(len(alphabet))
        kernels = [None] * (N + 1)
        span = max(alphabet.degrees, default=1)
        for d in range(1, N + 1):
            candidates = [alphabet.gen(g) for g in gens if alphabet.degrees[g] == d]
            for g in gens:
                rest = d - alphabet.degrees[g]
                if rest >= 1:
                    for w in self.basis[rest]:
                        candidates.append(Word((g,) + w.letters, d))
            self.candidates[d] = candidates
            ech = Echelon(f)
            for r in by_degree.get(d, ()):
                ech.insert(self.free_to_candidates(r))
            for e in range(1, d):
                kernel = kernels[e]
                if kernel is None:
                    continue
                for g in gens:
                    if e + alphabet.degrees[g] != d:
                        continue
                    for _, row in kernel.pivot_rows():
                        ech.insert(self.extend_right(row, g))
            kernels[d] = ech
            if d > span:
                kernels[d - span] = None
            self.basis[d] = sorted(w for w in candidates if w not in ech)
            for key, row in ech.pivot_rows():
                self.reduction[key] = {w: f.neg(c) for w, c in row.items() if w != key}
        maxg = max(alphabet.degrees, default=0)
        self.zero_above = 1 if maxg == 0 else next(
            (
                d0
                for d0 in range(1, N - maxg + 2)
                if all(not self.basis[d0 + j] for j in range(maxg))
            ),
            None,
        )

    def free_to_candidates(self, element):
        f, vec = self.field, {}
        for w, c in element.terms.items():
            if len(w) == 1:
                _acc(vec, w, c, f)
                continue
            x = w.letters[0]
            xd = self.alphabet.degrees[x]
            for u, beta in self.nf_word(Word(w.letters[1:], w.degree - xd)).items():
                _acc(vec, Word((x,) + u.letters, xd + u.degree), f.mul(c, beta), f)
        return vec

    def extend_right(self, row, g):
        f, vec = self.field, {}
        gd = self.alphabet.degrees[g]
        for cand, c in row.items():
            x = cand.letters[0]
            xd = self.alphabet.degrees[x]
            tail = Word(cand.letters[1:] + (g,), cand.degree - xd + gd)
            for u, beta in self.nf_word(tail).items():
                _acc(vec, Word((x,) + u.letters, xd + u.degree), f.mul(c, beta), f)
        return vec

    def apply_letter(self, x, vec):
        f, out = self.field, {}
        xd = self.alphabet.degrees[x]
        for u, beta in vec.items():
            cand = Word((x,) + u.letters, xd + u.degree)
            red = self.reduction.get(cand)
            if red is None:
                _acc(out, cand, beta, f)
            else:
                for v, gamma in red.items():
                    _acc(out, v, f.mul(beta, gamma), f)
        return out

    def nf_word(self, w):
        letters = w.letters
        last = Word(letters[-1:], self.alphabet.degrees[letters[-1]])
        red = self.reduction.get(last)
        vec = {last: self.field.one} if red is None else dict(red)
        for x in reversed(letters[:-1]):
            if not vec:
                break
            vec = self.apply_letter(x, vec)
        return vec


# -- all-pairs word products ---------------------------------------------------


def all_pairs_mul_terms(alg, a, b, policy):
    """(terms, flag) of the product of two term maps, visiting every word
    pair: the oracle for `_mul_terms`, which settles the pairs outside the
    truncation by degree without looking them up.  Each pair's product is
    `_word_pair_product`, and an `_ESCAPED` one flags the product, or raises
    under `reject`."""
    out, flag = {}, False
    for u, cu in a.items():
        for v, cv in b.items():
            vec = alg._word_pair_product(u, v)
            if vec is _ESCAPED:
                if policy == "reject":
                    raise TruncationOverflow(f"word pair ({u}, {v}) escapes")
                flag = True
                continue
            for w, cw in vec.items():
                out[w] = out.get(w, 0) + cu * cv * cw
    return linalg.reduced(out, alg.field.characteristic), flag


# -- reference host multiplication ---------------------------------------------
# Left multiplication recomputed from scratch by multiplying with every basis
# element b_j, with no tables: the oracle for `BasisIndexing.left_action` and
# everything that reads it.


def reference_product(b, indexing, j):
    """(coordinates of b*b_j, flag of that product), by direct multiplication."""
    terms, flag = b.host._mul_terms(b.terms, indexing.basis_element(j).terms, "truncate")
    prod = AlgElement(b.host, terms, flag or b.flag)
    return indexing.element_coords(prod), prod.flag


def reference_left_mult_matrix(b, indexing):
    """(entries, flag) of L(b): entries {(i, j): c} of every column b*b_j,
    and whether b or some b*b_j was truncated."""
    entries, flag = {}, b.flag
    for j in range(1, len(indexing) + 1):
        coords, escaped = reference_product(b, indexing, j)
        flag = flag or escaped
        for i, c in coords.items():
            entries[(i, j)] = c
    return entries, flag


def _sum_scaled(pieces):
    out = {}
    for key, a, c in pieces:
        s = a.scale(c)
        if s:
            cur = out.get(key)
            out[key] = s if cur is None else cur + s
    return {k: v for k, v in out.items() if v}


def reference_lmul_b(s, b):
    """L(b) S: row k of S is spread along column k of L(b)."""
    idx, flag, pieces = s.indexing, s.flag or b.flag, []
    for (k, j), a in s.entries.items():
        coords, escaped = reference_product(b, idx, k)
        flag = flag or escaped
        pieces.extend(((i, j), a, c) for i, c in coords.items())
    return SMatrix(idx, s.a_host, _sum_scaled(pieces), flag)


def reference_rmul_b(s, b):
    """S L(b), visiting every basis index j; a unipotent indexing flags a
    truncated b*b_j when S has entries in column 1."""
    idx, flag, pieces = s.indexing, s.flag or b.flag, []
    col1_loss = idx.unipotent and 1 in s.column_support()
    for j in range(1, len(idx) + 1):
        coords, escaped = reference_product(b, idx, j)
        flag = flag or (escaped and col1_loss)
        for k, c in coords.items():
            pieces.extend(((i, j), a, c) for (i, kk), a in s.entries.items() if kk == k)
    return SMatrix(idx, s.a_host, _sum_scaled(pieces), flag)


def reference_apply(e, j):
    idx = e.algebra.indexing
    coords, escaped = reference_product(e.b, idx, j)
    b_coords = {i: Scalar(e.algebra.field, c) for i, c in coords.items()}
    return b_coords, e.s.apply_column(j), escaped


# -- reference filtrations ------------------------------------------------------
# Every level built from scratch, as a span of its own: the oracles for the
# filtrations that `power_chain` and `weighted_image_spans` grow in one span.


def brute_products(generators, n):
    """Products of k factors, computed left to right, for k = 1..n."""
    by_length = [list(generators)]
    for _ in range(2, n + 1):
        by_length.append([p * g for p in by_length[-1] for g in generators])
    return by_length


def brute_power_chain(kind, alg, generators, n):
    """Level k (k = 1..n) is a fresh `kind` span of every left-to-right
    product of at most k generators, inexact once one of them is flagged."""
    by_length = brute_products(generators, n)
    return [kind(alg, [p for level in by_length[:k] for p in level]) for k in range(1, n + 1)]


def reference_weighted_image_spans(gamma, v_chain, a_host, n):
    """W_1..W_n of `weighted_image_spans`, each W_m a fresh `Subspace`
    rebuilt at every m: the images gamma(V^i), i <= m, and every product of a
    representative of gamma(V^i) with one of W_{m-i}, i < m.  W_m is inexact
    when an image or a product it receives is flagged, or a G_i = gamma(V^i)
    (i <= m) or W_{m-i} (i < m) it is built from is inexact."""
    gv = []
    for level in v_chain[:n]:
        g = Subspace(a_host, [gamma.apply(v) for v in level.representatives()])
        g.exact = g.exact and level.exact
        gv.append(g)
    ws = []
    for m in range(1, n + 1):
        w = Subspace(a_host)
        exact = True
        for i in range(1, m + 1):
            w.extend(gv[i - 1].representatives())
            exact = exact and gv[i - 1].exact
            if i < m:
                lower = ws[m - i - 1]
                w.extend(s * t for s in gv[i - 1].representatives() for t in lower.representatives())
                exact = exact and lower.exact
        w.exact = w.exact and exact
        ws.append(w)
    return ws


def reference_span_inclusion(b_host, a_host, gamma, n, with_corner=False):
    """(rows, exact) of `span_inclusion_check`, with the predicted span rebuilt
    at every m from all products V^i M_j V^k of weight i + j + k <= m.  The V,
    W and generated chains come from `brute_power_chain` and
    `reference_weighted_image_spans`, not from the code they check."""
    wa = WreathAlgebra(b_host, a_host, indexing=gamma.indexing)
    c = wa.from_matrix(wa.gamma_row(gamma))
    gens = degree_one_generators(b_host)
    b_chain = brute_power_chain(Subspace, b_host, gens, n)
    ws = reference_weighted_image_spans(gamma, b_chain, a_host, n)
    v_chain = [[wa.embed(v) for v in sub.representatives()] for sub in b_chain]
    corner = [wa.from_matrix(wa.matrix_unit(1, 1, a_host.unit()))] if with_corner else []
    u_chain = brute_power_chain(WreathSpan, wa, [wa.embed(v) for v in gens] + [c] + corner, n)
    middle_lists = [[[c]] + [[_scale_row(wa, gamma, a) for a in w.representatives()] for w in ws]]
    if with_corner:
        middle_lists.append(
            [corner]
            + [[wa.from_matrix(wa.matrix_unit(1, 1, a)) for a in w.representatives()] for w in ws]
        )
    g = [1] + [sub.dim for sub in b_chain]
    w = [1] + [sub.dim for sub in ws]
    rows, exact = [], True
    for m in range(1, n + 1):
        rhs = WreathSpan(wa, v_chain[m - 1])
        bound = g[m]
        for i, j, k in product(range(m + 1), repeat=3):
            if i + j + k > m:
                continue
            bound += len(middle_lists) * g[i] * w[j] * g[k]
            for middles in middle_lists:
                for mid in middles[j]:
                    for le in [None] if i == 0 else v_chain[i - 1]:
                        for ri in [None] if k == 0 else v_chain[k - 1]:
                            e = mid if le is None else le * mid
                            rhs.add(e if ri is None else e * ri)
        lhs = u_chain[m - 1]
        included = all(rhs.contains(e) for e in lhs.representatives())
        rows.append((m, lhs.dim, rhs.dim, included, bound, lhs.dim <= bound))
        exact = exact and lhs.exact and rhs.exact
    return rows, exact
