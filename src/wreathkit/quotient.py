"""Exact degree-truncated computation in finitely presented graded algebras.

A presentation has homogeneous relations R over a graded alphabet; the
truncated algebra is the quotient computed exactly in every degree d <= N.
The degree-d component of the defining ideal satisfies the two-sided
recurrence

    I_d  =  sum_x x*I_{d - deg x}  +  sum_x I_{d - deg x}*x  +  span(R_d),

which is complete: any u*r*v either starts with a letter (first summand,
peeling u), or ends with one (second summand, peeling v), or is a relation of
degree d itself.

The builder never enumerates the full word space of a degree.  Each component
is represented in the coordinates of the already-built quotient: a word x*w
of degree d is stored as the candidate `x * (class of w)` with w a normal
word of degree d - deg(x).  In these coordinates the left summand
x*I_{d - deg x} vanishes identically, so only the relations of degree d plus
the right translates of the previous eliminant rows need echelonizing --
a space of size (#generators x dim of the quotient), not m^d.  Pivots are the
deglex-greatest candidate words; normal-form words are exactly the non-pivot
candidates, reproducing the staircase a full word-space echelon would pick.

Right translation costs one letter step per term.  Every suffix of a normal
word is normal, so for u = a*u' the normal form nf(u*g) is a * nf(u'*g): one
`_apply_letter` on a normal form found before.  The build memoizes nf(u*g)
by degree and keeps the last 2s degrees, s the largest generator degree:
degree d reads degrees d - s .. d - 1, and one letter down from those at
least d - 2s; lower degrees are hardly ever read again.  The memo lives
only while the build runs.  A relation term x*a*b*w'' is read the same way,
as a * b * nf(w''), from a memo of the suffixes w'' kept only while one
degree's relations are inserted.  Each candidate word x*u is made once, when
its degree's candidates are listed, and looked up from then on, so the basis,
the reduction table and every normal form share one instance per word and
dict lookups succeed on identity.  Each kernel's rows are extended in
ascending pivot order, generators innermost: the leading words of the new
rows then mostly arrive in ascending order, and `Echelon.insert` finds
almost no earlier row to back-reduce.  The inserted set is the same in any
order, so the basis and the reductions are too.  An extension that is
empty, or a multiple c*w of one word whose row is {w: 1}, reduces to zero
and is not inserted: the bench's `sandwich_k4_N10` build skips 65,286 of
its 103,021 inserts that way.  Products of basis words after the build rest
on the same fact: `_normal` records each basis word's tail, and
`_word_pair_product` extends the cached product of the tail by one letter
step.

Degrees above N follow the overflow policy: `reject` raises, `truncate`
drops the escaping terms and flags the element so downstream dimension
reports can mark themselves as lower bounds.  When the computed dimensions
certify that every component above some degree is zero (a zero window of
length max generator degree), products beyond N are exact zeros, not
truncations, and no flag is raised.
"""

from __future__ import annotations

from types import MappingProxyType

from .freealg import Combination, FreeElement
from .linalg import Echelon, Span, closure, reduced
from .scalars import Field, FieldMismatchError
from .words import EMPTY_WORD, Alphabet, Word


# The reduction of a pivot candidate that is zero in the quotient; all such
# pivots share this one read-only mapping.
_NO_TERMS = MappingProxyType({})


class PresentationError(ValueError):
    pass


class TruncationOverflow(ArithmeticError):
    """A product escaped the truncation degree under the `reject` policy."""


class Presentation:
    """A graded presentation: alphabet, homogeneous relations, unital flag."""

    __slots__ = ("alphabet", "field", "relations", "unital")

    def __init__(self, alphabet: Alphabet, field: Field, relations=(), unital=False):
        self.alphabet = alphabet
        self.field = field
        self.relations = tuple(relations)
        self.unital = bool(unital)
        for r in self.relations:
            if r.alphabet != alphabet:
                raise PresentationError("relation over a different alphabet")
            if r.field != field:
                raise PresentationError("relation over a different field")
            if not r:
                raise PresentationError("zero relation")
            if not r.is_homogeneous():
                text = r.format()
                if len(text) > 80:
                    text = text[:80] + "…"
                raise PresentationError(f"inhomogeneous relation: {text}")
            if EMPTY_WORD in r.terms:
                raise PresentationError("relations may not involve the empty word")

    def __eq__(self, other):
        return (
            isinstance(other, Presentation)
            and self.alphabet == other.alphabet
            and self.field == other.field
            and self.unital == other.unital
            and sorted(self.relations, key=lambda r: sorted(r.terms))
            == sorted(other.relations, key=lambda r: sorted(r.terms))
        )

    def __repr__(self):
        return (
            f"Presentation({self.alphabet!r}, {self.field!r}, "
            f"{len(self.relations)} relations, unital={self.unital})"
        )


class TruncatedAlgebra:
    """A finitely presented graded algebra computed exactly up to degree N."""

    def __init__(self, presentation: Presentation, truncation_degree: int, policy="truncate"):
        if policy not in ("truncate", "reject"):
            raise ValueError(f"unknown overflow policy {policy!r}")
        if truncation_degree < 1:
            raise ValueError("truncation degree must be >= 1")
        self.presentation = presentation
        self.alphabet = presentation.alphabet
        self.field = presentation.field
        self.unital = presentation.unital
        self.truncation_degree = truncation_degree
        self.policy = policy

        by_degree = {}
        for r in presentation.relations:
            d = r.degree()
            if d > truncation_degree:
                raise PresentationError(
                    f"relation of degree {d} exceeds the truncation degree {truncation_degree}"
                )
            by_degree.setdefault(d, []).append(r)

        self._basis = [[] for _ in range(truncation_degree + 1)]
        self._normal = {}  # basis word x*u -> its tail u (a basis word, or EMPTY_WORD)
        self._reduction = {}  # pivot candidate word -> normal-form expansion
        self._pair_cache = {}  # basis word u -> {basis word v: (nf vector, escaped)}
        self._build(by_degree)
        self._zero_above = self._zero_certificate()

    # -- construction ---------------------------------------------------

    def _build(self, relations_by_degree):
        p, one = self.field.characteristic, self.field.one
        degrees = self.alphabet.degrees
        gens = range(len(degrees))
        N = self.truncation_degree
        span = max(degrees, default=1)
        # intern[x]: normal word u -> the candidate word x*u, made once when
        # its degree's candidates are listed (x itself under the empty word)
        intern = self._intern = [{EMPTY_WORD: self.alphabet.gen(x)} for x in gens]
        # kernels[e]: the degree-e eliminant, kept only while a later degree
        # d = e + deg(g) still extends it on the right
        kernels = [None] * (N + 1)
        # memo[k]: letters of u*g -> nf(u*g), for normal u and deg(u*g) = k
        memo = {}
        normal = self._normal
        for d in range(1, N + 1):
            # candidates: each candidate word x*u of degree d -> its tail u
            candidates = {intern[x][EMPTY_WORD]: EMPTY_WORD for x in gens if degrees[x] == d}
            for x in gens:
                rest = d - degrees[x]
                if rest >= 1:
                    xi = intern[x]
                    for w in self._basis[rest]:
                        xi[w] = cand = Word((x,) + w.letters, d)
                        candidates[cand] = w
            ech = Echelon(self.field)
            # relation tails share suffixes; their normal forms are kept only
            # while this degree's relations are inserted
            tails = {}
            for r in relations_by_degree.get(d, ()):
                ech.insert(self._free_to_candidates(r, tails))
            del tails
            for e in range(max(1, d - span), d):
                right = [g for g in gens if e + degrees[g] == d]
                if kernels[e] is None or not right:
                    continue
                # leading words lead(row)*g then arrive in ascending order, so
                # back-reduction in `insert` finds almost no row above them
                for row in kernels[e].ordered_rows():
                    for g in right:
                        ext = self._extend_right(row, g, memo)
                        # an empty extension, or a multiple of a word whose row
                        # is that word alone, reduces to zero: no insert
                        if len(ext) > 1 or ext and not ech.is_unit_row(next(iter(ext))):
                            ech.insert(ext)
            kernels[d] = ech
            if d > span:
                kernels[d - span] = None
            # degree d + 1 reads nf(u*g) of degrees > d - span, and one letter
            # step below those; lower levels would rarely be hit again
            for k in [k for k in memo if k <= d - 2 * span]:
                del memo[k]
            pivots = ech.pivots
            self._basis[d] = basis = sorted(w for w in candidates if w not in pivots)
            for w in basis:
                normal[w] = candidates[w]
            # a coefficient 1 is stored as the field's `one` itself, which
            # `_apply_letter` and `_extend_right` then pass on unmultiplied
            for key, row in ech.pivot_rows():
                if len(row) == 1:
                    self._reduction[key] = _NO_TERMS
                elif p:
                    self._reduction[key] = {w: p - c for w, c in row.items() if w is not key}
                else:
                    self._reduction[key] = {
                        w: one if c == -1 else -c for w, c in row.items() if w is not key
                    }

    def _free_to_candidates(self, element: FreeElement, memo: dict) -> dict:
        """Coordinates of a homogeneous free element in the candidate space.

        A term x*a*b*w'' goes to x * (a * (b * nf(w''))): the normal forms
        of the suffixes w'' are read through `_right_nf`, so `memo` shares
        them between terms.  Memoizing the two longer suffixes as well saved
        another 1,400 of the 36,389 letter steps of the bench's
        `sandwich_k4_N10` build, but raised its peak RSS by 0.2-0.3 MB.
        """
        degrees = self.alphabet.degrees
        vec = {}
        for w, c in element.terms.items():
            letters = w.letters
            xi = self._intern[letters[0]]
            split = min(len(letters), 3)
            inner = w.degree - sum(degrees[g] for g in letters[:split])
            tail = self._right_nf(letters[split:], inner, memo)  # {EMPTY_WORD: 1} if empty
            for a in reversed(letters[1:split]):
                tail = self._apply_letter(a, tail)
            for u, beta in tail.items():
                vec[xi[u]] = vec.get(xi[u], 0) + c * beta
        return reduced(vec, self.field.characteristic)

    def _extend_right(self, row: dict, g: int, memo: dict) -> dict:
        """Image of an eliminant row under right multiplication by generator g.

        A candidate x*u of the row goes to the candidates x*v of
        nf(u*g) = sum beta_v v, read from `memo` (see `_right_nf`).
        """
        p, one = self.field.characteristic, self.field.one
        degrees = self.alphabet.degrees
        intern = self._intern
        gd = degrees[g]
        out = {}
        get = out.get
        for cand, c in row.items():
            letters = cand.letters
            x = letters[0]
            xi = intern[x]
            key, k = letters[1:] + (g,), cand.degree - degrees[x] + gd
            level = memo.get(k)
            nf = None if level is None else level.get(key)
            if nf is None:
                nf = self._right_nf(key, k, memo)
            for u, beta in nf.items():
                w = xi[u]
                t = c if beta is one else c * beta
                old = get(w)
                out[w] = t if old is None else old + t
        # `linalg.reduced`, inline: this runs once per letter step
        if p:
            return {w: r for w, t in out.items() if (r := t % p)}
        return {w: t for w, t in out.items() if t}

    def _right_nf(self, letters: tuple, degree: int, memo: dict) -> dict:
        """nf of the word with these letters and degree (in the build, u*g).

        For a word a*w the normal form is nf(a*w) = a * nf(w): one
        `_apply_letter` on the memoized normal form of the shorter word.
        `memo` keeps them by degree: the build keeps one across degrees for
        the right translates u*g, and one per degree for the suffixes of
        relation tails.
        """
        degrees = self.alphabet.degrees
        todo = []
        vec = None
        while letters:
            level = memo.get(degree)
            if level is None:
                level = memo[degree] = {}
            vec = level.get(letters)
            if vec is not None:
                break
            todo.append((level, letters))
            degree -= degrees[letters[0]]
            letters = letters[1:]
        if vec is None:
            vec = {EMPTY_WORD: self.field.one}
        for level, letters in reversed(todo):
            vec = level[letters] = self._apply_letter(letters[0], vec)
        return vec

    def _apply_letter(self, x: int, vec: dict) -> dict:
        """Left multiplication of a normal-coordinate vector by generator x.

        The arithmetic is inline, as in `_mul_terms`.  A coefficient that is
        the field's `one` itself (a normal word's own coefficient, or a 1 in
        the reduction table) is passed on without a multiplication.
        """
        p, one = self.field.characteristic, self.field.one
        xi = self._intern[x]
        reduction = self._reduction
        out = {}
        get = out.get
        for u, beta in vec.items():
            cand = xi[u]
            red = reduction.get(cand)
            if red is None:
                old = get(cand)
                out[cand] = beta if old is None else old + beta
                continue
            for v, gamma in red.items():
                t = gamma if beta is one else beta * gamma
                old = get(v)
                out[v] = t if old is None else old + t
        # `linalg.reduced`, inline: this runs once per letter step
        if p:
            return {w: r for w, t in out.items() if (r := t % p)}
        return {w: t for w, t in out.items() if t}

    def _nf_word(self, w: Word) -> dict:
        """Normal form of a word of degree <= N, as normal-word coordinates."""
        vec = {EMPTY_WORD: self.field.one}
        for x in reversed(w.letters):
            if not vec:
                break
            vec = self._apply_letter(x, vec)
        return vec

    def _zero_certificate(self):
        """Least d0 with a certified A_e = 0 for all e >= d0, if any.

        A zero window of length max(generator degree) inside [1, N] forces all
        higher components to vanish, because every component is spanned by
        products generator x lower component.
        """
        maxg = max(self.alphabet.degrees, default=0)
        if maxg == 0:
            return 1  # no generators at all
        N = self.truncation_degree
        for d0 in range(1, N - maxg + 2):
            if all(not self._basis[d0 + j] for j in range(maxg)):
                return d0
        return None

    # -- inspection -------------------------------------------------------

    def graded_dim(self, d: int) -> int:
        if d == 0:
            return 1 if self.unital else 0
        if d > self.truncation_degree:
            raise ValueError(f"degree {d} exceeds the truncation degree")
        return len(self._basis[d])

    def degree_basis(self, d: int):
        if d == 0:
            return [EMPTY_WORD] if self.unital else []
        if d > self.truncation_degree:
            raise ValueError(f"degree {d} exceeds the truncation degree")
        return list(self._basis[d])

    def ideal_dim(self, d: int) -> int:
        """dim of the degree-d ideal component = word count minus quotient dim."""
        if d < 1 or d > self.truncation_degree:
            raise ValueError("degree out of range")
        return self.alphabet.word_count(d) - len(self._basis[d])

    def total_dim(self, up_to=None) -> int:
        up_to = self.truncation_degree if up_to is None else up_to
        n = 1 if self.unital else 0
        return n + sum(len(self._basis[d]) for d in range(1, up_to + 1))

    def basis_words(self):
        """All basis words, degree-major deglex (the unit word first if unital)."""
        out = [EMPTY_WORD] if self.unital else []
        for d in range(1, self.truncation_degree + 1):
            out.extend(self._basis[d])
        return out

    @property
    def zero_above(self):
        return self._zero_above

    # -- elements ---------------------------------------------------------

    def zero(self) -> "AlgElement":
        return AlgElement(self, {})

    def unit(self) -> "AlgElement":
        if not self.unital:
            raise ValueError("algebra has no identity")
        return AlgElement(self, {EMPTY_WORD: self.field.one})

    def gen(self, i) -> "AlgElement":
        if isinstance(i, str):
            i = self.alphabet.index(i)
        w = self.alphabet.gen(i)
        return self.from_free(FreeElement.from_word(self.alphabet, self.field, w))

    def element(self, terms: dict) -> "AlgElement":
        """Element from normal-word coordinates (words must be basis words).

        A coefficient is a `Scalar` of this field, an int, or a raw value of
        this field (see `Field.scalar`).
        """
        f = self.field
        clean = {}
        for w, c in terms.items():
            c = f.scalar(c).raw
            if not c:
                continue
            if w.is_empty:
                if not self.unital:
                    raise ValueError("unit coordinate in a non-unital algebra")
            elif w not in self._normal:
                raise ValueError(f"{w!r} is not a normal basis word")
            clean[w] = c
        return AlgElement(self, clean)

    def from_free(self, element: FreeElement) -> "AlgElement":
        if element.alphabet != self.alphabet:
            raise ValueError("element over a different alphabet")
        if element.field != self.field:
            raise FieldMismatchError("element over a different field")
        terms, flag = {}, False
        for w, c in element.terms.items():
            if w.is_empty and not self.unital:
                raise ValueError("unit term in a non-unital algebra")
            if w.degree > self.truncation_degree:
                if self._zero_above is not None and w.degree >= self._zero_above:
                    continue
                if self.policy == "reject":
                    raise TruncationOverflow(
                        f"degree {w.degree} term exceeds the truncation degree"
                    )
                flag = True
                continue
            for u, beta in self._nf_word(w).items():
                terms[u] = terms.get(u, 0) + c * beta
        return AlgElement(self, reduced(terms, self.field.characteristic), flag)

    def _word_pair_product(self, u: Word, v: Word):
        """Normal form of a product of two basis words, stored in `_pair_cache`.

        Returns (vector, escaped): `escaped` means the concatenation left the
        truncation with an unknown (nonzero-certified) remainder.  For
        u = x*u' the normal form is nf(u*v) = x * nf(u'*v), u' the tail that
        `_normal` records: one `_apply_letter` on the cached product of the
        tail.  A miss walks down the tails, in a loop, to a cached product or
        to the empty tail (1*v = v), and fills every entry on the way back up.
        """
        cache = self._pair_cache
        d = u.degree + v.degree
        if d > self.truncation_degree:
            escaped = self._zero_above is None or d < self._zero_above
            hit = cache.setdefault(u, {})[v] = ({}, escaped)
            return hit
        normal = self._normal
        todo = []
        hit = None
        while u.letters:
            products = cache.get(u)
            if products is None:
                products = cache[u] = {}
            hit = products.get(v)
            if hit is not None:
                break
            todo.append((u.letters[0], products))
            u = normal[u]
        vec = {v: self.field.one} if hit is None else hit[0]
        for x, products in reversed(todo):
            vec = self._apply_letter(x, vec)
            products[v] = (vec, False)
        return vec, False

    def _mul_terms(self, a: dict, b: dict, policy: str):
        """Product of two normal-coordinate term maps; returns (terms, flag).

        Word-pair products come from `_pair_cache`, per left word (see
        `_word_pair_product`).  The arithmetic is inline, as in
        `linalg._eliminate`: over GF(p) the sums are reduced mod p once, at
        the end; over the rationals they are sums of ints and `Fraction`s.
        Either way the zeros are dropped at the end.  A coefficient that is
        the field's `one` itself (the int 1) is passed on without a
        multiplication.
        """
        p, one = self.field.characteristic, self.field.one
        cache = self._pair_cache
        out, flag = {}, False
        get = out.get
        for u, cu in a.items():
            if not u.letters:  # the unit word
                for v, cv in b.items():
                    c = cv if cu is one else cu if cv is one else cu * cv
                    x = get(v)
                    out[v] = c if x is None else x + c
                continue
            products = cache.get(u)
            if products is None:
                products = cache[u] = {}
            for v, cv in b.items():
                if cu is one:
                    c = cv
                elif cv is one:
                    c = cu
                else:
                    c = cu * cv % p if p else cu * cv
                if not v.letters:
                    x = get(u)
                    out[u] = c if x is None else x + c
                    continue
                hit = products.get(v)
                if hit is None:
                    hit = self._word_pair_product(u, v)
                vec, escaped = hit
                if escaped:
                    if policy == "reject":
                        raise TruncationOverflow(
                            f"product of degrees {u.degree} and {v.degree} "
                            f"exceeds {self.truncation_degree}"
                        )
                    flag = True
                if c is one:
                    for w, cw in vec.items():
                        x = get(w)
                        out[w] = cw if x is None else x + cw
                else:
                    for w, cw in vec.items():
                        t = c if cw is one else c * cw
                        x = get(w)
                        out[w] = t if x is None else x + t
        # `linalg.reduced`, inline: this runs once per product
        if p:
            return {w: r for w, x in out.items() if (r := x % p)}, flag
        return {w: x for w, x in out.items() if x}, flag

    def __repr__(self):
        return (
            f"TruncatedAlgebra({self.alphabet!r}, N={self.truncation_degree}, "
            f"dims={[len(self._basis[d]) for d in range(1, self.truncation_degree + 1)]})"
        )


class AlgElement(Combination):
    """An element of a truncated algebra in normal-word coordinates.

    `flag` records that some product escaped the truncation degree under the
    `truncate` policy: dimensions computed from flagged elements are lower
    bounds for the untruncated algebra.  The linear arithmetic is
    `freealg.Combination`'s.
    """

    __slots__ = ("host", "terms", "flag")

    def __init__(self, host: TruncatedAlgebra, terms: dict, flag: bool = False):
        self.host = host
        self.terms = terms
        self.flag = flag

    @property
    def field(self) -> Field:
        return self.host.field

    @property
    def alphabet(self) -> Alphabet:
        return self.host.alphabet

    def _like(self, terms, flag):
        return AlgElement(self.host, terms, flag)

    def _check(self, other: "AlgElement"):
        if self.host is not other.host:
            raise ValueError("elements of different algebras")

    def __mul__(self, other):
        self._check(other)
        terms, flag = self.host._mul_terms(self.terms, other.terms, self.host.policy)
        return AlgElement(self.host, terms, flag or self.flag or other.flag)

    def __eq__(self, other):
        # flags are bookkeeping, not part of the value
        return (
            isinstance(other, AlgElement)
            and self.host is other.host
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.host), frozenset(self.terms.items())))


class Subspace(Span):
    """An exact subspace of a truncated algebra (see `linalg.Span`)."""

    __slots__ = ()

    # in the class body, so bench/tracing.py can wrap each class's add on its own
    add = Span.add

    @property
    def host(self) -> TruncatedAlgebra:
        return self.owner

    def _coords(self, element: AlgElement) -> dict:
        if element.host is not self.owner:
            raise ValueError("element of a different algebra")
        return element.terms


def degree_component(alg: TruncatedAlgebra, d: int) -> Subspace:
    """The degree-d component as a subspace (basis words as elements)."""
    one = alg.field.one
    return Subspace(alg, [AlgElement(alg, {w: one}) for w in alg.degree_basis(d)])


def growth_dims(alg: TruncatedAlgebra, generators, n_max: int):
    """Growth of the subalgebra generated by a spanning set or subspace.

    Entry n (1-based) is dim span{v_1 ... v_k : k <= n, v_i in the spanning
    set}, together with an exactness bit that goes False as soon as a product
    escapes the truncation.  The chain is monotone by construction.
    """
    if n_max < 1:
        raise ValueError(f"the factor count must be at least 1, not {n_max}")
    if isinstance(generators, Subspace):
        generators = generators.representatives()
    span = Subspace(alg, generators)
    gens = span.representatives()
    dims = closure(span, lambda e: [e * g for g in gens], n_max - 1)
    return dims + dims[-1:] * (n_max - len(dims))


def growth_g(alg: TruncatedAlgebra, generators, n: int):
    """dim of the span of products of at most n factors, with exactness bit."""
    return growth_dims(alg, generators, n)[n - 1]
