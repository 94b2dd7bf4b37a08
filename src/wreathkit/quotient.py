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

Degrees above N follow the overflow policy: `reject` raises, `truncate`
drops the escaping terms and flags the element so downstream dimension
reports can mark themselves as lower bounds.  When the computed dimensions
certify that every component above some degree is zero (a zero window of
length max generator degree), products beyond N are exact zeros, not
truncations, and no flag is raised.
"""

from __future__ import annotations

from .freealg import FreeElement, _acc
from .linalg import Echelon
from .scalars import Field, FieldMismatchError, Scalar
from .words import EMPTY_WORD, Alphabet, Word


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
                raise PresentationError(f"inhomogeneous relation: {r.format()}")
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
        self._normal = set()
        self._reduction = {}  # pivot candidate word -> normal-form expansion
        self._pair_cache = {}  # (basis word, basis word) -> (nf vector, escaped)
        self._build(by_degree)
        self._zero_above = self._zero_certificate()

    # -- construction ---------------------------------------------------

    def _build(self, relations_by_degree):
        f = self.field
        alphabet = self.alphabet
        gens = range(len(alphabet))
        N = self.truncation_degree
        # kernels[e]: the degree-e eliminant, kept only while a later degree
        # d = e + deg(g) still extends it on the right
        kernels = [None] * (N + 1)
        span = max(alphabet.degrees, default=1)
        for d in range(1, N + 1):
            candidates = [alphabet.gen(g) for g in gens if alphabet.degrees[g] == d]
            for g in gens:
                rest = d - alphabet.degrees[g]
                if rest >= 1:
                    for w in self._basis[rest]:
                        candidates.append(Word((g,) + w.letters, d))
            ech = Echelon(f)
            for r in relations_by_degree.get(d, ()):
                ech.insert(self._free_to_candidates(r))
            for e in range(1, d):
                kernel = kernels[e]
                if kernel is None:
                    continue
                for g in gens:
                    if e + alphabet.degrees[g] != d:
                        continue
                    for row in kernel.rows:
                        ech.insert(self._extend_right(row, g))
            kernels[d] = ech
            if d > span:
                kernels[d - span] = None
            pivots = ech.pivot_keys()
            self._basis[d] = sorted(w for w in candidates if w not in pivots)
            self._normal.update(self._basis[d])
            for key, idx in ech.pivots.items():
                row = ech.rows[idx]
                self._reduction[key] = {w: f.neg(c) for w, c in row.items() if w != key}

    def _free_to_candidates(self, element: FreeElement) -> dict:
        """Coordinates of a homogeneous free element in the candidate space."""
        f = self.field
        vec = {}
        for w, c in element.terms.items():
            if len(w) == 1:
                _acc(vec, w, c, f)
                continue
            x = w.letters[0]
            xd = self.alphabet.degrees[x]
            tail = Word(w.letters[1:], w.degree - xd)
            for u, beta in self._nf_word(tail).items():
                _acc(vec, Word((x,) + u.letters, xd + u.degree), f.mul(c, beta), f)
        return vec

    def _extend_right(self, row: dict, g: int) -> dict:
        """Image of an eliminant row under right multiplication by generator g."""
        f = self.field
        gd = self.alphabet.degrees[g]
        vec = {}
        for cand, c in row.items():
            x = cand.letters[0]
            xd = self.alphabet.degrees[x]
            tail = Word(cand.letters[1:] + (g,), cand.degree - xd + gd)
            for u, beta in self._nf_word(tail).items():
                _acc(vec, Word((x,) + u.letters, xd + u.degree), f.mul(c, beta), f)
        return vec

    def _apply_letter(self, x: int, vec: dict) -> dict:
        """Left multiplication of a normal-coordinate vector by generator x."""
        f = self.field
        xd = self.alphabet.degrees[x]
        out = {}
        for u, beta in vec.items():
            cand = Word((x,) + u.letters, xd + u.degree)
            red = self._reduction.get(cand)
            if red is None:
                _acc(out, cand, beta, f)
            else:
                for v, gamma in red.items():
                    _acc(out, v, f.mul(beta, gamma), f)
        return out

    def _nf_word(self, w: Word) -> dict:
        """Normal form of a word of degree <= N, as normal-word coordinates."""
        letters = w.letters
        last = Word(letters[-1:], self.alphabet.degrees[letters[-1]])
        red = self._reduction.get(last)
        vec = {last: self.field.one} if red is None else dict(red)
        for x in reversed(letters[:-1]):
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

    def is_normal_word(self, w: Word) -> bool:
        if w.is_empty:
            return self.unital
        return w in self._normal

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
        """Element from normal-word coordinates (words must be basis words)."""
        f = self.field
        clean = {}
        for w, c in terms.items():
            if isinstance(c, Scalar):
                c = c.raw
            if f.is_zero(c):
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
        f = self.field
        terms, flag = {}, False
        for w, c in element.terms.items():
            if w.is_empty:
                if not self.unital:
                    raise ValueError("unit term in a non-unital algebra")
                _acc(terms, w, c, f)
                continue
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
                _acc(terms, u, f.mul(c, beta), f)
        return AlgElement(self, terms, flag)

    def _word_pair_product(self, u: Word, v: Word):
        """Memoized normal form of a product of two basis words.

        Returns (vector, escaped): `escaped` means the concatenation left the
        truncation with an unknown (nonzero-certified) remainder.
        """
        key = (u, v)
        hit = self._pair_cache.get(key)
        if hit is not None:
            return hit
        d = u.degree + v.degree
        if d > self.truncation_degree:
            escaped = self._zero_above is None or d < self._zero_above
            result = ({}, escaped)
        else:
            vec = {v: self.field.one}
            for x in reversed(u.letters):
                if not vec:
                    break
                vec = self._apply_letter(x, vec)
            result = (vec, False)
        self._pair_cache[key] = result
        return result

    def _mul_terms(self, a: dict, b: dict, policy: str):
        """Product of two normal-coordinate term maps; returns (terms, flag)."""
        f = self.field
        out, flag = {}, False
        for u, cu in a.items():
            for v, cv in b.items():
                c = f.mul(cu, cv)
                if u.is_empty:
                    _acc(out, v, c, f)
                    continue
                if v.is_empty:
                    _acc(out, u, c, f)
                    continue
                vec, escaped = self._word_pair_product(u, v)
                if escaped:
                    if policy == "reject":
                        raise TruncationOverflow(
                            f"product of degrees {u.degree} and {v.degree} "
                            f"exceeds {self.truncation_degree}"
                        )
                    flag = True
                for w, cw in vec.items():
                    _acc(out, w, f.mul(c, cw), f)
        return out, flag

    def __repr__(self):
        return (
            f"TruncatedAlgebra({self.alphabet!r}, N={self.truncation_degree}, "
            f"dims={[len(self._basis[d]) for d in range(1, self.truncation_degree + 1)]})"
        )


class AlgElement:
    """An element of a truncated algebra in normal-word coordinates.

    `flag` records that some product escaped the truncation degree under the
    `truncate` policy: dimensions computed from flagged elements are lower
    bounds for the untruncated algebra.
    """

    __slots__ = ("host", "terms", "flag")

    def __init__(self, host: TruncatedAlgebra, terms: dict, flag: bool = False):
        self.host = host
        self.terms = terms
        self.flag = flag

    def _check(self, other: "AlgElement"):
        if self.host is not other.host:
            raise ValueError("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        f = self.host.field
        terms = dict(self.terms)
        for w, c in other.terms.items():
            _acc(terms, w, c, f)
        return AlgElement(self.host, terms, self.flag or other.flag)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.host.field
        return AlgElement(self.host, {w: f.neg(c) for w, c in self.terms.items()}, self.flag)

    def scale(self, c) -> "AlgElement":
        f = self.host.field
        if isinstance(c, Scalar):
            c = c.raw
        elif isinstance(c, int):
            c = f.from_int(c)
        if f.is_zero(c):
            return AlgElement(self.host, {}, self.flag)
        return AlgElement(self.host, {w: f.mul(c, v) for w, v in self.terms.items()}, self.flag)

    def __mul__(self, other):
        self._check(other)
        terms, flag = self.host._mul_terms(self.terms, other.terms, self.host.policy)
        return AlgElement(self.host, terms, flag or self.flag or other.flag)

    def __pow__(self, k: int):
        if k < 1:
            raise ValueError("powers start at 1")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        # flags are bookkeeping, not part of the value
        return (
            isinstance(other, AlgElement)
            and self.host is other.host
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.host), frozenset(self.terms.items())))

    def coefficient(self, word: Word) -> Scalar:
        return Scalar(self.host.field, self.terms.get(word, self.host.field.zero))

    def unit_coefficient(self) -> Scalar:
        return self.coefficient(EMPTY_WORD)

    def min_degree(self) -> int:
        if not self.terms:
            raise ValueError("the zero element has no degree")
        return min(w.degree for w in self.terms)

    def homogeneous_component(self, d: int) -> "AlgElement":
        return AlgElement(
            self.host,
            {w: c for w, c in self.terms.items() if w.degree == d},
            self.flag,
        )

    def format(self) -> str:
        fe = FreeElement(self.host.alphabet, self.host.field)
        fe.terms = dict(self.terms)
        return fe.format()

    def __repr__(self):
        text = self.format()
        return f"{text} (truncated)" if self.flag else text


class Subspace:
    """An exact subspace of a truncated algebra, kept in reduced echelon form.

    `exact` is False when some spanning element (or a product feeding it) was
    truncated, in which case the dimension is a lower bound only.
    """

    __slots__ = ("host", "_ech", "exact")

    def __init__(self, host: TruncatedAlgebra, elements=()):
        self.host = host
        self._ech = Echelon(host.field)
        self.exact = True
        for e in elements:
            self.add(e)

    @classmethod
    def span(cls, host, elements):
        return cls(host, elements)

    @property
    def dim(self) -> int:
        return self._ech.dim

    def add(self, element: AlgElement) -> bool:
        if element.host is not self.host:
            raise ValueError("element of a different algebra")
        if element.flag:
            self.exact = False
        return self._ech.insert(element.terms, payload=element)

    def extend(self, elements):
        for e in elements:
            self.add(e)
        return self

    def representatives(self):
        return list(self._ech.reps)

    def contains(self, element: AlgElement) -> bool:
        if element.host is not self.host:
            raise ValueError("element of a different algebra")
        return self._ech.contains(element.terms)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(e) for e in other.representatives())

    def sum(self, other: "Subspace") -> "Subspace":
        if other.host is not self.host:
            raise ValueError("subspaces of different algebras")
        out = Subspace(self.host, self.representatives())
        out.extend(other.representatives())
        out.exact = out.exact and self.exact and other.exact
        return out

    def product_span(self, other: "Subspace") -> "Subspace":
        """span{s*t : s, t spanning elements} of the two subspaces."""
        if other.host is not self.host:
            raise ValueError("subspaces of different algebras")
        out = Subspace(self.host)
        for s in self.representatives():
            for t in other.representatives():
                out.add(s * t)
        out.exact = out.exact and self.exact and other.exact
        return out

    def __repr__(self):
        return f"Subspace(dim={self.dim}, exact={self.exact})"


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
    if isinstance(generators, Subspace):
        generators = generators.representatives()
    span = Subspace(alg, generators)
    exact = span.exact
    dims = [(span.dim, exact)]
    frontier = span.representatives()
    gens = span.representatives()
    for _ in range(2, n_max + 1):
        new = []
        for head in frontier:
            for g in gens:
                p = head * g
                if p.flag:
                    exact = False
                if span.add(p):
                    new.append(p)
        frontier = new
        dims.append((span.dim, exact))
        if not frontier and exact:
            dims.extend([(span.dim, exact)] * (n_max - len(dims)))
            break
    while len(dims) < n_max:
        dims.append((dims[-1][0], dims[-1][1]))
    return dims


def growth_g(alg: TruncatedAlgebra, generators, n: int):
    """dim of the span of products of at most n factors, with exactness bit."""
    return growth_dims(alg, generators, n)[n - 1]
