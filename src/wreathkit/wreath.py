"""The matrix wreath product of two algebras, computed over a chosen basis.

A wreath element is a pair (b, S): an element of the host algebra B plus a
finitely supported matrix S over the coefficient algebra A, indexed by a
basis of B (the unit gets index 1 when B is unital).  Keeping the host part
symbolic instead of folding it into a matrix makes the disjointness of the
two summands structural: a left-multiplication operator is never mistaken
for a finitely supported transformation.  The matrix convention throughout:
entry (i, j) means the transformation sends basis vector b_j to
b_i (x) entry -- i.e. columns are inputs, rows are outputs.  Multiplication:

    (b1, S1) * (b2, S2)  =  (b1*b2,  L(b1) S2  +  S1 L(b2)  +  S1 S2)

where L(b) is the scalar matrix of left multiplication by b on the basis.
S1 L(b2) is always exact within the truncation, since S1 vanishes on every
basis vector outside its finite column support; L(b1) S2 genuinely loses the
rows that escape the truncation and flags the result.

An alternative "unipotent" indexing replaces every positive-degree basis word
w by the invertible element 1 + w; matrix units with respect to that basis
power the generation check for the matrix-unit closure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freealg import _acc
from .linalg import Echelon
from .quotient import AlgElement, Subspace, TruncatedAlgebra
from .scalars import FieldMismatchError, Scalar
from .words import EMPTY_WORD, Word


class BasisIndexing:
    """1-based indexing of a truncated algebra's basis, degree-major deglex.

    For a unital host index 1 is the identity; for a non-unital host the
    indices enumerate the basis words directly.  With unipotent=True (unital
    hosts only) index i >= 2 stands for the invertible element 1 + w_i
    instead of the word w_i.
    """

    __slots__ = ("host", "words", "_index", "unipotent")

    def __init__(self, host: TruncatedAlgebra, unipotent: bool = False):
        if unipotent and not host.unital:
            raise ValueError("a unipotent indexing needs a unital host")
        self.host = host
        self.unipotent = unipotent
        self.words = host.basis_words()
        self._index = {w: i + 1 for i, w in enumerate(self.words)}

    def __len__(self):
        return len(self.words)

    def word_at(self, i: int) -> Word:
        if not 1 <= i <= len(self.words):
            raise IndexError(f"basis index {i} out of range")
        return self.words[i - 1]

    def index_of(self, w: Word) -> int:
        try:
            return self._index[w]
        except KeyError:
            raise KeyError(f"{w!r} is not a basis word") from None

    def basis_element(self, i: int) -> AlgElement:
        w = self.word_at(i)
        host = self.host
        if w.is_empty:
            return host.unit()
        e = host.element({w: host.field.one})
        if self.unipotent:
            e = host.unit() + e
        return e

    def element_coords(self, e: AlgElement) -> dict:
        """Coordinates of an element in this basis, as {index: raw}."""
        f = self.host.field
        if not self.unipotent:
            return {self._index[w]: c for w, c in e.terms.items()}
        # e = a*1 + sum b_w w  =  c_1*1 + sum_i c_i (1 + w_i)
        # with c_i = b_{w_i} and c_1 = a - sum b_w.
        coords = {}
        total = f.zero
        for w, c in e.terms.items():
            if w.is_empty:
                continue
            coords[self._index[w]] = c
            total = f.add(total, c)
        c1 = f.sub(e.terms.get(EMPTY_WORD, f.zero), total)
        if not f.is_zero(c1):
            coords[1] = c1
        return coords

    def coords_to_element(self, coords: dict) -> AlgElement:
        host = self.host
        f = host.field
        terms = {}
        if not self.unipotent:
            for i, c in coords.items():
                _acc(terms, self.word_at(i), c, f)
            return AlgElement(host, terms)
        unit_total = f.zero
        for i, c in coords.items():
            w = self.word_at(i)
            unit_total = f.add(unit_total, c)
            if not w.is_empty:
                _acc(terms, w, c, f)
        if not f.is_zero(unit_total):
            terms[EMPTY_WORD] = unit_total
        return AlgElement(host, terms)


class ScalarMatrix:
    """A finitely supported matrix of field scalars over a basis indexing."""

    __slots__ = ("indexing", "entries", "flag")

    def __init__(self, indexing: BasisIndexing, entries=None, flag=False):
        self.indexing = indexing
        f = indexing.host.field
        self.entries = {}
        if entries:
            for key, c in entries.items():
                if not f.is_zero(c):
                    self.entries[key] = c
        self.flag = flag

    def __eq__(self, other):
        return (
            isinstance(other, ScalarMatrix)
            and self.indexing is other.indexing
            and self.entries == other.entries
        )

    def __bool__(self):
        return bool(self.entries)

    def matmul(self, other: "ScalarMatrix") -> "ScalarMatrix":
        f = self.indexing.host.field
        rows_of_other = {}
        for (k, j), c in other.entries.items():
            rows_of_other.setdefault(k, []).append((j, c))
        out = {}
        for (i, k), a in self.entries.items():
            for j, b in rows_of_other.get(k, ()):
                _acc(out, (i, j), f.mul(a, b), f)
        return ScalarMatrix(self.indexing, out, self.flag or other.flag)

    @classmethod
    def identity(cls, indexing: BasisIndexing) -> "ScalarMatrix":
        one = indexing.host.field.one
        return cls(indexing, {(i, i): one for i in range(1, len(indexing) + 1)})

    def __repr__(self):
        f = self.indexing.host.field
        cells = ", ".join(f"({i},{j})={f.fmt(c)}" for (i, j), c in sorted(self.entries.items()))
        return f"ScalarMatrix[{cells}]"


def left_mult_matrix(b: AlgElement, indexing: BasisIndexing) -> ScalarMatrix:
    """The matrix of x -> b*x on the indexed basis; column j expands b*b_j.

    Expansions that escape the truncation flag the matrix: the lost part
    would occupy rows outside the index set.
    """
    if b.host is not indexing.host:
        raise ValueError("element and indexing over different algebras")
    entries, flag = {}, b.flag
    for j in range(1, len(indexing) + 1):
        prod = _mul_quiet(b, indexing.basis_element(j))
        if prod.flag:
            flag = True
        for i, c in indexing.element_coords(prod).items():
            entries[(i, j)] = c
    return ScalarMatrix(indexing, entries, flag)


def _mul_quiet(a: AlgElement, b: AlgElement) -> AlgElement:
    """Product under the truncate policy regardless of the host default."""
    terms, flag = a.host._mul_terms(a.terms, b.terms, "truncate")
    return AlgElement(a.host, terms, flag or a.flag or b.flag)


class SMatrix:
    """A matrix over the coefficient algebra A with finitely many entries.

    Finite support forces finitely many nonzero rows, which is exactly the
    class of transformations the wreath product construction computes with.
    """

    __slots__ = ("indexing", "a_host", "entries", "flag")

    def __init__(self, indexing: BasisIndexing, a_host: TruncatedAlgebra, entries=None, flag=False):
        self.indexing = indexing
        self.a_host = a_host
        self.entries = {}
        if entries:
            for key, a in entries.items():
                if a:
                    self.entries[key] = a
                if a.flag:
                    flag = True
        self.flag = flag

    def _check(self, other: "SMatrix"):
        if self.indexing is not other.indexing or self.a_host is not other.a_host:
            raise ValueError("matrices over different hosts")

    def row_support(self):
        return {i for (i, _) in self.entries}

    def column_support(self):
        return {j for (_, j) in self.entries}

    def entry(self, i: int, j: int) -> AlgElement:
        return self.entries.get((i, j), self.a_host.zero())

    def __add__(self, other):
        self._check(other)
        entries = dict(self.entries)
        for key, a in other.entries.items():
            s = entries.get(key)
            s = a if s is None else s + a
            if s:
                entries[key] = s
            else:
                entries.pop(key, None)
        return SMatrix(self.indexing, self.a_host, entries, self.flag or other.flag)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SMatrix(
            self.indexing, self.a_host, {k: -a for k, a in self.entries.items()}, self.flag
        )

    def scale(self, c) -> "SMatrix":
        return SMatrix(
            self.indexing, self.a_host, {k: a.scale(c) for k, a in self.entries.items()}, self.flag
        )

    def matmul(self, other: "SMatrix") -> "SMatrix":
        self._check(other)
        rows_of_other = {}
        for (k, j), a in other.entries.items():
            rows_of_other.setdefault(k, []).append((j, a))
        out = {}
        flag = self.flag or other.flag
        for (i, k), a in self.entries.items():
            for j, b in rows_of_other.get(k, ()):
                p = a * b
                if p.flag:
                    flag = True
                if not p:
                    continue
                s = out.get((i, j))
                out[(i, j)] = p if s is None else s + p
        out = {k: v for k, v in out.items() if v}
        return SMatrix(self.indexing, self.a_host, out, flag)

    def lmul_b(self, b: AlgElement) -> "SMatrix":
        """Left action of a host element: rows are shifted by b's expansion.

        Rows escaping the truncation are genuinely lost; the flag records it.
        """
        idx = self.indexing
        out = {}
        flag = self.flag or b.flag
        for (k, j), a in self.entries.items():
            prod = _mul_quiet(b, idx.basis_element(k))
            if prod.flag:
                flag = True
            for i, c in idx.element_coords(prod).items():
                s = a.scale(c)
                if not s:
                    continue
                cur = out.get((i, j))
                out[(i, j)] = s if cur is None else cur + s
        out = {k: v for k, v in out.items() if v}
        return SMatrix(idx, self.a_host, out, flag)

    def rmul_b(self, b: AlgElement) -> "SMatrix":
        """Right action: precompose with left multiplication by b.

        Exact under a plain indexing even when b*b_j escapes the truncation:
        the escaping components land on basis vectors where this matrix is
        zero anyway.  Under a unipotent indexing the unit coordinate mixes
        with every word coordinate, so there a truncated expansion does flag
        when this matrix has entries in column 1.
        """
        idx = self.indexing
        cols = {}
        for (i, j), a in self.entries.items():
            cols.setdefault(j, []).append((i, a))
        col1_loss = idx.unipotent and 1 in cols
        out = {}
        flag = self.flag or b.flag
        for j in range(1, len(idx) + 1):
            prod = _mul_quiet(b, idx.basis_element(j))
            if prod.flag and col1_loss:
                flag = True
            for k, c in idx.element_coords(prod).items():
                for i, a in cols.get(k, ()):
                    s = a.scale(c)
                    if not s:
                        continue
                    cur = out.get((i, j))
                    out[(i, j)] = s if cur is None else cur + s
        out = {k: v for k, v in out.items() if v}
        return SMatrix(idx, self.a_host, out, flag)

    def apply_column(self, j: int) -> dict:
        """The image of basis vector b_j, as {row index: A-coefficient}."""
        return {i: a for (i, jj), a in self.entries.items() if jj == j}

    def __eq__(self, other):
        return (
            isinstance(other, SMatrix)
            and self.indexing is other.indexing
            and self.a_host is other.a_host
            and self.entries == other.entries
        )

    def __bool__(self):
        return bool(self.entries)

    def __repr__(self):
        cells = ", ".join(
            f"({i},{j})={a.format()}" for (i, j), a in sorted(self.entries.items())
        )
        return f"SMatrix[{cells or '0'}]{' (truncated)' if self.flag else ''}"


class GammaMap:
    """A linear map from the indexed host basis into the coefficient algebra.

    Values default to zero off the stored support; the unit's value (index 1
    of a unital indexing) is explicit and configurable.
    """

    __slots__ = ("indexing", "a_host", "values", "generating")

    def __init__(self, indexing: BasisIndexing, a_host: TruncatedAlgebra, values=None):
        self.indexing = indexing
        self.a_host = a_host
        self.values = {}
        if values:
            for i, a in values.items():
                if not 1 <= i <= len(indexing):
                    raise IndexError(f"basis index {i} out of range")
                if a.host is not a_host:
                    raise ValueError("gamma value in the wrong algebra")
                if a:
                    self.values[i] = a
        self.generating = None

    def value(self, i: int) -> AlgElement:
        return self.values.get(i, self.a_host.zero())

    def support(self):
        return sorted(self.values)

    def apply(self, b: AlgElement) -> AlgElement:
        out = self.a_host.zero()
        for i, c in self.indexing.element_coords(b).items():
            v = self.values.get(i)
            if v is not None:
                out = out + v.scale(c)
        if b.flag:
            out = AlgElement(out.host, out.terms, True)
        return out

    def image_span(self) -> Subspace:
        return Subspace(self.a_host, list(self.values.values()))

    def is_generating(self) -> bool:
        """Whether the image generates the coefficient algebra's truncation."""
        if self.generating is None:
            span = self.image_span()
            frontier = span.representatives()
            gens = span.representatives()
            while frontier:
                new = []
                for s in frontier:
                    for g in gens:
                        for p in (s * g, g * s):
                            if span.add(p):
                                new.append(p)
                frontier = new
            self.generating = span.dim == self.a_host.total_dim()
        return self.generating


class WreathAlgebra:
    """Factory and context for wreath elements over fixed hosts B and A."""

    __slots__ = ("b_host", "a_host", "indexing")

    def __init__(self, b_host: TruncatedAlgebra, a_host: TruncatedAlgebra, indexing=None):
        if b_host.field != a_host.field:
            raise FieldMismatchError("hosts over different fields")
        self.b_host = b_host
        self.a_host = a_host
        self.indexing = indexing if indexing is not None else BasisIndexing(b_host)
        if self.indexing.host is not b_host:
            raise ValueError("indexing over a different host")

    @property
    def field(self):
        return self.b_host.field

    def zero_matrix(self) -> SMatrix:
        return SMatrix(self.indexing, self.a_host)

    def element(self, b: AlgElement = None, s: SMatrix = None) -> "WreathElement":
        if b is None:
            b = self.b_host.zero()
        if b.host is not self.b_host:
            raise ValueError("b-part in the wrong algebra")
        if not self.b_host.field.is_zero(b.terms.get(EMPTY_WORD, self.b_host.field.zero)):
            raise ValueError("the b-part must lie in the non-unital part of the host")
        if s is None:
            s = self.zero_matrix()
        if s.indexing is not self.indexing or s.a_host is not self.a_host:
            raise ValueError("s-part over different hosts")
        return WreathElement(self, b, s)

    def embed(self, b: AlgElement) -> "WreathElement":
        return self.element(b=b)

    def from_matrix(self, s: SMatrix) -> "WreathElement":
        return self.element(s=s)

    def matrix_unit(self, i: int, j: int, a: AlgElement) -> SMatrix:
        """The transformation sending b_j to b_i (x) a and other basis to 0."""
        self.indexing.word_at(i), self.indexing.word_at(j)
        if a.host is not self.a_host:
            raise ValueError("entry in the wrong algebra")
        return SMatrix(self.indexing, self.a_host, {(i, j): a} if a else {})

    def gamma_row(self, gamma: GammaMap, target: int = 1) -> SMatrix:
        """The rank-one-row transformation b_j -> b_target (x) gamma(b_j)."""
        if gamma.indexing is not self.indexing or gamma.a_host is not self.a_host:
            raise ValueError("gamma over different hosts")
        self.indexing.word_at(target)
        entries = {(target, j): a for j, a in gamma.values.items()}
        return SMatrix(self.indexing, self.a_host, entries)

    def __repr__(self):
        return f"WreathAlgebra(B={self.b_host!r}, A={self.a_host!r})"


class WreathElement:
    """An element (b, S) of the wreath product, b symbolic, S a matrix over A."""

    __slots__ = ("algebra", "b", "s")

    def __init__(self, algebra: WreathAlgebra, b: AlgElement, s: SMatrix):
        self.algebra = algebra
        self.b = b
        self.s = s

    @property
    def flag(self) -> bool:
        return self.b.flag or self.s.flag

    def _check(self, other: "WreathElement"):
        if self.algebra is not other.algebra:
            raise ValueError("elements of different wreath algebras")

    def __add__(self, other):
        self._check(other)
        return WreathElement(self.algebra, self.b + other.b, self.s + other.s)

    def __sub__(self, other):
        self._check(other)
        return WreathElement(self.algebra, self.b - other.b, self.s - other.s)

    def __neg__(self):
        return WreathElement(self.algebra, -self.b, -self.s)

    def scale(self, c) -> "WreathElement":
        return WreathElement(self.algebra, self.b.scale(c), self.s.scale(c))

    def __mul__(self, other):
        self._check(other)
        b = self.b * other.b
        s = other.s.lmul_b(self.b) + self.s.rmul_b(other.b) + self.s.matmul(other.s)
        return WreathElement(self.algebra, b, s)

    def __pow__(self, k: int):
        if k < 1:
            raise ValueError("powers start at 1")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, WreathElement)
            and self.algebra is other.algebra
            and self.b == other.b
            and self.s == other.s
        )

    def __bool__(self):
        return bool(self.b) or bool(self.s)

    def apply(self, j: int):
        """Image of basis vector b_j: B-coordinates tensored with 1, plus the
        matrix column.  Returns (b_coords, a_column, flag): b_coords maps row
        indices to scalars (the b-part action), a_column maps row indices to
        A-elements, and flag marks a b-part expansion that escaped the
        truncation."""
        idx = self.algebra.indexing
        prod = _mul_quiet(self.b, idx.basis_element(j))
        b_coords = {
            i: Scalar(self.algebra.field, c) for i, c in idx.element_coords(prod).items()
        }
        return b_coords, self.s.apply_column(j), prod.flag

    def __repr__(self):
        return f"({self.b.format()}; {self.s!r})"


def wreath_coords(e: WreathElement) -> dict:
    """Sparse coordinates of a wreath element for exact span computations."""
    vec = {}
    for w, c in e.b.terms.items():
        vec[("b", w)] = c
    for (i, j), a in e.s.entries.items():
        for w, c in a.terms.items():
            vec[("s", i, j, w)] = c
    return vec


class WreathSpan:
    """An exact span of wreath elements (echelonized coordinates + spanning set)."""

    __slots__ = ("algebra", "_ech", "exact")

    def __init__(self, algebra: WreathAlgebra, elements=()):
        self.algebra = algebra
        self._ech = Echelon(algebra.field)
        self.exact = True
        for e in elements:
            self.add(e)

    @property
    def dim(self):
        return self._ech.dim

    def add(self, e: WreathElement) -> bool:
        if e.algebra is not self.algebra:
            raise ValueError("element of a different wreath algebra")
        if e.flag:
            self.exact = False
        return self._ech.insert(wreath_coords(e), payload=e)

    def extend(self, elements):
        for e in elements:
            self.add(e)
        return self

    def representatives(self):
        return list(self._ech.reps)

    def contains(self, e: WreathElement) -> bool:
        return self._ech.contains(wreath_coords(e))

    def contains_span(self, other: "WreathSpan") -> bool:
        return all(self.contains(e) for e in other.representatives())

    def sum(self, other: "WreathSpan") -> "WreathSpan":
        out = WreathSpan(self.algebra, self.representatives())
        out.extend(other.representatives())
        out.exact = out.exact and self.exact and other.exact
        return out

    def product_span(self, other: "WreathSpan") -> "WreathSpan":
        out = WreathSpan(self.algebra)
        for s in self.representatives():
            for t in other.representatives():
                out.add(s * t)
        out.exact = out.exact and self.exact and other.exact
        return out

    def __repr__(self):
        return f"WreathSpan(dim={self.dim}, exact={self.exact})"


# -- derived operations ----------------------------------------------------


def unit_row_projection(s: SMatrix, target: int = 1) -> AlgElement:
    """Project a single-row transformation to its value on basis vector 1.

    For matrices supported on row `target` this reads off entry
    (target, 1); it is a homomorphism on that row algebra.
    """
    bad = s.row_support() - {target}
    if bad:
        raise ValueError(f"matrix has support outside row {target}: rows {sorted(bad)}")
    return s.entry(target, 1)


@dataclass
class NilpotencyReport:
    verdict: str  # nilpotent | not-nilpotent-within-bound | inconclusive-overflow
    index: int = 0

    @property
    def nilpotent(self):
        return self.verdict == "nilpotent"


def nilpotency_check(e: WreathElement, max_power: int) -> NilpotencyReport:
    if max_power < 1:
        raise ValueError("max_power must be >= 1")
    power = e
    for k in range(1, max_power + 1):
        if k > 1:
            power = power * e
        if power.flag:
            return NilpotencyReport("inconclusive-overflow", k)
        if not power:
            return NilpotencyReport("nilpotent", k)
    return NilpotencyReport("not-nilpotent-within-bound", max_power)


def unipotent_inverse(b: AlgElement) -> AlgElement:
    """Inverse of an element with nonzero unit coefficient, by the finite
    geometric series on its nilpotent part."""
    host = b.host
    f = host.field
    alpha = b.terms.get(EMPTY_WORD, f.zero)
    if f.is_zero(alpha):
        raise ValueError("element has no unit component, not invertible here")
    inv_alpha = f.inv(alpha)
    n = AlgElement(host, {w: f.mul(inv_alpha, c) for w, c in b.terms.items() if not w.is_empty})
    out = host.unit()
    term = host.unit()
    while True:
        term = _mul_quiet(-n, term)
        if not term:
            break
        out = out + term
    return out.scale(Scalar(f, inv_alpha))


@dataclass
class EmbedReport:
    ok: bool
    cases_checked: int
    failures: list
    cube_vanishes: bool


def nilpotent_host_embedding_check(a_host: TruncatedAlgebra) -> EmbedReport:
    """Check the two-dimensional nilpotent-host embedding identities.

    Over the host B spanned by b, b^2 with b^3 = 0, multiplying (b, 0) with
    the matrix sending b^2 to b (x) a must give the matrix sending b^2 to
    b^2 (x) a, for every basis element a of the coefficient algebra; and
    (b, 0) must cube to zero.
    """
    from .freealg import FreeElement
    from .quotient import Presentation
    from .words import Alphabet

    field = a_host.field
    ab = Alphabet([("b", 1)])
    cube = FreeElement.from_word(ab, field, ab.word((0, 0, 0)))
    b_host = TruncatedAlgebra(Presentation(ab, field, [cube], unital=False), 3)
    wa = WreathAlgebra(b_host, a_host)
    idx_b = wa.indexing.index_of(ab.word((0,)))
    idx_b2 = wa.indexing.index_of(ab.word((0, 0)))
    u = wa.embed(b_host.gen("b"))

    failures = []
    count = 0
    for d in range(1, a_host.truncation_degree + 1):
        for w in a_host.degree_basis(d):
            a = a_host.element({w: field.one})
            lhs = u * wa.from_matrix(wa.matrix_unit(idx_b, idx_b2, a))
            rhs = wa.from_matrix(wa.matrix_unit(idx_b2, idx_b2, a))
            count += 1
            if lhs != rhs:
                failures.append(w)
    cube_zero = not (u * u * u)
    return EmbedReport(not failures and cube_zero, count, failures, cube_zero)


@dataclass
class GenerationReport:
    ok: bool
    generated_dim: int
    targets_checked: int
    missing: list


def matrix_unit_generation_check(
    b_host: TruncatedAlgebra,
    a_host: TruncatedAlgebra,
    gamma_values: dict,
    index_cap: int,
    max_rounds: int = 60,
) -> GenerationReport:
    """Closure check: matrix units are generated by one corner, one row map,
    and the host's translations, over the unipotent basis 1, 1 + w_i.

    gamma_values maps unipotent basis indices to coefficient-algebra
    elements; the induced row map together with the corner unit e_11(1) is
    closed under products and under left/right translation by the host's
    generators.  The check then asks whether every matrix unit e_ij(a) with
    i, j <= index_cap and a ranging over a spanning set of A lies in the
    closure.  Host basis elements 1 + w are invertible by construction, so
    the translations reach every e_ij via the finite geometric series.
    """
    if not a_host.unital:
        raise ValueError("the corner unit needs a unital coefficient algebra")
    indexing = BasisIndexing(b_host, unipotent=True)
    wa = WreathAlgebra(b_host, a_host, indexing)
    gamma = GammaMap(indexing, a_host, gamma_values)
    if index_cap < 1 or index_cap > len(indexing):
        raise ValueError("index cap out of range")

    corner = wa.from_matrix(wa.matrix_unit(1, 1, a_host.unit()))
    row = wa.from_matrix(wa.gamma_row(gamma, target=1))
    translators = [wa.embed(b_host.gen(i)) for i in range(len(b_host.alphabet))]

    span = WreathSpan(wa, [corner, row])
    frontier = span.representatives()
    rounds = 0
    while frontier and rounds < max_rounds:
        rounds += 1
        new = []
        for e in frontier:
            candidates = [e * g for g in translators] + [g * e for g in translators]
            for other in span.representatives():
                candidates.append(e * other)
                candidates.append(other * e)
            for c in candidates:
                if span.add(c):
                    new.append(c)
        frontier = new

    targets = []
    spanning = [a_host.unit()] + [
        a_host.element({w: a_host.field.one})
        for d in range(1, a_host.truncation_degree + 1)
        for w in a_host.degree_basis(d)
    ]
    for i in range(1, index_cap + 1):
        for j in range(1, index_cap + 1):
            for a in spanning:
                targets.append((i, j, a))
    missing = []
    for i, j, a in targets:
        if not span.contains(wa.from_matrix(wa.matrix_unit(i, j, a))):
            missing.append((i, j, a.format()))
    return GenerationReport(not missing, span.dim, len(targets), missing)
