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
L(b) is never multiplied out afresh: `BasisIndexing` reads column j of L(w),
for a host basis word w, from the host's word-pair product w*b_j, the one
table of host products; L(b) follows from those columns by linearity.  The
indices are the host's own basis indices, so host terms are coordinates as
they stand and `wreath_coords` is offset arithmetic on them.
S1 L(b2) is always exact within the truncation, since S1 vanishes on every
basis vector outside its finite column support; L(b1) S2 genuinely loses the
rows that escape the truncation and flags the result.

An alternative "unipotent" indexing replaces every positive-degree basis word
w by the invertible element 1 + w; matrix units with respect to that basis
power the generation check for the matrix-unit closure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Span, closure, combine, reduced
from .quotient import _ESCAPED, AlgElement, Subspace, TruncatedAlgebra
from .scalars import FieldMismatchError
from .words import Word


class BasisIndexing:
    """1-based indexing of a truncated algebra's basis, degree-major deglex.

    The indices are the host's own basis indices (`quotient`): for a unital
    host index 1 is the identity, for a non-unital host the indices
    enumerate the basis words directly.  With unipotent=True (unital hosts
    only) index i >= 2 stands for the invertible element 1 + w_i instead of
    the word w_i.
    """

    __slots__ = ("host", "unipotent", "_tables")

    def __init__(self, host: TruncatedAlgebra, unipotent: bool = False):
        if unipotent and not host.unital:
            raise ValueError("a unipotent indexing needs a unital host")
        self.host = host
        self.unipotent = unipotent
        self._tables = {}  # host basis index -> _LeftAction, filled on first use

    def __len__(self):
        return self.host.total_dim()

    def word_at(self, i: int) -> Word:
        if not 1 <= i <= len(self):
            raise IndexError(f"basis index {i} out of range")
        return self.host._word(i)

    def index_of(self, w: Word) -> int:
        i = self.host._index(w)
        if i is None:
            raise KeyError(f"{w!r} is not a basis word")
        return i

    def basis_element(self, i: int) -> AlgElement:
        self.word_at(i)  # the range check
        host = self.host
        e = AlgElement(host, {i: host.field.one})
        if self.unipotent and i != 1:
            e = host.unit() + e
        return e

    def left_action(self, w: int) -> "_LeftAction":
        """The table of x -> w*x on this basis, for a host basis index w.

        Column j is w*b_j by linearity over b_j's host words t: a sum of the
        host's word-pair products (w, t).  Under the plain indexing b_j is the
        word j, and the column is that `_pair_cache` entry itself; the
        unipotent indexing changes its coordinates.  Built on first use, it
        serves every later left multiplication by an element with w among
        its terms.
        """
        table = self._tables.get(w)
        if table is None:
            host = self.host
            p = host.field.characteristic
            cols, escaped, rows = [None], [False], {}
            for j in range(1, len(self) + 1):
                b_j = self.basis_element(j).terms
                parts = [(c, host._word_pair_product(w, t)) for t, c in b_j.items()]
                escaped.append(any(vec is _ESCAPED for _, vec in parts))
                vec = self.element_coords(AlgElement(host, combine(parts, p)))
                cols.append(vec)
                for i, c in vec.items():
                    rows.setdefault(i, {})[j] = c
            table = self._tables[w] = _LeftAction(cols, escaped, rows, any(escaped))
        return table

    def product_column(self, b: AlgElement, j: int):
        """Coordinates of b*b_j, and whether that product escaped the truncation.

        By linearity over b's terms; the escape flag is the OR of its words'
        flags, as `_mul_terms` flags per word pair.  The coordinates may be a
        table's own dict: read them, never mutate them.
        """
        parts, escaped = [], False
        for w, c in b.terms.items():
            table = self.left_action(w)
            parts.append((c, table.cols[j]))
            escaped = escaped or table.escaped[j]
        return combine(parts, self.host.field.characteristic), escaped

    def product_row(self, b: AlgElement, k: int) -> dict:
        """Row k of L(b), as {j: coefficient of basis vector k in b*b_j}.

        Like `product_column`, the result may be a table's own dict.
        """
        parts = []
        for w, c in b.terms.items():
            row = self.left_action(w).rows.get(k)
            if row:
                parts.append((c, row))
        return combine(parts, self.host.field.characteristic)

    def escapes(self, b: AlgElement) -> bool:
        """Whether b*b_j escapes the truncation for some basis index j."""
        return any(self.left_action(w).any_escaped for w in b.terms)

    def element_coords(self, e: AlgElement) -> dict:
        """Coordinates of an element in this basis, as {index: raw}; under the
        plain indexing its own terms, to be read, never mutated."""
        if not self.unipotent:
            return e.terms
        # e = a*1 + sum b_w w  =  c_1*1 + sum_i c_i (1 + w_i)
        # with c_i = b_{w_i} and c_1 = a - sum b_w.
        coords = {i: c for i, c in e.terms.items() if i != 1}
        coords[1] = e.terms.get(1, 0) - sum(coords.values())
        return reduced(coords, self.host.field.characteristic)


class _LeftAction:
    """Left multiplication by one host basis word w, tabulated on a basis.

    cols[j] is the coordinate dict {i: c} of w*b_j and escaped[j] whether
    that product left the truncation (index 0 is unused); rows[k] is
    {j: c} for the j whose product has coordinate c at k, i.e. row k of
    L(w); any_escaped is the OR of escaped.
    """

    __slots__ = ("cols", "escaped", "rows", "any_escaped")

    def __init__(self, cols, escaped, rows, any_escaped):
        self.cols = cols
        self.escaped = escaped
        self.rows = rows
        self.any_escaped = any_escaped


def _scaled_sum(terms, a_host: TruncatedAlgebra) -> dict:
    """{(i, j): sum of c*a} over the ((i, j), c, a) in terms, as A-elements.

    c is a raw scalar, a an A-element.  Zero sums are left out, and an entry
    is flagged when one of its summands is.
    """
    parts, flagged = {}, set()
    for key, c, a in terms:
        parts.setdefault(key, []).append((c, a.terms))
        if a.flag:
            flagged.add(key)
    p = a_host.field.characteristic
    out = {}
    for key, summands in parts.items():
        t = combine(summands, p)
        if t:
            out[key] = AlgElement(a_host, t, key in flagged)
    return out


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
        flag = self.flag or b.flag
        columns = {}  # k -> column k of L(b)
        terms = []
        for (k, j), a in self.entries.items():
            if k not in columns:
                columns[k], escaped = idx.product_column(b, k)
                flag = flag or escaped
            terms.extend(((i, j), c, a) for i, c in columns[k].items())
        out = _scaled_sum(terms, self.a_host)
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
        for (i, k), a in self.entries.items():
            cols.setdefault(k, []).append((i, a))
        flag = self.flag or b.flag
        if idx.unipotent and 1 in cols and not flag:
            flag = idx.escapes(b)
        terms = [
            ((i, j), c, a)
            for k, column in cols.items()
            for j, c in idx.product_row(b, k).items()
            for i, a in column
        ]
        out = _scaled_sum(terms, self.a_host)
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
    of a unital indexing) is explicit and configurable.  A zero value that is
    flagged (its terms escaped the truncation) is stored, so that `apply`
    flags what it touches.
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
                if a or a.flag:
                    self.values[i] = a
        self.generating = None

    def value(self, i: int) -> AlgElement:
        return self.values.get(i, self.a_host.zero())

    def apply(self, b: AlgElement) -> AlgElement:
        """gamma(b) = sum of c_i gamma(b_i) over b's coordinates c_i; flagged
        when b or one of the values summed is."""
        parts, flag = [], b.flag
        for i, c in self.indexing.element_coords(b).items():
            v = self.values.get(i)
            if v is not None:
                parts.append((c, v.terms))
                flag = flag or v.flag
        a = self.a_host
        return AlgElement(a, combine(parts, a.field.characteristic), flag)

    def image_span(self) -> Subspace:
        return Subspace(self.a_host, list(self.values.values()))

    def is_generating(self) -> bool:
        """Whether the image generates the coefficient algebra's truncation."""
        if self.generating is None:
            span = self.image_span()
            gens = span.representatives()
            closure(span, lambda s: [p for g in gens for p in (s * g, g * s)])
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
        if b.host._unit in b.terms:
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
        return SMatrix(self.indexing, self.a_host, {(i, j): a})

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
        indices to raw scalars (the b-part action), a_column maps row indices
        to A-elements, and flag marks a b-part expansion that escaped the
        truncation."""
        idx = self.algebra.indexing
        idx.word_at(j)  # the range check
        coords, escaped = idx.product_column(self.b, j)
        return dict(coords), self.s.apply_column(j), self.b.flag or escaped

    def __repr__(self):
        return f"({self.b.format()}; {self.s!r})"


def wreath_coords(e: WreathElement) -> dict:
    """Sparse coordinates of a wreath element for exact span computations.

    Keys are ints that sort like the tuples ("b", w) < ("s", i, j, w): a
    b-part word is its B index 1..nB, and the A-word of index k in entry
    (i, j) is nB + ((i-1)*nB + (j-1))*nA + k.  Both hosts number their words
    degree-major in deglex order, the order of `Word` itself, so pivots and
    residuals come out as with the tuple keys.
    """
    wa = e.algebra
    nb, na = len(wa.indexing), wa.a_host.total_dim()
    vec = dict(e.b.terms)
    for (i, j), a in e.s.entries.items():
        base = nb + ((i - 1) * nb + (j - 1)) * na
        for k, c in a.terms.items():
            vec[base + k] = c
    return vec


def wreath_from_coords(wa: WreathAlgebra, vec: dict, flag: bool = False) -> WreathElement:
    """The wreath element whose `wreath_coords` are vec.  A flag goes on the
    matrix part: products and sums flag their result when any part of an
    operand is flagged, so where it sits does not matter to them."""
    nb, na = len(wa.indexing), wa.a_host.total_dim()
    b, cells = {}, {}
    for key, c in vec.items():
        if key <= nb:
            b[key] = c
        else:
            cell, k = divmod(key - nb - 1, na)
            cells.setdefault(divmod(cell, nb), {})[k + 1] = c
    entries = {(i + 1, j + 1): AlgElement(wa.a_host, t) for (i, j), t in cells.items()}
    s = SMatrix(wa.indexing, wa.a_host, entries, flag)
    return WreathElement(wa, AlgElement(wa.b_host, b), s)


class WreathSpan(Span):
    """An exact span of wreath elements (see `linalg.Span`)."""

    __slots__ = ()

    # in the class body, so bench/tracing.py can wrap each class's add on its own
    add = Span.add

    @property
    def algebra(self) -> WreathAlgebra:
        return self.owner

    def _coords(self, e: WreathElement) -> dict:
        if e.algebra is not self.owner:
            raise ValueError("element of a different wreath algebra")
        return wreath_coords(e)


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
    alpha = b.terms.get(host._unit)
    if not alpha:
        raise ValueError("element has no unit component, not invertible here")
    inv_alpha = host.field.inv(alpha)
    n = AlgElement(host, {i: c for i, c in b.terms.items() if i != host._unit}).scale(inv_alpha)
    out = host.unit()
    term = host.unit()
    while True:
        # under the truncate policy whatever the host's; `out` collects the flags
        term = AlgElement(host, *host._mul_terms((-n).terms, term.terms, "truncate"))
        if not term:
            break
        out = out + term
    return out.scale(inv_alpha)


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

    def step(e):
        # products with the representatives as they stand before e's are added
        candidates = [e * g for g in translators] + [g * e for g in translators]
        for other in span.representatives():
            candidates.append(e * other)
            candidates.append(other * e)
        return candidates

    closure(span, step, max_rounds)

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
