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

The basis is numbered once, degree-major in deglex order from 1, the unit
first when the algebra is unital: the numbering of `BasisIndexing` and of
every gamma file.  The kernel works on these ints.  Element terms, the
build's tables and the word-pair products are keyed by them, and a `Word`
exists only at the edges: parsing, `element`, `degree_basis` and the
formatting of elements.  Every suffix of a normal word is normal, so a basis
word is recorded as its first letter and the index of its tail.  A candidate
x*u of degree d gets the key x*M + u, M the least index of degree d.  Every
index so far is below M, so the keys sort like the words x*u (first letter,
then tails of one degree in deglex order), and the pivots are the ones a
word-keyed echelon picks.  Once degree d is built, `_letter[x][u]` holds
nf(x*u): the basis index of x*u when that word is normal, its reduction (a
dict) otherwise.

Right translation costs one letter step per product.  For u = a*u' the
normal form nf(u*v) is a * nf(u'*v): one `_apply_letter` on a normal form
found before.  `_walk` walks down the tails to a known product and takes one
letter step per level on the way back.  It fills `_pair_cache`, the one table
of products u*v of basis words, and only with products inside the
truncation; the build drops the entries of low degrees as it goes.  The
build translates each kernel row in one pass (`_ideal_vectors`): it splits
every candidate x*u of the row once, and the translate by a normal
generator v sends x*u to nf(u*v), u's pair-cache entry, shifted to the
candidates x*w.  A row {x*u: 1} is a monomial zero, and its translate is a
copy of that entry; only the rows of several candidates sum and reduce.  Any
other word is read off the letter tables, then one letter step per letter
left (`_nf_word`).  A relation or a translate that is empty, or a multiple
c*w of one candidate whose row is {w: 1}, reduces to zero and is not
inserted; for a copy that is read off nf(u*v), before a vector is built.
Nor is a disjoint translate inserted.  Write a kernel row's pivot x*u as
L*t, L the shortest prefix that is not a normal word: the translate by v is
skipped when t*v is not normal, as a leading word then ends at v inside
t*v, apart from L, an ambiguity that resolves by itself (Bergman's diamond
lemma; the proof is in `_ideal_vectors`).  The kernel keeps t beside each
pivot, found as t*v of the row the pivot's natural translate came from.

Degrees above N follow the overflow policy: `reject` raises, `truncate`
drops the escaping terms and flags the element so downstream dimension
reports can mark themselves as lower bounds.  When the computed dimensions
certify that every component from some degree on is zero (a zero window of
length max generator degree), products there are exact zeros, not
truncations, and no flag is raised.  Indices being degree-major, a word
pair (u, v) is inside iff v < `_first[top - deg u + 1]`, top the degree
below that zero, or N; a pair outside is skipped or flagged, never stored.
"""

from __future__ import annotations

from types import MappingProxyType

from .freealg import Combination, FreeElement
from .linalg import Echelon, Span, power_levels, reduced
from .scalars import Field, FieldMismatchError
from .words import EMPTY_WORD, Alphabet, Word


# The reduction of a pivot candidate that is zero in the quotient; all such
# pivots share this one read-only mapping.
_NO_TERMS = MappingProxyType({})

# The product of a word pair that leaves the truncation with a remainder that
# is not certified zero: empty, and flagged by identity.
_ESCAPED = MappingProxyType({})


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
    """A finitely presented graded algebra computed exactly up to degree N.

    Basis index i (see the module docstring) is the word of degree
    `_degree[i]` with first letter `_head[i]` and tail `_tail[i]`;
    `_first[d]` is the least index of degree d.  `_unit` is the index of the
    empty word: 1 when the algebra is unital, else 0, which no element holds.
    """

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

        unit = self._unit = 1 if self.unital else 0
        self._first = [unit, unit + 1]
        self._head = [None] * (unit + 1)
        self._tail = [None] * (unit + 1)
        self._degree = [0] * (unit + 1)
        # _letter[x][u] = nf(x*u): an int or a reduction (module docstring),
        # None while x*u is above N or not built yet
        self._letter = [[None] * (unit + 1) for _ in self.alphabet.degrees]
        self._pair_cache = {}  # u -> {v: nf(u*v)} inside the truncation, see `_walk`
        self._build(by_degree)
        self._zero_above = self._zero_certificate()

    # -- construction ---------------------------------------------------

    def _build(self, relations_by_degree):
        p, one = self.field.characteristic, self.field.one
        degrees = self.alphabet.degrees
        gens = range(len(degrees))
        N = self.truncation_degree
        span = max(degrees, default=1)
        unit, first, head, tail = self._unit, self._first, self._head, self._tail
        degree, letter = self._degree, self._letter
        # kernels[e]: the degree-e eliminant, its key base and the tails t of
        # its pivots (`_ideal_vectors`), kept only while a later degree
        # d = e + deg(g) still extends it on the right
        kernels = [None] * (N + 1)
        for d in range(1, N + 1):
            base = len(degree)  # first[d]: every index so far is below it
            ech = Echelon(self.field)
            tails = {} if d + min(degrees, default=1) <= N else None  # read by a later degree only
            relations = relations_by_degree.get(d, ())
            for vec in self._ideal_vectors(d, base, relations, kernels, ech, tails):
                ech.insert(vec)
            kernels[d] = ech, base, tails
            if d > span:
                kernels[d - span] = None
            # degree d + 1 reads nf(u*g) for deg(u) >= d + 1 - 2*span, and
            # one letter step below those; lower degrees would rarely be read
            # again, and dropping them keeps the peak RSS down
            if d > 3 * span:
                for u in range(first[d - 3 * span], first[d - 3 * span + 1]):
                    self._pair_cache.pop(u, None)
            # the normal words: the candidates that are no pivot, in key order
            index = {}  # normal candidate key -> its basis index
            for x in gens:
                e = d - degrees[x]
                if e < 0:
                    continue
                for u in range(first[e], first[e + 1]) if e else (unit,):
                    key = x * base + u
                    if key not in ech:
                        index[key] = letter[x][u] = len(degree)
                        head.append(x)
                        tail.append(u)
                        degree.append(d)
            first.append(len(degree))
            for table in letter:
                table.extend([None] * len(index))
            # a coefficient 1 is stored as the field's `one` itself, which
            # `_apply_letter` and `_ideal_vectors` then pass on unmultiplied
            for key, row in ech.pivot_rows():
                x, u = divmod(key, base)
                if len(row) == 1:
                    letter[x][u] = _NO_TERMS
                elif p:
                    letter[x][u] = {index[k]: p - c for k, c in row.items() if k != key}
                else:
                    letter[x][u] = {
                        index[k]: one if c == -1 else -c for k, c in row.items() if k != key
                    }

    def _ideal_vectors(self, d, base, relations, kernels, ech, tails):
        """The vectors to insert into `ech`, the degree-d eliminant, in the
        candidate keys of `base`: the degree-d relations, then the right
        translates of the kernels by the generators that are normal words,
        less the disjoint translates (below) and those that reduce to zero by
        sight.  Fills `tails` with the tails t of the degree-d pivots, where
        t is not the unit.

        A generator g that is not normal needs no translates.  Take f in the
        ideal and nf(g) = sum c_t t, each t = t'*y with y its last letter.
        Then f*g = sum c_t (f*t')*y + f*(g - nf(g)).  The letter y is normal,
        since a suffix of a normal word is, and f*t' lies in the ideal, so
        (f*t')*y lies in the span of the translates by y of the degree
        d - deg(y) kernel and of the left multiples x*I.  f*(g - nf(g)) is a
        left multiple itself, and the left multiples vanish in candidate
        coordinates.

        A disjoint translate needs no insert either.  Write pi(y*w) =
        y*nf(w) for the map of degree-d words onto the candidates: its kernel
        is the sum of the left multiples, and it sends a word W to keys at
        most W.  A degree-e kernel row is f = Q - nf(Q), its pivot Q = x*u.
        Write Q = L*t, L the shortest prefix of Q that is not a normal word;
        L holds x, so t is a suffix of u, and normal (L = x, t = u when x is
        not normal; relations hold no empty word, so this holds in a unital
        algebra too).  The translate of f by a normal generator v, pi(f*v),
        is skipped when t*v is not normal: a leading word then ends at v
        inside t*v, apart from L.  With h = nf(L)*t - nf(Q) =
        f - (L - nf(L))*t, an element of the degree-e ideal whose words are
        below Q,

            f*v = L*(t*v - nf(t*v)) - nf(L)*(t*v - nf(t*v))
                  + (L - nf(L))*nf(t*v) + h*v.

        The first two summands are left multiples.  By induction on the word
        Q*v (deglex; the weights enter only through the degree), every
        translate T(Q', v') of a word Q'*v' < Q*v lies in the span S of the
        relations and the kept translates, and so does pi(f*v):
        - pi(h*v) = pi(pi(h)*v) is a sum of translates T(Q', v) with
          Q' < Q, since the build is exact below d and pi(h) has keys only
          below Q;
        - for a word s = s_1...s_k of nf(t*v), s < t*v, normal, so each s_i
          is a normal generator, peel the last letter: with a the element
          (L - nf(L))*s_1...s_(k-1) of the ideal, pi(a*s_k) = pi(pi(a)*s_k)
          is a sum of translates T(Q', s_k) with Q' at most L*s_1...s_(k-1),
          so Q'*s_k <= L*s < Q*v.
        So S holds every translate, and the reduced echelon, its pivots and
        every table built from them are those of the full set.
        `ReferenceQuotient` in the tests inserts every translate.

        The tail of a pivot x*u is the unit when x*init(u) is normal, else
        t(x*init(u))*last(u) (init(u) is u without its last letter).  The
        pivot x*init(u) is the kernel row Q of degree d - deg(last(u)), and
        its translate by last(u) is kept (t*v is a suffix of u), so the pass
        records t(x*(u*v)) = t*v for every kept translate whose u*v is
        normal.  Whether u*v and t*v are normal words is read off the letter
        tables by `_append_letter`, memoised per generator v and degree d.

        One pass per kernel row, in ascending pivot order, generators
        innermost: the leading keys of the new rows then mostly arrive in
        ascending order, and `Echelon.insert` finds almost no earlier row to
        back-reduce.  The inserted set is the same in any order, so the basis
        and the reductions are too.  The pass splits each candidate x*u of
        the row once (its shift x*base, u, u's `_pair_cache` entry); the
        translate by v sends x*u to the candidates x*w of nf(u*v) = sum
        beta_w w.  The translate of a row {x*u: 1}, a monomial zero, is a
        shifted copy of nf(u*v): distinct words w give distinct keys, and
        each 1*beta_w is a nonzero residue, so a sum and `reduced` would
        return the same dict.  A row whose 1 is not the field's `one` itself
        (Fraction(1) over Q) is summed, which keeps the type of its values.

        A vector that is empty, or a multiple of a candidate whose row in
        `ech` is that candidate alone, reduces to zero and is not yielded;
        for a copy this is read off nf(u*v), before a dict is built.  `_build`
        inserts each vector before it asks for the next, so each test reads
        `ech` at the same point of the sequence as a test of the built vector
        would: the same predicate, the same state, the same order.
        """
        p, one = self.field.characteristic, self.field.one
        unit_row = ech.is_unit_row
        for r in relations:
            vec = self._free_to_candidates(r, base)
            if len(vec) > 1 or vec and not unit_row(next(iter(vec))):
                yield vec
        degrees, unit = self.alphabet.degrees, self._unit
        cache, walk, append = self._pair_cache, self._walk, self._append_letter
        for e in range(max(1, d - max(degrees, default=1)), d):
            # the generators of degree d - e that are normal, by basis index
            right = [t[unit] for g, t in enumerate(self._letter) if e + degrees[g] == d]
            right = [(v, {unit: v}) for v in right if type(v) is int]
            if kernels[e] is None or not right:
                continue
            kernel, kernel_base, kernel_tails = kernels[e]
            for pivot, row in kernel.ordered_rows():
                x, u = divmod(pivot, kernel_base)
                t = kernel_tails.get(pivot, unit)
                kept = []
                for v, memo in right:
                    uv = memo.get(u)
                    if uv is None:
                        uv = append(u, memo)  # fills memo[t] too: t is a suffix of u
                    tv = memo[t]
                    if tv:
                        kept.append(v)
                        if uv and tails is not None:
                            tails[x * base + uv] = tv
                if not kept:
                    continue
                terms = []
                for cand, c in row.items():
                    x, u = divmod(cand, kernel_base)
                    # no entry yet, or u the unit, which has none: `_walk` makes nf(u*v)
                    terms.append((x * base, c, u, cache.get(u, _NO_TERMS)))
                if len(terms) == 1 and terms[0][1] is one:
                    shift, _, u, products = terms[0]
                    for v in kept:
                        nf = products.get(v)
                        if nf is None:
                            nf = walk(u, v)
                        if len(nf) > 1:
                            yield {shift + w: beta for w, beta in nf.items()}
                        elif nf:
                            ((w, beta),) = nf.items()
                            if not unit_row(shift + w):
                                yield {shift + w: beta}
                    continue
                for v in kept:
                    out = {}
                    get = out.get
                    for shift, c, u, products in terms:
                        nf = products.get(v)
                        if nf is None:
                            nf = walk(u, v)
                        for w, beta in nf.items():
                            w += shift
                            t = c if beta is one else c * beta
                            old = get(w)
                            out[w] = t if old is None else old + t
                    if not out:
                        continue
                    vec = reduced(out, p)
                    if len(vec) > 1 or vec and not unit_row(next(iter(vec))):
                        yield vec

    def _append_letter(self, u: int, memo: dict):
        """The basis index of the word u*v, or 0 when it is not normal (no
        word of degree >= 1 has index 0), for a basis index u and the
        generator v of `memo`, which maps indices to these answers and starts
        as {unit: v}.  Walks down the tails to a word with an answer and
        takes one letter-table read per level on the way back, filling memo
        for every suffix of u: u*v is normal when tail(u)*v is and head(u)
        times it is a basis word."""
        head, tail, letter = self._head, self._tail, self._letter
        todo = []
        while u not in memo:
            todo.append(u)
            u = tail[u]
        r = memo[u]
        for u in reversed(todo):
            if r:
                r = letter[head[u]][r]
                if type(r) is not int:
                    r = 0
            memo[u] = r
        return r

    def _free_to_candidates(self, element: FreeElement, base: int) -> dict:
        """Coordinates of a homogeneous free element in the candidate keys:
        a term x*w goes to x * nf(w)."""
        vec = {}
        for w, c in element.terms.items():
            letters = w.letters
            shift = letters[0] * base
            for u, beta in self._nf_word(letters[1:]).items():
                vec[shift + u] = vec.get(shift + u, 0) + c * beta
        return reduced(vec, self.field.characteristic)

    def _walk(self, u: int, v: int) -> dict:
        """nf(u*v) for basis indices u and v, stored in `_pair_cache[u][v]`.

        For u = x*u' the normal form is nf(u*v) = x * nf(u'*v), u' the tail
        of u: one `_apply_letter` on the product of the tail.  A miss walks
        down the tails, in a loop, to a stored product or to the unit, where
        the product is v itself, and fills every entry on the way back up.
        Once a product is zero, every entry above it is `_NO_TERMS`, with no
        letter step.  The build's right translates (v a generator) and the
        word-pair products both come from here.
        """
        cache, head, tail, unit = self._pair_cache, self._head, self._tail, self._unit
        todo = []
        vec = None
        while u != unit:
            products = cache.get(u)
            if products is None:
                products = cache[u] = {}
            vec = products.get(v)
            if vec is not None:
                break
            todo.append((head[u], products))
            u = tail[u]
        if vec is None:
            vec = {v: self.field.one}
        for x, products in reversed(todo):
            if vec:
                vec = self._apply_letter(x, vec) or _NO_TERMS
            products[v] = vec
        return vec

    def _read_letters(self, letters: tuple):
        """(t, k): the letters read off the letter tables from the right
        while they spell a basis word.  t is nf(letters[k:]): the index of
        that word, or the reduction at the first letter that leaves the
        basis, and letters[:k] are left to apply."""
        letter = self._letter
        t, k = self._unit, len(letters)
        while k and type(t) is int:
            k -= 1
            t = letter[letters[k]][t]
        return t, k

    def _nf_word(self, letters: tuple) -> dict:
        """Normal form of the word with these letters, of degree <= N: read
        off the letter tables as far as they go, then one `_apply_letter`
        per letter, nf(a*w) = a * nf(w), until the form vanishes.  The result
        may be a letter-table entry: read it, never mutate it."""
        t, k = self._read_letters(letters)
        vec = {t: self.field.one} if type(t) is int else t
        while k and vec:
            k -= 1
            vec = self._apply_letter(letters[k], vec)
        return vec

    def _apply_letter(self, x: int, vec: dict) -> dict:
        """Left multiplication of a normal-coordinate vector by generator x.

        The arithmetic is inline, as in `_mul_terms`.  A coefficient that is
        the field's `one` itself (a normal word's own coefficient, or a 1 in
        a reduction) is passed on without a multiplication.
        """
        p, one = self.field.characteristic, self.field.one
        step = self._letter[x]
        out = {}
        get = out.get
        for u, beta in vec.items():
            red = step[u]
            if type(red) is int:  # x*u is the basis word with that index
                old = get(red)
                out[red] = beta if old is None else old + beta
                continue
            for v, gamma in red.items():
                t = gamma if beta is one else beta * gamma
                old = get(v)
                out[v] = t if old is None else old + t
        return reduced(out, p)

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
            if all(not self.graded_dim(d0 + j) for j in range(maxg)):
                return d0
        return None

    # -- basis indices and words -----------------------------------------

    def _indices(self, d: int) -> range:
        """The basis indices of degree d."""
        if d == 0:
            return range(self._unit, self._unit + self.unital)
        if d > self.truncation_degree:
            raise ValueError(f"degree {d} exceeds the truncation degree")
        return range(self._first[d], self._first[d + 1])

    def _word(self, i: int) -> Word:
        """The basis word with index i."""
        d, letters = self._degree[i], []
        while i != self._unit:
            letters.append(self._head[i])
            i = self._tail[i]
        return Word(tuple(letters), d)

    def _index(self, w: Word):
        """The basis index of a word, or None if it is not a basis word."""
        if not w.letters:
            return self._unit if self.unital else None
        if w.degree > self.truncation_degree:
            return None
        t, _ = self._read_letters(w.letters)  # a suffix of a basis word is one
        return t if type(t) is int else None

    # -- inspection -------------------------------------------------------

    def graded_dim(self, d: int) -> int:
        return len(self._indices(d))

    def degree_basis(self, d: int):
        return [self._word(i) for i in self._indices(d)]

    def ideal_dim(self, d: int) -> int:
        """dim of the degree-d ideal component = word count minus quotient dim."""
        if d < 1 or d > self.truncation_degree:
            raise ValueError("degree out of range")
        return self.alphabet.word_count(d) - self.graded_dim(d)

    def total_dim(self, up_to=None) -> int:
        up_to = self.truncation_degree if up_to is None else up_to
        return self._first[up_to + 1] - 1

    def basis_words(self):
        """All basis words by index: degree-major deglex, the unit word first if unital."""
        return [self._word(i) for i in range(1, self._first[-1])]

    @property
    def zero_above(self):
        return self._zero_above

    # -- elements ---------------------------------------------------------

    def zero(self) -> "AlgElement":
        return AlgElement(self, {})

    def unit(self) -> "AlgElement":
        if not self.unital:
            raise ValueError("algebra has no identity")
        return AlgElement(self, {self._unit: self.field.one})

    def gen(self, i) -> "AlgElement":
        if isinstance(i, str):
            i = self.alphabet.index(i)
        w = self.alphabet.gen(i)
        return self.from_free(FreeElement.from_word(self.alphabet, self.field, w))

    def element(self, terms: dict) -> "AlgElement":
        """Element from normal-word coordinates (words must be basis words).

        A coefficient is an int or a raw value of this field (see
        `Field.coerce`).
        """
        f = self.field
        clean = {}
        for w, c in terms.items():
            c = f.coerce(c)
            if not c:
                continue
            i = self._index(w)
            if i is None:
                if w.is_empty:
                    raise ValueError("unit coordinate in a non-unital algebra")
                raise ValueError(f"{w!r} is not a normal basis word")
            clean[i] = c
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
            for u, beta in self._nf_word(w.letters).items():
                terms[u] = terms.get(u, 0) + c * beta
        return AlgElement(self, reduced(terms, self.field.characteristic), flag)

    def _word_pair_product(self, u: int, v: int) -> dict:
        """nf(u*v) for basis indices u and v: within the truncation the
        `_pair_cache` entry, through `_walk`; beyond it `_NO_TERMS` when
        certified zero, else `_ESCAPED`, and nothing is stored, so the cache
        holds only products inside the truncation.  Read, never mutate it."""
        one = self.field.one
        if u == self._unit:
            return {v: one}
        if v == self._unit:
            return {u: one}
        d = self._degree[u] + self._degree[v]
        if d <= self.truncation_degree:
            return self._walk(u, v)
        return _NO_TERMS if self._zero_above is not None else _ESCAPED

    def _mul_terms(self, a: dict, b: dict, policy: str):
        """Product of two normal-coordinate term maps; returns (terms, flag).

        A word pair is settled by degree first (module docstring): v at or
        above the limit `_first[top - deg u + 1]`, taken once per left word
        u, is a certified zero, skipped, or an escape, which flags the product
        (raises under `reject`), and is never looked up.  A pair inside is
        read from `_pair_cache`, through `_walk` on a miss.  The arithmetic is
        inline, as in `linalg._eliminate`: sums are reduced mod p, and their
        zeros dropped, once at the end; a coefficient that is the field's
        `one` itself (the int 1) is passed on without a multiplication.
        """
        p, one = self.field.characteristic, self.field.one
        cache, unit, first, degree = self._pair_cache, self._unit, self._first, self._degree
        certified = self._zero_above is not None
        top = self._zero_above - 1 if certified else self.truncation_degree
        out, flag = {}, False
        get = out.get
        for u, cu in a.items():
            if u == unit:
                for v, cv in b.items():
                    c = cv if cu is one else cu if cv is one else cu * cv
                    x = get(v)
                    out[v] = c if x is None else x + c
                continue
            limit = first[top - degree[u] + 1]
            products = cache.get(u, _NO_TERMS)  # `_walk` adds it on a miss
            for v, cv in b.items():
                if v >= limit:
                    if not certified:
                        if policy == "reject":
                            raise TruncationOverflow(
                                f"product of degrees {degree[u]} and {degree[v]} "
                                f"exceeds {self.truncation_degree}"
                            )
                        flag = True
                    continue
                if cu is one:
                    c = cv
                elif cv is one:
                    c = cu
                else:
                    c = cu * cv % p if p else cu * cv
                if v == unit:
                    x = get(u)
                    out[u] = c if x is None else x + c
                    continue
                vec = products.get(v)
                if vec is None:
                    vec = self._walk(u, v)
                if c is one:
                    for w, cw in vec.items():
                        x = get(w)
                        out[w] = cw if x is None else x + cw
                else:
                    for w, cw in vec.items():
                        t = c if cw is one else c * cw
                        x = get(w)
                        out[w] = t if x is None else x + t
        return reduced(out, p), flag

    def __repr__(self):
        return (
            f"TruncatedAlgebra({self.alphabet!r}, N={self.truncation_degree}, "
            f"dims={[self.graded_dim(d) for d in range(1, self.truncation_degree + 1)]})"
        )


class AlgElement(Combination):
    """An element of a truncated algebra in normal-word coordinates, keyed by
    basis index.

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

    def _word(self, i):
        return self.host._word(i)

    def _key(self, word):
        return self.host._index(word)

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


def growth_dims(alg: TruncatedAlgebra, generators, n_max: int):
    """Growth of the subalgebra generated by a spanning set or subspace.

    Entry n (1-based) is dim span{v_1 ... v_k : k <= n, v_i in the spanning
    set}, together with an exactness bit that goes False as soon as a product
    escapes the truncation: level n of `linalg.power_levels`.
    """
    if isinstance(generators, Subspace):
        generators = generators.representatives()
    return [(lv.dim, lv.exact) for lv in power_levels(Subspace(alg, generators), n_max)]
