"""Shared builders for randomized tests: algebras, elements, matrices, maps."""

from fractions import Fraction
from itertools import combinations_with_replacement, product

from wreathkit import (
    Alphabet,
    GammaMap,
    Presentation,
    SMatrix,
    TruncatedAlgebra,
    parse_element,
)


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


def assert_raw(field, c):
    """c is a stored coefficient: nonzero, a Fraction over Q, a residue over GF(p)."""
    assert not field.is_zero(c), "a zero coefficient is stored"
    if field.kind == "rational":
        assert isinstance(c, Fraction)
    else:
        assert isinstance(c, int) and 0 <= c < field.characteristic
