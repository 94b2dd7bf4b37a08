"""Words over a graded generator alphabet, ordered degree-lexicographically.

Words are stored as tuples of generator indices with the total degree cached;
all orderings and degree arithmetic happen on those tuples, never on strings.
The degree-lexicographic order (degree first, then the index sequence) is the
single monomial order used everywhere in the kernel.
"""

from __future__ import annotations

import re

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Word:
    """A word in the generators: an index sequence plus its cached degree."""

    __slots__ = ("letters", "degree", "_hash")

    def __init__(self, letters: tuple, degree: int):
        self.letters = letters
        self.degree = degree
        self._hash = hash(letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters, self.degree + other.degree)

    def __len__(self):
        return len(self.letters)

    @property
    def is_empty(self) -> bool:
        return not self.letters

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and self.degree == other.degree
            and self.letters == other.letters
        )

    def __hash__(self):
        return self._hash

    # deglex: compare by degree, ties broken by the index sequence
    def __lt__(self, other):
        return (self.degree, self.letters) < (other.degree, other.letters)

    def __le__(self, other):
        return (self.degree, self.letters) <= (other.degree, other.letters)

    def __gt__(self, other):
        return (self.degree, self.letters) > (other.degree, other.letters)

    def __ge__(self, other):
        return (self.degree, self.letters) >= (other.degree, other.letters)

    def __repr__(self):
        return f"Word{self.letters}"


EMPTY_WORD = Word((), 0)


class Alphabet:
    """An ordered list of named generators with positive integer degrees.

    The list order is the canonical generator order: it breaks deglex ties
    and fixes every deterministic choice downstream.
    """

    __slots__ = ("names", "degrees", "_index", "_longest_first")

    def __init__(self, generators):
        names, degrees = [], []
        for name, degree in generators:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad generator name {name!r}")
            if not isinstance(degree, int) or degree < 1:
                raise ValueError(f"generator {name}: degree must be a positive integer")
            names.append(name)
            degrees.append(degree)
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self._index = {n: i for i, n in enumerate(names)}
        self._longest_first = sorted(range(len(names)), key=lambda i: -len(names[i]))

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, Alphabet)
            and self.names == other.names
            and self.degrees == other.degrees
        )

    def __hash__(self):
        return hash((self.names, self.degrees))

    def __repr__(self):
        gens = " ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"Alphabet({gens})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def word(self, letters) -> Word:
        letters = tuple(letters)
        degree = 0
        for i in letters:
            degree += self.degrees[i]
        return Word(letters, degree)

    def gen(self, i: int) -> Word:
        return Word((i,), self.degrees[i])

    def word_count(self, d: int) -> int:
        """Number of words of total degree exactly d (1 for d = 0)."""
        counts = [1] + [0] * d
        for e in range(1, d + 1):
            c = 0
            for gd in self.degrees:
                if gd <= e:
                    c += counts[e - gd]
            counts[e] = c
        return counts[d]

    def segment(self, token: str):
        """Split an identifier into generator indices (longest match first).

        `xy` over generators x, y gives [x, y]; `x1x2` over x1, x2 works the
        same way.  Raises if no segmentation exists.  Among several
        segmentations the first one in longest-match-first search order wins,
        so a token that is a generator's name reads as that generator: no
        longer name matches at its start.
        """
        i = self._index.get(token)
        if i is not None:
            return [i]
        by_len = self._longest_first
        n = len(token)
        # pick[pos]: the generator the longest-first search takes at pos, or
        # None when token[pos:] cannot be read; filled right to left, and
        # pick[n] marks the end of the token
        pick = [None] * n + [-1]
        for pos in range(n - 1, -1, -1):
            pick[pos] = next(
                (
                    i
                    for i in by_len
                    if token.startswith(self.names[i], pos)
                    and pick[pos + len(self.names[i])] is not None
                ),
                None,
            )
        if pick[0] is None:
            raise KeyError(f"cannot read {token!r} as a product of generators")
        out, pos = [], 0
        while pos < n:
            out.append(pick[pos])
            pos += len(self.names[pick[pos]])
        return out

    def format_word(self, w: Word) -> str:
        if w.is_empty:
            return "1"
        parts = []
        run_idx, run_len = w.letters[0], 0
        for i in list(w.letters) + [None]:
            if i == run_idx:
                run_len += 1
                continue
            name = self.names[run_idx]
            parts.append(name if run_len == 1 else f"{name}^{run_len}")
            run_idx, run_len = i, 1
        return "*".join(parts)
