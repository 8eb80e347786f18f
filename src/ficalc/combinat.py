"""Combinatorics of finite sets and injections.

Conventions used throughout the package:

* the finite set of size ``n`` is ``{0, 1, ..., n-1}``;
* an injection is recorded by its value tuple, so ``Injection(2, 4, (3, 0))``
  sends 0 to 3 and 1 to 0;
* adjacent transpositions are indexed 1..k-1, generator ``i`` swapping the
  points ``i-1`` and ``i``;
* words of generators multiply like functions composed right to left: the
  word ``[a, b]`` denotes (transposition a) after (transposition b).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class SizeMismatchError(ValueError):
    """Raised when injections are composed along incompatible sizes."""


@dataclass(frozen=True)
class Injection:
    """An injective map {0..source_size-1} -> {0..target_size-1}."""

    source_size: int
    target_size: int
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if self.source_size < 0 or self.target_size < 0:
            raise ValueError("sizes must be non-negative")
        if len(self.values) != self.source_size:
            raise ValueError("value tuple length must equal source size")
        if any(not (0 <= v < self.target_size) for v in self.values):
            raise ValueError("values out of range")
        if len(set(self.values)) != len(self.values):
            raise ValueError("values must be distinct (injectivity)")

    def __call__(self, x: int) -> int:
        return self.values[x]

    @property
    def image(self) -> frozenset[int]:
        return frozenset(self.values)

    def is_permutation(self) -> bool:
        return self.source_size == self.target_size


def identity_injection(n: int) -> Injection:
    return Injection(n, n, tuple(range(n)))


def standard_inclusion(n: int, k: int) -> Injection:
    """The order-preserving inclusion of {0..n-1} into {0..k-1}."""
    if n > k:
        raise SizeMismatchError(f"no inclusion of size {n} into size {k}")
    return Injection(n, k, tuple(range(n)))


def enumerate_injections(n: int, k: int) -> list[Injection]:
    """All injections n -> k in lexicographic order of value tuples.

    >>> [f.values for f in enumerate_injections(2, 3)]
    [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    """
    if n < 0 or k < 0:
        raise ValueError("sizes must be non-negative")
    return [Injection(n, k, vals) for vals in itertools.permutations(range(k), n)]


def compose(g: Injection, f: Injection) -> Injection:
    """g after f; sizes must chain (f.target == g.source)."""
    if f.target_size != g.source_size:
        raise SizeMismatchError(
            f"cannot compose: inner target {f.target_size} != outer source {g.source_size}"
        )
    return Injection(f.source_size, g.target_size, tuple(g.values[v] for v in f.values))


def factor_injection(f: Injection) -> tuple[Injection, int]:
    """Factor f: n -> k as (permutation of k) after (standard inclusion n -> k).

    Returns (sigma, k - n) where sigma agrees with f on {0..n-1} and lists the
    complement of the image in increasing order afterwards.

    >>> sigma, steps = factor_injection(Injection(1, 4, (3,)))
    >>> sigma.values, steps
    ((3, 0, 1, 2), 3)
    """
    used = set(f.values)
    rest = [v for v in range(f.target_size) if v not in used]
    sigma = Injection(f.target_size, f.target_size, f.values + tuple(rest))
    return sigma, f.target_size - f.source_size


# ---------------------------------------------------------------------------
# permutations as words in adjacent transpositions
# ---------------------------------------------------------------------------


def permutation_from_word(word: list[int] | tuple[int, ...], k: int) -> tuple[int, ...]:
    """Evaluate a word of adjacent-transposition indices to a permutation of k.

    The word multiplies like a product of functions: ``[a, b]`` is the map
    x -> t_a(t_b(x)).
    """
    perm = list(range(k))
    # right-composing with t_i swaps the entries at positions i-1 and i, so a
    # left-to-right fold over the word realizes t_{w1} . t_{w2} . ... . t_{wm}
    for i in word:
        if not 1 <= i <= k - 1:
            raise ValueError(f"generator index {i} out of range for size {k}")
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return tuple(perm)


def word_from_permutation(perm: tuple[int, ...]) -> list[int]:
    """A word of adjacent transpositions evaluating to the given permutation."""
    p = list(perm)
    if sorted(p) != list(range(len(p))):
        raise ValueError("not a permutation")
    word: list[int] = []
    # bubble-sort p to the identity by right-multiplication with adjacent swaps
    changed = True
    while changed:
        changed = False
        for i in range(1, len(p)):
            if p[i - 1] > p[i]:
                p[i - 1], p[i] = p[i], p[i - 1]
                word.append(i)
                changed = True
    # p . t_{w1} ... t_{wm} = id, hence p = t_{wm} ... t_{w1} reversed
    word.reverse()
    return word


def permutation_sign(perm: tuple[int, ...]) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle type of a permutation as a partition (weakly decreasing)."""
    seen = [False] * len(perm)
    lens = []
    for s in range(len(perm)):
        if seen[s]:
            continue
        length = 0
        x = s
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        lens.append(length)
    return tuple(sorted(lens, reverse=True))


def check_partition(lam) -> tuple[int, ...]:
    """lam as a tuple of ints, refused unless its parts are positive and
    weakly decreasing: the one check of a partition, and so of a cycle type.
    A part that is not an ``int``, or is a ``bool``, is refused with a
    ``TypeError``, not converted."""
    lam = tuple(lam)
    for x in lam:
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeError(f"partition parts must be ints, not {x!r}: {lam}")
    if any(x <= 0 for x in lam):
        raise ValueError(f"partition parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition must be weakly decreasing: {lam}")
    return lam


def conjugacy_class_word(cycle_type_: tuple[int, ...]) -> list[int]:
    """A word in adjacent transpositions whose value has the given cycle type.

    The representative permutes consecutive blocks: a part of size c starting
    at position p contributes the word [p+1, ..., p+c-1].

    The words are prefix-closed: dropping the last letter of a nonempty word
    gives the word of the cycle type that splits one point off the smallest
    part > 1, so the words of all cycle types of a size form a tree rooted at
    the identity's empty word.

    >>> conjugacy_class_word((3,))
    [1, 2]
    >>> conjugacy_class_word((1, 1))
    []
    """
    word = []
    p = 0
    for c in check_partition(cycle_type_):
        word.extend(range(p + 1, p + c))
        p += c
    return word


# ---------------------------------------------------------------------------
# the poset of partial matchings between two finite sets
# ---------------------------------------------------------------------------

# an element is a nonempty partial bijection {0..n-1} -> {0..k-1}, stored as a
# tuple of (source, target) pairs sorted by source
Matching = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PartialBijectionPoset:
    """Nonempty partial bijections n -> k, ordered by extension."""

    n: int
    k: int
    elements: tuple[Matching, ...]
    cover_relations: tuple[tuple[int, int], ...]

    def index(self, element: Matching) -> int:
        return self.elements.index(element)


def _matching_key(m: Matching) -> tuple:
    srcs = tuple(p[0] for p in m)
    tgts = tuple(sorted(p[1] for p in m))
    phi = tuple(p[1] for p in m)
    return (srcs, tgts, phi)


def build_poset(n: int, k: int) -> PartialBijectionPoset:
    """The poset of nonempty partial bijections between sizes n and k.

    Elements are triples (S, T, phi) with S a nonempty subset of {0..n-1},
    T a subset of {0..k-1} of the same size and phi : S -> T a bijection;
    (S, T, phi) <= (S', T', phi') iff S <= S' and phi' restricts to phi.
    Element order is lexicographic on (S, T, phi); covers add one point.
    """
    if n < 0 or k < 0:
        raise ValueError("sizes must be non-negative")
    elements: list[Matching] = []
    for j in range(1, min(n, k) + 1):
        for srcs in itertools.combinations(range(n), j):
            for tgts in itertools.permutations(range(k), j):
                elements.append(tuple(zip(srcs, tgts)))
    elements.sort(key=_matching_key)
    index = {m: i for i, m in enumerate(elements)}
    covers = []
    for i, m in enumerate(elements):
        if len(m) < 2:
            continue
        for drop in range(len(m)):
            sub = m[:drop] + m[drop + 1 :]
            covers.append((index[sub], i))
    covers.sort()
    return PartialBijectionPoset(n, k, tuple(elements), tuple(covers))


def poset_size_formula(n: int, k: int) -> int:
    """Closed-form element count: sum_j C(n,j) C(k,j) j!."""
    import math

    return sum(
        math.comb(n, j) * math.comb(k, j) * math.factorial(j) for j in range(1, min(n, k) + 1)
    )
