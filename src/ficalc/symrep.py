"""Exact character theory of the symmetric groups.

Partitions are weakly decreasing tuples of positive ints; the canonical
ordering everywhere is reverse-lexicographic, so ``partitions_of(4)`` starts
at ``(4,)`` and ends at ``(1, 1, 1, 1)``.  Class functions are value tuples
aligned with that ordering (conjugacy classes = cycle types = partitions).

Irreducible characters come from the Murnaghan-Nakayama rim-hook recursion,
which removes each rim hook directly on the partition, and each character
table is built once; Kostka numbers from exhaustive semistandard tableau
enumeration; Specht matrices from standard polytabloids, with coordinates
read off one elimination.  These are independent routes, which the
test-suite plays against each other.  Class-function arithmetic is in
integers: values are brought to a common denominator and weighted by the
cached class sizes, and one ``Fraction`` is built per answer.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .combinat import check_partition, conjugacy_class_word
from .exactla import CrossCheckError, SparseMatrix, VectorReducer

Partition = tuple[int, ...]


class NotACharacterError(ValueError):
    """A class function failed to decompose with non-negative integer multiplicities."""


class StableRangeError(ValueError):
    """An operation was requested below its stable range."""


@functools.lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order.

    >>> partitions_of(4)
    ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return tuple(_partitions(n, n))


def _partitions(m: int, largest: int):
    """The partitions of m with parts at most ``largest``, in reverse-lexicographic order."""
    if m == 0:
        yield ()
    for first in range(min(m, largest), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def class_size(cycle_type: Partition) -> int:
    """Size of the conjugacy class with the given cycle type."""
    cycle_type = check_partition(cycle_type)
    n = sum(cycle_type)
    z = 1
    for length, mult in _multiplicities(cycle_type).items():
        z *= length**mult * math.factorial(mult)
    return math.factorial(n) // z


def _multiplicities(parts: Partition) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in parts:
        out[p] = out.get(p, 0) + 1
    return out


@dataclass(frozen=True)
class ClassFunction:
    """A rational class function on the symmetric group of degree n.

    ``values[i]`` is the value on the class whose cycle type is
    ``partitions_of(n)[i]``.  Values are exact: a ``float`` or a ``bool``
    is refused with a ``TypeError``.
    """

    n: int
    values: tuple

    def __post_init__(self):
        for v in self.values:
            if isinstance(v, (float, bool)):
                raise TypeError(f"class function values must be exact rationals, not {v!r}")
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))
        if len(self.values) != len(partitions_of(self.n)):
            raise ValueError("one value per conjugacy class required")

    def __call__(self, cycle_type) -> Fraction:
        ct = check_partition(cycle_type) if cycle_type else ()
        if sum(ct) != self.n:
            raise ValueError(f"cycle type {ct} is not a partition of n = {self.n}")
        return self.values[partitions_of(self.n).index(ct)]

    @property
    def dimension(self) -> Fraction:
        """Value on the identity class (1^n)."""
        return self.values[-1] if self.n > 0 else self.values[0]


@functools.lru_cache(maxsize=None)
def _class_tree(n: int) -> tuple[tuple[tuple[int, ...], ...], dict]:
    """The class words of S_n, one per cycle type in ``partitions_of(n)``
    order, and the map from each word to the words one letter longer that
    extend it.  ``conjugacy_class_word`` gives prefix-closed words, so this
    is a tree rooted at the identity's empty word.  Built once per n; the
    callers only read it."""
    words = tuple(tuple(conjugacy_class_word(ct)) for ct in partitions_of(n))
    children: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for word in words:
        if word:
            children.setdefault(word[:-1], []).append(word)
    return words, children


def action_character(n: int, dim: int, act) -> ClassFunction:
    """Character of an S_n-action on a space of dimension ``dim``, where
    ``act(g, vecs)`` applies the adjacent transposition s_g (g = 1..n-1) to
    each sparse vector of the list ``vecs`` and returns the list of images,
    which it may share with its own data: they are only read.

    The walk goes down the class tree of ``_class_tree`` depth first, with
    one image list per class, the whole basis under the class's word: one
    ``act`` of the class's last letter on its parent's list.  So at most
    depth + 1 lists are alive, and each class's value is the trace read off
    its own list.  The image at a class is the basis under its word read
    letter by letter, the inverse of the class's representative and so in
    the same class.  The values are therefore the character only when the
    generators satisfy the Coxeter relations; otherwise they are the traces
    of those words' products, s_{w_m} ... s_{w_1} for the word w_1 ... w_m.
    """
    words, children = _class_tree(n)
    traces = dict.fromkeys(words, 0)
    if dim:  # an empty space has the zero character and calls no ``act``
        _walk((), [{b: 1} for b in range(dim)], children, act, traces)
    return ClassFunction(n, tuple(traces[word] for word in words))


def _walk(word, images, children, act, traces) -> None:
    """Record the trace of ``images``, the basis under ``word``, and walk
    the subtree of ``word`` in ``children``, one ``act`` per child."""
    traces[word] = sum(map(dict.get, images, range(len(images)), itertools.repeat(0)))
    for child in children.get(word, ()):
        _walk(child, act(child[-1], images), children, act, traces)


def _over_common_denominator(values) -> tuple[list[int], int]:
    """Integers x_i and one d > 0 with values[i] = x_i / d, for a tuple of
    ``Fraction``s; d is the least common multiple of their denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def inner_product(f: ClassFunction, g: ClassFunction) -> Fraction:
    """The invariant form <f, g> = (1/n!) sum over classes mu of
    |mu| f(mu) g(mu); the class functions are real, so nothing is
    conjugated.  Both value tuples are brought to a common denominator and
    weighted by the cached class sizes, so the sum runs over integers and
    one ``Fraction`` is built at the end."""
    if f.n != g.n:
        raise ValueError("class functions live on different groups")
    a, a_den = _over_common_denominator(f.values)
    b, b_den = _over_common_denominator(g.values)
    total = sum(map(operator.mul, map(operator.mul, _class_sizes(f.n), a), b))
    return Fraction(total, a_den * b_den * math.factorial(f.n))


# ---------------------------------------------------------------------------
# shapes, hooks, standard tableaux
# ---------------------------------------------------------------------------


def conjugate_partition(lam: Partition) -> Partition:
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def hook_lengths(lam: Partition) -> list[list[int]]:
    lam = check_partition(lam)
    conj = conjugate_partition(lam)
    return [
        [(lam[i] - j - 1) + (conj[j] - i - 1) + 1 for j in range(lam[i])]
        for i in range(len(lam))
    ]


def standard_tableaux(lam: Partition) -> list[tuple[tuple[int, ...], ...]]:
    """All standard Young tableaux of the given shape, entries 1..n, sorted."""
    lam = check_partition(lam)
    return sorted(_tableaux(lam, sum(lam)))


def _tableaux(shape: Partition, n: int):
    """The standard tableaux of ``shape``, whose n cells are entries 1..n,
    with n placed in each corner in turn."""
    if n == 0:
        yield tuple(() for _ in shape) if shape else ()
        return
    for i in range(len(shape)):
        if shape[i] and (i == len(shape) - 1 or shape[i] > shape[i + 1]):
            smaller = shape[:i] + (shape[i] - 1,) + shape[i + 1 :]
            for t in _tableaux(smaller, n - 1):
                rows = [tuple(t[r]) if r < len(t) else () for r in range(len(shape))]
                rows[i] = rows[i] + (n,)
                yield tuple(rows)


def _tableau_count(lam: Partition, memo: dict | None = None) -> int:
    """The number of standard tableaux of shape lam by the branching rule:
    the largest entry sits in a corner, so it is the sum of the counts of
    lam minus each corner, memoized over the sub-diagrams (at most
    prod(lam_i + 1)), down to the empty diagram, which has one."""
    memo = {(): 1} if memo is None else memo
    if lam not in memo:  # a corner in a row of one cell is in the last row
        corners = [i for i, x in enumerate(lam) if i + 1 == len(lam) or x > lam[i + 1]]
        smaller = (lam[:i] + (lam[i] - 1,) * (lam[i] > 1) + lam[i + 1 :] for i in corners)
        memo[lam] = sum(_tableau_count(mu, memo) for mu in smaller)
    return memo[lam]


def specht_dimension(lam: Partition) -> int:
    """Dimension of the irreducible labelled by ``lam``.

    Computed by the hook length formula and cross-checked against the count
    of standard tableaux (``_tableau_count``).
    """
    lam = check_partition(lam)
    by_hooks = math.factorial(sum(lam)) // math.prod(h for row in hook_lengths(lam) for h in row)
    by_count = _tableau_count(lam)
    if by_hooks != by_count:
        raise CrossCheckError(
            f"hook formula ({by_hooks}) disagrees with tableau count ({by_count}) at {lam}"
        )
    return by_hooks


# ---------------------------------------------------------------------------
# Kostka numbers via semistandard tableaux
# ---------------------------------------------------------------------------


def _ssyt_count(lam: Partition, content: tuple[int, ...]) -> int:
    """Number of semistandard tableaux of shape lam and the given content."""
    rows = len(lam)
    if rows == 0:
        return 1 if not content else 0
    cells = [(i, j) for i in range(rows) for j in range(lam[i])]
    return _fill(cells, 0, [[0] * lam[i] for i in range(rows)], list(content))


def _fill(cells, idx: int, tableau, remaining) -> int:
    """The ways to fill ``cells[idx:]`` of ``tableau``, in order, with the
    entries ``remaining`` counts, keeping it semistandard."""
    if idx == len(cells):
        return 1
    i, j = cells[idx]
    total = 0
    lo = 1
    if j > 0:
        lo = max(lo, tableau[i][j - 1])  # weak increase along rows
    if i > 0:
        lo = max(lo, tableau[i - 1][j] + 1)  # strict increase down columns
    for v in range(lo, len(remaining) + 1):
        if remaining[v - 1] == 0:
            continue
        remaining[v - 1] -= 1
        tableau[i][j] = v
        total += _fill(cells, idx + 1, tableau, remaining)
        remaining[v - 1] += 1
    tableau[i][j] = 0
    return total


@functools.lru_cache(maxsize=None)
def kostka(lam: Partition, mu: Partition) -> int:
    """Kostka number: semistandard tableaux of shape lam and content mu."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("shape and content must have equal size")
    return _ssyt_count(lam, mu)


# ---------------------------------------------------------------------------
# irreducible characters (rim-hook recursion on the partition)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _mn(lam: Partition, mu: Partition) -> int:
    """chi^lam on the class mu by the Murnaghan-Nakayama rule: the sum over
    the rim hooks of length mu_0 in lam of (-1)^(height) chi^(lam - hook) on
    the rest of mu.  In the beta-set beta_i = lam_i + L - 1 - i (L = len(lam),
    Macdonald I.1), a rim hook of length t is a bead i moved down to an
    empty c = beta_i - t >= 0.  With p the first index after i such that
    beta_p < c, the beads i+1 .. p-1 sit between c and beta_i, so the height
    is p - 1 - i, and the smaller partition is read off lam directly:
    lam_0 .. lam_{i-1}, lam_{i+1} - 1, .., lam_{p-1} - 1, c - (L - p),
    lam_p, .., with its trailing zeros stripped."""
    if not mu:
        return 1 if not lam else 0
    t, rest = mu[0], mu[1:]
    length = len(lam)
    beta = [x + length - 1 - i for i, x in enumerate(lam)]
    total = 0
    for i, b in enumerate(beta):
        c = b - t
        if c < 0:  # beta decreases, so every later bead would go below 0 too
            break
        p = i + 1
        while p < length and beta[p] > c:
            p += 1
        if p < length and beta[p] == c:
            continue
        smaller = lam[:i] + tuple(x - 1 for x in lam[i + 1 : p]) + (c - length + p,) + lam[p:]
        while smaller and not smaller[-1]:
            smaller = smaller[:-1]
        value = _mn(smaller, rest)
        total += -value if (p - 1 - i) % 2 else value
    return total


def irreducible_character(lam: Partition, cycle_type: Partition) -> int:
    """Character value of the irreducible ``lam`` on the class ``cycle_type``."""
    lam = check_partition(lam)
    ct = check_partition(cycle_type)
    if sum(lam) != sum(ct):
        raise ValueError("partition and cycle type must have equal size")
    return _mn(lam, ct)


def irreducible_class_function(lam: Partition) -> ClassFunction:
    """The irreducible character ``lam`` as a class function: its row of
    ``character_table``."""
    lam = check_partition(lam)
    n = sum(lam)
    return ClassFunction(n, character_table(n)[partitions_of(n).index(lam)])


@functools.lru_cache(maxsize=None)
def character_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows = partitions (revlex), columns = classes (revlex)."""
    parts = partitions_of(n)
    return tuple(tuple(_mn(lam, ct) for ct in parts) for lam in parts)


@functools.lru_cache(maxsize=None)
def _class_sizes(n: int) -> tuple[int, ...]:
    return tuple(class_size(ct) for ct in partitions_of(n))


def young_permutation_character(mu: Partition) -> ClassFunction:
    """Character of the permutation module on ordered set partitions of content mu."""
    mu = check_partition(mu)
    n = sum(mu)
    return ClassFunction(n, tuple(_placements(ct, mu, {}) for ct in partitions_of(n)))


def _placements(cycles: Partition, caps: tuple[int, ...], memo: dict) -> int:
    """The ways to put each of the ``cycles`` into a block with room for it
    that fill every block exactly, the blocks holding ``caps`` points:
    the ordered set partitions a permutation of that cycle type fixes.
    Memoized over the caps left for each number of cycles left."""
    if not cycles:
        return 1 if all(c == 0 for c in caps) else 0
    key = (len(cycles), caps)
    if key not in memo:
        c = cycles[0]
        memo[key] = sum(
            _placements(cycles[1:], caps[:b] + (caps[b] - c,) + caps[b + 1 :], memo)
            for b in range(len(caps))
            if caps[b] >= c
        )
    return memo[key]


@dataclass
class RepDecomposition:
    """Multiplicities of irreducibles in a virtual character."""

    n: int
    multiplicities: dict[Partition, int]

    def nonzero(self) -> dict[Partition, int]:
        return {lam: m for lam, m in self.multiplicities.items() if m}


def decompose_class_function(f: ClassFunction) -> RepDecomposition:
    """Decompose into irreducibles; raises unless all multiplicities are in Z>=0.

    The reconstruction identity (the multiplicities re-sum to the input) is
    checked before returning; a failure raises ``CrossCheckError``.
    """
    numerators, den = _over_common_denominator(f.values)
    weighted = list(map(operator.mul, _class_sizes(f.n), numerators))
    order = den * math.factorial(f.n)
    table = character_table(f.n)
    mults: dict[Partition, int] = {}
    for lam, row in zip(partitions_of(f.n), table):
        m = Fraction(sum(w * chi for w, chi in zip(weighted, row)), order)
        if m.denominator != 1 or m < 0:
            raise NotACharacterError(
                f"multiplicity of {lam} is {m}, not a non-negative integer"
            )
        mults[lam] = int(m)
    # reconstruction identity, over the rows of the same table (``mults`` is in row order)
    for idx, ct in enumerate(partitions_of(f.n)):
        total = sum(m * row[idx] for m, row in zip(mults.values(), table) if m)
        if total != f.values[idx]:
            raise CrossCheckError(
                f"decomposition failed to reconstruct the input at class {ct}"
            )
    return RepDecomposition(f.n, mults)


# ---------------------------------------------------------------------------
# Specht matrices: standard polytabloids, read off one reducer
# ---------------------------------------------------------------------------


def _polytabloid(t: tuple[tuple[int, ...], ...], perms: list) -> dict[tuple[int, ...], int]:
    """e_T = sum of sign(s).{sT} over the column group of T, each tabloid keyed
    by the rows of the entries 1..n; ``perms[h]`` lists the signed permutations
    of a column of height h.  Distinct s give distinct tabloids: coefficients are +-1."""
    terms = {(): 1}
    for j in range(len(t[0]) if t else 0):
        col = [row[j] for row in t if j < len(row)]
        terms = {
            a + tuple(zip(col, p)): c * s for a, c in terms.items() for p, s in perms[len(col)]
        }
    return {tuple(r for _, r in sorted(a)): c for a, c in terms.items()}


def specht_matrices(lam: Partition) -> list[SparseMatrix]:
    """Integer matrices of the adjacent transpositions on the Specht module.

    Basis: the standard polytabloids in sorted tableau order, held by one
    ``VectorReducer`` over the tabloids of their support, each tagged with its
    own coordinate past them.  Generator g exchanges the rows of entries g and
    g + 1 in every tabloid; the negated tags of the moved polytabloid's
    remainder are its coordinates.  A moved vector off the support, or off the
    integral span of the basis, raises ``CrossCheckError``.
    """
    lam = check_partition(lam)
    perms = [[((), 1)]]  # perms[h]: the permutations of range(h) with their signs
    for x in range(len(lam)):  # x placed at i adds x - i inversions
        perms.append([(p[:i] + (x,) + p[i:], s * (-1) ** (x - i))
                      for p, s in perms[x] for i in range(x + 1)])
    polys = [_polytabloid(t, perms) for t in standard_tableaux(lam)]
    # lexicographic order puts {T} first among the tabloids of e_T, so every
    # pivot is 1 and the elimination stays in int arithmetic
    index = {key: i for i, key in enumerate(sorted(set().union(*polys)))}
    m = len(index)
    basis = [{index[key]: c for key, c in e.items()} for e in polys]
    red = VectorReducer()
    for s, e in enumerate(basis):
        if red.insert({**e, m + s: 1}) >= m:  # a pivot on a tag: e is in the span
            raise CrossCheckError(f"standard polytabloids of {lam} are dependent")
    mats = []
    for g in range(1, sum(lam)):
        swap = [index.get(k[: g - 1] + (k[g], k[g - 1]) + k[g + 1 :]) for k in index]
        columns = []
        for e in basis:
            moved = {swap[i]: c for i, c in e.items()}
            if None in moved:
                raise CrossCheckError(f"s_{g} moves a polytabloid of {lam} off the support")
            rem = red.reduce(moved)
            if rem and min(rem) < m or any(x.denominator != 1 for x in rem.values()):
                raise CrossCheckError(f"s_{g} moves a polytabloid of {lam} off the integral span")
            columns.append({j - m: int(-x) for j, x in sorted(rem.items())})
        mats.append(SparseMatrix(len(basis), len(basis), columns))
    return mats


# ---------------------------------------------------------------------------
# padded partitions and the layer-character calculus
# ---------------------------------------------------------------------------


def weight(lam: Partition) -> int:
    """Size minus first part: the number of boxes below the first row."""
    lam = check_partition(lam)
    return sum(lam) - (lam[0] if lam else 0)


def pad_partition(lam: Partition, k: int) -> Partition:
    """The padded partition (k - |lam|, lam); defined only for k >= lam_1 + |lam|."""
    lam = check_partition(lam)
    size = sum(lam)
    if k < (lam[0] if lam else 0) + size:
        raise ValueError(f"padding of {lam} undefined at k={k}: need k >= lam_1 + |lam|")
    if k == size:
        return lam
    return (k - size,) + lam


def unpad_partition(lam: Partition) -> Partition:
    """Strip the first row: the tail (lam_2, lam_3, ...)."""
    lam = check_partition(lam)
    return lam[1:]


def gn_character(n: int, k: int, lam: Partition) -> int:
    """Multiplicity of the irreducible ``lam`` in the weight-n layer at level k.

    Computed as the alternating binomial sum of Kostka numbers
    sum_i (-1)^(n-i) C(n,i) K_{lam, (k-i, 1^i)}; requires k >= 2n.
    """
    lam = check_partition(lam)
    if sum(lam) != k:
        raise ValueError("lam must be a partition of k")
    if k < 2 * n:
        raise StableRangeError(f"layer character needs k >= 2n (got n={n}, k={k})")
    total = 0
    for i in range(n + 1):
        mu = tuple(x for x in (k - i,) + (1,) * i if x)
        total += (-1) ** (n - i) * math.comb(n, i) * kostka(lam, mu)
    return total


def gn_dimension(n: int, k: int) -> int:
    """Dimension of the weight-n layer at level k, for k >= 2n - 1.

    Two routes are computed and must agree: the alternating sum of falling
    factorials, and the sum over partitions mu of n of (standard tableau
    count) x (dimension of the padded irreducible), padded terms below their
    defining range contributing zero.
    """
    if n < 0 or k < 0:
        raise ValueError("n, k must be non-negative")
    if k < 2 * n - 1:
        raise StableRangeError(f"dimension formula needs k >= 2n - 1 (got n={n}, k={k})")
    alternating = sum(
        (-1) ** (n - i) * math.comb(n, i) * (math.factorial(k) // math.factorial(k - i))
        for i in range(n + 1)
        if i <= k
    )
    weighted = 0
    for mu in partitions_of(n):
        first = mu[0] if mu else 0
        if k >= first + n:
            weighted += specht_dimension(mu) * specht_dimension(pad_partition(mu, k))
    if alternating != weighted:
        raise CrossCheckError(
            f"layer dimension routes disagree at (n={n}, k={k}): "
            f"{alternating} != {weighted}"
        )
    return alternating


def kostka_reduction(lam: Partition, i: int) -> tuple[int, int]:
    """Both sides of the hook-content Kostka reduction at shape lam, index i.

    lhs = K_{lam, (k-i, 1^i)} with k = |lam|; rhs = C(i, lam_1 - k + i) times
    the number of standard tableaux of the tail of lam.  Requires
    k - lam_1 <= k - i (i.e. i <= lam_1) and i <= k - 1 so the content is a
    partition.
    """
    lam = check_partition(lam)
    if not lam:
        raise ValueError("lam must be nonempty")
    k = sum(lam)
    if i < 0 or i > k - 1:
        raise ValueError(f"need 0 <= i <= {k - 1} for a valid content")
    if k - lam[0] > k - i:
        raise StableRangeError(
            f"reduction needs k - lam_1 <= k - i (lam_1={lam[0]}, i={i})"
        )
    mu = tuple(x for x in (k - i,) + (1,) * i if x)
    lhs = kostka(lam, mu)
    tail = lam[1:]
    w = k - lam[0]
    choose = lam[0] - k + i
    if choose < 0 or choose > i:
        rhs = 0
    else:
        tail_count = kostka(tail, (1,) * w) if w else 1
        rhs = math.comb(i, choose) * tail_count
    return lhs, rhs
