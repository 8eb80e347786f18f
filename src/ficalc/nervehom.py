"""Order complexes of partial-bijection posets and their integral homology.

The nerve of the poset of nonempty partial bijections between sizes n and k
is, in the range k >= 2n-1, a wedge of (n-1)-spheres; ``wedge_certificate``
checks this on the nose: reduced integral homology must be torsion-free,
concentrated in degree n-1, and of rank equal to the stable multiplicity
count from the symmetric-group side.  Below the range the homology is still
reported, with no claim attached.

The elements of P(n,k) under restriction are the simplices of the chessboard
complex M_{n,k} (vertices the n*k pairs (source, target)) under inclusion, so
the nerve is the barycentric subdivision of M_{n,k} and has its homology; the
certificate runs on ``chessboard_complex`` (for (3,7): 357 cells, not 3,129).

``complex_homology`` passes the augmented complex (one cell in degree -1,
which every vertex maps to) to integral ``homology``, so the reduced homology
is read off directly and the unit-pivot elimination starts by pairing one
vertex with the augmentation cell.  In the wedge range every ±1 pivot is
found and no leftover reaches Smith normal form (M_{4,7}: 225 classes from
1,960 cells); below it the leftovers are small (M_{5,5}: 1 x 24).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

from .combinat import PartialBijectionPoset, build_poset
from .exactla import ChainComplex, HomologyResult, SparseMatrix, homology
from .symrep import gn_dimension


class TheoremViolationError(RuntimeError):
    """A certified structural claim failed; indicates an implementation bug."""


@dataclass(frozen=True)
class OrderComplex:
    """Simplices by dimension, each a tuple of vertices in increasing order.

    ``order_complex`` gives poset chains as vertex-index tuples (the nerve of
    P(n,k) is the barycentric subdivision of M_{n,k}); ``chessboard_complex``
    gives the matchings of M_{n,k} as sorted (source, target) pairs.
    """

    vertex_count: int
    simplices: tuple[tuple[tuple, ...], ...]

    def size(self, dim: int) -> int:
        """Number of simplices in the given dimension."""
        if 0 <= dim < len(self.simplices):
            return len(self.simplices[dim])
        return 0

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(batch) for d, batch in enumerate(self.simplices))


def order_complex(poset: PartialBijectionPoset) -> OrderComplex:
    """The full order complex: one simplex per chain, in index order.

    Chains are grown depth-first along the transitive closure of the cover
    relations (rank strictly increases along a chain, so each chain is found
    exactly once); the resulting vertex sets are then named by their sorted
    index tuples, which need not be sorted by rank.
    """
    count = len(poset.elements)
    if count == 0:
        return OrderComplex(0, ())
    successors: list[list[int]] = [[] for _ in range(count)]
    for low, high in poset.cover_relations:
        successors[low].append(high)
    above: list[set[int]] = [set() for _ in range(count)]
    by_rank_desc = sorted(range(count), key=lambda i: -len(poset.elements[i]))
    for i in by_rank_desc:
        for j in successors[i]:
            above[i].add(j)
            above[i] |= above[j]
    upsets = [sorted(s) for s in above]

    chains: list[list[tuple[int, ...]]] = [[(v,) for v in range(count)]]
    stack = list(chains[0])
    while stack:
        chain = stack.pop()
        for nxt in upsets[chain[-1]]:
            extended = chain + (nxt,)
            if len(chains) < len(extended):
                chains.append([])
            chains[len(extended) - 1].append(tuple(sorted(extended)))
            stack.append(extended)
    return OrderComplex(count, tuple(tuple(sorted(batch)) for batch in chains))


def nerve_sizes(n: int, k: int) -> tuple[int, ...]:
    """Simplices of the nerve of P(n,k) per dimension, without building it.

    A chain of j+1 matchings topped by an m-pair matching is an ordered
    partition of its m pairs into j+1 blocks, so dimension j holds
    sum_m C(n,m) C(k,m) m! surj(m, j+1) simplices, where
    surj(m, r) = sum_i (-1)^i C(r,i) (r-i)^m counts surjections.
    """
    top = min(n, k)

    def surjections(m: int, r: int) -> int:
        return sum((-1) ** i * math.comb(r, i) * (r - i) ** m for i in range(r + 1))

    return tuple(
        sum(math.comb(n, m) * math.perm(k, m) * surjections(m, j + 1) for m in range(1, top + 1))
        for j in range(top)
    )


def chessboard_complex(n: int, k: int) -> OrderComplex:
    """The chessboard complex M_{n,k}: its faces are the elements of P(n,k).

    Batch j-1 holds, sorted, the matchings of j sources (increasing) with j
    distinct targets, listed directly (no poset), each sorted by (source, target).
    """
    def faces(j: int) -> tuple:
        pairs = (zip(s, t) for s in combinations(range(n), j) for t in permutations(range(k), j))
        return tuple(sorted(map(tuple, pairs)))

    return OrderComplex(n * k, tuple(faces(j) for j in range(1, min(n, k) + 1)))


def _boundary(complex: OrderComplex, dim: int) -> SparseMatrix:
    """Simplicial boundary from dimension dim to dim-1 (index-order signs)."""
    faces = complex.simplices[dim - 1]
    simps = complex.simplices[dim]
    face_index = {f: i for i, f in enumerate(faces)}
    columns = [
        {face_index[simplex[:i] + simplex[i + 1 :]]: -1 if i % 2 else 1 for i in range(dim + 1)}
        for simplex in simps
    ]
    return SparseMatrix(len(faces), len(simps), columns)


def _augmented_chains(complex: OrderComplex) -> ChainComplex:
    """The augmented simplicial chain complex: its degree 0 is one cell in
    degree -1, which every vertex maps to with coefficient 1."""
    dims = tuple(len(batch) for batch in complex.simplices)
    augmentation = SparseMatrix(1, dims[0], [{0: 1}] * dims[0])
    boundaries = tuple(_boundary(complex, d) for d in range(1, len(dims)))
    return ChainComplex((1,) + dims, (augmentation,) + boundaries)


def complex_homology(complex: OrderComplex) -> HomologyResult:
    """Reduced integral homology: Betti numbers and torsion per degree.

    This is the homology of the augmented complex with degree -1 dropped.
    """
    if complex.vertex_count == 0:
        return HomologyResult((), ())
    result = homology(_augmented_chains(complex), integral=True)
    return HomologyResult(result.betti[1:], result.torsion[1:])


@dataclass(frozen=True)
class WedgeCertificate:
    """Homology of the nerve of P(n,k) together with the certified claim.

    The homology is that of the chessboard complex M_{n,k}, whose barycentric
    subdivision is the nerve.
    """

    n: int
    k: int
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    rank: int

    def __str__(self) -> str:
        return (
            f"nerve of P({self.n},{self.k}): wedge of {self.rank} "
            f"spheres of dimension {self.n - 1}"
        )


def wedge_certificate(n: int, k: int) -> WedgeCertificate:
    """Certify that the nerve of P(n,k) is a wedge of (n-1)-spheres.

    The homology is computed on the chessboard complex M_{n,k}; the nerve is
    its barycentric subdivision, so the two have the same integral homology.
    Requires n >= 1 and k >= 2n-1.  Raises :class:`TheoremViolationError`
    if the reduced homology has torsion, lives outside degree n-1, or has
    rank different from ``gn_dimension(n, k)``.
    """
    if n < 1:
        raise ValueError("wedge_certificate needs n >= 1")
    if k < 2 * n - 1:
        raise ValueError(f"wedge_certificate needs k >= {2 * n - 1}, got {k}")
    result = complex_homology(chessboard_complex(n, k))
    return certify_homology(n, k, result)


def certify_homology(n: int, k: int, result: HomologyResult) -> WedgeCertificate:
    """Check an already-computed homology result against the wedge claim."""
    expected = gn_dimension(n, k)
    problems = []
    if any(result.torsion[d] for d in range(len(result.torsion))):
        problems.append(f"torsion {result.torsion}")
    for d, b in enumerate(result.betti):
        if d != n - 1 and b:
            problems.append(f"rank {b} in degree {d}")
    observed = result.betti[n - 1] if n - 1 < len(result.betti) else 0
    if observed != expected:
        problems.append(f"rank {observed} in degree {n - 1}, expected {expected}")
    if problems:
        raise TheoremViolationError(
            f"nerve of P({n},{k}) is not the certified wedge: " + "; ".join(problems)
        )
    return WedgeCertificate(
        n=n, k=k, betti=result.betti, torsion=result.torsion, rank=expected
    )


def connectivity_check(n: int, k: int) -> bool:
    """Whether the nerve of P(n,k) is connected (union-find over covers, not H_0)."""
    if n < 1 or k < 1:
        raise ValueError("connectivity_check needs n >= 1 and k >= 1")
    poset = build_poset(n, k)
    count = len(poset.elements)
    if count == 0:
        return True
    parent = list(range(count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in poset.cover_relations:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in range(count)}) == 1
