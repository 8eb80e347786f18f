"""Degreewise truncations, cohomogeneous layers, and polynomiality tests.

The truncation of a module at level n evaluates, at each degree k, the
colimit of E over the poset of subsets of {0..k-1} of size at most n.  For
n at least the generation bound the comparison map to E(k) is an
isomorphism; the cokernel/kernel of consecutive truncations isolate the
"new in degree n" layer.

Both maps are read off the colimit's complement: the colimit is a cokernel
whose projection is the identity on a set of vertex basis vectors, so
column q of the comparison map (or of the layer map between consecutive
truncations) is the image of the q-th complement vector.  The comparison
map then checks every other vertex basis vector, which is where a module
that is not functorial shows up.

Polynomiality is tested cube by cube: a module is n-polynomial when, for
every stage b with n + 1 + b inside the window, the stage-b (n+1)-cube
complex of ``delta_complex`` is acyclic.  That complex is the total complex
of the cube of inclusions from {0..b-1} to {0..n+b} with the b fixed points
placed after the cube coordinates: each summand's basis is renamed by a
permutation, which leaves the homology unchanged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..combinat import Injection, enumerate_injections
from ..exactla import PosetColimit, SparseMatrix, complement, homology, poset_colimit, rank
from .coefficients import _insertion, delta_complex
from .core import FIModule, WindowError, evaluate


def _subset_poset(k: int, n: int) -> list[tuple[int, ...]]:
    """Subsets of {0..k-1} of size <= n, ordered by (size, lexicographic)."""
    out = []
    for size in range(min(n, k) + 1):
        out.extend(itertools.combinations(range(k), size))
    return out


@dataclass(frozen=True)
class TruncationResult:
    dimension: int
    comparison: SparseMatrix
    is_isomorphism: bool


def _colimit_over_subsets(module: FIModule, n: int, k: int):
    vertices = _subset_poset(k, n)
    index = {v: i for i, v in enumerate(vertices)}
    dims = [module.dims[len(v)] for v in vertices]
    covers = []
    for s in vertices:
        for x in range(k):
            if x in s:
                continue
            t = tuple(sorted(s + (x,)))
            if t not in index:
                continue
            edge = evaluate(module, _insertion(s, x, 0))
            covers.append((index[s], index[t], edge))
    return vertices, poset_colimit(dims, covers)


def _read_off(colim: PosetColimit, blocks: list[SparseMatrix], rows: int) -> SparseMatrix:
    """The map out of the colimit whose column q is the ``blocks`` column (one
    block per vertex, in vertex order) of the q-th complement vector."""
    projection = [image for psi in colim.structure_maps for image in psi.columns]
    values = [value for block in blocks for value in block.columns]
    return SparseMatrix(rows, colim.dimension, [values[j] for j in complement(projection)])


def q_truncation(module: FIModule, n: int, k: int) -> TruncationResult:
    """Level-n truncation at degree k with its comparison map into E(k);
    raises ``ValueError`` when the maps E(incl_S) do not factor through the
    colimit (E is not functorial)."""
    module._check_degree(k)
    vertices, colim = _colimit_over_subsets(module, n, k)
    blocks = [evaluate(module, Injection(len(v), k, v)) for v in vertices]
    comparison = _read_off(colim, blocks, module.dims[k])
    for psi, block in zip(colim.structure_maps, blocks):
        for image, value in zip(psi.columns, block.columns):
            if comparison.apply(image) != value:
                raise ValueError(
                    f"{module.name} is not functorial: its maps into degree {k} "
                    f"do not factor through the level-{n} colimit"
                )
    iso = colim.dimension == module.dims[k] and rank(comparison) == colim.dimension
    return TruncationResult(colim.dimension, comparison, iso)


def cohomogeneous_layer(module: FIModule, n: int, k: int) -> tuple[int, int]:
    """Cokernel and kernel dimensions of the truncation step n-1 -> n at
    degree k.  The layer map needs no check: every relation of the small
    colimit is one of the big colimit."""
    if n < 1:
        raise ValueError("layer index must be at least 1")
    module._check_degree(k)
    small_vertices, small = _colimit_over_subsets(module, n - 1, k)
    big_vertices, big = _colimit_over_subsets(module, n, k)
    big_index = {v: i for i, v in enumerate(big_vertices)}
    blocks = [big.structure_maps[big_index[v]] for v in small_vertices]
    r = rank(_read_off(small, blocks, big.dimension))
    return big.dimension - r, small.dimension - r


@dataclass(frozen=True)
class PolynomialCertificate:
    is_polynomial: bool
    failures: tuple[tuple[int, tuple[int, ...]], ...]

    def __bool__(self) -> bool:
        return self.is_polynomial


def is_polynomial(module: FIModule, n: int) -> PolynomialCertificate:
    """Whether the stage-b (n+1)-cube complex is acyclic for every stage b
    the window holds; failures record (b, Betti numbers)."""
    if n < 0:
        raise ValueError("polynomial degree must be non-negative")
    if n + 1 > module.max_degree:
        raise WindowError(
            f"window {module.max_degree} holds no {n + 1}-dimensional standard cube"
        )
    failures = []
    for b in range(module.max_degree - n):
        betti = homology(delta_complex(module, n + 1, b)).betti
        if any(betti):
            failures.append((b, betti))
    return PolynomialCertificate(not failures, tuple(failures))


def pn_representable(m: int, n: int, k: int) -> int:
    """Dimension of the level-n polynomial approximation of the rank-m
    injection module at degree k: the limit, over the poset of subsets of
    the rank set of size <= n, of the restrictions of injections into k.
    Over Q a limit has the dimension of the colimit of the transposed
    diagram, in which each injection from the smaller subset goes to every
    injection that restricts to it."""
    if m < 0 or n < 0 or k < 0:
        raise ValueError("arguments must be non-negative")
    vertices = _subset_poset(m, n)
    index = {v: i for i, v in enumerate(vertices)}
    bases = [enumerate_injections(size, k) for size in range(min(m, n) + 1)]
    lookup = {f.values: i for basis in bases for i, f in enumerate(basis)}
    covers = []
    for t in vertices:
        for p in range(len(t)):  # the subset t minus its p-th element
            ext = SparseMatrix(len(bases[len(t)]), len(bases[len(t) - 1]))
            for col, f in enumerate(bases[len(t)]):
                ext.columns[lookup[f.values[:p] + f.values[p + 1 :]]][col] = 1
            covers.append((index[t[:p] + t[p + 1 :]], index[t], ext))
    return poset_colimit([len(bases[len(v)]) for v in vertices], covers).dimension
