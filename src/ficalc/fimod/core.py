"""Finitely truncated modules over the category of finite sets and injections.

A module is stored as a window of symmetric-group representations
``E(0), ..., E(K)`` glued by one-step inclusion maps: for each degree the
k-1 adjacent-transposition matrices, and for each k < K the matrix of the
standard inclusion k -> k+1.  Every structure map E(f) is recovered by
factoring f as (permutation) after (standard inclusion chain).  ``FIModule``
alone checks this shape and the generation bound, in the document's field names.

Every constructor is a basis in each degree and an action of the adjacent
transpositions on it, laid out by one assembler, ``_assemble``; its
inclusions send each basis element to itself.  Matrices are kept
column-sparse, and all downstream pipelines only ever apply them to lists of
sparse vectors, one generator matrix at a time over the whole list.

A module keeps all it derives in one memo, ``FIModule.memo``, under keys
whose first item names what they hold: ("word", perm), ("factor", f),
("derivative",) here, and ("quotient", s, k), ("block", f, src, tgt),
("stage", cube, k), ("witness", cube) and ("character", k) in
``coefficients`` and ``dictionary``.  Nothing kept there refers to the
module, so reference counting frees a dropped module at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..combinat import (
    Injection,
    factor_injection,
    word_from_permutation,
)
from ..exactla import SparseMatrix, cokernel, complement
from ..symrep import Partition, check_partition, specht_dimension, specht_matrices


class WindowError(ValueError):
    """An operation needs degrees beyond the stored window."""


class NotStabilizedError(RuntimeError):
    """The coefficient scan ran out of window before two stages agreed."""

    def __init__(self, message: str, trajectory):
        super().__init__(message)
        self.trajectory = trajectory


class InstabilityError(RuntimeError):
    """An induced map failed a well-definedness check."""


class ModuleFormatError(ValueError):
    """A serialized module violates the interchange schema."""


class NotInjectiveError(ValueError):
    """A module map that a construction needs injective is not."""


class FIModule:
    """A window of an injection-functor: dims, transpositions, inclusions."""

    def __init__(
        self,
        name: str,
        max_degree: int,
        generation_bound: int,
        dims,
        transpositions,
        inclusions,
    ):
        if max_degree < 0:
            raise ValueError("max_degree must be non-negative")
        if not 0 <= generation_bound <= max_degree:
            raise ValueError(
                f"{name} is generated in degree {generation_bound}, outside the window 0..{max_degree}"
            )
        self.name = str(name)
        self.max_degree = int(max_degree)
        self.generation_bound = int(generation_bound)
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != max_degree + 1 or any(d < 0 for d in self.dims):
            raise ValueError(f"dims must list one non-negative dimension per degree 0..{max_degree}")
        if len(transpositions) != max_degree + 1:
            raise ValueError(f"transpositions must list one block of matrices per degree 0..{max_degree}")
        self.transpositions = tuple(tuple(block) for block in transpositions)
        self.inclusions = tuple(inclusions)
        for k, (d, gens) in enumerate(zip(self.dims, self.transpositions)):
            if len(gens) != max(k - 1, 0):
                raise ValueError(f"transpositions[{k}] must list {max(k - 1, 0)} matrices")
            for i, g in enumerate(gens):
                if (g.rows, g.cols) != (d, d):
                    raise ValueError(f"transpositions[{k}][{i}] must be {d}x{d}")
        if len(self.inclusions) != max_degree:
            raise ValueError(f"inclusions must list {max_degree} matrices")
        for k, inc in enumerate(self.inclusions):
            if (inc.rows, inc.cols) != (self.dims[k + 1], self.dims[k]):
                raise ValueError(f"inclusions[{k}] must be {self.dims[k + 1]}x{self.dims[k]}")
        # all derived from the module, under tagged keys: read only through ``memo``
        self._memo: dict = {}

    def memo(self, key: tuple, build):
        """The value kept under ``key``, from ``build()`` on the first call;
        a build that raises keeps nothing.  The key's first item names what
        it holds (see the module docstring), and the value must not refer to
        the module."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    # -- evaluation ------------------------------------------------------
    def dim(self, k: int) -> int:
        self._check_degree(k)
        return self.dims[k]

    def _check_degree(self, k: int) -> None:
        if not 0 <= k <= self.max_degree:
            raise WindowError(f"degree {k} outside window 0..{self.max_degree}")

    def generator(self, k: int, i: int) -> SparseMatrix:
        """Adjacent transposition i (1-based) at degree k."""
        self._check_degree(k)
        if not 1 <= i <= k - 1:
            raise ValueError(f"generator index {i} out of range at degree {k}")
        return self.transpositions[k][i - 1]

    def inclusion(self, k: int) -> SparseMatrix:
        """Standard inclusion k -> k+1."""
        if not 0 <= k < self.max_degree:
            raise WindowError(f"no inclusion from degree {k} inside window")
        return self.inclusions[k]

    def apply_permutation(self, k: int, perm: tuple[int, ...], vecs: list[dict]) -> list[dict]:
        """Apply E(perm) at degree k to a list of sparse vectors, one
        generator matrix at a time over all of them.  The images may share
        the module's columns (``SparseMatrix.apply_columns``), and the
        identity returns ``vecs`` itself: read them, do not write them."""
        self._check_degree(k)
        if len(perm) != k:
            raise ValueError("permutation degree mismatch")
        gens = self.transpositions[k]
        # E(s_{w1}) ... E(s_{wm}) applied right factor first
        for i in reversed(self.memo(("word", perm), lambda: tuple(word_from_permutation(perm)))):
            vecs = gens[i - 1].apply_columns(vecs)
        return vecs

    def apply_injection(self, f: Injection, vecs: list[dict]) -> list[dict]:
        """Apply E(f) to a list of sparse vectors of degree f.source_size.
        As for ``apply_permutation``, the images are for reading only."""
        self._check_degree(f.source_size)
        self._check_degree(f.target_size)
        sigma = self.memo(("factor", f), lambda: factor_injection(f)[0].values)
        for j in range(f.source_size, f.target_size):
            vecs = self.inclusions[j].apply_columns(vecs)
        return self.apply_permutation(f.target_size, sigma, vecs)


def evaluate(module: FIModule, f: Injection) -> SparseMatrix:
    """The matrix of E(f), with columns of its own."""
    columns = module.apply_injection(f, [{b: 1} for b in range(module.dim(f.source_size))])
    return SparseMatrix(module.dim(f.target_size), len(columns), columns)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _assemble(name: str, max_degree: int, bound: int, bases, act) -> FIModule:
    """The module generated in degree ``bound`` with the list ``bases[k]`` of
    hashable basis elements at degree k.  The adjacent transposition s_i
    moves each point v to ``swap[v]`` and sends x to ``act(i, swap, x)``, as
    (basis element, coefficient) pairs with distinct elements.  Each
    inclusion sends a basis element to itself.  Outside the window the bases
    are empty, and ``FIModule`` refuses the bound."""
    points = range(max_degree)
    swaps = [[i if v == i - 1 else i - 1 if v == i else v for v in points] for i in points]
    index = [{x: j for j, x in enumerate(b)} for b in bases]

    def transposition(k, i):
        idx, columns = index[k], [{} for _ in bases[k]]
        for column, x in zip(columns, bases[k]):
            for y, c in act(i, swaps[i], x):
                column[idx[y]] = c
        return SparseMatrix(len(columns), len(columns), columns)

    transpositions = [[transposition(k, i) for i in range(1, k)] for k in range(max_degree + 1)]
    inclusions = [
        SparseMatrix(len(bases[k + 1]), len(b), [{index[k + 1][x]: 1} for x in b])
        for k, b in enumerate(bases[:-1])
    ]
    return FIModule(name, max_degree, bound, [len(b) for b in bases], transpositions, inclusions)


def representable(n: int, max_degree: int) -> FIModule:
    """The injection module of rank n: basis at degree k = injections n -> k,
    acted on by postcomposition."""
    if n < 0:
        raise ValueError("n must be non-negative")
    bases = [list(itertools.permutations(range(k), n)) for k in range(max_degree + 1)]
    return _assemble(
        f"representable({n})", max_degree, n, bases, lambda i, s, f: ((tuple(map(s.__getitem__, f)), 1),)
    )


def free_module(lam: Partition, max_degree: int) -> FIModule:
    """The free module on the irreducible of shape lam placed in degree |lam|.

    Basis at degree k: (n-element subset A of k) x (standard polytabloid of
    lam); a permutation moves the subset and acts on the polytabloid factor
    through the order-preserving identification of A with {0..n-1}.
    """
    lam = check_partition(lam)
    n, specht, f = sum(lam), specht_matrices(lam), specht_dimension(lam)
    bases = [
        list(itertools.product(itertools.combinations(range(k), n), range(f)))
        for k in range(max_degree + 1)
    ]

    def act(i, swap, x):
        a, b = x
        if i - 1 in a and i in a:  # i - 1 and i are adjacent in sorted a
            return [((a, r), v) for r, v in specht[a.index(i - 1)].columns[b].items()]
        return (((tuple(sorted(map(swap.__getitem__, a))), b), 1),)

    return _assemble(f"free(({','.join(map(str, lam))}))", max_degree, n, bases, act)


def zero_module(max_degree: int) -> FIModule:
    return _assemble("zero", max_degree, 0, [[]] * (max_degree + 1), None)


def derivative(module: FIModule) -> FIModule:
    """The derivative DE = coker(E -> SE) (Church-Ellenberg-Farb), on the
    window 0..K-1, generated in degree one below E's; built once per module
    and kept under ("derivative",) in its memo.

    The shift (SE)(k) is E(k+1) with a new point at 0: its generators are
    s_2 .. s_k of E(k+1), its inclusions E's from k+1, and E -> SE is E(iota)
    for iota(p) = p + 1.  ``cokernel`` of E(iota): E(k) -> E(k+1) gives the
    projection P_k and ``complement`` its complement J_k, and each structure
    map of DE is P (E's matrix) J.  Its columns are those ``apply_columns``
    returns, so they may be P's and be shared between the matrices: like
    every structure map they are read only.  A window-0 module raises
    ``WindowError`` and a degree where E(iota) is not injective, read off
    dim coker = d_{k+1} - d_k, ``NotInjectiveError``.
    """
    return module.memo(("derivative",), lambda: _derivative(module))


def _derivative(module: FIModule) -> FIModule:
    if not module.max_degree:
        raise WindowError(f"the derivative of {module.name} needs degree 1 > window 0")
    projections, complements = [], []
    for k in range(module.max_degree):
        dim, projection = cokernel(evaluate(module, Injection(k, k + 1, tuple(range(1, k + 1)))))
        if dim != module.dims[k + 1] - module.dims[k]:
            raise NotInjectiveError(
                f"{module.name}: the map of degree {k} into the shift is not injective"
            )
        projections.append(projection)
        complements.append(complement(projection.columns))

    def restrict(k, matrix, l):  # P_l (matrix) J_k
        out = SparseMatrix(projections[l].rows, len(complements[k]))
        out.columns = projections[l].apply_columns([matrix.columns[c] for c in complements[k]])
        return out

    top = module.max_degree - 1
    return FIModule(
        f"derivative({module.name})",
        top,
        max(module.generation_bound - 1, 0),
        [len(c) for c in complements],
        [[restrict(k, g, k) for g in module.transpositions[k + 1][1:]] for k in range(top + 1)],
        [restrict(k, module.inclusions[k + 1], k + 1) for k in range(top)],
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    valid: bool
    violations: list[str] = field(default_factory=list)


def validate(module: FIModule) -> ValidationReport:
    """Structural validity: Coxeter relations, inclusion equivariance and tail
    invariance.

    Tail invariance asks, for every m <= K-2, that generator m+1 at degree
    m+2 (the transposition of the two points outside the standard image of
    m) fixes the image of E(m) under two standard inclusions.  With the other
    two checks this is equivalent to functoriality of every composite
    structure map (consistent sequences, Church-Ellenberg-Farb), so the check
    is complete and deterministic.
    """
    violations: list[str] = []
    k_max = module.max_degree

    for k in range(k_max + 1):
        gens = module.transpositions[k]
        units = [{b: 1} for b in range(module.dims[k])]
        for i in range(1, k):
            g = gens[i - 1]
            if g.apply_columns(g.columns) != units:
                violations.append(f"degree {k}: Coxeter involution fails for generator {i}")
        for i in range(1, k - 1):
            a, bgen = gens[i - 1], gens[i]
            if a.apply_columns(bgen.apply_columns(a.columns)) != bgen.apply_columns(
                a.apply_columns(bgen.columns)
            ):
                violations.append(
                    f"degree {k}: Coxeter braid relation fails at generators ({i}, {i+1})"
                )
        for i in range(1, k):
            for j in range(i + 2, k):
                a, c = gens[i - 1], gens[j - 1]
                if a.apply_columns(c.columns) != c.apply_columns(a.columns):
                    violations.append(
                        f"degree {k}: Coxeter commutation fails at generators ({i}, {j})"
                    )

    for k in range(k_max):
        inc = module.inclusions[k]
        for i in range(1, k):
            low, high = module.transpositions[k][i - 1], module.transpositions[k + 1][i - 1]
            if inc.apply_columns(low.columns) != high.apply_columns(inc.columns):
                violations.append(f"inclusion {k}->{k+1}: equivariance fails for generator {i}")

    for m in range(k_max - 1):
        images = module.inclusions[m + 1].apply_columns(module.inclusions[m].columns)
        if module.transpositions[m + 2][m].apply_columns(images) != images:
            violations.append(f"degree {m + 2}: generator {m + 1} moves the image of degree {m}")

    return ValidationReport(valid=not violations, violations=violations)
