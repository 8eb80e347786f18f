"""Exact linear algebra over the rationals and the integers.

Everything here is exact: entries are python ints or ``fractions.Fraction``,
never floats.  ``SparseMatrix`` (one dict per column) is the one matrix type
of rational work: chain complex differentials, kernels, cokernels, colimit
structure maps, Specht matrices and the matrices of module maps all take and
return it.  The dense ``Matrix`` is only the small value type of the public
Smith normal form functions: their input and unimodular transforms.

All rational elimination runs on one engine, ``VectorReducer``, whose rows
are the reduced row echelon form of their span: ``rank``, ``kernel_basis``,
``cokernel`` and ``RationalComplexHomology`` read their answers off it.  Unit
seeds are ``int`` and a pivot of -1 negates its row, so integral input whose
pivots are all ±1 is eliminated in ``int`` arithmetic.

Integral homology first eliminates the ±1 entries of each differential
(``_unit_reduction``, from degree 0 upward, so a free face is a length-1
column and costs no arithmetic), and only the leftovers reach Smith normal
form (``_SnfWorker``, which reads them sparse).  The worker keeps the matrix
both by rows and by columns, so each elementary operation is written once: a
column operation is the row operation on the mirrored copy.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class ShapeMismatchError(ValueError):
    """Raised when matrix shapes are incompatible for the requested operation."""


class ComplexInvalidError(ValueError):
    """Raised when a chain complex fails d . d = 0; carries the offending degree."""

    def __init__(self, degree: int, message: str | None = None):
        self.degree = degree
        super().__init__(message or f"d . d != 0 entering degree {degree}")


class CrossCheckError(RuntimeError):
    """Raised when two independent computations of the same quantity disagree.

    This signals a bug in the library, not bad input.
    """


def _coerce(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"matrix entries must be int or Fraction, got {type(x).__name__}")


class Matrix:
    """Immutable dense matrix with exact rational entries (row-major): the
    value type of Smith normal form."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        entries = [_coerce(x) for x in entries]
        if len(entries) != rows * cols:
            raise ShapeMismatchError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(
            self,
            "data",
            tuple(tuple(entries[r * cols : (r + 1) * cols]) for r in range(rows)),
        )

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        rows = [list(r) for r in rows]
        if rows:
            cols = len(rows[0]) if cols is None else cols
            if any(len(r) != cols for r in rows):
                raise ShapeMismatchError("ragged rows")
        elif cols is None:
            cols = 0
        flat = [x for r in rows for x in r]
        return cls(len(rows), cols, flat)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    # -- basic protocol ------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        ot = list(zip(*other.data)) if other.data else [()] * other.cols
        out = []
        for r in self.data:
            for c in ot:
                out.append(sum(a * b for a, b in zip(r, c) if a and b))
        if not self.data or not other.data:
            out = [Fraction(0)] * (self.rows * other.cols)
        return Matrix(self.rows, other.cols, out)


# ---------------------------------------------------------------------------
# sparse vectors / matrices
# ---------------------------------------------------------------------------

SparseVec = dict  # index -> int or Fraction (int while integral), zero entries absent


def vec_add(u: SparseVec, v: SparseVec, c=1) -> SparseVec:
    """u + c*v as a new sparse vector."""
    out = dict(u)
    for i, x in v.items():
        y = out.get(i, 0) + c * x
        if y:
            out[i] = y
        else:
            out.pop(i, None)
    return out


class SparseMatrix:
    """Column-sparse exact matrix: one dict {row: value} per column.

    The constructor and ``set`` drop zero entries; code that writes
    ``columns`` directly stores none either, so a column never holds one.
    """

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int, columns: Sequence[dict] | None = None):
        self.rows = rows
        self.cols = cols
        if columns is None:
            self.columns = [dict() for _ in range(cols)]
        else:
            self.columns = [
                c.copy() if all(c.values()) else {i: x for i, x in c.items() if x} for c in columns
            ]
        if len(self.columns) != cols:
            raise ShapeMismatchError("column count mismatch")

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, n, [{i: Fraction(1)} for i in range(n)])

    @classmethod
    def from_matrix(cls, a: Matrix) -> "SparseMatrix":
        cols = [dict() for _ in range(a.cols)]
        for i, row in enumerate(a.data):
            for j, x in enumerate(row):
                if x:
                    cols[j][i] = x
        return cls(a.rows, a.cols, cols)

    def to_matrix(self) -> Matrix:
        entries = [Fraction(0)] * (self.rows * self.cols)
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                entries[i * self.cols + j] = x
        return Matrix(self.rows, self.cols, entries)

    def set(self, i: int, j: int, value) -> None:
        if not isinstance(value, int):  # an int entry stays int
            value = _coerce(value)
        if value:
            self.columns[j][i] = value
        else:
            self.columns[j].pop(i, None)

    def apply(self, vec: SparseVec) -> SparseVec:
        """Matrix-vector product for a sparse vector (dict of column coords).

        The output starts as the first column times its coefficient (a copy
        of the column when that is 1, as for the unit vectors of structure
        maps) and the remaining columns are merged into it.
        """
        items = iter(vec.items())
        for j, c in items:
            col = self.columns[j]
            out: SparseVec = dict(col) if c == 1 else {i: c * x for i, x in col.items()}
            break
        else:
            return {}
        for j, c in items:
            for i, x in self.columns[j].items():
                y = out.get(i, 0) + c * x
                if y:
                    out[i] = y
                else:
                    del out[i]
        return out

    def apply_columns(self, vecs: Sequence[SparseVec]) -> list[SparseVec]:
        """``[self.apply(v) for v in vecs]``, except that a single-entry
        vector with coefficient 1 maps to the matrix's own column, shared
        rather than copied: the results are for reading only."""
        columns = self.columns
        out = []
        for vec in vecs:
            if len(vec) == 1:
                for j in vec:  # its one entry, read without an items view
                    c = vec[j]
                col = columns[j]
                out.append(col if c == 1 else {i: c * x for i, x in col.items()})
            else:
                out.append(self.apply(vec))
        return out

    def compose(self, other: "SparseMatrix") -> "SparseMatrix":
        """self @ other."""
        if self.cols != other.rows:
            raise ShapeMismatchError("sparse compose shape mismatch")
        cols = [self.apply(c) for c in other.columns]
        return SparseMatrix(self.rows, other.cols, cols)

    def nnz(self) -> int:
        return sum(len(c) for c in self.columns)


class VectorReducer:
    """Incremental fully-reduced echelon basis of a span of sparse vectors.

    Rows are kept normalized (pivot entry 1) and mutually reduced, so
    ``reduce`` of any vector leaves a remainder supported away from all
    pivots.  Pivot of a new row is its smallest coordinate, and no row has
    support below its pivot, so the rows sorted by pivot are exactly the
    reduced row echelon form of the span: deterministic and independent of
    insertion order and dict ordering.

    A new row whose pivot entry is -1 is negated; only a pivot entry other
    than 1 and -1 divides the row, through ``Fraction``.  So rows stay
    ``int`` while every pivot met is a unit, as in the integral spans of
    coinvariant quotients, kernels and cokernels of 0/±1 matrices.
    """

    def __init__(self):
        self._rows: dict[int, SparseVec] = {}  # pivot -> row
        self._where: dict[int, set[int]] = {}  # coord -> pivots of rows touching it

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def rows(self):
        for p in sorted(self._rows):
            yield p, self._rows[p]

    def reduce(self, vec: SparseVec) -> SparseVec:
        """The remainder of ``vec`` modulo the span, zero at every pivot.

        Rows are mutually reduced, so one subtraction per pivot coordinate of
        ``vec`` clears it and no later subtraction refills it.
        """
        v = dict(vec)
        rows = self._rows
        for p in [c for c in vec if c in rows]:
            coeff = vec[p]
            for i, x in rows[p].items():
                y = v.get(i, 0) - coeff * x
                if y:
                    v[i] = y
                else:
                    v.pop(i, None)
        return v

    def freeze(self) -> None:
        """Drop the index only ``insert`` reads, for a reducer kept to reduce
        against; ``reduce`` keeps working and ``insert`` raises."""
        self._where = None

    def insert(self, vec: SparseVec) -> int | None:
        """Insert a vector; returns the new pivot, or None if dependent."""
        if self._where is None:
            raise RuntimeError("cannot insert into a frozen VectorReducer")
        v = self.reduce(vec)
        if not v:
            return None
        p = min(v)
        inv = v[p]
        if inv == -1:
            v = {i: -x for i, x in v.items()}
        elif inv != 1:
            v = {i: Fraction(x) / inv for i, x in v.items()}
        # eliminate the new pivot coordinate from existing rows
        touching = self._where.get(p)
        if touching:
            for q in list(touching):
                row = self._rows[q]
                coeff = row[p]
                for i, x in v.items():
                    y = row.get(i, 0) - coeff * x
                    if y:
                        row[i] = y
                        if i != q:
                            self._where.setdefault(i, set()).add(q)
                    else:
                        row.pop(i, None)
                        w = self._where.get(i)
                        if w:
                            w.discard(q)
        self._rows[p] = v
        for i in v:
            if i != p:
                self._where.setdefault(i, set()).add(p)
        return p

    def contains(self, vec: SparseVec) -> bool:
        return not self.reduce(vec)


def _span(vectors: Iterable[SparseVec]) -> VectorReducer:
    red = VectorReducer()
    for v in vectors:
        if v:
            red.insert(v)
    return red


def _tagged_insert(red: VectorReducer, vec: SparseVec, space: int, tag: int) -> SparseVec | None:
    """Add ``vec`` to the span with the tag coordinate ``tag`` >= ``space`` set
    to 1, unless it already lies in the span's part below ``space``.

    Returns None when added.  Otherwise returns the remainder of ``vec``:
    zero below ``space``, and its tag entries, negated, are the coefficients
    of the tagged vectors in ``vec`` (modulo the untagged ones).
    """
    rem = red.reduce(vec)
    if rem and min(rem) < space:
        rem[tag] = 1
        red.insert(rem)
        return None
    return rem


# ---------------------------------------------------------------------------
# rank, kernels and cokernels, all read off the reduced row echelon form
# ---------------------------------------------------------------------------


def rank(a: SparseMatrix) -> int:
    """Rank over Q."""
    return _span(a.columns).rank


def kernel_basis(a: SparseMatrix) -> SparseMatrix:
    """Basis of the right kernel, as columns; deterministic (RREF back-fill)."""
    rows: list[SparseVec] = [{} for _ in range(a.rows)]
    for j, col in enumerate(a.columns):
        for i, x in col.items():
            rows[i][j] = x
    red = _span(rows)
    pivots = set(red.pivots())
    free = [c for c in range(a.cols) if c not in pivots]
    index = {f: k for k, f in enumerate(free)}
    columns: list[SparseVec] = [{f: 1} for f in free]
    for p, row in red.rows():
        for f, x in row.items():
            if f != p:
                columns[index[f]][p] = -x
    return SparseMatrix(a.cols, len(free), columns)


def cokernel(a: SparseMatrix) -> tuple[int, SparseMatrix]:
    """Cokernel of ``a`` as (dimension, projection matrix).

    The projection has full row rank, kills the image of ``a``, and its
    restriction to the chosen complement is the identity.  The complement is
    the lexicographically first maximal set of standard basis vectors that is
    independent modulo the image; ``complement`` reads it off the projection.
    """
    red = _span(a.columns)
    q = 0
    columns: list[SparseVec] = []  # column j: e_j in the chosen complement
    for j in range(a.rows):
        rem = _tagged_insert(red, {j: 1}, a.rows, a.rows + q)
        if rem is None:
            columns.append({q: 1})
            q += 1
        else:
            columns.append({t - a.rows: -x for t, x in rem.items()})
    return q, SparseMatrix(q, a.rows, columns)


def complement(columns: Iterable[SparseVec]) -> list[int]:
    """The complement ``cokernel`` chose, read off the ``columns`` of its
    projection: entry q is the index of the q-th complement vector.  Every
    other basis vector projects into the span of the complement vectors
    before it, so the q-th complement vector is the first column with a
    nonzero entry in row q."""
    out: list[int] = []
    for j, col in enumerate(columns):
        if len(out) in col:
            out.append(j)
    return out


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


class _SnfWorker:
    """Smith normal form by pivoting, for the leftovers of
    ``_unit_reduction`` and the public Smith normal form functions.

    The matrix is kept twice, ``lines[0]`` by rows and ``lines[1]`` by
    columns, each line a dict {index: int} with no zero entries, so a column
    operation is the row operation on the mirrored copy: ``axpy`` and
    ``swap`` take the side they act on, and ``_set`` writes an entry and its
    mirror.  Pivots are chosen with smallest absolute value first, then
    smallest Markowitz fill, then position, which keeps both fill-in and
    coefficient growth tame on incidence-like inputs.  Nonzeros load column
    by column, ascending, so each line's keys ascend as in a row-major scan.
    When ``accumulate`` is set, the unimodular transforms are tracked densely
    (fine at desk scale), one per side: ``U`` for rows and the transpose of
    ``V`` for columns.
    """

    def __init__(self, a: SparseMatrix, accumulate: bool):
        rows, cols = self.lines = tuple([{} for _ in range(n)] for n in (a.rows, a.cols))
        for j, col in enumerate(a.columns):
            for i, x in sorted(col.items()):
                if x.denominator != 1:
                    raise ValueError("Smith normal form requires an integer matrix")
                rows[i][j] = cols[j][i] = int(x)
        self.transforms = None
        if accumulate:
            self.transforms = tuple(
                [[1 if i == j else 0 for j in range(n)] for i in range(n)] for n in (a.rows, a.cols)
            )

    # elementary operations on one side (0: rows, 1: columns), mirrored into
    # the other copy and, when accumulating, into that side's transform -----
    def _set(self, side: int, x: int, y: int, v: int) -> None:
        mine, mirror = self.lines[side][x], self.lines[1 - side][y]
        if v:
            mine[y] = mirror[x] = v
        else:
            mine.pop(y, None)
            mirror.pop(x, None)

    def axpy(self, side: int, dst: int, src: int, c: int) -> None:
        """line[dst] += c * line[src]; ``axpy(side, t, t, -2)`` negates line t."""
        if not c:
            return
        line = self.lines[side][dst]
        for y, v in list(self.lines[side][src].items()):
            self._set(side, dst, y, line.get(y, 0) + c * v)
        if self.transforms:
            tr = self.transforms[side]
            tr[dst] = [x + c * y for x, y in zip(tr[dst], tr[src])]

    def swap(self, side: int, a: int, b: int) -> None:
        """Exchange lines a and b.  A mirror line holding both keys exchanges
        their values in place; one holding a single key pops it and appends
        the other, so the row dicts keep the insertion order ``_pick_pivot``
        reads."""
        if a == b:
            return
        lines = self.lines[side]
        lines[a], lines[b] = lines[b], lines[a]
        for y in lines[a].keys() | lines[b].keys():
            mirror = self.lines[1 - side][y]
            if a in mirror and b in mirror:
                mirror[a], mirror[b] = mirror[b], mirror[a]
            elif a in mirror:
                mirror[b] = mirror.pop(a)
            else:
                mirror[a] = mirror.pop(b)
        if self.transforms:
            tr = self.transforms[side]
            tr[a], tr[b] = tr[b], tr[a]

    # main loop ------------------------------------------------------------
    def run(self) -> list[int]:
        diag: list[int] = []
        for t in range(min(map(len, self.lines))):
            pivot = self._pick_pivot(t)
            if pivot is None:
                break
            self.swap(0, t, pivot[0])
            self.swap(1, t, pivot[1])
            while True:
                # clear column t, then row t; a remainder promoted restarts
                if self._clear(0, t) or self._clear(1, t):
                    continue
                # both clear; enforce divisibility of the remaining block
                bad = self._find_nondivisible(t, self.lines[0][t][t])
                if bad is None:
                    break
                self.axpy(0, t, bad, 1)
            p = self.lines[0][t][t]
            if p < 0:
                self.axpy(0, t, t, -2)
                p = -p
            diag.append(p)
        return diag

    def _clear(self, side: int, t: int) -> bool:
        """Reduce the entries of the mirror line t beyond the pivot by side
        operations against line t.  On a nonzero remainder, strictly smaller
        than the pivot, swap its line into place and return True."""
        mirror = self.lines[1 - side][t]
        p = self.lines[0][t][t]
        for x in sorted(mirror):
            if x <= t:
                continue
            self.axpy(side, x, t, -(mirror[x] // p))
            if x in mirror:
                self.swap(side, t, x)
                return True
        return False

    def _pick_pivot(self, t: int) -> tuple[int, int] | None:
        best = None
        rows, cols = self.lines
        for i in range(t, len(rows)):
            ri = rows[i]
            # rows and columns before t hold only their diagonal entry, so
            # every entry of row i and column j lies in the trailing block
            rlen = len(ri)
            for j, v in ri.items():
                key = (abs(v), (rlen - 1) * (len(cols[j]) - 1), i, j)
                if best is None or key < best[0]:
                    best = (key, (i, j))
                    if key[0] == 1 and key[1] == 0:
                        return best[1]
        return None if best is None else best[1]

    def _find_nondivisible(self, t: int, p: int) -> int | None:
        if p in (1, -1):
            return None
        for i in range(t + 1, len(self.lines[0])):
            for j, v in self.lines[0][i].items():
                if j > t and v % p:
                    return i
        return None


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form of an integer matrix.

    Returns unimodular ``U`` (rows x rows), diagonal ``D``, unimodular ``V``
    (cols x cols) with ``U @ a @ V == D`` and the diagonal entries
    non-negative with each dividing the next.
    """
    w = _SnfWorker(SparseMatrix.from_matrix(a), accumulate=True)
    diag = w.run()
    d = [[0] * a.cols for _ in range(a.rows)]
    for i, x in enumerate(diag):
        d[i][i] = x
    u, vt = w.transforms
    return (
        Matrix.from_rows(u, a.rows),
        Matrix.from_rows(d, a.cols),
        Matrix.from_rows(list(zip(*vt)), a.cols),
    )


def invariant_factors(a: Matrix) -> list[int]:
    """Nonzero diagonal of the Smith normal form (no transform tracking)."""
    return _SnfWorker(SparseMatrix.from_matrix(a), accumulate=False).run()


# ---------------------------------------------------------------------------
# chain complexes and homology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainComplex:
    """A finite chain complex; ``differentials[i]`` maps degree i+1 to degree i."""

    dims: tuple[int, ...]
    differentials: tuple[SparseMatrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "differentials", tuple(self.differentials))
        if len(self.differentials) != max(len(self.dims) - 1, 0):
            raise ShapeMismatchError("need exactly one differential per adjacent degree pair")
        for i, d in enumerate(self.differentials):
            if (d.rows, d.cols) != (self.dims[i], self.dims[i + 1]):
                raise ShapeMismatchError(
                    f"differential {i} has shape {d.rows}x{d.cols}, expected {self.dims[i]}x{self.dims[i+1]}"
                )

    def validate(self) -> None:
        """Check d . d = 0 (sparse composition, cheap for sparse inputs)."""
        for i in range(len(self.differentials) - 1):
            lo = self.differentials[i]
            for col in self.differentials[i + 1].columns:
                if lo.apply(col):
                    raise ComplexInvalidError(i)


@dataclass(frozen=True)
class HomologyResult:
    """Per-degree Betti numbers and torsion invariant factors."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]


def _betti(dims: tuple[int, ...], ranks: list[int]) -> tuple[int, ...]:
    """Betti numbers from the chain dims and the rank of each differential."""
    ranks = [0, *ranks, 0]
    return tuple(d - ranks[i] - ranks[i + 1] for i, d in enumerate(dims))


def _unit_reduction(d: SparseMatrix, done: set[int]) -> tuple[list[int], SparseMatrix]:
    """Eliminate the ±1 entries of one differential: its pivot columns and
    the leftover, nonempty rows and columns renumbered in order.

    Rows in ``done`` (the pivot columns of the differential below) are
    dropped first.  A lazy min-heap pops the shortest column; its ±1 entry in
    the shortest row is the pivot a_pq, and a_ij -= a_iq * a_pq * a_pj
    deletes row p and column q.  A column with no unit waits until an update
    touches it.  The steps are unimodular, so the invariant factors are a 1
    per pivot and those of the leftover.  In a complex a pivot (p, q) only
    deletes column p below, a combination of the others by d . d = 0, and
    row q above (Kaczynski, Mischaikow and Mrozek, *Computational Homology*,
    2004), so dropping ``done`` keeps the invariant factors.  Raises
    ``ValueError`` for an entry that is not an integer.
    """
    width = d.cols
    rows: dict[int, dict[int, int]] = {}
    cols: list[dict[int, int] | None] = [{} for _ in range(width)]
    for j, col in enumerate(d.columns):
        for i, x in col.items():
            if type(x) is not int:
                if x.denominator != 1:
                    raise ValueError("integral homology requires integer differentials")
                x = int(x)
            if i not in done:
                rows.setdefault(i, {})[j] = cols[j][i] = x
    # a column's key is length * width + index: (length, index) order, no tuples
    heap = [len(col) * width + j for j, col in enumerate(cols) if col]
    heapq.heapify(heap)
    pivots: list[int] = []
    while heap:
        length, q = divmod(heapq.heappop(heap), width)
        pcol = cols[q]
        if pcol is None or len(pcol) != length:
            continue  # stale: eliminated, or pushed again with its new length
        units = [i for i, x in pcol.items() if x == 1 or x == -1]
        if not units:
            continue
        p = min(units, key=lambda i: len(rows[i]))
        pivots.append(q)
        cols[q] = None
        prow = rows.pop(p)
        u = prow.pop(q)
        del pcol[p]
        for i in pcol:
            del rows[i][q]
        for j, y in prow.items():
            col = cols[j]
            del col[p]
            f = u * y
            for i, x in pcol.items():
                v = col.get(i, 0) - x * f
                if v:
                    col[i] = rows[i][j] = v
                else:
                    del col[i], rows[i][j]
            if col:
                heapq.heappush(heap, len(col) * width + j)
    position = {i: r for r, i in enumerate(sorted(i for i, row in rows.items() if row))}
    leftover = [{position[i]: x for i, x in col.items()} for col in cols if col]
    return pivots, SparseMatrix(len(position), len(leftover), leftover)


def homology(c: ChainComplex, integral: bool = False) -> HomologyResult:
    """Homology of a validated chain complex.

    Rational mode reads the Betti numbers off the rank of each differential;
    ``RationalComplexHomology`` gives cycle representatives and coordinates.
    Integral mode runs ``_unit_reduction`` on each differential from degree 0
    up; a rank is the number of unit pivots plus the invariant factors of the
    leftover (``_SnfWorker``), whose factors > 1 are the torsion of that
    degree.  Either way every Betti number must come out >= 0.
    """
    c.validate()
    torsions: list[tuple[int, ...]] = [() for _ in c.dims]
    if integral:
        ranks = []
        pivots: list[int] = []
        for i, d in enumerate(c.differentials):
            pivots, leftover = _unit_reduction(d, set(pivots))
            factors = _SnfWorker(leftover, accumulate=False).run()
            ranks.append(len(pivots) + len(factors))
            torsions[i] = tuple(f for f in factors if f > 1)
    else:
        ranks = [rank(d) for d in c.differentials]
    betti = _betti(c.dims, ranks)
    if any(b < 0 for b in betti):
        raise CrossCheckError(f"negative Betti numbers {betti}: some rank is over-counted")
    return HomologyResult(betti, tuple(torsions))


class RationalComplexHomology:
    """Rational homology with representative cycles and coordinate solving.

    For each degree: a cycle basis (the kernel of the outgoing differential),
    homology representatives chosen greedily among it, and one reducer
    spanning the boundaries (inserted plain) and the representatives, each
    inserted with its own tag coordinate placed after the chain space.  So
    ``express`` is a single ``reduce``: the remainder of a cycle has no chain
    coordinates left and its negated tag entries are the nonzero homology
    coordinates (a remainder with chain coordinates left means the vector is
    not a cycle modulo boundaries, and raises ``ValueError``).
    """

    def __init__(self, c: ChainComplex):
        self.complex = c
        n = len(c.dims)
        self.rep_vectors: list[list[SparseVec]] = []  # sparse cycle representatives
        self._reducers: list[VectorReducer] = []
        for i in range(n):
            d = c.dims[i]
            if i > 0:
                cycles = kernel_basis(c.differentials[i - 1]).columns
            else:
                cycles = [{j: 1} for j in range(d)]
            red = _span(c.differentials[i].columns if i < n - 1 else ())
            reps: list[SparseVec] = []
            for z in cycles:
                if _tagged_insert(red, z, d, d + len(reps)) is None:
                    reps.append(z)
            self.rep_vectors.append(reps)
            self._reducers.append(red)

    def dims(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rep_vectors)

    def representatives(self, degree: int) -> SparseMatrix:
        reps = self.rep_vectors[degree]
        return SparseMatrix(self.complex.dims[degree], len(reps), reps)

    def express(self, degree: int, vec: SparseVec) -> SparseVec:
        """Coordinates ``{j: coefficient}`` of a sparse cycle ``{i: x}`` in the
        homology basis of the given degree."""
        d = self.complex.dims[degree]
        if vec and (min(vec) < 0 or max(vec) >= d):
            raise ShapeMismatchError(f"sparse vector has a coordinate outside 0..{d - 1}")
        rem = self._reducers[degree].reduce(vec)
        if rem and min(rem) < d:
            raise ValueError("vector is not a cycle modulo boundaries")
        return {j - d: -x for j, x in rem.items()}


# ---------------------------------------------------------------------------
# colimits of vector-space diagrams over finite posets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PosetColimit:
    dimension: int
    structure_maps: tuple[SparseMatrix, ...]


def poset_colimit(
    vertex_dims: Sequence[int], covers: Sequence[tuple[int, int, SparseMatrix]]
) -> PosetColimit:
    """Colimit of a poset-shaped diagram of rational vector spaces.

    ``covers`` lists (source vertex, target vertex, edge matrix) for the
    cover relations; the colimit is the cokernel of the map sending v at
    source to v at source minus edge(v) at target.  Returns the dimension and
    one structure map per vertex (from the vertex into the colimit); read in
    vertex order, their columns are those of the ``cokernel`` projection.
    """
    offs = []
    total = 0
    for d in vertex_dims:
        offs.append(total)
        total += d
    relations = []
    for (s, t, e) in covers:
        if (e.rows, e.cols) != (vertex_dims[t], vertex_dims[s]):
            raise ShapeMismatchError(
                f"edge {s}->{t} has shape {e.rows}x{e.cols}, expected {vertex_dims[t]}x{vertex_dims[s]}"
            )
        for b, col in enumerate(e.columns):
            shifted = {offs[t] + r: x for r, x in col.items()}
            relations.append(vec_add({offs[s] + b: 1}, shifted, -1))
    dim, proj = cokernel(SparseMatrix(total, len(relations), relations))
    maps = tuple(
        SparseMatrix(dim, d, proj.columns[offs[v] : offs[v] + d]) for v, d in enumerate(vertex_dims)
    )
    return PosetColimit(dim, maps)
