"""Cross-effect cubes, their coinvariant homology, and stabilization.

For a module E and cube size n, the stage-k complex has, in homological
degree i, one summand E(|S| + k) for each subset S of {0..n-1} with
|S| = n - i (the full subset sits in degree 0).  The differential out of
the summand at S inserts each missing element x with sign
(-1)^{#{y not in S : y < x}}, the contraction sign of x among the missing
elements, so permuting the cube coordinates with the sign of sorting the
permuted missing elements (``action_matrix``) is a chain map.  One
assembler, ``_cube_complex``, lays out every such complex over a quotient of
each summand: ``CubeStage`` passes the coinvariant quotients below and
``delta_complex`` the quotients by no tail generators, which are E(s + k)
itself; ``is_polynomial`` reads the acyclicity of the full cubes.  One
routine, ``_induced``, builds every quotient-level block (E(f) on the free
basis vectors of one quotient, projected onto another): the differentials,
the coordinate permutations and ``_stage_map``, the extension sum of an
injection from a stage of one cube to a stage of another.

Over the rationals, coinvariants by the tail symmetric group are exact,
so the stage homology is computed on the quotient complex where each
summand E(s + k) is divided by the span of v - g.v for the k-1 adjacent
transpositions that fix the first s points.  Those quotients are small,
which is what makes window-scale computation feasible: for a
permutation-like module, such as a representable one, they have one
dimension per orbit of the tail group on the basis.  ``CoinvariantQuotient``
finds them by walking those orbits, and eliminates only the relations the
walk leaves: generator columns with several entries (Specht blocks) and
orbits that close with an inconsistent factor (signs).

Stabilization: stages are scanned from k = generation bound upward; a
coefficient is declared stable when two consecutive stages have equal
homology dimensions in every degree and the stabilization, the extension
sum of the identity from stage k to k + 1 (its one term is the standard
inclusion n+k -> n+k+1), is an isomorphism on degree-0 homology.  The
later stage is the witness, and the scan (``_stable_stage``) returns it as a
``CubeStage``; a coefficient's dims and characters are read off that stage.
The witness is memoized per module, next to its coinvariant quotients, so
each module scans each cube once: ``taylor_coefficient``, the profile (and
its transitions at that stage) and every shift check share one witness.  The
stages scanned before a witness are not kept, and a cube that does not
stabilize is scanned again on every call.  The stages that transitions build
are memoized in the same cache, so consecutive transitions of a profile, and
later transitions of the module, share the stages they have in common.
Characters walk the class tree of ``action_character`` over the homology
matrices of adjacent transpositions of cube coordinates, which each stage
builds on first use and keeps (``CubeStage.homology_generator``), so a degree
costs at most one ``action_matrix`` per generator and stage, and a degree
without homology none.
``delta_coefficient_shift_check`` reads both of its characters, on the last
and on the first cube coordinates, off the single witness stage of the
(n+i)-cube.
``_cube_complex`` is also the one place that refuses a stage outside the window.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from ..combinat import Injection, permutation_from_word, permutation_sign, standard_inclusion
from ..exactla import (
    ChainComplex,
    ComplexInvalidError,
    RationalComplexHomology,
    SparseMatrix,
    VectorReducer,
    rank,
    vec_add,
)
from ..symrep import ClassFunction, action_character
from .core import FIModule, InstabilityError, NotStabilizedError, WindowError


class CoinvariantQuotient:
    """E(s+k) modulo W, the span of e_b - g.e_b over the basis vectors e_b
    and the k-tail transpositions g.

    ``free`` is the set of coordinates c with e_c not in
    W + span{e_j : j > c}, that is the non-pivots of the reduced echelon form
    of W whose pivots are smallest coordinates, and ``project`` sends v to
    the unique vector of v + W supported on ``free``.  Two phases find them
    without eliminating most of W.

    1. Walk the orbits.  A generator column with one entry, g.e_x = c.e_y,
       is an edge e_x = c.e_y modulo W.  From the largest unvisited
       coordinate down, each orbit of the edges is walked breadth-first from
       its largest coordinate r, its representative, recording the factor
       f_x with e_x = f_x.e_r.  Rewriting e_x -> f_x.e_r projects onto the
       span of the representatives, with kernel spanned by the walked edges.
    2. Eliminate what is left.  Rewritten onto the representatives, the
       relations e_x - g.e_x of the columns that are not single entries
       (Specht blocks, empty columns) go into a ``VectorReducer``, and so
       does e_r for an orbit with an edge that closes a cycle with another
       factor (a sign, which kills the orbit in the quotient).

    The answer is the full elimination's.  A coordinate c that is not a
    representative is a pivot, since e_c = f.e_r with r > c.  For a
    representative r, rewriting turns "e_r in W + span{e_j : j > r}" into
    "e_r in W' + span{e_t : representatives t > r}", where W' is the span of
    the rewritten leftover relations, so the free representatives are the
    non-pivots of W'.  And since v + W meets the span of ``free`` in one
    vector, rewriting and then reducing by W' finds the same projection.
    """

    def __init__(self, module: FIModule, s: int, k: int):
        d = module.dims[s + k]
        edges = [[] for _ in range(d)]  # x -> (y, m) with f_y = f_x * m
        leftover = []
        # the tail generators: 1-based s+1 .. s+k-1
        for g in module.transpositions[s + k][s : s + k - 1]:
            for x, col in enumerate(g.columns):
                if len(col) != 1:
                    leftover.append(vec_add({x: 1}, col, -1))
                    continue
                ((y, c),) = col.items()
                edges[x].append((y, c if c == 1 or c == -1 else 1 / Fraction(c)))
                edges[y].append((x, c))
        rep = [-1] * d
        factor = [1] * d
        for top in reversed(range(d)):
            if rep[top] >= 0:
                continue
            rep[top] = top
            orbit = [top]
            consistent = True
            for x in orbit:
                for y, m in edges[x]:
                    fy = factor[x] * m
                    if rep[y] < 0:
                        rep[y] = top
                        factor[y] = fy
                        orbit.append(y)
                    elif factor[y] != fy:
                        consistent = False
            if not consistent:
                leftover.append({top: 1})
        self._rep = rep
        self._factor = factor
        self.reducer = VectorReducer()
        for w in leftover:
            w = self._rewrite(w)
            if w:
                self.reducer.insert(w)
        self.reducer.freeze()  # ``project`` only reduces
        pivots = set(self.reducer.pivots())
        self.free = tuple(c for c in range(d) if rep[c] == c and c not in pivots)
        self.index = {c: i for i, c in enumerate(self.free)}
        self.dim = len(self.free)
        if self.dim == d:
            # No relations: every orbit is a singleton with factor 1 and the
            # index is the identity, so ``project`` copies its input.
            self.project = dict

    def _rewrite(self, vec: dict) -> dict:
        """vec with each e_x replaced by f_x.e_r, r the representative of x."""
        rep, factor = self._rep, self._factor
        out = {}
        for x, v in vec.items():
            r = rep[x]
            out[r] = out.get(r, 0) + v * factor[x]
        return {r: v for r, v in out.items() if v}

    def project(self, vec: dict) -> dict:
        """Coordinates of the image of vec in the quotient basis."""
        rem = self.reducer.reduce(self._rewrite(vec))
        return {self.index[c]: v for c, v in rem.items()}


def _quotient(module: FIModule, s: int, k: int) -> CoinvariantQuotient:
    key = (s, k)
    q = module._coinv_cache.get(key)
    if q is None:
        q = CoinvariantQuotient(module, s, k)
        module._coinv_cache[key] = q
    return q


def _insertion(subset: tuple[int, ...], x: int, k: int) -> Injection:
    """The injection |S|+k -> |S|+1+k realizing S+tail -> (S u {x})+tail."""
    s = len(subset)
    values = tuple(p if subset[p] < x else p + 1 for p in range(s)) + tuple(
        p + 1 for p in range(s, s + k)
    )
    return Injection(s + k, s + 1 + k, values)


def _insertion_sign(subset: tuple[int, ...], x: int) -> int:
    below = sum(1 for y in range(x) if y not in subset)
    return -1 if below % 2 else 1


def _induced(module: FIModule, f: Injection, src, tgt) -> list[dict]:
    """The columns of E(f) from the quotient ``src`` of E(f.source_size) to
    the quotient ``tgt`` of E(f.target_size): the free basis vectors of
    ``src`` mapped together, each image projected into a vector of its own.
    Every quotient-level block is built here."""
    return [tgt.project(v) for v in module.apply_injection(f, [{b: 1} for b in src.free])]


def _cube_complex(module: FIModule, cube: int, k: int, quotient):
    """The stage-k cube complex whose summand at S is ``quotient(|S|)``, a
    quotient of E(|S| + k).  Returns the subsets of each degree, their
    offsets and the complex; a stage outside the window is refused first."""
    if cube < 0 or k < 0:
        raise ValueError("cube size and stage must be non-negative")
    if cube + k > module.max_degree:
        raise WindowError(
            f"stage {k} of the {cube}-cube needs degree {cube + k} > window {module.max_degree}"
        )
    summands = [list(itertools.combinations(range(cube), cube - i)) for i in range(cube + 1)]
    offsets, dims = [], []
    for level in summands:
        sizes = [quotient(len(subset)).dim for subset in level]
        offsets.append(dict(zip(level, itertools.accumulate(sizes, initial=0))))
        dims.append(sum(sizes))
    differentials = []
    for i in range(cube):
        columns = [{} for _ in range(dims[i + 1])]
        for subset in summands[i + 1]:
            s = len(subset)
            src_off = offsets[i + 1][subset]
            for x in (x for x in range(cube) if x not in subset):
                sign = _insertion_sign(subset, x)
                tgt_off = offsets[i][tuple(sorted(subset + (x,)))]
                block = _induced(module, _insertion(subset, x, k), quotient(s), quotient(s + 1))
                for local, col in enumerate(block):
                    columns[src_off + local].update((tgt_off + r, sign * v) for r, v in col.items())
        differentials.append(SparseMatrix(dims[i], dims[i + 1], columns))
    return summands, offsets, ChainComplex(tuple(dims), differentials)


class CubeStage:
    """The stage-k coinvariant cube complex of a module, with its homology."""

    def __init__(self, module: FIModule, cube: int, k: int):
        self.summands, self.offsets, self.complex = _cube_complex(
            module, cube, k, lambda s: _quotient(module, s, k)
        )
        self.module = module
        self.cube = cube
        self.k = k
        # filled only now: ``_quotient`` needs the window check done first
        self.quotients = {s: _quotient(module, s, k) for s in range(cube + 1)}
        try:
            self.complex.validate()
        except ComplexInvalidError as exc:
            msg = f"stage {k} of the {cube}-cube of {module.name} is not a complex: {exc}"
            raise ComplexInvalidError(exc.degree, msg) from None
        self.dims = self.complex.dims
        self.homology = RationalComplexHomology(self.complex)
        self._generators: dict[tuple[int, int], SparseMatrix] = {}

    # -- symmetric-group action on the cube coordinates ------------------
    def action_matrix(self, perm: tuple[int, ...], degree: int) -> SparseMatrix:
        """Matrix of the cube-coordinate permutation on the degree-th term."""
        if len(perm) != self.cube:
            raise ValueError("permutation must act on the cube coordinates")
        act = SparseMatrix(self.dims[degree], self.dims[degree])
        for subset in self.summands[degree]:
            s = len(subset)
            q = self.quotients[s]
            image = tuple(sorted(perm[x] for x in subset))
            sign = permutation_sign([perm[z] for z in range(self.cube) if z not in subset])
            values = tuple(image.index(perm[subset[p]]) for p in range(s)) + tuple(
                range(s, s + self.k)
            )
            src_off = self.offsets[degree][subset]
            tgt_off = self.offsets[degree][image]
            block = _induced(self.module, Injection(s + self.k, s + self.k, values), q, q)
            for local, col in enumerate(block):
                act.columns[src_off + local] = {tgt_off + li: sign * v for li, v in col.items()}
        return act

    def homology_generator(self, i: int, degree: int) -> SparseMatrix:
        """Homology matrix in ``degree`` of the adjacent transposition t_i of
        the cube coordinates, built on first use and kept."""
        if (i, degree) not in self._generators:
            act = self.action_matrix(permutation_from_word([i], self.cube), degree)
            self._generators[i, degree] = _homology_map(act, self, self, degree)
        return self._generators[i, degree]

    def homology_trace(self, degree: int, start: int, size: int) -> ClassFunction:
        """Character of S_size permuting the cube coordinates start ..
        start+size-1 on degree-``degree`` homology: ``action_character`` over
        the kept homology generators t_{start+1} .. t_{start+size-1}, each
        applied to a whole image list at once by ``apply_columns``, whose
        images may share the generators' columns and are only read.  The
        generators are built only when the degree has homology."""
        dim = self.homology.dims()[degree]
        steps = range(1, size) if dim else ()
        generators = {g: self.homology_generator(start + g, degree) for g in steps}
        return action_character(size, dim, lambda g, vecs: generators[g].apply_columns(vecs))


def _homology_map(
    t: SparseMatrix, src: CubeStage, tgt: CubeStage, degree: int = 0
) -> SparseMatrix:
    """Homology matrix in ``degree`` of a quotient-level map ``t`` from
    ``src`` to ``tgt``, in their homology bases."""
    columns = [
        tgt.homology.express(degree, t.apply(rep)) for rep in src.homology.rep_vectors[degree]
    ]
    return SparseMatrix(tgt.homology.dims()[degree], len(columns), columns)


def _stage_map(module: FIModule, f: Injection, src: CubeStage, tgt: CubeStage) -> SparseMatrix:
    """Quotient-level matrix on degree 0 of the extension sum of f: n -> m
    from stage k of the n-cube ``src`` to stage l >= k of the m-cube ``tgt``.

    The sum runs over the injections j from the points of m missed by f into
    the k-tail.  Its term is E(g) for the g: n+k -> m+l that is f on n, sends
    the tail point j(x) back to x and every other tail point a to m + a.  The
    stabilization from stage k to k + 1 is the sum of the identity: with no
    missed points, its single term is the standard inclusion n+k -> n+k+1.
    """
    n, m, k = f.source_size, f.target_size, src.k
    src_q, tgt_q = src.quotients[n], tgt.quotients[m]
    missing = [x for x in range(m) if x not in f.image]
    columns = [{} for _ in src_q.free]
    for j_values in itertools.permutations(range(k), len(missing)):
        pulled = {a: missing[t] for t, a in enumerate(j_values)}
        g = Injection(n + k, m + tgt.k, f.values + tuple(pulled.get(a, m + a) for a in range(k)))
        columns = [vec_add(c, b) for c, b in zip(columns, _induced(module, g, src_q, tgt_q))]
    return SparseMatrix(tgt_q.dim, src_q.dim, columns)


def _stabilization(stage: CubeStage, nxt: CubeStage) -> SparseMatrix:
    """Homology matrix on degree 0 of the stabilization from ``stage`` to
    the next stage ``nxt`` of the same cube: the extension sum of the identity."""
    identity = standard_inclusion(stage.cube, stage.cube)
    return _homology_map(_stage_map(stage.module, identity, stage, nxt), stage, nxt)


@dataclass(frozen=True)
class GradedCoefficient:
    """Stable coinvariant homology of a cross-effect cube.

    ``characters[i]`` is the character of the coordinate-permutation action
    on degree-i homology; for the shifted variant the action group is the
    block of cube coordinates past the shift.
    """

    cube: int
    action_size: int
    dims: tuple[int, ...]
    characters: tuple[ClassFunction, ...]
    witness: int


def _stable_stage(module: FIModule, cube: int) -> CubeStage:
    """The witness stage of the cube: stages are scanned from the generation
    bound up, and the later of the first two consecutive stages that
    stabilize is returned.  The witness is memoized in the module's cache,
    so every later call for the cube returns the same stage; no other stage
    is kept.  Raises ``NotStabilizedError`` with the homology dims of every
    stage built when the window runs out first, and scans again on the next
    call."""
    key = ("witness", cube)
    if key in module._coinv_cache:
        return module._coinv_cache[key]
    stage = CubeStage(module, cube, module.generation_bound)
    trajectory = [{"stage": stage.k, "dims": stage.homology.dims()}]
    while cube + stage.k < module.max_degree:
        nxt = CubeStage(module, cube, stage.k + 1)
        dims = nxt.homology.dims()
        if stage.homology.dims() == dims and (
            not dims[0] or rank(_stabilization(stage, nxt)) == dims[0]
        ):
            module._coinv_cache[key] = nxt
            return nxt
        trajectory.append({"stage": nxt.k, "dims": dims})
        stage = nxt
    raise NotStabilizedError(
        f"coefficient of the {cube}-cube did not stabilize inside the window; "
        f"trajectory {trajectory}",
        trajectory,
    )


def _coefficient(stage: CubeStage, action_start: int, action_size: int) -> GradedCoefficient:
    """The coefficient read off a witness stage, with the characters of the
    symmetric group on the cube coordinates from ``action_start`` on."""
    characters = tuple(
        stage.homology_trace(degree, action_start, action_size)
        for degree in range(stage.cube + 1)
    )
    return GradedCoefficient(stage.cube, action_size, stage.homology.dims(), characters, stage.k)


def taylor_coefficient(module: FIModule, n: int) -> GradedCoefficient:
    """The n-th coefficient: stable coinvariant cube homology with its
    symmetric-group character in every homological degree."""
    if n < 0:
        raise ValueError("coefficient index must be non-negative")
    return _coefficient(_stable_stage(module, n), 0, n)


def shifted_coefficient(module: FIModule, n: int, i: int) -> GradedCoefficient:
    """The i-th coefficient of the n-fold difference, acting on the last
    i cube coordinates only."""
    for name, value in (("difference order n", n), ("coefficient index i", i)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    return _coefficient(_stable_stage(module, n + i), n, i)


@dataclass(frozen=True)
class ShiftCheckResult:
    lhs: GradedCoefficient
    rhs_dims: tuple[int, ...]
    rhs_characters: tuple[ClassFunction, ...]
    equal: bool


def delta_coefficient_shift_check(module: FIModule, n: int, i: int) -> ShiftCheckResult:
    """Compare two characters of S_i on one witness stage of the (n+i)-cube:
    acting on the last i cube coordinates (the ``shifted_coefficient``) and
    on the first i.  The second has the values the padded classes ct + 1^n
    of S_{n+i} take, since ``conjugacy_class_word`` gives them the same
    word.  The two actions are conjugate, so this checks that
    ``CubeStage.homology_trace`` is a class function; it is not an
    independent check of the shift theorem, which would take the i-th
    coefficient of the n-fold difference module itself."""
    lhs = shifted_coefficient(module, n, i)
    rhs = _coefficient(_stable_stage(module, n + i), 0, i)
    return ShiftCheckResult(lhs, rhs.dims, rhs.characters, lhs.characters == rhs.characters)


# ---------------------------------------------------------------------------
# transition maps between coefficients
# ---------------------------------------------------------------------------


def _stage(module: FIModule, cube: int, k: int) -> CubeStage:
    """Stage k of the cube: the memoized witness when it is that stage, else
    the stage memoized under ("stage", cube, k), built on first use."""
    witness = module._coinv_cache.get(("witness", cube))
    if witness is not None and witness.k == k:
        return witness
    key = ("stage", cube, k)
    if key not in module._coinv_cache:
        module._coinv_cache[key] = CubeStage(module, cube, k)
    return module._coinv_cache[key]


def _transition_at_stage(module: FIModule, f: Injection, k: int):
    """Homology-basis matrix of the extension-sum map at one stage, with the
    boundary-preservation check."""
    src, tgt = _stage(module, f.source_size, k), _stage(module, f.target_size, k)
    t = _stage_map(module, f, src, tgt)
    for col in src.complex.differentials[0].columns if src.cube else ():
        if tgt.homology.express(0, t.apply(col)):
            raise InstabilityError(
                "extension-sum map does not carry boundaries to boundaries"
            )
    return src, tgt, _homology_map(t, src, tgt)


def coefficient_transition(module: FIModule, f: Injection, k: int) -> SparseMatrix:
    """Matrix of the induced map on degree-0 stable homology, in the
    homology bases of the stage-k cubes at source and target size.

    Two runtime assertions guard against using an unstabilized stage: the
    quotient-level map must carry boundaries to boundaries, and (when the
    window allows forming stage k+1) the matrices at k and k+1 must agree
    under the stabilization transition maps.  Either failure raises
    InstabilityError.
    """
    src, tgt, mat = _transition_at_stage(module, f, k)
    if f.target_size + k + 1 <= module.max_degree:
        src_next, tgt_next, mat_next = _transition_at_stage(module, f, k + 1)
        s_src = _stabilization(src, src_next)
        s_tgt = _stabilization(tgt, tgt_next)
        if mat_next.compose(s_src).columns != s_tgt.compose(mat).columns:
            raise InstabilityError(
                "transition matrices at consecutive stages disagree under the "
                "stabilization maps (stage too small)"
            )
    return mat


# ---------------------------------------------------------------------------
# whole-module profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientProfile:
    """All coefficients of a module up to its generation bound, with the
    degree-0 transition matrices along the standard one-step inclusions."""

    module_name: str
    coefficients: tuple[GradedCoefficient, ...]
    transitions: tuple[SparseMatrix, ...]

    @property
    def max_index(self) -> int:
        return len(self.coefficients) - 1


def coefficient_profile(module: FIModule, max_index: int | None = None) -> CoefficientProfile:
    if max_index is None:
        max_index = module.generation_bound
    if max_index < 0:
        raise ValueError(f"coefficient index bound must be non-negative, got {max_index}")
    coefficients = tuple(taylor_coefficient(module, n) for n in range(max_index + 1))
    transitions = tuple(
        coefficient_transition(module, standard_inclusion(n, n + 1), max(c.witness, d.witness))
        for n, (c, d) in enumerate(zip(coefficients, coefficients[1:]))
    )
    return CoefficientProfile(module.name, coefficients, transitions)


# ---------------------------------------------------------------------------
# full cube complex (reference construction, no coinvariants)
# ---------------------------------------------------------------------------


def delta_complex(module: FIModule, n: int, k: int) -> ChainComplex:
    """The full (non-coinvariant) stage-k cube complex.  It is the cube
    over the quotients of E(s + k) by no tail generators: every coordinate
    is free and ``project`` is the identity."""
    return _cube_complex(module, n, k, lambda s: _quotient(module, s + k, 0))[2]
