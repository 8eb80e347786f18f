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
injection from a stage of one cube to a stage of another.  It builds each
block once per module and keeps it, so the cubes of every stage share the
blocks of their insertions, which depend only on the insert position.

Over the rationals, coinvariants by the tail symmetric group are exact,
so the stage homology is computed on the quotient complex where each
summand E(s + k) is divided by the span of v - g.v for the k-1 adjacent
transpositions s_{s+1} .. s_{s+k-1} that fix the first s points.  Those
quotients are small, which is what makes window-scale computation
feasible: for a permutation-like module, such as a representable one, they
have one dimension per orbit of the tail group on the basis.  The tail
group of (s, k) is generated by that of (s+1, k-1) and s_{s+1}, so each
quotient is built from the memoized quotient of (s+1, k-1), its parent, and
one generator: ``CoinvariantQuotient`` joins the parent's orbits along the
generator's columns, and eliminates only the relations the walk leaves:
the parent's, generator columns with several entries (Specht blocks) and
orbits that close with an inconsistent factor (signs).  The generator is
walked only at the free coordinates of the grandparent (s+2, k-2), whose
generators it commutes with by the far Coxeter relations (checked by
``validate``); the relations at the other coordinates follow from those and
the parent's.  On a module with those relations the answer is the reduced
echelon form of the whole span, so it does not depend on the order in which
the generators were added; off one it is that of the walked relations.

Stabilization: stages are scanned from k = generation bound upward; a
coefficient is declared stable when two consecutive stages have equal
homology dimensions in every degree and the stabilization, the extension
sum of the identity from stage k to k + 1 (its one term is the standard
inclusion n+k -> n+k+1), is an isomorphism on degree-0 homology.  The
later stage is the witness (``_scan``), and a coefficient's dims and
characters are read off it.  The coefficient is kept in the module's memo
(``FIModule.memo``), as is the witness with its quotients and blocks, so
each module scans each cube once: ``taylor_coefficient``, the profile (and
its transitions at that stage) and the left side of every shift check share
one coefficient.  The stages scanned before a witness are not kept, and a
cube that does not stabilize is scanned again on every call.  The stages
that transitions build are kept in the same memo, so consecutive
transitions of a profile, and later transitions of the module, share the
stages they have in common.  No stage refers to its module: what applies
the module's structure maps to a stage takes the module.
Characters are those of the full symmetric group of the cube:
``action_character`` walks its class tree over the homology matrices of the
adjacent transpositions of cube coordinates, which ``homology_trace`` builds
only for a degree with homology.  ``shifted_coefficient`` restricts them to
a smaller group (``symrep.restriction``).
``delta_coefficient_shift_check`` compares two independent computations of
the shift theorem: ``shifted_coefficient`` on the (n+i)-cube of the module,
and ``taylor_coefficient`` of index i of its n-th ``core.derivative``, a
module of its own with its own memo.
``_cube_complex`` is also the one place that refuses a stage outside the window.
The same memo holds each stage character of the module itself
(``dictionary.stage_character``), one ``ClassFunction`` per stage read.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, replace
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
from ..symrep import ClassFunction, action_character, partitions_of, restriction
from .core import FIModule, InstabilityError, NotStabilizedError, WindowError, derivative


class CoinvariantQuotient:
    """E(s+k) modulo W, the span of e_b - g.e_b over the basis vectors e_b
    and the k-tail transpositions g, the 1-based s+1 .. s+k-1.

    ``free`` is the set of coordinates c with e_c not in
    W + span{e_j : j > c}, that is the non-pivots of the reduced echelon form
    of W whose pivots are smallest coordinates, and ``project`` sends v to
    the unique vector of v + W supported on ``free``.  With no generator
    (k < 2) W is 0 and ``project`` copies its input.

    The tail group of (s, k) is generated by the tail group of (s+1, k-1),
    the parent, and s_{s+1}, so W is the parent's W plus W_g, the span of
    e_x - g.e_x for g = s_{s+1}.  A quotient is built from its memoized
    parent and the columns of g alone, without eliminating most of W.

    0. Only the grandparent's free coordinates.  The grandparent (s+2, k-2)
       has the generators s_{s+3} .. s_{s+k-1}, which commute with g (the
       far Coxeter relations, which ``validate`` checks), so g maps its span
       W_K into itself.  Write e_x = sum a_c.e_c + w, c over the
       grandparent's free coordinates and w in W_K, which lies in the
       parent's W.  Then e_x - g.e_x = sum a_c.(e_c - g.e_c) + (w - g.w)
       with w - g.w in W_K: modulo the parent's W, every relation of g is a
       combination of those at the grandparent's free coordinates, and only
       those columns of g are read (all of them for k <= 3, where the
       grandparent has no generator).  Without the far relations, W below
       means the parent's W plus the walked relations, a span that may be
       smaller, and what follows holds for it.
    1. Walk the orbits.  The parent rewrites each e_x as f_x.e_r, r its
       representative, modulo the parent's W.  A column of g with one entry,
       g.e_x = c.e_y, rewritten through the parent is an edge
       e_a = (c.f_y/f_x).e_b between the parent's representatives a of x
       and b of y; an edge from a representative to itself with factor 1
       says nothing and is dropped.  From the largest representative down,
       each orbit of the edges is walked breadth-first from its largest
       coordinate t, recording the factor F_a with e_a = F_a.e_t.  The
       rewriting e_x -> f_x.F_r.e_t, flattened through the parent, projects
       onto the span of the new representatives, with kernel spanned by the
       parent's and the new walked edges, all in W.
    2. Eliminate what is left.  Rewritten onto the new representatives, the
       rows of the parent's reducer, the relations e_x - g.e_x of the columns
       that are not single entries (Specht blocks, empty columns) and e_t
       for an orbit with an edge that closes a cycle with another factor (a
       sign, which kills the orbit in the quotient) go into a fresh
       ``VectorReducer``.  Its span W' is the image of W under the rewriting:
       W = W_parent + W_g, the parent's rows span the image of W_parent under
       its own rewriting, and rewriting the parent's then the new
       representatives is the one rewriting of the composite.

    The answer is the reduced echelon form of W: on a module with the far
    relations, the full elimination's, whatever order the generators are
    taken in.  The rewriting sends e_c to a multiple of e_r with r >= c, and
    its kernel lies in W.  So a coordinate c that is not a representative
    is a pivot, and for a representative r, "e_r in W + span{e_j : j > r}"
    holds exactly when "e_r in W' + span{e_t : representatives t > r}"
    does: the free representatives are the non-pivots of W'.  They are read
    off the parent's ``free``, since W contains the parent's W and so has no
    free coordinate the parent lacks.  And since v + W meets the span of
    ``free`` in one vector, rewriting and then reducing by W' finds the same
    projection.
    """

    def __init__(self, module: FIModule, s: int, k: int):
        d = module.dims[s + k]
        self.reducer = VectorReducer()
        if k < 2:
            self._rep, self._factor = range(d), (1,) * d
            self.reducer.freeze()
            self.free = tuple(range(d))
            self.index = range(d)
            self.dim = d
            self.project = dict
            return
        parent = _quotient(module, s + 1, k - 1)
        prep, pfac = parent._rep, parent._factor
        # step 0: the grandparent's free coordinates
        walked = _quotient(module, s + 2, k - 2).free if k > 2 else range(d)
        columns = module.transpositions[s + k][s].columns
        edges = {}  # parent representative a -> [(b, m)] with F_b = F_a * m
        leftover = [row for _, row in parent.reducer.rows()]
        for x in walked:
            col = columns[x]
            if len(col) != 1:
                leftover.append(vec_add({x: 1}, col, -1))
                continue
            for y in col:  # its one entry
                c = col[y]
            a, b = prep[x], prep[y]
            m = _ratio(pfac[x], c * pfac[y])  # e_b = m.e_a
            if a == b and m == 1:
                continue
            edges.setdefault(a, []).append((b, m))
            edges.setdefault(b, []).append((a, _ratio(1, m)))
        rep, factor = {}, {}  # on the parent representatives an edge touches
        for top in sorted(edges, reverse=True):
            if top in rep:
                continue
            rep[top] = top
            factor[top] = 1
            orbit = [top]
            consistent = True
            for a in orbit:
                for b, m in edges[a]:
                    fb = factor[a] * m
                    if b not in rep:
                        rep[b] = top
                        factor[b] = fb
                        orbit.append(b)
                    elif factor[b] != fb:
                        consistent = False
            if not consistent:
                leftover.append({top: 1})
        if rep:
            self._rep = list(map(rep.get, prep, prep))
            self._factor = list(map(operator.mul, pfac, map(factor.get, prep, itertools.repeat(1))))
        else:
            self._rep, self._factor = prep, pfac
        for w in leftover:
            w = self._rewrite(w)
            if w:
                self.reducer.insert(w)
        self.reducer.freeze()  # ``project`` only reduces
        pivots = set(self.reducer.pivots())
        self.free = tuple(c for c in parent.free if self._rep[c] == c and c not in pivots)
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
        rem = self._rewrite(vec)
        if self.reducer.rank:
            rem = self.reducer.reduce(rem)
        index = self.index
        return {index[c]: v for c, v in rem.items()}


def _ratio(p, q):
    """p / q, an int when q is 1 or -1."""
    return p * q if q == 1 or q == -1 else Fraction(p) / q


def _quotient(module: FIModule, s: int, k: int) -> CoinvariantQuotient:
    """The quotient of (s, k), kept under ("quotient", s, k) in the module's
    memo.  Building it asks for its parent and grandparent, so the missing
    ones are built first, by a recursion at most k deep."""
    return module.memo(("quotient", s, k), lambda: CoinvariantQuotient(module, s, k))


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


def _induced(module: FIModule, f: Injection, src, tgt) -> tuple[dict, ...]:
    """The columns of E(f) from the quotient ``src`` of E(f.source_size) to
    the quotient ``tgt`` of E(f.target_size): the free basis vectors of
    ``src`` mapped together, each image projected into a vector of its own.
    Every quotient-level block is built here, once per module: the block is
    kept under ("block", f, src, tgt) in the module's memo and shared by
    every caller, so its columns are only read."""

    def build():
        return tuple(map(tgt.project, module.apply_injection(f, [{b: 1} for b in src.free])))

    return module.memo(("block", f, src, tgt), build)


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
    """The stage-k coinvariant cube complex of a module, with its homology;
    the methods that apply the module's structure maps take the module."""

    def __init__(self, module: FIModule, cube: int, k: int):
        self.summands, self.offsets, self.complex = _cube_complex(
            module, cube, k, lambda s: _quotient(module, s, k)
        )
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

    # -- symmetric-group action on the cube coordinates ------------------
    def action_matrix(self, module: FIModule, perm: tuple[int, ...], degree: int) -> SparseMatrix:
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
            block = _induced(module, Injection(s + self.k, s + self.k, values), q, q)
            for local, col in enumerate(block):
                act.columns[src_off + local] = {tgt_off + li: sign * v for li, v in col.items()}
        return act

    def homology_trace(self, module: FIModule, degree: int) -> ClassFunction:
        """Character of S_cube permuting the cube coordinates on
        degree-``degree`` homology: ``action_character`` over the homology
        matrices of the adjacent transpositions t_1 .. t_{cube-1}, one
        ``action_matrix`` each, built only when the degree has homology.  Each
        applies to a whole image list at once by ``apply_columns``, whose
        images may share its columns and are only read."""
        dim = self.homology.dims()[degree]
        generators = {}
        for g in range(1, self.cube) if dim else ():
            act = self.action_matrix(module, permutation_from_word([g], self.cube), degree)
            generators[g] = _homology_map(act, self, self, degree)
        return action_character(self.cube, dim, lambda g, vecs: generators[g].apply_columns(vecs))


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


def _stabilization(module: FIModule, stage: CubeStage, nxt: CubeStage) -> SparseMatrix:
    """Homology matrix on degree 0 of the stabilization from ``stage`` to
    the next stage ``nxt`` of the same cube: the extension sum of the identity."""
    identity = standard_inclusion(stage.cube, stage.cube)
    return _homology_map(_stage_map(module, identity, stage, nxt), stage, nxt)


@dataclass(frozen=True)
class GradedCoefficient:
    """Stable coinvariant homology of a cross-effect cube.

    ``characters[i]`` is the character of the coordinate-permutation action
    on degree-i homology, one per degree 0 .. ``cube``: of S_cube for
    ``taylor_coefficient``, restricted to S_i for ``shifted_coefficient``.
    """

    cube: int
    dims: tuple[int, ...]
    characters: tuple[ClassFunction, ...]
    witness: int


def _scan(module: FIModule, cube: int) -> CubeStage:
    """The witness stage of the cube: stages are scanned from the generation
    bound up, and the later of the first two consecutive stages that
    stabilize is returned and kept under ("stage", cube, k) in the module's
    memo, where ``_stage`` finds it; no other stage is kept.  Raises
    ``NotStabilizedError`` with the homology dims of every stage built when
    the window runs out first."""
    stage = CubeStage(module, cube, module.generation_bound)
    trajectory = [{"stage": stage.k, "dims": stage.homology.dims()}]
    while cube + stage.k < module.max_degree:
        nxt = CubeStage(module, cube, stage.k + 1)
        dims = nxt.homology.dims()
        if stage.homology.dims() == dims and (
            not dims[0] or rank(_stabilization(module, stage, nxt)) == dims[0]
        ):
            return module.memo(("stage", cube, nxt.k), lambda: nxt)
        trajectory.append({"stage": nxt.k, "dims": dims})
        stage = nxt
    raise NotStabilizedError(
        f"coefficient of the {cube}-cube did not stabilize inside the window; "
        f"trajectory {trajectory}",
        trajectory,
    )


def taylor_coefficient(module: FIModule, n: int) -> GradedCoefficient:
    """The n-th coefficient: stable coinvariant cube homology with its
    S_n-character in every homological degree, read off the witness stage.
    It is kept under ("coefficient", n) in the module's memo, so each module
    scans each cube once; a cube that does not stabilize keeps nothing and
    is scanned again on the next call."""
    if n < 0:
        raise ValueError("coefficient index must be non-negative")

    def build():
        stage = _scan(module, n)
        characters = tuple(stage.homology_trace(module, d) for d in range(n + 1))
        return GradedCoefficient(n, stage.homology.dims(), characters, stage.k)

    return module.memo(("coefficient", n), build)


def shifted_coefficient(module: FIModule, n: int, i: int) -> GradedCoefficient:
    """The i-th coefficient of the n-fold difference: the (n+i)-th
    coefficient with each character restricted to S_i.  The trace of
    sigma in S_i on homology is that of sigma (+) id_n in S_{n+i}, so any i
    of the cube coordinates give this restriction."""
    for name, value in (("difference order n", n), ("coefficient index i", i)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    full = taylor_coefficient(module, n + i)
    return replace(full, characters=tuple(restriction(chi, i) for chi in full.characters))


@dataclass(frozen=True)
class ShiftCheckResult:
    """The two sides of the shift theorem: ``lhs`` is the
    ``shifted_coefficient``, the (n+i)-th coefficient of the module with its
    characters restricted to S_i, and ``rhs_dims`` and ``rhs_characters`` are
    those of the i-th coefficient of the n-th derivative, with n zero
    degrees appended.  ``equal`` compares the characters in every degree."""

    lhs: GradedCoefficient
    rhs_dims: tuple[int, ...]
    rhs_characters: tuple[ClassFunction, ...]
    equal: bool


def delta_coefficient_shift_check(module: FIModule, n: int, i: int) -> ShiftCheckResult:
    """Check C_i(D^n E) = C_{n+i}(E) restricted to S_i, where D is the
    derivative (Church-Ellenberg-Farb): compare the ``shifted_coefficient``
    of the module with the ``taylor_coefficient`` of index i of its n-th
    ``derivative``.  The latter's i-cube has n degrees fewer than the
    (n+i)-cube; they are padded with zero dims and zero characters of S_i."""
    lhs = shifted_coefficient(module, n, i)
    for _ in range(n):
        module = derivative(module)
    rhs = taylor_coefficient(module, i)
    characters = rhs.characters + (ClassFunction(i, (0,) * len(partitions_of(i))),) * n
    return ShiftCheckResult(lhs, rhs.dims + (0,) * n, characters, lhs.characters == characters)


# ---------------------------------------------------------------------------
# transition maps between coefficients
# ---------------------------------------------------------------------------


def _stage(module: FIModule, cube: int, k: int) -> CubeStage:
    """Stage k of the cube, kept under ("stage", cube, k) in the module's
    memo: the witness when it is that stage, else built on first use."""
    return module.memo(("stage", cube, k), lambda: CubeStage(module, cube, k))


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
        s_src = _stabilization(module, src, src_next)
        s_tgt = _stabilization(module, tgt, tgt_next)
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
