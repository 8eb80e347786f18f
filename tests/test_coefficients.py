"""Tests for cross-effect cube homology, coefficients, and transitions."""

import gc
import itertools
import random
import weakref
from fractions import Fraction
from math import factorial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ficalc.cli import _DICTIONARY_MODULES, main
from ficalc.combinat import (
    Injection,
    conjugacy_class_word,
    permutation_from_word,
    standard_inclusion,
)
from ficalc.exactla import (
    ComplexInvalidError,
    Matrix,
    RationalComplexHomology,
    SparseMatrix,
    VectorReducer,
    homology,
    rank,
    vec_add,
)
from ficalc.fimod import (
    CubeStage,
    FIModule,
    NotStabilizedError,
    WindowError,
    coefficient_profile,
    coefficient_transition,
    delta_coefficient_shift_check,
    delta_complex,
    derivative,
    free_module,
    is_polynomial,
    representable,
    save_module,
    shifted_coefficient,
    stable_decomposition,
    taylor_coefficient,
    validate,
    zero_module,
)
from ficalc.fimod import coefficients
from ficalc.fimod.coefficients import CoinvariantQuotient
from ficalc.symrep import ClassFunction, decompose_class_function, partitions_of, restriction
from test_module_io import rescaled


def test_representable_coefficients_are_free_set_characters():
    """The n-th coefficient of the rank-m injection module is spanned by the
    injections n -> m, permuted freely, so its character is m!/(m-n)! at the
    identity and zero elsewhere, concentrated in homological degree 0."""
    for m in range(4):
        E = representable(m, 7)
        for n in range(4):
            gc = taylor_coefficient(E, n)
            expect = factorial(m) // factorial(m - n) if n <= m else 0
            assert gc.dims[0] == expect
            assert all(d == 0 for d in gc.dims[1:])
            values = gc.characters[0].values
            assert values[-1] == expect  # identity class sits last
            assert all(v == 0 for v in values[:-1])


def test_rank_two_coefficient_is_the_regular_character():
    gc = taylor_coefficient(representable(2, 6), 2)
    assert partitions_of(2) == ((2,), (1, 1))
    assert gc.characters[0].values == (0, 2)
    assert decompose_class_function(gc.characters[0]).nonzero() == {
        (2,): 1,
        (1, 1): 1,
    }


def test_free_module_coefficients_recover_the_generating_character():
    M11 = free_module((1, 1), 6)
    c0 = taylor_coefficient(M11, 0)
    assert c0.dims == (0,)
    c1 = taylor_coefficient(M11, 1)
    assert c1.dims == (1, 0)
    assert c1.characters[0].values == (1,)
    c2 = taylor_coefficient(M11, 2)
    assert c2.dims == (1, 0, 0)
    # the sign character on classes ((2,), (1,1))
    assert c2.characters[0].values == (-1, 1)


def test_zero_module_has_zero_coefficients():
    Z = zero_module(5)
    for n in range(3):
        gc = taylor_coefficient(Z, n)
        assert all(d == 0 for d in gc.dims)


def test_coefficient_rejects_negative_index():
    with pytest.raises(ValueError):
        taylor_coefficient(representable(1, 4), -1)


def test_coefficient_window_too_small():
    with pytest.raises(WindowError):
        taylor_coefficient(representable(2, 3), 2)


def test_coefficient_not_stabilized_reports_trajectory(monkeypatch):
    # Window 4 allows only the single stage 2 of the 2-cube: no pair of
    # consecutive stages can agree, so the scan must report what it saw.
    # The failure is not memoized: a second call scans and raises again.
    builds = []

    class CountedStage(CubeStage):
        def __init__(self, module, cube, k):
            builds.append((cube, k))
            super().__init__(module, cube, k)

    monkeypatch.setattr(coefficients, "CubeStage", CountedStage)
    module = free_module((1, 1), 4)
    for _ in range(2):
        with pytest.raises(NotStabilizedError) as info:
            taylor_coefficient(module, 2)
        assert info.value.trajectory == [{"stage": 2, "dims": (1, 0, 0)}]
    assert builds == [(2, 2), (2, 2)]


def _declared_bound_zero(window: int) -> FIModule:
    """representable(1, window) declaring generation bound 0: its C_0 scan
    starts at stage 0, where E(0) = 0, below the stages that agree."""
    E = representable(1, window)
    return FIModule("bound 0", E.max_degree, 0, E.dims, E.transpositions, E.inclusions)


def test_scan_walks_past_a_stage_pair_that_disagrees():
    # stage 0 has dims (0,) and stage 1 (1,); stages 1 and 2 agree
    gc = taylor_coefficient(_declared_bound_zero(6), 0)
    assert gc.witness == 2
    assert gc == taylor_coefficient(representable(1, 6), 0)


def test_scan_reports_every_stage_it_walked():
    with pytest.raises(NotStabilizedError) as info:
        taylor_coefficient(_declared_bound_zero(1), 0)
    assert info.value.trajectory == [{"stage": 0, "dims": (0,)}, {"stage": 1, "dims": (1,)}]


def _live_reducer(module, s, k) -> VectorReducer:
    """The full elimination: every e_b - g.e_b over the k-tail generators."""
    live = VectorReducer()
    gens = module.transpositions[s + k]
    for gi in range(s + 1, s + k):
        for b in range(module.dims[s + k]):
            w = vec_add({b: 1}, gens[gi - 1].apply({b: 1}), -1)
            if w:
                live.insert(w)
    return live


def quotient_mismatches(module, s_max: int) -> list:
    """The (s, k, b) at which ``CoinvariantQuotient(module, s, k)`` disagrees
    with a live reducer holding all e_b - g.e_b, for s <= s_max and every
    stage in the window: ``free`` must be the live reducer's non-pivots (b is
    None when it is not) and ``project({b: 1})`` its remainder of e_b, in
    values, and an int wherever the remainder has one when every generator
    entry is an int ±1 (the full elimination may divide by a pivot 2 where
    the orbit walk does not, so the converse does not hold)."""
    bad = []
    for s in range(s_max + 1):
        for k in range(module.max_degree - s + 1):
            q = CoinvariantQuotient(module, s, k)
            live = _live_reducer(module, s, k)
            pivots = set(live.pivots())
            if q.free != tuple(c for c in range(module.dims[s + k]) if c not in pivots):
                bad.append((s, k, None))
                continue
            units = all(
                type(x) is int and abs(x) == 1
                for g in module.transpositions[s + k]
                for col in g.columns
                for x in col.values()
            )
            for b in range(module.dims[s + k]):
                got = q.project({b: 1})
                want = {q.index[c]: x for c, x in live.reduce({b: 1}).items()}
                if got != want or units and any(
                    type(want[i]) is int and type(got[i]) is not int for i in got
                ):
                    bad.append((s, k, b))
    return bad


def relabel(module, seed: int) -> FIModule:
    """An isomorphic copy with each degree's basis renamed at random."""
    rng = random.Random(seed)
    perms = []
    for d in module.dims:
        perm = list(range(d))
        rng.shuffle(perm)
        perms.append(perm)

    def conjugate(m, src, tgt):
        columns = [None] * m.cols
        for j, col in enumerate(m.columns):
            columns[src[j]] = {tgt[i]: x for i, x in col.items()}
        return SparseMatrix(m.rows, m.cols, columns)

    return FIModule(
        module.name,
        module.max_degree,
        module.generation_bound,
        module.dims,
        [[conjugate(g, perms[k], perms[k]) for g in gens] for k, gens in enumerate(module.transpositions)],
        [conjugate(m, perms[k], perms[k + 1]) for k, m in enumerate(module.inclusions)],
    )


def _sign_module(k_max: int) -> FIModule:
    """E(k) = sign with every inclusion 1: not a functor on injections."""
    transpositions = [
        [SparseMatrix(1, 1, [{0: -1}]) for _ in range(max(k - 1, 0))] for k in range(k_max + 1)
    ]
    inclusions = [SparseMatrix(1, 1, [{0: 1}]) for _ in range(k_max)]
    return FIModule("sign", k_max, 0, [1] * (k_max + 1), transpositions, inclusions)


def test_coinvariant_quotients_stay_int_and_project_as_before():
    """Every quotient of representable(3, 7) and free((2, 1), 7) is spanned by
    v - g.v with 0/±1 matrices, so the orbit factors, the rows of the
    leftover relations and the projections stay int; dropping the insert
    index once built leaves ``project`` equal to reduction by an unfrozen
    reducer holding every relation."""
    for E in (representable(3, 7), free_module((2, 1), 7)):
        for s in range(4):
            for k in range(8 - s):
                q = CoinvariantQuotient(E, s, k)
                with pytest.raises(RuntimeError):
                    q.reducer.insert({0: 1})
                assert all(type(f) is int for f in q._factor)
                for _, row in q.reducer.rows():
                    assert all(type(x) is int for x in row.values())
                live = _live_reducer(E, s, k)
                for b in range(E.dims[s + k]):
                    rem = live.reduce({b: 1})
                    got = q.project({b: 1})
                    assert got == {q.index[c]: x for c, x in rem.items()}
                    assert all(type(x) is int for x in got.values())


@pytest.mark.parametrize("lam", [(2, 1), (2, 2), (1, 1, 1)])
def test_orbit_quotient_of_specht_blocks_matches_full_elimination(lam):
    """Specht blocks give generator columns with several entries ((2, 1) and
    (2, 2)) or a sign that closes a cycle inconsistently ((1, 1, 1)), which
    the orbit walk leaves to elimination."""
    E = free_module(lam, 7)
    assert quotient_mismatches(E, 4) == []
    assert any(CoinvariantQuotient(E, 1, k).reducer.rank for k in range(7))


def test_orbit_quotient_of_relabelled_representable_matches_full_elimination():
    """A random basis order moves the orbit representatives and the pivots."""
    assert quotient_mismatches(relabel(representable(3, 7), 2), 4) == []


@pytest.mark.parametrize(
    "build, fractions",
    [
        (lambda: rescaled(free_module((2, 1), 7), 2), True),
        (lambda: rescaled(relabel(representable(3, 7), 4), 3), True),
        (lambda: relabel(free_module((2, 2), 8), 5), False),
    ],
    ids=["rescaled-free-2-1", "rescaled-relabelled-representable", "relabelled-free-2-2"],
)
def test_orbit_quotient_with_fraction_factors_matches_full_elimination(build, fractions):
    """A rescaled basis vector gives generator entries 2 and 1/2 (or 3 and
    1/3), so orbit factors are ``Fraction``s; a relabelled basis moves the
    grandparent's free coordinates, where each generator is walked."""
    E = build()
    assert quotient_mismatches(E, 4) == []
    factors = (f for s in range(5) for k in range(E.max_degree - s + 1) for f in CoinvariantQuotient(E, s, k)._factor)
    assert any(type(f) is Fraction for f in factors) == fractions


def test_orbit_quotient_kills_an_inconsistent_orbit():
    """The sign module's tail swap sends e to -e, a cycle whose factor is not
    1, so every quotient with a tail generator (k >= 2) is zero."""
    E = _sign_module(5)
    assert quotient_mismatches(E, 5) == []
    for s in range(6):
        for k in range(6 - s):
            assert CoinvariantQuotient(E, s, k).dim == (0 if k >= 2 else 1)


@pytest.mark.parametrize(
    "build",
    [lambda: relabel(representable(3, 7), 3), lambda: free_module((2, 2), 7), lambda: _sign_module(7)],
    ids=["relabelled-representable", "free-2-2", "sign"],
)
def test_a_quotient_requested_cold_equals_one_built_after_its_parents(build):
    """``_quotient`` builds a missing chain of parents itself; the quotient
    it returns reads as one whose parents were requested first."""
    for k in range(8):
        cold = coefficients._quotient(build(), 0, k)
        warm_module = build()
        for j in reversed(range(k + 1)):
            warm = coefficients._quotient(warm_module, j, k - j)
        assert (cold.free, cold.dim) == (warm.free, warm.dim), k
        assert [cold.index[c] for c in cold.free] == [warm.index[c] for c in warm.free]
        for b in range(warm_module.dims[k]):
            assert cold.project({b: 1}) == warm.project({b: 1}), (k, b)


class _CountedColumns:
    """A generator matrix that records each read of its columns."""

    def __init__(self, matrix, key, reads):
        self.rows, self.cols = matrix.rows, matrix.cols
        self._columns, self._key, self._reads = matrix.columns, key, reads

    @property
    def columns(self):
        self._reads.append(self._key)
        return self._columns


class _CountedList(list):
    """A list of columns that records the index of each column read from it,
    by index or by iteration."""

    def __init__(self, columns, reads):
        super().__init__(columns)
        self._reads = reads

    def __getitem__(self, x):
        self._reads.append(x)
        return super().__getitem__(x)

    def __iter__(self):
        for x, col in enumerate(super().__iter__()):
            self._reads.append(x)
            yield col


def _with_generators(E, wrap) -> FIModule:
    """E with each generator matrix g, s_i of degree k, replaced by
    ``wrap(g, (k, i))``."""
    return FIModule(
        E.name,
        E.max_degree,
        E.generation_bound,
        E.dims,
        [[wrap(g, (k, i)) for i, g in enumerate(gens, 1)] for k, gens in enumerate(E.transpositions)],
        E.inclusions,
    )


def test_each_quotient_reads_the_columns_of_one_generator():
    """A quotient with k >= 2 takes its parent's orbits and relations and
    adds the one generator s_{s+1}; the identity quotients read none."""
    for E in (representable(3, 7), free_module((2, 1), 7)):
        reads = []
        counted = _with_generators(E, lambda g, key: _CountedColumns(g, key, reads))
        for degree in range(E.max_degree + 1):
            for k in range(degree + 1):
                s = degree - k
                reads.clear()
                q = coefficients._quotient(counted, s, k)
                assert reads == ([(degree, s + 1)] if k >= 2 else []), (s, k)
                assert q.free == coefficients._quotient(E, s, k).free


def test_each_quotient_walks_its_generator_on_the_grandparents_free_coordinates():
    """The quotient (s, k) reads the columns of s_{s+1} only at the free
    coordinates of its grandparent (s+2, k-2), all of them for k <= 3: the
    degree-9 chain of representable(4, 9), s = 0..7, reads 9,828 columns of
    E(9) (dim 3,024), where a walk of every column read 8 x 3,024 = 24,192."""
    E = representable(4, 9)
    reads = []
    counted = _with_generators(
        E, lambda g, key: SimpleNamespace(rows=g.rows, cols=g.cols, columns=_CountedList(g.columns, reads))
    )
    total = 0
    for s in reversed(range(8)):
        k = 9 - s
        reads.clear()
        q = coefficients._quotient(counted, s, k)
        walked = coefficients._quotient(E, s + 2, k - 2).free if k > 2 else range(E.dims[9])
        assert reads == list(walked), (s, k)
        assert q.free == coefficients._quotient(E, s, k).free
        total += len(reads)
    assert E.dims[9] == 3024 and total == 9828


def test_induced_blocks_are_memoized_and_left_as_built():
    """A block is built once per module and returned as the same object; the
    cubes of a module whose caches are warm read as those of a fresh copy."""
    E = representable(3, 7)
    q1, q2 = coefficients._quotient(E, 1, 3), coefficients._quotient(E, 2, 3)
    f = Injection(4, 5, (0, 2, 3, 4))
    block = coefficients._induced(E, f, q1, q2)
    assert coefficients._induced(E, f, q1, q2) is block
    coefficient_profile(E)
    fresh = representable(3, 7)
    for cube, k in ((2, 3), (3, 3), (3, 4)):
        for warm, cold in (
            (CubeStage(E, cube, k).complex, CubeStage(fresh, cube, k).complex),
            (delta_complex(E, cube, k), delta_complex(fresh, cube, k)),
        ):
            assert [d.columns for d in warm.differentials] == [d.columns for d in cold.differentials]


# weighted toward 1 and -1, so that orbits often close with factor 1 and the
# quotients of k >= 3 are often nonzero
_SCALARS = (1,) * 6 + (-1,) * 2 + (2, Fraction(1, 2))


def _generator_shaped_columns(draw, d: int) -> list[dict]:
    """The columns of a d x d matrix, drawn 17 times in 20 as a single entry
    with a scalar in ``_SCALARS``, twice as several entries and once empty.
    An empty column kills its orbit in the quotient, so it is kept rare for
    the quotients of k >= 3 to be nonzero; ``sampled_from`` keeps these
    weights, where ``one_of`` draws its later branches more often."""
    rows = st.integers(0, max(d - 1, 0))
    entry = st.dictionaries(rows, st.sampled_from(_SCALARS), min_size=1, max_size=1)
    several = st.dictionaries(rows, st.sampled_from(_SCALARS), min_size=min(d, 2), max_size=3)
    column = st.sampled_from([entry] * 17 + [several] * 2 + [st.just({})])
    return [draw(draw(column)) for _ in range(d)]


@st.composite
def _generator_shaped_modules(draw):
    """Windows of arbitrary matrices in the shape of an FIModule, except
    that the one far pair of the window, s_1 and s_3 in degree 4, commutes,
    as the orbit quotients assume: s_1 = A (x) 1 and s_3 = 1 (x) B on a
    factorization d = a.b, in a random basis order.  Windows 3 and 4, with
    nonzero degrees 3 and 4, are drawn 4 times in 5: those are the windows
    with the quotients (0, 3) and (0, 4), which build on a live parent and
    grandparent."""
    max_degree = draw(st.sampled_from((1, 2) + (3,) * 4 + (4,) * 4))
    dims = [draw(st.integers(1 if k >= 3 else 0, 6)) for k in range(max_degree + 1)]
    transpositions = []
    for k, d in enumerate(dims):
        gens = [_generator_shaped_columns(draw, d) for _ in range(max(k - 1, 0))]
        if k == 4 and d:
            a = draw(st.sampled_from([f for f in range(1, d + 1) if d % f == 0]))
            b = d // a
            A, B = _generator_shaped_columns(draw, a), _generator_shaped_columns(draw, b)
            at = draw(st.permutations(range(d)))  # the position of (i, j) is at[i * b + j]
            for i, j in itertools.product(range(a), range(b)):
                gens[0][at[i * b + j]] = {at[r * b + j]: x for r, x in A[i].items()}
                gens[2][at[i * b + j]] = {at[i * b + r]: x for r, x in B[j].items()}
        transpositions.append([SparseMatrix(d, d, columns) for columns in gens])
    inclusions = [SparseMatrix(dims[k + 1], dims[k]) for k in range(max_degree)]
    return FIModule("random", max_degree, 0, dims, transpositions, inclusions)


@settings(max_examples=60, deadline=None)
@given(_generator_shaped_modules())
def test_orbit_quotient_of_random_generators_matches_full_elimination(E):
    if E.max_degree == 4:
        s1, _, s3 = E.transpositions[4]
        assert s1.compose(s3).columns == s3.compose(s1).columns
    assert quotient_mismatches(E, E.max_degree) == []


def test_off_a_representation_the_quotient_is_spanned_by_the_walked_relations():
    """s_1 = (0 2) and s_3 = (0 1)(2 3) do not commute, so the relation
    e_0 - e_2 of s_1, at coordinates that are not free in the quotient by
    s_3, is neither walked nor implied: the quotient of (0, 4) keeps e_1 and
    e_3 apart, where full elimination joins them."""

    def perm(*images):
        return SparseMatrix(4, 4, [{y: 1} for y in images])

    dims = (0, 0, 0, 0, 4)
    E = FIModule(
        "far pair not commuting",
        4,
        0,
        dims,
        [[SparseMatrix(d, d)] * max(k - 1, 0) for k, d in enumerate(dims[:4])]
        + [[perm(2, 1, 0, 3), perm(0, 1, 2, 3), perm(1, 0, 3, 2)]],
        [SparseMatrix(dims[k + 1], dims[k]) for k in range(4)],
    )
    assert "degree 4: Coxeter commutation fails at generators (1, 3)" in validate(E).violations
    assert CoinvariantQuotient(E, 0, 4).free == (1, 3)
    assert _live_reducer(E, 0, 4).rank == 3
    assert quotient_mismatches(E, 4) == [(0, 4, None)]


def test_transition_along_identity_is_identity():
    F2 = representable(2, 6)
    m = coefficient_transition(F2, Injection(2, 2, (0, 1)), 3)
    assert m.to_matrix() == Matrix.identity(2)


def test_transition_into_vanishing_coefficient_is_empty():
    F2 = representable(2, 6)
    m = coefficient_transition(F2, standard_inclusion(2, 3), 3)
    assert m.rows == 0


def test_transition_window_guard():
    F2 = representable(2, 5)
    with pytest.raises(WindowError):
        coefficient_transition(F2, standard_inclusion(1, 2), 4)


def test_transition_consistent_across_stages():
    """coefficient_transition cross-checks stage k against k+1 internally,
    so agreement of the returned matrices across stages is a real
    stabilization statement, not a tautology."""
    F2 = representable(2, 6)
    inc = standard_inclusion(1, 2)
    assert (
        coefficient_transition(F2, inc, 2).to_matrix()
        == coefficient_transition(F2, inc, 3).to_matrix()
    )


def _inclusion_oracle(module, stage, nxt):
    """The standard inclusion n+k -> n+k+1 of ``module`` applied to each free
    basis vector of the top quotient of ``stage``, projected onto the top
    quotient of ``nxt``."""
    inc = standard_inclusion(stage.cube + stage.k, stage.cube + stage.k + 1)
    src_q, tgt_q = stage.quotients[stage.cube], nxt.quotients[stage.cube]
    columns = [tgt_q.project(module.apply_injection(inc, [{b: 1}])[0]) for b in src_q.free]
    return SparseMatrix(tgt_q.dim, src_q.dim, columns)


_STAGE_MAP_MODULES = [
    *((label, lambda build=build: build(WITNESS_WINDOW)) for label, _, build in _DICTIONARY_MODULES),
    ("rescaled free((2,1))", lambda: rescaled(free_module((2, 1), WITNESS_WINDOW), 2)),
    # relabelled first, so that a rescaled coordinate is hit: a "1/2" entry
    (
        "rescaled relabelled free((2,1))",
        lambda: rescaled(relabel(free_module((2, 1), WITNESS_WINDOW), 2), 2),
    ),
]


@pytest.mark.parametrize(
    "build",
    [build for _, build in _STAGE_MAP_MODULES],
    ids=[label for label, _ in _STAGE_MAP_MODULES],
)
def test_stabilization_is_the_extension_sum_of_the_identity(build):
    module = build()
    for cube in range(4):
        identity = Injection(cube, cube, tuple(range(cube)))
        stages = [CubeStage(module, cube, k) for k in range(module.max_degree - cube + 1)]
        for stage, nxt in zip(stages, stages[1:]):
            got = coefficients._stage_map(module, identity, stage, nxt)
            want = _inclusion_oracle(module, stage, nxt)
            assert (got.rows, got.cols, got.columns) == (want.rows, want.cols, want.columns), (
                cube, stage.k
            )


def test_profile_of_rank_two_representable():
    prof = coefficient_profile(representable(2, 6))
    assert prof.max_index == 2
    assert [gc.dims[0] for gc in prof.coefficients] == [1, 2, 2]
    assert [(t.rows, t.cols) for t in prof.transitions] == [(2, 1), (2, 2)]
    assert [rank(t) for t in prof.transitions] == [1, 2]


def test_profile_of_free_module_has_singular_first_transition():
    prof = coefficient_profile(free_module((1, 1), 6))
    assert [gc.dims[0] for gc in prof.coefficients] == [0, 1, 1]
    assert [rank(t) for t in prof.transitions] == [0, 1]


def test_shift_check_agrees_for_small_modules():
    cases = [
        (representable(1, 6), 1, 1),
        (representable(2, 6), 1, 1),
        (representable(1, 6), 0, 2),
        (free_module((1, 1), 6), 1, 1),
    ]
    # every i up to the generation bound of D^n E that the window holds
    for module in (representable(3, 9), free_module((2, 2), 9)):
        g = module.generation_bound
        cases += [(module, n, i) for n in (1, 2) for i in range(g - n + 1) if n + i + g < 9]
    for module, n, i in cases:
        result = delta_coefficient_shift_check(module, n, i)
        assert result.equal, (module.name, n, i)
        assert result.lhs.dims == result.rhs_dims
        for d in range(n + i + 1):
            assert result.lhs.characters[d].values == result.rhs_characters[d].values


def test_shift_check_builds_each_stage_once(monkeypatch):
    builds = []

    class CountedStage(CubeStage):
        def __init__(self, module, cube, k):
            builds.append((cube, k))
            super().__init__(module, cube, k)

    monkeypatch.setattr(coefficients, "CubeStage", CountedStage)
    assert delta_coefficient_shift_check(representable(2, 8), 1, 1).equal
    assert builds and len(builds) == len(set(builds))


@pytest.mark.parametrize(
    "build,stages",
    [
        (lambda: representable(4, 9), 14),
        (lambda: representable(3, 9), 12),
        (lambda: free_module((2, 1), 8), 12),
    ],
    ids=["representable(4,9)", "representable(3,9)", "free((2,1),8)"],
)
def test_profile_transitions_reuse_the_witness_stage(monkeypatch, build, stages):
    builds = []

    class CountedStage(CubeStage):
        def __init__(self, module, cube, k):
            builds.append((cube, k))
            super().__init__(module, cube, k)

    monkeypatch.setattr(coefficients, "CubeStage", CountedStage)
    coefficient_profile(build())
    # consecutive transitions share the stages of their common cube
    assert len(builds) == len(set(builds)) == stages


def test_stage_that_is_not_a_complex_raises(tmp_path, capsys):
    # representable(2, 7) with column 2 of its inclusion 4 -> 5 doubled: it
    # fails validate, and stage 2 of its 3-cube is not a complex
    intact = representable(2, 7)
    inclusions = list(intact.inclusions)
    columns = [dict(c) for c in inclusions[4].columns]
    columns[2] = {i: 2 * x for i, x in columns[2].items()}
    inclusions[4] = SparseMatrix(inclusions[4].rows, inclusions[4].cols, columns)
    module = FIModule("broken", 7, 2, intact.dims, intact.transpositions, inclusions)
    assert not validate(module).valid
    message = "stage 2 of the 3-cube of broken is not a complex: d . d != 0 entering degree 0"
    for compute in (
        lambda: taylor_coefficient(module, 3),
        lambda: delta_coefficient_shift_check(module, 1, 2),
    ):
        with pytest.raises(ComplexInvalidError) as excinfo:
            compute()
        assert str(excinfo.value) == message and excinfo.value.degree == 0
    assert taylor_coefficient(intact, 3).witness == 3
    # a domain error of the command line: exit 1, blaming the module
    path = tmp_path / "broken.json"
    save_module(module, path)
    assert main(["coefficients", str(path), "--max-index", "3"]) == 1
    assert capsys.readouterr().err == f"fi-calc coefficients: {message}\n"


WITNESS_WINDOW = 8


@pytest.mark.parametrize(
    "build",
    [build for _, _, build in _DICTIONARY_MODULES],
    ids=[label for label, _, _ in _DICTIONARY_MODULES],
)
def test_witness_stage_is_memoized_per_module(build):
    shared = build(WITNESS_WINDOW)
    cubes = [c for c in range(5) if c + shared.generation_bound + 1 <= WITNESS_WINDOW]
    assert cubes
    for cube in cubes:
        assert taylor_coefficient(shared, cube) is taylor_coefficient(shared, cube)
    # every call on the shared module, memo hit or not, reads what a fresh
    # module reads
    for n in cubes:
        assert taylor_coefficient(shared, n) == taylor_coefficient(build(WITNESS_WINDOW), n)
    for n, i in itertools.product(range(3), repeat=2):
        if n + i in cubes:
            fresh = delta_coefficient_shift_check(build(WITNESS_WINDOW), n, i)
            assert delta_coefficient_shift_check(shared, n, i) == fresh


def _per_class_character(module, stage, degree, start, size):
    """The per-class route: for each class of S_size, the trace on homology,
    through ``express``, of the action matrix of its representative moving the
    cube coordinates start .. start+size-1."""
    homology = stage.homology
    values = []
    for ct in partitions_of(size):
        base = permutation_from_word(conjugacy_class_word(ct), size)
        perm = (
            tuple(range(start))
            + tuple(start + v for v in base)
            + tuple(range(start + size, stage.cube))
        )
        act = stage.action_matrix(module, perm, degree)
        values.append(
            sum(
                homology.express(degree, act.apply(rep)).get(j, 0)
                for j, rep in enumerate(homology.rep_vectors[degree])
            )
        )
    return ClassFunction(size, tuple(values))


def _assert_traces_match(module, first_stage):
    for cube in range(4):
        for k in range(first_stage, WITNESS_WINDOW - cube + 1):
            stage = CubeStage(module, cube, k)
            for degree, start in itertools.product(range(cube + 1), repeat=2):
                for size in range(cube - start + 1):
                    expected = _per_class_character(module, stage, degree, start, size)
                    restricted = restriction(stage.homology_trace(module, degree), size)
                    assert restricted == expected, (
                        cube, k, degree, start, size
                    )
                    decompose_class_function(expected)  # a character of S_size


@pytest.mark.parametrize(
    "build",
    [build for _, _, build in _DICTIONARY_MODULES],
    ids=[label for label, _, _ in _DICTIONARY_MODULES],
)
def test_homology_trace_matches_the_per_class_traces(build):
    module = build(WITNESS_WINDOW)
    _assert_traces_match(module, module.generation_bound)


@pytest.mark.parametrize(
    "module",
    [representable(2, WITNESS_WINDOW), free_module((2, 1), WITNESS_WINDOW)],
    ids=["representable(2)", "free((2,1))"],
)
def test_homology_trace_matches_the_per_class_traces_in_positive_degrees(module):
    # the module with every degree above 3 set to 0, a quotient by the
    # submodule of those degrees: its cubes have homology in positive degrees
    top = 3
    dims = [d if k <= top else 0 for k, d in enumerate(module.dims)]
    transpositions = [
        gens if k <= top else [SparseMatrix(0, 0)] * (k - 1)
        for k, gens in enumerate(module.transpositions)
    ]
    inclusions = [
        inc if j < top else SparseMatrix(dims[j + 1], dims[j])
        for j, inc in enumerate(module.inclusions)
    ]
    quotient = FIModule(
        "truncated", module.max_degree, module.generation_bound, dims, transpositions, inclusions
    )
    assert validate(quotient).valid
    assert any(CubeStage(quotient, 3, 1).homology.dims()[1:])
    _assert_traces_match(quotient, 0)


@pytest.mark.parametrize(
    "module",
    [representable(1, 6), free_module((2, 1), 6)],
    ids=["representable(1)", "free((2,1))"],
)
def test_cube_coordinate_permutations_are_chain_maps(module):
    for cube in range(4):
        for k in range(module.max_degree - cube + 1):
            stage = CubeStage(module, cube, k)
            for perm in itertools.permutations(range(cube)):
                for i, d in enumerate(stage.complex.differentials):
                    above = d.compose(stage.action_matrix(module, perm, i + 1))
                    below = stage.action_matrix(module, perm, i).compose(d)
                    assert above.columns == below.columns, (cube, k, perm, i)


def test_taylor_coefficient_builds_one_action_matrix_per_generator(monkeypatch):
    builds = []
    action_matrix = CubeStage.action_matrix

    def counted(self, module, perm, degree):
        builds.append((perm, degree))
        return action_matrix(self, module, perm, degree)

    monkeypatch.setattr(CubeStage, "action_matrix", counted)
    gc = taylor_coefficient(representable(3, 9), 3)
    # the two adjacent transpositions of the 3-cube, in degree 0 alone: the
    # only degree with homology (one matrix per class of S_3 would be three)
    assert gc.dims == (6, 0, 0, 0)
    assert builds == [((1, 0, 2), 0), ((0, 2, 1), 0)]


def test_untruncated_recipes_have_coefficients_in_degree_zero_alone():
    """Every coefficient of a representable or free module, and of its
    derivative, up to the generation bound has no homology in positive
    degrees, so spurious positive-degree homology fails here."""
    recipes = [representable(m, 9) for m in range(4)] + [
        free_module(lam, 9) for size in range(4) for lam in partitions_of(size)
    ]
    for E in recipes:
        for module in (E, derivative(E)):
            for n in range(module.generation_bound + 1):
                dims = taylor_coefficient(module, n).dims
                assert not any(dims[1:]), (module.name, n, dims)


def test_shift_check_reads_what_the_separate_coefficients_read():
    module = representable(2, 8)
    n, i = 1, 1
    result = delta_coefficient_shift_check(module, n, i)
    assert result.lhs == shifted_coefficient(representable(2, 8), n, i)
    assert result.rhs_dims == taylor_coefficient(derivative(representable(2, 8)), i).dims + (0,) * n


def test_a_dropped_module_is_freed_without_the_cycle_collector():
    """Nothing a module memoizes refers back to it, so reference counting
    frees it, with its quotients, stages, characters and derivative."""
    gc.disable()
    try:
        E = representable(2, 8)
        coefficient_profile(E)
        stable_decomposition(E, 8)
        assert delta_coefficient_shift_check(E, 1, 1).equal
        assert is_polynomial(E, 2)
        ref = weakref.ref(E)
        del E
        assert ref() is None
    finally:
        gc.enable()


def test_shifted_coefficient_beyond_the_window():
    with pytest.raises(WindowError):
        shifted_coefficient(representable(2, 3), 2, 1)


def test_shifted_coefficient_and_shift_check_name_a_negative_argument():
    module = representable(2, 8)
    for n, i, name in ((-1, 1, "n"), (-1, 2, "n"), (2, -1, "i"), (1, -1, "i")):
        for compute in (shifted_coefficient, delta_coefficient_shift_check):
            with pytest.raises(ValueError, match=f" {name} must be non-negative, got -1"):
                compute(module, n, i)


def test_dense_cube_complex_shape_and_homology():
    F1 = representable(1, 6)
    c = delta_complex(F1, 1, 3)
    # one-cube at stage 3: E(4) -> E(3)
    assert c.dims == (4, 3)
    assert homology(c).betti == (1, 0)


def _coordinate_cube(module, n, k) -> list[SparseMatrix]:
    """The differentials of the full stage-k cube on the coordinates of each
    summand E(|S| + k), the subsets of a degree in lexicographic order: the
    block from S to S + {x} is (-1)^{#{y not in S : y < x}} times E of the
    injection S + tail -> S + {x} + tail that keeps the order of S and of the
    tail."""
    levels = [list(itertools.combinations(range(n), n - i)) for i in range(n + 1)]
    offsets, dims = [], []
    for level in levels:
        offsets.append({})
        dims.append(0)
        for subset in level:
            offsets[-1][subset] = dims[-1]
            dims[-1] += module.dims[len(subset) + k]
    differentials = []
    for i in range(n):
        d = SparseMatrix(dims[i], dims[i + 1])
        for subset in levels[i + 1]:
            for x in sorted(set(range(n)) - set(subset)):
                bigger = tuple(sorted(subset + (x,)))
                tail = tuple(range(len(bigger), len(bigger) + k))
                f = Injection(len(subset) + k, len(bigger) + k, tuple(map(bigger.index, subset)) + tail)
                sign = (-1) ** sum(1 for y in range(x) if y not in subset)
                for b in range(module.dims[len(subset) + k]):
                    for r, v in module.apply_injection(f, [{b: 1}])[0].items():
                        d.columns[offsets[i + 1][subset] + b][offsets[i][bigger] + r] = sign * v
        differentials.append(d)
    return differentials


@pytest.mark.parametrize(
    "module",
    [
        *(representable(m, 6) for m in range(3)),
        free_module((2, 1), 6),
        rescaled(free_module((2, 1), 6), 2),
        rescaled(relabel(free_module((2, 1), 6), 2), 2),  # with "1/2" entries
    ],
    ids=[
        "representable(0)",
        "representable(1)",
        "representable(2)",
        "free((2,1))",
        "rescaled",
        "rescaled relabelled",
    ],
)
def test_full_cube_is_the_coordinate_cube(module):
    """The full cube, assembled over quotients with no tail generators, has
    the differentials of the cube assembled on plain coordinates."""
    for n in range(4):
        for k in range(module.max_degree - n + 1):
            complex_ = delta_complex(module, n, k)
            want = _coordinate_cube(module, n, k)
            assert len(complex_.differentials) == len(want) == n
            for got, d in zip(complex_.differentials, want):
                assert (got.rows, got.cols, got.columns) == (d.rows, d.cols, d.columns), (n, k)


def _tail_trace(module, n, k, solver, tau, degree):
    """Trace of the tail permutation tau on degree-i homology of the full
    stage-k cube complex: tau acts on each summand E(s + k), s = n - i,
    through its last k points."""
    s = n - degree
    d = module.dims[s + k]
    perm = tuple(range(s)) + tuple(s + t for t in tau)
    trace = 0
    for j, rep in enumerate(solver.rep_vectors[degree]):
        image = {}
        for off in range(0, solver.complex.dims[degree], d):
            block = {c - off: v for c, v in rep.items() if off <= c < off + d}
            (w,) = module.apply_permutation(s + k, perm, [block])
            image.update((off + r, x) for r, x in w.items())
        trace += solver.express(degree, image).get(j, 0)
    return trace


def test_coinvariant_cube_is_the_averaged_full_cube():
    """Over the rationals, the coinvariant homology of the stage-k cube is
    the S_k-average of the trace of the tail action on the homology of the
    full cube: dim H_i(CubeStage) = (1/k!) sum_tau tr(tau | H_i(delta))."""
    modules = [
        representable(1, 6),
        representable(2, 6),
        free_module((1, 1), 6),
        free_module((2,), 6),
        free_module((2, 1), 6),
    ]
    averaged = 0
    for module in modules:
        for n in range(3):
            for k in range(4):
                full = RationalComplexHomology(delta_complex(module, n, k))
                stage = CubeStage(module, n, k)
                expected = []
                for degree in range(n + 1):
                    total = sum(
                        _tail_trace(module, n, k, full, tau, degree)
                        for tau in itertools.permutations(range(k))
                    )
                    expected.append(total / factorial(k))
                assert list(stage.homology.dims()) == expected, (module.name, n, k)
                averaged += full.dims() != stage.homology.dims()
    assert averaged > 0


@pytest.mark.parametrize("build", [CubeStage, delta_complex], ids=["CubeStage", "delta_complex"])
def test_coinvariant_and_dense_cubes_refuse_a_stage_alike(build):
    module = representable(1, 3)
    with pytest.raises(WindowError) as exc:
        build(module, 2, 2)
    assert str(exc.value) == "stage 2 of the 2-cube needs degree 4 > window 3"
    with pytest.raises(ValueError) as exc:
        build(module, 1, -1)
    assert str(exc.value) == "cube size and stage must be non-negative"


def test_dense_cube_complex_degenerate_and_errors():
    F1 = representable(1, 4)
    c0 = delta_complex(F1, 0, 2)
    assert c0.dims == (2,)
    with pytest.raises(ValueError):
        delta_complex(F1, -1, 0)
    with pytest.raises(WindowError):
        delta_complex(F1, 2, 4)
