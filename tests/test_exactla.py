"""Exact linear algebra: elimination, Smith form, homology, poset colimits."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ficalc import exactla
from ficalc.exactla import (
    ChainComplex,
    ComplexInvalidError,
    CrossCheckError,
    Matrix,
    PosetColimit,
    RationalComplexHomology,
    ShapeMismatchError,
    SparseMatrix,
    VectorReducer,
    _SnfWorker,
    _unit_reduction,
    cokernel,
    homology,
    invariant_factors,
    kernel_basis,
    poset_colimit,
    rank,
    smith_normal_form,
    vec_add,
)


def small_matrices(max_dim=4, max_entry=6):
    dims = st.integers(min_value=0, max_value=max_dim)
    return dims.flatmap(
        lambda r: dims.flatmap(
            lambda c: st.lists(
                st.integers(min_value=-max_entry, max_value=max_entry),
                min_size=r * c,
                max_size=r * c,
            ).map(lambda entries: Matrix(r, c, entries))
        )
    )


def _is_zero(m: SparseMatrix) -> bool:
    return not any(m.columns)


# -- dense matrices ---------------------------------------------------------


def test_matrix_basics():
    a = Matrix(2, 3, [1, 2, 3, 4, 5, 6])
    assert a.entry(1, 2) == 6
    assert a.row(0) == (Fraction(1), Fraction(2), Fraction(3))
    with pytest.raises(ShapeMismatchError):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(ShapeMismatchError):
        a @ a


def test_matmul_and_hstack():
    a = Matrix(2, 2, [1, 1, 0, 1])
    b = Matrix(2, 2, [1, 0, 1, 1])
    assert a @ b == Matrix(2, 2, [2, 1, 1, 1])
    assert (Matrix.identity(2) @ a) == a


@given(small_matrices())
def test_rank_transpose_invariant(a):
    s = SparseMatrix.from_matrix(a)
    transposed = SparseMatrix(a.cols, a.rows, [{j: x for j, x in enumerate(r) if x} for r in a.data])
    assert rank(s) == rank(transposed)
    assert rank(s) <= min(a.rows, a.cols)


@given(small_matrices())
def test_kernel_is_killed(a):
    s = SparseMatrix.from_matrix(a)
    ker = kernel_basis(s)
    assert ker.rows == a.cols
    assert ker.cols == a.cols - rank(s)
    assert _is_zero(s.compose(ker))
    assert rank(ker) == ker.cols


@given(small_matrices())
def test_cokernel_projection(a):
    s = SparseMatrix.from_matrix(a)
    dim, proj = cokernel(s)
    assert dim == a.rows - rank(s)
    assert proj.rows == dim and proj.cols == a.rows
    assert _is_zero(proj.compose(s))
    assert rank(proj) == dim


# -- sparse matrices and reducers -------------------------------------------


def test_sparse_roundtrip_and_apply():
    a = Matrix(3, 2, [1, 0, Fraction(1, 2), 2, 0, -1])
    s = SparseMatrix.from_matrix(a)
    assert s.to_matrix() == a
    assert s.nnz() == 4
    assert s.apply({0: Fraction(2)}) == {0: Fraction(2), 1: Fraction(1)}
    assert rank(s) == 2
    s.set(0, 0, 0)
    assert s.nnz() == 3
    s.set(2, 1, 3)
    assert type(s.columns[1][2]) is int
    with pytest.raises(TypeError):
        s.set(0, 0, 0.5)


def test_sparse_matrix_drops_explicit_zeros():
    s = SparseMatrix(1, 1, [{0: 0}])
    assert s.columns == [{}]
    assert s.apply({0: 1}) == {}
    for integral in (False, True):
        with_zero = homology(ChainComplex((1, 1), (s,)), integral=integral)
        zero = homology(ChainComplex((1, 1), (SparseMatrix(1, 1),)), integral=integral)
        assert with_zero == zero


def test_sparse_compose_matches_dense():
    a = Matrix(2, 3, [1, 2, 0, 0, 1, 1])
    b = Matrix(3, 2, [1, 0, 0, 1, 1, 1])
    sa, sb = SparseMatrix.from_matrix(a), SparseMatrix.from_matrix(b)
    assert sa.compose(sb).to_matrix() == a @ b
    assert SparseMatrix.identity(2).compose(sa).to_matrix() == a


_ENTRIES = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])


@st.composite
def matrices_and_vector_lists(draw):
    """A sparse rows x cols matrix with int and Fraction entries, and a list
    of vectors on its columns: empty ones, unit ones, single entries with
    other coefficients and several entries."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    columns = [draw(st.dictionaries(st.integers(0, rows - 1), _ENTRIES)) for _ in range(cols)]
    vecs = draw(st.lists(st.dictionaries(st.integers(0, cols - 1), _ENTRIES), max_size=8))
    return SparseMatrix(rows, cols, columns), vecs


@given(matrices_and_vector_lists())
@settings(max_examples=150)
def test_apply_columns_is_apply_on_each_vector(drawn):
    m, vecs = drawn
    before = [dict(c) for c in m.columns]
    images = m.apply_columns(vecs)
    assert images == [m.apply(v) for v in vecs]
    for vec, image in zip(vecs, images):
        # a unit vector's image is the column itself, any other a new dict
        if len(vec) == 1 and next(iter(vec.values())) == 1:
            assert image is m.columns[next(iter(vec))]
        else:
            assert all(image is not c for c in m.columns)
    assert m.columns == before


def test_vec_add():
    assert vec_add({0: 1, 1: 2}, {1: -2, 2: 3}) == {0: 1, 2: 3}
    assert vec_add({}, {0: Fraction(1, 3)}, c=3) == {0: 1}


def test_vector_reducer():
    red = VectorReducer()
    assert red.insert({0: Fraction(1), 1: Fraction(1)}) is not None
    assert red.insert({1: Fraction(1)}) is not None
    assert red.insert({0: Fraction(2), 1: Fraction(5)}) is None
    assert red.rank == 2
    assert red.contains({0: Fraction(1)})
    assert not red.contains({2: Fraction(1)})
    assert red.reduce({0: Fraction(1), 2: Fraction(1)}) == {2: Fraction(1)}


def test_unit_pivots_keep_rows_int():
    # the vertex-edge incidence matrix of K_5 is totally unimodular, so every
    # pivot met is 1 or -1 and no row needs a division
    edges = list(itertools.combinations(range(5), 2))
    red = VectorReducer()
    for a, b in edges:
        red.insert({a: -1, b: 1})
    for b in range(5):
        red.insert({b: -1})
    assert red.rank == 5
    for _, row in red.rows():
        assert all(type(x) is int for x in row.values())
    incidence = SparseMatrix(5, len(edges), [{a: -1, b: 1} for a, b in edges])
    for m in (kernel_basis(incidence), cokernel(incidence)[1]):
        assert all(type(x) is int for col in m.columns for x in col.values())
    # a pivot entry other than 1 and -1 still divides through Fraction
    red = VectorReducer()
    red.insert({0: 2, 1: 1})
    assert dict(red.rows()) == {0: {0: 1, 1: Fraction(1, 2)}}


def test_frozen_reducer_reduces_but_refuses_inserts():
    red = VectorReducer()
    red.insert({0: 1, 1: 1})
    red.freeze()
    assert red.reduce({0: 1, 2: 1}) == {1: -1, 2: 1}
    with pytest.raises(RuntimeError):
        red.insert({2: 1})


def _fraction_rref(vectors, width):
    """Reduced row echelon form of the span, by plain Gauss-Jordan elimination
    over Fraction, as {pivot: row} with rows as sparse dicts."""
    rows = [[Fraction(v.get(i, 0)) for i in range(width)] for v in vectors]
    rank = 0
    for col in range(width):
        at = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if at is None:
            continue
        rows[rank], rows[at] = rows[at], rows[rank]
        pivot = rows[rank] = [x / rows[rank][col] for x in rows[rank]]
        for r, row in enumerate(rows):
            if r != rank and row[col]:
                rows[r] = [x - row[col] * y for x, y in zip(row, pivot)]
        rank += 1
    sparse = ({i: x for i, x in enumerate(row) if x} for row in rows[:rank])
    return {min(row): row for row in sparse}


@given(
    st.lists(
        st.dictionaries(st.integers(0, 5), st.integers(-3, 3).filter(bool), max_size=4),
        max_size=7,
    )
)
@settings(max_examples=150)
def test_reducer_rows_equal_fraction_rref(vectors):
    red = VectorReducer()
    for v in vectors:
        if v:
            red.insert(v)
    assert dict(red.rows()) == _fraction_rref(vectors, 6)


# -- Smith normal form -------------------------------------------------------


def test_snf_example():
    a = Matrix(2, 2, [2, 4, 6, 8])
    assert invariant_factors(a) == [2, 4]
    u, d, v = smith_normal_form(a)
    assert (u @ a) @ v == d
    assert d == Matrix(2, 2, [2, 0, 0, 4])


@given(small_matrices(max_dim=4, max_entry=9))
@settings(max_examples=60)
def test_snf_properties(a):
    u, d, v = smith_normal_form(a)
    assert (u @ a) @ v == d
    diag = [d.entry(i, i) for i in range(min(a.rows, a.cols))]
    facs = [x for x in diag if x]
    assert facs == [Fraction(f) for f in invariant_factors(a)]
    assert len(facs) == rank(SparseMatrix.from_matrix(a))
    for i in range(len(facs) - 1):
        assert facs[i + 1] % facs[i] == 0
    # off-diagonal vanishes
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entry(i, j) == 0
    assert invariant_factors(u) == [1] * u.rows
    assert invariant_factors(v) == [1] * v.rows


def test_snf_rejects_non_integral():
    with pytest.raises(ValueError):
        invariant_factors(Matrix(1, 1, [Fraction(1, 2)]))


# -- chain complexes and homology --------------------------------------------


def _simplicial_complex(vertices, simplices_by_dim):
    """Chain complex of an abstract simplicial complex (index-ordered)."""
    batches = [[(v,) for v in range(vertices)]] + [
        sorted(batch) for batch in simplices_by_dim
    ]
    dims = tuple(len(b) for b in batches)
    diffs = []
    for d in range(1, len(batches)):
        index = {f: i for i, f in enumerate(batches[d - 1])}
        entries = [0] * (dims[d - 1] * dims[d])
        for j, s in enumerate(batches[d]):
            for i in range(d + 1):
                face = s[:i] + s[i + 1 :]
                entries[index[face] * dims[d] + j] = (-1) ** i
        diffs.append(SparseMatrix.from_matrix(Matrix(dims[d - 1], dims[d], entries)))
    return ChainComplex(dims, tuple(diffs))


def test_complex_validation():
    good = _simplicial_complex(3, [[(0, 1), (0, 2), (1, 2)]])
    good.validate()
    one = SparseMatrix.from_matrix(Matrix(1, 1, [1]))
    bad = ChainComplex((1, 1, 1), (one, one))
    with pytest.raises(ComplexInvalidError):
        bad.validate()
    with pytest.raises(ShapeMismatchError):
        ChainComplex((2, 2), (Matrix(1, 1, [0]),))


def test_circle_homology():
    circle = _simplicial_complex(3, [[(0, 1), (0, 2), (1, 2)]])
    res = homology(circle)
    assert res.betti == (1, 1)
    res = homology(circle, integral=True)
    assert res.betti == (1, 1)
    assert res.torsion == ((), ())


def test_sphere_homology():
    # boundary of the tetrahedron on vertices 0..3
    import itertools

    sphere = _simplicial_complex(
        4,
        [
            list(itertools.combinations(range(4), 2)),
            list(itertools.combinations(range(4), 3)),
        ],
    )
    res = homology(sphere, integral=True)
    assert res.betti == (1, 0, 1)
    assert res.torsion == ((), (), ())


def _projective_plane():
    """The six-vertex triangulation of RP^2: H_0 = Z, H_1 = Z/2, H_2 = 0."""
    faces = [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5),
    ]
    edges = sorted({(s[i], s[j]) for s in faces for i in range(3) for j in range(i + 1, 3)})
    assert len(edges) == 15
    return _simplicial_complex(6, [edges, faces])


def _augment(c):
    """Prepend the augmentation: one degree -1 cell that every vertex maps to."""
    augmentation = SparseMatrix(1, c.dims[0], [{0: 1}] * c.dims[0])
    return ChainComplex((1,) + c.dims, (augmentation,) + c.differentials)


def plain_snf_homology(c):
    """(Betti numbers, torsion) from the Smith normal form of every full
    differential, without the unit-pivot reduction."""
    factors = [invariant_factors(d.to_matrix()) for d in c.differentials]
    ranks = [0, *map(len, factors), 0]
    betti = tuple(dim - ranks[i] - ranks[i + 1] for i, dim in enumerate(c.dims))
    torsion = tuple(tuple(f for f in facs if f > 1) for facs in factors)
    return betti, torsion + ((),) * (len(c.dims) - len(torsion))


def test_projective_plane_torsion():
    plane = _projective_plane()
    res = homology(plane, integral=True)
    assert res.betti == (1, 0, 0)
    assert res.torsion == ((), (2,), ())
    rational = homology(plane)
    assert rational.betti == (1, 0, 0)


def test_moore_style_torsion():
    doubling = ChainComplex((1, 1), (SparseMatrix.from_matrix(Matrix(1, 1, [2])),))
    res = homology(doubling, integral=True)
    assert res.betti == (0, 0)
    assert res.torsion == ((2,), ())


def test_unit_reduction_never_pivots_on_a_non_unit_entry():
    doubling = SparseMatrix(1, 1, [{0: 2}])
    pivots, leftover = _unit_reduction(doubling, set())
    assert pivots == []
    assert (leftover.rows, leftover.cols, leftover.columns) == (1, 1, [{0: 2}])


def test_unit_reduction_of_the_augmented_circle_leaves_one_cycle():
    # the augmentation pivots on vertex 0; with that row dropped, edges 01
    # and 02 pivot on vertices 1 and 2, and edge 12 is left as the cycle
    circle = _augment(_simplicial_complex(3, [[(0, 1), (0, 2), (1, 2)]]))
    augmentation, edges = circle.differentials
    pivots, leftover = _unit_reduction(augmentation, set())
    assert pivots == [0]
    assert (leftover.rows, leftover.cols) == (0, 0)
    pivots, leftover = _unit_reduction(edges, set(pivots))
    assert len(pivots) == 2
    assert (leftover.rows, leftover.cols) == (0, 0)
    assert homology(circle, integral=True).betti == (0, 0, 1)


def test_integral_homology_rejects_a_complex_that_breaks_d_squared():
    # d.d != 0: the 2-cell's boundary, edge 0 plus edge 1, maps to
    # vertex 0 plus twice vertex 1
    c = ChainComplex(
        (2, 2, 1),
        (SparseMatrix(2, 2, [{0: 1}, {1: 2}]), SparseMatrix(2, 1, [{0: 1, 1: 1}])),
    )
    with pytest.raises(ComplexInvalidError):
        homology(c, integral=True)


@st.composite
def sparse_integer_matrices(draw):
    """Up to 12 x 12, entries -3..3, mostly zero."""
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(0, 12))
    entries = st.sampled_from([0] * 8 + list(range(-3, 4)))
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)], cols


@given(sparse_integer_matrices())
@settings(max_examples=150, deadline=None)
def test_unit_pivots_and_leftover_factors_are_the_invariant_factors(drawn):
    rows, cols = drawn
    a = Matrix.from_rows(rows, cols)
    pivots, leftover = _unit_reduction(SparseMatrix.from_matrix(a), set())
    units = [1] * len(pivots)
    assert units + _SnfWorker(leftover, accumulate=False).run() == invariant_factors(a)


def test_integral_homology_rejects_fractional_entries():
    half = ChainComplex((1, 1), (SparseMatrix(1, 1, [{0: Fraction(1, 2)}]),))
    with pytest.raises(ValueError, match="integer"):
        homology(half, integral=True)


def test_homology_representatives_and_express():
    circle = _simplicial_complex(3, [[(0, 1), (0, 2), (1, 2)]])
    solver = RationalComplexHomology(circle)
    assert solver.dims() == (1, 1)
    reps = solver.representatives(1)
    assert reps.cols == 1
    (cycle,) = reps.columns
    assert solver.express(1, cycle) == {0: 1}
    doubled = {i: 2 * x for i, x in cycle.items()}
    assert solver.express(1, doubled) == {0: 2}
    with pytest.raises(ValueError):
        solver.express(1, {0: Fraction(1)})


def test_express_rejects_out_of_range_coordinates():
    # two vertices joined by two edges: H_1 is spanned by edge 1 minus edge 0
    circle = ChainComplex((2, 2), (SparseMatrix(2, 2, [{0: -1, 1: 1}, {0: -1, 1: 1}]),))
    solver = RationalComplexHomology(circle)
    assert solver.express(1, {0: -1, 1: 1}) == {0: 1}
    with pytest.raises(ShapeMismatchError):
        solver.express(1, {0: -1, 1: 1, 2: 1})
    with pytest.raises(ShapeMismatchError):
        solver.express(1, {2: 5})
    with pytest.raises(ShapeMismatchError):
        solver.express(1, {-1: 5})


# -- poset colimits -----------------------------------------------------------


def test_colimit_of_single_edge():
    # one edge scaling by 2: the two vertices are glued along v ~ 2w
    edge = SparseMatrix(1, 1, [{0: 2}])
    colim = poset_colimit([1, 1], [(0, 1, edge)])
    assert isinstance(colim, PosetColimit)
    assert colim.dimension == 1
    psi0, psi1 = colim.structure_maps
    assert psi1.compose(edge).to_matrix() == psi0.to_matrix()


def test_colimit_pushout_of_points():
    # two 1-dimensional vertices mapping into a common target: everything glues
    e = SparseMatrix.identity(1)
    colim = poset_colimit([1, 1, 1], [(0, 2, e), (1, 2, e)])
    assert colim.dimension == 1
    psi0, psi1, psi2 = (m.columns for m in colim.structure_maps)
    assert psi0 == psi1 == psi2
    assert any(psi2)


def test_colimit_disjoint_union():
    colim = poset_colimit([2, 3], [])
    assert colim.dimension == 5
    with pytest.raises(ShapeMismatchError):
        poset_colimit([1, 1], [(0, 1, SparseMatrix.identity(2))])


def test_colimit_structure_maps_commute():
    # naturality over a 3-chain of covers with a rectangular edge
    e01 = SparseMatrix(2, 1, [{0: 1, 1: 1}])
    e12 = SparseMatrix(1, 2, [{0: 1}, {0: -1}])
    colim = poset_colimit([1, 2, 1], [(0, 1, e01), (1, 2, e12)])
    psi0, psi1, psi2 = colim.structure_maps
    assert psi1.compose(e01).to_matrix() == psi0.to_matrix()
    assert psi2.compose(e12).to_matrix() == psi1.to_matrix()


@st.composite
def simplicial_complexes(draw):
    """Downward closures of a few random simplices on two to six vertices."""
    vertices = draw(st.integers(min_value=2, max_value=6))
    tops = draw(
        st.lists(
            st.lists(st.integers(0, vertices - 1), min_size=2, max_size=4, unique=True),
            max_size=8,
        )
    )
    closed = set()
    for top in tops:
        top = tuple(sorted(top))
        for size in range(2, len(top) + 1):
            closed.update(itertools.combinations(top, size))
    dim = max((len(s) for s in closed), default=1)
    return _simplicial_complex(
        vertices, [[s for s in closed if len(s) == d + 1] for d in range(1, dim)]
    )


@given(simplicial_complexes())
@settings(max_examples=60, deadline=None)
def test_rational_betti_numbers_match_integral(c):
    assert homology(c).betti == homology(c, integral=True).betti


@given(simplicial_complexes(), st.booleans())
@example(_projective_plane(), False)
@example(_projective_plane(), True)
@settings(max_examples=60, deadline=None)
def test_coreduced_homology_matches_plain_smith_normal_form(c, augmented):
    if augmented:
        c = _augment(c)
    result = homology(c, integral=True)
    assert (result.betti, result.torsion) == plain_snf_homology(c)


def test_betti_check_catches_an_over_counted_pivot(monkeypatch):
    # the augmented circle has no homology below degree 1, so one pivot too
    # many in any differential drives a Betti number below zero
    circle = _augment(_simplicial_complex(3, [[(0, 1), (0, 2), (1, 2)]]))
    reduce = exactla._unit_reduction

    def over_count(d, done):
        pivots, leftover = reduce(d, done)
        return pivots + [d.cols], leftover

    monkeypatch.setattr(exactla, "_unit_reduction", over_count)
    with pytest.raises(CrossCheckError, match="negative Betti"):
        homology(circle, integral=True)
