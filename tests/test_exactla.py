"""Exact linear algebra: elimination, Smith form, homology, poset colimits."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    cokernel,
    determinant,
    homology,
    invariant_factors,
    kernel_basis,
    poset_colimit,
    rank,
    smith_normal_form,
    solve_columns,
    sparse_rank,
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


def square_matrices(n, max_entry=5):
    return st.lists(
        st.integers(min_value=-max_entry, max_value=max_entry),
        min_size=n * n,
        max_size=n * n,
    ).map(lambda entries: Matrix(n, n, entries))


# -- dense matrices ---------------------------------------------------------


def test_matrix_basics():
    a = Matrix(2, 3, [1, 2, 3, 4, 5, 6])
    assert a.entry(1, 2) == 6
    assert a.row(0) == (Fraction(1), Fraction(2), Fraction(3))
    assert a.column(1) == (Fraction(2), Fraction(5))
    assert a.transpose().transpose() == a
    assert (a - a).is_zero()
    assert a.is_integral()
    assert not Matrix(1, 1, [Fraction(1, 2)]).is_integral()
    with pytest.raises(ShapeMismatchError):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(ShapeMismatchError):
        a @ a


def test_matmul_and_hstack():
    a = Matrix(2, 2, [1, 1, 0, 1])
    b = Matrix(2, 2, [1, 0, 1, 1])
    assert a @ b == Matrix(2, 2, [2, 1, 1, 1])
    assert a.hstack(b) == Matrix(2, 4, [1, 1, 1, 0, 0, 1, 1, 1])
    assert (Matrix.identity(2) @ a) == a
    assert a.scale(Fraction(1, 2)) == Matrix(2, 2, [Fraction(1, 2), Fraction(1, 2), 0, Fraction(1, 2)])


@given(small_matrices())
def test_rank_transpose_invariant(a):
    assert rank(a) == rank(a.transpose())
    assert rank(a) <= min(a.rows, a.cols)


@given(small_matrices())
def test_kernel_is_killed(a):
    ker = kernel_basis(SparseMatrix.from_matrix(a)).to_matrix()
    assert ker.rows == a.cols
    assert ker.cols == a.cols - rank(a)
    assert (a @ ker).is_zero()
    assert rank(ker) == ker.cols


@given(small_matrices())
def test_cokernel_projection(a):
    dim, proj = cokernel(a)
    assert dim == a.rows - rank(a)
    assert proj.rows == dim and proj.cols == a.rows
    assert (proj @ a).is_zero()
    assert rank(proj) == dim


@given(small_matrices(max_dim=3))
def test_solve_columns_recovers_images(a):
    x = Matrix(a.cols, 2, list(range(1, 2 * a.cols + 1)))
    b = a @ x
    solved = solve_columns(a, b)
    assert a @ solved == b


def test_solve_columns_inconsistent():
    a = Matrix(2, 1, [1, 1])
    b = Matrix(2, 1, [1, 2])
    with pytest.raises(ValueError):
        solve_columns(a, b)


def test_determinant_examples():
    assert determinant(Matrix(2, 2, [1, 2, 3, 4])) == -2
    assert determinant(Matrix.identity(4)) == 1
    assert determinant(Matrix(2, 2, [Fraction(1, 2), 0, 0, Fraction(1, 3)])) == Fraction(1, 6)
    assert determinant(Matrix(0, 0, [])) == 1
    with pytest.raises(ShapeMismatchError):
        determinant(Matrix(1, 2, [1, 2]))


@given(square_matrices(3), square_matrices(3))
@settings(max_examples=40)
def test_determinant_multiplicative(a, b):
    assert determinant(a @ b) == determinant(a) * determinant(b)


# -- sparse matrices and reducers -------------------------------------------


def test_sparse_roundtrip_and_apply():
    a = Matrix(3, 2, [1, 0, Fraction(1, 2), 2, 0, -1])
    s = SparseMatrix.from_matrix(a)
    assert s.to_matrix() == a
    assert s.nnz() == 4
    assert s.apply({0: Fraction(2)}) == {0: Fraction(2), 1: Fraction(1)}
    assert sparse_rank(s) == rank(a)
    s.set(0, 0, 0)
    assert s.nnz() == 3


def test_sparse_compose_matches_dense():
    a = Matrix(2, 3, [1, 2, 0, 0, 1, 1])
    b = Matrix(3, 2, [1, 0, 0, 1, 1, 1])
    sa, sb = SparseMatrix.from_matrix(a), SparseMatrix.from_matrix(b)
    assert sa.compose(sb).to_matrix() == a @ b
    assert SparseMatrix.identity(2).compose(sa).to_matrix() == a


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
    assert len(facs) == rank(a)
    for i in range(len(facs) - 1):
        assert facs[i + 1] % facs[i] == 0
    # off-diagonal vanishes
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entry(i, j) == 0
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1


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


def test_projective_plane_torsion():
    # six-vertex triangulation; H_0 = Z, H_1 = Z/2, H_2 = 0
    faces = [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5),
    ]
    edges = sorted({(s[i], s[j]) for s in faces for i in range(3) for j in range(i + 1, 3)})
    assert len(edges) == 15
    plane = _simplicial_complex(6, [edges, faces])
    res = homology(_simplicial_complex(6, [edges, faces]), integral=True)
    assert res.betti == (1, 0, 0)
    assert res.torsion == ((), (2,), ())
    rational = homology(plane)
    assert rational.betti == (1, 0, 0)


def test_moore_style_torsion():
    doubling = ChainComplex((1, 1), (SparseMatrix.from_matrix(Matrix(1, 1, [2])),))
    res = homology(doubling, integral=True)
    assert res.betti == (0, 0)
    assert res.torsion == ((2,), ())


def test_homology_representatives_and_express():
    circle = _simplicial_complex(3, [[(0, 1), (0, 2), (1, 2)]])
    solver = RationalComplexHomology(circle)
    assert solver.dims() == (1, 1)
    reps = solver.representatives(1)
    assert reps.cols == 1
    cycle = reps.column(0)
    assert solver.express(1, cycle) == [Fraction(1)]
    doubled = [2 * x for x in cycle]
    assert solver.express(1, doubled) == [Fraction(2)]
    with pytest.raises(ValueError):
        solver.express(1, (Fraction(1), Fraction(0), Fraction(0)))


# -- poset colimits -----------------------------------------------------------


def test_colimit_of_single_edge():
    # one edge scaling by 2: the two vertices are glued along v ~ 2w
    colim = poset_colimit([1, 1], [(0, 1, Matrix(1, 1, [2]))])
    assert isinstance(colim, PosetColimit)
    assert colim.dimension == 1
    psi0, psi1 = colim.structure_maps
    assert psi1 @ Matrix(1, 1, [2]) == psi0


def test_colimit_pushout_of_points():
    # two 1-dimensional vertices mapping into a common target: everything glues
    e = Matrix(1, 1, [1])
    colim = poset_colimit([1, 1, 1], [(0, 2, e), (1, 2, e)])
    assert colim.dimension == 1
    assert colim.structure_maps[0] == colim.structure_maps[1] == colim.structure_maps[2]
    assert not colim.structure_maps[2].is_zero()


def test_colimit_disjoint_union():
    colim = poset_colimit([2, 3], [])
    assert colim.dimension == 5
    with pytest.raises(ShapeMismatchError):
        poset_colimit([1, 1], [(0, 1, Matrix(2, 2, [1, 0, 0, 1]))])


def test_colimit_structure_maps_commute():
    # naturality over a 3-chain of covers with a rectangular edge
    e01 = Matrix(2, 1, [1, 1])
    e12 = Matrix(1, 2, [1, -1])
    colim = poset_colimit([1, 2, 1], [(0, 1, e01), (1, 2, e12)])
    psi0, psi1, psi2 = colim.structure_maps
    assert psi1 @ e01 == psi0
    assert psi2 @ e12 == psi1


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


def test_euler_characteristic_mismatch_raises(monkeypatch):
    circle = _simplicial_complex(3, [[(0, 1), (0, 2), (1, 2)]])
    monkeypatch.setattr(RationalComplexHomology, "dims", lambda self: (1, 0))
    with pytest.raises(CrossCheckError, match="Euler characteristic"):
        homology(circle)
