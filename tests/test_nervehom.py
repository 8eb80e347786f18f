"""Tests for order complexes of matching posets and the wedge certificates."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ficalc import exactla, nervehom
from ficalc.combinat import build_poset
from ficalc.exactla import HomologyResult, Matrix, SparseMatrix, _unit_reduction, invariant_factors
from ficalc.nervehom import (
    OrderComplex,
    TheoremViolationError,
    _augmented_chains,
    _boundary,
    certify_homology,
    chessboard_complex,
    complex_homology,
    connectivity_check,
    nerve_sizes,
    order_complex,
    wedge_certificate,
)
from ficalc.symrep import gn_dimension


def test_order_complex_of_an_antichain():
    # Singleton matchings into one point are pairwise incomparable.
    C = order_complex(build_poset(1, 3))
    assert C.vertex_count == 3
    assert len(C.simplices) == 1
    assert C.size(0) == 3 and C.size(1) == 0


def test_order_complex_two_into_three():
    C = order_complex(build_poset(2, 3))
    assert C.vertex_count == 12
    assert C.size(1) == 12
    assert C.euler_characteristic() == 0


def test_order_complex_empty_poset():
    C = order_complex(build_poset(0, 5))
    assert C.vertex_count == 0
    assert C.simplices == ()
    assert C.size(0) == 0
    assert C.euler_characteristic() == 0


def test_order_complex_three_into_seven_sizes():
    C = order_complex(build_poset(3, 7))
    assert (C.size(0), C.size(1), C.size(2)) == (357, 1512, 1260)


def test_simplices_are_sorted_index_tuples():
    C = order_complex(build_poset(2, 4))
    for batch in C.simplices:
        assert list(batch) == sorted(batch)
        for simplex in batch:
            assert list(simplex) == sorted(set(simplex))


def test_chain_length_bounded_by_matching_size():
    for n, k in [(1, 4), (2, 4), (3, 4)]:
        C = order_complex(build_poset(n, k))
        assert len(C.simplices) == min(n, k)


def test_euler_characteristic_matches_wedge_rank():
    for n, k in [(1, 3), (2, 3), (2, 4), (3, 5)]:
        C = order_complex(build_poset(n, k))
        reduced = C.euler_characteristic() - 1
        assert reduced == (-1) ** (n - 1) * gn_dimension(n, k)


def test_homology_of_discrete_fibers():
    result = complex_homology(order_complex(build_poset(1, 4)))
    assert result.betti == (3,)
    assert result.torsion == ((),)


def test_homology_examples_are_torsion_free_spheres():
    cases = {(2, 3): (0, 1), (2, 4): (0, 5), (3, 5): (0, 0, 14), (3, 6): (0, 0, 47)}
    for (n, k), betti in cases.items():
        result = complex_homology(order_complex(build_poset(n, k)))
        assert result.betti == betti, (n, k)
        assert not any(result.torsion), (n, k)


def test_homology_of_empty_complex():
    result = complex_homology(order_complex(build_poset(0, 3)))
    assert result.betti == ()
    assert result.torsion == ()


def test_wedge_certificate_values():
    assert wedge_certificate(1, 2).rank == 1
    assert wedge_certificate(1, 2).betti == (1,)
    assert wedge_certificate(2, 3).rank == 1
    cert = wedge_certificate(2, 4)
    assert cert.rank == 5
    assert "wedge of 5" in str(cert)
    assert "dimension 1" in str(cert)


def test_wedge_certificate_boundary_of_range():
    # k = 2n-1 is the first certified degree for each n
    for n in (1, 2, 3):
        cert = wedge_certificate(n, 2 * n - 1)
        assert cert.rank == gn_dimension(n, 2 * n - 1)


def test_wedge_certificate_preconditions():
    for n, k in [(0, 1), (2, 2), (3, 4)]:
        with pytest.raises(ValueError):
            wedge_certificate(n, k)


def test_certify_accepts_a_true_result():
    result = complex_homology(order_complex(build_poset(2, 4)))
    cert = certify_homology(2, 4, result)
    assert cert.rank == 5


def test_certify_rejects_torsion():
    result = HomologyResult(betti=(0, 5), torsion=((), (2,)))
    with pytest.raises(TheoremViolationError, match="torsion"):
        certify_homology(2, 4, result)


def test_certify_rejects_off_degree_rank():
    result = HomologyResult(betti=(1, 5), torsion=((), ()))
    with pytest.raises(TheoremViolationError, match="degree 0"):
        certify_homology(2, 4, result)


def test_certify_rejects_wrong_rank():
    result = HomologyResult(betti=(0, 4), torsion=((), ()))
    with pytest.raises(TheoremViolationError, match="expected 5"):
        certify_homology(2, 4, result)


def test_connectivity_examples():
    assert connectivity_check(2, 3) is True
    assert connectivity_check(3, 3) is True
    assert connectivity_check(1, 1) is True
    # disjoint points: singletons into k >= 2 points never overlap upward
    assert connectivity_check(1, 3) is False


def test_connectivity_input_validation():
    with pytest.raises(ValueError):
        connectivity_check(0, 3)
    with pytest.raises(ValueError):
        connectivity_check(2, 0)


def test_betti_numbers_symmetric_in_both_sizes():
    def padded(n, k):
        betti = complex_homology(order_complex(build_poset(n, k))).betti
        return tuple(betti) + (0,) * (4 - len(betti))

    for n in range(1, 4):
        for k in range(n + 1, 5):
            assert padded(n, k) == padded(k, n), (n, k)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(0, 4) for k in range(0, 7)] + [(4, 7)])
def test_nerve_sizes_count_the_order_complex(n, k):
    nerve = order_complex(build_poset(n, k))
    assert nerve_sizes(n, k) == tuple(len(batch) for batch in nerve.simplices)


def test_nerve_sizes_at_the_guard_corner():
    # 18,346,190 simplices: the nerve of P(5,10) is counted, never built
    assert nerve_sizes(5, 10) == (63590, 1305000, 5486400, 7862400, 3628800)


def test_chessboard_complex_faces_are_the_poset_elements():
    C = chessboard_complex(2, 3)
    assert C.vertex_count == 6
    assert C.simplices[0] == tuple(((i, j),) for i in range(2) for j in range(3))
    assert sorted(m for batch in C.simplices for m in batch) == sorted(
        build_poset(2, 3).elements
    )
    for batch in C.simplices:
        assert list(batch) == sorted(batch)
        for matching in batch:
            assert list(matching) == sorted(set(matching))


def test_chessboard_complex_lists_the_poset_elements_without_the_poset(monkeypatch):
    scales = [(n, k) for n in range(1, 5) for k in range(1, 7)] + [(0, 4)]
    expected = {}
    for n, k in scales:
        elements = build_poset(n, k).elements
        expected[n, k] = tuple(
            tuple(sorted(m for m in elements if len(m) == j)) for j in range(1, min(n, k) + 1)
        )

    def boom(n, k):
        raise RuntimeError("poset built")

    monkeypatch.setattr(nervehom, "build_poset", boom)
    for n, k in scales:
        complex = chessboard_complex(n, k)
        assert complex.vertex_count == n * k
        assert complex.simplices == expected[n, k], (n, k)


def test_chessboard_complex_sizes():
    assert tuple(map(len, chessboard_complex(3, 7).simplices)) == (21, 126, 210)
    assert tuple(map(len, chessboard_complex(4, 7).simplices)) == (28, 252, 840, 840)
    assert chessboard_complex(0, 4).simplices == ()


def test_chessboard_homology_equals_nerve_homology():
    # The nerve is the barycentric subdivision of M_{n,k}; it stays the
    # independent oracle, in and below the wedge range.
    for n in range(1, 4):
        for k in range(n, 7):
            chessboard = complex_homology(chessboard_complex(n, k))
            nerve = complex_homology(order_complex(build_poset(n, k)))
            assert chessboard.betti == nerve.betti, (n, k)
            assert chessboard.torsion == nerve.torsion, (n, k)


def test_chessboard_torsion_below_the_range():
    # M_{5,5} lies below k >= 2n-1 and carries 3-torsion (Shareshian-Wachs).
    result = complex_homology(chessboard_complex(5, 5))
    assert result.betti == (0, 0, 0, 56, 0)
    assert result.torsion == ((), (), (3,), (), ())
    with pytest.raises(ValueError):
        wedge_certificate(5, 5)


def test_integral_homology_builds_no_dense_matrix(monkeypatch):
    # the leftover of M_{5,5} keeps a boundary, which reaches Smith normal
    # form as the sparse matrix it is
    expected = plain_reduced_homology(chessboard_complex(4, 5))

    def dense(*args):
        raise RuntimeError("dense matrix built")

    monkeypatch.setattr(SparseMatrix, "to_matrix", dense)
    monkeypatch.setattr(Matrix, "__init__", dense)
    result = complex_homology(chessboard_complex(5, 5))
    assert result.betti == (0, 0, 0, 56, 0)
    assert result.torsion == ((), (), (3,), (), ())
    assert complex_homology(chessboard_complex(4, 5)) == expected


def test_wedge_certificate_reaches_four_into_seven():
    cert = wedge_certificate(4, 7)
    assert cert.rank == gn_dimension(4, 7) == 225
    assert cert.betti == (0, 0, 0, 225)


def test_chessboard_five_into_six_has_no_torsion():
    # below the range k >= 2n-1: besides the 152 spheres of degree 3 there
    # is one class in degree 4, and no torsion
    result = complex_homology(chessboard_complex(5, 6))
    assert result.betti == (0, 0, 0, 152, 1)
    assert not any(result.torsion)


def test_chessboard_connectivity_bound_is_sharp():
    # reduced homology of M_{n,k} vanishes below nu = min(n, (n+k+1)//3) - 1
    # (Bjorner-Lovasz-Vrecica-Zivaljevic, J. London Math. Soc. 49, 1994) and
    # not in degree nu (Shareshian-Wachs, Adv. Math. 212, 2007)
    for n in range(1, 6):
        for k in range(max(n, 2), 9):
            result = complex_homology(chessboard_complex(n, k))
            nu = min(n, (n + k + 1) // 3) - 1
            assert not any(result.betti[:nu]) and not any(result.torsion[:nu]), (n, k)
            assert result.betti[nu] or result.torsion[nu], (n, k)


def test_chessboard_three_torsion_at_six():
    # the bottom nonvanishing degree of M_{6,6} and M_{6,7} carries Z/3
    six = complex_homology(chessboard_complex(6, 6))
    assert six.betti == (0, 0, 0, 25, 210, 0)
    assert six.torsion == ((), (), (), (3,) * 10, (), ())
    seven = complex_homology(chessboard_complex(6, 7))
    assert seven.betti == (0, 0, 0, 0, 1092, 1)
    assert seven.torsion == ((), (), (), (3,), (), ())


def test_smith_normal_form_sees_only_small_leftovers(monkeypatch):
    # each differential drops the rows the one below used as pivot columns
    # before its own elimination; without that, M_{5,5} would leave 8 x 56
    shapes = []

    class Recording(exactla._SnfWorker):
        def __init__(self, a, accumulate):
            shapes.append((a.rows, a.cols))
            super().__init__(a, accumulate)

    monkeypatch.setattr(exactla, "_SnfWorker", Recording)
    complex_homology(chessboard_complex(5, 5))
    assert shapes == [(0, 0), (0, 0), (0, 0), (1, 24), (0, 0)]
    shapes.clear()
    complex_homology(chessboard_complex(6, 6))
    assert shapes == [(0, 0), (0, 0), (0, 0), (0, 0), (30, 327), (0, 0)]


def test_four_into_seven_reduces_to_its_spheres():
    # every differential of the augmented M_{4,7} is eliminated by unit
    # pivots alone: no leftover reaches Smith normal form, and the 225
    # spheres of degree 3 are what the pivots leave of the 840 cells there
    chains = _augmented_chains(chessboard_complex(4, 7))
    pivots = ()
    for d in chains.differentials:
        pivots, leftover = _unit_reduction(d, set(pivots))
        assert (leftover.rows, leftover.cols) == (0, 0)
    assert complex_homology(chessboard_complex(4, 7)).betti == (0, 0, 0, 225)


def plain_reduced_homology(complex):
    """Reduced integral homology from the Smith normal form of every full,
    unreduced boundary, without the unit-pivot reduction."""
    dims = [len(batch) for batch in complex.simplices]
    factors = [invariant_factors(_boundary(complex, d).to_matrix()) for d in range(1, len(dims))]
    ranks = [0, *map(len, factors), 0]
    betti = [dim - ranks[i] - ranks[i + 1] for i, dim in enumerate(dims)]
    betti[0] -= 1
    torsion = [tuple(f for f in facs if f > 1) for facs in factors] + [()]
    return HomologyResult(tuple(betti), tuple(torsion))


def reduction_mismatches(n_max, k_max, nerve_max):
    """The complexes on which ``complex_homology`` differs from plain Smith
    normal form: M_{n,k} for 1 <= n <= n_max, 1 <= k <= k_max, and the nerves
    of P(n,k) for 1 <= n, k <= nerve_max."""
    cases = [
        (f"M_{{{n},{k}}}", chessboard_complex(n, k))
        for n in range(1, n_max + 1)
        for k in range(1, k_max + 1)
    ]
    cases += [
        (f"nerve of P({n},{k})", order_complex(build_poset(n, k)))
        for n in range(1, nerve_max + 1)
        for k in range(1, nerve_max + 1)
    ]
    return [
        name
        for name, complex in cases
        if complex_homology(complex) != plain_reduced_homology(complex)
    ]


def test_coreduced_homology_matches_plain_smith_normal_form():
    assert reduction_mismatches(3, 6, 3) == []


def augmented_snf_homology(complex):
    """Reduced integral homology from the Smith normal form of every full,
    unreduced differential of the augmented complex, degree -1 dropped."""
    chains = _augmented_chains(complex)
    factors = [invariant_factors(d.to_matrix()) for d in chains.differentials]
    ranks = [0, *map(len, factors), 0]
    betti = [dim - ranks[i] - ranks[i + 1] for i, dim in enumerate(chains.dims)]
    torsion = [tuple(f for f in facs if f > 1) for facs in factors] + [()]
    return HomologyResult(tuple(betti[1:]), tuple(torsion[1:]))


@st.composite
def facet_closures(draw):
    """Closures under faces of one to six random facets on at most seven vertices."""
    vertices = draw(st.integers(1, 7))
    facets = draw(
        st.lists(st.frozensets(st.integers(0, vertices - 1), min_size=1), min_size=1, max_size=6)
    )
    faces = {
        face
        for facet in facets
        for size in range(1, len(facet) + 1)
        for face in combinations(sorted(facet), size)
    }
    top = max(map(len, faces))
    batches = tuple(tuple(sorted(f for f in faces if len(f) == d)) for d in range(1, top + 1))
    return OrderComplex(len(batches[0]), batches)


@given(facet_closures())
@settings(max_examples=80, deadline=None)
def test_complex_homology_matches_smith_normal_form_of_the_augmented_complex(complex):
    assert complex_homology(complex) == augmented_snf_homology(complex)
