"""Tests for degreewise truncations, layers, and polynomiality checks."""

from math import comb

import pytest

from ficalc.exactla import SparseMatrix, rank
from ficalc.fimod import (
    FIModule,
    WindowError,
    cohomogeneous_layer,
    free_module,
    is_polynomial,
    pn_representable,
    q_truncation,
    representable,
    zero_module,
)
from ficalc.symrep import gn_dimension


def test_truncation_below_generation_bound_is_proper():
    # Level-1 subsets cannot generate a module generated in rank 2.
    F2 = representable(2, 6)
    result = q_truncation(F2, 1, 4)
    assert result.dimension == 0
    assert not result.is_isomorphism


def test_truncation_at_generation_bound_is_iso_in_low_degrees():
    F2 = representable(2, 6)
    for k in (0, 1, 2):
        assert q_truncation(F2, 2, k).is_isomorphism


def test_truncation_dimension_and_comparison_rank():
    F2 = representable(2, 6)
    result = q_truncation(F2, 2, 4)
    assert result.dimension == 12
    assert result.is_isomorphism
    assert rank(result.comparison) == 12
    assert result.comparison.rows == F2.dims[4]


def test_truncation_exhausts_at_generation_bound():
    modules = [
        representable(1, 6),
        representable(2, 6),
        free_module((1, 1), 6),
    ]
    for module in modules:
        n = module.generation_bound
        for k in range(module.max_degree + 1):
            assert q_truncation(module, n, k).is_isomorphism


def test_truncation_rejects_non_functorial_module():
    # the sign module of test_validate_rejects_sign_module: E(incl) into
    # degree 2 does not factor through the level-1 colimit
    k_max = 5
    transpositions = [
        [SparseMatrix(1, 1, [{0: -1}]) for _ in range(max(k - 1, 0))] for k in range(k_max + 1)
    ]
    inclusions = [SparseMatrix(1, 1, [{0: 1}]) for _ in range(k_max)]
    sign = FIModule("sign", k_max, 0, [1] * (k_max + 1), transpositions, inclusions)
    with pytest.raises(ValueError, match="do not factor"):
        q_truncation(sign, 1, 2)


def test_truncation_degree_out_of_window():
    F2 = representable(2, 5)
    with pytest.raises(WindowError):
        q_truncation(F2, 2, 6)


def test_layer_dimensions_of_rank_two_representable():
    F2 = representable(2, 6)
    # Everything new appears in the level-2 step, nothing in level 3.
    assert cohomogeneous_layer(F2, 2, 4) == (12, 0)
    assert cohomogeneous_layer(F2, 3, 4) == (0, 0)


def test_layer_of_zero_module_vanishes():
    assert cohomogeneous_layer(zero_module(4), 1, 3) == (0, 0)


def test_layer_rejects_bad_arguments():
    F1 = representable(1, 4)
    with pytest.raises(ValueError):
        cohomogeneous_layer(F1, 0, 2)
    with pytest.raises(WindowError):
        cohomogeneous_layer(F1, 1, 5)


def test_layer_sums_recover_truncation_dimension():
    """Stacking layer cokernels on top of the level-0 colimit gives the
    truncation dimension, since each comparison kernel here vanishes."""
    F2 = representable(2, 6)
    k = 4
    base = q_truncation(F2, 0, k).dimension
    total = base
    for n in (1, 2, 3):
        coker, ker = cohomogeneous_layer(F2, n, k)
        assert ker == 0
        total += coker
        assert q_truncation(F2, n, k).dimension == total


def test_polynomiality_positive_cases():
    assert is_polynomial(representable(1, 6), 1)
    assert is_polynomial(representable(2, 6), 2)
    assert is_polynomial(free_module((2,), 6), 2)


def test_polynomiality_is_upward_closed():
    # A 2-polynomial module passes the 3-cube test as well.
    F2 = representable(2, 6)
    assert is_polynomial(F2, 3).is_polynomial


def test_polynomiality_negative_case_reports_failures():
    F1 = representable(1, 6)
    cert = is_polynomial(F1, 0)
    assert not cert
    assert cert.failures
    for base_size, betti in cert.failures:
        assert any(betti)
    assert cert.failures == tuple((b, (1, 0)) for b in range(6))
    pinned = [
        (representable(2, 6), 1, (2, 0, 0), 5),
        (free_module((2, 1), 6), 2, (2, 0, 0, 0), 4),
        (representable(3, 7), 2, (6, 0, 0, 0), 5),
    ]
    for module, n, betti, stages in pinned:
        cert = is_polynomial(module, n)
        assert not cert.is_polynomial
        assert cert.failures == tuple((b, betti) for b in range(stages)), module.name
    with pytest.raises(ValueError):
        is_polynomial(F1, -1)


def test_polynomiality_window_too_small():
    F1 = representable(1, 2)
    with pytest.raises(WindowError):
        is_polynomial(F1, 4)


def test_limit_approximation_level_zero_is_a_point():
    for k in (0, 3, 5):
        assert pn_representable(1, 0, k) == 1
        assert pn_representable(3, 0, k) == 1


def test_limit_approximation_full_level_recovers_injections():
    for k in range(2, 7):
        assert pn_representable(2, 2, k) == k * (k - 1)


def test_limit_approximation_intermediate_level():
    # Level 1 of the rank-2 module at degree 4: pairs of injections from a
    # point agreeing over the empty set, 1 + 2*(4-1) = 7.
    assert pn_representable(2, 1, 4) == 7


def test_limit_approximation_fiber_growth():
    """Consecutive approximation levels differ by one stable fiber dimension
    for each size-n subset of the rank set."""
    for m in (1, 2, 3):
        for n in range(1, m + 1):
            for k in (2 * n, 2 * n + 1):
                step = pn_representable(m, n, k) - pn_representable(m, n - 1, k)
                assert step == comb(m, n) * gn_dimension(n, k)


def test_limit_approximation_rejects_negative_arguments():
    with pytest.raises(ValueError):
        pn_representable(-1, 0, 2)
    with pytest.raises(ValueError):
        pn_representable(2, -1, 2)
    with pytest.raises(ValueError):
        pn_representable(2, 0, -2)
