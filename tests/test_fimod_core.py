"""The windowed module type: constructors, evaluation, validation."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ficalc.combinat import Injection, compose, enumerate_injections, identity_injection
from ficalc.exactla import Matrix, SparseMatrix
from ficalc.fimod import (
    FIModule,
    WindowError,
    coefficient_profile,
    dumps_module,
    evaluate,
    free_module,
    representable,
    stage_character,
    validate,
    zero_module,
)
from ficalc.symrep import specht_dimension
from test_module_io import rescaled


@pytest.fixture(scope="module")
def f2():
    return representable(2, 5)


def test_representable_dims():
    module = representable(2, 6)
    assert module.dims == (0, 0, 2, 6, 12, 20, 30)
    assert module.generation_bound == 2
    assert representable(0, 3).dims == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        representable(-1, 3)
    with pytest.raises(ValueError):
        representable(2, -1)


def test_free_module_dims():
    # dim at degree k is C(k, |lam|) * f^lam
    for lam in [(), (1,), (2,), (1, 1), (2, 1)]:
        module = free_module(lam, 6)
        size, f_lam = sum(lam), specht_dimension(lam)
        for k in range(7):
            assert module.dim(k) == math.comb(k, size) * f_lam
    assert free_module((1, 1), 6).dims == (0, 0, 1, 3, 6, 10, 15)
    assert free_module((), 3).dims == (1, 1, 1, 1)


def test_zero_module():
    module = zero_module(4)
    assert module.dims == (0, 0, 0, 0, 0)
    assert validate(module).valid


def test_window_checks(f2):
    assert f2.dim(5) == 20
    with pytest.raises(WindowError):
        f2.dim(6)
    with pytest.raises(WindowError):
        f2.inclusion(5)
    assert f2.inclusion(2).rows == 6
    with pytest.raises(ValueError):
        f2.generator(3, 0)
    with pytest.raises(ValueError):
        f2.generator(3, 3)


def test_constructor_shape_validation():
    with pytest.raises(ValueError):
        FIModule("bad", 1, 0, (1,), ((), ()), (SparseMatrix(1, 1),))
    with pytest.raises(ValueError):
        FIModule("bad", 1, 0, (1, 1), ((), ()), ())
    with pytest.raises(ValueError):
        FIModule("bad", 1, 2, (1, 1), ((), ()), (SparseMatrix(1, 1),))
    with pytest.raises(ValueError):
        FIModule("bad", 1, 0, (1, 2), ((), ()), (SparseMatrix(1, 1),))


def test_representable_action_is_postcomposition(f2):
    basis = enumerate_injections(2, 3)
    perm = (1, 2, 0)
    sigma = Injection(3, 3, perm)
    for idx, f in enumerate(basis):
        (image,) = f2.apply_permutation(3, perm, [{idx: Fraction(1)}])
        assert image == {basis.index(compose(sigma, f)): Fraction(1)}


def test_representable_inclusion_is_identity_on_values(f2):
    basis3 = enumerate_injections(2, 3)
    basis4 = enumerate_injections(2, 4)
    vec = f2.inclusions[3].apply({basis3.index(Injection(2, 3, (2, 0))): Fraction(1)})
    assert vec == {basis4.index(Injection(2, 4, (2, 0))): Fraction(1)}


def test_evaluate_identity_and_functoriality(f2):
    for k in range(f2.max_degree + 1):
        assert evaluate(f2, identity_injection(k)).to_matrix() == Matrix.identity(f2.dim(k))
    f = Injection(2, 4, (3, 1))
    g = Injection(4, 5, (2, 0, 4, 1))
    assert evaluate(f2, compose(g, f)).to_matrix() == evaluate(f2, g).compose(evaluate(f2, f)).to_matrix()


@st.composite
def composable_pairs_in_window(draw, window=5):
    a = draw(st.integers(min_value=0, max_value=window))
    b = draw(st.integers(min_value=a, max_value=window))
    c = draw(st.integers(min_value=b, max_value=window))
    f = Injection(a, b, tuple(draw(st.permutations(range(b)))[:a]))
    g = Injection(b, c, tuple(draw(st.permutations(range(c)))[:b]))
    return f, g


@given(composable_pairs_in_window())
@settings(max_examples=30, deadline=None)
def test_functoriality_random_pairs(pair):
    module = representable(2, 5)
    f, g = pair
    assert (
        evaluate(module, compose(g, f)).to_matrix()
        == evaluate(module, g).compose(evaluate(module, f)).to_matrix()
    )


@given(composable_pairs_in_window())
@settings(max_examples=20, deadline=None)
def test_free_module_functoriality(pair):
    module = free_module((2, 1), 5)
    f, g = pair
    assert (
        evaluate(module, compose(g, f)).to_matrix()
        == evaluate(module, g).compose(evaluate(module, f)).to_matrix()
    )


def test_injectivity_of_structure_maps():
    # every E(f) of the constructed modules is injective on the window
    from ficalc.exactla import rank

    for module in (representable(2, 4), free_module((1, 1), 4)):
        for k in range(module.max_degree):
            mat = evaluate(module, Injection(k, k + 1, tuple(range(k))))
            assert rank(mat) == module.dim(k)


@pytest.mark.parametrize(
    "build, max_index",
    [
        (lambda: representable(3, 6), 2),
        (lambda: free_module((2, 1), 6), 2),
        # "p/q" entries, so images of unit vectors are not all shared columns
        (lambda: rescaled(free_module((2, 1), 8), 2), 3),
    ],
    ids=["representable(3)", "free((2,1))", "rescaled free((2,1))"],
)
def test_shared_columns_stay_read_only(build, max_index):
    """Structure maps hand out the module's own columns as images of unit
    vectors; no pipeline writes them, and ``evaluate`` copies them."""
    module = build()
    text = dumps_module(module)
    for k in range(module.max_degree + 1):
        stage_character(module, k)
    coefficient_profile(module, max_index)
    matrices = (*itertools.chain(*module.transpositions), *module.inclusions)
    own = {id(col) for m in matrices for col in m.columns}
    for k in range(module.max_degree):
        for values in (tuple(range(k)), tuple(range(1, k + 1))):
            columns = evaluate(module, Injection(k, k + 1, values)).columns
            assert all(id(col) not in own for col in columns)
    for k in range(2, module.max_degree + 1):
        cycle = Injection(k, k, tuple(range(1, k)) + (0,))
        assert all(id(col) not in own for col in evaluate(module, cycle).columns)
    assert dumps_module(module) == text


def test_validate_passes_on_constructors():
    for module in (
        representable(0, 4),
        representable(1, 4),
        representable(3, 5),
        free_module((2,), 5),
        free_module((2, 1), 5),
    ):
        report = validate(module)
        assert report.valid, report.violations


def _tamper(module, degree, index):
    """Rebuild the module with one transposition generator zeroed out."""
    transpositions = [list(batch) for batch in module.transpositions]
    transpositions[degree][index] = SparseMatrix(
        module.dim(degree), module.dim(degree)
    )
    return FIModule(
        module.name,
        module.max_degree,
        module.generation_bound,
        module.dims,
        transpositions,
        module.inclusions,
    )


def test_validate_detects_fault():
    broken = _tamper(representable(2, 4), 3, 1)
    report = validate(broken)
    assert not report.valid
    assert report.violations


def test_validate_detects_wrong_sign():
    module = free_module((1, 1), 4)
    transpositions = [list(batch) for batch in module.transpositions]
    bad = SparseMatrix(
        module.dim(2), module.dim(2), [dict(c) for c in transpositions[2][0].columns]
    )
    bad.set(0, 0, -bad.columns[0].get(0, Fraction(0)) + 1)
    transpositions[2][0] = bad
    broken = FIModule("broken", 4, 2, module.dims, transpositions, module.inclusions)
    assert not validate(broken).valid


def test_validate_rejects_sign_module():
    # E(k) = sign with every inclusion 1 satisfies the Coxeter relations and
    # equivariance, but the swap of the two new points negates the image of
    # E(k-2), so it is not a functor on injections.
    k_max = 5
    transpositions = [
        [SparseMatrix(1, 1, [{0: -1}]) for _ in range(max(k - 1, 0))] for k in range(k_max + 1)
    ]
    inclusions = [SparseMatrix(1, 1, [{0: 1}]) for _ in range(k_max)]
    sign = FIModule("sign", k_max, 0, [1] * (k_max + 1), transpositions, inclusions)
    report = validate(sign)
    assert not report.valid
    assert all("moves the image" in v for v in report.violations)


def _rebuilt(module, transpositions=None, inclusions=None):
    """The module with some generators (``{(degree, index): matrix}``) and
    inclusions (``{degree: matrix}``) replaced."""
    gens = [list(batch) for batch in module.transpositions]
    for (k, i), matrix in (transpositions or {}).items():
        gens[k][i] = matrix
    incs = list(module.inclusions)
    for k, matrix in (inclusions or {}).items():
        incs[k] = matrix
    return FIModule("broken", module.max_degree, module.generation_bound, module.dims, gens, incs)


def _broken_once(family):
    """representable(1, 5), whose degree-k basis is the k points, broken by one
    replaced matrix chosen to fail the named family of checks."""
    module = representable(1, 5)
    if family == "involution":  # generator 1 at degree 3 doubled
        doubled = SparseMatrix(3, 3, [{0: 2}, {1: 2}, {2: 2}])
        return _rebuilt(module, {(3, 0): module.transpositions[3][0].compose(doubled)})
    if family == "braid":  # generator 2 at degree 3 the identity
        return _rebuilt(module, {(3, 1): SparseMatrix(3, 3, [{0: 1}, {1: 1}, {2: 1}])})
    if family == "commutation":  # generator 3 at degree 4 equal to generator 2
        return _rebuilt(module, {(4, 2): module.transpositions[4][1]})
    if family == "equivariance":  # inclusion 2 -> 3 followed by generator 2
        moved = module.transpositions[3][1].compose(module.inclusions[2])
        return _rebuilt(module, inclusions={2: moved})
    if family == "tail":  # inclusion 1 -> 2 sends the point to the second point
        return _rebuilt(module, inclusions={1: SparseMatrix(2, 1, [{1: 1}])})
    raise ValueError(family)


# The violations of each broken module, in order, as validate reported them
# before it fed stored columns in place of images of unit vectors.
BROKEN_ONCE_VIOLATIONS = {
    "involution": [
        "degree 3: Coxeter involution fails for generator 1",
        "degree 3: Coxeter braid relation fails at generators (1, 2)",
        "inclusion 2->3: equivariance fails for generator 1",
        "inclusion 3->4: equivariance fails for generator 1",
    ],
    "braid": [
        "degree 3: Coxeter braid relation fails at generators (1, 2)",
        "inclusion 3->4: equivariance fails for generator 2",
    ],
    "commutation": [
        "degree 4: Coxeter commutation fails at generators (1, 3)",
        "inclusion 4->5: equivariance fails for generator 3",
        "degree 4: generator 3 moves the image of degree 2",
    ],
    "equivariance": [
        "inclusion 2->3: equivariance fails for generator 1",
        "degree 4: generator 3 moves the image of degree 2",
    ],
    "tail": ["degree 3: generator 2 moves the image of degree 1"],
}


@pytest.mark.parametrize("family", sorted(BROKEN_ONCE_VIOLATIONS))
def test_validate_violations_of_modules_broken_once_are_pinned(family):
    report = validate(_broken_once(family))
    assert not report.valid
    assert report.violations == BROKEN_ONCE_VIOLATIONS[family]
