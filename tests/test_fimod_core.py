"""The windowed module type: constructors, evaluation, validation."""

import hashlib
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
    NotInjectiveError,
    WindowError,
    coefficient_profile,
    derivative,
    dumps_module,
    evaluate,
    free_module,
    q_truncation,
    representable,
    stage_character,
    validate,
    zero_module,
)
from ficalc.symrep import partitions_of, specht_dimension
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


# sha256 of dumps_module for every constructor: the basis order and the
# coefficients, which no dimension, character or rank reads
CONSTRUCTOR_DIGESTS = {
    "representable(0, 0)": "6538e0a0530c5b44395d4182916702c132f2fa899a56d5d398419cb7ba4f5e54",
    "representable(0, 1)": "97ef4fc27852ab1ad131cdc055c2d386d292e4842eae662c1a7ba81bf3bbe0fc",
    "representable(0, 2)": "1fab2b8a4f372ca9eaf4f1ffd942e98592cf7ee6fc9a9f21a8eee860df212eff",
    "representable(0, 3)": "69979652f1a28737f69d889b69642842da95ddcc574955866a67c82aa0316507",
    "representable(0, 4)": "1286431c641b5372959ea137bfac5ebf1965f986b0dfdbcd3d06dfe9c6d4d823",
    "representable(0, 5)": "6339d8ecf32018947d3655ec29264589f8aaad88564b0e425e9f4da9e2e17622",
    "representable(0, 6)": "13d44746abf959ce73f81cb8bc42d97e562d4228a0fc60ce8163bb6731813e6b",
    "representable(0, 7)": "cdbd51e538de66fc4dac2caeec9b58570a133a94fabf64a23edccc71bf5be1cc",
    "representable(1, 1)": "fef382aef2110496910c3db684177079c42e3de30241c0eeb2cabaa5dc27e4f4",
    "representable(1, 2)": "2e2ba33e673feb9abeaf047e95a492cbd00122690d4252724ec9fb8536146df7",
    "representable(1, 3)": "08e501eca4e90589e7c96c7128f1c6df536cf402d7c78c9b557aa7932c42aa83",
    "representable(1, 4)": "71f6c523eb703cfeacf876551f5f50f9dd7e62771347d16753c298cefdb2818e",
    "representable(1, 5)": "afcabee575115ac575f1bbf9df237f58de7a094257b446607e29bdc69ff6a3d7",
    "representable(1, 6)": "ad88192079322a8111fb6f9131943bc0fd955130697455d901d61996fd8cef7d",
    "representable(1, 7)": "784570bf35d3c4a92db0ac4b4174d66d121ae796bde6e8c8956da6a5f07dd4fe",
    "representable(2, 2)": "01aea6d08b1ea23834a1d9766376d565edb123032043850ec055c4fe4520afa8",
    "representable(2, 3)": "e7e763dfa930ab951938804c295bfa67f23d7c59fbccfb81a5123a1d152b8701",
    "representable(2, 4)": "0b89932694632dad2deceafbbbe3438b202cfdde5b2b7149ad15c69aef194256",
    "representable(2, 5)": "839ee52301b925949c45ccaf11e7b2830eb38c3ea4c84b164cda921773e86e26",
    "representable(2, 6)": "51a2f040ce9cde15ad2831b08a744e10b445058e9031e979c669d4c6acfbcea2",
    "representable(2, 7)": "16c62d007ded702382de3a32a24d987a8ca1562a827801685237d627a20d5b2c",
    "representable(3, 3)": "21f9c14f117c6caf1a901399bb204db16273dbe693254a09174c7f0d0cd34161",
    "representable(3, 4)": "297185925087290732ea0c0c3e451c85149ca9ed0af16f4cf926b7988d2aa28f",
    "representable(3, 5)": "4f3249ab726529f70d4b6b7c279000e905b047e897eb507a26152d10cfc21e1e",
    "representable(3, 6)": "e3f0ca0ca9f7c5b206c272cc1483a831821ea7fe6b0de1764b932836a0558e67",
    "representable(3, 7)": "a4cb990b3717eed68499938bd24791a9db2d7ca6017ed314b6a1aa733dc60406",
    "free_module((), 7)": "cff2dd911eb7ee384bf4c9be22ec907afecd03f1e00e69e43e0acb674d77ce02",
    "free_module((1,), 7)": "458bcf44e910f4dcca6abb02a12757252bb6648cb6fe7fddfe342ad8b8a0d7eb",
    "free_module((2,), 7)": "f943bfaad0b66152aab7284bd9ab5db98d1e92e103f867bed1b25044f7194fba",
    "free_module((1, 1), 7)": "6d956922a4a90706177ae42fb6bf831f3cd08def72e556e0b11a164c7bd94d4f",
    "free_module((3,), 7)": "e652f0ce9fa8874a75ec73246bf576deb6550d63a934152408df060066c6778a",
    "free_module((2, 1), 7)": "8ff67df2c7012664c595e1f9fe0818c638822d33efa545c3f4b3067ed17dc29e",
    "free_module((1, 1, 1), 7)": "429fec7566bf1e6543cbb339396155dc23a9f528ea9768ea4a5a145587f537a7",
    "free_module((4,), 7)": "dc64ac52ecb6ec43b0768cadd7e2239c5634879f3ea74028ca6b6801f10bb40e",
    "free_module((3, 1), 7)": "606886e6b0cebd0dabda28433ec5ec73ec540eeb38b388d1078416008f392afb",
    "free_module((2, 2), 7)": "c735f9aee8b8d12d650eaa1c11946ddfdae4e1fdf8a244dfc191f0c1a6c99583",
    "free_module((2, 1, 1), 7)": "0696211f4a00a097d927841a70440475fb614c29d331c9fb03a703301259a01f",
    "free_module((1, 1, 1, 1), 7)": "b62581c46dfc47f304cb5aff0420a13bb0312d2adde9d014a8c0cfd7b16f23a4",
    "zero_module(3)": "5302256449e8ab4ae1530875133ec55e314ab9c5ac46f831dddcdeb9125719e2",
}


def test_constructor_documents_are_pinned_by_digest():
    built = {}
    for n in range(4):
        for max_degree in range(n, 8):
            built[f"representable({n}, {max_degree})"] = representable(n, max_degree)
    for size in range(5):
        for lam in partitions_of(size):
            built[f"free_module({lam}, 7)"] = free_module(lam, 7)
    built["zero_module(3)"] = zero_module(3)
    digests = {
        name: hashlib.sha256(dumps_module(module).encode()).hexdigest()
        for name, module in built.items()
    }
    assert digests == CONSTRUCTOR_DIGESTS


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


# (id, the arguments replaced in representable(1, 3)'s, the message)
FIMODULE_FAULTS = [
    ("max_degree", lambda m: {"max_degree": -1}, "max_degree must be non-negative"),
    (
        "generation_bound",
        lambda m: {"generation_bound": 4},
        "representable(1) is generated in degree 4, outside the window 0..3",
    ),
    (
        "dims-length",
        lambda m: {"dims": m.dims[:-1]},
        "dims must list one non-negative dimension per degree 0..3",
    ),
    (
        "dims-negative",
        lambda m: {"dims": (0, 1, 2, -3)},
        "dims must list one non-negative dimension per degree 0..3",
    ),
    (
        "transposition-blocks",
        lambda m: {"transpositions": m.transpositions[:2]},
        "transpositions must list one block of matrices per degree 0..3",
    ),
    (
        "transposition-count",
        lambda m: {"transpositions": (*m.transpositions[:3], m.transpositions[3][:1])},
        "transpositions[3] must list 2 matrices",
    ),
    (
        "transposition-shape",
        lambda m: {"transpositions": (*m.transpositions[:2], (SparseMatrix(3, 3),), m.transpositions[3])},
        "transpositions[2][0] must be 2x2",
    ),
    ("inclusion-count", lambda m: {"inclusions": m.inclusions[:2]}, "inclusions must list 3 matrices"),
    (
        "inclusion-shape",
        lambda m: {"inclusions": (m.inclusions[0], SparseMatrix(2, 2), m.inclusions[2])},
        "inclusions[1] must be 2x1",
    ),
]


@pytest.mark.parametrize(
    "replace, message", [case[1:] for case in FIMODULE_FAULTS], ids=[case[0] for case in FIMODULE_FAULTS]
)
def test_fimodule_names_each_shape_fault_in_the_document_fields(replace, message):
    m = representable(1, 3)
    args = {
        "name": m.name,
        "max_degree": m.max_degree,
        "generation_bound": m.generation_bound,
        "dims": m.dims,
        "transpositions": m.transpositions,
        "inclusions": m.inclusions,
    }
    assert FIModule(**args).dims == m.dims
    with pytest.raises(ValueError) as exc:
        FIModule(**{**args, **replace(m)})
    assert str(exc.value) == message


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
        # matrices whose columns are shared with one another
        (lambda: derivative(representable(3, 7)), 2),
    ],
    ids=["representable(3)", "free((2,1))", "rescaled free((2,1))", "derivative(representable(3))"],
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


# ---------------------------------------------------------------------------
# the derivative DE = coker(E -> SE)
# ---------------------------------------------------------------------------


def test_derivative_of_representable():
    # D of the injections m -> k is m copies of the injections m-1 -> k:
    # the cokernel keeps the injections that use the new point
    for m in range(1, 4):
        module = representable(m, 8)
        text = dumps_module(module)
        d = derivative(module)
        assert d.dims == tuple(m * math.perm(k, m - 1) for k in range(8))
        assert (d.max_degree, d.generation_bound) == (7, m - 1)
        report = validate(d)
        assert report.valid, report.violations
        assert derivative(module) is d
        assert dumps_module(module) == text
    assert derivative(representable(0, 8)).dims == (0,) * 8


def _removable_boxes(lam):
    for i, part in enumerate(lam):
        if i + 1 == len(lam) or part > lam[i + 1]:
            yield lam[:i] + (part - 1,) * (part > 1) + lam[i + 1 :]


def branching_mismatches(size: int, window: int) -> list:
    """The (lam, k) with |lam| <= size and k < window at which the stage
    character of D free(lam) differs from the sum of those of free(mu) over
    the removable boxes mu = lam - box: the branching rule of the derivative
    of a free module."""
    bad = []
    for lam in (lam for n in range(size + 1) for lam in partitions_of(n)):
        d = derivative(free_module(lam, window))
        summands = [free_module(mu, window - 1) for mu in _removable_boxes(lam)]
        for k in range(window):
            expected = [sum(v) for v in zip(*(stage_character(m, k).values for m in summands))]
            if list(stage_character(d, k).values) != (expected or [0] * len(partitions_of(k))):
                bad.append((lam, k))
    return bad


def test_derivative_of_free_modules_follows_the_branching_rule():
    assert branching_mismatches(4, 8) == []


@pytest.mark.parametrize(
    "build",
    [
        lambda: representable(1, 7),
        lambda: representable(2, 7),
        lambda: representable(3, 7),
        lambda: free_module((2, 1), 7),
        lambda: free_module((1, 1, 1), 7),
    ],
    ids=["representable(1)", "representable(2)", "representable(3)", "free((2,1))", "free((1,1,1))"],
)
def test_derivative_is_generated_one_degree_lower(build):
    module = build()
    d = derivative(module)
    assert d.generation_bound == module.generation_bound - 1
    for k in range(d.max_degree + 1):
        assert q_truncation(d, module.generation_bound - 1, k).is_isomorphism, k


def test_derivative_refuses_a_map_that_is_not_injective():
    # the trivial representation in every degree with zero inclusions: a
    # valid module whose map E(0) -> E(1) into the shift is zero
    one = SparseMatrix.identity(1)
    module = FIModule(
        "trivial with zero inclusions",
        3,
        0,
        (1, 1, 1, 1),
        [[one] * max(k - 1, 0) for k in range(4)],
        [SparseMatrix(1, 1)] * 3,
    )
    assert validate(module).valid
    with pytest.raises(NotInjectiveError, match="degree 0 into the shift is not injective"):
        derivative(module)


def test_derivative_of_a_window_0_module_is_refused():
    with pytest.raises(WindowError, match="needs degree 1 > window 0"):
        derivative(representable(0, 0))
