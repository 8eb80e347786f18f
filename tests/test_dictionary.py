"""Tests for stage decompositions, dictionary predictions, and stability."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ficalc.combinat import cycle_type
from ficalc.fimod import (
    DictionaryInapplicableError,
    FIModule,
    coefficient_profile,
    dictionary_prediction,
    free_module,
    representable,
    representation_stability_check,
    stable_decomposition,
    stage_character,
    taylor_coefficient,
    zero_module,
)
from ficalc.symrep import (
    ClassFunction,
    StableRangeError,
    irreducible_class_function,
    partitions_of,
    specht_dimension,
)


def test_stage_character_of_rank_one_representable():
    F1 = representable(1, 6)
    chi = stage_character(F1, 3)
    # permutation character of the natural action on 3 points
    assert chi.dimension == 3
    assert chi((1, 1, 1)) == 3
    assert chi((2, 1)) == 1
    assert chi((3,)) == 0


def test_representable_character_counts_injections_into_fixed_points():
    # sigma fixes an injection m -> k exactly when its image lies in the
    # fixed points of sigma, so the value is the falling factorial f^(m)
    for m in range(5):
        E = representable(m, 9)
        for k in range(10):
            chi = stage_character(E, k)
            for ct in partitions_of(k):
                f = ct.count(1)
                expected = 1
                for j in range(m):
                    expected *= f - j
                assert chi(ct) == expected, (m, k, ct)


def _horizontal_strip(mu, lam):
    """Whether mu / lam is a horizontal strip: mu_1 >= lam_1 >= mu_2 >= lam_2 ..."""
    if len(mu) < len(lam):
        return False
    padded = tuple(lam) + (0,) * (len(mu) - len(lam))
    return all(
        mu[i] >= padded[i] and (i + 1 >= len(mu) or padded[i] >= mu[i + 1])
        for i in range(len(mu))
    )


def test_free_module_stages_follow_the_pieri_rule():
    # M(lam)_k is induced from S^lam x trivial, so its constituents are the
    # shapes lam plus a horizontal strip of k - |lam| boxes, each once
    for size in range(4):
        for lam in partitions_of(size):
            E = free_module(lam, 8)
            for k in range(size, 9):
                expected = {mu: 1 for mu in partitions_of(k) if _horizontal_strip(mu, lam)}
                assert stable_decomposition(E, k).nonzero() == expected, (lam, k)


def test_free_module_coefficients_follow_the_branching_rule():
    # C_n(M(lam)) is Q[Inj(n, m)] tensored over S_m with S^lam: the
    # S_{m-n}-coinvariants of S^lam restricted to S_n x S_{m-n}, which hold
    # S^mu once for each mu with lam / mu a horizontal strip, all in degree 0
    for m in range(5):
        for lam in partitions_of(m):
            E = free_module(lam, 2 * m + 2)
            for n in range(m + 1):
                strips = [mu for mu in partitions_of(n) if _horizontal_strip(lam, mu)]
                characters = [irreducible_class_function(mu) for mu in strips]
                expected = ClassFunction(
                    n, tuple(sum(chi(ct) for chi in characters) for ct in partitions_of(n))
                )
                gc = taylor_coefficient(E, n)
                assert gc.dims == (expected.dimension,) + (0,) * n, (lam, n)
                assert gc.characters[0] == expected, (lam, n)


_TRACE_MODULES = (representable(2, 6), free_module((2, 1), 6), free_module((1, 1), 6))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stage_character_is_the_trace_of_a_random_permutation(data):
    E = data.draw(st.sampled_from(_TRACE_MODULES))
    k = data.draw(st.integers(min_value=0, max_value=E.max_degree))
    sigma = tuple(data.draw(st.permutations(range(k))))
    trace = sum(E.apply_permutation(k, sigma, [{b: 1}])[0].get(b, 0) for b in range(E.dims[k]))
    assert stage_character(E, k)(cycle_type(sigma)) == trace


def test_stage_character_applies_one_transposition_per_class(monkeypatch):
    calls = []
    apply = FIModule.apply_permutation

    def counted(self, k, perm, vecs):
        calls.append((perm, len(vecs)))
        return apply(self, k, perm, vecs)

    monkeypatch.setattr(FIModule, "apply_permutation", counted)
    E = representable(2, 7)
    stage_character(E, 7)
    # one call for each of the p(7) - 1 = 14 non-identity classes, each on
    # all 42 basis vectors: 588 vector applications
    assert len(calls) == len(partitions_of(7)) - 1 == 14
    assert sum(n for _, n in calls) == 42 * 14 == 588
    assert all(n == 42 and sum(p != i for i, p in enumerate(perm)) == 2 for perm, n in calls)


def test_stage_characters_are_computed_once_per_module(monkeypatch):
    calls = []
    apply = FIModule.apply_permutation

    def counted(self, k, perm, vecs):
        calls.append(k)
        return apply(self, k, perm, vecs)

    monkeypatch.setattr(FIModule, "apply_permutation", counted)
    E = free_module((2, 1), 7)
    first = stage_character(E, 6)
    assert calls
    calls.clear()
    assert stage_character(E, 6) is first
    assert calls == []
    # the stability check reads the characters the decompositions computed
    tables = {k: stable_decomposition(E, k).nonzero() for k in range(3, 8)}
    calls.clear()
    report = representation_stability_check(E, 3)
    assert calls == []
    assert report.trajectories[(2, 1)] == tuple(
        tables[k].get((k - 3, 2, 1), 0) for k in range(3, 8)
    )
    # a fresh module computes its own characters
    assert stage_character(free_module((2, 1), 7), 6) == first
    assert calls


def test_stable_decomposition_examples():
    F1 = representable(1, 8)
    assert stable_decomposition(F1, 5).nonzero() == {(5,): 1, (4, 1): 1}
    M11 = free_module((1, 1), 8)
    assert stable_decomposition(M11, 5).nonzero() == {(4, 1): 1, (3, 1, 1): 1}
    assert stable_decomposition(zero_module(4), 3).nonzero() == {}


def test_stable_decomposition_matches_dimensions():
    F2 = representable(2, 8)
    for k in (4, 5, 6):
        decomp = stable_decomposition(F2, k)
        total = sum(
            mult * specht_dimension(mu) for mu, mult in decomp.nonzero().items()
        )
        assert total == F2.dims[k]


def test_prediction_roundtrip_small_modules():
    """The padded-partition prediction from the coefficient profile must
    agree with the decomposition computed directly from stage characters."""
    modules = [
        representable(0, 8),
        representable(1, 8),
        free_module((2,), 8),
        free_module((1, 1), 8),
    ]
    for E in modules:
        profile = coefficient_profile(E)
        N = profile.max_index
        for k in range(2 * N, 9):
            predicted = dictionary_prediction(profile, k).nonzero()
            direct = stable_decomposition(E, k).nonzero()
            assert predicted == direct, (E.name, k)


def test_prediction_roundtrip_rank_two_and_hook():
    for E in (representable(2, 8), free_module((2, 1), 8)):
        profile = coefficient_profile(E)
        for k in range(2 * profile.max_index, 9):
            assert (
                dictionary_prediction(profile, k).nonzero()
                == stable_decomposition(E, k).nonzero()
            )


def test_prediction_pads_the_generating_partition():
    profile = coefficient_profile(free_module((1, 1), 8))
    assert dictionary_prediction(profile, 6).nonzero() == {
        (5, 1): 1,
        (4, 1, 1): 1,
    }


def test_prediction_below_stable_range():
    profile = coefficient_profile(free_module((1, 1), 8))
    with pytest.raises(StableRangeError):
        dictionary_prediction(profile, 3)


def test_prediction_from_zero_profile_is_empty():
    profile = coefficient_profile(zero_module(5))
    assert dictionary_prediction(profile, 4).nonzero() == {}


def test_prediction_requires_degree_zero_concentration():
    F1 = representable(1, 8)
    profile = coefficient_profile(F1)
    marked = profile.coefficients[1]
    fake = type(marked)(
        cube=marked.cube,
        action_size=marked.action_size,
        dims=(marked.dims[0], 1),
        characters=marked.characters,
        witness=marked.witness,
    )
    broken = type(profile)(profile.module_name, (profile.coefficients[0], fake), ())
    with pytest.raises(DictionaryInapplicableError):
        dictionary_prediction(broken, 6)


def test_stability_report_constant_tail():
    F2 = representable(2, 8)
    report = representation_stability_check(F2, 4)
    assert report.is_stable
    assert report.stable_from == 4
    # every trajectory is constant and keyed by a small tail partition
    for tail, values in report.trajectories.items():
        assert sum(tail) <= 2
        assert len(set(values)) == 1


def test_stability_report_finds_the_onset():
    M2 = free_module((2,), 8)
    report = representation_stability_check(M2, 2)
    assert report.k_min == 2 and report.k_max == 8
    assert report.stable_from == 4
    assert not report.is_stable
    assert report.trajectories[()][-1] == 1
    assert report.trajectories[(1,)][-1] == 1
    assert report.trajectories[(2,)][-1] == 1
    # before the onset the top row is still filling in
    assert report.trajectories[(2,)][0] == 0


def test_stability_report_zero_module():
    report = representation_stability_check(zero_module(6), 1)
    assert report.is_stable
    assert report.trajectories == {}


def test_stability_report_input_validation():
    F1 = representable(1, 6)
    with pytest.raises(ValueError):
        representation_stability_check(F1, 0)
    with pytest.raises(ValueError):
        representation_stability_check(F1, 7)
