"""Injections, transposition words, and matching posets."""

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ficalc.combinat import (
    Injection,
    SizeMismatchError,
    build_poset,
    compose,
    conjugacy_class_word,
    cycle_type,
    enumerate_injections,
    factor_injection,
    identity_injection,
    permutation_from_word,
    permutation_sign,
    poset_size_formula,
    standard_inclusion,
    word_from_permutation,
)


@st.composite
def injections(draw, max_target=6):
    k = draw(st.integers(min_value=0, max_value=max_target))
    n = draw(st.integers(min_value=0, max_value=k))
    values = draw(st.permutations(range(k)))
    return Injection(n, k, tuple(values[:n]))


@st.composite
def composable_triples(draw):
    """f: a -> b, g: b -> c, h: c -> d with d <= 7."""
    a = draw(st.integers(min_value=0, max_value=3))
    b = draw(st.integers(min_value=a, max_value=5))
    c = draw(st.integers(min_value=b, max_value=6))
    d = draw(st.integers(min_value=c, max_value=7))
    f = Injection(a, b, tuple(draw(st.permutations(range(b)))[:a]))
    g = Injection(b, c, tuple(draw(st.permutations(range(c)))[:b]))
    h = Injection(c, d, tuple(draw(st.permutations(range(d)))[:c]))
    return f, g, h


def test_injection_validation():
    with pytest.raises(ValueError):
        Injection(2, 3, (0, 0))
    with pytest.raises(ValueError):
        Injection(2, 3, (0, 3))
    with pytest.raises(ValueError):
        Injection(2, 3, (0,))
    with pytest.raises(ValueError):
        Injection(3, 2, (0, 1, 2))


def test_injection_call_and_image():
    f = Injection(2, 4, (3, 0))
    assert f(0) == 3 and f(1) == 0
    assert f.image == frozenset({0, 3})
    assert not f.is_permutation()
    assert identity_injection(3).is_permutation()


def test_compose_examples():
    f = Injection(2, 3, (2, 0))
    g = Injection(3, 5, (4, 2, 0))
    assert compose(g, f).values == (0, 4)
    with pytest.raises(SizeMismatchError):
        compose(f, g)


@given(injections())
def test_compose_identity(f):
    assert compose(identity_injection(f.target_size), f) == f
    assert compose(f, identity_injection(f.source_size)) == f


@given(composable_triples())
def test_compose_associative(triple):
    f, g, h = triple
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_enumerate_injections_counts():
    for k in range(5):
        for n in range(k + 1):
            batch = enumerate_injections(n, k)
            assert len(batch) == math.factorial(k) // math.factorial(k - n)
            assert len(set(batch)) == len(batch)
            # lexicographic enumeration of value tuples
            assert [f.values for f in batch] == sorted(f.values for f in batch)


def test_standard_inclusion():
    assert standard_inclusion(2, 5).values == (0, 1)
    with pytest.raises(ValueError):
        standard_inclusion(3, 2)


@given(injections())
def test_factor_injection_roundtrip(f):
    sigma, steps = factor_injection(f)
    assert sigma.is_permutation()
    assert steps == f.target_size - f.source_size
    assert compose(sigma, standard_inclusion(f.source_size, f.target_size)) == f
    # the complement of the image is listed in increasing order
    tail = sigma.values[f.source_size :]
    assert list(tail) == sorted(set(range(f.target_size)) - set(f.values))


@given(st.permutations(range(6)))
def test_word_roundtrip(perm):
    perm = tuple(perm)
    word = word_from_permutation(perm)
    assert permutation_from_word(word, len(perm)) == perm
    assert permutation_sign(perm) == (-1) ** len(word)


def test_word_is_left_to_right_product():
    # [a, b] means (transposition a) after (transposition b)
    assert permutation_from_word([1, 2], 3) == (1, 2, 0)
    assert permutation_from_word([2, 1], 3) == (2, 0, 1)
    with pytest.raises(ValueError):
        permutation_from_word([3], 3)
    with pytest.raises(ValueError):
        word_from_permutation((0, 0))


def test_cycle_type_of_class_words():
    from ficalc.symrep import partitions_of

    for n in range(7):
        for ct in partitions_of(n):
            perm = permutation_from_word(conjugacy_class_word(ct), n)
            assert cycle_type(perm) == ct


def test_conjugacy_class_words_are_prefix_closed():
    from ficalc.symrep import partitions_of

    for n in range(11):
        for ct in partitions_of(n):
            word = conjugacy_class_word(ct)
            if not word:
                assert ct == (1,) * n
                continue
            # the parent splits one point off the smallest part > 1
            parts = list(ct)
            smallest = max(i for i, c in enumerate(parts) if c > 1)
            parts[smallest] -= 1
            parent = tuple(sorted(parts + [1], reverse=True))
            assert conjugacy_class_word(parent) == word[:-1], ct


def test_conjugacy_class_word_validation():
    """A cycle type is refused by ``check_partition``, with its message."""
    with pytest.raises(ValueError, match=r"^partition must be weakly decreasing: \(1, 2\)$"):
        conjugacy_class_word((1, 2))
    with pytest.raises(ValueError, match=r"^partition parts must be positive: \(0,\)$"):
        conjugacy_class_word((0,))


def test_poset_small_examples():
    p13 = build_poset(1, 3)
    assert len(p13.elements) == 3 and p13.cover_relations == ()
    p23 = build_poset(2, 3)
    assert len(p23.elements) == 12
    assert len(p23.cover_relations) == 12
    # every cover removes exactly one matched pair
    for low, high in p23.cover_relations:
        a, b = p23.elements[low], p23.elements[high]
        assert len(b) == len(a) + 1
        assert set(a) < set(b)


def test_poset_sizes_match_formula():
    for n in range(5):
        for k in range(5):
            assert len(build_poset(n, k).elements) == poset_size_formula(n, k)
            assert poset_size_formula(n, k) == poset_size_formula(k, n)


def test_poset_element_order_is_deterministic():
    p = build_poset(2, 2)
    assert p.elements == build_poset(2, 2).elements
    assert p.index(p.elements[3]) == 3
    with pytest.raises(ValueError):
        build_poset(-1, 2)
