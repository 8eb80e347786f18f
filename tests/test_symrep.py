"""Characters, Kostka numbers, Specht modules, and stable layer counts."""

import hashlib
import json
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ficalc.combinat import conjugacy_class_word
from ficalc import symrep
from ficalc.exactla import CrossCheckError, SparseMatrix
from ficalc.fimod import dumps_module, free_module
from ficalc.symrep import (
    ClassFunction,
    NotACharacterError,
    StableRangeError,
    action_character,
    character_table,
    check_partition,
    class_size,
    conjugate_partition,
    decompose_class_function,
    gn_character,
    gn_dimension,
    inner_product,
    irreducible_character,
    irreducible_class_function,
    kostka,
    kostka_reduction,
    pad_partition,
    partitions_of,
    specht_dimension,
    specht_matrices,
    standard_tableaux,
    unpad_partition,
    weight,
    young_permutation_character,
)


def partitions_upto(max_n):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.sampled_from(partitions_of(n))
    )


def test_partition_counts_and_order():
    counts = [len(partitions_of(n)) for n in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert partitions_of(2) == ((2,), (1, 1))
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
    # the identity cycle type is always listed last
    for n in range(1, 8):
        assert partitions_of(n)[-1] == (1,) * n


def test_check_partition():
    assert check_partition([3, 1]) == (3, 1)
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


def test_class_sizes_sum_to_group_order():
    for n in range(7):
        assert sum(class_size(ct) for ct in partitions_of(n)) == math.factorial(n)
    assert class_size((2, 1)) == 3
    assert class_size((3,)) == 2


@pytest.mark.parametrize(
    "refused, message",
    [((0,), "partition parts must be positive: (0,)"),
     ((1, 2), "partition must be weakly decreasing: (1, 2)")],
)
def test_class_size_and_irreducibles_refuse_what_is_not_a_partition(refused, message):
    with pytest.raises(ValueError) as checked:
        check_partition(refused)
    assert str(checked.value) == message
    for call in (class_size, irreducible_class_function):
        with pytest.raises(ValueError) as excinfo:
            call(refused)
        assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "refused, message",
    [((2.5, 1), "partition parts must be ints, not 2.5: (2.5, 1)"),
     ((2.9, 1.2), "partition parts must be ints, not 2.9: (2.9, 1.2)"),
     ((2.0,), "partition parts must be ints, not 2.0: (2.0,)"),
     ((True,), "partition parts must be ints, not True: (True,)"),
     ((2, True), "partition parts must be ints, not True: (2, True)"),
     ((Fraction(2),), "partition parts must be ints, not Fraction(2, 1): (Fraction(2, 1),)"),
     (("2", "1"), "partition parts must be ints, not '2': ('2', '1')")],
)
def test_a_part_that_is_not_an_int_is_refused_not_converted(refused, message):
    """A float part was truncated (``class_size((2.9, 1.2))`` read 3) and a
    bool passed as 0 or 1; every partition check now refuses them."""
    for call in (check_partition, class_size, irreducible_class_function, ClassFunction(3, (1, 1, 1))):
        with pytest.raises(TypeError) as excinfo:
            call(refused)
        assert str(excinfo.value) == message
    assert check_partition(iter([2, 1])) == (2, 1)


def test_conjugate_partition():
    assert conjugate_partition((3, 1)) == (2, 1, 1)
    assert conjugate_partition(()) == ()
    for lam in partitions_of(6):
        assert conjugate_partition(conjugate_partition(lam)) == lam


def test_specht_dimension_examples():
    assert specht_dimension(()) == 1
    assert specht_dimension((5,)) == 1
    assert specht_dimension((1, 1, 1, 1)) == 1
    assert specht_dimension((2, 1)) == 2
    assert specht_dimension((2, 2)) == 2
    assert specht_dimension((3, 2)) == 5
    assert specht_dimension((4, 1)) == 4


def test_dimension_squares_sum_to_factorial():
    for n in range(8):
        total = sum(specht_dimension(lam) ** 2 for lam in partitions_of(n))
        assert total == math.factorial(n)


def test_standard_tableaux_count_matches_hook_formula():
    for n in range(7):
        for lam in partitions_of(n):
            assert len(standard_tableaux(lam)) == specht_dimension(lam)


def test_kostka_examples():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3,), (1, 1, 1)) == 1
    assert kostka((2, 2), (2, 1, 1)) == 1
    assert kostka((1, 1), (2,)) == 0


def test_kostka_triangularity():
    for n in range(7):
        for lam in partitions_of(n):
            assert kostka(lam, lam) == 1
            assert kostka(lam, (1,) * n) == specht_dimension(lam)


def test_youngs_rule_dimension_count():
    # sum over lam of K_{lam,mu} f^lam = n! / prod(mu_i!)
    for n in range(7):
        for mu in partitions_of(n):
            total = sum(kostka(lam, mu) * specht_dimension(lam) for lam in partitions_of(n))
            expected = math.factorial(n)
            for part in mu:
                expected //= math.factorial(part)
            assert total == expected


def test_character_values_s3_s4():
    # classes of S3 in order ((3,), (2,1), (1,1,1))
    assert [irreducible_character((3,), ct) for ct in partitions_of(3)] == [1, 1, 1]
    assert [irreducible_character((1, 1, 1), ct) for ct in partitions_of(3)] == [1, -1, 1]
    assert [irreducible_character((2, 1), ct) for ct in partitions_of(3)] == [-1, 0, 2]
    # the self-conjugate row of S4
    values = [irreducible_character((2, 2), ct) for ct in partitions_of(4)]
    assert values == [0, -1, 2, 0, 2]


def test_character_table_rows():
    for n in range(1, 6):
        table = character_table(n)
        parts = partitions_of(n)
        for i, lam in enumerate(parts):
            assert table[i] == tuple(irreducible_character(lam, ct) for ct in parts)


def column_orthogonality_failures(n):
    """The pairs of classes (mu, nu) of S_n at which the columns of
    ``character_table(n)`` break sum_lam chi^lam(mu) chi^lam(nu) =
    delta_{mu nu} n! / |class mu|."""
    columns = list(zip(*character_table(n)))
    parts = partitions_of(n)
    return [
        (mu, nu)
        for i, mu in enumerate(parts)
        for j, nu in enumerate(parts)
        if sum(map(operator.mul, columns[i], columns[j]))
        != (math.factorial(n) // class_size(mu) if i == j else 0)
    ]


def row_orthonormality_failures(n):
    """The pairs (lam, rho) of partitions of n whose irreducible class
    functions have ``inner_product`` other than delta_{lam rho}."""
    parts = partitions_of(n)
    chars = [irreducible_class_function(lam) for lam in parts]
    return [
        (a, b)
        for a, fa in zip(parts, chars)
        for b, fb in zip(parts, chars)
        if inner_product(fa, fb) != (a == b)
    ]


def test_character_orthogonality():
    for n in range(11):
        assert column_orthogonality_failures(n) == [], n
    for n in range(9):
        assert row_orthonormality_failures(n) == [], n


# sha256 of json.dumps([character_table(n) for n in range(13)])
CHARACTER_TABLE_DIGEST = "d0517ee6a38a73bb6f39c71db8d7f3611dcf7450ffdc0e11fe29d8494407fe9e"


def test_character_tables_are_pinned_by_digest():
    tables = [character_table(n) for n in range(13)]
    assert hashlib.sha256(json.dumps(tables).encode()).hexdigest() == CHARACTER_TABLE_DIGEST
    # each irreducible class function is its row of the table
    for lam, row in zip(partitions_of(7), tables[7]):
        assert irreducible_class_function(lam).values == row


_RATIONALS = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-5, max_value=5, max_denominator=12)
)
_CLASS_FUNCTION_PAIRS = st.integers(0, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        *[st.lists(_RATIONALS, min_size=len(partitions_of(n)), max_size=len(partitions_of(n)))] * 2,
    )
)


@settings(max_examples=80, deadline=None)
@given(_CLASS_FUNCTION_PAIRS)
def test_inner_product_is_the_class_size_sum(case):
    n, a, b = case
    f, g = ClassFunction(n, a), ClassFunction(n, b)
    reference = sum(
        (class_size(ct) * x * y for ct, x, y in zip(partitions_of(n), f.values, g.values)),
        Fraction(0),
    ) / math.factorial(n)
    got = inner_product(f, g)
    assert got == reference and type(got) is Fraction
    assert inner_product(g, f) == got
    other = ClassFunction(n + 1, (0,) * len(partitions_of(n + 1)))
    with pytest.raises(ValueError, match="different groups"):
        inner_product(f, other)


def test_regular_character_fixed_point_oracle():
    # sum of f^lam * chi_lam is n! at the identity and 0 elsewhere
    for n in range(1, 7):
        parts = partitions_of(n)
        for idx, ct in enumerate(parts):
            total = sum(
                specht_dimension(lam) * irreducible_character(lam, ct) for lam in parts
            )
            assert total == (math.factorial(n) if ct == (1,) * n else 0)


def test_young_permutation_character_decomposes_by_kostka():
    for n in range(6):
        for mu in partitions_of(n):
            table = decompose_class_function(young_permutation_character(mu))
            for lam in partitions_of(n):
                assert table.multiplicities[lam] == kostka(lam, mu)


def test_decompose_rejects_non_characters():
    sign = irreducible_class_function((1, 1, 1))
    trivial = irreducible_class_function((3,))
    fake = ClassFunction(3, tuple(s - 2 * t for s, t in zip(sign.values, trivial.values)))
    with pytest.raises(NotACharacterError):
        decompose_class_function(fake)


def _combination(n, coefficients):
    """The class function sum_lam c_lam chi^lam, read off
    ``irreducible_character`` one value at a time."""
    parts = partitions_of(n)
    return ClassFunction(
        n,
        tuple(
            sum(c * irreducible_character(lam, ct) for c, lam in zip(coefficients, parts))
            for ct in parts
        ),
    )


_COMBINATIONS = st.integers(0, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, 4), min_size=len(partitions_of(n)), max_size=len(partitions_of(n))),
    )
)


@settings(max_examples=60, deadline=None)
@given(_COMBINATIONS)
def test_decompose_recovers_random_characters(case):
    n, coefficients = case
    table = decompose_class_function(_combination(n, coefficients))
    assert table.multiplicities == dict(zip(partitions_of(n), coefficients))
    assert all(type(m) is int for m in table.multiplicities.values())


@settings(max_examples=60, deadline=None)
@given(_COMBINATIONS, st.data())
def test_decompose_rejects_negative_and_fractional_multiplicities(case, data):
    """A negative coefficient, or half of a combination with an odd
    coefficient, is a virtual or non-integral class function."""
    n, coefficients = case
    at = data.draw(st.integers(0, len(coefficients) - 1))
    negative = list(coefficients)
    negative[at] = -1 - negative[at]
    with pytest.raises(NotACharacterError):
        decompose_class_function(_combination(n, negative))
    odd = list(coefficients)
    odd[at] = 2 * odd[at] + 1
    f = _combination(n, odd)
    half = ClassFunction(n, tuple(v / 2 for v in f.values))
    with pytest.raises(NotACharacterError, match="/2"):
        decompose_class_function(half)


def test_class_function_dimension():
    chi = irreducible_class_function((2, 1))
    assert chi.dimension == 2
    assert chi((1, 1, 1)) == 2
    assert chi((3,)) == -1


@pytest.mark.parametrize("inexact", [0.1, 1.0, True, False])
def test_class_function_refuses_floats_and_bools(inexact):
    with pytest.raises(TypeError) as excinfo:
        ClassFunction(2, (inexact, 1))
    assert repr(inexact) in str(excinfo.value)
    exact = ClassFunction(2, (Fraction(1, 10), 1))
    assert exact.values == (Fraction(1, 10), 1) and type(exact.values[1]) is Fraction


@pytest.mark.parametrize("cycle_type", [(2, 2), (2,), ()])
def test_class_function_rejects_a_cycle_type_of_another_size(cycle_type):
    chi = irreducible_class_function((2, 1))
    with pytest.raises(ValueError) as excinfo:
        chi(cycle_type)
    assert str(excinfo.value) == f"cycle type {cycle_type} is not a partition of n = 3"


def test_specht_matrices_satisfy_coxeter_relations():
    for lam in [(2, 1), (2, 2), (3, 1), (2, 1, 1)]:
        mats = specht_matrices(lam)
        d = specht_dimension(lam)
        n = sum(lam)
        assert len(mats) == n - 1
        eye = SparseMatrix.identity(d).columns
        for g in mats:
            assert g.rows == g.cols == d
            assert g.compose(g).columns == eye
        for i in range(len(mats) - 1):
            a, b = mats[i], mats[i + 1]
            assert a.compose(b).compose(a).columns == b.compose(a).compose(b).columns
        for i in range(len(mats)):
            for j in range(i + 2, len(mats)):
                assert mats[i].compose(mats[j]).columns == mats[j].compose(mats[i]).columns


SPECHT_DIGEST = "1d67c5bd9d89a45a182a646c679eabaf9f2474679437697ec83e577d6d5e824b"
FREE_MODULE_DIGEST = "7179dd2c41d3ca54aadfcdcb62fa2427324b2e6c1063c75ff3dbfad85724faa5"


def test_specht_matrices_are_pinned_by_digest():
    # entries, their types and each column's row order, for every lam of n <= 7
    doc = {
        str(lam): [
            [sorted((r, int(v), type(v).__name__) for r, v in c.items()) for c in m.columns]
            for m in specht_matrices(lam)
        ]
        for n in range(1, 8)
        for lam in partitions_of(n)
    }
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == SPECHT_DIGEST
    for lam in partitions_of(5):
        for m in specht_matrices(lam):
            assert all(list(c) == sorted(c) for c in m.columns)


def test_free_module_documents_are_pinned_by_digest():
    text = "".join(
        dumps_module(free_module(lam, 7)) for n in range(1, 6) for lam in partitions_of(n)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == FREE_MODULE_DIGEST


def test_specht_matrices_off_the_basis_raise(monkeypatch):
    tableaux = symrep.standard_tableaux
    monkeypatch.setattr(symrep, "standard_tableaux", lambda lam: tableaux(lam)[:-1])
    with pytest.raises(CrossCheckError, match="polytabloid of \\(2, 1\\) off the support"):
        specht_matrices((2, 1))


def test_specht_matrices_off_the_integral_span_raise(monkeypatch):
    polytabloid = symrep._polytabloid

    def doubled(t, perms):
        e = polytabloid(t, perms)
        return {key: 2 * c for key, c in e.items()} if t == ((1, 2), (3,)) else e

    monkeypatch.setattr(symrep, "_polytabloid", doubled)
    with pytest.raises(CrossCheckError, match="off the integral span"):
        specht_matrices((2, 1))


def test_specht_traces_match_characters():
    for n in range(2, 6):
        for lam in partitions_of(n):
            generators = specht_matrices(lam)
            for ct in partitions_of(n):
                mat = SparseMatrix.identity(specht_dimension(lam))
                for i in conjugacy_class_word(ct):
                    mat = mat.compose(generators[i - 1])
                trace = sum(col.get(j, 0) for j, col in enumerate(mat.columns))
                assert trace == irreducible_character(lam, ct)
    # the class-tree walk over the generators reads the same characters
    for n in range(7):
        for lam in partitions_of(n):
            generators = specht_matrices(lam)
            chi = action_character(
                n, specht_dimension(lam), lambda g, vecs: generators[g - 1].apply_columns(vecs)
            )
            assert chi == irreducible_class_function(lam), lam


def _word_traces(n, generators):
    """Per class, the trace of the product s_{w_m} ... s_{w_1} of its word
    w_1 ... w_m, built with ``compose`` from the identity."""
    dim = generators[0].rows if generators else 0
    traces = []
    for ct in partitions_of(n):
        mat = SparseMatrix.identity(dim)
        for g in conjugacy_class_word(ct):
            mat = generators[g - 1].compose(mat)
        traces.append(sum(col.get(j, 0) for j, col in enumerate(mat.columns)))
    return traces


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_action_character_off_a_representation_is_the_trace_of_each_word(data):
    """Random rational generators break the Coxeter relations, and the class
    tree walk then reads the trace of each class word's product."""
    n = data.draw(st.integers(2, 5))
    dim = data.draw(st.integers(1, 4))
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
    generators = [
        SparseMatrix(dim, dim, [{r: data.draw(entries) for r in range(dim)} for _ in range(dim)])
        for _ in range(n - 1)
    ]
    chi = action_character(n, dim, lambda g, vecs: generators[g - 1].apply_columns(vecs))
    assert chi.values == tuple(_word_traces(n, generators))


def test_action_character_of_a_non_representation_fails_to_decompose():
    # s_1 = [[1, 1], [0, 0]] is not an involution, and its trace 1 on a plane
    # gives the trivial character multiplicity 3/2
    generators = [SparseMatrix(2, 2, [{0: 1}, {0: 1}])]
    chi = action_character(2, 2, lambda g, vecs: generators[g - 1].apply_columns(vecs))
    assert chi.values == (1, 2) == tuple(_word_traces(2, generators))
    with pytest.raises(NotACharacterError):
        decompose_class_function(chi)


def test_action_character_on_trivial_groups_and_spaces():
    def never(g, vecs):
        raise AssertionError("no generator to apply")

    assert action_character(0, 3, never) == ClassFunction(0, (3,))
    assert action_character(1, 2, never) == ClassFunction(1, (2,))
    for n in range(5):
        # the zero space: every value 0, and ``act`` is never called
        assert action_character(n, 0, never).values == (0,) * len(partitions_of(n))


def test_padding_and_weight():
    assert pad_partition((1,), 3) == (2, 1)
    assert pad_partition((), 4) == (4,)
    assert pad_partition((2, 1), 6) == (3, 2, 1)
    assert unpad_partition((3, 2, 1)) == (2, 1)
    assert weight((3, 2, 1)) == 3
    assert weight(()) == 0
    with pytest.raises(ValueError):
        pad_partition((2, 2), 5)  # needs k >= lam_1 + |lam| = 6


@given(partitions_upto(5), st.integers(min_value=0, max_value=14))
def test_pad_unpad_roundtrip(lam, k):
    first = lam[0] if lam else 0
    if k >= first + sum(lam):
        padded = pad_partition(lam, k)
        assert sum(padded) == k
        assert unpad_partition(padded) == lam
    else:
        with pytest.raises(ValueError):
            pad_partition(lam, k)


def test_gn_dimension_closed_forms():
    for k in range(1, 9):
        assert gn_dimension(1, k) == k - 1
    assert gn_dimension(2, 4) == 5
    assert gn_dimension(3, 5) == 14
    assert gn_dimension(0, 3) == 1
    for n, k in [(2, 5), (3, 6), (4, 8)]:
        alternating = sum(
            (-1) ** (n - i) * math.comb(n, i) * math.factorial(k) // math.factorial(k - i)
            for i in range(n + 1)
        )
        assert gn_dimension(n, k) == alternating
    with pytest.raises(StableRangeError):
        gn_dimension(3, 4)


def test_gn_character_weight_concentration():
    for n in range(4):
        for k in range(2 * n, 9):
            for lam in partitions_of(k):
                value = gn_character(n, k, lam)
                if weight(lam) != n:
                    assert value == 0
                else:
                    content = tuple(x for x in (k - n,) + (1,) * n if x)
                    assert value == kostka(lam, content)


def test_gn_character_range_and_input_checks():
    with pytest.raises(StableRangeError):
        gn_character(2, 3, (2, 1))
    with pytest.raises(ValueError):
        gn_character(1, 4, (2, 1))


def test_gn_dimension_equals_weighted_specht_sum():
    for n in range(4):
        for k in range(max(1, 2 * n - 1), 8):
            total = 0
            for mu in partitions_of(n):
                first = mu[0] if mu else 0
                if k >= first + n:
                    total += specht_dimension(mu) * specht_dimension(pad_partition(mu, k))
            assert gn_dimension(n, k) == total


def test_kostka_reduction_identity():
    for k in range(1, 11):
        for lam in partitions_of(k):
            if lam[0] < k - 4:
                continue
            for i in range(0, min(4, lam[0], k - 1) + 1):
                lhs, rhs = kostka_reduction(lam, i)
                assert lhs == rhs, (lam, i)


def test_kostka_reduction_input_checks():
    with pytest.raises(ValueError):
        kostka_reduction((), 0)
    with pytest.raises(ValueError):
        kostka_reduction((2, 1), 3)
    with pytest.raises(StableRangeError):
        kostka_reduction((1, 1, 1), 2)


@given(partitions_upto(6))
@settings(max_examples=50)
def test_irreducible_norm_one(lam):
    chi = irreducible_class_function(lam)
    assert inner_product(chi, chi) == 1
    assert chi.dimension == specht_dimension(lam)


def test_branching_count_matches_the_listed_tableaux():
    for n in range(11):
        for lam in partitions_of(n):
            assert symrep._tableau_count(lam) == len(standard_tableaux(lam))


def test_specht_dimension_beyond_listing_scale():
    # 2,311,155 standard tableaux: the count must not list them
    assert specht_dimension((24, 3, 3)) == 2311155


def test_hook_formula_mismatch_raises(monkeypatch):
    monkeypatch.setattr(symrep, "_tableau_count", lambda lam: 0)
    with pytest.raises(CrossCheckError, match="tableau count"):
        specht_dimension((2, 1))


def test_decomposition_reconstruction_mismatch_raises(monkeypatch):
    # a zero table passes the multiplicity check (every multiplicity is 0)
    # and reconstructs 0, not the input
    f = irreducible_class_function((2, 1))
    monkeypatch.setattr(symrep, "character_table", lambda n: ((0,) * 3,) * 3)
    with pytest.raises(CrossCheckError, match="reconstruct"):
        decompose_class_function(f)


def test_layer_dimension_routes_mismatch_raises(monkeypatch):
    monkeypatch.setattr(symrep, "specht_dimension", lambda lam: 0)
    with pytest.raises(CrossCheckError, match="routes disagree"):
        gn_dimension(2, 5)
