"""Exact values pinned from the dense-elimination implementation.

The rational solvers (kernels, cokernels, homology representatives and
coordinates, coefficient transition matrices) and the
unimodular transforms of Smith normal form must keep returning these very
matrices, entry for entry, whatever elimination engine or pivot bookkeeping
computes them.
"""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from ficalc.exactla import (
    ChainComplex,
    Matrix,
    RationalComplexHomology,
    SparseMatrix,
    cokernel,
    invariant_factors,
    kernel_basis,
    smith_normal_form,
)
from ficalc.fimod import CubeStage, coefficient_profile, free_module, representable


def _rows(m: Matrix | SparseMatrix):
    if isinstance(m, SparseMatrix):
        m = m.to_matrix()
    return (m.rows, m.cols, [[str(x) for x in r] for r in m.data])


A = Matrix.from_rows([[F(1, 2), 1, 0, 3], [2, 4, F(1, 3), 12], [1, 2, F(1, 3), 6]])
B = Matrix.from_rows([[0, 2, -1], [3, 0, F(1, 5)], [6, 4, F(-8, 5)], [1, 1, 1]])
C = Matrix.from_rows(
    [[0, 0, 0], [F(2, 7), 0, -1], [0, 0, 0], [F(4, 7), 0, -2], [1, F(-3, 2), 5]]
)

PINNED = {
    "A": (
        (4, 2, [["-2", "-6"], ["1", "0"], ["0", "0"], ["0", "1"]]),
        (1, (1, 3, [["1", "-1/2", "1/2"]])),
        (4, 2, [["11/2", "19/10"], ["0", "0"], ["2/3", "1/4"], ["0", "0"]]),
    ),
    "B": (
        (3, 0, [[], [], []]),
        (1, (1, 4, [["1", "1", "-1/2", "0"]])),
        (3, 2, [["0", "-1/2"], ["1/2", "0"], ["2/3", "1/4"]]),
    ),
    "C": (
        (3, 1, [["7/2"], ["17/3"], ["1"]]),
        (
            3,
            (
                3,
                5,
                [
                    ["1", "0", "0", "0", "0"],
                    ["0", "1", "0", "-1/2", "0"],
                    ["0", "0", "1", "0", "0"],
                ],
            ),
        ),
        (3, 2, [["-7/3", "-11/8"], ["-59/18", "-17/12"], ["0", "0"]]),
    ),
}


@pytest.mark.parametrize("name,a", [("A", A), ("B", B), ("C", C)])
def test_pinned_kernel_cokernel_solve(name, a):
    kernel, (dim, proj), _solution = PINNED[name]
    assert _rows(kernel_basis(SparseMatrix.from_matrix(a)).to_matrix()) == kernel
    got_dim, got_proj = cokernel(SparseMatrix.from_matrix(a))
    assert (got_dim, _rows(got_proj)) == (dim, proj)


def test_pinned_free_module_transitions():
    prof = coefficient_profile(free_module((2, 1), 8))
    assert [_rows(t) for t in prof.transitions] == [
        (1, 0, [[]]),
        (2, 1, [["1"], ["1"]]),
        (2, 2, [["1", "0"], ["0", "1"]]),
    ]


def test_pinned_representable_transitions():
    prof = coefficient_profile(representable(3, 7))
    identity6 = [["1" if i == j else "0" for j in range(6)] for i in range(6)]
    assert [_rows(t) for t in prof.transitions] == [
        (3, 1, [["1"], ["1"], ["1"]]),
        (
            6,
            3,
            [
                ["1", "0", "0"],
                ["1", "0", "0"],
                ["0", "1", "0"],
                ["0", "0", "1"],
                ["0", "1", "0"],
                ["0", "0", "1"],
            ],
        ),
        (6, 6, identity6),
    ]


def test_pinned_cube_stage_representatives():
    reps = CubeStage(free_module((2, 1), 7), 3, 2).homology.representatives(0)
    assert _rows(reps) == (11, 2, [["1", "0"], ["0", "1"]] + [["0", "0"]] * 9)


def _two_loops() -> ChainComplex:
    """Triangles 012 and 034 glued at 0, with the face 013 filled in."""
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (3, 4)]
    d1 = [[0] * len(edges) for _ in range(5)]
    for j, (a, b) in enumerate(edges):
        d1[a][j], d1[b][j] = -1, 1
    d2 = [[0] for _ in edges]
    for face, sign in (((1, 3), 1), ((0, 3), -1), ((0, 1), 1)):
        d2[edges.index(face)][0] = sign
    return ChainComplex(
        (5, 7, 1),
        (SparseMatrix.from_matrix(Matrix.from_rows(d1)), SparseMatrix.from_matrix(Matrix.from_rows(d2))),
    )


def test_pinned_homology_representatives_and_coordinates():
    solver = RationalComplexHomology(_two_loops())
    assert solver.dims() == (1, 2, 0)
    assert [_rows(solver.representatives(i)) for i in range(3)] == [
        (5, 1, [["1"], ["0"], ["0"], ["0"], ["0"]]),
        (
            7,
            2,
            [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"], ["1", "0"], ["0", "0"], ["0", "1"]],
        ),
        (1, 0, [[]]),
    ]
    cycle = [F(3, 2), -1, F(3, 2), -2, 1, F(1, 2), 2]
    assert solver.express(1, dict(enumerate(cycle))) == {0: 1, 1: 2}


SNF_PINNED = [
    (
        [[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
        [[1, 0, 0], [2, -1, -1], [3, -4, -3]],
        [2, 6, 12],
        [[1, -2, 2], [0, 1, -2], [0, 0, 1]],
    ),
    (
        [[0, 3, 0, 6], [4, 0, 2, 0], [0, 6, 0, 9]],
        [[1, 1, 0], [4, 3, -1], [2, 3, 0]],
        [1, 3, 6],
        [[0, 0, 0, 1], [1, -2, 2, 0], [-1, 0, 3, -2], [0, 1, -2, 0]],
    ),
    (
        [[1, 1, 0, 0], [-1, 0, 1, 0], [0, -1, -1, 2], [0, 0, 0, -2], [3, 1, -2, 0]],
        [[1, 0, 0, 0, 0], [1, 1, 0, 0, 0], [1, 1, 1, 0, 0], [1, 1, 1, 1, 0], [-1, 2, 0, 0, 1]],
        [1, 1, 2, 0],
        [[1, -1, 0, 1], [0, 1, 0, -1], [0, 0, 0, 1], [0, 0, 1, 0]],
    ),
]


@pytest.mark.parametrize("a,u,diag,v", SNF_PINNED)
def test_pinned_smith_transforms(a, u, diag, v):
    got_u, got_d, got_v = smith_normal_form(Matrix.from_rows(a))
    assert got_u == Matrix.from_rows(u)
    assert [got_d.entry(i, i) for i in range(len(diag))] == diag
    assert got_v == Matrix.from_rows(v)


def _random_integer_matrices(count: int, seed: int):
    """Seeded integer matrices up to 7x7, empty shapes (0xk, kx0) included,
    of mixed density and with entries bounded by 1, 3 or 50."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        density = rng.choice((0.15, 0.4, 1.0))
        bound = rng.choice((1, 3, 50))
        entries = [
            rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(rows * cols)
        ]
        yield Matrix(rows, cols, entries)


def test_pinned_smith_normal_form_digest():
    """U, D, V and the invariant factors of 1,000 random matrices, pinned as
    one digest: a change in any pivot choice or elimination step shows."""
    results = []
    for a in _random_integer_matrices(1000, seed=13):
        u, d, v = smith_normal_form(a)
        results.append(
            [[[int(x) for x in r] for r in m.data] for m in (u, d, v)] + [invariant_factors(a)]
        )
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest == "a2e8bafac5a7f281b01214cf2e1ae7cca9b4ef8ba8198d6e7366b48e6a6c8679"
