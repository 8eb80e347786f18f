"""Symmetric-group decompositions of module stages and the stable prediction.

Evaluating a module at degree k gives an S_k-representation.  Its
multiplicity table can either be computed directly (``stable_decomposition``)
or predicted from the Taylor coefficients alone (``dictionary_prediction``):
in the stable range each coefficient C_n contributes its irreducible
constituents mu, padded to partitions of k by a long first row.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..combinat import permutation_from_word
from ..symrep import (
    ClassFunction,
    Partition,
    RepDecomposition,
    StableRangeError,
    action_character,
    decompose_class_function,
    pad_partition,
    partitions_of,
    unpad_partition,
)
from .coefficients import CoefficientProfile
from .core import FIModule


class DictionaryInapplicableError(ValueError):
    """Raised when a coefficient has homology away from degree 0.

    In that case the degree-0 multiplicity tables do not determine the
    stable decomposition, so no prediction is made.
    """


def stage_character(module: FIModule, k: int) -> ClassFunction:
    """Character of the S_k-action on the degree-k stage of the module:
    ``action_character`` walking the whole basis down the class tree, one
    ``apply_permutation`` of an adjacent transposition to one image list per
    class.  Those images may share the module's columns and are only read.
    The values are the character only when the generator matrices satisfy
    the Coxeter relations (``validate``).  Each stage's character is computed
    once per module: it is kept under ("character", k) in the module's memo,
    so the dictionary, shift and stability checks of one module share it."""

    def build():
        swaps = {g: permutation_from_word([g], k) for g in range(1, k)}
        return action_character(
            k, module.dim(k), lambda g, vecs: module.apply_permutation(k, swaps[g], vecs)
        )

    return module.memo(("character", k), build)


def stable_decomposition(module: FIModule, k: int) -> RepDecomposition:
    """Irreducible multiplicities of the degree-k stage as an S_k-module.

    Raises the non-character error from ``decompose_class_function`` when the
    generator matrices do not assemble to an actual representation.
    """
    return decompose_class_function(stage_character(module, k))


def dictionary_prediction(profile: CoefficientProfile, k: int) -> RepDecomposition:
    """Predict the degree-k decomposition from a coefficient profile.

    Each coefficient C_n must be concentrated in homological degree 0; its
    constituents mu contribute mult(mu) copies of the padded partition
    (k - |mu|, mu).  Valid once k is at least twice the top nonzero
    coefficient index, and only from a profile that reaches the generation bound.
    """
    top = 0
    for n, coeff in enumerate(profile.coefficients):
        for degree, d in enumerate(coeff.dims):
            if degree > 0 and d:
                raise DictionaryInapplicableError(
                    f"coefficient {n} of {profile.module_name} has homology in "
                    f"degree {degree}; the degree-0 table does not determine "
                    "the stable decomposition"
                )
        if coeff.dims and coeff.dims[0]:
            top = n
    if k < 2 * top:
        raise StableRangeError(
            f"prediction needs k >= {2 * top} (top coefficient {top}), got {k}"
        )
    multiplicities = {lam: 0 for lam in partitions_of(k)}
    for coeff in profile.coefficients:
        if not coeff.dims or not coeff.dims[0]:
            continue
        table = decompose_class_function(coeff.characters[0])
        for mu, mult in table.nonzero().items():
            multiplicities[pad_partition(mu, k)] += mult
    return RepDecomposition(k, multiplicities)


@dataclass(frozen=True)
class StabilityReport:
    """Padded multiplicity trajectories of a module across a degree window.

    ``trajectories`` is keyed by the tail partition mu (the padded partition
    with its first row stripped); the value lists mult((k - |mu|, mu)) for
    k_min <= k <= k_max.  ``stable_from`` is the first degree from which
    every trajectory is constant onward.
    """

    k_min: int
    k_max: int
    trajectories: dict[Partition, tuple[int, ...]]
    stable_from: int

    @property
    def is_stable(self) -> bool:
        """Whether the pattern is constant on the whole window."""
        return self.stable_from == self.k_min


def representation_stability_check(module: FIModule, k_min: int) -> StabilityReport:
    """Track padded multiplicities of the module's stages from k_min onward.

    Decomposes every stage between ``k_min`` and the module's window end,
    records each tail partition's multiplicity trajectory, and reports the
    first degree from which all trajectories stay constant.
    """
    if k_min < 1:
        raise ValueError("k_min must be at least 1")
    k_max = module.max_degree
    if k_min > k_max:
        raise ValueError(f"k_min {k_min} exceeds the window end {k_max}")
    degrees = range(k_min, k_max + 1)
    tables = {k: stable_decomposition(module, k).nonzero() for k in degrees}
    tails = sorted(
        {unpad_partition(lam) for table in tables.values() for lam in table}
    )
    trajectories = {}
    for mu in tails:
        row = []
        for k in degrees:
            lam = pad_partition(mu, k) if k >= (mu[0] if mu else 0) + sum(mu) else None
            row.append(tables[k].get(lam, 0) if lam is not None else 0)
        trajectories[mu] = tuple(row)
    stable_from = k_min
    for mu, row in trajectories.items():
        for i in range(len(row) - 1, 0, -1):
            if row[i] != row[i - 1]:
                stable_from = max(stable_from, k_min + i)
                break
    return StabilityReport(
        k_min=k_min, k_max=k_max, trajectories=trajectories, stable_from=stable_from
    )
