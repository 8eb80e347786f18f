"""Exact rational calculus for modules over finite sets and injections.

Layers, bottom up:

- ``combinat``: injections, their factorizations, and partial-bijection posets;
- ``exactla``: exact linear algebra over the rationals and integers
  (one sparse rational elimination core, Smith normal form, chain-complex
  homology, integrally after unit-pivot elimination);
- ``symrep``: symmetric-group characters, Specht modules, Kostka numbers,
  padded partitions, and the stable multiplicity counts;
- ``fimod``: the module calculus itself — truncations, polynomiality,
  cross-effect cubes, Taylor coefficients, and the prediction dictionary;
- ``nervehom``: integral homology certificates for the matching-poset nerves;
- ``cli``: the ``fi-calc`` command-line surface.

Everything is computed in exact arithmetic; no floats appear anywhere.
"""

__version__ = "0.1.0"

from . import combinat, exactla, symrep  # noqa: F401
from .fimod import (  # noqa: F401
    FIModule,
    coefficient_profile,
    dictionary_prediction,
    free_module,
    is_polynomial,
    load_module,
    q_truncation,
    representable,
    save_module,
    stable_decomposition,
    taylor_coefficient,
    validate,
)
from .nervehom import (  # noqa: F401
    chessboard_complex,
    complex_homology,
    connectivity_check,
    order_complex,
    wedge_certificate,
)
