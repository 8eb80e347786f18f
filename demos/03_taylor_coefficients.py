"""
Module windows and their Taylor coefficients
============================================

A module window stores E(0..K) with its symmetric-group actions and
inclusion maps.  Cross-effect cubes plus tail coinvariants extract the
stable coefficients C_n E, each a virtual representation of S_n living in
homological degree 0 for the modules built here.
"""

from ficalc.fimod import (
    delta_coefficient_shift_check,
    free_module,
    q_truncation,
    representable,
    taylor_coefficient,
    validate,
)
from ficalc.symrep import decompose_class_function, partitions_of

# The module of injections out of a 2-point set, stored through degree 6.
F2 = representable(2, 6)
print("dims of representable(2):", F2.dims)
print("axioms hold:", validate(F2).valid)

# A free module on the sign representation of S_2.
M11 = free_module((1, 1), 6)
print("dims of free((1,1)):", M11.dims)

# Coefficients of the representable: dimension m!/(m-n)! in degree 0,
# nothing in higher homological degrees.
for n in range(4):
    coeff = taylor_coefficient(F2, n)
    print(f"C_{n} of representable(2): dims {coeff.dims}, "
          f"witness stage {coeff.witness}")

# The second coefficient carries the regular character of S_2.
c2 = taylor_coefficient(F2, 2)
traces = tuple(int(v) for v in c2.characters[0].values)
print("classes", partitions_of(2), "-> traces", traces)
print("decomposed:", decompose_class_function(c2.characters[0]).nonzero())

# The free module sees exactly its generating representation.
c = taylor_coefficient(M11, 2)
traces = tuple(int(v) for v in c.characters[0].values)
print("C_2 of free((1,1)) traces:", traces, "(the sign character)")

# Truncations: the part generated in degrees <= n.  At the generation
# bound the comparison map to E(k) is an isomorphism at every degree.
print("truncation at level 1, degree 4:",
      q_truncation(F2, 1, 4).dimension, "dimensional (proper)")
print("truncation at level 2, degree 4 iso:",
      q_truncation(F2, 2, 4).is_isomorphism)

# Derivatives shift coefficients: the i-th coefficient of the n-th
# derivative D^n E = coker(E -> SE), iterated, is computed on a module of
# its own and matches the (n+i)-th coefficient of E restricted to an i-block.
result = delta_coefficient_shift_check(F2, 1, 1)
print("shift check (n=1, i=1): dims", result.lhs.dims,
      "equal:", result.equal)
