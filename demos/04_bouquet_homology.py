"""
Nerves of matching posets are bouquets of spheres
=================================================

The order complex of the poset of nonempty partial matchings between an
n-set and a k-set has, for k >= 2n-1, the reduced integral homology of a
wedge of (n-1)-spheres -- no torsion, one degree, and a sphere count that
matches the stable layer dimension from the character side.

The matchings themselves are the faces of the chessboard complex M_{n,k}
(vertices: the n*k pairs (source, target)), so the nerve is its barycentric
subdivision and the two have the same homology.  The certificate runs on the
much smaller M_{n,k}; the nerve stays available as an independent check.
"""

from ficalc.combinat import build_poset
from ficalc.nervehom import (
    chessboard_complex,
    complex_homology,
    connectivity_check,
    order_complex,
    wedge_certificate,
)
from ficalc.symrep import gn_dimension

# Build the order complex: one simplex per chain of matchings.
P = build_poset(2, 4)
C = order_complex(P)
print("P(2,4): vertices", C.size(0), "edges", C.size(1))
print("Euler characteristic:", C.euler_characteristic())

# Reduced integral homology: unit pivots, then Smith normal form of the leftovers.
result = complex_homology(C)
print("reduced betti:", result.betti, "torsion:", result.torsion)

# The same homology from the chessboard complex M_{2,4}: 8 vertices and 12
# edges instead of the nerve's 20 vertices and 24 edges.
M = chessboard_complex(2, 4)
print("M_{2,4}: vertices", M.size(0), "edges", M.size(1))
print("same homology as the nerve:", complex_homology(M) == result)

# The certificate computes on M_{n,k} and re-checks every part of the claim.
cert = wedge_certificate(2, 4)
print(cert)

# The sphere count equals the layer dimension computed from characters --
# two completely different pipelines landing on the same integer.
print("matches gn_dimension(2,4):", cert.rank == gn_dimension(2, 4))

# A sweep over the certified range (n = 1 needs k >= 1, n = 2 needs k >= 3).
for n in (1, 2):
    for k in range(2 * n - 1, 6):
        cert = wedge_certificate(n, k)
        print(f"  P({n},{k}): {cert.rank} spheres of dimension {n - 1}")

# Below the range nothing is claimed, but the homology is still available.
low = complex_homology(order_complex(build_poset(2, 2)))
print("P(2,2) reduced betti (uncertified range):", low.betti)

# Connectivity by union-find over the covers, no homology needed.
print("P(2,3) connected:", connectivity_check(2, 3))
print("P(1,3) connected:", connectivity_check(1, 3),
      "(singleton matchings never overlap)")
