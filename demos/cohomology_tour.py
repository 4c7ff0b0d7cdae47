#!/usr/bin/env python3
"""A walk through the middle cohomology of the Klein cubic.

Everything here is exact linear algebra: the Jacobian ring dimensions,
one pole-order reduction worked in full, the matrix of the coordinate
rotation, and its eigenspace decomposition over Q(zeta_5).
"""

from fractions import Fraction

from kleinzeta.gdcohom import (CycPoly, RationalDifferential, alpha_pullback, eigenspace_split,
                               degree_data, fil2_eigenvector_map, gorenstein_pairing_matrix,
                               griffiths_reduce, h3_basis, jacobian_generators)

print("partials of the cubic (degree 2, cyclic shifts):")
for i, g in enumerate(jacobian_generators()):
    print(f"  dS/dx{i} =", g.dict())

print("\nJacobian ring dimensions by degree:",
      [degree_data(d).quotient_dim for d in range(7)])

basis = h3_basis()
print("\npole-2 block (Hodge filtration):", [m for m in basis.pole2_monomials])
print("pole-3 block (degree-4 complement):", [m for m in basis.pole3_monomials])

print("\nreduction example: (2 x0^3 x1 + x0^2 x4^2) Omega / S^3")
A = CycPoly.make({(3, 1, 0, 0, 0): Fraction(2), (2, 0, 0, 0, 2): Fraction(1)})
coords = griffiths_reduce(RationalDifferential(A, 3))
print("  numerator = x0^2 * dS/dx0, so the class drops to pole order 2:")
print("  coordinates:", [str(c) for c in coords], " (that is x0 Omega / S^2)")

M = alpha_pullback()
print("\nrotation pullback matrix (columns = images of the basis):")
for row in M:
    print("  ", [str(c) for c in row])

split = eigenspace_split(M)
print("\neigenspace dimensions over Q(zeta_5):",
      {f"zeta^{j}": d for j, d in enumerate(split.dims)})
print("intersections with the Hodge block:",
      {f"zeta^{j}": d for j, d in enumerate(split.fil2_dims)})
print("Fourier vectors v_j map to eigenvalues:", fil2_eigenvector_map(M))

pairing = gorenstein_pairing_matrix()
print("\nGorenstein pairing (R/J)_1 x (R/J)_4 -> socle:")
for row in pairing:
    print("  ", [str(c) for c in row])
print("\nall ten classes accounted for; the five two-dimensional eigenspaces")
print("each meet the Hodge block in exactly one line.")
