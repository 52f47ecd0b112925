"""Walkthrough: from a perturbed matrix to its splitting exponents.

Take the 3x3 nilpotent chain with two perturbing entries in the bottom row,
restrict to the line d31 = 2t, d32 = -t, and read off how the triple
eigenvalue at 0 splits for small t.
"""

import numpy as np

from tropeig import (PolyMatrix, ScalarPoly, charpoly_direct, newton_polygon,
                     tropical_roots, tropicalize)

t = ScalarPoly.t()

m = PolyMatrix([
    [0, 1, 0],
    [0, 0, 1],
    [t.scale(2), -t, 0],
])

cp = charpoly_direct(m)
print("characteristic coefficients a_i(t), i = 0..3:")
for i, coeff in enumerate(cp.coeffs):
    print(f"  a_{i} = {coeff}")

poly = tropicalize(cp)
print("\ntropical polynomial: min over terms (alpha + k*omega):")
for k, alpha in poly.terms:
    print(f"  {alpha} + {k}*omega")

polygon = newton_polygon(cp)
print("\nNewton polygon lower hull vertices:", polygon.hull)

report = tropical_roots(cp)
print("\npredicted splitting:")
for root in report.roots:
    print(f"  omega = {root.omega}   multiplicity {root.multiplicity}")
print(f"  identically-zero branches: {report.zero_root_count}")

print("\nnumeric check (|eigenvalue| against t^(1/3)):")
for exponent in (4, 6, 8):
    tt = 10.0 ** -exponent
    arr = np.array([[x.evaluate(tt) for x in row] for row in m.rows], dtype=complex)
    lam = max(abs(z) for z in np.linalg.eigvals(arr))
    print(f"  t = 1e-{exponent}:  max|lambda| = {lam:.3e},  t^(1/3) = {tt ** (1 / 3):.3e}")
