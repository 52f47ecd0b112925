"""Open-system example: multiblock degeneracy of a vectorized generator.

A four-level system with decay to the ground state is postselected onto its
excited manifold.  Tuned to the third-order exceptional point of the
effective Hamiltonian, the jump-free 9x9 generator carries Jordan blocks
(5, 3, 1) at a single eigenvalue; switching on weak inter-level dissipation
splits it into branches of orders 1/5, 1/3 and 1.
"""

import numpy as np

from tropeig import fit_exponents, tropical_roots, tropicalize, weyr_structure
from tropeig.models import (effective_hamiltonian, effective_liouvillian_example,
                            effective_liouvillian_matrix)


def dense(m, t):
    return np.array([[x.evaluate(t) for x in row] for row in m.rows], dtype=complex)


h, gamma3 = effective_hamiltonian()
h_num = np.array([[x.to_complex() for x in row] for row in h])
print("effective Hamiltonian block structure at the tuning point:",
      weyr_structure(h_num, -0.5j * float(gamma3)).partition)

jump_free = dense(effective_liouvillian_matrix(recenter=False), 0.0)
print("jump-free 9x9 generator blocks at lambda = -gamma3:",
      weyr_structure(jump_free, -float(gamma3)).partition)

family = effective_liouvillian_example()
print("\ndegenerate eigenvalue: lambda_EP =", family.parameters["lambda_EP"])

poly = tropicalize(family.realization)
print("tropical terms (slope, intercept):", poly.terms)

report = tropical_roots(family.realization)
print("splitting:", [(str(r.omega), r.multiplicity) for r in report.roots])

result = fit_exponents(family)
print("numeric fit:", "pass" if result.passed else "FAIL",
      [(round(c.exponent, 4), c.size) for c in result.clusters])

gamma = 0.2
eigs = np.linalg.eigvals(dense(effective_liouvillian_matrix(recenter=False), gamma))
print(f"\nspectrum at dissipation scale {gamma} (recentering off):")
for lam in sorted(eigs, key=lambda z: z.real):
    print(f"  {lam:+.4f}")
