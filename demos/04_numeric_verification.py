"""Numerically confirm predicted exponents and braids.

Scaled-root checks: for each predicted exponent omega the characteristic
polynomial is rescaled by lambda = t^omega * mu, and at two values of t two
decades apart the roots nearest the edge polynomial's roots must approach
them; their two-point exponent is printed.

Braids: eigenvalues are continued once around a small circle in the
parameter; each group of branches sharing a Puiseux series permutes
cyclically.
"""

from tropeig import braid_loop, catalog_families, fit_exponents
from tropeig.models import circuit_laplacian, hatano_nelson

print("exponent fits")
for fam in (hatano_nelson(5, "obc"), hatano_nelson(5, "unidirectional"),
            circuit_laplacian("epsilon")):
    result = fit_exponents(fam)
    clusters = "  ".join(f"{c.exponent:+.4f} x{c.size}" for c in result.clusters)
    print(f"  {fam.name:34s} pass={result.passed}  {clusters}"
          + (f"  zeros={result.zero_tracks}" if result.zero_tracks else ""))

print("\nbraids around the degeneracy (loop radius 1e-6)")
for n in (3, 4):
    for fam in catalog_families(n):
        if not fam.parameters["generic"]:
            continue
        braid = braid_loop(fam, eps0=1e-6, steps=96)
        print(f"  {fam.name:24s} permutation={braid.permutation} "
              f"cycles={braid.cycle_lengths}")
