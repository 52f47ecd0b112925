"""Splitting reports for the built-in physical models.

Covers cyclic torus-knot matrices, cavity sensing matrices, the six-node
sensing circuit at its sixth-order degeneracy, nonreciprocal hopping chains,
and momentum paths through the band touchings of a lossy Lieb lattice.
"""

from tropeig import tropical_roots
from tropeig.models import default_families, torus_knot

families = [torus_knot(2, 3), torus_knot(3, 2), torus_knot(3, 2, "kx_only")]
families += default_families()

for fam in families:
    report = tropical_roots(fam.charpoly)
    roots = "  ".join(f"[{r.omega}, x{r.multiplicity}]" for r in report.roots) or "-"
    zeros = f"  (+{report.zero_root_count} flat)" if report.zero_root_count else ""
    check = "ok" if report == fam.expected else "MISMATCH"
    notes = f"   <{'; '.join(fam.annotations)}>" if fam.annotations else ""
    print(f"{fam.name:34s} {roots}{zeros}   [{check}]{notes}")
