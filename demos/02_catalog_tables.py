"""Catalog of perturbed nilpotent Jordan structures for n = 2, 3, 4.

For every block partition: the generic one-parameter direction plus the
named non-generic directions, each with its computed splitting.  Generic
rows are starred.
"""

from tropeig import catalog_families, tropical_roots

for n in (2, 3, 4):
    print(f"\n=== dimension {n} " + "=" * 40)
    for fam in catalog_families(n):
        report = tropical_roots(fam.charpoly)
        roots = "  ".join(f"[{r.omega}, x{r.multiplicity}]" for r in report.roots) or "-"
        p = fam.parameters
        star = "*" if p["generic"] else " "
        zeros = f"  (+{report.zero_root_count} flat)" if report.zero_root_count else ""
        agree = "" if report == fam.expected else "  << DISAGREES WITH EXPECTATION"
        print(f" {star} {str(p['partition']):12s} {p['constraint']:14s} "
              f"{roots}{zeros}{agree}")

print("\nslopes used for the generic rank-4 directions (seed 0):")
for fam in catalog_families(4):
    p = fam.parameters
    if p["generic"]:
        slopes = {k: str(v.re) for k, v in sorted(p["direction"].items()) if v}
        print(f"  {p['partition']}: {slopes}")
