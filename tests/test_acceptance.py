"""Acceptance suite: one test per shipping criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion; each test prints an explicit PASS marker when its assertions
hold.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from reference import (cardano_roots, conjugate_by, dense, jordan_matrix, lieb_degeneracy_points,
                       lieb_hamiltonian, liouvillian_from_nonhermitian, tropical_product)
from tropeig.charpoly import PolyMatrix, charpoly_direct, charpoly_traces
from tropeig.exact import ec
from tropeig.jordan import catalog_families, weyr_structure
from tropeig.models import (cavity_dynamical, circuit_laplacian, default_families,
                            hatano_nelson, lieb)
from tropeig.numeric import braid_loop, fit_exponents
from tropeig.poly import ScalarPoly
from tropeig.tropical import newton_polygon, tropical_roots, tropicalize

FIT_TOL = 0.05          # exponent match tolerance per cluster
CARDANO_RTOL = 1e-9     # closed form vs eigensolver
WEYR_TOL = 1e-8         # numerical rank threshold
BRAID_EPS = 1e-6        # loop radius, safely below any secondary degeneracy
BRAID_STEPS = 96


def _ok(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def rows(families):
    out = {}
    for fam in families:
        got = tropical_roots(fam.charpoly)
        assert got == fam.expected, fam.name
        out.setdefault(fam.parameters["partition"], []).append(
            (frozenset((r.omega, r.multiplicity) for r in got.roots),
             fam.parameters["generic"]))
    return out


def model_report(fam):
    report = tropical_roots(fam.charpoly)
    assert report == fam.expected, fam.name
    return {(r.omega, r.multiplicity) for r in report.roots}, report.zero_root_count


def test_criterion_01_rank2_catalog():
    start = time.monotonic()
    table = rows(catalog_families(2))
    assert (frozenset({(Fraction(1), 2)}), True) in table[(1, 1)]
    assert (frozenset({(Fraction(1, 2), 2)}), True) in table[(2,)]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _ok(1, f"rank-2 catalog exact in {elapsed:.3f}s")


def test_criterion_02_rank3_catalog():
    start = time.monotonic()
    table = rows(catalog_families(3))
    bold = {p: {r for r, g in v if g} for p, v in table.items()}
    assert bold[(1, 1, 1)] == {frozenset({(Fraction(1), 3)})}
    assert bold[(2, 1)] == {frozenset({(Fraction(1, 2), 2), (Fraction(1), 1)})}
    assert bold[(3,)] == {frozenset({(Fraction(1, 3), 3)})}
    nongeneric = sorted(
        tuple(sorted(r)) for v in table.values() for r, g in v if not g and r)
    assert nongeneric == sorted([
        ((Fraction(1), 2),),
        ((Fraction(2, 3), 3),),
        ((Fraction(1), 2),),
        ((Fraction(1, 2), 2),),
        ((Fraction(1, 2), 2),),
    ])
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _ok(2, f"rank-3 catalog rows exact in {elapsed:.3f}s")


def test_criterion_03_rank4_catalog():
    start = time.monotonic()
    table = rows(catalog_families(4))
    yielded = {p: {r for r, _ in v} for p, v in table.items()}
    printed = {
        (1, 1, 1, 1): [{(Fraction(1), 4)}, {(Fraction(1), 3)}, {(Fraction(1), 2)}],
        (2, 1, 1): [{(Fraction(1, 2), 2), (Fraction(1), 2)},
                    {(Fraction(2, 3), 3), (Fraction(1), 1)},
                    {(Fraction(1, 2), 2), (Fraction(1), 1)}],
        (2, 2): [{(Fraction(1, 2), 4)},
                 {(Fraction(1, 2), 2), (Fraction(1), 1)},
                 {(Fraction(2, 3), 3), (Fraction(1), 1)}],
        (3, 1): [{(Fraction(1, 3), 3), (Fraction(1), 1)},
                 {(Fraction(1, 2), 2), (Fraction(1), 1)},
                 {(Fraction(1, 2), 4)}],
        (4,): [{(Fraction(1, 4), 4)}, {(Fraction(1, 3), 3)}, {(Fraction(1, 2), 2)}],
    }
    for partition, wanted in printed.items():
        for row in wanted:
            assert frozenset(row) in yielded[partition], (partition, row)
    elapsed = time.monotonic() - start
    assert elapsed < 2.0
    _ok(3, f"rank-4 catalog rows exact in {elapsed:.3f}s "
           f"(incl. (2,2) -> (2/3,3)+(1,1) and (3,1) -> (1/2,4))")


def test_criterion_04_cavity_families():
    got, zeros = model_report(cavity_dynamical("d12"))
    assert got == {(Fraction(1, 3), 3)} and zeros == 0
    got, zeros = model_report(cavity_dynamical("d22_ep31"))
    assert got == {(Fraction(1), 1), (Fraction(1, 3), 3)} and zeros == 0
    got, zeros = model_report(cavity_dynamical("d22_ep4"))
    assert got == {(Fraction(1, 4), 4)} and zeros == 0
    _ok(4, "cavity presets split as 1/3 x3, {1, 1/3 x3}, 1/4 x4")


def test_criterion_05_circuit_families():
    got, zeros = model_report(circuit_laplacian("epsilon"))
    assert got == {(Fraction(1, 6), 6)} and zeros == 0
    got, zeros = model_report(circuit_laplacian("gamma_detune"))
    assert got == {(Fraction(1, 4), 4)} and zeros == 2
    _ok(5, "circuit bias -> 1/6 x6; rate detuning -> 1/4 x4 with 2 flat modes")


def test_criterion_06_nonreciprocal_chain():
    for L in (4, 5, 6, 7):
        got, zeros = model_report(hatano_nelson(L, "obc"))
        assert got == {(Fraction(1, 2), 2 * (L // 2))}
        assert zeros == L % 2
        got, zeros = model_report(hatano_nelson(L, "unidirectional"))
        assert got == {(Fraction(1, L), L)} and zeros == 0
    _ok(6, "chains L=4..7: obc pairs of EP2s, unidirectional single EP-L")


def test_criterion_07_lieb_paths_and_weyr():
    for path, want in (("arccot_antidiag", (Fraction(1, 2), 2)),
                       ("pi_antidiag", (Fraction(1, 2), 2)),
                       ("pi_diag", (Fraction(1), 2))):
        got, zeros = model_report(lieb(path))
        assert got == {want} and zeros == 1
    pts = lieb_degeneracy_points(1.5)
    assert weyr_structure(lieb_hamiltonian(*pts["arccot"], 1.5), 0.0,
                          tol=WEYR_TOL).partition == (3,)
    assert weyr_structure(lieb_hamiltonian(*pts["pi"], 1.5), 0.0,
                          tol=WEYR_TOL).partition == (2, 1)
    _ok(7, "lattice paths split as predicted; detected EP3 and EP(2,1)")


def test_criterion_08_liouvillian(eff_liouvillian):
    poly = tropicalize(eff_liouvillian.realization)
    reduced = [(9, Fraction(0)), (4, Fraction(1)), (1, Fraction(2)), (0, Fraction(3))]
    for w in (Fraction(0), Fraction(1, 10), Fraction(1, 5), Fraction(1, 4),
              Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)):
        assert poly(w) == min(a + k * w for k, a in reduced)
    report = tropical_roots(poly)
    assert {(r.omega, r.multiplicity) for r in report.roots} == \
        {(Fraction(1, 5), 5), (Fraction(1, 3), 3), (Fraction(1), 1)}
    assert report.zero_root_count == 0

    eps0 = 0.2 + 0.45j
    h = dense(jordan_matrix((3,), 0), 0.0) + eps0 * np.eye(3)
    liou = liouvillian_from_nonhermitian(h)
    assert weyr_structure(liou, 2 * eps0.imag, tol=WEYR_TOL).partition == (5, 3, 1)
    _ok(8, "9x9 generator: min{9w, 4w+1, w+2, 3}; jump-free block sizes (5,3,1)")


def test_criterion_09_exponent_fits(catalogs, eff_liouvillian):
    start = time.monotonic()
    checked = 0
    for fams in catalogs.values():
        for fam in fams:
            if fam.parameters["generic"]:
                result = fit_exponents(fam, match_tol=FIT_TOL)
                assert result.passed, (fam.name, result.diagnostics)
                checked += 1
    families = [f for f in default_families() if f.name != "effective_liouvillian"]
    families.append(eff_liouvillian)
    for fam in families:
        result = fit_exponents(fam, match_tol=FIT_TOL)
        assert result.passed, (fam.name, result.diagnostics)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _ok(9, f"{checked} families fit within +-{FIT_TOL} in {elapsed:.1f}s")


def test_criterion_10_braids(catalogs):
    generic = {fam.parameters["partition"]: fam for fams in catalogs.values()
               for fam in fams if fam.parameters["generic"]}
    cases = {(3,): (3,), (2, 1): (1, 2), (4,): (4,), (2, 2): (2, 2)}
    for partition, cycles in cases.items():
        braid = braid_loop(generic[partition], eps0=BRAID_EPS, steps=BRAID_STEPS)
        assert braid.cycle_lengths == cycles, partition
    for fam in generic.values():
        braid = braid_loop(fam, eps0=BRAID_EPS, steps=BRAID_STEPS)
        assert braid.cycle_lengths == fam.expected.predicted_cycle_lengths(), fam.name
    _ok(10, "braid cycles match the series structure for every generic family")


def test_criterion_11_property_suites():
    rng = random.Random(2024)

    def rand_linear(n):
        return PolyMatrix([[ScalarPoly.monomial(1, ec(rng.randint(-9, 9)))
                            for _ in range(n)] for _ in range(n)])

    for _ in range(200):
        m = rand_linear(4)
        assert charpoly_traces(m) == charpoly_direct(m)

    def rand_cp(n):
        coeffs = [ScalarPoly.const(1)]
        for _ in range(n):
            a = rng.choice([None, 0, 1, 2, 3, 4])
            coeffs.append(ScalarPoly.zero() if a is None else ScalarPoly.monomial(a))
        from tropeig.charpoly import CharPoly
        return CharPoly(coeffs)

    for _ in range(100):
        p1, p2 = tropicalize(rand_cp(rng.randint(1, 5))), tropicalize(rand_cp(rng.randint(1, 5)))
        prod = tropical_roots(tropical_product(p1, p2))
        split = sorted([r.omega for rep in (tropical_roots(p1), tropical_roots(p2))
                        for r in rep.roots for _ in range(r.multiplicity)])
        merged = sorted([r.omega for r in prod.roots for _ in range(r.multiplicity)])
        assert merged == split
        assert prod.zero_root_count == (tropical_roots(p1).zero_root_count
                                        + tropical_roots(p2).zero_root_count)

    for _ in range(150):
        cp = rand_cp(rng.randint(1, 6))
        np_ = newton_polygon(cp)
        slopes = [Fraction(a1 - a0, i1 - i0)
                  for (i0, a0), (i1, a1) in zip(np_.hull, np_.hull[1:])]
        assert all(s1 < s2 for s1, s2 in zip(slopes, slopes[1:]))
        report = tropical_roots(np_)
        assert sum(r.multiplicity for r in report.roots) == cp.n - report.zero_root_count

    done = 0
    while done < 50:
        n = rng.choice((2, 3))
        m = rand_linear(n)
        s = [[ec(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        try:
            conj = conjugate_by(m, s)
        except ZeroDivisionError:
            continue
        assert charpoly_traces(conj) == charpoly_traces(m)
        done += 1
    _ok(11, "200 charpoly agreements, 100 product multisets, "
            "150 hull profiles, 50 exact conjugations")


def test_criterion_12_cardano_oracle():
    rng = random.Random(99)
    for _ in range(100):
        p = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        q = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        companion = np.array([[0, 1, 0], [0, 0, 1], [-q, -p, 0]], dtype=complex)
        eigs = np.linalg.eigvals(companion)
        cost = np.abs(np.subtract.outer(np.asarray(cardano_roots(p, q)), eigs))
        r, c = linear_sum_assignment(cost)
        rel = max(cost[i, j] / max(1.0, abs(eigs[j])) for i, j in zip(r, c))
        assert rel < CARDANO_RTOL
    _ok(12, f"closed-form cubics within {CARDANO_RTOL} of the eigensolver")
