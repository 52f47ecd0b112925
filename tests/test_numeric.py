import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from tropeig.charpoly import CharPoly, PolyMatrix, companion_matrix
from tropeig.models import Family, cavity_dynamical
from tropeig.numeric import (DEFAULT_GRID, BraidPermutation, LoopDegeneracyError,
                             NonConvergenceError, SampleGrid, aberth_roots,
                             braid_loop, cardano_roots, charpoly_roots_at,
                             eigenvalues_at, fit_exponents, numeric_ord)
from tropeig.poly import ScalarPoly
from tropeig.tropical import SplittingReport, TropicalRoot

BRAID_EPS, BRAID_STEPS = 1e-6, 96


def matched_rel_err(a, b):
    cost = np.abs(np.subtract.outer(np.asarray(a), np.asarray(b)))
    rows, cols = linear_sum_assignment(cost)
    return max(cost[i, j] / max(1.0, abs(b[j])) for i, j in zip(rows, cols))


class TestSampleGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampleGrid(t0=-1)
        with pytest.raises(ValueError):
            SampleGrid(ratio=1.5)
        with pytest.raises(ValueError):
            SampleGrid(count=3)

    def test_points(self):
        g = SampleGrid(t0=1e-2, ratio=0.5, count=5, phase=math.pi / 2)
        pts = g.points()
        assert len(pts) == 5
        assert pts[0] == pytest.approx(1e-2j)
        assert abs(pts[-1]) == pytest.approx(1e-2 * 0.5 ** 4)


class TestAberth:
    def test_exact_quadratic(self):
        roots = sorted(aberth_roots([1, 0, -4]), key=lambda z: z.real)
        assert roots[0] == pytest.approx(-2)
        assert roots[1] == pytest.approx(2)

    def test_random_polynomials_against_companion(self):
        rng = random.Random(80)
        for _ in range(50):
            n = rng.randint(2, 7)
            coeffs = [1] + [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                            for _ in range(n)]
            mine = aberth_roots(coeffs)
            ref = np.roots(coeffs)
            assert matched_rel_err(mine, ref) < 1e-8

    def test_tiny_scale_stays_relatively_accurate(self):
        # lambda^4 = t at t = 1e-12: roots of magnitude 1e-3
        roots = aberth_roots([1, 0, 0, 0, -1e-12])
        for r in roots:
            assert abs(abs(r) - 1e-3) < 1e-12

    def test_multiple_roots_stagnate_gracefully(self):
        # (x - 1)^3: cluster accepted at ~eps^(1/3) scatter
        roots = aberth_roots([1, -3, 3, -1])
        for r in roots:
            assert abs(r - 1) < 1e-4

    def test_exact_zero_deflation(self):
        roots = charpoly_roots_at(
            CharPoly([1, ScalarPoly.monomial(1, -1), ScalarPoly.zero()]), 1e-4)
        assert sorted(abs(r) for r in roots)[0] == 0.0


class TestEigenvaluesAt:
    def test_closed_form_square_root(self):
        m = PolyMatrix([[0, 1], [ScalarPoly.t(), 0]])
        eigs = sorted(eigenvalues_at(m, 1e-6), key=lambda z: z.real)
        assert eigs[0] == pytest.approx(-1e-3, abs=1e-12)
        assert eigs[1] == pytest.approx(1e-3, abs=1e-12)

    def test_zero_matrix(self):
        m = PolyMatrix([[0, 0], [0, 0]])
        assert eigenvalues_at(m, 0.3) == [0, 0]

    def test_paths_agree(self):
        rng = random.Random(81)
        for _ in range(20):
            m = PolyMatrix([[ScalarPoly.monomial(1, rng.randint(-5, 5))
                             for _ in range(3)] for _ in range(3)])
            a = eigenvalues_at(m, 1e-3, method="eig")
            b = eigenvalues_at(m, 1e-3, method="charpoly")
            assert matched_rel_err(a, b) < 1e-7

    def test_callable_source(self):
        eigs = eigenvalues_at(lambda t: np.diag([t, 2 * t]), 0.5)
        assert sorted(e.real for e in eigs) == pytest.approx([0.5, 1.0])


class TestCardano:
    def test_cube_roots_of_unity(self):
        roots = cardano_roots(0, -1)
        assert matched_rel_err(roots, [1, cmath.exp(2j * math.pi / 3),
                                       cmath.exp(-2j * math.pi / 3)]) < 1e-12

    def test_three_real(self):
        roots = sorted(cardano_roots(-1, 0), key=lambda z: z.real)
        assert [round(r.real, 9) for r in roots] == [-1, 0, 1]
        assert all(abs(r.imag) < 1e-12 for r in roots)

    def test_origin(self):
        assert cardano_roots(0, 0) == (0, 0, 0)

    def test_against_eigensolver_sample(self):
        rng = random.Random(82)
        for _ in range(100):
            p = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            q = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            comp = np.array([[0, 1, 0], [0, 0, 1], [-q, -p, 0]], dtype=complex)
            assert matched_rel_err(cardano_roots(p, q), np.linalg.eigvals(comp)) < 1e-9

    def test_branch_condition(self):
        p, q = 0.3 + 0.1j, -0.7 + 0.2j
        r1, r2, r3 = cardano_roots(p, q)
        # the three roots multiply to -q and sum to zero
        assert r1 + r2 + r3 == pytest.approx(0, abs=1e-12)
        assert r1 * r2 * r3 == pytest.approx(-q, rel=1e-10)

    def test_matches_block_21_eigensolver(self):
        rng = random.Random(83)
        for _ in range(20):
            d21, d23, d31, d33 = (rng.uniform(-2, 2) for _ in range(4))
            m = np.array([[0, 1, 0], [d21, -d33, d23], [d31, 0, d33]])
            p = -(d33 ** 2 + d21)
            q = d21 * d33 - d23 * d31
            assert matched_rel_err(cardano_roots(p, q), np.linalg.eigvals(m)) < 1e-9


class TestFitExponents:
    def test_square_root_pair(self):
        fam = Family(
            "synthetic", CharPoly([1, ScalarPoly.zero(), ScalarPoly.monomial(1, -1)]),
            SplittingReport((TropicalRoot(Fraction(1, 2), 2),), 0))
        res = fit_exponents(fam)
        assert res.passed
        assert res.clusters[0].exponent == pytest.approx(0.5, abs=1e-6)

    def test_detects_wrong_prediction(self):
        fam = Family(
            "synthetic", CharPoly([1, ScalarPoly.zero(), ScalarPoly.monomial(1, -1)]),
            SplittingReport((TropicalRoot(Fraction(1, 3), 2),), 0))
        res = fit_exponents(fam)
        assert not res.passed
        assert res.diagnostics

    def test_detects_wrong_multiplicity(self):
        fam = Family(
            "synthetic", CharPoly([1, ScalarPoly.zero(), ScalarPoly.monomial(1, -1)]),
            SplittingReport((TropicalRoot(Fraction(1, 2), 1),), 1))
        res = fit_exponents(fam)
        assert not res.passed

    def test_zero_track_counting(self):
        fam = Family(
            "synthetic", CharPoly([1, ScalarPoly.zero(), ScalarPoly.monomial(1, -1),
                                   ScalarPoly.zero()]),
            SplittingReport((TropicalRoot(Fraction(1, 2), 2),), 1))
        res = fit_exponents(fam)
        assert res.passed and res.zero_tracks == 1

    def test_grid_must_span_three_decades(self):
        fam = Family(
            "synthetic", CharPoly([1, ScalarPoly.zero(), ScalarPoly.monomial(1, -1)]),
            SplittingReport((TropicalRoot(Fraction(1, 2), 2),), 0))
        with pytest.raises(ValueError):
            fit_exponents(fam, SampleGrid(count=5, ratio=0.5))

    def test_phase_invariance(self, catalogs):
        for fam in catalogs[3]:
            if not fam.parameters["generic"]:
                continue
            base = fit_exponents(fam)
            rot = fit_exponents(fam, SampleGrid(phase=0.9))
            for c1, c2 in zip(base.clusters, rot.clusters):
                assert abs(c1.exponent - c2.exponent) <= 0.01

    def test_generic_catalog_families(self, catalogs):
        for fams in catalogs.values():
            for fam in fams:
                if fam.parameters["generic"]:
                    assert fit_exponents(fam).passed, fam.name

    def test_unlifting_direction_all_zero(self, catalogs):
        fam = next(f for f in catalogs[2] if f.parameters["constraint"] == "unlifting")
        res = fit_exponents(fam)
        assert res.passed and res.zero_tracks == 2 and not res.clusters


class TestBraid:
    def test_cycle_extraction(self):
        b = BraidPermutation((1, 2, 0, 4, 3))
        assert b.cycle_lengths == (2, 3)
        with pytest.raises(ValueError):
            BraidPermutation((0, 0, 1))

    def test_trefoil_like_3cycle(self, catalogs):
        fam = next(f for f in catalogs[3]
                   if f.parameters["partition"] == (3,) and f.parameters["generic"])
        b = braid_loop(fam, eps0=BRAID_EPS, steps=BRAID_STEPS)
        assert b.cycle_lengths == (3,)

    def test_pair_exchange_plus_fixed_point(self, catalogs):
        fam = next(f for f in catalogs[3]
                   if f.parameters["partition"] == (2, 1) and f.parameters["generic"])
        b = braid_loop(fam, eps0=BRAID_EPS, steps=BRAID_STEPS)
        assert b.cycle_lengths == (1, 2)

    def test_no_braiding_for_diagonalizable_structure(self, catalogs):
        fam = next(f for f in catalogs[2]
                   if f.parameters["partition"] == (1, 1) and f.parameters["generic"])
        b = braid_loop(fam, eps0=BRAID_EPS, steps=BRAID_STEPS)
        assert b.permutation == (0, 1)

    def test_cycles_match_multiplicity_structure(self, catalogs):
        for fams in catalogs.values():
            for fam in fams:
                if not fam.parameters["generic"]:
                    continue
                b = braid_loop(fam, eps0=BRAID_EPS, steps=BRAID_STEPS)
                assert b.cycle_lengths == fam.expected.predicted_cycle_lengths(), fam.name

    def test_nongeneric_23_exponent_family_is_full_cycle(self, catalogs):
        # exponent 2/3 with multiplicity 3: the loop is observed to cycle all
        # three branches, matching the denominator heuristic
        fam = next(f for f in catalogs[3] if f.parameters["constraint"] == "d21=0")
        b = braid_loop(fam, eps0=BRAID_EPS, steps=BRAID_STEPS)
        assert b.cycle_lengths == (3,)

    def test_degenerate_loop_raises(self, catalogs):
        fam = next(f for f in catalogs[2] if f.parameters["constraint"] == "unlifting")
        with pytest.raises(LoopDegeneracyError):
            braid_loop(fam, eps0=1e-4, steps=16)


class TestNumericOrd:
    GRID = [10 ** (-k / 2) for k in range(2, 13)]

    def test_quadratic_coefficient(self):
        samples = [(t, 4 * math.cos(t) - 4) for t in self.GRID]
        out = numeric_ord(samples)
        assert out.rational == Fraction(2) and abs(out.slope - 2) < 0.01

    def test_linear_dominates(self):
        samples = [(t, 2 * 1.5 * math.sin(t) + 4 * math.cos(t) - 4) for t in self.GRID]
        out = numeric_ord(samples)
        assert out.rational == Fraction(1)

    def test_identically_zero(self):
        out = numeric_ord([(t, 0.0) for t in self.GRID])
        assert out.infinite and out.rational is None

    def test_needs_five_samples(self):
        with pytest.raises(ValueError):
            numeric_ord([(0.1, 1.0)] * 4)

    def test_rounding_residual_reported(self):
        samples = [(t, t ** 1.48) for t in self.GRID]
        out = numeric_ord(samples, max_denominator=2)
        assert out.rational == Fraction(3, 2)
        assert out.residual == pytest.approx(0.02, abs=5e-3)
