import cmath
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from reference import (cardano_roots, charpoly_roots, dense_eigenvalues, numeric_ord,
                       pairwise_separation)
from tropeig import numeric
from tropeig.charpoly import CharPoly, PolyMatrix, charpoly_direct
from tropeig.exact import ExactComplex
from tropeig.jordan import catalog_families, weyr_structure
from tropeig.models import (build_example, cavity_dynamical, default_families, hatano_nelson,
                            torus_knot)
from tropeig.numeric import (BRAID_HALVINGS, CHECK_DECADES, BraidPermutation,
                             LoopDegeneracyError, NonConvergenceError, UndeterminedError,
                             _check_separated, _loop_step, _loop_tables, _match,
                             _nearest_within, _spacings, aberth_roots, braid_loop,
                             fit_exponents)
from tropeig.poly import ScalarPoly, horner_table
from tropeig.tropical import Family, SplittingReport, TropicalRoot

BRAID_EPS, BRAID_STEPS = 1e-6, 96


def matched_rel_err(a, b):
    cost = np.abs(np.subtract.outer(np.asarray(a), np.asarray(b)))
    rows, cols = linear_sum_assignment(cost)
    return max(cost[i, j] / max(1.0, abs(b[j])) for i, j in zip(rows, cols))


def optimal_cost(cost):
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()), [int(c) for c in cols]


def unique_optimum(cost, order):
    """Whether every assignment other than order costs clearly more.

    Any other assignment avoids some edge (i, order[i]), so forbidding each
    edge in turn and re-solving finds the runner-up.
    """
    n = len(order)
    if n == 1:
        return True
    best = float(cost[range(n), order].sum())
    for i in range(n):
        banned = cost.copy()
        banned[i, order[i]] = np.inf
        if optimal_cost(banned)[0] <= best + 1e-9 * (1 + best):
            return False
    return True


points = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def point_pairs(draw, zeros=0):
    n = draw(st.integers(1, 12))
    prev, new = (draw(st.lists(points, min_size=n, max_size=n)) for _ in range(2))
    for pts in (prev, new):
        for _ in range(zeros):
            pts.insert(draw(st.integers(0, len(pts))), 0j)
    return prev, new


def reference_evaluate(poly, z):
    """ScalarPoly.evaluate as it was before the float tables: every
    coefficient converted to a float on every call."""
    if not poly.terms:
        return 0j
    exps = sorted(poly.terms, reverse=True)
    acc = 0j
    prev = None
    for e in exps:
        if prev is not None:
            acc *= z ** (prev - e)
        acc += poly.terms[e].to_complex()
        prev = e
    return acc * z ** exps[-1]


def bits(values):
    """Exact bit patterns, so that 0.0 and -0.0 differ."""
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in values]


@st.composite
def exact_polys(draw):
    """Gaussian rationals with denominators, an optional surd sqrt(2) or
    sqrt(5), optional truncation, and the zero polynomial."""
    rad = draw(st.sampled_from((0, 2, 5)))
    small, den = st.integers(-9, 9), st.integers(1, 7)

    def scalar():
        parts = [Fraction(draw(small), draw(den)) for _ in range(4 if rad else 2)]
        return ExactComplex(*parts, rad) if rad else ExactComplex(*parts)

    terms = {draw(st.integers(0, 8)): scalar() for _ in range(draw(st.integers(0, 4)))}
    return ScalarPoly(terms, draw(st.none() | st.integers(0, 9)))


class TestFloatTables:
    @settings(max_examples=300, deadline=None)
    @given(exact_polys(), st.complex_numbers(max_magnitude=2, allow_nan=False,
                                             allow_infinity=False))
    def test_table_evaluation_is_bit_identical(self, poly, z):
        assert bits([poly.evaluate(z)]) == bits([reference_evaluate(poly, z)])

    @staticmethod
    def check_loop_tables(cp, eps0, phi):
        """The braid loop's tables at w = e^(i*phi) against a_i(eps0*w) /
        scale^i in 50 digits: finite, a_0 = 1, and every term no larger than
        the exact coefficient's, so that no power eps0^x is negative."""
        zeros, scale, tables = _loop_tables(cp, eps0)
        assert zeros == cp.trailing_zero_count()
        assert len(tables) == cp.n - zeros + 1 and tables[0] == [(0, 1 + 0j)]
        # scale = eps0^omega, omega = min ord(a_i)/i over the moving coefficients
        orders = [Fraction(min(a.terms), i) for i, a in enumerate(cp.coeffs[:len(tables)])
                  if i and a.terms]
        omega = min(orders, default=Fraction(0))
        assert scale == eps0 ** float(omega)
        w = cmath.exp(1j * phi)
        with mpmath.workdps(50):
            mscale = mpmath.mpf(eps0) ** (mpmath.mpf(omega.numerator) / omega.denominator)
            for i, (table, a) in enumerate(zip(tables, cp.coeffs)):
                assert [e for e, _ in table] == [e for e, _ in a.float_table()]
                for (e, c), (_, c0) in zip(table, a.float_table()):
                    assert cmath.isfinite(c) and abs(c) <= abs(c0)
                terms = [mpmath.mpc(c.to_complex()) * (mpmath.mpf(eps0) * mpmath.mpc(w)) ** e
                         / mscale ** i for e, c in a.terms.items()]
                exact = complex(mpmath.fsum(terms))
                size = float(mpmath.fsum(abs(x) for x in terms))
                assert abs(horner_table(table, w) - exact) <= 1e-13 * size

    @settings(max_examples=100, deadline=None)
    @given(st.lists(exact_polys(), min_size=1, max_size=6), st.integers(0, 3),
           st.sampled_from((1e-6, 1e-4, 1e-3, 0.5)), st.floats(0, 2 * math.pi))
    def test_loop_tables_are_the_scaled_coefficients(self, polys, zeros, eps0, phi):
        self.check_loop_tables(CharPoly([1] + polys + [ScalarPoly.zero()] * zeros), eps0,
                               phi)

    @pytest.mark.parametrize("p, q", [(2, 80), (2, 61), (3, 50)])
    def test_deep_loop_tables_stay_in_range(self, p, q):
        # t^80 at eps0 = 1e-6 is 1e-480, below the smallest float
        for phi in (0.0, 1.0, math.pi):
            self.check_loop_tables(torus_knot(p, q).charpoly, 1e-6, phi)


class TestMatch:
    @settings(max_examples=300, deadline=None)
    @given(point_pairs())
    def test_minimum_displacement_against_scipy(self, pair):
        prev, new = pair
        cost = np.abs(np.subtract.outer(np.asarray(prev), np.asarray(new)))
        order = _match(prev, new)
        best, ref = optimal_cost(cost)
        assert sorted(order) == list(range(len(prev)))
        assert float(cost[range(len(prev)), order].sum()) == pytest.approx(best, rel=1e-12,
                                                                          abs=1e-12)
        if unique_optimum(cost, ref):
            assert order == ref

    @settings(max_examples=100, deadline=None)
    @given(point_pairs(zeros=2))
    def test_duplicate_zeros_give_a_permutation(self, pair):
        prev, new = pair
        cost = np.abs(np.subtract.outer(np.asarray(prev), np.asarray(new)))
        order = _match(prev, new)
        assert sorted(order) == list(range(len(prev)))
        assert float(cost[range(len(prev)), order].sum()) == pytest.approx(
            optimal_cost(cost)[0], rel=1e-12, abs=1e-12)

    def test_nonfinite_displacement_raises(self):
        with pytest.raises(ValueError):
            _match([0j, complex("nan")], [0j, 1j])


def spacing(points, j):
    """Distance from points[j] to the nearest other point, inf if none."""
    return min((abs(points[j] - w) for k, w in enumerate(points) if k != j), default=math.inf)


@st.composite
def continuation_steps(draw):
    """Distinct new roots on scales 1e-4 to 1, 0-2 flat zeros, and previous
    roots displaced from the new ones by up to 0.6 of their spacing (flat
    zeros included), so that steps fall on both sides of 0.45."""
    polar = st.tuples(st.floats(-4, 0), st.floats(0, 2 * math.pi))
    new = [10 ** e * cmath.exp(1j * a)
           for e, a in draw(st.lists(polar, min_size=1, max_size=8))]
    zeros = draw(st.integers(0, 2))
    targets = new + [0j] * zeros
    seps = [spacing(targets, j) for j in range(len(new))]
    assume(all(sep > 1e-9 for sep in seps))
    moves = draw(st.lists(st.complex_numbers(max_magnitude=0.6), min_size=len(new),
                          max_size=len(new)))
    prev = [z + (sep if math.isfinite(sep) else 1.0) * w
            for z, sep, w in zip(new, seps, moves)]
    return draw(st.permutations(prev)), new, zeros


def nearest_within(cur, new, zeros):
    return _nearest_within(cur, new, _spacings(new, zeros))


def check_separated(eigs):
    """_check_separated with the exact zeros of eigs taken as flat zeros."""
    roots = [z for z in eigs if z]
    _check_separated(roots, _spacings(roots, len(eigs) - len(roots)))


class TestNearestWithin:
    @settings(max_examples=500, deadline=None)
    @given(continuation_steps())
    def test_same_decision_and_assignment_as_hungarian(self, step):
        """Accepted exactly when the least-displacement assignment over all
        roots, flat zeros included, moves each root by at most 0.45 of its
        target's spacing, and then with that assignment."""
        prev, new, zeros = step
        flat = [0j] * zeros
        targets = new + flat
        order = _match(prev + flat, targets)
        accept = all(abs(p - targets[j]) <= 0.45 * spacing(targets, j)
                     for p, j in zip(prev + flat, order))
        assert nearest_within(prev, new, zeros) == (order[:len(prev)] if accept else None)

    def test_shared_nearest_point_is_refused(self):
        assert nearest_within([0j, 0.1 + 0j], [0.05 + 0j, 5 + 0j], 0) is None
        assert nearest_within([0j, 4.9 + 0j], [0.05 + 0j, 5 + 0j], 0) == [0, 1]

    def test_each_root_is_measured_against_its_own_spacing(self):
        # a pair 1e-3 apart beside a root at 1: the far root may move by 0.4,
        # far beyond 0.45 of the pair's gap, and the pair by only 0.45e-3
        new = [1 + 0j, 2e-2 + 0j, 2.1e-2 + 0j]
        assert nearest_within([1.4 + 0j, 2e-2 + 4e-4j, 2.1e-2 + 0j], new, 0) == [0, 1, 2]
        assert nearest_within([1 + 0j, 2e-2 + 4.6e-4j, 2.1e-2 + 0j], new, 0) is None

    def test_flat_zeros_count_in_the_spacing(self):
        new = [1 + 0j, 0.3 + 0j]  # 0.3 lies 0.3 from a flat zero
        assert nearest_within([1 + 0j, 0.1 + 0j], new, 1) is None  # nearest is the zero
        assert nearest_within([1 + 0j, 0.16 + 0j], new, 1) is None  # 0.14 > 0.45 * 0.3
        assert nearest_within([1 + 0j, 0.2 + 0j], new, 1) == [0, 1]
        assert nearest_within([1 + 0j, 0.2 + 0j], new, 2) == [0, 1]


class TestCheckSeparated:
    @pytest.mark.parametrize("eigs", [
        [1 + 0j, 1.0011 + 0j],
        [1e-6 + 0j, 1.002e-6 + 0j, 1 + 0j],  # apart on their own scale, not on 1's
        [0j, 0j, 1e-9 + 0j, 1 + 0j],  # coinciding flat zeros
    ])
    def test_apart(self, eigs):
        check_separated(eigs)

    @pytest.mark.parametrize("eigs", [
        [1 + 0j, 1.0009 + 0j],
        [1e-6 + 0j, 1.0009e-6 + 0j, 1 + 0j],
        [0j, 1e-9 + 0j, 1e-9 + 0j],
    ])
    def test_too_close(self, eigs):
        with pytest.raises(LoopDegeneracyError, match="below 1e-3"):
            check_separated(eigs)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.tuples(st.floats(-6, 0), st.floats(0, 2 * math.pi),
                              st.none() | st.floats(-5, -1), st.floats(0, 2 * math.pi)),
                    max_size=6),
           st.integers(0, 2), st.integers(0, 2))
    def test_spacings_give_the_pairwise_ratio(self, polar, moving_zeros, zeros):
        """Raises exactly when the least pairwise ratio over the roots and
        the flat zeros is below 1e-3, and reports that same number; the
        roots hold neighbours at relative distances 1e-5 to 1e-1 and exact
        zeros that move."""
        roots = [0j] * moving_zeros
        for e, a, rel, b in polar:
            z = 10 ** e * cmath.exp(1j * a)
            roots.append(z)
            if rel is not None:
                roots.append(z * (1 + 10 ** rel * cmath.exp(1j * b)))
        worst = pairwise_separation(roots + [0j] * zeros)
        if worst < 1e-3:
            with pytest.raises(LoopDegeneracyError) as info:
                _check_separated(roots, _spacings(roots, zeros))
            assert f"lie {worst:.3e} of" in str(info.value)
        else:
            _check_separated(roots, _spacings(roots, zeros))


class TestSamplePoints:
    def test_validation(self, catalogs):
        fam = catalogs[2][0]
        with pytest.raises(ValueError):
            fit_exponents(fam, t0=-1)
        with pytest.raises(ValueError):
            fit_exponents(fam, phase=math.inf)
        with pytest.raises(TypeError):
            fit_exponents(fam, ratio=0.5)  # the log-log grid's fields are gone

    def test_points(self, catalogs, monkeypatch):
        # q_t is solved at t0 * e^(i*phase) and 10^-CHECK_DECADES times it
        points = []
        solve = numeric._scaled_roots
        monkeypatch.setattr(numeric, "_scaled_roots",
                            lambda tables, t: points.append(t) or solve(tables, t))
        fam = catalogs[2][0]
        assert len(fam.expected.roots) == 1
        assert fit_exponents(fam, t0=1e-2, phase=math.pi / 2).passed
        assert len(points) == 2
        assert points[0] == pytest.approx(1e-2j)
        assert points[1] == pytest.approx(1e-2j * 10.0 ** -CHECK_DECADES)


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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=2,
                    max_size=7, unique=True),
           st.floats(1e-3, 1e3),
           st.lists(st.complex_numbers(max_magnitude=1), min_size=7, max_size=7))
    def test_warm_start_matches_cold_start(self, lattice, spacing, noise):
        # distinct lattice points: roots at least `spacing` apart
        roots = [spacing * complex(a, b) for a, b in lattice]
        scale = max(abs(z) for z in roots)
        coeffs = list(np.poly(roots))
        near = [z + 0.1 * spacing * w for z, w in zip(roots, noise)]
        cold = aberth_roots(coeffs)
        warm = aberth_roots(coeffs, start=near)
        cost = np.abs(np.subtract.outer(np.asarray(warm), np.asarray(cold)))
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() <= 1e-10 * scale

    def test_start_of_wrong_length_is_ignored(self):
        coeffs = [1, 0.5j, -2, 0]  # one exact zero root, two left after peeling
        cold = aberth_roots(coeffs)
        assert bits(aberth_roots(coeffs, start=[1, 2, 3])) == bits(cold)
        # a start of the right length is used: the roots come back in its order
        for start in ([1.4, -1.4], [-1.4, 1.4]):
            warm = aberth_roots(coeffs, start=start)
            assert [z.real > 0 for z in warm[:2]] == [x > 0 for x in start]

    def test_exact_zero_deflation(self):
        roots = charpoly_roots(
            CharPoly([1, ScalarPoly.monomial(1, -1), ScalarPoly.zero()]), 1e-4)
        assert sorted(abs(r) for r in roots)[0] == 0.0


class TestEigenvaluesAt:
    def test_closed_form_square_root(self):
        m = PolyMatrix([[0, 1], [ScalarPoly.t(), 0]])
        eigs = sorted(dense_eigenvalues(m, 1e-6), key=lambda z: z.real)
        assert eigs[0] == pytest.approx(-1e-3, abs=1e-12)
        assert eigs[1] == pytest.approx(1e-3, abs=1e-12)

    def test_zero_matrix(self):
        m = PolyMatrix([[0, 0], [0, 0]])
        assert dense_eigenvalues(m, 0.3) == [0, 0]
        assert charpoly_roots(charpoly_direct(m), 0.3) == [0, 0]

    def test_paths_agree(self):
        # the dense eigensolver and the roots of the exact charpoly
        rng = random.Random(81)
        for _ in range(20):
            m = PolyMatrix([[ScalarPoly.monomial(1, rng.randint(-5, 5))
                             for _ in range(3)] for _ in range(3)])
            a = dense_eigenvalues(m, 1e-3)
            b = charpoly_roots(charpoly_direct(m), 1e-3)
            assert matched_rel_err(a, b) < 1e-7


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

    def test_far_apart_branches_both_move(self):
        # (l - t)(l - t^3): the t^3 branch is tiny but not a flat zero mode
        cp = CharPoly([1, ScalarPoly.monomial(1, -1) + ScalarPoly.monomial(3, -1),
                       ScalarPoly.monomial(4)])
        fam = Family("synthetic", cp, SplittingReport(
            (TropicalRoot(Fraction(1), 1), TropicalRoot(Fraction(3), 1)), 0))
        res = fit_exponents(fam)
        assert res.passed and res.zero_tracks == 0
        assert [c.size for c in res.clusters] == [1, 1]

    def test_far_branch_whose_scaled_coefficients_underflow(self):
        # (l - t)(l - t^50): on the scale of t^50 the leading coefficient is
        # t^49, and on the scale of t the constant one; both underflow to 0
        # at the second point and leave a root at infinity or at 0
        cp = CharPoly([1, ScalarPoly.monomial(1, -1) + ScalarPoly.monomial(50, -1),
                       ScalarPoly.monomial(51)])
        one, fifty = TropicalRoot(Fraction(1), 1), TropicalRoot(Fraction(50), 1)
        res = fit_exponents(Family("synthetic", cp, SplittingReport((one, fifty), 0)))
        assert res.passed, res.diagnostics
        assert [c.matched for c in res.clusters] == [one, fifty]

    def test_multiblock_rates_stay_apart(self):
        # EP3 + EP4: (l^3 - t)(l^4 - t) splits as t^(1/4) x4 and t^(1/3) x3
        zero, minus_t = ScalarPoly.zero(), ScalarPoly.monomial(1, -1)
        cp = CharPoly([1, zero, zero, minus_t, minus_t, zero, zero, ScalarPoly.monomial(2)])
        quarter, third = TropicalRoot(Fraction(1, 4), 4), TropicalRoot(Fraction(1, 3), 3)
        res = fit_exponents(Family("synthetic", cp, SplittingReport((quarter, third), 0)))
        assert res.passed
        assert [(c.matched, c.size) for c in res.clusters] == [(quarter, 4), (third, 3)]

    def test_underflowing_coefficient_is_no_zero_mode(self):
        # l^2 - t^31: the constant term underflows to 0.0 at the smallest |t|
        res = fit_exponents(torus_knot(2, 31))
        assert res.passed and res.zero_tracks == 0

    def test_moving_roots_without_a_prediction(self):
        fam = Family(
            "synthetic", CharPoly([1, ScalarPoly.zero(), ScalarPoly.monomial(1, -1)]),
            SplittingReport((), 2))
        res = fit_exponents(fam)
        assert res.passed is False and not res.clusters
        assert "2 moving roots, the prediction accounts for 0" in res.diagnostics

    @pytest.mark.parametrize("p, q", [(2, 40), (2, 50), (2, 60), (3, 50)])
    def test_deep_torus_knots_do_not_underflow(self, p, q):
        # l^p - t^q: t^q leaves the float range at the depths the log-log fit
        # sampled, but the scaled polynomial mu^p - 1 does not depend on t
        res = fit_exponents(torus_knot(p, q))
        assert res.passed, res.diagnostics
        (cluster,) = res.clusters
        assert cluster.size == p and cluster.exponent == pytest.approx(q / p, abs=1e-9)
        assert cluster.distance <= numeric.EXACT_DISTANCE

    def test_exponent_off_the_polygon_fails(self):
        # l^3 - t: 1/2 is no slope, so its edge polynomial is one monomial
        cp = CharPoly([1, ScalarPoly.zero(), ScalarPoly.zero(), ScalarPoly.monomial(1, -1)])
        fam = Family("synthetic", cp, SplittingReport((TropicalRoot(Fraction(1, 2), 3),), 0))
        res = fit_exponents(fam)
        assert not res.passed and not res.clusters
        assert res.diagnostics == ("predicted root 1/2 x3 is no slope of the Newton polygon",)

    def test_wrong_multiplicity_names_the_edge(self):
        # (l^2 - t)(l - t): the edge of slope 1/2 has two roots, not three
        cp = CharPoly([1, ScalarPoly.monomial(1, -1), ScalarPoly.monomial(1, -1),
                       ScalarPoly.monomial(2)])
        fam = Family("synthetic", cp, SplittingReport(
            (TropicalRoot(Fraction(1, 2), 3),), 0))
        res = fit_exponents(fam)
        assert not res.passed
        (cluster,) = res.clusters
        assert cluster.size == 2 and cluster.matched is None
        assert "2 edge roots" in res.diagnostics[0]

    def test_repeated_edge_root_passes(self):
        # l^2 - 2t l + t^2 - t^3 = (l - t)^2 - t^3: the edge polynomial (mu - 1)^2
        # has a double root, and the branches t +- t^(3/2) approach it like t^(1/2)
        cp = CharPoly([1, ScalarPoly.monomial(1, -2),
                       ScalarPoly.monomial(2) + ScalarPoly.monomial(3, -1)])
        one = TropicalRoot(Fraction(1), 2)
        res = fit_exponents(Family("synthetic", cp, SplittingReport((one,), 0)))
        assert res.passed, res.diagnostics
        (cluster,) = res.clusters
        assert cluster.matched == one and cluster.size == 2
        # |mu - 1| = sqrt(t): 1e-4 at the second point, a tenth of the first
        assert cluster.distance == pytest.approx(1e-4, rel=1e-3)
        assert cluster.rate == pytest.approx(0.1, rel=1e-3)

    def test_all_flat_family_passes_without_clusters(self):
        cp = CharPoly([1, ScalarPoly.zero(), ScalarPoly.zero(), ScalarPoly.zero()])
        res = fit_exponents(Family("synthetic", cp, SplittingReport((), 3)))
        assert res.passed and res.zero_tracks == 3 and res.clusters == ()
        assert res.diagnostics == ()

    def test_distance_that_grows_fails(self):
        # l = 1 - 100 t + 1e8 t^2 meets its edge root 1 exactly at the first
        # point, t = 1e-6, and lies 1e-6 from it at the second
        cp = CharPoly([1, ScalarPoly.const(-1) + ScalarPoly.monomial(1, 100)
                       + ScalarPoly.monomial(2, -10 ** 8)])
        fam = Family("synthetic", cp, SplittingReport((TropicalRoot(Fraction(0), 1),), 0))
        res = fit_exponents(fam)
        assert not res.passed
        (cluster,) = res.clusters
        assert cluster.matched is None and cluster.rate > 1e3
        assert res.diagnostics[0].endswith("rate above 0.100")

    def test_phase_invariance(self, catalogs):
        for fam in catalogs[3]:
            if not fam.parameters["generic"]:
                continue
            base = fit_exponents(fam)
            rot = fit_exponents(fam, phase=0.9)
            for c1, c2 in zip(base.clusters, rot.clusters):
                assert abs(c1.exponent - c2.exponent) <= 0.01

    def test_generic_catalog_families(self, catalogs):
        for fams in catalogs.values():
            for fam in fams:
                if fam.parameters["generic"]:
                    assert fit_exponents(fam).passed, fam.name

    def test_three_solves_per_predicted_root(self, monkeypatch):
        # the edge polynomial once and the scaled polynomial at both points
        solves = {}
        for fam in _verify_families()[:-1]:  # HN L=8 OBC does not converge
            res, n, _ = TestBraidAgainstReference.counted(monkeypatch, fit_exponents, fam)
            assert res.passed, fam.name
            assert n == 3 * len(fam.expected.roots), fam.name
            solves[fam.name] = n
        assert solves["effective_liouvillian"] == 9
        assert solves["H[1,1] unlifting"] == 0
        assert sum(solves.values()) == 177

    def test_unlifting_direction_all_zero(self, catalogs):
        fam = next(f for f in catalogs[2] if f.parameters["constraint"] == "unlifting")
        res = fit_exponents(fam)
        assert res.passed and res.zero_tracks == 2 and not res.clusters


def loop_step(coeffs, dcoeffs, roots, zeros, floor):
    """_loop_step on roots with their spacings; dcoeffs are t*d/dt of the
    coefficients, the phase derivative over i."""
    return _loop_step(coeffs, dcoeffs, roots, _spacings(roots, zeros), floor)


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
                b = braid_loop(fam)  # the defaults, 1e-6 and 96 steps
                assert b.cycle_lengths == fam.expected.predicted_cycle_lengths(), fam.name

    def test_nongeneric_23_exponent_family_is_full_cycle(self, catalogs):
        # exponent 2/3 with multiplicity 3: the loop is observed to cycle all
        # three branches, matching the denominator heuristic
        fam = next(f for f in catalogs[3] if f.parameters["constraint"] == "d21=0")
        b = braid_loop(fam, eps0=BRAID_EPS, steps=BRAID_STEPS)
        assert b.cycle_lengths == (3,)

    @pytest.mark.parametrize("n, name, cycles", [
        (4, "H[4] only d43", (1, 1, 2)),
        (4, "H[1,1,1,1] p=q=0", (1, 1, 1, 1)),
    ])
    def test_flat_zero_modes_are_no_collision(self, catalogs, n, name, cycles):
        fam = next(f for f in catalogs[n] if f.name == name)
        assert fam.expected.zero_root_count == 2
        b = braid_loop(fam, eps0=BRAID_EPS, steps=BRAID_STEPS)
        assert b.cycle_lengths == cycles == fam.expected.predicted_cycle_lengths()

    @pytest.mark.parametrize("name", ["H[2,2] p=q=0", "H[3,1] d31=0,q=0"])
    def test_branches_of_different_orders_braid(self, catalogs, name):
        # a t^(1/2) pair, one order-t root and a flat zero: the order-t root
        # lies within 1e-3 of the largest modulus from the zero, but its own
        # modulus away from it
        fam = next(f for f in catalogs[4] if f.name == name)
        b = braid_loop(fam, eps0=BRAID_EPS, steps=BRAID_STEPS)
        assert b.cycle_lengths == (1, 1, 2) == fam.expected.predicted_cycle_lengths()

    def test_fast_branches_keep_their_steps(self, catalogs, monkeypatch):
        # H[2,1,1] p=0 has t^(1/2) branches beside an order-t pair; steps
        # sized by the global gap took 2,977 root solves at the defaults,
        # fixed steps 97, and steps sized by each root's velocity take 14
        fam = next(f for f in catalogs[4] if f.name == "H[2,1,1] p=0")
        b, solves, _ = TestBraidAgainstReference.counted(monkeypatch, braid_loop, fam)
        assert b.cycle_lengths == fam.expected.predicted_cycle_lengths()
        assert solves <= 200

    def test_step_keeps_each_root_within_a_quarter_of_its_spacing(self):
        # (l - 1)(l - 1 - t): the root 1 + t moves at speed |t| and lies |t|
        # from the root 1, which stands still
        t = 0.1
        h = loop_step([1, -(2 + t), 1 + t], [0, -t, t], [1, 1 + t], 0, 1e-6)
        assert h == pytest.approx(0.25)
        # l^2 - t: both roots sweep at half their distance; the cap holds
        h = loop_step([1, 0, -t], [0, 0, -t], [t ** 0.5, -t ** 0.5], 0, 1e-6)
        assert h == 2 * math.pi / 8

    def test_step_refuses_infinite_velocity_and_steps_below_the_floor(self):
        # (l - t)^2: dp/dl vanishes at the double root
        t = 0.1
        with pytest.raises(LoopDegeneracyError, match="velocity"):
            loop_step([1, -2 * t, t * t], [0, -2 * t, 2 * t * t], [t, t], 0, 1e-6)
        with pytest.raises(LoopDegeneracyError, match="below the shortest allowed"):
            loop_step([1, -(2 + t), 1 + t], [0, -t, t], [1, 1 + t], 0, 0.5)

    def test_step_too_short_for_the_phase_refuses(self, catalogs, monkeypatch):
        # a step that would not advance phi refuses the loop instead of hanging
        sizes = iter([1.0])
        monkeypatch.setattr(numeric, "_loop_step", lambda *args: next(sizes, 1e-300))
        with pytest.raises(LoopDegeneracyError, match="resolution of the loop phase"):
            braid_loop(catalogs[2][0], steps=10 ** 300)

    def test_steps_only_set_the_floor(self, catalogs, monkeypatch):
        # steps=1 lowers no cap and skips no solve on the generic families
        for fams in catalogs.values():
            for fam in fams:
                if fam.parameters["generic"]:
                    coarse = TestBraidAgainstReference.counted(monkeypatch, braid_loop, fam,
                                                               BRAID_EPS, 1)
                    fine = TestBraidAgainstReference.counted(monkeypatch, braid_loop, fam,
                                                             BRAID_EPS, BRAID_STEPS)
                    assert coarse == fine, fam.name
                    assert coarse[0].cycle_lengths == fam.expected.predicted_cycle_lengths()

    def test_hatano_nelson_obc_is_still_degenerate(self):
        # its EP2 blocks split alike, so two eigenvalues nearly coincide
        with pytest.raises(LoopDegeneracyError, match="below 1e-3"):
            braid_loop(hatano_nelson(4, "obc"))

    def test_circuit_gamma_detune_with_flat_modes(self):
        fam = build_example("circuit_gamma_detune")
        assert fam.expected.zero_root_count == 2
        b = braid_loop(fam, eps0=BRAID_EPS, steps=BRAID_STEPS)
        assert b.cycle_lengths == (1, 1, 4) == fam.expected.predicted_cycle_lengths()

    @pytest.mark.parametrize("eps0, steps", [
        (BRAID_EPS, 0), (BRAID_EPS, -3), (math.nan, 16), (math.inf, 16), (0, 16)])
    def test_bad_arguments_rejected(self, catalogs, eps0, steps):
        fam = catalogs[2][0]
        with pytest.raises(ValueError, match="steps >= 1 and a finite eps0"):
            braid_loop(fam, eps0=eps0, steps=steps)

    def test_degenerate_loop_raises(self):
        with pytest.raises(LoopDegeneracyError):
            braid_loop(hatano_nelson(4, "obc"), eps0=1e-4, steps=16)

    def test_all_flat_braid_is_the_identity(self, catalogs):
        # no root moves: 2 and 3 flat zeros, which coincide but do not approach
        for n, name in ((2, "H[1,1] unlifting"), (3, "H[1,1,1] p=q=0")):
            fam = next(f for f in catalogs[n] if f.name == name)
            assert fam.charpoly.trailing_zero_count() == n
            assert braid_loop(fam).permutation == tuple(range(n))

    @pytest.mark.parametrize("q", [60, 61, 80, 81])
    def test_deep_torus_knots_braid(self, q):
        # lambda^2 = t^q: t^80 underflows at eps0 = 1e-6, the scaled loop's
        # roots stay of order 1; odd q exchanges the pair, even q does not
        fam = torus_knot(2, q)
        b = braid_loop(fam)
        assert b.cycle_lengths == fam.expected.predicted_cycle_lengths() == ((2,) if q % 2
                                                                            else (1, 1))


class TestUndetermined:
    """A sample would read an unknown truncated coefficient as 0, so both
    checks refuse an undetermined family after their argument checks."""

    @pytest.fixture
    def lieb_o2(self):
        # a_2 is an unknown O(t^2)
        return build_example("lieb_pi_diag", series_order=2)

    @pytest.mark.parametrize("call", [fit_exponents, braid_loop])
    def test_refused(self, lieb_o2, call):
        assert lieb_o2.charpoly.coeffs[2].ord().is_undetermined
        with pytest.raises(UndeterminedError, match="unknown truncated coefficient"):
            call(lieb_o2)

    def test_argument_errors_come_first(self, lieb_o2):
        with pytest.raises(ValueError, match="finite t0 > 0") as info:
            fit_exponents(lieb_o2, t0=math.nan)
        assert not isinstance(info.value, UndeterminedError)
        with pytest.raises(ValueError, match="braid loop needs steps >= 1") as info:
            braid_loop(lieb_o2, steps=0)
        assert not isinstance(info.value, UndeterminedError)

    def test_undetermined_prediction_is_refused(self, catalogs):
        fam = catalogs[2][0]
        report = SplittingReport(fam.expected.roots, None, undetermined=True)
        with pytest.raises(UndeterminedError, match="prediction is undetermined"):
            fit_exponents(Family(fam.name, fam.realization, report, fam.parameters,
                                 fam.annotations))

    def test_exported_as_a_value_error(self):
        import tropeig
        assert tropeig.UndeterminedError is UndeterminedError
        assert issubclass(UndeterminedError, ValueError)


@pytest.mark.parametrize("call, match", [
    (lambda fam: fit_exponents(fam, t0=math.nan), "finite t0 > 0"),
    (lambda fam: fit_exponents(fam, t0=math.inf), "finite t0 > 0"),
    (lambda fam: fit_exponents(fam, t0=0.0), "finite t0 > 0"),
    (lambda fam: fit_exponents(fam, phase=math.nan), "finite phase"),
    (lambda fam: fit_exponents(fam, phase=-math.inf), "finite phase"),
    (lambda fam: fit_exponents(fam, match_tol=math.nan), "match_tol must be finite"),
    (lambda fam: fit_exponents(fam, match_tol=math.inf), "match_tol must be finite"),
    (lambda fam: fit_exponents(fam, match_tol=-1.0), "match_tol must be finite"),
    (lambda fam: weyr_structure(np.eye(2), 1.0, tol=math.nan), "tol must be finite"),
    (lambda fam: weyr_structure(np.eye(2), 1.0, tol=math.inf), "tol must be finite"),
    (lambda fam: weyr_structure(np.eye(2), complex(0, math.nan)), "eigenvalue must be finite"),
    (lambda fam: weyr_structure(np.eye(2), math.inf), "eigenvalue must be finite"),
], ids=["t0-nan", "t0-inf", "t0-zero", "phase-nan", "phase-minus-inf", "match_tol-nan",
        "match_tol-inf", "match_tol-negative", "weyr-tol-nan", "weyr-tol-inf",
        "weyr-eigenvalue-nan", "weyr-eigenvalue-inf"])
def test_bad_grid_fit_and_rank_arguments_rejected(catalogs, call, match):
    # each value is checked where it enters, as braid_loop checks eps0
    with pytest.raises(ValueError, match=match):
        call(catalogs[2][0])


def reference_braid_loop(family, eps0, steps):
    """braid_loop's specification without its shortcuts: Newton-polygon
    guesses on every solve of the loop's scaled polynomial (_loop_tables),
    every root continued, and the Hungarian _match on every step.  A step is
    accepted when each root moves by at most 0.45 of its target's spacing,
    and the loop is refused when two eigenvalues lie closer than 1e-3 of the
    larger of their moduli (pairwise_separation)."""
    zeros, scale, tables = _loop_tables(family.charpoly, eps0)

    def eig_fn(phi):
        w = cmath.exp(1j * phi)
        return numeric.aberth_roots([horner_table(table, w) for table in tables]) + [0j] * zeros

    phis = [2 * math.pi * k / steps for k in range(steps + 1)]
    start = sorted(eig_fn(phis[0]),
                   key=lambda z: (round((scale * z).real, 12), round((scale * z).imag, 12)))

    def pair_check(eigs):
        worst = pairwise_separation(eigs)
        if worst < 1e-3:
            raise LoopDegeneracyError(
                f"two eigenvalues lie {worst:.3e} of their larger modulus apart, below "
                "1e-3; loop too coarse or crossing a degeneracy")

    pair_check(start)
    current = list(start)

    def advance(cur, phi_from, phi_to, depth):
        new = eig_fn(phi_to)
        pair_check(new)
        order = _match(cur, new)
        if any(abs(c - new[j]) > 0.45 * spacing(new, j) for c, j in zip(cur, order)):
            if depth >= BRAID_HALVINGS:
                raise LoopDegeneracyError("continuation ambiguous after max halving")
            mid = (phi_from + phi_to) / 2
            cur = advance(cur, phi_from, mid, depth + 1)
            return advance(cur, mid, phi_to, depth + 1)
        return [new[j] for j in order]

    for phi_from, phi_to in zip(phis, phis[1:]):
        current = advance(current, phi_from, phi_to, 0)
    return BraidPermutation(tuple(_match(current, start)))


def _verify_families():
    """The families of the benchmark's verify workload."""
    fams = [f for n in (2, 3, 4) for f in catalog_families(n)]
    return fams + default_families() + [hatano_nelson(8, "unidirectional"),
                                        hatano_nelson(8, "obc")]


class TestBraidAgainstReference:
    @staticmethod
    def counted(monkeypatch, fn, *args):
        """(BraidPermutation or (exception type, message), aberth_roots
        calls, _match calls) of one call."""
        calls = {"aberth_roots": 0, "_match": 0}
        for name in calls:
            original = getattr(numeric, name)

            def counting(*a, _name=name, _original=original, **kw):
                calls[_name] += 1
                return _original(*a, **kw)
            monkeypatch.setattr(numeric, name, counting)
        try:
            outcome = fn(*args)
        except (LoopDegeneracyError, NonConvergenceError) as exc:
            outcome = (type(exc), str(exc))
        monkeypatch.undo()
        return outcome, calls["aberth_roots"], calls["_match"]

    @pytest.mark.parametrize("group, eps0, steps", [
        ("verify", 1e-6, 96), ("catalog seed 1", 1e-3, 64), ("catalog seed 2", 1e-3, 64),
        ("catalog seed 0", 1e-6, 96), ("catalog seed 3", 1e-6, 96),
        ("catalog seed 4", 1e-6, 96), ("catalog seed 5", 1e-6, 96)])
    def test_same_braids_with_one_match_and_the_same_solves(self, monkeypatch, group,
                                                             eps0, steps):
        # the reference takes fixed steps of 2*pi/steps; velocity-sized steps
        # reach the same outcome with no more solves
        if group == "verify":
            fams = _verify_families()
            assert len(fams) == 48
        else:
            seed = int(group.split()[-1])
            fams = [f for n in (2, 3, 4) for f in catalog_families(n, seed)]
        flat_braids = total_solves = 0
        for fam in fams:
            want, ref_solves, _ = self.counted(monkeypatch, reference_braid_loop, fam, eps0,
                                               steps)
            got, solves, matches = self.counted(monkeypatch, braid_loop, fam, eps0, steps)
            assert got == want, fam.name
            assert solves <= ref_solves, fam.name
            total_solves += solves
            if isinstance(got, BraidPermutation):
                assert matches == 1, fam.name
                flat_braids += fam.charpoly.trailing_zero_count() > 0
        assert flat_braids >= 3  # families with flat modes braid, not only fail
        if group == "verify":
            assert total_solves <= 1000  # 4,176 with fixed steps


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
