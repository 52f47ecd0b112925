import random
from fractions import Fraction

import pytest

from reference import branch_phases, rescale_charpoly, tropical_product
from tropeig.charpoly import CharPoly, PolyMatrix, charpoly_direct, charpoly_traces
from tropeig.exact import ec
from tropeig.jordan import _TEMPLATES, build_direction_matrix, catalog_families
from tropeig.poly import ScalarPoly
from tropeig.tropical import (NewtonPolygon, SplittingReport, TropicalPoly,
                              TropicalRoot, newton_polygon, tropical_roots,
                              tropicalize)


def cp_from_alpha(alpha):
    """Monic CharPoly with prescribed coefficient valuations (None = zero)."""
    coeffs = [ScalarPoly.const(1)]
    for a in alpha[1:]:
        coeffs.append(ScalarPoly.zero() if a is None else ScalarPoly.monomial(a))
    return CharPoly(coeffs)


def rand_charpoly(rng, n=None):
    n = n or rng.randint(1, 6)
    alpha = [0] + [rng.choice([None, 0, 1, 1, 2, 3, 4, 5]) for _ in range(n)]
    return cp_from_alpha(alpha)


def roots_set(report):
    return {(r.omega, r.multiplicity) for r in report.roots}


class TestTropicalize:
    def test_square_root_pair(self):
        p = tropicalize(cp_from_alpha([0, None, 1]))
        assert p.terms == ((2, Fraction(0)), (0, Fraction(1)))
        assert p(0) == 0
        assert p(1) == 1

    def test_generic_quartic_chain(self):
        p = tropicalize(cp_from_alpha([0, None, 1, 1, 1]))
        assert p.terms == ((4, Fraction(0)), (2, Fraction(1)),
                           (1, Fraction(1)), (0, Fraction(1)))

    def test_pure_power(self):
        p = tropicalize(cp_from_alpha([0, None, None]))
        assert p.terms == ((2, Fraction(0)),)
        assert tropical_roots(p).roots == ()

    def test_undetermined_flag(self):
        coeffs = [ScalarPoly.const(1), ScalarPoly.zero(),
                  ScalarPoly.zero(trunc=4)]
        report = tropical_roots(tropicalize(CharPoly(coeffs)))
        assert report.undetermined


class TestNewtonPolygon:
    def test_liouvillian_hull(self):
        alpha = [0, 1, 1, 1, 1, 1, 2, 2, 2, 3]
        np_ = newton_polygon(cp_from_alpha(alpha))
        assert np_.hull == ((0, Fraction(0)), (5, Fraction(1)),
                            (8, Fraction(2)), (9, Fraction(3)))
        slopes = [Fraction(a1 - a0, i1 - i0)
                  for (i0, a0), (i1, a1) in zip(np_.hull, np_.hull[1:])]
        assert slopes == [Fraction(1, 5), Fraction(1, 3), Fraction(1)]

    def test_single_segment(self):
        np_ = newton_polygon(cp_from_alpha([0, None, 2]))
        assert np_.hull == ((0, Fraction(0)), (2, Fraction(2)))

    def test_lonely_point(self):
        np_ = newton_polygon(cp_from_alpha([0, None, None]))
        assert np_.hull == ((0, Fraction(0)),)

    def test_collinear_interior_points_dropped(self):
        np_ = newton_polygon(cp_from_alpha([0, 1, 2]))
        assert np_.hull == ((0, Fraction(0)), (2, Fraction(2)))

    def test_hull_slopes_strictly_increase(self):
        rng = random.Random(60)
        for _ in range(200):
            np_ = newton_polygon(rand_charpoly(rng))
            slopes = [Fraction(a1 - a0, i1 - i0)
                      for (i0, a0), (i1, a1) in zip(np_.hull, np_.hull[1:])]
            assert all(s1 < s2 for s1, s2 in zip(slopes, slopes[1:]))


class TestTropicalRoots:
    def test_generic_21_block(self):
        report = tropical_roots(cp_from_alpha([0, None, 1, 2]))
        assert roots_set(report) == {(Fraction(1, 2), 2), (Fraction(1), 1)}

    def test_generic_22_block(self):
        report = tropical_roots(cp_from_alpha([0, None, 1, 2, 2]))
        assert roots_set(report) == {(Fraction(1, 2), 4)}

    def test_two_zero_branches(self):
        report = tropical_roots(cp_from_alpha([0, None, 1, None, None]))
        assert roots_set(report) == {(Fraction(1, 2), 2)}
        assert report.zero_root_count == 2

    def test_duals_agree(self):
        rng = random.Random(61)
        for _ in range(300):
            cp = rand_charpoly(rng)
            assert tropical_roots(tropicalize(cp)) == tropical_roots(newton_polygon(cp))

    def test_multiplicities_account_for_dimension(self):
        rng = random.Random(62)
        for _ in range(300):
            cp = rand_charpoly(rng)
            report = tropical_roots(cp)
            assert report.total_dimension == cp.n

    def test_rescaling_invariance(self):
        rng = random.Random(63)
        for _ in range(50):
            tpl = _TEMPLATES[(2, 1)]
            d = {k: ec(rng.randint(1, 9)) for k in ("d21", "d23", "d31", "d33")}
            cp = charpoly_traces(build_direction_matrix(tpl, d))
            scaled = rescale_charpoly(cp, ec(rng.randint(1, 7), rng.randint(-3, 3)))
            assert tropical_roots(cp) == tropical_roots(scaled)

    def test_kink_value(self):
        p = tropicalize(cp_from_alpha([0, None, 1, 2]))
        # both active affine forms at the kink: 3w and 1 + w
        assert p(Fraction(1, 2)) == Fraction(3, 2)
        assert 3 * Fraction(1, 2) == 1 + Fraction(1, 2) == Fraction(3, 2)

    def test_order_one_branch_is_root_zero(self):
        # constant coefficient of order zero: branches of order one in t
        report = tropical_roots(cp_from_alpha([0, None, 0]))
        assert roots_set(report) == {(Fraction(0), 2)}
        assert report.zero_root_count == 0


class TestHiddenZeroRoots:
    """A coefficient known only up to a truncation order right of the last
    finite one hides the zero-root count: both views report None."""

    def test_truncated_tail_leaves_the_count_open(self):
        # [[0, t^4], [O(t^2), 0]]: a_2 = -t^4 * O(t^2) is unknown
        m = PolyMatrix([[ScalarPoly.zero(), ScalarPoly.monomial(4)],
                        [ScalarPoly.zero(trunc=2), ScalarPoly.zero()]])
        cp = charpoly_direct(m)
        hull, minplus = tropical_roots(newton_polygon(cp)), tropical_roots(tropicalize(cp))
        assert hull == minplus == SplittingReport((), None, undetermined=True)
        assert hull.total_dimension is None and hull.predicted_cycle_lengths() is None

    def test_truncation_left_of_the_last_finite_point_keeps_the_count(self):
        cp = CharPoly([ScalarPoly.const(1), ScalarPoly.zero(trunc=3), ScalarPoly.monomial(1),
                       ScalarPoly.zero()])
        hull, minplus = tropical_roots(newton_polygon(cp)), tropical_roots(tropicalize(cp))
        assert hull == minplus
        assert hull.zero_root_count == 1 and hull.undetermined

    def test_views_agree_with_truncated_coefficients(self):
        rng = random.Random(65)
        for _ in range(300):
            n = rng.randint(1, 6)
            coeffs = [ScalarPoly.const(1)]
            for _ in range(n):
                kind = rng.choice(["zero", "trunc", "mono", "mono"])
                coeffs.append(ScalarPoly.zero() if kind == "zero" else
                              ScalarPoly.zero(trunc=rng.randint(1, 5)) if kind == "trunc" else
                              ScalarPoly.monomial(rng.randint(0, 5)))
            cp = CharPoly(coeffs)
            hull = tropical_roots(newton_polygon(cp))
            assert hull == tropical_roots(tropicalize(cp))
            last = max(i for i, c in enumerate(coeffs) if c.ord().is_finite)
            hidden = any(c.ord().is_undetermined for c in coeffs[last + 1:])
            assert hull.zero_root_count == (None if hidden else n - last)


class TestBranchStructure:
    def test_branch_phases(self):
        root = TropicalRoot(Fraction(1, 3), 3)
        phases = branch_phases(root)
        assert len(phases) == 3
        assert phases[0] == pytest.approx(1)
        assert abs(sum(phases)) < 1e-12

    def test_predicted_cycles(self):
        report = SplittingReport(
            (TropicalRoot(Fraction(1, 2), 4), TropicalRoot(Fraction(1), 1)), 1)
        assert report.predicted_cycle_lengths() == (1, 1, 2, 2)

    def test_no_prediction_when_mult_not_divisible(self):
        report = SplittingReport((TropicalRoot(Fraction(2, 3), 4),), 0)
        assert report.predicted_cycle_lengths() is None


class TestTropicalProduct:
    def test_identity(self):
        one = TropicalPoly(((0, Fraction(0)),))
        p = tropicalize(cp_from_alpha([0, None, 1]))
        assert tropical_product(p, one).terms == p.terms

    def test_root_multisets_add(self):
        rng = random.Random(64)
        for _ in range(100):
            cp1, cp2 = rand_charpoly(rng), rand_charpoly(rng)
            p1, p2 = tropicalize(cp1), tropicalize(cp2)
            prod_roots = tropical_roots(tropical_product(p1, p2))
            lhs = sorted([(r.omega, i) for r in prod_roots.roots
                          for i in range(r.multiplicity)])
            rhs = sorted([(r.omega, None) for rep in (tropical_roots(p1),
                                                      tropical_roots(p2))
                          for r in rep.roots for _ in range(r.multiplicity)])
            assert [w for w, _ in lhs] == [w for w, _ in rhs]
            assert prod_roots.zero_root_count == (tropical_roots(p1).zero_root_count
                                                  + tropical_roots(p2).zero_root_count)

    def test_chain_factor_power(self):
        # (lambda^2 - eps(2 g + eps)) ** floor(L/2) for L = 7
        factor = tropicalize(CharPoly([ScalarPoly.const(1), ScalarPoly.zero(),
                                       ScalarPoly({1: -2, 2: -1})]))
        acc = factor
        for _ in range(2):
            acc = tropical_product(acc, factor)
        report = tropical_roots(acc)
        assert roots_set(report) == {(Fraction(1, 2), 6)}
