"""Tropicalization, Newton polygons, and leading splitting exponents.

Given the monic characteristic polynomial

    F(lambda, t) = sum_i a_i(t) lambda^(n-i),

the leading power of each eigenvalue branch lambda(t) ~ c * t^omega is read
off from the valuations alpha_i = ord(a_i) in two equivalent ways:

* as a kink of the min-plus polynomial  P(omega) = min_i (alpha_i + (n-i)*omega),
  with multiplicity equal to the slope drop across the kink;
* as a slope of the lower convex hull of the points (i, alpha_i), with
  multiplicity equal to the segment's horizontal extent.

Both routes are implemented independently and must agree; they serve as each
other's oracle in the test suite.

Conventions.  Eigenvalue branches that are *identically* zero (a_n, a_{n-1},
... vanish as exact polynomials) are never reported as tropical roots; they
are counted separately in ``zero_root_count``.  A kink at omega = 0, by
contrast, describes branches of order one in t and is reported as a root with
value 0.  Valuations that are only known to exceed a truncation order poison
the result: the report is flagged ``undetermined`` instead of guessing, and
when such a coefficient lies right of the last finite one the zero-root count
is unknown too and reported as None.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Tuple, Union

from .charpoly import CharPoly
from .poly import Ord


@dataclass(frozen=True)
class TropicalPoly:
    """Min of affine forms alpha + k*omega, one term per finite-ord coefficient;
    ``undetermined_slopes`` holds the slopes of coefficients known only up to
    a truncation order."""

    terms: Tuple[Tuple[int, Fraction], ...]  # (slope k = n - i, intercept alpha_i)
    undetermined_slopes: Tuple[int, ...] = ()

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a tropical polynomial needs at least one term")
        dedup = {}
        for k, alpha in self.terms:
            alpha = Fraction(alpha)
            if k not in dedup or alpha < dedup[k]:
                dedup[k] = alpha
        object.__setattr__(
            self, "terms", tuple(sorted(dedup.items(), reverse=True)))

    @property
    def undetermined(self) -> bool:
        return bool(self.undetermined_slopes)

    def __call__(self, omega) -> Fraction:
        omega = Fraction(omega)
        return min(alpha + k * omega for k, alpha in self.terms)


@dataclass(frozen=True)
class NewtonPolygon:
    """Points (i, alpha_i) for i = 0..n and their lower convex hull."""

    points: Tuple[Tuple[int, Ord], ...]
    hull: Tuple[Tuple[int, Fraction], ...] = field(init=False)
    undetermined: bool = field(init=False)

    def __post_init__(self):
        finite = [(i, Fraction(o.value)) for i, o in self.points if o.is_finite]
        undet = any(o.is_undetermined for _, o in self.points)
        if not finite or finite[0][0] != 0:
            raise ValueError("the monic point (0, alpha_0) must be present")
        object.__setattr__(self, "hull", tuple(_lower_hull(finite)))
        object.__setattr__(self, "undetermined", undet)

    @property
    def n(self) -> int:
        return self.points[-1][0]


def _lower_hull(points):
    """Monotone chain over points already sorted by x; comparisons are exact
    on rational points (the root finder also runs it on float logarithms).

    Collinear interior points are dropped from the vertex list (their extent
    is still covered by the enclosing segment).
    """
    hull = []
    for p in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


@dataclass(frozen=True)
class TropicalRoot:
    omega: Fraction
    multiplicity: int

    def __post_init__(self):
        object.__setattr__(self, "omega", Fraction(self.omega))
        if self.omega < 0 or self.multiplicity < 1:
            raise ValueError("roots are non-negative with positive multiplicity")


@dataclass(frozen=True)
class SplittingReport:
    """Predicted leading exponents, multiplicities, and flat zero modes."""

    roots: Tuple[TropicalRoot, ...]
    zero_root_count: Optional[int]  # None when a truncation hides it
    undetermined: bool = False

    def __post_init__(self):
        if self.zero_root_count is None and not self.undetermined:
            raise ValueError("only an undetermined report may leave the zero-root count open")
        object.__setattr__(self, "roots",
                           tuple(sorted(self.roots, key=lambda r: r.omega)))

    @property
    def total_dimension(self) -> Optional[int]:
        if self.zero_root_count is None:
            return None
        return self.zero_root_count + sum(r.multiplicity for r in self.roots)

    def predicted_cycle_lengths(self) -> Optional[Tuple[int, ...]]:
        """Cycle structure of the braid around t = 0, series by series.

        A root p/q (lowest terms) of multiplicity m consists of m/q Puiseux
        series of q branches each; one loop cyclically permutes the branches
        within every series.  Returns None when some multiplicity is not a
        whole number of series (no clean prediction) or the zero-root count
        is unknown.
        """
        if self.zero_root_count is None:
            return None
        cycles = [1] * self.zero_root_count
        for r in self.roots:
            q = r.omega.denominator if r.omega > 0 else 1
            if r.multiplicity % q:
                return None
            cycles.extend([q] * (r.multiplicity // q))
        return tuple(sorted(cycles))


def tropicalize(c: CharPoly) -> TropicalPoly:
    n = c.n
    terms, undetermined = [], []
    for i, coeff in enumerate(c.coeffs):
        o = coeff.ord()
        if o.is_finite:
            terms.append((n - i, Fraction(o.value)))
        elif o.is_undetermined:
            undetermined.append(n - i)
    return TropicalPoly(tuple(terms), tuple(undetermined))


def newton_polygon(c: CharPoly) -> NewtonPolygon:
    return NewtonPolygon(tuple((i, coeff.ord()) for i, coeff in enumerate(c.coeffs)))


def tropical_roots(obj: Union[CharPoly, TropicalPoly, NewtonPolygon]) -> SplittingReport:
    """Roots with multiplicities from either dual representation."""
    if isinstance(obj, CharPoly):
        obj = newton_polygon(obj)
    if isinstance(obj, NewtonPolygon):
        return _roots_from_hull(obj)
    if isinstance(obj, TropicalPoly):
        return _roots_from_minplus(obj)
    raise TypeError(f"cannot extract tropical roots from {type(obj).__name__}")


def _roots_from_hull(np_: NewtonPolygon) -> SplittingReport:
    roots = []
    for (i0, a0), (i1, a1) in zip(np_.hull, np_.hull[1:]):
        roots.append(TropicalRoot(Fraction(a1 - a0, i1 - i0), i1 - i0))
    last = np_.hull[-1][0]
    hidden = any(o.is_undetermined for i, o in np_.points if i > last)
    return SplittingReport(tuple(roots), None if hidden else np_.n - last,
                           np_.undetermined)


def _roots_from_minplus(p: TropicalPoly) -> SplittingReport:
    terms = p.terms  # slopes strictly decreasing
    n = terms[0][0]
    # candidate kinks: pairwise crossings at non-negative omega
    cands = set()
    for idx, (k1, a1) in enumerate(terms):
        for k2, a2 in terms[idx + 1:]:
            w = Fraction(a2 - a1, k1 - k2)
            if w > 0:  # a crossing at 0 is covered by the virtual slope below
                cands.add(w)
    cands = sorted(cands)

    def active_slope(omega: Fraction) -> int:
        best, slope = None, None
        for k, a in terms:
            v = a + k * omega
            if best is None or v < best:
                best, slope = v, k
        return slope

    # slope of the min on each open interval between crossings
    probes = []
    grid = [Fraction(0)] + cands
    for lo, hi in zip(grid, grid[1:]):
        probes.append((lo + hi) / 2)
    probes.append(grid[-1] + 1)
    slopes = [active_slope(w) for w in probes]

    roots = []
    prev = n  # virtual slope left of omega = 0
    for w, s in zip(grid, slopes):
        if s < prev:
            roots.append(TropicalRoot(w, prev - s))
        prev = s
    zero = terms[-1][0]  # smallest slope = count of identically-zero branches
    hidden = any(k < zero for k in p.undetermined_slopes)
    return SplittingReport(tuple(roots), None if hidden else zero, p.undetermined)

