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

Both run on integers.  The valuations stay ints: the hull is taken on the
integer points, and the min-plus search scales the intercepts and every
candidate kink by one common integer.  Past the public values, which stay
Fractions as their reprs show (one per hull vertex in ``NewtonPolygon.hull``,
one per intercept in ``TropicalPoly.terms``), a Fraction is built only for a
reported slope.

Conventions.  Eigenvalue branches that are *identically* zero (a_n, a_{n-1},
... vanish as exact polynomials) are never reported as tropical roots; they
are counted separately in ``zero_root_count``.  A kink at omega = 0, by
contrast, describes branches of order one in t and is reported as a root with
value 0.  Valuations that are only known to exceed a truncation order poison
the result: the report is flagged ``undetermined`` instead of guessing, and
when such a coefficient lies right of the last finite one the zero-root count
is unknown too and reported as None.

A Family pairs an exact realization with the SplittingReport its analysis
must reproduce: the one input type of the pipeline, shared by the catalog,
the example builders and files read by the CLI.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm

from .charpoly import CharPoly, PolyMatrix, _blocks, charpoly_direct
from .exact import _fill, _Frozen, _set
from .poly import Ord


class TropicalPoly(_Frozen):
    """Min of affine forms alpha + k*omega, one term per finite-ord coefficient;
    ``undetermined_slopes`` holds the slopes of coefficients known only up to
    a truncation order."""

    __slots__ = ("terms", "undetermined_slopes")

    def __init__(self, terms: tuple[tuple[int, Fraction], ...],  # (slope k = n - i, alpha_i)
                 undetermined_slopes: tuple[int, ...] = ()):
        if not terms:
            raise ValueError("a tropical polynomial needs at least one term")
        dedup = {}
        for k, alpha in terms:
            alpha = Fraction(alpha)
            if k not in dedup or alpha < dedup[k]:
                dedup[k] = alpha
        _fill(self, tuple(sorted(dedup.items(), reverse=True)), undetermined_slopes)

    @property
    def undetermined(self) -> bool:
        return bool(self.undetermined_slopes)

    def __call__(self, omega) -> Fraction:
        omega = Fraction(omega)
        return min(alpha + k * omega for k, alpha in self.terms)


class NewtonPolygon(_Frozen):
    """Points (i, alpha_i) for i = 0..n and their lower convex hull."""

    __slots__ = ("points", "hull", "undetermined")

    def __init__(self, points: tuple[tuple[int, Ord], ...]):
        finite = [(i, o.value) for i, o in points if o.is_finite]
        if not finite or finite[0][0] != 0:
            raise ValueError("the monic point (0, alpha_0) must be present")
        _fill(self, points, tuple((i, Fraction(a)) for i, a in _lower_hull(finite)),
              any(o.is_undetermined for _, o in points))

    @property
    def n(self) -> int:
        return self.points[-1][0]


def _lower_hull(points):
    """Monotone chain over points already sorted by x; comparisons are exact
    on integer or rational points (the root finder also runs it on float
    logarithms).

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


class TropicalRoot(_Frozen):
    __slots__ = ("omega", "multiplicity")

    def __init__(self, omega: Fraction, multiplicity: int):
        if type(omega) is not Fraction:
            omega = Fraction(omega)
        if omega < 0 or multiplicity < 1:
            raise ValueError("roots are non-negative with positive multiplicity")
        _set(self, "omega", omega)
        _set(self, "multiplicity", multiplicity)


class SplittingReport(_Frozen):
    """Predicted leading exponents, multiplicities, and flat zero modes."""

    __slots__ = ("roots", "zero_root_count", "undetermined")

    def __init__(self, roots: tuple[TropicalRoot, ...],
                 zero_root_count: int | None,  # None when a truncation hides it
                 undetermined: bool = False):
        if zero_root_count is None and not undetermined:
            raise ValueError("only an undetermined report may leave the zero-root count open")
        _fill(self, tuple(sorted(roots, key=lambda r: r.omega)), zero_root_count, undetermined)

    @property
    def total_dimension(self) -> int | None:
        if self.zero_root_count is None:
            return None
        return self.zero_root_count + sum(r.multiplicity for r in self.roots)

    def predicted_cycle_lengths(self) -> tuple[int, ...] | None:
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


def _report(roots, zero=0) -> SplittingReport:
    return SplittingReport(tuple(TropicalRoot(Fraction(w), m) for w, m in roots), zero)


class Family(_Frozen):
    """One input to the pipeline: an exact realization and the splitting
    report its tropical analysis must reproduce.

    ``charpoly`` is the realization itself when that is a CharPoly, and
    otherwise the Berkowitz expansion of the matrix, computed on first use.
    A caller that already holds the characteristic polynomial passes it as
    ``known_charpoly`` so it is not expanded a second time.  ``deflation``
    is computed on first use too, and only the float checks read it.
    """

    # __dict__ holds the cached charpoly and deflation
    __slots__ = ("name", "realization", "expected", "parameters", "annotations", "__dict__")

    def __init__(self, name: str, realization: PolyMatrix | CharPoly,
                 expected: SplittingReport, parameters: dict[str, object] | None = None,
                 annotations: tuple[str, ...] = (), known_charpoly: CharPoly | None = None):
        _fill(self, name, realization, expected, {} if parameters is None else parameters,
              annotations)
        if known_charpoly is not None:
            self.__dict__["charpoly"] = known_charpoly  # seeds the cached property

    @cached_property
    def charpoly(self) -> CharPoly:
        if isinstance(self.realization, CharPoly):
            return self.realization
        return charpoly_direct(self.realization)

    @cached_property
    def deflation(self) -> tuple[CharPoly, tuple[tuple[CharPoly, int], ...]]:
        """(cp, factors): the charpoly the float checks solve, and the block
        factors they deflate, as (f, m) in block order.  A factor is an exact
        charpoly f, no power of lambda, of m > 1 irreducible diagonal blocks
        (charpoly._blocks): its roots repeat exactly m times.  cp is then the
        charpoly of M[S, S], S keeping the first block of each factor and
        every other block, which is the product of the distinct block
        charpolys.  Without a factor, as for a charpoly realization or fewer
        than two blocks, cp is ``charpoly``.  Computed on first use and kept."""
        m = self.matrix
        parts = [] if m is None else _blocks(m)
        if len(parts) < 2:
            return self.charpoly, ()

        def principal(idx):
            return PolyMatrix([[m.rows[i][j] for j in idx] for i in idx])

        groups: dict[CharPoly, list] = {}
        for b in parts:
            groups.setdefault(charpoly_direct(principal(b)), []).append(b)
        keep, factors = [], []
        for f, where in groups.items():
            if (len(where) > 1 and all(a.trunc is None for a in f.coeffs)
                    and any(a.terms for a in f.coeffs[1:])):
                factors.append((f, len(where)))
                where = where[:1]
            keep += where
        if not factors:
            return self.charpoly, ()
        return charpoly_direct(principal(sorted(i for b in keep for i in b))), tuple(factors)

    @property
    def matrix(self) -> PolyMatrix | None:
        """The realization if it is a matrix, else None."""
        return self.realization if isinstance(self.realization, PolyMatrix) else None


def tropicalize(c: CharPoly) -> TropicalPoly:
    n = c.n
    terms, undetermined = [], []
    for i, coeff in enumerate(c.coeffs):
        o = coeff.ord()
        if o.is_finite:
            terms.append((n - i, o.value))
        elif o.is_undetermined:
            undetermined.append(n - i)
    return TropicalPoly(tuple(terms), tuple(undetermined))


def newton_polygon(c: CharPoly) -> NewtonPolygon:
    return NewtonPolygon(tuple((i, coeff.ord()) for i, coeff in enumerate(c.coeffs)))


def tropical_roots(obj: CharPoly | TropicalPoly | NewtonPolygon) -> SplittingReport:
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
        rise = a1.numerator * a0.denominator - a0.numerator * a1.denominator
        run = i1 - i0
        roots.append(TropicalRoot(Fraction(rise, a0.denominator * a1.denominator * run), run))
    last = np_.hull[-1][0]
    hidden = any(o.is_undetermined for i, o in np_.points if i > last)
    return SplittingReport(tuple(roots), None if hidden else np_.n - last,
                           np_.undetermined)


def _roots_from_minplus(p: TropicalPoly) -> SplittingReport:
    # Each kink lies at 0 or where two terms cross at omega > 0.  Right of
    # a kink the least slope attaining the minimum rules, and the kink's
    # multiplicity is the drop from the slope on its left; left of 0 the
    # slope counts as n, so a kink at 0 holds the branches of order one.
    # The search runs on integers: with d the lcm of the intercepts'
    # denominators and s = d * lcm(1..n), every crossing is omega = w / s
    # for an integer w, and alpha + k*omega compares as alpha*s + k*w.
    d = lcm(*(a.denominator for _, a in p.terms))
    scale = lcm(*range(1, p.terms[0][0] + 1))  # every slope difference divides it
    terms = [(k, a.numerator * (d // a.denominator) * scale) for k, a in p.terms]
    cands = {0} | {(b2 - b1) // (k1 - k2) for (k1, b1), (k2, b2)
                   in combinations(terms, 2) if b2 > b1}
    roots, prev = [], terms[0][0]
    for w in sorted(cands):
        slope = min((b + k * w, k) for k, b in terms)[1]
        if slope < prev:
            roots.append(TropicalRoot(Fraction(w, d * scale), prev - slope))
        prev = slope
    zero = terms[-1][0]  # smallest slope = count of identically-zero branches
    hidden = any(k < zero for k in p.undetermined_slopes)
    return SplittingReport(tuple(roots), None if hidden else zero, p.undetermined)
