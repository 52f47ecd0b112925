"""Floating-point verification of the exact predictions.

The symbolic layer predicts leading exponents omega and, through the edge
polynomials E_omega of the Newton polygon, the prefactors of the branches
lambda ~ c * t^omega; this module checks both on actual numbers, each branch
on its own scale t^omega (the scaled-root check, see fit_exponents).  Flat
zero modes are counted from the exact characteristic polynomial.  Braids
are read off by continuing eigenvalues around a small loop.  The check and
the braid solve by an Ehrlich-Aberth simultaneous root iteration on a scaled
polynomial of the exactly-known characteristic polynomial (see
_scaled_polynomial), whose coefficients hold only non-negative powers of t,
so deep points neither underflow nor overflow.  Both checks take their
floats from one place, _float_tables, once per check or braid loop; it
refuses a coefficient with a term that a float cannot hold (one that
overflows, or rounds to 0) with a ValueError naming a_i.

The iteration is one fused Gauss-Seidel sweep: each root in turn takes one
Horner pass for p and p' and one sum s of 1/(z_i - z_j) over the roots
before it and after it, and is updated in place by Aberth's correction
p / (p' - p*s) before the next one is visited.  Where p' = 0 that step is
-1/s; where s = 0 as well no step is defined, and the sweep does not count
as converged.  aberth_roots either returns finite roots or raises: a
ValueError for a leading 0 or a coefficient that is not finite, and
NonConvergenceError when the sweeps run out or a guess or an iterate
leaves the floats.

Both checks first deflate repeated blocks (Family.deflation).  Where the
matrix's irreducible diagonal blocks share an exact charpoly f that is no
power of lambda, f's roots repeat exactly and a root iteration stalls on
them, so each check solves the principal submatrix that keeps one copy of
each such block: the fit counts the other copies from f's exact report,
and the braid appends copies of f's braid.  This says nothing about the
Jordan structure across equal blocks.

Every root solve of the check starts from Newton-polygon guesses, so the
roots at one point do not depend on the other.  The braid loop is a
continuation: each solve starts from the previous step's roots, only the
roots that move are continued, and a step is accepted by a nearest-neighbour
rule that agrees with the minimum-displacement assignment (see braid_loop).
It runs in a frame that turns with the largest branches: on t = eps0 * w a
branch lambda ~ c * t^omega of the least slope omega turns rigidly as
w^omega, so the loop continues nu = lambda * w^(-omega) / eps0^omega, in
which those branches stand nearly still and most steps are the longest
allowed (see _loop_tables).  Any omega gives the same braid, as |w^omega|
= 1 keeps every distance the rules read.  A real charpoly's roots at
conj(t) are the conjugates of those at t, so its loop walks phi from 0 to pi
only and reads the mirrored half off the conjugation maps at t = +-eps0.
Each eigenvalue is measured against its own spacing: a step is sized from
the roots' velocities so that, to first order, no root moves more than 0.25
of its spacing; it is accepted if each root moves by up to 0.45 of the
distance from its new place to the nearest other eigenvalue, and halved
otherwise; and a loop is refused as degenerate when some pair lies closer
than 1e-3 of the larger of their moduli, so branches of different orders
in t are each tracked on their own scale.

Tolerances and limits are module constants: ROOT_TOL and ROOT_ITERATIONS
for the root iteration, SEPARATION and EXACT_DISTANCE for the scaled-root
check.  The package's __init__ writes those the CLI shows too: MATCH_TOL,
GRID_T0, GRID_PHASE and CHECK_DECADES for the check, and BRAID_EPS0,
BRAID_STEPS and BRAID_HALVINGS for the loop's radius and shortest step.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from fractions import Fraction

from . import (BRAID_EPS0, BRAID_HALVINGS, BRAID_STEPS, CHECK_DECADES, GRID_PHASE, GRID_T0,
               MATCH_TOL)
from .charpoly import CharPoly
# charpoly_direct is not called here; the benchmark reads this binding
# (perfbench/tests/test_harness.py)
from .charpoly import charpoly_direct  # noqa: F401
from .exact import EC_ZERO, ExactComplex, _fill, _Frozen
from .poly import horner_table
from .tropical import Family, SplittingReport, TropicalRoot, _lower_hull, tropical_roots

# Aberth stops once every relative step is below this (about 225 ulps)
ROOT_TOL = 5e-14
# cap on Aberth sweeps; the built-in families converge within 42
ROOT_ITERATIONS = 300
# at the second point, the nearest root left over, and 0, must lie at least
# this many times farther from the edge roots than the farthest branch
SEPARATION = 4.0
# a branch this close to its edge root (relative) needs no rate: the scaled
# polynomial of an exact branch such as lambda^2 - t^q is E itself
EXACT_DISTANCE = 1e-10
# the complex that the int 1 converts to in mixed arithmetic: the same bits,
# without the conversion
_ONE = 1 + 0j


class NonConvergenceError(RuntimeError):
    """The root iteration did not converge within ROOT_ITERATIONS sweeps, or
    an iterate left the floats.  ``residual`` is the largest relative step of
    the last sweep, and nan in the second case."""

    def __init__(self, message: str, residual: float = math.nan):
        super().__init__(message)
        self.residual = residual


class LoopDegeneracyError(RuntimeError):
    """The braid loop came too close to a degeneracy to track reliably."""


class UndeterminedError(ValueError):
    """The prediction, or a coefficient that a sample would read as 0, is undetermined."""


def _float_tables(cp: CharPoly, expected: SplittingReport | None = None):
    """(zeros, floats): cp's flat zero count and the float tables of its moving
    coefficients a_0..a_{n-zeros}, the one form in which both checks read cp.
    Raises UndeterminedError when a sample would read an unknown truncated
    coefficient as 0, then when the prediction ``expected`` is undetermined,
    and only then converts: ValueError naming a_i when a term's conversion,
    or its modulus, overflows, is not finite, or turns its nonzero value
    into 0."""
    # ScalarPoly.ord is undetermined exactly when no term is known below trunc
    if any(not a.terms and a.trunc is not None for a in cp.coeffs):
        raise UndeterminedError("a sample would read an unknown truncated coefficient as 0")
    if expected is not None and expected.undetermined:
        raise UndeterminedError("the prediction is undetermined")
    floats = []
    for i, a in enumerate(cp.coeffs[:cp.n - cp.trailing_zero_count() + 1]):
        try:
            floats.append(a.float_table())
            in_range = all(0 < abs(c) < math.inf for _, c in floats[-1])
        except OverflowError:  # a term, or its modulus, too large for a float
            in_range = False
        if not in_range:
            raise ValueError(f"charpoly coefficient a_{i} has a term beyond the range of floats")
    return cp.n + 1 - len(floats), floats


# ---------------------------------------------------------------------------
# polynomial roots: Ehrlich-Aberth with Newton-polygon initialization
# ---------------------------------------------------------------------------

def _initial_guesses(coeffs: Sequence[complex]) -> list[complex]:
    try:
        # upper convex hull of (i, log|c_i|); negation is exact, so the lower
        # hull of the negated points makes the same decisions
        pts = [(i, -math.log(abs(c))) for i, c in enumerate(coeffs) if c != 0]
        hull = [(i, -y) for i, y in _lower_hull(pts)]
        # both end coefficients are nonzero (aberth_roots), so one guess per root
        guesses: list[complex] = []
        for gi, ((i0, y0), (i1, y1)) in enumerate(zip(hull, hull[1:])):
            radius = math.exp((y1 - y0) / (i1 - i0))
            g = i1 - i0
            for k in range(g):
                theta = 2 * math.pi * k / g + 0.4 + 0.9 * gi
                guesses.append(radius * cmath.exp(1j * theta))
        return guesses
    except OverflowError:  # a modulus |c_i|, or a hull radius, beyond the floats
        raise NonConvergenceError("root iteration left the floats") from None


def aberth_roots(coeffs: Sequence[complex],
                 start: Sequence[complex] | None = None) -> list[complex]:
    """All roots of a polynomial given by leading-first coefficients.

    The iteration starts from ``start`` when it holds one point per root
    left after exact zero roots are peeled off (a continuation passes the
    previous roots), and from Newton-polygon guesses otherwise.

    Multiple roots converge only linearly and bottom out at roughly
    machine_eps^(1/m) relative scatter around the true root; the iteration
    accepts such a stagnated cluster instead of spinning forever.

    Raises ValueError when the leading coefficient is 0 or a coefficient is
    not finite, and NonConvergenceError, with a nan residual, rather than
    return a root that is not finite or start from a guess that is not.
    Such a root comes from values of the polynomial that overflow: its nan
    step does not count in the sweep's largest step, and the sums pass the
    nan to the other roots, so the iteration would stop as if converged.
    A root whose step is undefined (p' = 0 and s = 0, see the module
    docstring) counts as an infinite step, so it is never returned as
    converged.
    """
    coeffs = [complex(c) for c in coeffs]
    if not all(map(cmath.isfinite, coeffs)):
        raise ValueError("coefficients must be finite")
    if not coeffs[0]:
        raise ValueError("leading coefficient must be nonzero")
    # peel off exact zero roots so the hull sees a nonzero constant term
    tail_zeros = 0
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
        tail_zeros += 1
    m = len(coeffs) - 1
    if m == 0:
        return [0j] * tail_zeros
    z = list(start) if start is not None and len(start) == m else _initial_guesses(coeffs)
    head, tail = coeffs[0], coeffs[1:]
    prev_step = math.inf
    stalled = 0
    for _ in range(ROOT_ITERATIONS):
        max_step = 0.0
        for i in range(m):
            # Horner for p and p' at z_i; `not x` is `x == 0` for a complex
            zi = z[i]
            p, dp = head, 0j
            for c in tail:
                dp, p = dp * zi + p, p * zi + c
            if not p:
                continue
            s = 0j
            for zj in z[:i]:
                diff = zi - zj
                if not diff:
                    diff = 1e-300
                s += _ONE / diff
            for zj in z[i + 1:]:
                diff = zi - zj
                if not diff:
                    diff = 1e-300
                s += _ONE / diff
            if dp:
                w = p / dp
                denom = _ONE - w * s
                step = w if not denom else w / denom
            elif s:
                step = -1 / s  # p / (p' - p*s) at p' = 0
            else:  # no step is defined: the root has not converged
                max_step = math.inf
                continue
            z[i] = zi = zi - step
            rel = abs(step) / (1 + abs(zi))
            if rel > max_step:
                max_step = rel
        if max_step > ROOT_TOL:
            stalled = stalled + 1 if max_step > 0.7 * prev_step else 0
            if stalled < 8 or max_step > 1e-4:
                prev_step = max_step
                continue
        if not all(map(cmath.isfinite, z)):
            raise NonConvergenceError("root iteration left the floats")
        return z + [0j] * tail_zeros
    raise NonConvergenceError(f"root iteration did not converge "
                              f"(iterations={ROOT_ITERATIONS}, residual={max_step:.3e})",
                              max_step)


# ---------------------------------------------------------------------------
# eigenvalue assignment
# ---------------------------------------------------------------------------

def _assign(cost: Sequence[Sequence[float]]) -> list[int]:
    """Column order[i] for each row i of a square cost matrix, of least
    total cost.

    Hungarian method with potentials, O(n^3): row i enters through a
    shortest augmenting path in reduced costs from column 0, a virtual root.
    Strict comparisons send ties to the lowest column index.
    """
    n = len(cost)
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    owner = [0] * (n + 1)  # owner[j]: row (1-based) holding column j, 0 if free
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        minv = [math.inf] * (n + 1)
        way = [0] * (n + 1)
        used = [False] * (n + 1)
        while owner[j0]:
            used[j0] = True
            i0 = owner[j0]
            row, ui = cost[i0 - 1], u[i0]
            delta, j1 = math.inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - ui - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            if not j1:
                raise ValueError("displacements must be finite numbers")
            for j in range(n + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    order = [0] * n
    for j in range(1, n + 1):
        order[owner[j] - 1] = j - 1
    return order


# not called here; stays importable because the benchmark's tracer looks it
# up by name (perfbench/layers.py)
def track_eigenvalues(eig_fn, params: Sequence[complex]):
    """Eigenvalues along a parameter path, one list of n per parameter,
    ordered by continuation."""
    first = sorted(eig_fn(params[0]), key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    tracks = [first]
    for t in params[1:]:
        new = eig_fn(t)
        order = _assign([[abs(p - q) for q in new] for p in tracks[-1]])
        tracks.append([new[j] for j in order])
    return tracks


# ---------------------------------------------------------------------------
# the scaled-root check
# ---------------------------------------------------------------------------

class ClusterFit(_Frozen):
    """One predicted exponent as the check saw it.

    ``exponent`` is the two-point exponent of the branches assigned to
    E_omega's nonzero roots and ``size`` their number; ``matched`` is the
    predicted root when every test passed.  ``distance`` is the largest
    relative distance |mu - r| / |r| of a branch from its edge root at the
    second point, and ``rate`` that distance over the one at the first, both
    floored at EXACT_DISTANCE.  ``edge`` holds the exact coefficients of
    E_omega with its zero roots divided out, leading first: its roots are
    the prefactors c of the branches lambda ~ c * t^omega.  When blocks are
    deflated (VerificationResult.deflated), ``size`` also counts the
    unsolved copies' branches, and the other fields are those of the
    charpoly solved, whose edge roots stand for their copies too.
    """

    __slots__ = ("exponent", "size", "matched", "distance", "rate", "edge")

    def __init__(self, exponent: float, size: int, matched: TropicalRoot | None,
                 distance: float, rate: float, edge: tuple[ExactComplex, ...]):
        _fill(self, exponent, size, matched, distance, rate, edge)


class VerificationResult(_Frozen):
    """The scaled-root check's verdict (fit_exponents).  ``deflated`` holds
    the (degree, multiplicity) of each repeated block factor of which the
    check solved one copy, and is empty when no block repeats."""

    __slots__ = ("clusters", "zero_tracks", "passed", "diagnostics", "deflated")

    def __init__(self, clusters: tuple[ClusterFit, ...], zero_tracks: int, passed: bool,
                 diagnostics: tuple[str, ...] = (), deflated: tuple[tuple[int, int], ...] = ()):
        _fill(self, clusters, zero_tracks, passed, diagnostics, deflated)


def _check_fit_arguments(t0: float, phase: float, match_tol: float) -> None:
    if not (math.isfinite(match_tol) and match_tol > 0):
        raise ValueError(f"match_tol must be finite and positive, got {match_tol}")
    if not (math.isfinite(t0) and t0 > 0) or not math.isfinite(phase):
        raise ValueError(f"need a finite t0 > 0 and a finite phase, got t0={t0}, phase={phase}")
    if _fit_points(t0, phase)[1] == 0:
        raise ValueError(f"t0={t0} is too small: the second point, {CHECK_DECADES} decades "
                         "below it, underflows to 0")


def _fit_points(t0: float, phase: float) -> tuple[complex, complex]:
    """The check's two points t1 = t0 * e^(i*phase) and t2 = t1 / 10^CHECK_DECADES."""
    t1 = t0 * cmath.exp(1j * phase)
    return t1, t1 * 10.0 ** -CHECK_DECADES


def _scaled_polynomial(floats, omega: Fraction):
    """The tables of the moving part sum_{i <= moving} a_i lambda^(moving-i)
    of a charpoly at the exponent omega, from the float tables ``floats`` of
    a_0..a_moving (_float_tables).

    With nu = min_i(ord a_i + omega*(moving - i)), tables[i] lists (x, e, c)
    over the terms c*t^e of a_i, where x = e + omega*(moving - i) - nu >= 0:
    the coefficient of mu^(moving-i) in q_t(mu) = t^(-nu) p(t^omega mu, t)
    is the sum of c*t^x.
    """
    moving = len(floats) - 1
    p, q = omega.numerator, omega.denominator
    # exponents times q, so that they stay integers
    shifts = [p * (moving - i) for i in range(moving + 1)]
    nu = min(q * table[-1][0] + s for table, s in zip(floats, shifts) if table)
    return [[((q * e + s - nu) / q, e, c) for e, c in table] for table, s in zip(floats, shifts)]


def _scaled_roots(tables, t: complex) -> list[complex] | None:
    """Roots of q_t at t, or None when a coefficient is not finite or a root
    leaves the floats; a leading coefficient that underflows to 0 drops a
    root at infinity, which lies far from every edge root."""
    log_t = cmath.log(t)
    try:
        coeffs = [sum(c * cmath.exp(x * log_t) for x, _, c in table) for table in tables]
    except OverflowError:
        return None
    if not all(map(cmath.isfinite, coeffs)):
        return None
    while coeffs[0] == 0:
        coeffs.pop(0)
    try:
        return aberth_roots(coeffs)
    except NonConvergenceError as exc:
        if math.isnan(exc.residual):
            return None
        raise


def _edge_distances(edge_roots: Sequence[complex], roots: Sequence[complex]):
    """(near, far, assigned) for roots of q_t against E_omega's nonzero roots.

    The roots are assigned to the edge roots at least total relative
    distance |mu - r| / |r|; ``near`` is the largest distance of an assigned
    root, ``far`` the smallest distance of another root to any edge root
    (inf if none is left), and ``assigned`` the assigned roots.
    """
    m = len(edge_roots)
    cost = [[abs(z - r) / abs(r) for z in roots] for r in edge_roots]
    cost += [[0.0] * len(roots) for _ in range(len(roots) - m)]
    order = _assign(cost)
    near = max(cost[k][order[k]] for k in range(m))
    left = set(range(len(roots))) - set(order[:m])
    far = min((min(cost[k][j] for k in range(m)) for j in left), default=math.inf)
    return near, far, [roots[j] for j in order[:m]]


def _mean_log(zs: Sequence[complex]) -> float:
    # fsum rounds alike on every Python; sum() is compensated from 3.12 on
    return math.fsum(math.log(abs(z)) if z else -math.inf for z in zs) / len(zs)


def fit_exponents(family: Family, t0: float = GRID_T0, phase: float = GRID_PHASE,
                  match_tol: float = MATCH_TOL) -> VerificationResult:
    """Check each predicted exponent on its own scale.

    For a predicted root omega of multiplicity m, the nonzero roots r of the
    edge polynomial E_omega are solved once, and the scaled polynomial q_t
    (see _scaled_polynomial) at the two points t1 = t0 * e^(i*phase) and
    t2 = t1 / 10^CHECK_DECADES.  At each point the roots of q_t are assigned
    to the r at least total relative distance |mu - r| / |r|, and the root
    passes when

    * E_omega has exactly m nonzero roots, so m branches are assigned;
    * at t2 the nearest root not assigned, and 0, lie at least SEPARATION
      times farther from the edge roots than the farthest assigned one.  In
      mu the branches of higher order tend to 0, at relative distance 1
      from every edge root, so d2 must stay below 1/SEPARATION even when
      E_omega takes every moving root;
    * the largest distance d of an assigned root shrinks:
      d(t2) <= d(t1) * (t2/t1)^(1/(2n')), with n' moving roots, or
      d(t2) <= EXACT_DISTANCE.  A branch is a Puiseux series
      mu = r + c*t^(k/e) + ... whose cycle length e is at most n', so d
      falls at least like (t2/t1)^(1/n') once its leading correction
      dominates; the square root leaves room for the next terms.  The
      scaled polynomial of an exact branch (the torus knots) is E_omega
      itself, and d stays at rounding level;
    * the two-point exponent omega + (mean log|mu|(t2) - mean log|mu|(t1))
      / log|t2/t1| over the assigned roots lies within ``match_tol`` of
      omega.

    The multiplicities must add up to the n' moving roots, and the flat zero
    modes, counted from the exact characteristic polynomial, must match the
    prediction.  With repeated blocks (Family.deflation) the check solves
    the charpoly of one copy of each, n' counts that charpoly's moving roots
    in the rate rule, and the m - 1 other copies of a factor f add f's exact
    report: its branches to each exponent's count of edge roots and to the
    moving roots, and its flat zeros to the flat count.  Every root solve
    starts from Newton-polygon guesses and q_t has only non-negative powers
    of t, so deep points do not underflow.
    Mismatches produce ``passed=False`` with diagnostics rather than an
    exception.  Raises ValueError unless ``match_tol`` and ``t0`` are finite
    and positive and ``phase`` is finite, then UndeterminedError when the
    prediction or a charpoly coefficient is undetermined, then ValueError
    when a term of a charpoly coefficient is beyond the range of floats
    (_float_tables).
    """
    _check_fit_arguments(t0, phase, match_tol)
    expected = family.expected
    cp, factors = family.deflation
    zero_tracks, floats = _float_tables(cp, expected)
    moving = len(floats) - 1
    # the m - 1 unsolved copies of each factor: their branches per exponent,
    # by the factor's exact report, and their flat zeros
    copies = {}
    for f, m in factors:
        report = tropical_roots(f)
        zero_tracks += (m - 1) * report.zero_root_count
        for r in report.roots:
            copies[r.omega] = copies.get(r.omega, 0) + (m - 1) * r.multiplicity
    t1, t2 = _fit_points(t0, phase)
    bound = 10.0 ** (-CHECK_DECADES / (2 * moving)) if moving else 0.0

    ok = True
    diagnostics: list[str] = []
    out: list[ClusterFit] = []
    for root in expected.roots:
        m = root.multiplicity
        tables = _scaled_polynomial(floats, root.omega)
        # E_omega = lim q_t, its zero roots divided out, leading first: the
        # terms at x = 0 from the first coefficient with one to the last
        on_edge = [i for i, table in enumerate(tables) if table and not table[-1][0]]
        span = range(on_edge[0], on_edge[-1] + 1)
        edge = tuple(cp.coeffs[i].terms[tables[i][-1][1]] if i in on_edge else EC_ZERO
                     for i in span)
        if len(edge) == 1:
            ok = False
            diagnostics.append(f"predicted root {root.omega} x{m} is no slope of the "
                               "Newton polygon")
            continue
        edge_roots = aberth_roots([tables[i][-1][2] if i in on_edge else 0j for i in span])
        if not all(edge_roots):  # a nonzero root of E_omega underflowed to 0
            raise NonConvergenceError("root iteration left the floats")
        solved = [_scaled_roots(tables, t) for t in (t1, t2)]
        if None in solved:
            ok = False
            diagnostics.append(f"predicted root {root.omega} x{m}: q_t is not finite at "
                               f"|t| = {abs((t1, t2)[solved.index(None)]):.3e}")
            continue
        # q_t has at least as many roots as E_omega: its coefficient at
        # E_omega's leading index holds a t^0 term, so it does not underflow
        (d1, _, near1), (d2, far2, near2) = (_edge_distances(edge_roots, r) for r in solved)
        size = len(edge_roots) + copies.get(root.omega, 0)
        rate = max(d2, EXACT_DISTANCE) / max(d1, EXACT_DISTANCE)
        exponent = float(root.omega) + (_mean_log(near2) - _mean_log(near1)) / math.log(
            abs(t2 / t1))
        problems = []
        if size != m:
            problems.append(f"{size} edge roots")
        if min(far2, 1.0) < SEPARATION * d2:
            problems.append(f"next root or 0 at {min(far2, 1.0):.3e} against {d2:.3e}")
        if d2 > EXACT_DISTANCE and rate > bound:
            problems.append(f"distance {d1:.3e} -> {d2:.3e}, rate above {bound:.3f}")
        if not abs(exponent - float(root.omega)) <= match_tol:
            problems.append(f"exponent~{exponent:.4f}")
        if problems:
            ok = False
            diagnostics.append(f"predicted root {root.omega} x{m}: " + "; ".join(problems))
        out.append(ClusterFit(exponent, size, None if problems else root, d2, rate, edge))
    predicted = sum(r.multiplicity for r in expected.roots)
    moving += sum(copies.values())
    if predicted != moving:
        ok = False
        diagnostics.append(f"{moving} moving roots, the prediction accounts for {predicted}")
    if zero_tracks != expected.zero_root_count:
        ok = False
        diagnostics.append(
            f"{zero_tracks} identically-zero tracks, expected {expected.zero_root_count}")
    return VerificationResult(tuple(out), zero_tracks, ok, tuple(diagnostics),
                              tuple((f.n, m) for f, m in factors))


# ---------------------------------------------------------------------------
# braids
# ---------------------------------------------------------------------------

class BraidPermutation(_Frozen):
    __slots__ = ("permutation", "cycle_lengths")

    def __init__(self, permutation: tuple[int, ...]):
        if sorted(permutation) != list(range(len(permutation))):
            raise ValueError(f"not a permutation: {permutation}")
        seen, cycles = set(), []
        for start in range(len(permutation)):
            if start in seen:
                continue
            length, cur = 0, start
            while cur not in seen:
                seen.add(cur)
                cur = permutation[cur]
                length += 1
            cycles.append(length)
        _fill(self, permutation, tuple(sorted(cycles)))


def _spacings(roots: Sequence[complex], zeros: int) -> list[float]:
    """The spacing of each root: its distance to the nearest other root or,
    when there are ``zeros`` flat zeros, to 0; inf if there is neither.

    Each pairwise distance is taken once, for both roots: |a - b| == |b - a|
    in floats, as a - b is -(b - a) exactly.
    """
    out = [abs(z) for z in roots] if zeros else [math.inf] * len(roots)
    for k, z in enumerate(roots):
        near = out[k]
        for j in range(k + 1, len(roots)):
            d = abs(z - roots[j])
            if d < near:
                near = d
            if d < out[j]:
                out[j] = d
        out[k] = near
    return out


def _nearest_within(cur: Sequence[complex], new: Sequence[complex],
                    spacing: Sequence[float]) -> list[int] | None:
    """Indices m with new[m[i]] the point of new nearest to cur[i], or None
    unless these points are distinct and each lies within 0.45 of its
    spacing (_spacings of new) from cur[i].

    A point that close to cur[i] is nearer to it than a flat zero is.
    """
    order = []
    for c in cur:
        # the first point at the least distance
        j, near = 0, abs(c - new[0])
        for k in range(1, len(new)):
            d = abs(c - new[k])
            if d < near:
                j, near = k, d
        if near > 0.45 * spacing[j] or j in order:
            return None
        order.append(j)
    return order


def _check_separated(roots: Sequence[complex], spacing: Sequence[float]) -> None:
    """Raise LoopDegeneracyError when two eigenvalues, the roots and the flat
    zeros ``spacing`` (_spacings) counts, lie closer than 1e-3 of the larger
    of their moduli; two exact zeros pass.

    min spacing_k / |z_k| over the nonzero roots equals, in floats too, the
    least pairwise ratio |a - b| / max(|a|, |b|): for the pair with |a| >= |b|
    attaining the latter, s_a <= |a - b|; and the root attaining the former
    with its nearest neighbour is a pair of no larger ratio.  A zero root
    meets only ratios of 1, and its partner b has s_b / |b| <= 1.
    """
    worst = min((s / abs(z) for z, s in zip(roots, spacing) if z), default=math.inf)
    if worst < 1e-3:
        raise LoopDegeneracyError(
            f"two eigenvalues lie {worst:.3e} of their larger modulus apart, below "
            "1e-3; loop too coarse or crossing a degeneracy")


def _check_braid_arguments(eps0: float, steps: int) -> None:
    if steps < 1 or not (math.isfinite(eps0) and eps0 > 0):
        raise ValueError(f"braid loop needs steps >= 1 and a finite eps0 > 0, "
                         f"got steps={steps}, eps0={eps0}")


def _loop_step(coeffs: Sequence[complex], dcoeffs: Sequence[complex],
               roots: Sequence[complex], spacing: Sequence[float], floor: float) -> float:
    """Phase step of a braid loop w = e^(i*phi) from the roots of the
    polynomial ``coeffs`` (leading first) at u = e^(i*phi/q) (_loop_tables):
    the largest step up to 2*pi/8 over which, to first order, no root moves
    more than 0.25 of its ``spacing``.

    ``dcoeffs`` are (u d/du)/q of the coefficients, the polynomial d; as
    d/dphi = (i/q) u d/du, a root moves at dnu/dphi = -i*d(nu) / p'(nu).
    Raises LoopDegeneracyError when a velocity is not finite (p' vanishes at
    a root) or the step is shorter than ``floor``.
    """
    h = 2 * math.pi / 8
    head, tail = coeffs[0], coeffs[1:]
    for z, sep in zip(roots, spacing):
        # Horner for p' and for d at z
        p, dp = head, 0j
        for c in tail:
            dp, p = dp * z + p, p * z + c
        d = dcoeffs[0]
        for c in dcoeffs[1:]:
            d = d * z + c
        speed = abs(d / dp) if dp else math.inf
        if not math.isfinite(speed):
            raise LoopDegeneracyError(f"eigenvalue velocity {speed} on the loop; "
                                      "it crosses a degeneracy")
        if speed:
            h = min(h, 0.25 * sep / speed)
    if h < floor:
        raise LoopDegeneracyError(f"eigenvalues move too fast: step {h:.3e} below "
                                  f"the shortest allowed, {floor:.3e}")
    return h


def _loop_tables(floats, eps0: float):
    """(scale, p, q, tables) of a braid loop t = eps0 * w, w = e^(i*phi),
    from the float tables ``floats`` of the moving a_i (_float_tables), in a
    frame that turns with the largest branches.

    omega = p/q is the least slope min_{i>=1} ord(a_i)/i of the Newton
    polygon and scale = eps0^omega.  The roots mu of p(scale*mu, t) /
    scale^n', the largest of order 1, are continued as nu = mu * w^(-omega),
    the roots of sum_i a_i(eps0*w) / (scale * w^omega)^i * nu^(n'-i).  For
    each moving a_i, tables[i] holds the (q*e - p*i, c * eps0^x) over the
    terms (x, e, c) of _scaled_polynomial at omega: the exponents q*e - p*i
    = q*x >= 0 are integers in u = e^(i*phi/q), so horner_table(tables[i],
    u) = a_i(eps0*w) / (scale * w^omega)^i.  A branch mu ~ c * w^omega turns
    rigidly with w and stands nearly still as nu.  Any omega would give the
    same braid: the frame is a continuous change of variable along the loop
    with |w^omega| = 1, so it keeps every distance, spacing and modulus the
    loop's rules read; at the phase phi it is undone by mu = u^p * nu.

    As a_0 = 1 and every x >= 0, no coefficient overflows for eps0 <= 1.  At
    a larger radius the coefficients can be finite while the polynomial's
    values at its roots are not, so this raises LoopDegeneracyError, once
    for the whole loop, unless a bound of every Horner sum the loop takes is
    finite: on |u| = 1 table i and its (u d/du)/q sum to at most s_i = sum
    |c| and d_i = sum x |c|, every root nu lies within r = max(1, 2 max_i
    s_i^(1/i)) (Fujiwara's bound, as the leading coefficient is 1), and
    there the values of the polynomial, of its derivative and of the (u
    d/du)/q one are at most sum_i (k + 1) (s_i + d_i) r^k with k = n' - i."""
    omega = min((Fraction(table[-1][0], i) for i, table in enumerate(floats) if i and table),
                default=Fraction(0))
    p, q = omega.numerator, omega.denominator
    try:
        tables = [[(q * e - p * i, c * eps0 ** x) for x, e, c in table]
                  for i, table in enumerate(_scaled_polynomial(floats, omega))]
        sums = [(sum(abs(c) for _, c in table), sum(k * abs(c) for k, c in table) / q)
                for table in tables]
        r = max([1.0] + [2 * s ** (1 / i) for i, (s, _) in enumerate(sums) if i])
        bound = sum((k + 1) * (s + d) * r ** k for k, (s, d) in enumerate(reversed(sums)))
        if math.isfinite(bound):
            return eps0 ** float(omega), p, q, tables
    except OverflowError:  # a power, or abs of a complex, too large for a float
        pass
    raise LoopDegeneracyError(f"a scaled coefficient overflows at loop radius eps0={eps0}")


def braid_loop(family: Family, eps0: float = BRAID_EPS0,
               steps: int = BRAID_STEPS) -> BraidPermutation:
    """Permutation of eigenvalues after one loop t = eps0 * e^(i*phi).

    The roots are those of p(scale*mu, t) / scale^n' (_loop_tables), the
    largest of order 1 whatever their order in t; every rule below is
    relative and |t| is fixed, so the braid is that of lambda = scale*mu.
    The loop continues them as nu = mu * w^(-omega), in a frame that turns
    with the branches mu ~ c * w^omega of the least slope omega, so that
    those stand nearly still.  |w^omega| = 1, so the frame keeps every
    distance, spacing and modulus the rules read, and any omega would give
    the same braid; at the end e^(2*pi*i*omega) * nu is mu again, and that
    closes on the starting roots by the rule each step is accepted by.

    When every term of the charpoly is real (decided exactly), the roots at
    conj(t) are the conjugates of those at t, and the loop's second half is
    its first conjugated and walked back.  The loop then stops at phi = pi,
    t = -eps0, where mu = e^(i*pi*omega) * nu; with A the half loop and c_0,
    c_pi the conjugation maps of the roots at t = eps0 and t = -eps0, each
    read by the step rule, the braid is c_0 . A^-1 . c_pi . A.

    Each step is sized from the velocities of the roots (see _loop_step): at
    most 2*pi/8, and short enough that no root moves, to first order, more
    than 0.25 of its spacing.  A step is accepted by a nearest-neighbour
    rule, and halved while it is ambiguous: while a root moves by more than
    0.45 of its new place's own spacing, the distance to the nearest other
    eigenvalue there.  Each root solve starts from the previous step's
    roots, and only the roots that move are continued: flat zero modes stay
    at their starting places.  The spacings of each solved root set are
    computed once (_spacings).

    ``steps`` sets the shortest step, 2*pi / (steps * 2^BRAID_HALVINGS).
    Raises LoopDegeneracyError when a scaled coefficient, or a bound of its
    Horner sums on the loop, overflows at the radius eps0, when two
    eigenvalues approach each other below 1e-3 of the larger of their
    moduli, when a velocity is not finite, when a step would have to be
    shorter than that, or when the end does not close on the start by the
    step rule; flat zero modes, which coincide exactly, do not count as
    approaching, and when every eigenvalue is one the braid is the identity.
    Raises ValueError unless steps >= 1 and eps0 is finite and positive,
    then UndeterminedError when a charpoly coefficient is undetermined, then
    ValueError when a term of one is beyond the range of floats
    (_float_tables).

    With repeated blocks (Family.deflation) the loop runs on the charpoly of
    one copy of each, and for each factor f of m blocks the permutation gains
    m - 1 copies of f's own loop, solved once, or taken from the first loop
    when that charpoly is f itself.
    """
    _check_braid_arguments(eps0, steps)
    cp, factors = family.deflation
    braid = _braid(cp, eps0, steps)
    permutation = list(braid.permutation)
    for f, m in factors:
        copy = braid if f == cp else _braid(f, eps0, steps)
        for _ in range(m - 1):
            permutation += [len(permutation) + k for k in copy.permutation]
    return BraidPermutation(tuple(permutation))


def _braid(cp: CharPoly, eps0: float, steps: int) -> BraidPermutation:
    """braid_loop's loop on the charpoly cp, over half the loop when cp is
    real, closed by its step rule or refused."""
    zeros, floats = _float_tables(cp)
    scale, p, q, tables = _loop_tables(floats, eps0)
    dtables = [[(k, k * c / q) for k, c in table if k] for table in tables]
    flat = [0j] * zeros
    full_turn = 2 * math.pi
    floor = full_turn / (steps * 2 ** BRAID_HALVINGS)
    # decided exactly: every term of every coefficient is real
    real = not any(c.nim or c.nsim for a in cp.coeffs for c in a.terms.values())
    end = math.pi if real else full_turn

    phi, u = 0.0, 1 + 0j
    coeffs = [horner_table(table, u) for table in tables]
    moving = aberth_roots(coeffs)
    first = moving + flat
    places = sorted(range(len(first)), key=lambda i: (round((scale * first[i]).real, 12),
                                                      round((scale * first[i]).imag, 12)))
    # the places, in that order, of the roots that move; the rest are flat zeros
    slots = [k for k, i in enumerate(places) if i < len(moving)]
    origin = current = [moving[places[k]] for k in slots]
    origin_spacing = spacing = _spacings(current, zeros)
    _check_separated(current, spacing)

    while phi < end:
        dcoeffs = [horner_table(table, u) for table in dtables]
        h = _loop_step(coeffs, dcoeffs, current, spacing, floor)
        while True:
            phi_to = min(phi + h, end)
            if phi_to == phi:
                raise LoopDegeneracyError("step below the resolution of the loop phase")
            u_to = cmath.exp(1j * phi_to / q)
            coeffs_to = [horner_table(table, u_to) for table in tables]
            new = aberth_roots(coeffs_to, current)
            new_spacing = _spacings(new, zeros)
            _check_separated(new, new_spacing)
            # A step is safe when the assignment of least total displacement
            # (over all roots, flat zeros included) moves each root by
            # at most 0.45*sep of its target, where sep(w) is the distance
            # from the new root w to the nearest other new root, flat zeros
            # included.  _nearest_within accepts exactly those steps, with
            # the same assignment.  If the optimum moves each root so, a root
            # c sent to w lies at least sep(w) - |c - w| >= 0.55*sep(w) > 0
            # from every other new root, so w is its strictly nearest new
            # root; and no moving root is sent to a flat zero, since the flat
            # zero that would take a nonzero w in its place moves by
            # |w| >= sep(w).
            # Conversely, let the moving roots' nearest new roots be distinct
            # moving roots within 0.45*sep, and let the flat zeros stay.  Any
            # other assignment moves a set S of roots among the targets that
            # S had; a root c sent to u instead of w moves at least
            # |w - u| - |c - w| >= sep(u) - |c - w|, so on S it costs at least
            # 0.55*sum(sep) while the accepted map costs at most 0.45*sum(sep).
            # The sum is positive, as the new roots are pairwise separated,
            # unless S only permutes coinciding flat zeros at no cost: the
            # map is the unique optimum.
            order = _nearest_within(current, new, new_spacing)
            if order is not None:
                break
            h = (phi_to - phi) / 2
            if h < floor:
                raise LoopDegeneracyError("continuation ambiguous after max halving")
        current = [new[j] for j in order]
        spacing = [new_spacing[j] for j in order]
        phi, u, coeffs = phi_to, u_to, coeffs_to

    # turned back from nu to mu; the flat zeros close on themselves
    turn = cmath.exp(1j * end * p / q)
    ends = [turn * z for z in current]
    if real:
        # the second half is the first conjugated and walked back: from
        # ends[i] it retraces, conjugated, the half walked from origin[j] to
        # ends[j] = conj(ends[i]), and so ends at conj(origin[j])
        mirror = _nearest_within([z.conjugate() for z in ends], ends, spacing)
        ends = None if mirror is None else [origin[j].conjugate() for j in mirror]
    order = None if ends is None else _nearest_within(ends, origin, origin_spacing)
    if order is None:
        raise LoopDegeneracyError("the loop does not close on its starting eigenvalues")
    sigma = list(range(len(first)))
    for k, j in zip(slots, order):
        sigma[k] = slots[j]
    return BraidPermutation(tuple(sigma))
