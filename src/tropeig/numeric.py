"""Floating-point verification of the exact predictions.

The symbolic layer predicts leading exponents omega and, through the edge
polynomials E_omega of the Newton polygon, the prefactors of the branches
lambda ~ c * t^omega; this module checks both on actual numbers, each branch
on its own scale t^omega (the scaled-root check, see fit_exponents).  Flat
zero modes are counted from the exact characteristic polynomial.  Braids
are read off by continuing eigenvalues around a small loop.  Eigenvalues
come either from a dense nonsymmetric eigensolver or from an Ehrlich-Aberth
simultaneous root iteration on the exactly-known characteristic
polynomial; the latter is preferred for deep-asymptotic sampling because
exact coefficients evaluated in floats keep the roots well conditioned far
below where matrix eigensolvers degrade.  The exact coefficients are
converted to floats once per check or braid loop.

Every root solve of the check starts from Newton-polygon guesses, so the
roots at one point do not depend on the other.  The braid loop is a
continuation: each solve starts from the previous step's roots, only the
roots that move are continued, and a step is accepted by a nearest-neighbour
rule that agrees with the minimum-displacement assignment (see braid_loop).
Each eigenvalue is measured against its own spacing: a step is sized from
the roots' velocities so that, to first order, no root moves more than 0.25
of its spacing; it is accepted if each root moves by up to 0.45 of the
distance from its new place to the nearest other eigenvalue, and halved
otherwise; and a loop is refused as degenerate when some pair lies closer
than 1e-3 of the larger of their moduli, so branches of different orders
in t are each tracked on their own scale.

Tolerances and limits are module constants: ROOT_TOL and ROOT_ITERATIONS
for the root iteration, CHECK_DECADES, SEPARATION and EXACT_DISTANCE for the
scaled-root check, BRAID_HALVINGS for step halving on a braid loop, and, as
defaults the CLI reads too, MATCH_TOL for the check's exponent and
BRAID_EPS0 and BRAID_STEPS for the loop's radius and its shortest step,
2*pi / (BRAID_STEPS * 2^BRAID_HALVINGS).  Only the dense eigensolver imports
numpy, so neither the exact pipeline nor the check nor the braid loads it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

# charpoly_direct is not called here; the binding stays importable for the
# benchmark's tracer, which patches it (perfbench/tests/test_harness.py)
from .charpoly import CharPoly, PolyMatrix, charpoly_direct  # noqa: F401
from .exact import EC_ZERO, ExactComplex
from .models import Family
from .poly import horner_table
from .tropical import TropicalRoot, _lower_hull

# Aberth stops once every relative step is below this (about 225 ulps)
ROOT_TOL = 5e-14
# cap on Aberth sweeps; the built-in families converge within 42
ROOT_ITERATIONS = 300
# a braid step may not be shorter than 2*pi / (steps * 2^BRAID_HALVINGS)
BRAID_HALVINGS = 14
# default braid loop radius and steps (the shortest step, as above); a
# radius of 1e-3 encloses a second degeneracy of some catalog families
# (H[2,1,1] generic, seed 0, has one at |t| = 1.29e-4) and so returns the
# wrong cycles
BRAID_EPS0 = 1e-6
BRAID_STEPS = 96
MATCH_TOL = 0.05  # default largest gap between a measured and a predicted exponent
# the check's second point lies this many decades below its first
CHECK_DECADES = 2
# at the second point, the nearest root left over must lie at least this
# many times farther from the edge roots than the farthest branch
SEPARATION = 4.0
# a branch this close to its edge root (relative) needs no rate: the scaled
# polynomial of an exact branch such as lambda^2 - t^q is E itself
EXACT_DISTANCE = 1e-10


class NonConvergenceError(RuntimeError):
    def __init__(self, message, iterations, residual):
        super().__init__(f"{message} (iterations={iterations}, residual={residual:.3e})")
        self.iterations = iterations
        self.residual = residual


class LoopDegeneracyError(RuntimeError):
    """The braid loop came too close to a degeneracy to track reliably."""


@dataclass(frozen=True)
class SampleGrid:
    """The check's two points, t0 * e^(i*phase) and 10^-CHECK_DECADES times it."""

    t0: float = 1e-6
    phase: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.t0) and self.t0 > 0) or not math.isfinite(self.phase):
            raise ValueError(f"need a finite t0 > 0 and a finite phase, "
                             f"got t0={self.t0}, phase={self.phase}")

    def points(self) -> Tuple[complex, complex]:
        t = self.t0 * cmath.exp(1j * self.phase)
        return t, t * 10.0 ** -CHECK_DECADES


DEFAULT_GRID = SampleGrid()


# ---------------------------------------------------------------------------
# polynomial roots: Ehrlich-Aberth with Newton-polygon initialization
# ---------------------------------------------------------------------------

def _initial_guesses(coeffs: Sequence[complex]) -> List[complex]:
    # upper convex hull of (i, log|c_i|); negation is exact, so the lower
    # hull of the negated points makes the same decisions
    pts = [(i, -math.log(abs(c))) for i, c in enumerate(coeffs) if c != 0]
    hull = [(i, -y) for i, y in _lower_hull(pts)]
    # both end coefficients are nonzero (aberth_roots), so one guess per root
    guesses: List[complex] = []
    for gi, ((i0, y0), (i1, y1)) in enumerate(zip(hull, hull[1:])):
        radius = math.exp((y1 - y0) / (i1 - i0))
        g = i1 - i0
        for k in range(g):
            theta = 2 * math.pi * k / g + 0.4 + 0.9 * gi
            guesses.append(radius * cmath.exp(1j * theta))
    return guesses


def _horner2(coeffs: Sequence[complex], z: complex) -> Tuple[complex, complex]:
    p, dp = coeffs[0], 0j
    for c in coeffs[1:]:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def aberth_roots(coeffs: Sequence[complex],
                 start: Optional[Sequence[complex]] = None) -> List[complex]:
    """All roots of a polynomial given by leading-first coefficients.

    The iteration starts from ``start`` when it holds one point per root
    left after exact zero roots are peeled off (a continuation passes the
    previous roots), and from Newton-polygon guesses otherwise.

    Multiple roots converge only linearly and bottom out at roughly
    machine_eps^(1/m) relative scatter around the true root; the iteration
    accepts such a stagnated cluster instead of spinning forever.
    """
    coeffs = [complex(c) for c in coeffs]
    if abs(coeffs[0]) == 0:
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
    prev_step = math.inf
    stalled = 0
    for _ in range(ROOT_ITERATIONS):
        max_step = 0.0
        for i in range(m):
            p, dp = _horner2(coeffs, z[i])
            if p == 0:
                continue
            if dp == 0:
                z[i] *= 1 + 1e-8
                p, dp = _horner2(coeffs, z[i])
                if dp == 0:
                    continue
            w = p / dp
            s = 0j
            zi = z[i]
            for j, zj in enumerate(z):
                if j != i:
                    diff = zi - zj
                    if diff == 0:
                        diff = 1e-300
                    s += 1 / diff
            denom = 1 - w * s
            step = w if denom == 0 else w / denom
            z[i] = zi = zi - step
            rel = abs(step) / (1 + abs(zi))
            if rel > max_step:
                max_step = rel
        if max_step <= ROOT_TOL:
            return z + [0j] * tail_zeros
        stalled = stalled + 1 if max_step > 0.7 * prev_step else 0
        if stalled >= 8 and max_step <= 1e-4:
            return z + [0j] * tail_zeros
        prev_step = max_step
    raise NonConvergenceError("root iteration did not converge", ROOT_ITERATIONS, max_step)


def _coefficient_sampler(cp: CharPoly, d_dt: bool = False):
    """(coeffs_at, zeros): coeffs_at(t) gives the float coefficients of cp at
    t, or with ``d_dt`` their t-derivatives, with its ``zeros``
    identically-zero trailing coefficients deflated.

    The exact coefficients are converted to floats once, here, and every
    value is the one ``ScalarPoly.evaluate`` gives.
    """
    zeros = cp.trailing_zero_count()
    tables = [cp.coeffs[i].float_table() for i in range(cp.n - zeros + 1)]
    if d_dt:
        tables = [tuple((e - 1, e * c) for e, c in table if e) for table in tables]
    return (lambda t: [horner_table(table, t) for table in tables]), zeros


def charpoly_roots_at(cp: CharPoly, t: complex) -> List[complex]:
    """Eigenvalues at parameter t from the exact characteristic polynomial.

    Identically-zero trailing coefficients are deflated symbolically, so flat
    zero modes come back as exact 0j.
    """
    coeffs_at, zeros = _coefficient_sampler(cp)
    return aberth_roots(coeffs_at(t)) + [0j] * zeros


def eigenvalues_at(source, t: complex) -> List[complex]:
    """Eigenvalues at a numeric parameter value: of a PolyMatrix by the
    dense eigensolver, of a CharPoly by ``charpoly_roots_at``."""
    if isinstance(source, CharPoly):
        return charpoly_roots_at(source, t)
    if not isinstance(source, PolyMatrix):
        raise TypeError(f"cannot take eigenvalues of {type(source).__name__}")
    import numpy as np
    return list(np.linalg.eigvals(source.to_array(t)))


# ---------------------------------------------------------------------------
# eigenvalue assignment
# ---------------------------------------------------------------------------

def _assign(cost: Sequence[Sequence[float]]) -> List[int]:
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


def _match(prev: Sequence[complex], new: Sequence[complex]) -> List[int]:
    """Indices m with new[m[i]] continuing prev[i], min total displacement."""
    return _assign([[abs(p - q) for q in new] for p in prev])


# not called here; stays importable because the benchmark's tracer looks it
# up by name (perfbench/layers.py)
def track_eigenvalues(eig_fn, params: Sequence[complex]):
    """Eigenvalues along a parameter path as a numpy array of shape
    (len(params), n), rows ordered by continuation."""
    import numpy as np
    first = sorted(eig_fn(params[0]), key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    tracks = [first]
    for t in params[1:]:
        new = eig_fn(t)
        order = _match(tracks[-1], new)
        tracks.append([new[j] for j in order])
    return np.asarray(tracks)


# ---------------------------------------------------------------------------
# the scaled-root check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterFit:
    """One predicted exponent as the check saw it.

    ``exponent`` is the two-point exponent of the branches assigned to
    E_omega's nonzero roots and ``size`` their number; ``matched`` is the
    predicted root when every test passed.  ``distance`` is the largest
    relative distance |mu - r| / |r| of a branch from its edge root at the
    second point, and ``rate`` that distance over the one at the first, both
    floored at EXACT_DISTANCE.  ``edge`` holds the exact coefficients of
    E_omega with its zero roots divided out, leading first: its roots are
    the prefactors c of the branches lambda ~ c * t^omega.
    """

    exponent: float
    size: int
    matched: Optional[TropicalRoot]
    distance: float
    rate: float
    edge: Tuple[ExactComplex, ...]


@dataclass(frozen=True)
class VerificationResult:
    clusters: Tuple[ClusterFit, ...]
    zero_tracks: int
    passed: bool
    diagnostics: Tuple[str, ...] = ()


def _check_match_tol(match_tol: float) -> None:
    if not (math.isfinite(match_tol) and match_tol > 0):
        raise ValueError(f"match_tol must be finite and positive, got {match_tol}")


def _scaled_polynomial(cp: CharPoly, floats, omega: Fraction):
    """(edge, tables) of the moving part sum_{i <= moving} a_i lambda^(moving-i)
    of cp at the exponent omega; ``floats`` holds the float tables of
    a_0..a_moving (ScalarPoly.float_table).

    With nu = min_i(ord a_i + omega*(moving - i)), tables[i] lists (x, c)
    over the terms c*t^e of a_i, where x = e + omega*(moving - i) - nu >= 0:
    the coefficient of mu^(moving-i) in q_t(mu) = t^(-nu) p(t^omega mu, t)
    is the sum of c*t^x.  ``edge`` is E_omega = lim q_t with its zero roots
    divided out, leading first: lc(a_i) for i from the first to the last
    index whose lowest term has x = 0, and 0 between them.
    """
    moving = len(floats) - 1
    p, q = omega.numerator, omega.denominator
    # exponents times q, so that they stay integers
    shifts = [p * (moving - i) for i in range(moving + 1)]
    lows = [q * table[-1][0] + s if table else None for table, s in zip(floats, shifts)]
    nu = min(low for low in lows if low is not None)
    tables = [[((q * e + s - nu) / q, c) for e, c in table]
              for table, s in zip(floats, shifts)]
    on_edge = [i for i, low in enumerate(lows) if low == nu]
    edge = tuple(cp.coeffs[i].terms[floats[i][-1][0]] if lows[i] == nu else EC_ZERO
                 for i in range(on_edge[0], on_edge[-1] + 1))
    return edge, tables


def _scaled_roots(tables, t: complex) -> List[complex]:
    """Roots of q_t at t; a leading coefficient that underflows to 0 drops
    a root at infinity, which lies far from every edge root."""
    log_t = cmath.log(t)
    coeffs = [sum(c * cmath.exp(x * log_t) for x, c in table) for table in tables]
    while coeffs[0] == 0:
        coeffs.pop(0)
    return aberth_roots(coeffs)


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
    return sum(math.log(abs(z)) if z else -math.inf for z in zs) / len(zs)


def fit_exponents(family: Family, grid: SampleGrid = DEFAULT_GRID,
                  match_tol: float = MATCH_TOL) -> VerificationResult:
    """Check each predicted exponent on its own scale.

    For a predicted root omega of multiplicity m, the nonzero roots r of the
    edge polynomial E_omega are solved once, and the scaled polynomial q_t
    (see _scaled_polynomial) at the grid's two points t1 and
    t2 = t1 / 10^CHECK_DECADES.  At each point the roots of q_t are assigned
    to the r at least total relative distance |mu - r| / |r|, and the root
    passes when

    * E_omega has exactly m nonzero roots, so m branches are assigned;
    * at t2 the nearest root not assigned lies at least SEPARATION times
      farther from the edge roots than the farthest assigned one;
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
    prediction.  Every root solve starts from Newton-polygon guesses and
    q_t has only non-negative powers of t, so deep points do not underflow.
    Mismatches produce ``passed=False`` with diagnostics rather than an
    exception; a ``match_tol`` that is not finite and positive raises
    ValueError.
    """
    _check_match_tol(match_tol)
    expected = family.expected
    if expected is None:
        raise ValueError("family carries no expected splitting report")
    cp = family.charpoly
    zero_tracks = cp.trailing_zero_count()
    moving = cp.n - zero_tracks
    t1, t2 = grid.points()
    floats = [a.float_table() for a in cp.coeffs[:moving + 1]]
    bound = 10.0 ** (-CHECK_DECADES / (2 * moving)) if moving else 0.0

    ok = True
    diagnostics: List[str] = []
    out: List[ClusterFit] = []
    for root in expected.roots:
        m = root.multiplicity
        edge, tables = _scaled_polynomial(cp, floats, root.omega)
        if len(edge) == 1:
            ok = False
            diagnostics.append(f"predicted root {root.omega} x{m} is no slope of the "
                               "Newton polygon")
            continue
        edge_roots = aberth_roots([c.to_complex() for c in edge])
        # q_t has at least as many roots as E_omega: its coefficient at
        # E_omega's leading index holds a t^0 term, so it does not underflow
        (d1, _, near1), (d2, far2, near2) = (
            _edge_distances(edge_roots, _scaled_roots(tables, t)) for t in (t1, t2))
        rate = max(d2, EXACT_DISTANCE) / max(d1, EXACT_DISTANCE)
        exponent = float(root.omega) + (_mean_log(near2) - _mean_log(near1)) / math.log(
            abs(t2 / t1))
        problems = []
        if len(edge_roots) != m:
            problems.append(f"{len(edge_roots)} edge roots")
        if far2 < SEPARATION * d2:
            problems.append(f"next root at {far2:.3e} against {d2:.3e}")
        if d2 > EXACT_DISTANCE and rate > bound:
            problems.append(f"distance {d1:.3e} -> {d2:.3e}, rate above {bound:.3f}")
        if not abs(exponent - float(root.omega)) <= match_tol:
            problems.append(f"exponent~{exponent:.4f}")
        if problems:
            ok = False
            diagnostics.append(f"predicted root {root.omega} x{m}: " + "; ".join(problems))
        out.append(ClusterFit(exponent, len(edge_roots), None if problems else root, d2, rate,
                              edge))
    predicted = sum(r.multiplicity for r in expected.roots)
    if predicted != moving:
        ok = False
        diagnostics.append(f"{moving} moving roots, the prediction accounts for {predicted}")
    if zero_tracks != expected.zero_root_count:
        ok = False
        diagnostics.append(
            f"{zero_tracks} identically-zero tracks, expected {expected.zero_root_count}")
    return VerificationResult(tuple(out), zero_tracks, ok, tuple(diagnostics))


# ---------------------------------------------------------------------------
# braids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BraidPermutation:
    permutation: Tuple[int, ...]
    cycle_lengths: Tuple[int, ...] = field(init=False)

    def __post_init__(self):
        perm = self.permutation
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"not a permutation: {perm}")
        seen, cycles = set(), []
        for start in range(len(perm)):
            if start in seen:
                continue
            length, cur = 0, start
            while cur not in seen:
                seen.add(cur)
                cur = perm[cur]
                length += 1
            cycles.append(length)
        object.__setattr__(self, "cycle_lengths", tuple(sorted(cycles)))


def _nearest_within(cur: Sequence[complex], new: Sequence[complex],
                    zeros: int) -> Optional[List[int]]:
    """Indices m with new[m[i]] the point of new nearest to cur[i], or None
    unless these points are distinct and each lies within 0.45 of its
    spacing from cur[i].

    The spacing of a point is its distance to the nearest other point of
    new or, when there are ``zeros`` flat zeros, to 0; inf if there is
    neither.  A point that close to cur[i] is nearer to it than 0 is.
    """
    order = []
    for c in cur:
        dists = [abs(c - w) for w in new]
        j = dists.index(min(dists))
        others = [abs(new[j] - w) for k, w in enumerate(new) if k != j]
        if zeros:
            others.append(abs(new[j]))
        if dists[j] > 0.45 * min(others, default=math.inf):
            return None
        order.append(j)
    return order if len(set(order)) == len(order) else None


def _check_separated(eigs: Sequence[complex]) -> None:
    """Raise LoopDegeneracyError when two eigenvalues lie closer than 1e-3
    of the larger of their moduli; two exact zeros (flat modes) pass."""
    worst = min((abs(a - b) / max(abs(a), abs(b))
                 for i, a in enumerate(eigs) for b in eigs[i + 1:] if a or b),
                default=math.inf)
    if worst < 1e-3:
        raise LoopDegeneracyError(
            f"two eigenvalues lie {worst:.3e} of their larger modulus apart, below "
            "1e-3; loop too coarse or crossing a degeneracy")


def _check_braid_arguments(eps0: float, steps: int) -> None:
    if steps < 1 or not (math.isfinite(eps0) and eps0 > 0):
        raise ValueError(f"braid loop needs steps >= 1 and a finite eps0 > 0, "
                         f"got steps={steps}, eps0={eps0}")


def _loop_step(coeffs: Sequence[complex], dcoeffs: Sequence[complex], t: complex,
               roots: Sequence[complex], zeros: int, floor: float) -> float:
    """Phase step of a braid loop t = eps0 * e^(i*phi) from the roots of the
    polynomial ``coeffs`` (leading first; ``dcoeffs`` are their
    t-derivatives) at t: the largest step up to 2*pi/8 over which, to first
    order, no root moves more than 0.25 of its spacing.

    A root moves at dlambda/dphi = -i*t*dp/dt / dp/dlambda; its spacing is
    the distance to the nearest other root or, when there are ``zeros`` flat
    zeros, to 0.  Raises LoopDegeneracyError when a velocity is not finite
    (dp/dlambda vanishes at a root) or the step is shorter than ``floor``.
    """
    h = 2 * math.pi / 8
    for k, z in enumerate(roots):
        dp = _horner2(coeffs, z)[1]
        speed = abs(t * _horner2(dcoeffs, z)[0] / dp) if dp else math.inf
        if not math.isfinite(speed):
            raise LoopDegeneracyError(f"eigenvalue velocity {speed} on the loop; "
                                      "it crosses a degeneracy")
        if speed:
            others = [abs(z - w) for j, w in enumerate(roots) if j != k]
            if zeros:
                others.append(abs(z))
            h = min(h, 0.25 * min(others, default=math.inf) / speed)
    if h < floor:
        raise LoopDegeneracyError(f"eigenvalues move too fast: step {h:.3e} below "
                                  f"the shortest allowed, {floor:.3e}")
    return h


def braid_loop(family: Family, eps0: float = BRAID_EPS0,
               steps: int = BRAID_STEPS) -> BraidPermutation:
    """Permutation of eigenvalues after one loop eps0 * e^(i*phi).

    Each step is sized from the velocities of the roots (see _loop_step): at
    most 2*pi/8, and short enough that no root moves, to first order, more
    than 0.25 of its spacing.  A step is accepted by a nearest-neighbour
    rule, and halved while it is ambiguous: while a root moves by more than
    0.45 of its new place's own spacing, the distance to the nearest other
    eigenvalue there.  Each root solve starts from the previous step's
    roots, and only the roots that move are continued: flat zero modes stay
    at their starting places.

    ``steps`` sets the shortest step, 2*pi / (steps * 2^BRAID_HALVINGS).
    Raises LoopDegeneracyError when two eigenvalues approach each other
    below 1e-3 of the larger of their moduli, when all of them vanish, when
    a velocity is not finite, or when a step would have to be shorter than
    that; flat zero modes, which coincide exactly, do not count as
    approaching.  Raises ValueError unless steps >= 1 and eps0 is finite and
    positive.
    """
    _check_braid_arguments(eps0, steps)
    coeffs_at, zeros = _coefficient_sampler(family.charpoly)
    dcoeffs_at, _ = _coefficient_sampler(family.charpoly, d_dt=True)
    flat = [0j] * zeros
    full_turn = 2 * math.pi
    floor = full_turn / (steps * 2 ** BRAID_HALVINGS)

    phi, t = 0.0, complex(eps0)
    coeffs = coeffs_at(t)
    moving = aberth_roots(coeffs)
    first = moving + flat
    places = sorted(range(len(first)),
                    key=lambda i: (round(first[i].real, 12), round(first[i].imag, 12)))
    start = [first[i] for i in places]
    if not any(start):
        raise LoopDegeneracyError("all eigenvalues vanish on the loop")
    _check_separated(start)
    # indices into start of the roots that move; the rest are flat zeros
    slots = [k for k, i in enumerate(places) if i < len(moving)]
    current = [start[k] for k in slots]

    while phi < full_turn:
        h = _loop_step(coeffs, dcoeffs_at(t), t, current, zeros, floor)
        while True:
            phi_to = min(phi + h, full_turn)
            if phi_to == phi:
                raise LoopDegeneracyError("step below the resolution of the loop phase")
            t_to = eps0 * cmath.exp(1j * phi_to)
            coeffs_to = coeffs_at(t_to)
            new = aberth_roots(coeffs_to, current)
            _check_separated(new + flat)
            # A step is safe when the assignment of least total displacement
            # (_match over all roots, flat zeros included) moves each root by
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
            order = _nearest_within(current, new, zeros)
            if order is not None:
                break
            h = (phi_to - phi) / 2
            if h < floor:
                raise LoopDegeneracyError("continuation ambiguous after max halving")
        current = [new[j] for j in order]
        phi, t, coeffs = phi_to, t_to, coeffs_to

    # end[i] should coincide with start[sigma(i)]
    end = list(start)
    for k, z in zip(slots, current):
        end[k] = z
    sigma = _match(end, start)
    return BraidPermutation(tuple(sigma))
