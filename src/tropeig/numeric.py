"""Floating-point verification of the exact predictions.

The symbolic layer predicts leading exponents; this module checks them on
actual numbers: eigenvalues are sampled along a geometric grid of the
perturbation parameter, tracked by nearest-neighbour continuation, fitted in
log-log scale, and clustered; braids are read off by continuing eigenvalues
around a small loop.  Eigenvalues come either from a dense nonsymmetric
eigensolver or from an Ehrlich-Aberth simultaneous root iteration on the
exactly-known characteristic polynomial; the latter is preferred for
deep-asymptotic sampling because exact coefficients evaluated in floats keep
the roots well conditioned far below where matrix eigensolvers degrade.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .charpoly import CharPoly, PolyMatrix, charpoly_direct
from .models import Family
from .tropical import TropicalRoot, _lower_hull

ZERO_TRACK_RELATIVE_FLOOR = 1e-13


class NonConvergenceError(RuntimeError):
    def __init__(self, message, iterations, residual):
        super().__init__(f"{message} (iterations={iterations}, residual={residual:.3e})")
        self.iterations = iterations
        self.residual = residual


class LoopDegeneracyError(RuntimeError):
    """The braid loop came too close to a degeneracy to track reliably."""


@dataclass(frozen=True)
class SampleGrid:
    """Geometric grid t_k = t0 * ratio^k * e^(i*phase), k = 0..count-1."""

    t0: float = 1e-4
    ratio: float = 0.5
    count: int = 25
    phase: float = 0.0

    def __post_init__(self):
        if self.t0 <= 0 or not 0 < self.ratio < 1 or self.count < 5:
            raise ValueError("need t0 > 0, ratio in (0,1), count >= 5")

    def points(self) -> List[complex]:
        rot = cmath.exp(1j * self.phase)
        return [self.t0 * self.ratio ** k * rot for k in range(self.count)]

    def decades(self) -> float:
        return -math.log10(self.ratio ** (self.count - 1))


DEFAULT_GRID = SampleGrid()


# ---------------------------------------------------------------------------
# polynomial roots: Ehrlich-Aberth with Newton-polygon initialization
# ---------------------------------------------------------------------------

def _initial_guesses(coeffs: Sequence[complex]) -> List[complex]:
    m = len(coeffs) - 1
    # upper convex hull of (i, log|c_i|); negation is exact, so the lower
    # hull of the negated points makes the same decisions
    pts = [(i, -math.log(abs(c))) for i, c in enumerate(coeffs) if c != 0]
    hull = [(i, -y) for i, y in _lower_hull(pts)]
    guesses: List[complex] = []
    for gi, ((i0, y0), (i1, y1)) in enumerate(zip(hull, hull[1:])):
        radius = math.exp((y1 - y0) / (i1 - i0))
        g = i1 - i0
        for k in range(g):
            theta = 2 * math.pi * k / g + 0.4 + 0.9 * gi
            guesses.append(radius * cmath.exp(1j * theta))
    while len(guesses) < m:  # degenerate hulls (should not happen for monic input)
        guesses.append(cmath.exp(1j * (0.4 + len(guesses))))
    return guesses[:m]


def _horner2(coeffs: Sequence[complex], z: complex) -> Tuple[complex, complex]:
    p, dp = coeffs[0], 0j
    for c in coeffs[1:]:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def aberth_roots(coeffs: Sequence[complex], tol: float = 5e-14,
                 max_iter: int = 300) -> List[complex]:
    """All roots of a polynomial given by leading-first coefficients.

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
    z = _initial_guesses(coeffs)
    prev_step = math.inf
    stalled = 0
    for _ in range(max_iter):
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
            for j in range(m):
                if j != i:
                    diff = z[i] - z[j]
                    if diff == 0:
                        diff = 1e-300
                    s += 1 / diff
            denom = 1 - w * s
            step = w if denom == 0 else w / denom
            z[i] -= step
            max_step = max(max_step, abs(step) / (1 + abs(z[i])))
        if max_step <= tol:
            return z + [0j] * tail_zeros
        stalled = stalled + 1 if max_step > 0.7 * prev_step else 0
        if stalled >= 8 and max_step <= 1e-4:
            return z + [0j] * tail_zeros
        prev_step = max_step
    raise NonConvergenceError("root iteration did not converge", max_iter, max_step)


def charpoly_roots_at(cp: CharPoly, t: complex) -> List[complex]:
    """Eigenvalues at parameter t from the exact characteristic polynomial.

    Identically-zero trailing coefficients are deflated symbolically, so flat
    zero modes come back as exact 0j.
    """
    zeros = cp.trailing_zero_count()
    coeffs = [cp.coeffs[i].evaluate(t) for i in range(cp.n - zeros + 1)]
    return aberth_roots(coeffs) + [0j] * zeros


def eigenvalues_at(source, t: complex, method: str = "auto") -> List[complex]:
    """Eigenvalues of a parametrized matrix at a numeric parameter value.

    ``method="eig"`` evaluates the matrix and runs the dense eigensolver;
    ``method="charpoly"`` finds roots of the exact characteristic polynomial.
    """
    if callable(source) and not isinstance(source, (PolyMatrix, CharPoly)):
        return list(np.linalg.eigvals(np.asarray(source(t), dtype=complex)))
    if isinstance(source, CharPoly):
        return charpoly_roots_at(source, t)
    if not isinstance(source, PolyMatrix):
        raise TypeError(f"cannot take eigenvalues of {type(source).__name__}")
    if method == "auto":
        method = "eig"
    if method == "eig":
        return list(np.linalg.eigvals(source.to_array(t)))
    if method == "charpoly":
        return charpoly_roots_at(charpoly_direct(source), t)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# depressed cubic in closed form
# ---------------------------------------------------------------------------

_W3 = cmath.exp(2j * math.pi / 3)


def cardano_roots(p: complex, q: complex) -> Tuple[complex, complex, complex]:
    """The three roots of lambda^3 + p*lambda + q.

    Uses the radical form with the branch condition 3*alpha*beta = -p; when
    alpha underflows (p ~ 0 or catastrophic cancellation) it falls back to
    the three cube roots of -q.
    """
    p, q = complex(p), complex(q)
    disc = cmath.sqrt(q * q / 4 + p ** 3 / 27)
    u = -q / 2 + disc
    v = -q / 2 - disc
    cube = u if abs(u) >= abs(v) else v
    alpha = cube ** (1 / 3)
    if abs(alpha) == 0:
        roots = []
        base = (-q) ** (1 / 3) if q != 0 else 0j
        for k in range(3):
            roots.append(base * _W3 ** k)
        return tuple(roots)
    beta = -p / (3 * alpha)
    return (alpha + beta,
            _W3 * alpha + beta / _W3,
            alpha / _W3 + _W3 * beta)


# ---------------------------------------------------------------------------
# eigenvalue continuation
# ---------------------------------------------------------------------------

def _match(prev: Sequence[complex], new: Sequence[complex]) -> List[int]:
    """Indices m with new[m[i]] continuing prev[i], min total displacement."""
    cost = np.abs(np.subtract.outer(np.asarray(prev), np.asarray(new)))
    rows, cols = linear_sum_assignment(cost)
    order = [0] * len(prev)
    for r, c in zip(rows, cols):
        order[r] = int(c)
    return order


def _match_ambiguous(prev, new, order) -> bool:
    moves = [abs(prev[i] - new[order[i]]) for i in range(len(prev))]
    pts = [new[j] for j in order]
    min_gap = math.inf
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            gap = abs(pts[i] - pts[j])
            if gap > 0:
                min_gap = min(min_gap, gap)
    return max(moves) > 0.45 * min_gap if min_gap < math.inf else False


def track_eigenvalues(eig_fn, params: Sequence[complex]) -> np.ndarray:
    """Eigenvalues along a parameter path, rows ordered by continuation."""
    first = sorted(eig_fn(params[0]), key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    tracks = [first]
    for t in params[1:]:
        new = eig_fn(t)
        order = _match(tracks[-1], new)
        tracks.append([new[j] for j in order])
    return np.asarray(tracks)  # shape (len(params), n)


@dataclass(frozen=True)
class ClusterFit:
    exponent: float
    size: int
    matched: Optional[TropicalRoot]
    max_residual: float


@dataclass(frozen=True)
class VerificationResult:
    clusters: Tuple[ClusterFit, ...]
    zero_tracks: int
    passed: bool
    diagnostics: Tuple[str, ...] = ()


def fit_exponents(family: Family, grid: SampleGrid = DEFAULT_GRID,
                  match_tol: float = 0.05,
                  cluster_gap: float = 0.1) -> VerificationResult:
    """Fit per-eigenvalue leading exponents and compare with the prediction.

    Tracks are continued through the grid, the smallest-|t| half of each
    track is fitted by least squares in log-log scale, tracks are clustered
    by fitted exponent, and clusters are matched against the expected
    splitting report.  Mismatches produce ``passed=False`` with diagnostics
    rather than an exception.
    """
    if grid.decades() < 3:
        raise ValueError("grid must span at least three decades")
    expected = family.expected
    if expected is None:
        raise ValueError("family carries no expected splitting report")
    n = family.charpoly.n
    ts = grid.points()
    tracks = track_eigenvalues(partial(charpoly_roots_at, family.charpoly), ts)

    scale = float(np.max(np.abs(tracks[0]))) or 1.0
    floor = ZERO_TRACK_RELATIVE_FLOOR * scale
    half = grid.count // 2
    log_t = np.log(np.abs(np.asarray(ts)))

    diagnostics: List[str] = []
    fits: List[Tuple[float, float]] = []  # (slope, residual)
    zero_tracks = 0
    for j in range(n):
        window = np.abs(tracks[half:, j])
        if np.all(window <= floor):
            zero_tracks += 1
            continue
        keep = window > floor
        if keep.sum() < 3:
            diagnostics.append(f"track {j}: too few usable points for a fit")
            continue
        x = log_t[half:][keep]
        y = np.log(window[keep])
        slope, intercept = np.polyfit(x, y, 1)
        residual = float(np.max(np.abs(slope * x + intercept - y)))
        fits.append((float(slope), residual))

    fits.sort()
    clusters: List[List[Tuple[float, float]]] = []
    for fit in fits:
        if clusters and fit[0] - clusters[-1][-1][0] <= cluster_gap:
            clusters[-1].append(fit)
        else:
            clusters.append([fit])

    remaining = list(expected.roots)
    out: List[ClusterFit] = []
    ok = True
    for group in clusters:
        mean = sum(f[0] for f in group) / len(group)
        res = max(f[1] for f in group)
        match = None
        for root in remaining:
            if abs(mean - float(root.omega)) <= match_tol and root.multiplicity == len(group):
                match = root
                break
        if match is None:
            ok = False
            diagnostics.append(
                f"cluster exponent~{mean:.4f} x{len(group)} matches no predicted root")
        else:
            remaining.remove(match)
        out.append(ClusterFit(mean, len(group), match, res))
    for root in remaining:
        ok = False
        diagnostics.append(f"predicted root {root.omega} x{root.multiplicity} unmatched")
    if zero_tracks != expected.zero_root_count:
        ok = False
        diagnostics.append(
            f"{zero_tracks} identically-zero tracks, expected {expected.zero_root_count}")
    if sum(len(g) for g in clusters) + zero_tracks != n:
        ok = False
        diagnostics.append("track count does not add up to the dimension")
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


def braid_loop(family: Family, eps0: float = 1e-3, steps: int = 64,
               max_depth: int = 14) -> BraidPermutation:
    """Permutation of eigenvalues after one loop eps0 * e^(i*phi).

    Continuation is nearest-neighbour with recursive step halving whenever a
    matching is ambiguous (displacement comparable to the local eigenvalue
    spacing).  Raises LoopDegeneracyError when eigenvalues approach each
    other below 1e-3 of the eigenvalue scale, or when halving bottoms out.
    """
    eig_fn = partial(charpoly_roots_at, family.charpoly)
    phis = [2 * math.pi * k / steps for k in range(steps + 1)]

    start = sorted(eig_fn(eps0 * cmath.exp(1j * phis[0])),
                   key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    lam_scale = max(abs(z) for z in start)
    if lam_scale == 0:
        raise LoopDegeneracyError("all eigenvalues vanish on the loop")

    def gap_check(eigs):
        gap = min((abs(a - b) for i, a in enumerate(eigs)
                   for b in eigs[i + 1:]), default=math.inf)
        if gap < 1e-3 * lam_scale:
            raise LoopDegeneracyError(
                f"minimum eigenvalue gap {gap:.3e} below 1e-3 of scale; "
                "loop too coarse or crossing a degeneracy")

    gap_check(start)
    current = list(start)

    def advance(cur, phi_from, phi_to, depth):
        new = eig_fn(eps0 * cmath.exp(1j * phi_to))
        gap_check(new)
        order = _match(cur, new)
        if _match_ambiguous(cur, new, order):
            if depth >= max_depth:
                raise LoopDegeneracyError("continuation ambiguous after max halving")
            mid = (phi_from + phi_to) / 2
            cur = advance(cur, phi_from, mid, depth + 1)
            return advance(cur, mid, phi_to, depth + 1)
        return [new[j] for j in order]

    for phi_from, phi_to in zip(phis, phis[1:]):
        current = advance(current, phi_from, phi_to, 0)

    # current[i] should coincide with start[sigma(i)]
    sigma = _match(current, start)
    return BraidPermutation(tuple(sigma))


# ---------------------------------------------------------------------------
# numeric valuation estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NumericOrd:
    slope: float
    rational: Optional[Fraction]
    residual: float
    infinite: bool = False


def numeric_ord(samples: Sequence[Tuple[float, complex]],
                max_denominator: int = 8) -> NumericOrd:
    """Estimate the valuation of a coefficient from geometric samples.

    Least-squares slope of log|a| against log t, rounded to the nearest
    rational with bounded denominator.  All-zero samples report an infinite
    valuation.
    """
    if len(samples) < 5:
        raise ValueError("need at least five samples")
    pairs = [(t, a) for t, a in samples if abs(a) > 1e-250]
    if not pairs:
        return NumericOrd(math.inf, None, 0.0, infinite=True)
    x = np.log([abs(t) for t, _ in pairs])
    y = np.log([abs(a) for _, a in pairs])
    slope, _ = np.polyfit(x, y, 1)
    rational = Fraction(float(slope)).limit_denominator(max_denominator)
    return NumericOrd(float(slope), rational, abs(float(slope) - float(rational)))
