"""Oracles, exact test inputs and float model builders that only the tests
use; the library does not depend on them."""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from tropeig.charpoly import CharPoly, PolyMatrix, charpoly_traces
from tropeig.exact import EC_ONE, EC_ZERO, ExactComplex
from tropeig.jordan import build_direction_matrix, validate_partition
from tropeig.numeric import (ROOT_ITERATIONS, ROOT_TOL, NonConvergenceError, _initial_guesses,
                             aberth_roots)
from tropeig.poly import ScalarPoly
from tropeig.tropical import SplittingReport, TropicalPoly, TropicalRoot


@dataclass(frozen=True)
class RefComplex:
    """(re + im*i) + (sre + sim*i) * sqrt(rad) with four Fraction components,
    computed component by component: an oracle for ExactComplex, which keeps
    integer numerators over one denominator.  rad is 0 exactly when the surd
    part is, and a value made by an operation takes the operands' radicand."""

    re: Fraction
    im: Fraction
    sre: Fraction = Fraction(0)
    sim: Fraction = Fraction(0)
    rad: int = 0

    @staticmethod
    def of(z: ExactComplex) -> "RefComplex":
        return RefComplex(z.re, z.im, z.sre, z.sim, z.rad)

    @staticmethod
    def _make(re, im, sre, sim, rad) -> "RefComplex":
        return RefComplex(re, im, sre, sim, rad if sre or sim else 0)

    def __add__(self, o):
        return RefComplex._make(self.re + o.re, self.im + o.im, self.sre + o.sre,
                                self.sim + o.sim, self.rad or o.rad)

    def __neg__(self):
        return RefComplex(-self.re, -self.im, -self.sre, -self.sim, self.rad)

    def __sub__(self, o):
        return self + -o

    def __mul__(self, o):
        m = self.rad or o.rad
        a, b, c, d, e, f, g, h = (self.re, self.im, self.sre, self.sim,
                                  o.re, o.im, o.sre, o.sim)
        return RefComplex._make(a * e - b * f + m * (c * g - d * h),
                                a * f + b * e + m * (c * h + d * g),
                                a * g - b * h + c * e - d * f,
                                a * h + b * g + c * f + d * e, m)

    def conjugate(self):
        return RefComplex(self.re, -self.im, self.sre, -self.sim, self.rad)

    def inverse(self):
        # 1/(g + h r) = (g - h r) / (g^2 - rad h^2), and 1/N = conj(N) / |N|^2
        flip = RefComplex(self.re, self.im, -self.sre, -self.sim, self.rad)
        n = self * flip
        norm = n.re * n.re + n.im * n.im
        return flip * RefComplex(n.re / norm, -n.im / norm)

    def __truediv__(self, o):
        return self * o.inverse()

    def to_complex(self) -> complex:
        z = complex(self.re) + 1j * complex(self.im)
        if self.rad:
            z += (complex(self.sre) + 1j * complex(self.sim)) * math.sqrt(self.rad)
        return z


def invert_matrix(rows):
    """Exact Gauss-Jordan inverse, pivoting on any nonzero entry; raises
    ZeroDivisionError on singular input."""
    n = len(rows)
    aug = [[ExactComplex.from_value(rows[i][j]) for j in range(n)]
           + [EC_ONE if i == j else EC_ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    cols = list(zip(*b.rows))
    return PolyMatrix([[sum((x * y for x, y in zip(row, col)), ScalarPoly.zero())
                        for col in cols] for row in a.rows])


def conjugate_by(m: PolyMatrix, s_rows) -> PolyMatrix:
    """Exact similarity transform S M S^-1 for a constant matrix S."""
    return matmul(matmul(PolyMatrix(s_rows), m), PolyMatrix(invert_matrix(s_rows)))


def trace(m: PolyMatrix) -> ScalarPoly:
    return sum((m.rows[i][i] for i in range(m.n)), ScalarPoly.zero())


def traceless_shift(m: PolyMatrix) -> PolyMatrix:
    """M - (tr M / n) I; the result has identically-zero trace."""
    shift = trace(m).scale(Fraction(1, m.n))
    return PolyMatrix([[m.rows[i][j] - shift if i == j else m.rows[i][j]
                        for j in range(m.n)] for i in range(m.n)])


def companion_matrix(coeffs: Sequence) -> PolyMatrix:
    """Companion matrix of a monic polynomial given as CharPoly-style a_0..a_n."""
    coeffs = [ScalarPoly.from_value(c) for c in coeffs]
    n = len(coeffs) - 1
    rows = [[ScalarPoly.zero()] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = ScalarPoly.const(1)
    for j in range(n):
        rows[n - 1][j] = -coeffs[n - j]
    return PolyMatrix(rows)


def partitions(n: int):
    """All partitions of n, each in non-increasing order, the largest first."""

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    yield from gen(n, n)


def jordan_matrix(partition: Sequence[int], lam=0) -> PolyMatrix:
    """Block-diagonal Jordan matrix with eigenvalue lam."""
    partition = validate_partition(partition)
    lam = ExactComplex.from_value(lam)
    n = sum(partition)
    rows = [[EC_ZERO] * n for _ in range(n)]
    offset = 0
    for size in partition:
        for k in range(size):
            rows[offset + k][offset + k] = lam
            if k + 1 < size:
                rows[offset + k][offset + k + 1] = EC_ONE
        offset += size
    return PolyMatrix(rows)


def reference_solve_linear(template, direction, var, i, power
                           ) -> Optional[Tuple[ExactComplex, CharPoly]]:
    """(v, charpoly) for the value v of slope `var` that cancels the t^power
    part of a_i, or None if no value does, and the charpoly at var = v, by two
    charpolys: for a var that fills one position of the template every a_k is
    affine in it, so the charpolys cp0, cp1 at 0 and 1 give the line and the
    charpoly at v is cp0 + v (cp1 - cp0)."""
    cp0, cp1 = (charpoly_traces(build_direction_matrix(template, dict(direction, **{var: x})))
                for x in (EC_ZERO, EC_ONE))
    c0 = cp0.coefficient(i).coefficient(power)
    slope = cp1.coefficient(i).coefficient(power) - c0
    if not slope:
        return None
    v = -c0 / slope
    return v, CharPoly([p0 + (p1 - p0).scale(v) for p0, p1 in zip(cp0.coeffs, cp1.coeffs)])


def rescale_t(p: ScalarPoly, c) -> ScalarPoly:
    """Substitute t -> c*t for an exact nonzero scalar c."""
    c = ExactComplex.from_value(c)
    if not c:
        raise ValueError("rescaling by zero")
    out, power = {}, EC_ONE
    for e in range(0, p.degree() + 1):
        if e in p.terms:
            out[e] = p.terms[e] * power
        power = power * c
    return ScalarPoly(out, p.trunc)


def rescale_charpoly(cp: CharPoly, c) -> CharPoly:
    return CharPoly([rescale_t(p, c) for p in cp.coeffs])


def sympy_poly(sympy, p: ScalarPoly, t):
    """p as a sympy expression in the symbol t; sympy is passed in, as it is
    imported only where a test uses it."""
    def q(f):
        return sympy.Rational(f.numerator, f.denominator)

    total = sympy.Integer(0)
    for e, c in p.terms.items():
        value = q(c.re) + sympy.I * q(c.im)
        if c.rad:
            value += (q(c.sre) + sympy.I * q(c.sim)) * sympy.sqrt(c.rad)
        total += value * t ** e
    return total


def evaluate_charpoly(cp: CharPoly, lam: complex, t: complex) -> complex:
    acc = 0j
    for c in cp.coeffs:
        acc = acc * lam + c.evaluate(t)
    return acc


def charpoly_roots(cp: CharPoly, t: complex):
    """Eigenvalues at t from the characteristic polynomial's float
    coefficients; exact zero coefficients come back as exact 0j roots."""
    return aberth_roots([c.evaluate(t) for c in cp.coeffs])


def dense(m: PolyMatrix, t: complex):
    """All entries of m evaluated at t, as a complex numpy array."""
    return np.array([[x.evaluate(t) for x in row] for row in m.rows], dtype=complex)


def dense_eigenvalues(m: PolyMatrix, t: complex):
    """Eigenvalues at t by the dense nonsymmetric eigensolver."""
    return list(np.linalg.eigvals(dense(m, t)))


def weyr_by_powers(m, lam: complex, tol: float) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(partition, rank sequence) of lam from the numpy singular values of the
    powers (M - lam I)^k, thresholded at tol * max(sigma_max(M - lam I), |lam|)
    (or tol if both are 0), stopping when a rank repeats or at k = n: an
    oracle for weyr_structure's staircase, which forms no power."""
    a = np.asarray(m, dtype=complex) - lam * np.eye(len(m))
    threshold = tol * (max(np.linalg.svd(a, compute_uv=False)[0], abs(lam)) or 1.0)
    ranks, power = [len(m)], np.eye(len(m))
    for _ in range(len(m)):
        power = power @ a
        ranks.append(int(np.sum(np.linalg.svd(power, compute_uv=False) > threshold)))
        if ranks[-1] == ranks[-2]:
            break
    w = [r0 - r1 for r0, r1 in zip(ranks, ranks[1:])]
    return tuple(sum(x >= j for x in w) for j in range(1, w[0] + 1)), tuple(ranks)


# A unitary conjugate Q N Q^H of N = [[0, 1, 0], [0, 0, b], [0, 0, 0]] with
# b = 1e-6 - 1.5e-17, as [re, im] literals: at tol 1e-6 the second singular
# value sits on the threshold to rounding.  Q is the unitary factor of the QR
# of a complex Gaussian matrix drawn by numpy.random.default_rng(11).
AMBIGUOUS_CHAIN = [
    [[0.4105370145803271, 0.05070024883677695], [0.41459678727684063, -0.04850421410603447],
     [0.4613551956438559, 0.4145298538279804]],
    [[-0.13959423492307427, -0.12949647870717654], [-0.16782835472232935, -0.0935574329701597],
     [-0.06057288270620648, -0.27899772111745347]],
    [[-0.11640661120436732, 0.11605676464274339], [-0.0863552137629753, 0.14162240649088548],
     [-0.24270865985799783, 0.04285718413338263]],
]


def reference_aberth_roots(coeffs: Sequence[complex],
                           start: Optional[Sequence[complex]] = None):
    """numeric.aberth_roots as a plain Gauss-Seidel sweep: a Horner helper
    for p and p', the sum s of 1/(z_i - z_j) over every j != i, and Aberth's
    correction p / (p' - p*s), which is -1/s where p' = 0 and undefined, so
    no convergence, where s = 0 too.  It checks no coefficient and no iterate
    for finiteness, so a nan step leaves the sweep's largest step alone and
    nan roots come back as converged."""
    def horner2(z):
        p, dp = coeffs[0], 0j
        for c in coeffs[1:]:
            dp = dp * z + p
            p = p * z + c
        return p, dp

    coeffs = [complex(c) for c in coeffs]
    if abs(coeffs[0]) == 0:
        raise ValueError("leading coefficient must be nonzero")
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
            p, dp = horner2(z[i])
            if p == 0:
                continue
            s = 0j
            zi = z[i]
            for j, zj in enumerate(z):
                if j != i:
                    diff = zi - zj
                    if diff == 0:
                        diff = 1e-300
                    s += 1 / diff
            if dp != 0:
                w = p / dp
                denom = 1 - w * s
                step = w if denom == 0 else w / denom
            elif s != 0:
                step = -1 / s
            else:
                max_step = math.inf
                continue
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
    raise NonConvergenceError(f"root iteration did not converge "
                              f"(iterations={ROOT_ITERATIONS}, residual={max_step:.3e})")


def reference_spacings(roots: Sequence[complex], zeros: int):
    """numeric._spacings taking every distance twice: the least of |z_k - z_j|
    over j != k, and |z_k| when there are flat zeros."""
    out = []
    for k, z in enumerate(roots):
        others = [abs(z - w) for j, w in enumerate(roots) if j != k]
        if zeros:
            others.append(abs(z))
        out.append(min(others, default=math.inf))
    return out


def pairwise_separation(eigs: Sequence[complex]) -> float:
    """Least |a - b| / max(|a|, |b|) over the pairs of eigenvalues that are
    not both zero, inf if there is none; a braid loop is refused below 1e-3."""
    return min((abs(a - b) / max(abs(a), abs(b))
                for i, a in enumerate(eigs) for b in eigs[i + 1:] if a or b),
               default=math.inf)


def tropical_product(p: TropicalPoly, q: TropicalPoly) -> TropicalPoly:
    """Min-plus convolution; root multisets add under this product.  A slope
    that some undetermined term reaches is undetermined."""
    conv = {}
    for k1, a1 in p.terms:
        for k2, a2 in q.terms:
            k, a = k1 + k2, a1 + a2
            if k not in conv or a < conv[k]:
                conv[k] = a
    p_all = [k for k, _ in p.terms] + list(p.undetermined_slopes)
    q_all = [k for k, _ in q.terms] + list(q.undetermined_slopes)
    undetermined = ({k1 + k2 for k1 in p.undetermined_slopes for k2 in q_all}
                    | {k1 + k2 for k1 in p_all for k2 in q.undetermined_slopes})
    return TropicalPoly(tuple(conv.items()), tuple(sorted(undetermined)))


def minplus_roots_by_probes(p: TropicalPoly) -> SplittingReport:
    """The min-plus roots found by probing: the slope of the minimum at the
    midpoint of each interval between crossings at omega > 0, and one past
    the last; each drop in slope from the previous interval (n left of 0)
    is a root at the interval's left end."""
    terms = p.terms  # slopes strictly decreasing
    n = terms[0][0]
    cands = set()
    for idx, (k1, a1) in enumerate(terms):
        for k2, a2 in terms[idx + 1:]:
            w = Fraction(a2 - a1, k1 - k2)
            if w > 0:  # a crossing at 0 is covered by the slope n left of 0
                cands.add(w)
    grid = [Fraction(0)] + sorted(cands)

    def active_slope(omega: Fraction) -> int:
        best, slope = None, None
        for k, a in terms:
            v = a + k * omega
            if best is None or v < best:
                best, slope = v, k
        return slope

    probes = [(lo + hi) / 2 for lo, hi in zip(grid, grid[1:])] + [grid[-1] + 1]
    roots, prev = [], n
    for w, s in zip(grid, map(active_slope, probes)):
        if s < prev:
            roots.append(TropicalRoot(w, prev - s))
        prev = s
    zero = terms[-1][0]
    hidden = any(k < zero for k in p.undetermined_slopes)
    return SplittingReport(tuple(roots), None if hidden else zero, p.undetermined)


def branch_phases(root: TropicalRoot) -> Tuple[complex, ...]:
    m = root.multiplicity
    return tuple(cmath.exp(2j * math.pi * k / m) for k in range(m))


_W3 = cmath.exp(2j * math.pi / 3)


def cardano_roots(p: complex, q: complex) -> Tuple[complex, complex, complex]:
    """The three roots of lambda^3 + p*lambda + q by the radical form with
    3*alpha*beta = -p, or the cube roots of -q when alpha underflows."""
    p, q = complex(p), complex(q)
    disc = cmath.sqrt(q * q / 4 + p ** 3 / 27)
    u = -q / 2 + disc
    v = -q / 2 - disc
    cube = u if abs(u) >= abs(v) else v
    alpha = cube ** (1 / 3)
    if abs(alpha) == 0:
        base = (-q) ** (1 / 3) if q != 0 else 0j
        return tuple(base * _W3 ** k for k in range(3))
    beta = -p / (3 * alpha)
    return (alpha + beta,
            _W3 * alpha + beta / _W3,
            alpha / _W3 + _W3 * beta)


@dataclass(frozen=True)
class NumericOrd:
    slope: float
    rational: Optional[Fraction]
    residual: float
    infinite: bool = False


def numeric_ord(samples: Sequence[Tuple[float, complex]],
                max_denominator: int = 8) -> NumericOrd:
    """Valuation of a coefficient from (t, a) samples: the least-squares slope
    of log|a| against log t and its nearest rational; infinite if all vanish."""
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


def lieb_hamiltonian(kx: float, ky: float, eps: float) -> np.ndarray:
    """Numeric three-band Bloch Hamiltonian of the lossy Lieb lattice."""
    return np.array([
        [0, 1 + np.exp(1j * ky), 0],
        [1 + np.exp(-1j * ky) + 1j * eps, 0, 1 + np.exp(-1j * kx) - 1j * eps],
        [0, 1 + np.exp(1j * kx), 0],
    ], dtype=complex)


def lieb_degeneracy_points(eps: float) -> Dict[str, Tuple[float, float]]:
    """The two zero-energy band-touching momenta at non-Hermiticity eps."""
    a = 2 * math.atan2(2, eps)  # 2*arccot(eps/2)
    return {"arccot": (-a, a), "pi": (math.pi, math.pi)}


def liouvillian_from_nonhermitian(h_nh) -> np.ndarray:
    """Jump-free vectorized generator (-i H)(x)1 + 1(x)(i H*), row-major."""
    h_nh = np.asarray(h_nh, dtype=complex)
    eye = np.eye(h_nh.shape[0])
    return np.kron(-1j * h_nh, eye) + np.kron(eye, 1j * h_nh.conj())


def dissipator(jump) -> np.ndarray:
    """Vectorized dissipator D[L] = L(x)L* - (L+L (x) 1 + 1 (x) LtL*)/2, row-major,
    so LtL* is the transpose of L+L."""
    jump = np.asarray(jump, dtype=complex)
    n = jump.shape[0]
    if jump.shape != (n, n):
        raise ValueError("jump operator must be square")
    eye = np.eye(n)
    ldl = jump.conj().T @ jump
    return (np.kron(jump, jump.conj())
            - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T)))


def lindblad_liouvillian(h, jumps) -> np.ndarray:
    """Vectorized Lindblad Liouvillian; jumps are (operator, rate >= 0) pairs."""
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    if h.shape != (n, n):
        raise ValueError("hamiltonian must be square")
    total = liouvillian_from_nonhermitian(h)
    for op, rate in jumps:
        op = np.asarray(op, dtype=complex)
        if op.shape != (n, n):
            raise ValueError("jump operator dimension mismatch")
        if rate < 0:
            raise ValueError("rates must be non-negative")
        total = total + rate * dissipator(op)
    return total
