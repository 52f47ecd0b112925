"""Oracles, exact test inputs and float model builders that only the tests
use; the library does not depend on them."""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from tropeig.charpoly import CharPoly, PolyMatrix
from tropeig.exact import EC_ONE, EC_ZERO, ExactComplex
from tropeig.jordan import validate_partition
from tropeig.poly import ScalarPoly
from tropeig.tropical import TropicalPoly, TropicalRoot


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


def evaluate_charpoly(cp: CharPoly, lam: complex, t: complex) -> complex:
    acc = 0j
    for c in cp.coeffs:
        acc = acc * lam + c.evaluate(t)
    return acc


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
