"""Builders for the physical example families, and the Family type every
input to the pipeline shares.

Each builder returns a Family: a realization (an exact PolyMatrix in the
perturbation variable, or an exact CharPoly when matrix entries are not
polynomial in the parameter), the exact parameter values used, and the
splitting report the tropical analysis must reproduce.

Models whose degeneracy conditions involve surds (the golden-ratio circuit
couplings, the 1/sqrt(2) hopping of the dissipative four-level system) are
encoded exactly over a quadratic extension; see ``exact.ExactComplex``.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .charpoly import CharPoly, PolyMatrix, charpoly_direct
from .exact import EC_I, EC_ONE, EC_ZERO, ExactComplex, ec
from .poly import ScalarPoly, cos_series, sin_series
from .tropical import SplittingReport, TropicalRoot


@dataclass(frozen=True)
class Family:
    """One input to the pipeline: an exact realization and the splitting
    report its tropical analysis must reproduce.

    ``charpoly`` is the realization itself when that is a CharPoly, and
    otherwise the Berkowitz expansion of the matrix, computed on first use.
    A builder that already holds the characteristic polynomial passes it as
    ``known_charpoly`` so it is not expanded a second time.
    """

    name: str
    realization: Union[PolyMatrix, CharPoly]
    expected: Optional[SplittingReport] = None
    parameters: Dict[str, object] = field(default_factory=dict)
    annotations: Tuple[str, ...] = ()
    known_charpoly: InitVar[Optional[CharPoly]] = None

    def __post_init__(self, known_charpoly):
        if known_charpoly is not None:
            self.__dict__["charpoly"] = known_charpoly  # seeds the cached property

    @cached_property
    def charpoly(self) -> CharPoly:
        if isinstance(self.realization, CharPoly):
            return self.realization
        return charpoly_direct(self.realization)

    @property
    def matrix(self) -> Optional[PolyMatrix]:
        """The realization if it is a matrix, else None."""
        return self.realization if isinstance(self.realization, PolyMatrix) else None


def _report(roots, zero=0) -> SplittingReport:
    return SplittingReport(tuple(TropicalRoot(Fraction(w), m) for w, m in roots), zero)


# ---------------------------------------------------------------------------
# torus-knot companion family
# ---------------------------------------------------------------------------

def torus_knot(p: int, q: int, direction: str = "linear", ky=1) -> Family:
    """p x p cyclic-shift matrix with a z^q corner entry.

    ``linear`` substitutes z = t and yields p branches of order q/p;
    ``kx_only`` moves z = t + i*ky along the real axis only, which leaves the
    corner entry O(1) and produces no nonzero tropical root.
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")
    if direction == "linear":
        z = ScalarPoly.t()
        expected = _report([(Fraction(q, p), p)])
    elif direction == "kx_only":
        ky = ExactComplex.from_value(ky)
        if not ky:
            raise ValueError("ky must be nonzero for the kx_only direction")
        z = ScalarPoly.t() + ScalarPoly.const(EC_I * ky)
        expected = _report([(Fraction(0), p)])
    else:
        raise ValueError(f"unknown direction {direction!r}")
    rows = [[ScalarPoly.zero()] * p for _ in range(p)]
    for i in range(p - 1):
        rows[i][i + 1] = ScalarPoly.const(1)
    rows[p - 1][0] = z ** q
    return Family(f"torus_knot({p},{q},{direction})", PolyMatrix(rows), expected,
                  {"p": p, "q": q, "direction": direction})


# ---------------------------------------------------------------------------
# cavity-mediated sensing
# ---------------------------------------------------------------------------

def cavity_dynamical(preset: str) -> Family:
    """Dynamical matrices of magnon-cavity sensors near higher-order EPs."""
    t = ScalarPoly.t()
    if preset == "d12":
        m = PolyMatrix([[-t, 0, 1],
                        [0, t, -1],
                        [-1, -1, 0]])
        return Family("cavity d12", m, _report([(Fraction(1, 3), 3)]),
                      {"preset": preset})
    if preset == "d22_ep31":
        half = ScalarPoly.monomial(1, Fraction(1, 2))
        m = PolyMatrix([[-t, 0, 0, 1],
                        [0, half, 0, 0],
                        [0, 0, t, -1],
                        [-1, 0, -1, 0]])
        return Family("cavity d22 (EP3+1)", m,
                      _report([(Fraction(1, 3), 3), (Fraction(1), 1)]),
                      {"preset": preset})
    if preset == "d22_ep4":
        # matrix entries involve sqrt(gamma); only the characteristic
        # polynomial is polynomial in gamma, so that is the realization
        cp = CharPoly([1, 0, -t, t, t])
        return Family("cavity d22 (EP4)", cp, _report([(Fraction(1, 4), 4)]),
                      {"preset": preset})
    raise ValueError(f"unknown cavity preset {preset!r}")


# ---------------------------------------------------------------------------
# electronic sensing circuit
# ---------------------------------------------------------------------------

GAMMA_EP = ExactComplex(Fraction(1, 2), 0, Fraction(1, 2), 0, 5)   # (1+sqrt5)/2
MU_EP = ExactComplex(Fraction(-1, 4), 0, Fraction(1, 4), 0, 5)     # (sqrt5-1)/4


def circuit_matrix(perturbation: str) -> PolyMatrix:
    """Six-node circuit Laplacian at the EP6 point, exactly over Q(i, sqrt5)."""
    i_ = EC_I
    t = ScalarPoly.t()

    def const(v):
        return ScalarPoly.const(v)

    if perturbation == "epsilon":
        eps_entry = t
        gamma = GAMMA_EP
    elif perturbation == "gamma_detune":
        eps_entry = ScalarPoly.zero()
        gamma = None  # gamma_EP + eta, built below
    else:
        raise ValueError(f"unknown circuit perturbation {perturbation!r}")

    def gamma_poly(sign):
        if gamma is not None:
            return const(i_ * gamma * sign)
        return ScalarPoly({0: i_ * GAMMA_EP * sign, 1: i_ * sign})

    return PolyMatrix([
        [eps_entry, 0, 0, const(i_), 0, 0],
        [0, 0, 0, 0, const(i_), 0],
        [0, 0, 0, 0, 0, const(i_)],
        [const(-i_), const(i_), 0, gamma_poly(-1), 0, 0],
        [const(i_ * MU_EP), const(-2 * i_ * MU_EP), const(i_ * MU_EP), 0, 0, 0],
        [0, const(i_), const(-i_), 0, 0, gamma_poly(1)],
    ])


def circuit_laplacian(perturbation: str) -> Family:
    """Circuit Laplacian families: EP6 under bias perturbation, EP4-like
    response when only the gain/loss rate is detuned."""
    t = ScalarPoly.t()
    sqrt5 = ExactComplex.radical(5, 1)
    if perturbation == "epsilon":
        cp = CharPoly([
            1,
            -t,
            0,
            -t,
            t.scale(EC_I * (EC_ONE + sqrt5) / 2),
            t.scale((ec(3) + sqrt5) / 4),
            t.scale(EC_I * Fraction(-1, 2)),
        ])
        expected = _report([(Fraction(1, 6), 6)])
    elif perturbation == "gamma_detune":
        one_plus = EC_ONE + sqrt5
        cp = CharPoly([
            1,
            0,
            ScalarPoly({1: one_plus, 2: 1}),
            0,
            ScalarPoly({1: ec(-2), 2: (EC_ONE - sqrt5) / 2}),
            0,
            0,
        ])
        expected = _report([(Fraction(1, 4), 4)], zero=2)
    else:
        raise ValueError(f"unknown circuit perturbation {perturbation!r}")
    return Family(f"circuit ({perturbation})", cp, expected,
                  {"perturbation": perturbation})


# ---------------------------------------------------------------------------
# bipartite Hatano-Nelson chain
# ---------------------------------------------------------------------------

def hatano_nelson(L: int, regime: str, gamma1=1, t1=-1, t2=-1) -> Family:
    """Nonreciprocal bipartite hopping chain of length L.

    Bonds alternate between two hopping/gain pairs, odd bonds carrying
    (t1, gamma1) and even bonds (t2, gamma2); forward amplitude t - gamma,
    backward t + gamma.

    ``obc``: open boundary, t2 = gamma2 = 1 and t1 = gamma1 + eps, which
    decouples the chain into EP2 blocks coupled one way only.
    ``unidirectional``: t = -gamma on both sublattices kills every backward
    amplitude; a perturbative eps hopping from the last site to the first
    closes a single length-L cycle (an EP-L).
    """
    if L < 2:
        raise ValueError("need L >= 2")
    t = ScalarPoly.t()
    rows = [[ScalarPoly.zero()] * L for _ in range(L)]
    if regime == "obc":
        gamma1 = Fraction(gamma1)
        if gamma1 == 0:
            raise ValueError("gamma1 must be nonzero in the obc regime")
        for bond in range(1, L):
            if bond % 2 == 1:  # (t1, gamma1) with t1 = gamma1 + eps
                upper = t
                lower = ScalarPoly({0: ec(2 * gamma1), 1: 1})
            else:  # (t2, gamma2) = (1, 1)
                upper = ScalarPoly.zero()
                lower = ScalarPoly.const(2)
            rows[bond - 1][bond] = upper
            rows[bond][bond - 1] = lower
        expected = _report([(Fraction(1, 2), 2 * (L // 2))], zero=L % 2)
        params = {"L": L, "regime": regime, "gamma1": gamma1}
    elif regime == "unidirectional":
        t1, t2 = Fraction(t1), Fraction(t2)
        if t1 == 0 or t2 == 0:
            raise ValueError("t1 and t2 must be nonzero")
        for bond in range(1, L):
            amp = 2 * t1 if bond % 2 == 1 else 2 * t2
            rows[bond - 1][bond] = ScalarPoly.const(amp)
        rows[L - 1][0] = t  # eps hopping closes the cycle
        expected = _report([(Fraction(1, L), L)])
        params = {"L": L, "regime": regime, "t1": t1, "t2": t2}
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return Family(f"hatano_nelson(L={L},{regime})", PolyMatrix(rows), expected, params)


# ---------------------------------------------------------------------------
# non-Hermitian Lieb lattice
# ---------------------------------------------------------------------------

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


def lieb(path: str, eps=Fraction(3, 2), series_order: int = 6) -> Family:
    """Characteristic polynomial along a momentum path through a degeneracy.

    The quadratic band factor is expanded as an exact truncated series in the
    path coordinate; the flat band contributes an identically-zero constant
    coefficient.  For rational eps the base-point trigonometry is rational
    (cos and sin of 2*arccot(eps/2) are (eps^2-4)/(eps^2+4) and
    4*eps/(eps^2+4)), so the expansion stays exact.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if series_order < 1:
        raise ValueError("series_order must be positive")
    c = cos_series(series_order)
    s = sin_series(series_order)
    if path == "arccot_antidiag":
        # dispersive factor 4 + 4cos(a - d) - 2 eps sin(a - d) at the EP3 point
        cos_a = Fraction(eps ** 2 - 4, eps ** 2 + 4)
        sin_a = Fraction(4 * eps, eps ** 2 + 4)
        bracket = (ScalarPoly.const(4)
                   + c.scale(4 * cos_a - 2 * eps * sin_a)
                   + s.scale(4 * sin_a + 2 * eps * cos_a))
        expected = _report([(Fraction(1, 2), 2)], zero=1)
        notes = ("EP3 at base point",)
    elif path == "pi_antidiag":
        # 4 - 4cos(d) - 2 eps sin(d)
        bracket = ScalarPoly.const(4) - c.scale(4) - s.scale(2 * eps)
        expected = _report([(Fraction(1, 2), 2)], zero=1)
        notes = ()
    elif path == "pi_diag":
        # 4 - 4cos(d); the spectrum stays real along this path
        bracket = ScalarPoly.const(4) - c.scale(4)
        expected = _report([(Fraction(1), 2)], zero=1)
        notes = ("EP(2,1) at base point",)
    else:
        raise ValueError(f"unknown lieb path {path!r}")
    cp = CharPoly([ScalarPoly.const(1), ScalarPoly.zero(), -bracket, ScalarPoly.zero()])
    if cp.coefficient(2).ord().is_undetermined:
        expected = SplittingReport(expected.roots, expected.zero_root_count,
                                   undetermined=True)
    return Family(f"lieb ({path})", cp, expected,
                  {"path": path, "eps": eps, "series_order": series_order}, notes)


# ---------------------------------------------------------------------------
# Liouvillian superoperators
# ---------------------------------------------------------------------------

def dissipator(jump: np.ndarray) -> np.ndarray:
    """Vectorized Lindblad dissipator D[L] = L(x)L* - (L+L (x) 1 + 1 (x) LtL*)/2.

    Vectorization is row-major: |m><n| -> index m*dim + n, so LtL* is the
    transpose of L+L.
    """
    jump = np.asarray(jump, dtype=complex)
    n = jump.shape[0]
    if jump.shape != (n, n):
        raise ValueError("jump operator must be square")
    eye = np.eye(n)
    ldl = jump.conj().T @ jump
    return (np.kron(jump, jump.conj())
            - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T)))


def liouvillian_from_nonhermitian(h_nh: np.ndarray) -> np.ndarray:
    """Jump-free vectorized generator (-i H)(x)1 + 1(x)(i H*)."""
    h_nh = np.asarray(h_nh, dtype=complex)
    n = h_nh.shape[0]
    eye = np.eye(n)
    return np.kron(-1j * h_nh, eye) + np.kron(eye, 1j * h_nh.conj())


def lindblad_liouvillian(h: np.ndarray, jumps) -> np.ndarray:
    """Vectorized Liouvillian of a Lindblad master equation.

    ``jumps`` is a list of (operator, rate) pairs with non-negative rates.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    if h.shape != (n, n):
        raise ValueError("hamiltonian must be square")
    h_nh = h.astype(complex).copy()
    total = np.zeros((n * n, n * n), dtype=complex)
    eye = np.eye(n)
    for op, rate in jumps:
        op = np.asarray(op, dtype=complex)
        if op.shape != (n, n):
            raise ValueError("jump operator dimension mismatch")
        if rate < 0:
            raise ValueError("rates must be non-negative")
        h_nh -= 0.5j * rate * (op.conj().T @ op)
        total += rate * np.kron(op, op.conj())
    total += np.kron(-1j * h_nh, eye) + np.kron(eye, 1j * h_nh.conj())
    return total


# -- exact effective Liouvillian of the dissipative four-level system -------

def effective_hamiltonian(gamma2=Fraction(1), gamma4=Fraction(3),
                          epsilon=Fraction(0)):
    """3x3 non-Hermitian Hamiltonian of the postselected excited manifold,
    tuned exactly to its third-order EP.

    For the symmetric tridiagonal form the continuant gives
    det(lambda - H) = mu * (mu^2 - s^2 - 2 t^2) with mu = lambda - d2 and
    s = i(gamma3 - gamma2)/2, so the triple degeneracy needs
    2*gamma3 = gamma2 + gamma4 together with t^2 = (gamma4 - gamma3)^2 / 8,
    i.e. t = (gamma4 - gamma3) / (2*sqrt(2)).
    """
    gamma2, gamma4, epsilon = Fraction(gamma2), Fraction(gamma4), Fraction(epsilon)
    gamma3 = (gamma2 + gamma4) / 2
    if gamma4 == gamma3:
        raise ValueError("gamma2 = gamma4 leaves no coupling")
    t_hop = ExactComplex.radical(2, (gamma4 - gamma3) / 4)  # (g4-g3)/(2 sqrt 2)
    diag = [ExactComplex(epsilon, -g / 2) for g in (gamma2, gamma3, gamma4)]
    z = EC_ZERO
    h = [[diag[0], t_hop, z],
         [t_hop, diag[1], t_hop],
         [z, t_hop, diag[2]]]
    return h, gamma3


def effective_liouvillian_matrix(gamma2=Fraction(1), gamma4=Fraction(3),
                                 epsilon=Fraction(0), recenter: bool = True) -> PolyMatrix:
    """Exact 9x9 effective Liouvillian with dissipation rates proportional
    to the ScalarPoly variable; optionally shifted by +gamma3 so the
    degenerate eigenvalue sits at zero."""
    h, gamma3 = effective_hamiltonian(gamma2, gamma4, epsilon)
    eye = PolyMatrix.identity(3)
    minus_ih = PolyMatrix(h).scale(-EC_I)
    plus_ih_conj = PolyMatrix([[x.conjugate() * EC_I for x in row] for row in h])
    const = minus_ih.kron(eye) + eye.kron(plus_ih_conj)
    if recenter:
        const = const + PolyMatrix.identity(9).scale(gamma3)

    def basis(l, k):
        return PolyMatrix([[1 if (i, j) == (l, k) else 0 for j in range(3)]
                           for i in range(3)])

    # decay |l><k| from upper level k to lower level l, rates linear in the
    # overall scale: 5/8 between (2,3), 39/50 between (2,4), 1/13 between (3,4)
    rates = {(0, 1): Fraction(5, 8), (0, 2): Fraction(39, 50), (1, 2): Fraction(1, 13)}
    linear = PolyMatrix([[0] * 9 for _ in range(9)])
    for (l, k), rate in rates.items():
        e = basis(l, k)
        ekk = basis(k, k)  # L+L = (L+L)^T = |k><k| for the real jump L = |l><k|
        diss = e.kron(e) + (ekk.kron(eye) + eye.kron(ekk)).scale(Fraction(-1, 2))
        linear = linear + diss.scale(rate)
    return const + linear.scale(ScalarPoly.t())


def effective_liouvillian_example(gamma2=Fraction(1), gamma4=Fraction(3),
                                  epsilon=Fraction(0)) -> Family:
    """Dissipative four-level system postselected on its excited levels.

    With the inter-level rates switched off the 9x9 generator is a multiblock
    EP with blocks (5, 3, 1) at lambda = -gamma3; the rational rate pattern
    Gamma/13, 5*Gamma/8, 39*Gamma/50 splits it into branches of orders 1/5,
    1/3 and 1.  The realization is the exact characteristic polynomial in
    Gamma of the generator recentered at the degenerate eigenvalue.
    """
    m = effective_liouvillian_matrix(gamma2, gamma4, epsilon, recenter=True)
    cp = charpoly_direct(m)
    gamma3 = (Fraction(gamma2) + Fraction(gamma4)) / 2
    expected = _report([(Fraction(1, 5), 5), (Fraction(1, 3), 3), (Fraction(1), 1)])
    return Family("effective_liouvillian", cp, expected,
                  {"gamma2": Fraction(gamma2), "gamma3": gamma3,
                   "gamma4": Fraction(gamma4), "epsilon": Fraction(epsilon),
                   "lambda_EP": -gamma3},
                  ("jump-free generator is a (5,3,1) multiblock EP",))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _build_lieb(path):
    def build(eps=Fraction(3, 2), series_order=6):
        return lieb(path, eps, series_order)
    return build


BUILDERS: Dict[str, Callable[..., Family]] = {
    "torus_knot": torus_knot,
    "cavity_d12": lambda: cavity_dynamical("d12"),
    "cavity_d22_ep31": lambda: cavity_dynamical("d22_ep31"),
    "cavity_d22_ep4": lambda: cavity_dynamical("d22_ep4"),
    "circuit_epsilon": lambda: circuit_laplacian("epsilon"),
    "circuit_gamma_detune": lambda: circuit_laplacian("gamma_detune"),
    "hatano_nelson": hatano_nelson,
    "lieb_arccot": _build_lieb("arccot_antidiag"),
    "lieb_pi_antidiag": _build_lieb("pi_antidiag"),
    "lieb_pi_diag": _build_lieb("pi_diag"),
    "effective_liouvillian": effective_liouvillian_example,
}


def example_names() -> List[str]:
    return sorted(BUILDERS)


def build_example(name: str, **params) -> Family:
    if name not in BUILDERS:
        raise ValueError(f"unknown example {name!r}; available: {', '.join(example_names())}")
    return BUILDERS[name](**params)


def default_families() -> List[Family]:
    """One representative instance of every example family."""
    return [
        cavity_dynamical("d12"),
        cavity_dynamical("d22_ep31"),
        cavity_dynamical("d22_ep4"),
        circuit_laplacian("epsilon"),
        circuit_laplacian("gamma_detune"),
        hatano_nelson(4, "obc"),
        hatano_nelson(5, "obc"),
        hatano_nelson(5, "unidirectional"),
        lieb("arccot_antidiag"),
        lieb("pi_antidiag"),
        lieb("pi_diag"),
        effective_liouvillian_example(),
    ]
