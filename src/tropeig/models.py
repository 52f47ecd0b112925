"""Builders for the physical example families, and their registry.

Each builder returns a Family: a realization (an exact PolyMatrix in the
perturbation variable, or an exact CharPoly when matrix entries are not
polynomial in the parameter or when the family is the expanded
characteristic polynomial of a matrix builder here), the exact parameter
values used, and the splitting report the tropical analysis must reproduce.

Models whose degeneracy conditions involve surds (the golden-ratio circuit
couplings, the 1/sqrt(2) hopping of the dissipative four-level system) are
encoded exactly over a quadratic extension; see ``exact.ExactComplex``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List

from .charpoly import CharPoly, PolyMatrix, charpoly_direct
from .exact import EC_I, EC_ZERO, ExactComplex, ec
from .poly import ScalarPoly, cos_series, sin_series
from .tropical import Family, SplittingReport, _report


def _reject_unread(where: str, **params) -> None:
    """Raise ValueError naming the first of ``params`` given (not None)."""
    for name, value in params.items():
        if value is not None:
            raise ValueError(f"{name} is not read in {where}")


# ---------------------------------------------------------------------------
# torus-knot companion family
# ---------------------------------------------------------------------------

def torus_knot(p: int, q: int, direction: str = "linear", ky=None) -> Family:
    """p x p cyclic-shift matrix with a z^q corner entry.

    ``linear`` substitutes z = t and yields p branches of order q/p;
    ``kx_only`` moves z = t + i*ky (ky = 1 by default) along the real axis
    only, which leaves the corner entry O(1) and produces no nonzero
    tropical root.  ``ky`` is rejected in the linear direction.
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")
    if direction == "linear":
        _reject_unread("the linear direction", ky=ky)
        z = ScalarPoly.t()
        expected = _report([(Fraction(q, p), p)])
    elif direction == "kx_only":
        ky = ExactComplex.from_value(1 if ky is None else ky)
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
    params = {"p": p, "q": q, "direction": direction, **({} if ky is None else {"ky": ky})}
    return Family(f"torus_knot({p},{q},{direction})", PolyMatrix(rows), expected, params)


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
    if perturbation == "epsilon":
        eps_entry, eta = t, 0
    elif perturbation == "gamma_detune":
        eps_entry, eta = 0, t
    else:
        raise ValueError(f"unknown circuit perturbation {perturbation!r}")
    gain = ScalarPoly.const(GAMMA_EP) + eta  # gamma_EP, detuned by eta
    return PolyMatrix([
        [eps_entry, 0, 0, i_, 0, 0],
        [0, 0, 0, 0, i_, 0],
        [0, 0, 0, 0, 0, i_],
        [-i_, i_, 0, gain.scale(-i_), 0, 0],
        [i_ * MU_EP, -2 * i_ * MU_EP, i_ * MU_EP, 0, 0, 0],
        [0, i_, -i_, 0, 0, gain.scale(i_)],
    ])


def circuit_laplacian(perturbation: str) -> Family:
    """Circuit Laplacian families: EP6 under bias perturbation, EP4-like
    response when only the gain/loss rate is detuned.  The realization is
    the exact characteristic polynomial of ``circuit_matrix(perturbation)``.
    """
    cp = charpoly_direct(circuit_matrix(perturbation))
    if perturbation == "epsilon":
        expected = _report([(Fraction(1, 6), 6)])
    else:
        expected = _report([(Fraction(1, 4), 4)], zero=2)
    return Family(f"circuit ({perturbation})", cp, expected,
                  {"perturbation": perturbation})


# ---------------------------------------------------------------------------
# bipartite Hatano-Nelson chain
# ---------------------------------------------------------------------------

def hatano_nelson(L: int, regime: str, gamma1=None, t1=None, t2=None) -> Family:
    """Nonreciprocal bipartite hopping chain of length L.

    Bonds alternate between two hopping/gain pairs, odd bonds carrying
    (t1, gamma1) and even bonds (t2, gamma2); forward amplitude t - gamma,
    backward t + gamma.

    ``obc``: open boundary, t2 = gamma2 = 1 and t1 = gamma1 + eps, which
    decouples the chain into EP2 blocks coupled one way only.
    ``unidirectional``: t = -gamma on both sublattices kills every backward
    amplitude; a perturbative eps hopping from the last site to the first
    closes a single length-L cycle (an EP-L).

    ``obc`` reads gamma1 (default 1) and ``unidirectional`` reads t1 and t2
    (default -1); a parameter the regime does not read is rejected.
    """
    if L < 2:
        raise ValueError("need L >= 2")
    t = ScalarPoly.t()
    rows = [[ScalarPoly.zero()] * L for _ in range(L)]
    if regime == "obc":
        _reject_unread("the obc regime", t1=t1, t2=t2)
        gamma1 = Fraction(1 if gamma1 is None else gamma1)
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
        _reject_unread("the unidirectional regime", gamma1=gamma1)
        t1 = Fraction(-1 if t1 is None else t1)
        t2 = Fraction(-1 if t2 is None else t2)
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
    degenerate eigenvalue sits at zero.

    The entries are filled from the index formula of the row-major
    vectorized generator (-iH)(x)1 + 1(x)(iH*) + t * sum r D[L] over the
    jumps L = |l><k| with rates r, where D[L] = L(x)L* - (L+L(x)1 + 1(x)L+L)/2
    and L+L = |k><k|.  Row 3a+b and column 3c+d hold the constant
    -i H[a][c] [b=d] + i conj(H[b][d]) [a=c], plus gamma3 [a=c, b=d] when
    recentered, and D[L] contributes
    [a=b=l][c=d=k] - ([a=c=k][b=d] + [b=d=k][a=c]) / 2.
    """
    h, gamma3 = effective_hamiltonian(gamma2, gamma4, epsilon)
    # decay |l><k| from upper level k to lower level l, rates linear in the
    # overall scale: 5/8 between (2,3), 39/50 between (2,4), 1/13 between (3,4)
    rates = {(0, 1): Fraction(5, 8), (0, 2): Fraction(39, 50), (1, 2): Fraction(1, 13)}
    pairs = [(a, b) for a in range(3) for b in range(3)]
    rows = []
    for a, b in pairs:
        row = []
        for c, d in pairs:
            const = EC_ZERO
            if b == d:
                const -= EC_I * h[a][c]
            if a == c:
                const += EC_I * h[b][d].conjugate()
                if b == d and recenter:
                    const += gamma3
            linear = Fraction(0)
            for (l, k), r in rates.items():
                jump = a == b == l and c == d == k
                loss = (a == c == k and b == d) + (b == d == k and a == c)
                linear += r * (jump - Fraction(loss, 2))
            row.append(ScalarPoly({0: const, 1: linear}))
        rows.append(row)
    return PolyMatrix(rows)


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
    _, gamma3 = effective_hamiltonian(gamma2, gamma4, epsilon)
    expected = _report([(Fraction(1, 5), 5), (Fraction(1, 3), 3), (Fraction(1), 1)])
    return Family("effective_liouvillian", cp, expected,
                  {"gamma2": Fraction(gamma2), "gamma3": gamma3,
                   "gamma4": Fraction(gamma4), "epsilon": Fraction(epsilon),
                   "lambda_EP": -gamma3},
                  ("jump-free generator is a (5,3,1) multiblock EP",))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

BUILDERS: Dict[str, Callable[..., Family]] = {
    "torus_knot": torus_knot,
    "cavity_d12": partial(cavity_dynamical, "d12"),
    "cavity_d22_ep31": partial(cavity_dynamical, "d22_ep31"),
    "cavity_d22_ep4": partial(cavity_dynamical, "d22_ep4"),
    "circuit_epsilon": partial(circuit_laplacian, "epsilon"),
    "circuit_gamma_detune": partial(circuit_laplacian, "gamma_detune"),
    "hatano_nelson": hatano_nelson,
    "lieb_arccot": partial(lieb, "arccot_antidiag"),
    "lieb_pi_antidiag": partial(lieb, "pi_antidiag"),
    "lieb_pi_diag": partial(lieb, "pi_diag"),
    "effective_liouvillian": effective_liouvillian_example,
}


def example_names() -> List[str]:
    return sorted(BUILDERS)


def build_example(name: str, **params) -> Family:
    if name not in BUILDERS:
        raise ValueError(f"unknown example {name!r}; available: {', '.join(example_names())}")
    builder = BUILDERS[name]
    # a preset is a partial of its builder; a wrapped one (functools.wraps)
    # keeps the builder as __wrapped__
    fn = getattr(builder, "func", builder)
    code = getattr(fn, "__wrapped__", fn).__code__
    takes = code.co_varnames[len(getattr(builder, "args", ())):code.co_argcount]
    unknown = [k for k in params if k not in takes]
    if unknown:
        raise ValueError(f"example {name} takes {', '.join(takes) or 'no parameters'}, "
                         f"not {', '.join(unknown)}")
    return builder(**params)


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
