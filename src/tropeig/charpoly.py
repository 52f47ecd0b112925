"""Exact characteristic polynomials of matrices with polynomial entries.

Two algorithms are provided and cross-checked against each other:

* ``charpoly_traces`` -- Newton-identity recursion on the power sums
  s_k = tr(M^k).  The only divisions are by the integers 1..n, which are
  exact over the rationals (and would *not* be valid over a general ring).
* ``charpoly_direct`` -- Berkowitz' division-free expansion of
  det(lambda*I - M).

Both return the monic coefficient vector a_0..a_n of

    det(lambda*I - M) = a_0 lambda^n + a_1 lambda^(n-1) + ... + a_n,

with each a_i a ScalarPoly in the perturbation variable.

Both run on an integer kernel rather than on ScalarPoly/ExactComplex
objects.  On entry the matrix is scaled by D, the lcm of the denominators of
every component of every coefficient, so that D*M has entries in
Z[i][t] or, when M holds one surd sqrt(rad), in Z[i, sqrt(rad)][t].  A
kernel polynomial is a dense coefficient list; a coefficient is a tuple of
Python ints, (re, im) over Z[i] or (re, im, sre, sim) for
re + im*i + (sre + sim*i)*sqrt(rad).  The kernel computes exactly and the
truncation is decided once: a_0 is exact, a_1 = -tr M is known below the
smallest truncation order on the diagonal, and every a_k with k >= 2 below
the smallest order anywhere in M.  That is what joining both operands'
orders at every product and sum gives (a zero times a truncated entry stays
truncated), and as exponents are non-negative, dropping the unknown terms
once at the end equals cutting them at every step.  The coefficients of
D*M's characteristic polynomial are algebraic integers, so the traces
recursion divides by k exactly (and raises if it ever would not).  On exit
a_k of D*M is divided by D^k and rebuilt as ExactComplex values.  A matrix
mixing two radicands is rejected with the same ValueError as ExactComplex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence, Tuple

import numpy as np

from .exact import ExactComplex, invert_matrix
from .poly import ScalarPoly


@dataclass(frozen=True, slots=True)
class PolyMatrix:
    """Square matrix of ScalarPoly entries, immutable after construction."""

    rows: Tuple[Tuple[ScalarPoly, ...], ...]  # any square nested sequence on input
    n: int = field(init=False)

    def __post_init__(self):
        n = len(self.rows)
        if n < 1 or any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square and non-empty")
        rows = tuple(tuple(ScalarPoly.from_value(x) for x in row) for row in self.rows)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def identity(n: int) -> "PolyMatrix":
        return PolyMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other):
        return PolyMatrix([[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return PolyMatrix([[a - b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.rows, other.rows)])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        n = self.n
        cols = list(zip(*other.rows))
        return PolyMatrix([[sum((a * b for a, b in zip(self.rows[i], cols[j])),
                                ScalarPoly.zero()) for j in range(n)]
                           for i in range(n)])

    def scale(self, c) -> "PolyMatrix":
        return PolyMatrix([[x * c if isinstance(c, ScalarPoly) else x.scale(c)
                            for x in row] for row in self.rows])

    def kron(self, other: "PolyMatrix") -> "PolyMatrix":
        """Kronecker product: entry (i*m + k, j*m + l) is self[i, j] * other[k, l]."""
        m = other.n
        return PolyMatrix([[self.rows[i // m][j // m] * other.rows[i % m][j % m]
                            for j in range(self.n * m)] for i in range(self.n * m)])

    def trace(self) -> ScalarPoly:
        acc = ScalarPoly.zero()
        for i in range(self.n):
            acc = acc + self.rows[i][i]
        return acc

    def conjugate_by(self, s_rows) -> "PolyMatrix":
        """Exact similarity transform S M S^-1 for a constant matrix S."""
        s_inv = invert_matrix(s_rows)
        s = PolyMatrix([[ScalarPoly.const(x) for x in row] for row in s_rows])
        si = PolyMatrix([[ScalarPoly.const(x) for x in row] for row in s_inv])
        return s @ self @ si

    def to_array(self, t: complex) -> np.ndarray:
        """Evaluate all entries at a numeric parameter value."""
        return np.array([[x.evaluate(t) for x in row] for row in self.rows],
                        dtype=complex)

    def __repr__(self):
        return f"PolyMatrix(n={self.n})"


@dataclass(frozen=True, slots=True)
class CharPoly:
    """Monic degree-n polynomial in lambda with ScalarPoly coefficients."""

    coeffs: Tuple[ScalarPoly, ...]
    n: int = field(init=False)

    def __post_init__(self):
        coeffs = tuple(ScalarPoly.from_value(c) for c in self.coeffs)
        if len(coeffs) < 2 or coeffs[0] != ScalarPoly.const(1):
            raise ValueError("coefficients must start with the constant 1")
        object.__setattr__(self, "n", len(coeffs) - 1)
        object.__setattr__(self, "coeffs", coeffs)

    def coefficient(self, i: int) -> ScalarPoly:
        """a_i, the coefficient of lambda^(n-i)."""
        return self.coeffs[i]

    def trailing_zero_count(self) -> int:
        """Number of identically-zero coefficients a_n, a_{n-1}, ...

        Counts only exact zeros; a truncated-away coefficient does not count.
        """
        k = 0
        for i in range(self.n, 0, -1):
            if self.coeffs[i].is_zero():
                k += 1
            else:
                break
        return k

    def evaluate(self, lam: complex, t: complex) -> complex:
        acc = 0j
        for c in self.coeffs:
            acc = acc * lam + c.evaluate(t)
        return acc

    def rescale_t(self, c) -> "CharPoly":
        return CharPoly([p.rescale_t(c) for p in self.coeffs])

    def __repr__(self):
        return f"CharPoly(n={self.n})"


def traceless_shift(m: PolyMatrix) -> PolyMatrix:
    """M - (tr M / n) I; the result has identically-zero trace."""
    shift = m.trace() / m.n
    rows = [[m.rows[i][j] - shift if i == j else m.rows[i][j]
             for j in range(m.n)] for i in range(m.n)]
    return PolyMatrix(rows)


def charpoly_traces(m: PolyMatrix) -> CharPoly:
    """Characteristic polynomial via power sums and Newton's identities."""
    rows, rad, den = _to_kernel(m)
    n = len(rows)
    one = _one(rad)
    cols = list(zip(*rows))
    s = [None]  # s[k] = tr(M^k)
    power = rows
    for k in range(1, n + 1):
        s.append(_dot([power[i][i] for i in range(n)], [one] * n, rad))
        if k < n:
            power = [[_dot(prow, col, rad) for col in cols] for prow in power]
    a = [one]
    for k in range(1, n + 1):
        # k a_k = -(s_k + a_1 s_(k-1) + ... + a_(k-1) s_1)
        a.append(_div_exact(_dot(a[:k], s[k:0:-1], rad), -k))
    return _from_kernel(a, _coeff_orders(m), rad, den)


def charpoly_direct(m: PolyMatrix) -> CharPoly:
    """Characteristic polynomial via the Berkowitz division-free expansion."""
    rows, rad, den = _to_kernel(m)
    return _from_kernel(_berkowitz(rows, rad), _coeff_orders(m), rad, den)


def _berkowitz(a, rad) -> list:
    n = len(a)
    items = [_one(rad), _neg(a[0][0])]
    if n == 1:
        return items
    r = a[0][1:]
    b = [row[1:] for row in a[1:]]
    v = [row[0] for row in a[1:]]
    for k in range(2, n + 1):
        items.append(_neg(_dot(r, v, rad)))
        if k < n:
            v = [_dot(row, v, rad) for row in b]
    prev = _berkowitz(b, rad)  # length n
    out = []
    for i in range(n + 1):
        lo, hi = max(0, i - n), min(i, n - 1) + 1
        out.append(_dot([items[i - j] for j in range(lo, hi)], prev[lo:hi], rad))
    return out


# -- integer kernel (see the module docstring) --------------------------------

def _to_kernel(m: PolyMatrix):
    """(rows, rad, den): the known terms of den * M as kernel polynomials."""
    den, rads = 1, set()
    for row in m.rows:
        for p in row:
            for c in p.terms.values():
                den = lcm(den, c.re.denominator, c.im.denominator,
                          c.sre.denominator, c.sim.denominator)
                if c.rad:
                    rads.add(c.rad)
    if len(rads) > 1:
        first, second = sorted(rads)[:2]
        raise ValueError(f"mixed radicands {first} and {second}")
    rad = rads.pop() if rads else 0

    def scaled(c):
        parts = (c.re, c.im, c.sre, c.sim) if rad else (c.re, c.im)
        return tuple(f.numerator * (den // f.denominator) for f in parts)

    def entry(p):
        coeffs = [(0, 0, 0, 0) if rad else (0, 0)] * (max(p.terms) + 1 if p.terms else 0)
        for e, c in p.terms.items():
            coeffs[e] = scaled(c)
        return coeffs

    return [[entry(p) for p in row] for row in m.rows], rad, den


def _coeff_orders(m: PolyMatrix) -> list:
    """Truncation order of each a_k, None where exact (see the module docstring)."""
    def least(polys):
        return min((p.trunc for p in polys if p.trunc is not None), default=None)
    diag = least(m.rows[i][i] for i in range(m.n))
    return [None, diag] + [least(p for row in m.rows for p in row)] * (m.n - 1)


def _from_kernel(coeffs, orders, rad, den) -> CharPoly:
    """CharPoly of M from the kernel coefficients a_k of den * M: a_k / den^k,
    cut at its truncation order."""
    out = []
    for k, (poly, trunc) in enumerate(zip(coeffs, orders)):
        dk = den ** k
        terms = {}
        for e, c in enumerate(poly[:trunc]):
            if any(c):
                parts = [Fraction(x, dk) for x in c]
                terms[e] = ExactComplex(*parts, rad) if rad else ExactComplex(*parts)
        out.append(ScalarPoly(terms, trunc))
    return CharPoly(out)


def _one(rad):
    return [(1, 0, 0, 0) if rad else (1, 0)]


def _neg(p):
    return [tuple(-x for x in c) for c in p]


def _div_exact(p, k: int):
    """p / k for a polynomial whose components are all multiples of k."""
    for c in p:
        for x in c:
            if x % k:
                raise ArithmeticError(f"traces recursion: {x} is not divisible by {k}")
    return [tuple(x // k for x in c) for c in p]


def _dot(row, col, rad):
    """Sum of row[j] * col[j] over kernel polynomials."""
    fma = _fma_surd if rad else _fma_gauss
    acc = [[] for _ in range(4 if rad else 2)]
    for a, b in zip(row, col):
        if a and b:
            need = len(a) + len(b) - 1 - len(acc[0])
            if need > 0:
                for comp in acc:
                    comp.extend([0] * need)
            fma(acc, a, b, rad)
    coeffs = list(zip(*acc))
    while coeffs and not any(coeffs[-1]):
        coeffs.pop()
    return coeffs


def _fma_gauss(acc, a, b, rad):
    """acc += a * b over Z[i]."""
    re, im = acc
    for i, (ar, ai) in enumerate(a):
        for j, (br, bi) in enumerate(b, i):
            re[j] += ar * br - ai * bi
            im[j] += ar * bi + ai * br


def _fma_surd(acc, a, b, rad):
    """acc += a * b over Z[i, sqrt(rad)], with (x + y sqrt(rad)) stored as
    (re x, im x, re y, im y)."""
    re, im, sre, sim = acc
    for i, (a0, a1, a2, a3) in enumerate(a):
        for j, (b0, b1, b2, b3) in enumerate(b, i):
            re[j] += a0 * b0 - a1 * b1 + rad * (a2 * b2 - a3 * b3)
            im[j] += a0 * b1 + a1 * b0 + rad * (a2 * b3 + a3 * b2)
            sre[j] += a0 * b2 - a1 * b3 + a2 * b0 - a3 * b1
            sim[j] += a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0


def build_direction_matrix(template: Sequence[Sequence],
                           direction: Mapping[str, object]) -> PolyMatrix:
    """Instantiate a symbolic perturbation pattern on a one-parameter line.

    Template entries are either constants (int / Fraction / ExactComplex /
    ScalarPoly, kept as-is), a placeholder name like ``"d21"`` (optionally
    ``"-d21"``), or a linear combination given as a sequence of
    ``(name, integer_coefficient)`` pairs.  Each placeholder name must be
    assigned a slope in ``direction``; the entry becomes slope * t.
    """
    t = ScalarPoly.t()

    def lookup(name: str) -> ExactComplex:
        if name not in direction:
            raise ValueError(f"no direction assigned for placeholder '{name}'")
        return ExactComplex.from_value(direction[name])

    def build(entry) -> ScalarPoly:
        if isinstance(entry, str):
            neg = entry.startswith("-")
            val = lookup(entry[1:] if neg else entry)
            return t.scale(-val if neg else val)
        if isinstance(entry, (list, tuple)):
            acc = ScalarPoly.zero()
            for name, coeff in entry:
                acc = acc + t.scale(lookup(name) * ExactComplex.from_value(coeff))
            return acc
        return ScalarPoly.from_value(entry)

    return PolyMatrix([[build(x) for x in row] for row in template])


def substitute_direction(template: Sequence[Sequence],
                         direction: Mapping[str, object]) -> CharPoly:
    """Characteristic polynomial of a pattern restricted to one direction."""
    return charpoly_traces(build_direction_matrix(template, direction))


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
