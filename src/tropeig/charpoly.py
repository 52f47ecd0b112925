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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

from .exact import EC_ONE, ExactComplex, invert_matrix
from .poly import ScalarPoly


class PolyMatrix:
    """Square matrix of ScalarPoly entries, immutable after construction."""

    __slots__ = ("n", "rows")

    def __init__(self, entries: Sequence[Sequence]):
        n = len(entries)
        if n < 1 or any(len(r) != n for r in entries):
            raise ValueError("matrix must be square and non-empty")
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "rows", tuple(tuple(ScalarPoly.from_value(x) for x in row) for row in entries))

    def __setattr__(self, *a):
        raise AttributeError("PolyMatrix is immutable")

    @staticmethod
    def identity(n: int) -> "PolyMatrix":
        return PolyMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, PolyMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other):
        return PolyMatrix([[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return PolyMatrix([[a - b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.rows, other.rows)])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        n = self.n
        cols = list(zip(*other.rows))
        return PolyMatrix([[_dot(self.rows[i], cols[j]) for j in range(n)]
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


def _dot(row, col) -> ScalarPoly:
    acc = ScalarPoly.zero()
    for a, b in zip(row, col):
        acc = acc + a * b
    return acc


class CharPoly:
    """Monic degree-n polynomial in lambda with ScalarPoly coefficients."""

    __slots__ = ("n", "coeffs")

    def __init__(self, coeffs: Sequence):
        coeffs = tuple(ScalarPoly.from_value(c) for c in coeffs)
        if len(coeffs) < 2 or coeffs[0] != ScalarPoly.const(1):
            raise ValueError("coefficients must start with the constant 1")
        object.__setattr__(self, "n", len(coeffs) - 1)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("CharPoly is immutable")

    def __eq__(self, other):
        return isinstance(other, CharPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

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

    def coeffs_at(self, t: complex) -> list:
        return [c.evaluate(t) for c in self.coeffs]

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
    n = m.n
    s = [None]  # s[k] = tr(M^k)
    power = m
    for k in range(1, n + 1):
        s.append(power.trace())
        if k < n:
            power = power @ m
    a = [ScalarPoly.const(1)]
    for k in range(1, n + 1):
        acc = s[k]
        for j in range(1, k):
            acc = acc + a[j] * s[k - j]
        a.append(acc.scale(Fraction(-1, k)))
    return CharPoly(a)


def charpoly_direct(m: PolyMatrix) -> CharPoly:
    """Characteristic polynomial via the Berkowitz division-free expansion."""
    return CharPoly(_berkowitz([list(row) for row in m.rows]))


def _berkowitz(a) -> list:
    n = len(a)
    if n == 1:
        return [ScalarPoly.const(1), -a[0][0]]
    top = a[0][0]
    r = a[0][1:]
    c = [row[0] for row in a[1:]]
    b = [row[1:] for row in a[1:]]
    items = [ScalarPoly.const(1), -top]
    v = c
    for _ in range(2, n + 1):
        items.append(-_dot(r, v))
        v = [_dot(row, v) for row in b]
    prev = _berkowitz(b)  # length n
    out = []
    for i in range(n + 1):
        acc = ScalarPoly.zero()
        for j in range(max(0, i - n), min(i, n - 1) + 1):
            acc = acc + items[i - j] * prev[j]
        out.append(acc)
    return out


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
