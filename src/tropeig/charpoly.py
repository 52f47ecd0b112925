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
objects.  On entry the matrix is scaled by D, the lcm of the one common
denominator each ExactComplex coefficient stores, so that D*M has entries in
Z[i][t] or, when M holds one surd sqrt(rad), in Z[i, sqrt(rad)][t].  The
truncation is decided once: a_0 is exact, a_1 = -tr M is known below the
smallest truncation order on the diagonal, and every a_k with k >= 2 below
the smallest order anywhere in M.  That is what joining both operands'
orders at every product and sum gives (a zero times a truncated entry stays
truncated), and as exponents are non-negative, computing with the known
terms exactly and dropping the unknown ones once at the end equals cutting
them at every step.

Kronecker substitution.  The kernel substitutes t -> 2^bits, so a kernel
entry is one Python int per component: (re, im) over Z[i], or
(re, im, sre, sim) for re + im*i + (sre + sim*i)*sqrt(rad), and zero is
None.  Polynomial products become 4 (or 16) big-int products.  Every ring
operation commutes with the substitution, so only the final coefficients
need to fit: each a_k is read back as balanced base-2^bits digits, which is
exact while every component lies in [-2^(bits-1), 2^(bits-1)).

The digit bound.  With w = isqrt(rad) + 1 (so w^2 > rad) the norm
||p|| = sum_e |re| + |im| + w (|sre| + |sim|) is submultiplicative and
bounds every component.  a_k is a signed sum of the C(n, k) principal k x k
minors, and a minor's norm is at most the product of its rows' norm sums, so
with R the largest row sum of entry norms every component of a_k is at most
C(n, k) R^k.  bits is two more than the bit length of n max_k C(n, k) R^k;
the factor n covers the traces' sums k a_k.

Sparsity.  Each row is the list of its nonzero (column, entry) pairs.
Berkowitz keeps only the nonzeros of v, forms every A v product by scattering
them through the nonzeros of their columns, and combines the nonzero items
with the nonzero coefficients of the trailing block's polynomial only, so a
chain costs O(n) kernel dot products; the traces recursion forms M^k row by
row from the nonzeros.

The coefficients of D*M's characteristic polynomial are algebraic integers,
so the traces recursion divides k a_k by k exactly: it unpacks each sum,
checks and divides every coefficient, and packs the quotient again (it
raises if a division ever would not be exact).  On exit (``_from_kernel``)
each coefficient of a_k of D*M is read as integer numerators over D^k and
reduced straight into an ExactComplex, with no Fraction in between.  A matrix
mixing two radicands is rejected with the same ValueError as ExactComplex.
"""

from __future__ import annotations

from math import comb, isqrt, lcm
from typing import Tuple

from .exact import _canonical, _Frozen, _set
from .poly import ScalarPoly


class PolyMatrix(_Frozen):
    """Square matrix of ScalarPoly entries, immutable after construction.

    A container for the characteristic-polynomial algorithms, not a matrix
    algebra: builders fill the entries directly.
    """

    __slots__ = ("rows", "n")

    def __init__(self, rows: Tuple[Tuple[ScalarPoly, ...], ...]):  # any square nested sequence
        n = len(rows)
        if n < 1 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and non-empty")
        _set(self, "rows", tuple(tuple(ScalarPoly.from_value(x) for x in row) for row in rows))
        _set(self, "n", n)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __repr__(self):
        return f"PolyMatrix(n={self.n})"


class CharPoly(_Frozen):
    """Monic degree-n polynomial in lambda with ScalarPoly coefficients."""

    __slots__ = ("coeffs", "n")

    def __init__(self, coeffs: Tuple[ScalarPoly, ...]):
        coeffs = tuple(ScalarPoly.from_value(c) for c in coeffs)
        if len(coeffs) < 2 or coeffs[0] != ScalarPoly.const(1):
            raise ValueError("coefficients must start with the constant 1")
        _set(self, "coeffs", coeffs)
        _set(self, "n", len(coeffs) - 1)

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

    def __repr__(self):
        return f"CharPoly(n={self.n})"


def charpoly_traces(m: PolyMatrix) -> CharPoly:
    """Characteristic polynomial via power sums and Newton's identities."""
    rows, rad, den, bits = _to_kernel(m)
    n = len(rows)
    s = [None]  # s[k] = tr(M^k)
    power = rows
    for k in range(1, n + 1):
        s.append(_sum([x for i, row in enumerate(power) for j, x in row if j == i]))
        if k < n:
            power = [_row_times(row, rows, rad) for row in power]
    a = [(1, 0, 0, 0) if rad else (1, 0)]
    for k in range(1, n + 1):
        # k a_k = -(s_k + a_1 s_(k-1) + ... + a_(k-1) s_1)
        total = _dot([(x, y) for x, y in zip(a, s[k:0:-1]) if x and y], rad)
        a.append(_pack(_div_exact(_unpack(total, bits), -k), bits))
    return _from_kernel([_unpack(x, bits) for x in a], _coeff_orders(m), rad, den)


def charpoly_direct(m: PolyMatrix) -> CharPoly:
    """Characteristic polynomial via the Berkowitz division-free expansion."""
    rows, rad, den, bits = _to_kernel(m)
    coeffs = [_unpack(x, bits) for x in _berkowitz(rows, rad)]
    return _from_kernel(coeffs, _coeff_orders(m), rad, den)


def _berkowitz(rows, rad) -> list:
    """det(lambda I - A) for sparse kernel rows, built up from the trailing
    1x1 block: level i borders the block A[i+1:, i+1:] with row and column i.
    Indices stay absolute and v keeps only its nonzeros, keyed by row, so
    A v scatters them through the column lists."""
    n = len(rows)
    one = (1, 0, 0, 0) if rad else (1, 0)
    cols = [[] for _ in range(n)]
    for j, row in enumerate(rows):
        for c, x in row:
            cols[c].append((j, x))
    prev = [one]  # det of the empty block
    for i in range(n - 1, -1, -1):
        size = n - i
        top, r = None, []  # -A[i, i] and -A[i, i+1:]
        for c, x in rows[i]:
            if c == i:
                top = tuple(-y for y in x)
            elif c > i:
                r.append((c, tuple(-y for y in x)))
        items = [one, top]
        v = {j: x for j, x in cols[i] if j > i}  # A[i+1:, i]
        for k in range(2, size + 1):
            if not v:
                items += [None] * (size + 1 - k)
                break
            items.append(_dot([(x, v[c]) for c, x in r if c in v], rad))
            if k < size:
                acc = {}
                for c, y in v.items():
                    for j, x in cols[c]:
                        if j > i:
                            acc.setdefault(j, []).append((x, y))
                v = {j: x for j, pairs in acc.items() if (x := _dot(pairs, rad))}
        # Toeplitz step: out[p + q] += items[p] * prev[q] over nonzero pairs
        nonzero = [(p, x) for p, x in enumerate(items) if x]
        terms = [[] for _ in range(size + 1)]
        for q, y in enumerate(prev):
            if y:
                for p, x in nonzero:
                    if p + q > size:
                        break
                    terms[p + q].append((x, y))
        prev = [_dot(t, rad) if t else None for t in terms]
    return prev


# -- integer kernel (see the module docstring) --------------------------------

def _to_kernel(m: PolyMatrix):
    """(rows, rad, den, bits): the known terms of den * M packed at 2^bits,
    each row the list of its nonzero (column, entry) pairs in column order."""
    dens, rads = {1}, set()
    for row in m.rows:
        for p in row:
            for c in p.terms.values():
                dens.add(c.den)
                if c.rad:
                    rads.add(c.rad)
    den = lcm(*dens)
    if len(rads) > 1:
        first, second = sorted(rads)[:2]
        raise ValueError(f"mixed radicands {first} and {second}")
    rad = rads.pop() if rads else 0
    w = isqrt(rad) + 1  # w^2 > rad keeps the norm submultiplicative

    def scaled(c):
        k = den // c.den
        return (c.nre * k, c.nim * k, c.nsre * k, c.nsim * k) if rad else (c.nre * k, c.nim * k)

    def entry(p):
        coeffs = [(0, 0, 0, 0) if rad else (0, 0)] * (max(p.terms) + 1)
        for e, c in p.terms.items():
            coeffs[e] = scaled(c)
        return coeffs

    def norm(c):
        return abs(c[0]) + abs(c[1]) + (w * (abs(c[2]) + abs(c[3])) if rad else 0)

    sparse = [[(j, entry(p)) for j, p in enumerate(row) if p.terms] for row in m.rows]
    # R, the largest row sum of entry norms (see the module docstring)
    r_max = max(sum(norm(c) for _, coeffs in row for c in coeffs) for row in sparse)
    n = m.n
    bound = n * max(comb(n, k) * r_max ** k for k in range(n + 1))
    bits = bound.bit_length() + 2
    rows = [[(j, _pack(coeffs, bits)) for j, coeffs in row] for row in sparse]
    return rows, rad, den, bits


def _coeff_orders(m: PolyMatrix) -> list:
    """Truncation order of each a_k, None where exact (see the module docstring)."""
    def least(polys):
        return min((p.trunc for p in polys if p.trunc is not None), default=None)
    diag = least(m.rows[i][i] for i in range(m.n))
    return [None, diag] + [least(p for row in m.rows for p in row)] * (m.n - 1)


def _from_kernel(coeffs, orders, rad, den) -> CharPoly:
    """CharPoly of M from the kernel coefficients a_k of den * M: a_k / den^k,
    cut at its truncation order, each built straight from its integers."""
    out = []
    for k, (poly, trunc) in enumerate(zip(coeffs, orders)):
        dk = den ** k
        terms = {}
        for e, c in enumerate(poly[:trunc]):
            if any(c):
                terms[e] = _canonical(*c, dk, rad) if rad else _canonical(*c, 0, 0, dk, 0)
        out.append(ScalarPoly(terms, trunc))
    return CharPoly(out)


def _pack(coeffs, bits):
    """Kernel entry of a list of coefficient tuples, None if it is empty."""
    if not coeffs:
        return None
    packed = []
    for comp in zip(*coeffs):
        x = 0
        for c in reversed(comp):
            x = (x << bits) + c
        packed.append(x)
    return tuple(packed)


def _unpack(p, bits) -> list:
    """Coefficient tuples of a kernel entry, read as balanced base-2^bits
    digits; exact while every component lies in [-2^(bits-1), 2^(bits-1))."""
    if p is None:
        return []
    base, half = 1 << bits, 1 << (bits - 1)
    comps = []
    for x in p:
        digits = []
        while x:
            d = x & (base - 1)
            if d >= half:
                d -= base
            digits.append(d)
            x = (x - d) >> bits
        comps.append(digits)
    size = max(map(len, comps))
    return list(zip(*(d + [0] * (size - len(d)) for d in comps)))


def _div_exact(p, k: int):
    """p / k for a polynomial whose components are all multiples of k."""
    for c in p:
        for x in c:
            if x % k:
                raise ArithmeticError(f"traces recursion: {x} is not divisible by {k}")
    return [tuple(x // k for x in c) for c in p]


def _sum(entries):
    """Sum of kernel entries, None if it is zero."""
    out = tuple(map(sum, zip(*entries)))
    return out if any(out) else None


def _dot(pairs, rad):
    """Sum of a * b over (a, b) pairs of kernel entries, None if it is zero.
    Over Z[i, sqrt(rad)], x + y sqrt(rad) is stored as (re x, im x, re y, im y)."""
    if rad:
        c0 = c1 = c2 = c3 = r0 = r1 = 0
        for (a0, a1, a2, a3), (b0, b1, b2, b3) in pairs:
            c0 += a0 * b0 - a1 * b1
            c1 += a0 * b1 + a1 * b0
            r0 += a2 * b2 - a3 * b3
            r1 += a2 * b3 + a3 * b2
            c2 += a0 * b2 - a1 * b3 + a2 * b0 - a3 * b1
            c3 += a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
        out = (c0 + rad * r0, c1 + rad * r1, c2, c3)
    else:
        re = im = 0
        for (ar, ai), (br, bi) in pairs:
            re += ar * br - ai * bi
            im += ar * bi + ai * br
        out = (re, im)
    return out if any(out) else None


def _row_times(row, rows, rad) -> list:
    """row * M for a sparse row and the sparse rows of M."""
    acc = {}
    for c, x in row:
        for j, y in rows[c]:
            acc.setdefault(j, []).append((x, y))
    out = ((j, _dot(pairs, rad)) for j, pairs in acc.items())
    return [(j, x) for j, x in out if x]
