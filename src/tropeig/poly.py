"""Sparse exact polynomials in one perturbation variable t.

A ScalarPoly maps exponents (non-negative ints) to ExactComplex coefficients.
Zero coefficients are never stored, so the valuation ``ord`` is just the
smallest stored exponent and identity testing is dictionary equality.

Truncated power series reuse the same container: ``trunc = k``, a
non-negative int (None for an exact polynomial), means "terms of degree >= k
are unknown", not "they are zero".  Consequently the valuation
of a polynomial that is empty *up to its truncation order* is reported as
undetermined rather than infinite; downstream code must refuse to guess in
that case (see Ord.kind == "undetermined").
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .exact import EC_ONE, ExactComplex, _Frozen, _new, _set


class Ord(_Frozen):
    """Valuation of a ScalarPoly: finite, +infinity, or unknown-but->=bound."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: int | None = None):
        _set(self, "kind", kind)  # "finite" | "infinite" | "undetermined"
        _set(self, "value", value)  # exponent if finite, lower bound if undetermined

    @staticmethod
    def finite(k: int) -> "Ord":
        return Ord("finite", k)

    @staticmethod
    def infinite() -> "Ord":
        return Ord("infinite")

    @staticmethod
    def at_least(k: int) -> "Ord":
        return Ord("undetermined", k)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def is_infinite(self) -> bool:
        return self.kind == "infinite"

    @property
    def is_undetermined(self) -> bool:
        return self.kind == "undetermined"

    def __repr__(self):
        if self.is_finite:
            return str(self.value)
        if self.is_infinite:
            return "inf"
        return f">={self.value}?"


class ScalarPoly(_Frozen):
    """Immutable sparse polynomial/truncated series over ExactComplex."""

    __slots__ = ("terms", "trunc")

    def __init__(self, terms: dict | None = None, trunc: int | None = None):
        # terms maps exponent -> coefficient; zeros and terms >= trunc are dropped
        if trunc is not None:
            if trunc.__class__ is not int:
                raise TypeError(f"trunc must be int or None, got {trunc!r}")
            if trunc < 0:
                raise ValueError("negative trunc")
        clean = {}
        if terms:
            for e, c in terms.items():
                if e.__class__ is not int:
                    raise TypeError(f"exponents must be int, got {e!r}")
                if e < 0:
                    raise ValueError("negative exponent")
                c = ExactComplex.from_value(c)
                if c and (trunc is None or e < trunc):
                    clean[e] = c
        _set(self, "terms", clean)
        _set(self, "trunc", trunc)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(trunc: int | None = None) -> "ScalarPoly":
        return ScalarPoly({}, trunc)

    @staticmethod
    def const(c) -> "ScalarPoly":
        return ScalarPoly({0: c})

    @staticmethod
    def monomial(exp: int, c=1) -> "ScalarPoly":
        return ScalarPoly({exp: c})

    @staticmethod
    def t() -> "ScalarPoly":
        return ScalarPoly({1: EC_ONE})

    @staticmethod
    def from_value(x) -> "ScalarPoly":
        if isinstance(x, ScalarPoly):
            return x
        return ScalarPoly.const(x)

    # -- structure ---------------------------------------------------------

    def ord(self) -> Ord:
        if self.terms:
            return Ord.finite(min(self.terms))
        if self.trunc is None:
            return Ord.infinite()
        return Ord.at_least(self.trunc)

    def is_zero(self) -> bool:
        """Exactly the zero polynomial (no truncation hedge)."""
        return not self.terms and self.trunc is None

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int:
        return max(self.terms) if self.terms else -1

    def coefficient(self, exp: int) -> ExactComplex:
        return self.terms.get(exp, ExactComplex())

    # direct, without _Frozen's field tuples: Family.deflation groups block
    # charpolys by equality, and braid_loop compares them
    def __eq__(self, other):
        if other.__class__ is not ScalarPoly:
            return NotImplemented
        return self.trunc == other.trunc and self.terms == other.terms

    def __hash__(self):  # terms is a dict, so the field-tuple hash would fail
        return hash((frozenset(self.terms.items()), self.trunc))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _join_trunc(a: int | None, b: int | None) -> int | None:
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def __add__(self, other):
        other = ScalarPoly.from_value(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            prev = out.get(e)
            out[e] = c if prev is None else prev + c
        return _cleaned(out, self._join_trunc(self.trunc, other.trunc))

    __radd__ = __add__

    def __neg__(self):
        return _poly({e: -c for e, c in self.terms.items()}, self.trunc)

    def __sub__(self, other):
        return self + (-ScalarPoly.from_value(other))

    def __rsub__(self, other):
        return ScalarPoly.from_value(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, ScalarPoly):
            return self.scale(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                prev = out.get(e)
                out[e] = c1 * c2 if prev is None else prev + c1 * c2
        return _cleaned(out, self._join_trunc(self.trunc, other.trunc))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "ScalarPoly":
        c = ExactComplex.from_value(c)
        # a field has no zero divisors: every product of nonzeros stays nonzero
        return _poly({e: v * c for e, v in self.terms.items()} if c else {}, self.trunc)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = ScalarPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- numerics ----------------------------------------------------------

    def float_table(self) -> tuple:
        """The (exponent, complex coefficient) pairs, highest exponent first,
        in the form ``horner_table`` reads."""
        return tuple((e, self.terms[e].to_complex()) for e in sorted(self.terms, reverse=True))

    def evaluate(self, z: complex) -> complex:
        """Horner evaluation after float conversion of the coefficients."""
        return horner_table(self.float_table(), z)

    def __repr__(self):
        if not self.terms:
            body = "0"
        else:
            body = " + ".join(f"({c})*t^{e}" if e else f"({c})"
                              for e, c in sorted(self.terms.items()))
        return body + (f" + O(t^{self.trunc})" if self.trunc is not None else "")


def _poly(terms: dict, trunc: int | None) -> ScalarPoly:
    """A ScalarPoly of terms already in stored form: int exponents >= 0 with
    nonzero ExactComplex coefficients, each below trunc.  The public
    constructor checks and converts every term; the arithmetic above and the
    charpoly kernel, which make only such terms, build through here."""
    p = _new(ScalarPoly)
    _set(p, "terms", terms)
    _set(p, "trunc", trunc)
    return p


def _cleaned(terms: dict, trunc: int | None) -> ScalarPoly:
    """_poly of ExactComplex terms with the zeros and the terms at or above
    trunc dropped."""
    return _poly({e: c for e, c in terms.items() if c and (trunc is None or e < trunc)}, trunc)


def horner_table(table, z: complex) -> complex:
    """Sum of c * z^e over a ``ScalarPoly.float_table``, by Horner's rule with
    the gaps between exponents taken as powers of z."""
    if not table:
        return 0j
    acc = 0j
    prev = None
    for e, c in table:
        if prev is not None:
            acc *= z ** (prev - e)
        acc += c
        prev = e
    return acc * z ** table[-1][0]


def _alternating_series(first: int, order: int) -> ScalarPoly:
    """The sum of (-1)^k t^e / e! over e = first + 2k, truncated strictly
    below t^order."""
    return ScalarPoly({e: ExactComplex(Fraction((-1) ** (e // 2), factorial(e)))
                       for e in range(first, order, 2)}, trunc=order)


def cos_series(order: int) -> ScalarPoly:
    """cos(t) truncated strictly below t^order."""
    return _alternating_series(0, order)


def sin_series(order: int) -> ScalarPoly:
    """sin(t) truncated strictly below t^order."""
    return _alternating_series(1, order)
