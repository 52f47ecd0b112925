"""Exact complex scalars.

The symbolic layer works over Gaussian rationals, optionally extended by a
single square root of a square-free integer:

    value = (re + im*i) + (sre + sim*i) * sqrt(rad)

with all four components stored as ``fractions.Fraction``.  The radical part
is needed by a handful of physical models whose degeneracy conditions live
off the rationals (golden-ratio couplings, 1/sqrt(2) hoppings); everything
else stays in plain Q(i), for which the arithmetic below short-circuits.

Zero testing and equality are exact: a + b*sqrt(m) with rational a, b and
square-free m >= 2 vanishes iff a = b = 0.  This is what makes "this
coefficient is identically zero" a decidable question, which the whole
classification rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from numbers import Rational

_ZERO = Fraction(0)


def _is_square_free(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % (d * d) == 0:
            return False
        d += 1
    return True


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational) or isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class ExactComplex:
    """Element of Q(i, sqrt(rad)); ``rad == 0`` means plain Q(i)."""

    re: Fraction = _ZERO
    im: Fraction = _ZERO
    sre: Fraction = _ZERO
    sim: Fraction = _ZERO
    rad: int = 0

    def __post_init__(self):
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))
        object.__setattr__(self, "sre", _as_fraction(self.sre))
        object.__setattr__(self, "sim", _as_fraction(self.sim))
        if self.sre == 0 and self.sim == 0:
            object.__setattr__(self, "rad", 0)
        elif not _is_square_free(self.rad):
            raise ValueError(f"radicand must be square-free and >= 2, got {self.rad}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_value(x) -> "ExactComplex":
        if isinstance(x, ExactComplex):
            return x
        return ExactComplex(x)

    @staticmethod
    def radical(rad: int, sre, sim=0) -> "ExactComplex":
        """(sre + sim*i) * sqrt(rad)."""
        return ExactComplex(_ZERO, _ZERO, sre, sim, rad)

    # -- predicates --------------------------------------------------------

    def __bool__(self) -> bool:
        return not (self.re == 0 and self.im == 0 and self.sre == 0 and self.sim == 0)

    def _join_rad(self, other: "ExactComplex") -> int:
        if self.rad and other.rad and self.rad != other.rad:
            raise ValueError(f"mixed radicands {self.rad} and {other.rad}")
        return self.rad or other.rad

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = ExactComplex.from_value(other)
        rad = self._join_rad(other)
        return ExactComplex(self.re + other.re, self.im + other.im,
                            self.sre + other.sre, self.sim + other.sim, rad)

    __radd__ = __add__

    def __neg__(self):
        return ExactComplex(-self.re, -self.im, -self.sre, -self.sim, self.rad)

    def __sub__(self, other):
        return self + (-ExactComplex.from_value(other))

    def __rsub__(self, other):
        return ExactComplex.from_value(other) + (-self)

    def __mul__(self, other):
        other = ExactComplex.from_value(other)
        # fast path: both plain Gaussian rationals
        if self.rad == 0 and other.rad == 0:
            return ExactComplex(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)
        rad = self._join_rad(other)
        a, b, c, d = self.re, self.im, self.sre, self.sim
        e, f, g, h = other.re, other.im, other.sre, other.sim
        # (a+bi + (c+di)r)(e+fi + (g+hi)r),  r^2 = rad
        m = rad
        re = a * e - b * f + m * (c * g - d * h)
        im = a * f + b * e + m * (c * h + d * g)
        sre = a * g - b * h + c * e - d * f
        sim = a * h + b * g + c * f + d * e
        return ExactComplex(re, im, sre, sim, rad)

    __rmul__ = __mul__

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im, self.sre, -self.sim, self.rad)

    def inverse(self) -> "ExactComplex":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        if self.rad == 0:
            den = self.re * self.re + self.im * self.im
            return ExactComplex(self.re / den, -self.im / den)
        # (g + h*sqrt(m))^-1 = (g - h*sqrt(m)) / (g^2 - m h^2), Gaussian g, h
        flip = ExactComplex(self.re, self.im, -self.sre, -self.sim, self.rad)
        den = self * flip  # lands in Q(i)
        assert den.sre == 0 and den.sim == 0
        return flip * ExactComplex(den.re, den.im).inverse()

    def __truediv__(self, other):
        if isinstance(other, int) or isinstance(other, Rational):
            q = _as_fraction(other)
            return ExactComplex(self.re / q, self.im / q, self.sre / q, self.sim / q, self.rad)
        return self * ExactComplex.from_value(other).inverse()

    # -- conversions -------------------------------------------------------

    def to_complex(self) -> complex:
        z = complex(self.re) + 1j * complex(self.im)
        if self.rad:
            z += (complex(self.sre) + 1j * complex(self.sim)) * sqrt(self.rad)
        return z

    __complex__ = to_complex

    def __repr__(self) -> str:
        parts = []
        if self.re or self.im or not self:
            if self.im:
                parts.append(f"({self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}i)")
            else:
                parts.append(str(self.re))
        if self.rad:
            if self.sim:
                parts.append(f"({self.sre}{'+' if self.sim > 0 else '-'}{abs(self.sim)}i)*sqrt({self.rad})")
            else:
                parts.append(f"{self.sre}*sqrt({self.rad})")
        return " + ".join(parts) if parts else "0"


EC_ZERO = ExactComplex()
EC_ONE = ExactComplex(Fraction(1))
EC_I = ExactComplex(_ZERO, Fraction(1))


def ec(re, im=0) -> ExactComplex:
    """Shorthand Gaussian-rational constructor."""
    return ExactComplex(re, im)

