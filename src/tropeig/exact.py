"""Exact complex scalars.

The symbolic layer works over Gaussian rationals, optionally extended by a
single square root of a square-free integer:

    value = (nre + nim*i + (nsre + nsim*i) * sqrt(rad)) / den

stored as four integer numerators over one positive denominator, in lowest
terms (gcd(nre, nim, nsre, nsim, den) = 1), with ``rad == 0`` exactly when
the surd part nsre + nsim*i is zero.  That form is canonical, so equality
and hashing compare the six integers, and the components ``re``, ``im``,
``sre`` and ``sim`` are read as ``fractions.Fraction`` properties.  Every
value is built by one normalising helper, ``_canonical``: the public
constructor, which takes any exact rationals, and every ring operation,
which works on the integers alone and forms no Fraction.  The radical part
is needed by a handful of physical models whose degeneracy conditions live
off the rationals (golden-ratio couplings, 1/sqrt(2) hoppings); everything
else stays in plain Q(i), where the same formulas run with a zero surd part.

Zero testing and equality are exact: a + b*sqrt(m) with rational a, b and
square-free m >= 2 vanishes iff a = b = 0.  This is what makes "this
coefficient is identically zero" a decidable question, which the whole
classification rests on.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, sqrt
from numbers import Rational
from operator import attrgetter


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


class _Frozen:
    """Base of the immutable value types: a subclass lists its fields in
    ``__slots__``, in order ("__dict__" aside), and sets them in ``__init__``
    with ``_fill``, or ``_set`` on hot paths.  Equality, hashing and repr are
    over the field tuple, as a frozen dataclass has them, and copy and pickle
    restore the fields as stored.  Every value type takes them as they are;
    ScalarPoly alone adds a hash, since its terms are a dict."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._names = tuple(name for name in cls.__slots__ if name != "__dict__")
        cls._astuple = attrgetter(*cls._names)

    def __setattr__(self, name, value=None):  # also __delattr__, which passes no value
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == self._astuple(other)

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle; the default would set the slots
        return _restore, (self.__class__, self._astuple(self)), getattr(self, "__dict__", None)


_set = object.__setattr__


def _fill(obj: _Frozen, *values) -> None:
    """Set the fields of obj to values, in order."""
    for name, value in zip(obj._names, values):
        _set(obj, name, value)


def _restore(cls, values) -> _Frozen:
    obj = _new(cls)
    _fill(obj, *values)
    return obj


class ExactComplex(_Frozen):
    """Element of Q(i, sqrt(rad)); ``rad == 0`` means plain Q(i).

    Immutable: the six integers of the canonical form are read-only.
    """

    __slots__ = ("nre", "nim", "nsre", "nsim", "den", "rad")

    def __new__(cls, re=0, im=0, sre=0, sim=0, rad=0):
        if (re.__class__ is int and im.__class__ is int
                and sre.__class__ is int and sim.__class__ is int):
            den = 1  # fast path: plain int parts are their own numerators
        else:
            parts = [_as_fraction(x) for x in (re, im, sre, sim)]
            den = lcm(*(f.denominator for f in parts))
            re, im, sre, sim = (f.numerator * (den // f.denominator) for f in parts)
        if (sre or sim) and not _is_square_free(rad):
            raise ValueError(f"radicand must be square-free and >= 2, got {rad}")
        return _canonical(re, im, sre, sim, den, rad)

    # -- components --------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.nre, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.nim, self.den)

    @property
    def sre(self) -> Fraction:
        return Fraction(self.nsre, self.den)

    @property
    def sim(self) -> Fraction:
        return Fraction(self.nsim, self.den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_value(x) -> "ExactComplex":
        if isinstance(x, ExactComplex):
            return x
        return ExactComplex(x)

    @staticmethod
    def radical(rad: int, sre, sim=0) -> "ExactComplex":
        """(sre + sim*i) * sqrt(rad)."""
        return ExactComplex(0, 0, sre, sim, rad)

    # -- predicates --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.nre or self.nim or self.nsre or self.nsim)

    def _join_rad(self, other: "ExactComplex") -> int:
        if self.rad and other.rad and self.rad != other.rad:
            raise ValueError(f"mixed radicands {self.rad} and {other.rad}")
        return self.rad or other.rad

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = ExactComplex.from_value(other)
        rad = self._join_rad(other)
        d1, d2 = self.den, other.den
        return _canonical(self.nre * d2 + other.nre * d1, self.nim * d2 + other.nim * d1,
                          self.nsre * d2 + other.nsre * d1, self.nsim * d2 + other.nsim * d1,
                          d1 * d2, rad)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(-self.nre, -self.nim, -self.nsre, -self.nsim, self.den, self.rad)

    def __sub__(self, other):
        return self + (-ExactComplex.from_value(other))

    def __rsub__(self, other):
        return ExactComplex.from_value(other) + (-self)

    def __mul__(self, other):
        other = ExactComplex.from_value(other)
        m = self._join_rad(other)
        a, b, e, f = self.nre, self.nim, other.nre, other.nim
        c, d, g, h = self.nsre, self.nsim, other.nsre, other.nsim
        # (a+bi + (c+di)r)(e+fi + (g+hi)r),  r^2 = m
        return _canonical(a * e - b * f + m * (c * g - d * h),
                          a * f + b * e + m * (c * h + d * g),
                          a * g - b * h + c * e - d * f,
                          a * h + b * g + c * f + d * e,
                          self.den * other.den, m)

    __rmul__ = __mul__

    def conjugate(self) -> "ExactComplex":
        return _canonical(self.nre, -self.nim, self.nsre, -self.nsim, self.den, self.rad)

    def inverse(self) -> "ExactComplex":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        # x = (g + h sqrt(m)) / den with Gaussian integers g = a+bi, h = c+di:
        # 1/x = den (g - h sqrt(m)) conj(N) / |N|^2 with N = g^2 - m h^2 = p+qi,
        # nonzero because x is and sqrt(m) is not in Q(i); m = 0 in plain Q(i)
        a, b, c, d, m, den = self.nre, self.nim, self.nsre, self.nsim, self.rad, self.den
        p = a * a - b * b - m * (c * c - d * d)
        q = 2 * (a * b - m * c * d)
        return _canonical(den * (a * p + b * q), den * (b * p - a * q),
                          -den * (c * p + d * q), -den * (d * p - c * q), p * p + q * q, m)

    def __truediv__(self, other):
        return self * ExactComplex.from_value(other).inverse()

    # -- conversions -------------------------------------------------------

    def to_complex(self) -> complex:
        den = self.den  # int / int rounds correctly, as float(Fraction) does
        z = complex(self.nre / den) + 1j * complex(self.nim / den)
        if self.rad:
            z += (complex(self.nsre / den) + 1j * complex(self.nsim / den)) * sqrt(self.rad)
        return z

    __complex__ = to_complex

    def __repr__(self) -> str:
        parts = []
        if self.nre or self.nim or not self:
            if self.nim:
                parts.append(f"({self.re}{'+' if self.nim > 0 else '-'}{abs(self.im)}i)")
            else:
                parts.append(str(self.re))
        if self.rad:
            if self.nsim:
                parts.append(f"({self.sre}{'+' if self.nsim > 0 else '-'}{abs(self.sim)}i)"
                             f"*sqrt({self.rad})")
            else:
                parts.append(f"{self.sre}*sqrt({self.rad})")
        return " + ".join(parts) if parts else "0"


_new = object.__new__
_SET = tuple(ExactComplex.__dict__[name].__set__ for name in ExactComplex.__slots__)


def _canonical(nre: int, nim: int, nsre: int, nsim: int, den: int, rad: int) -> ExactComplex:
    """(nre + nim*i + (nsre + nsim*i) sqrt(rad)) / den in canonical form, for
    integers with den > 0 and rad square-free whenever the surd part is not
    zero: divided by the gcd of all five, and rad = 0 exactly when
    nsre = nsim = 0.  The one place an ExactComplex is built from integers;
    copy and pickle restore one in this form."""
    if den != 1:
        g = gcd(nre, nim, nsre, nsim, den)
        if g != 1:
            nre, nim, nsre, nsim, den = nre // g, nim // g, nsre // g, nsim // g, den // g
    if not (nsre or nsim):
        rad = 0
    z = _new(ExactComplex)
    s_re, s_im, s_sre, s_sim, s_den, s_rad = _SET
    s_re(z, nre)
    s_im(z, nim)
    s_sre(z, nsre)
    s_sim(z, nsim)
    s_den(z, den)
    s_rad(z, rad)
    return z


EC_ZERO = ExactComplex()
EC_ONE = ExactComplex(1)
EC_I = ExactComplex(0, 1)


def ec(re, im=0) -> ExactComplex:
    """Shorthand Gaussian-rational constructor."""
    return ExactComplex(re, im)
