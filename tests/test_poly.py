import copy
import math
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from reference import RefComplex, invert_matrix, rescale_t
from tropeig.exact import EC_I, EC_ONE, ExactComplex, ec
from tropeig.poly import _FINITE, Ord, ScalarPoly, cos_series, sin_series


def rand_poly(rng, max_terms=4, max_exp=6):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.randint(0, max_exp)] = ec(rng.randint(-9, 9), rng.randint(-9, 9))
    return ScalarPoly(terms)


class TestExactComplex:
    def test_field_axioms_sampled(self):
        rng = random.Random(7)
        for _ in range(50):
            a = ec(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(-9, 9))
            b = ec(rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            assert a + b == b + a
            assert a * b == b * a
            if b:
                assert (a / b) * b == a

    def test_radical_arithmetic(self):
        golden = ExactComplex(Fraction(1, 2), 0, Fraction(1, 2), 0, 5)
        # golden ratio satisfies x^2 = x + 1
        assert golden * golden == golden + 1
        assert golden * golden.inverse() == EC_ONE
        root2 = ExactComplex.radical(2, 1)
        assert root2 * root2 == ec(2)
        with pytest.raises(ValueError):
            _ = root2 * ExactComplex.radical(5, 1)

    def test_radicand_must_be_square_free(self):
        for rad in (0, 1, 4, 8, 9, 12, 18, -3):
            with pytest.raises(ValueError, match=f"^radicand must be square-free and >= 2, "
                                                 f"got {rad}$"):
                ExactComplex.radical(rad, Fraction(1, 2))
            assert ExactComplex(1, 0, 0, 0, rad) == ExactComplex(1)  # no surd part

    def test_conjugate_and_float(self):
        z = ExactComplex(Fraction(1, 3), Fraction(-2), Fraction(1), Fraction(1, 7), 2)
        w = z * z.conjugate()
        assert w.im == 0 and w.sim == 0
        assert abs(z.to_complex() * z.conjugate().to_complex() - w.to_complex()) < 1e-12

    def test_matrix_inverse(self):
        rng = random.Random(3)
        for _ in range(10):
            rows = [[ec(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3)]
                    for _ in range(3)]
            try:
                inv = invert_matrix(rows)
            except ZeroDivisionError:
                continue
            for i in range(3):
                for j in range(3):
                    acc = ExactComplex()
                    for k in range(3):
                        acc = acc + rows[i][k] * inv[k][j]
                    assert acc == (EC_ONE if i == j else ExactComplex())


RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=36)


@st.composite
def scalar_pairs(draw):
    """Two elements of Q(i) or of one Q(i, sqrt(rad)), either of which may
    have no surd part; components are rationals with denominators."""
    rad = draw(st.sampled_from((0, 2, 3, 5, 6)))

    def scalar():
        re, im = draw(RATIONALS), draw(RATIONALS)
        if rad and draw(st.booleans()):
            return ExactComplex(re, im, draw(RATIONALS), draw(RATIONALS), rad)
        return ExactComplex(re, im)
    return scalar(), scalar()


def _assert_canonical(z: ExactComplex):
    assert math.gcd(z.nre, z.nim, z.nsre, z.nsim, z.den) == 1 and z.den > 0
    assert (z.rad == 0) == (z.nsre == 0 and z.nsim == 0)


class TestExactComplexAgainstReference:
    """ExactComplex against RefComplex, which keeps four Fractions."""

    @settings(max_examples=300, deadline=None)
    @given(scalar_pairs())
    # a sum over one denominator, a Gaussian product over one, a Gaussian inverse
    @example((ec(Fraction(1, 6)), ec(Fraction(1, 6))))
    @example((ec(Fraction(1, 3), Fraction(2, 3)), ec(Fraction(2, 3), Fraction(-1, 3))))
    @example((ec(1), ec(Fraction(3, 2), 2)))
    def test_field_operations(self, pair):
        a, b = pair
        ra, rb = RefComplex.of(a), RefComplex.of(b)
        results = [(a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb),
                   (-a, -ra), (a.conjugate(), ra.conjugate())]
        if b:
            results += [(a / b, ra / rb), (b.inverse(), rb.inverse())]
        for ours, theirs in results:
            _assert_canonical(ours)
            assert RefComplex.of(ours) == theirs
            assert ours.to_complex() == theirs.to_complex()
        if not b:
            with pytest.raises(ZeroDivisionError):
                a / b

    @settings(max_examples=300, deadline=None)
    @given(scalar_pairs())
    def test_equality_hash_and_round_trip(self, pair):
        a, b = pair
        _assert_canonical(a)
        again = ExactComplex(a.re, a.im, a.sre, a.sim, a.rad)
        assert again == a and hash(again) == hash(a)
        six = (a.nre, a.nim, a.nsre, a.nsim, a.den, a.rad)
        assert (again.nre, again.nim, again.nsre, again.nsim, again.den, again.rad) == six
        assert hash(a) == hash(six)  # as the README states
        assert (a == b) == (RefComplex.of(a) == RefComplex.of(b))
        assert a + b - b == a and hash(a + b - b) == hash(a)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-10 ** 30, 10 ** 30), st.integers(-10 ** 30, 10 ** 30),
           st.integers(1, 10 ** 12), st.integers(-50, 50).filter(bool))
    def test_integer_fast_path_and_rational_division(self, re, im, d, k):
        z = ExactComplex(re, im)
        assert (z.nre, z.nim, z.den, z.rad) == (re, im, 1, 0)
        q = Fraction(k, d)
        assert RefComplex.of(z / q) == RefComplex(Fraction(re) / q, Fraction(im) / q)
        assert z / k == z / Fraction(k) and z / True == z
        _assert_canonical(z / q)

    @pytest.mark.parametrize("zero", [0, Fraction(0), False, ExactComplex()])
    def test_division_by_zero_raises(self, zero):
        with pytest.raises(ZeroDivisionError):
            ec(1, 2) / zero

    def test_value_is_read_only(self):
        z = ec(Fraction(1, 2), 3)
        for name in ("nre", "nim", "nsre", "nsim", "den", "rad", "re", "im"):
            with pytest.raises(AttributeError):
                setattr(z, name, 1)
            with pytest.raises(AttributeError):
                delattr(z, name)
        assert z == ec(Fraction(1, 2), 3) and z != Fraction(1, 2) and z != 0
        w = ExactComplex(1, Fraction(2, 3), Fraction(-1, 6), 1, 7)
        assert copy.copy(w) == w and pickle.loads(pickle.dumps(w)) == w

    # (1/2 - 3i) + (1/6 + i) sqrt(7), pickled when ExactComplex rebuilt itself
    # through _canonical: such bytes must keep loading
    CANONICAL_PICKLE = (b"\x80\x04\x954\x00\x00\x00\x00\x00\x00\x00\x8c\rtropeig.exact"
                        b"\x94\x8c\n_canonical\x94\x93\x94(K\x03J\xee\xff\xff\xffK\x01K\x06"
                        b"K\x06K\x07t\x94R\x94.")

    def test_canonical_pickle_still_loads(self):
        z = ExactComplex(Fraction(1, 2), -3, Fraction(1, 6), 1, 7)
        old = pickle.loads(self.CANONICAL_PICKLE)
        assert old.__class__ is ExactComplex and old == z and hash(old) == hash(z)
        assert (old.nre, old.nim, old.nsre, old.nsim, old.den, old.rad) == (3, -18, 1, 6, 6, 7)

    def test_mixed_radicands_raise(self):
        r2, r5 = ExactComplex.radical(2, 1), ExactComplex.radical(5, Fraction(1, 3))
        for op in (lambda: r2 + r5, lambda: r2 - r5, lambda: r2 * r5, lambda: r2 / r5):
            with pytest.raises(ValueError, match="^mixed radicands 2 and 5$"):
                op()

    @pytest.mark.parametrize("make", [
        lambda: ExactComplex(0.5), lambda: ExactComplex(1, 0.0),
        lambda: ExactComplex(1, 0, 0.5, 0, 2), lambda: ec(1) + 1.5, lambda: ec(1) * 0.5,
        lambda: ec(1) / 0.5, lambda: 2.0 - ec(1),
    ])
    def test_float_input_raises(self, make):
        with pytest.raises(TypeError, match="^expected an exact rational, got float$"):
            make()


class TestOrd:
    @pytest.mark.parametrize("exponent", [0.5, 2.0, Fraction(1), True, "1"])
    def test_exponents_must_be_int(self, exponent):
        # a float exponent would fail deep in the charpoly kernel, and True
        # would print as t^True
        message = f"exponents must be int, got {exponent!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            ScalarPoly({0: 1, exponent: 1})

    @pytest.mark.parametrize("trunc", [True, False, 2.5, 2.0, Fraction(2), "2"])
    def test_trunc_must_be_int(self, trunc):
        # True would print as O(t^True), and 2.5 would be kept as an order
        message = f"trunc must be int or None, got {trunc!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            ScalarPoly({0: 1}, trunc)

    @pytest.mark.parametrize("build, message", [
        (lambda: ScalarPoly({-1: 1}), "negative exponent"),
        (lambda: ScalarPoly.t() ** -1, "negative power"),
    ])
    def test_negative_exponent_and_power_rejected(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_negative_trunc_rejected(self):
        # -1 would drop the constant term and report ord >= -1
        with pytest.raises(ValueError, match="^negative trunc$"):
            ScalarPoly({0: 1}, trunc=-1)

    def test_zero_trunc_keeps_no_term(self):
        p = ScalarPoly({0: 1, 3: 2}, trunc=0)
        assert p.terms == {} and p.trunc == 0
        assert p.ord() == Ord.at_least(0) and str(p) == "0 + O(t^0)"

    def test_smallest_nonzero_exponent(self):
        assert ScalarPoly({2: 3, 5: 1}).ord() == Ord.finite(2)

    def test_zero_polynomial(self):
        assert ScalarPoly.zero().ord().is_infinite

    def test_truncated_cos_minus_one(self):
        # cos(t) - 1 = -t^2/2 + t^4/24 - ...; truncated at order 4 the
        # valuation is still visible
        p = cos_series(4) - 1
        assert p.ord() == Ord.finite(2)
        assert p.coefficient(2) == ec(Fraction(-1, 2))

    def test_truncated_zero_is_undetermined(self):
        p = cos_series(2) - 1  # only the constant term survives, then cancels
        o = p.ord()
        assert o.is_undetermined and o.value == 2

    @pytest.mark.parametrize("k", [0, 1, len(_FINITE) - 1, len(_FINITE), 10 ** 6])
    def test_finite_ord_equals_a_fresh_one(self, k):
        # ord() shares the finite values below len(_FINITE) and builds the rest
        o = ScalarPoly({k + 2: 1, k: ec(3, 1)}).ord()
        assert o == Ord("finite", k) and hash(o) == hash(Ord("finite", k)) and repr(o) == str(k)
        assert (o.kind, o.value, o.is_finite) == ("finite", k, True)
        assert (o is ScalarPoly.monomial(k).ord()) == (k < len(_FINITE))

    @pytest.mark.parametrize("p, fresh", [(ScalarPoly.zero(), Ord("infinite")),
                                          (ScalarPoly.zero(0), Ord("undetermined", 0)),
                                          (ScalarPoly({9: 1}, 5), Ord("undetermined", 5))])
    def test_infinite_and_undetermined_ords_equal_fresh_ones(self, p, fresh):
        o = p.ord()
        assert o == fresh and hash(o) == hash(fresh) and repr(o) == repr(fresh)
        assert (o.kind, o.value) == (fresh.kind, fresh.value)

    @pytest.mark.parametrize("p", [ScalarPoly.const(1), ScalarPoly.monomial(len(_FINITE) - 1),
                                   ScalarPoly.zero()])
    def test_shared_ords_are_read_only(self, p):
        o = p.ord()
        for field in ("kind", "value"):
            with pytest.raises(AttributeError):
                setattr(o, field, None)
            with pytest.raises(AttributeError):
                delattr(o, field)
        assert p.ord() is o and o == Ord(o.kind, o.value)


class TestArithmetic:
    def test_mul_monomials(self):
        assert ScalarPoly.t() * ScalarPoly.monomial(2) == ScalarPoly.monomial(3)

    def test_ord_multiplicative(self):
        rng = random.Random(11)
        for _ in range(60):
            p, q = rand_poly(rng), rand_poly(rng)
            assert (p * q).ord().value == p.ord().value + q.ord().value

    def test_cancellation_makes_ord_jump(self):
        p = ScalarPoly.monomial(2)
        q = ScalarPoly.monomial(2, -1)
        assert (p + q).ord().is_infinite

    def test_ord_of_sum_bound(self):
        rng = random.Random(13)
        for _ in range(60):
            p, q = rand_poly(rng), rand_poly(rng)
            s = (p + q).ord()
            bound = min(p.ord().value, q.ord().value)
            if p.ord().value != q.ord().value:
                assert s.value == bound
            else:
                assert s.is_infinite or s.value >= bound

    def test_associative_commutative(self):
        rng = random.Random(17)
        for _ in range(40):
            a, b, c = (rand_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)

    def test_truncation_joins(self):
        a = ScalarPoly({1: 1}, trunc=4)
        b = ScalarPoly({0: 1, 5: 2})
        assert (a * b).trunc == 4
        assert (a + b).trunc == 4
        assert 5 not in (a + b).terms

    def test_power(self):
        t = ScalarPoly.t()
        p = (t + 1) ** 3
        assert p.coefficient(0) == ec(1)
        assert p.coefficient(1) == ec(3)
        assert p.coefficient(2) == ec(3)
        assert p.coefficient(3) == ec(1)

    def test_rescale_t_preserves_ord(self):
        rng = random.Random(19)
        for _ in range(30):
            p = rand_poly(rng)
            q = rescale_t(p, ec(Fraction(3, 2), 1))
            assert q.ord() == p.ord()


class TestEvaluate:
    def test_monomial(self):
        assert ScalarPoly.monomial(2).evaluate(0.5) == pytest.approx(0.25)

    def test_zero(self):
        assert ScalarPoly.zero().evaluate(2.3 + 1j) == 0

    def test_against_direct_float_sum(self):
        rng = random.Random(23)
        for _ in range(40):
            p = rand_poly(rng)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            direct = sum(c.to_complex() * z ** e for e, c in p.terms.items())
            assert p.evaluate(z) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_dynamical_coefficients(self):
        # coefficients -g^2 and 2g of the three-mode cavity polynomial
        quad = ScalarPoly.monomial(2, -1)
        lin = ScalarPoly.monomial(1, 2)
        for g in (0.3, 0.05, 1.7):
            assert quad.evaluate(g) == pytest.approx(-g * g)
            assert lin.evaluate(g) == pytest.approx(2 * g)


class TestSeries:
    def test_cos_sin_match_math(self):
        c, s = cos_series(12), sin_series(12)
        for x in (0.1, 0.3):
            assert c.evaluate(x) == pytest.approx(math.cos(x), abs=1e-10)
            assert s.evaluate(x) == pytest.approx(math.sin(x), abs=1e-10)

    def test_truncation_set(self):
        assert cos_series(6).trunc == 6
        assert max(cos_series(6).terms) < 6
