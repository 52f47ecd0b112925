import random
import time
from fractions import Fraction
from math import comb, isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reference import (companion_matrix, conjugate_by, dense, evaluate_charpoly, sympy_poly,
                       trace, traceless_shift)
from tropeig import charpoly as charpoly_module
from tropeig.charpoly import (CharPoly, PolyMatrix, _div_exact, _pack, _to_kernel, _unpack,
                              charpoly_direct, charpoly_traces)
from tropeig.exact import ExactComplex, ec
from tropeig.jordan import _TEMPLATES, build_direction_matrix
from tropeig.models import hatano_nelson
from tropeig.poly import ScalarPoly


def rand_linear_matrix(rng, n):
    """Matrix with entries c * t, c a nonzero small Gaussian integer."""
    return PolyMatrix([[ScalarPoly.monomial(1, ec(rng.randint(-9, 9), rng.randint(-2, 2)))
                        for _ in range(n)] for _ in range(n)])


def rand_exact_direction(rng, names):
    return {nm: ec(rng.randint(-9, 9), rng.randint(-3, 3)) for nm in names}


VALUE_TYPES = {
    "ScalarPoly": (lambda: ScalarPoly({0: 1, 2: ec(1, -3)}, 5), ("terms", "trunc")),
    "PolyMatrix": (lambda: PolyMatrix([[0, 1], [ScalarPoly.t(), 0]]), ("rows", "n")),
    "CharPoly": (lambda: CharPoly([1, 0, -ScalarPoly.t()]), ("coeffs", "n")),
}


@pytest.mark.parametrize("name", VALUE_TYPES)
class TestValueContract:
    def test_fields_are_read_only(self, name):
        make, fields = VALUE_TYPES[name]
        value = make()
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(value, f, getattr(value, f))

    def test_equal_values_hash_equal(self, name):
        make, _ = VALUE_TYPES[name]
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)

    def test_never_equals_a_non_instance(self, name):
        make, fields = VALUE_TYPES[name]
        value = make()
        others = [None, 0, 1, fields] + [getattr(value, f) for f in fields]
        others += [m() for other, (m, _) in VALUE_TYPES.items() if other != name]
        for other in others:
            assert value != other and other != value, other


class TestLeadingOne:
    @pytest.mark.parametrize("leading", [1, ec(1), ScalarPoly({0: 1})])
    def test_exact_one_accepted(self, leading):
        assert CharPoly([leading, ScalarPoly.t()]).n == 1

    @pytest.mark.parametrize("coeffs", [
        [ScalarPoly({0: 1}, trunc=3), 0],  # 1 + O(t^3) is not exactly 1
        [2, 0],
        [1 + ScalarPoly.t(), 0],
        [1],
    ])
    def test_anything_else_rejected(self, coeffs):
        with pytest.raises(ValueError, match="must start with the constant 1"):
            CharPoly(coeffs)


class TestTracelessShift:
    def test_diagonal(self):
        m = traceless_shift(PolyMatrix([[1, 0], [0, 3]]))
        assert m[0, 0] == ScalarPoly.const(-1)
        assert m[1, 1] == ScalarPoly.const(1)

    def test_already_traceless_unchanged(self):
        h2 = PolyMatrix([[0, 1], [ScalarPoly.t(), 0]])
        assert traceless_shift(h2) == h2

    def test_result_trace_zero(self):
        rng = random.Random(5)
        for _ in range(10):
            m = rand_linear_matrix(rng, 3)
            assert trace(traceless_shift(m)).is_zero()


class TestTwoAlgorithmsAgree:
    def test_4x4_random_instances(self):
        rng = random.Random(42)
        for _ in range(200):
            m = rand_linear_matrix(rng, 4)
            assert charpoly_traces(m) == charpoly_direct(m)

    def test_mixed_degrees(self):
        rng = random.Random(43)
        for _ in range(30):
            entries = [[ScalarPoly({rng.randint(0, 2): ec(rng.randint(-4, 4))})
                        for _ in range(3)] for _ in range(3)]
            m = PolyMatrix(entries)
            assert charpoly_traces(m) == charpoly_direct(m)

    def test_1x1(self):
        p = ScalarPoly({0: 2, 1: -3})
        cp = charpoly_direct(PolyMatrix([[p]]))
        assert cp.n == 1
        assert cp.coefficient(1) == -p
        assert charpoly_traces(PolyMatrix([[p]])) == cp


def _ref_dot(row, col) -> ScalarPoly:
    acc = ScalarPoly.zero()
    for a, b in zip(row, col):
        acc = acc + a * b
    return acc


def reference_berkowitz(a) -> list:
    """Berkowitz on ScalarPoly entries: the object-path reference for the kernel."""
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
        items.append(-_ref_dot(r, v))
        v = [_ref_dot(row, v) for row in b]
    prev = reference_berkowitz(b)  # length n
    out = []
    for i in range(n + 1):
        acc = ScalarPoly.zero()
        for j in range(max(0, i - n), min(i, n - 1) + 1):
            acc = acc + items[i - j] * prev[j]
        out.append(acc)
    return out


@st.composite
def exact_matrices(draw, max_n=5, bound=6, degree=2):
    """n = 1..max_n; Gaussian rationals with denominators, at most one surd
    sqrt(2) or sqrt(5), truncated entries and exact zeros beside them.  The
    nonzero pattern is dense, a random mask, a permutation, bidiagonal, or
    dense with one zero row or column."""
    n = draw(st.integers(1, max_n))
    rad = draw(st.sampled_from((0, 2, 5)))
    small, den = st.integers(-bound, bound), st.integers(1, 4)

    def scalar():
        re, im = (Fraction(draw(small), draw(den)) for _ in range(2))
        if rad and draw(st.booleans()):
            sre, sim = (Fraction(draw(small), draw(den)) for _ in range(2))
            return ExactComplex(re, im, sre, sim, rad)
        return ExactComplex(re, im)

    def entry():
        trunc = draw(st.sampled_from((None, None, None, 1, 2, 3)))
        if draw(st.integers(0, 3)) == 0:
            return ScalarPoly.zero(trunc)
        return ScalarPoly({e: scalar() for e in range(degree + 1) if draw(st.booleans())},
                          trunc)

    shape = draw(st.sampled_from(("dense", "mask", "permutation", "bidiagonal", "zero_line")))
    if shape == "mask":
        keep = {(i, j) for i in range(n) for j in range(n) if draw(st.booleans())}
    elif shape == "permutation":
        keep = set(enumerate(draw(st.permutations(range(n)))))
    elif shape == "bidiagonal":
        off = draw(st.sampled_from((1, -1)))
        keep = {(i, j) for i in range(n) for j in range(n) if j - i in (0, off)}
    else:
        line = draw(st.integers(0, n - 1)) if shape == "zero_line" else None
        axis = draw(st.integers(0, 1))
        keep = {(i, j) for i in range(n) for j in range(n) if (i, j)[axis] != line}
    return PolyMatrix([[entry() if (i, j) in keep else ScalarPoly.zero() for j in range(n)]
                       for i in range(n)])


class TestKernelAgainstReference:
    @settings(max_examples=150, deadline=None)
    # n = 1..7 covers h = ceil(n/2) = 1..4 and both parities of n
    @given(exact_matrices(max_n=7))
    # an exact zero times a truncated entry is a truncated zero: a_2 = O(t^2)
    @example(PolyMatrix([[0, 0], [0, ScalarPoly.zero(2)]]))
    # an off-diagonal truncation leaves a_1 exact but truncates a_2
    @example(PolyMatrix([[1, ScalarPoly.zero(1)], [ScalarPoly.monomial(2), 0]]))
    # sparse high degrees: lambda^3 - t^100000, and an exact 1 + t^50000 on the
    # diagonal, which a_1 keeps, beside an entry truncated at order 2
    @example(companion_matrix([1, 0, 0, -ScalarPoly.monomial(100000)]))
    @example(PolyMatrix([[ScalarPoly({0: 1, 50000: ec(2, -1)}), ScalarPoly({0: 3}, 2), 0],
                         [ScalarPoly.monomial(1), 0, ScalarPoly.monomial(50000, ec(0, 1))],
                         [ScalarPoly.monomial(3), 1, ScalarPoly.monomial(49999)]]))
    def test_direct_traces_reference_agree(self, m):
        ref = CharPoly(reference_berkowitz([list(row) for row in m.rows]))
        assert charpoly_direct(m) == ref
        assert charpoly_traces(m) == ref

    @pytest.mark.parametrize("fn", [charpoly_direct, charpoly_traces])
    def test_mixed_radicands_rejected(self, fn):
        m = PolyMatrix([[ExactComplex.radical(5, 1), 1],
                        [ScalarPoly.t(), ExactComplex.radical(2, 1, 3)]])
        with pytest.raises(ValueError, match="mixed radicands 2 and 5"):
            fn(m)

    def test_inexact_division_raises(self):
        with pytest.raises(ArithmeticError, match="not divisible by 2"):
            _div_exact([(0, (4, 2)), (7, (4, 3))], 2)


def _components(p: ScalarPoly):
    for c in p.terms.values():
        yield from (c.re, c.im, c.sre, c.sim)


def _sylvester_hadamard(k) -> PolyMatrix:
    """The 2^k x 2^k Sylvester-Hadamard matrix: +-1 entries, and |det| meets
    Hadamard's bound (2^k)^(2^(k-1)) exactly."""
    h = [[1]]
    for _ in range(k):
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return PolyMatrix(h)


def _dense_gaussian(rng, n) -> PolyMatrix:
    """Dense n x n A + B t, A and B Gaussian integers in [-9, 9] + i[-9, 9],
    drawn as the exact-large benchmark draws its dense inputs."""
    def gauss():
        return ec(rng.randint(-9, 9), rng.randint(-9, 9))
    return PolyMatrix([[ScalarPoly({0: gauss(), 1: gauss()}) for _ in range(n)] for _ in range(n)])


def _dense_surd(rng, n) -> PolyMatrix:
    """Dense n x n matrix over Q(i, sqrt 2) with denominators, degree 1."""
    def scalar():
        re, im, sre, sim = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4))
        return ExactComplex(re, im, sre, sim, 2)
    return PolyMatrix([[ScalarPoly({0: scalar(), 1: scalar()}) for _ in range(n)] for _ in range(n)])


def _row_sum_bits(m) -> int:
    """The digit width from R, the largest row sum of entry norms, which the
    Hadamard-type width replaced: two more than the bit length of
    n max_k C(n, k) R^k.  The reference that the width is never above."""
    _, rad, den, _, _ = _to_kernel(m)
    w = isqrt(rad) + 1

    def norm(c):
        return den // c.den * (abs(c.nre) + abs(c.nim) + w * (abs(c.nsre) + abs(c.nsim)))

    r = max(sum(norm(c) for p in row for c in p.terms.values()) for row in m.rows)
    n = m.n
    return (n * max(comb(n, k) * r ** k for k in range(n + 1))).bit_length() + 2


class TestPackedKernel:
    """The digit width 2^bits must hold every a_k and every traces sum k a_k
    of den * M, computed from all known terms, as a balanced digit."""

    @settings(max_examples=60, deadline=None)
    @given(exact_matrices(max_n=6, bound=2 ** 40, degree=4))
    # tight for a_1 = -c: the two margin bits are what makes it fit
    @example(PolyMatrix([[2 ** 40 - 1]]))
    # tight for 6 a_6 = 6 c^6: needs the factor n
    @example(PolyMatrix([[2 ** 40 - 1 if i == j else 0 for j in range(6)] for i in range(6)]))
    # |det| = 8^4 meets Hadamard's bound on the rows' 2-norms
    @example(_sylvester_hadamard(3))
    @example(_dense_gaussian(random.Random(12), 12))
    @example(_dense_surd(random.Random(9), 9))
    def test_bits_dominate_every_coefficient(self, m):
        _, _, den, bits, _ = _to_kernel(m)
        known = [[ScalarPoly(p.terms).scale(den) for p in row] for row in m.rows]
        ref = reference_berkowitz(known)
        largest = max(k * abs(x) for k, a in enumerate(ref) for x in _components(a))
        assert all(x.denominator == 1 for a in ref for x in _components(a))
        assert largest < 2 ** (bits - 1)

    @pytest.mark.parametrize("bits", [2, 3, 17, 64, 200])
    def test_pack_unpack_round_trip(self, bits):
        top, low = 2 ** (bits - 1) - 1, -2 ** (bits - 1)  # low: the lowest balanced digit
        cases = [[(0, (top, -top))], [(0, (-top, top))], [(1, (top, -1))],
                 [(0, (top, 1)), (1, (-1, -top))],  # negative leading digits
                 [(0, (-top, 0)), (2, (-1, 0))],
                 [(0, (top, -top, 0, 1)), (1, (-top, top, -1, 0)), (2, (0, 0, -top, 0))],
                 [(0, (low, top))],
                 # zero runs up to 10^6 digits long between extreme digits
                 [(0, (low, top)), (1, (top, low)), (10 ** 6, (low, 0)), (10 ** 6 + 1, (0, low))],
                 [(5, (0, 0, 0, low)), (10 ** 6 + 4, (top, 0, low, 0))],
                 # dense enough to split: every low window of a 1,000-digit
                 # run of the lowest digit sits at the bottom of its offset range
                 [(e, (low, top)) for e in range(1000)],
                 # extreme digits alternating across several split levels, with gaps
                 [(e, (low, top) if e % 2 else (top, low)) for e in range(300) if e % 7],
                 # a sparse head before a dense run
                 [(0, (top, 0))] + [(10 ** 5 + e, (low, -1)) for e in range(100)]]
        for terms in cases:
            assert _unpack(_pack(terms, bits), bits) == terms
        assert _pack([], bits) is None and _unpack(None, bits) == []

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 70).flatmap(lambda bits: st.tuples(st.just(bits), st.lists(
        st.tuples(st.integers(0, 3000), st.tuples(*[st.integers(-2 ** (bits - 1), 2 ** (bits - 1) - 1)] * 2)),
        max_size=300, unique_by=lambda term: term[0]))))
    def test_pack_unpack_round_trip_property(self, case):
        bits, terms = case
        terms = sorted((e, c) for e, c in terms if any(c))
        assert _unpack(_pack(terms, bits), bits) == terms

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_packed_quotient_is_the_packed_exact_quotient(self, data):
        # charpoly_traces divides the packed sum k a_k by -k component by
        # component once _div_exact has checked the unpacked terms; packing
        # is linear, so that is the packed quotient
        bits = data.draw(st.integers(6, 80))
        k = data.draw(st.integers(1, 12))
        width = data.draw(st.sampled_from([2, 4]))  # Z[i] or Z[i, sqrt(rad)]
        bound = 2 ** (bits - 1) // k  # every multiple q k stays a balanced digit
        component = st.integers(-bound, bound - 1)
        drawn = data.draw(st.dictionaries(st.integers(0, 200), st.tuples(*[component] * width),
                                          max_size=2 * charpoly_module._PLAIN))
        terms = [(e, tuple(q * k for q in c)) for e, c in sorted(drawn.items()) if any(c)]
        packed = _pack(terms, bits)
        want = _pack(_div_exact(_unpack(packed, bits), -k), bits)
        assert (packed and tuple(x // -k for x in packed)) == want

    def test_every_newton_step_checks_its_division(self, monkeypatch):
        """A deterministic work guard: _div_exact checks the quotient of
        every Newton step of every charpoly_traces call, a zero sum too."""
        calls = 0
        div_exact = charpoly_module._div_exact

        def counting_div_exact(p, k):
            nonlocal calls
            calls += 1
            return div_exact(p, k)

        monkeypatch.setattr(charpoly_module, "_div_exact", counting_div_exact)
        matrices = ([rand_linear_matrix(random.Random(n), n) for n in range(1, 9)]
                    + [_dense_surd(random.Random(3), 4), PolyMatrix([[0, 1], [0, 0]]),
                       PolyMatrix([[0] * 3] * 3)])
        for m in matrices:
            before = calls
            assert charpoly_traces(m) == charpoly_direct(m)
            assert calls - before == m.n

    def test_pack_sorts_many_terms(self):
        terms = [(e, (e - 50, 1)) for e in range(100)]
        assert _pack(terms[::-1], 9) == _pack(terms, 9)

    def test_dense_high_degree_matches_reference(self):
        p = ScalarPoly({e: ec(e % 7 - 3, e % 5 - 2) for e in range(20001)})
        m = PolyMatrix([[0, 1], [p, 0]])
        ref = CharPoly(reference_berkowitz([list(row) for row in m.rows]))
        assert charpoly_direct(m) == ref
        assert charpoly_traces(m) == ref

    @settings(max_examples=100, deadline=None)
    @given(exact_matrices(max_n=6, bound=2 ** 40, degree=4))
    @example(_sylvester_hadamard(3))
    @example(_dense_surd(random.Random(9), 9))
    def test_bits_never_above_the_row_sum_width(self, m):
        assert _to_kernel(m)[3] <= _row_sum_bits(m)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_benchmark_dense12_width(self, seed):
        rng = random.Random(seed)
        _dense_gaussian(rng, 8)  # the benchmark draws its 8 x 8 first
        m = _dense_gaussian(rng, 12)
        assert _to_kernel(m)[3] <= 80 < _row_sum_bits(m)

    def test_traces_refuse_powers_wider_than_the_charpoly(self):
        # a 64-site two-way chain of ones with one t^200000 entry: its charpoly
        # packs within 2^30 bits, but the power sums charpoly_traces forms
        # reach t-degree 64 * 200000 and would not
        n = 64
        m = PolyMatrix([[ScalarPoly.monomial(200000, ec(1)) if (i, j) == (0, 1)
                         else int(abs(i - j) == 1) for j in range(n)] for i in range(n)])
        _to_kernel(m)  # charpoly_direct expands it
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^power sum of t-degree up to 12800000 is too "
                                             "large: .* more than 2\\^30$"):
            charpoly_traces(m)
        assert time.perf_counter() - start < 0.5


class _Counted(int):
    """An int that counts the big-int products it takes part in; a product
    is a plain int, so sums of products are not counted again."""
    products = 0

    def __mul__(self, other):
        _Counted.products += 1
        return int(self) * int(other)

    __rmul__ = __mul__


def _exact_dot(pairs, rad) -> ExactComplex:
    """Sum of a * b on ExactComplex, the object path, for component tuples."""
    return sum((ExactComplex(*a, rad=rad) * ExactComplex(*b, rad=rad) for a, b in pairs),
               ExactComplex())


BIG = 2 ** 200 + 12345  # wide enough for CPython's Karatsuba multiply


class TestKernelProducts:
    """A deterministic work guard: the big-int products one _dot call takes,
    counted on int components that count their own multiplications."""

    @pytest.mark.parametrize("pairs", [
        [],
        [((3, 4), (5, -2))],
        [((1, -1), (1, -1))],  # re + im = 0 in both factors: (1 - i)^2 = -2i
        [((1, -1), (1, 0))],  # re + im = 0 in the result
        [((2, 3), (4, -1)), ((-2, -3), (4, -1))],  # cancels to None
        [((1, 1), (1, -1)), ((-2, 0), (1, 0))],  # (1 + i)(1 - i) - 2 = 0: None
        [((BIG, -BIG), (BIG, 7)), ((-BIG, 3), (2, -BIG)), ((0, 5), (-BIG, BIG))],
    ])
    def test_gaussian_pair_takes_three_products(self, pairs):
        def entry(re, im):
            return tuple(map(_Counted, (re, im, re + im)))

        before = _Counted.products
        out = charpoly_module._dot([(entry(*a), entry(*b)) for a, b in pairs], 0)
        assert _Counted.products - before == 3 * len(pairs)
        want = _exact_dot(pairs, 0)
        assert out == ((want.nre, want.nim, want.nre + want.nim) if want else None)

    @pytest.mark.parametrize("pairs", [
        [((1, 2, 3, 4), (-5, 6, -7, 8))],
        # (1 + sqrt2)(-1 + sqrt2) = 1, minus 1: cancels to None
        [((1, 0, 1, 0), (-1, 0, 1, 0)), ((-1, 0, 0, 0), (1, 0, 0, 0))],
        [((BIG, -1, 0, BIG), (2, BIG, -BIG, 3)), ((0, 0, 1, -1), (BIG, 0, 0, -BIG))],
    ])
    def test_surd_pair_takes_sixteen_products(self, pairs):
        before = _Counted.products
        out = charpoly_module._dot([(tuple(map(_Counted, a)), tuple(map(_Counted, b)))
                                    for a, b in pairs], 2)
        assert _Counted.products - before == 16 * len(pairs)
        want = _exact_dot(pairs, 2)
        assert out == ((want.nre, want.nim, want.nsre, want.nsim) if want else None)


@st.composite
def gaussian_matrices(draw, max_n=8):
    """n = 1..max_n over Q(i), components up to 2^200 beside small ones and
    entries with re + im = 0, exact zeros at random, t-degree up to 2."""
    n = draw(st.integers(1, max_n))
    part = st.one_of(st.integers(-2 ** 200, 2 ** 200), st.integers(-3, 3))

    def scalar():
        re = draw(part)
        im = -re if draw(st.integers(0, 3)) == 0 else draw(part)
        return ExactComplex(Fraction(re, draw(st.integers(1, 3))), im)

    def entry():
        if draw(st.integers(0, 3)) == 0:
            return ScalarPoly.zero()
        return ScalarPoly({e: scalar() for e in range(3) if draw(st.booleans())})

    return PolyMatrix([[entry() for _ in range(n)] for _ in range(n)])


class TestStoredGaussianSum:
    @staticmethod
    def _check(entries):
        for x in entries:
            assert x is None or (len(x) == 3 and x[2] == x[0] + x[1]), x

    @settings(max_examples=40, deadline=None)
    @given(gaussian_matrices())
    def test_every_entry_keeps_its_sum(self, m):
        """Every Z[i] entry _dot and _sum take or return stores re + im, in
        both algorithms, and both agree with the object-path reference."""
        dot, total = charpoly_module._dot, charpoly_module._sum
        seen = 0

        def checked_dot(pairs, rad):
            nonlocal seen
            pairs = list(pairs)
            self._check([x for pair in pairs for x in pair])
            out = dot(pairs, rad)
            self._check([out])
            seen += 2 * len(pairs)
            return out

        def checked_sum(entries):
            nonlocal seen
            self._check(entries)
            out = total(entries)
            self._check([out])
            seen += len(entries)
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(charpoly_module, "_dot", checked_dot)
            mp.setattr(charpoly_module, "_sum", checked_sum)
            direct, traces = charpoly_direct(m), charpoly_traces(m)
        ref = CharPoly(reference_berkowitz([list(row) for row in m.rows]))
        assert direct == traces == ref
        assert seen > 0


def _lambda_product(*factors) -> CharPoly:
    """Product of polynomials in lambda given as ScalarPoly coefficient lists."""
    out = [ScalarPoly.const(1)]
    for f in factors:
        acc = [ScalarPoly.zero()] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                acc[i + j] = acc[i + j] + a * ScalarPoly.from_value(b)
        out = acc
    return CharPoly(out)


class TestSparseStructures:
    @pytest.mark.parametrize("L", [2, 3, 24, 64])
    def test_unidirectional_chain_closed_form(self, L):
        t1, t2 = 3, Fraction(1, 3)
        m = hatano_nelson(L, "unidirectional", t1=t1, t2=t2).matrix
        amps = (2 * t1) ** (L // 2) * (2 * t2) ** ((L - 1) // 2)
        want = CharPoly([1] + [0] * (L - 1) + [ScalarPoly.monomial(1, ec(-amps))])
        assert charpoly_direct(m) == want
        if L <= 24:
            assert charpoly_traces(m) == want

    @pytest.mark.parametrize("L, lam, blocks", [(4, 0, 2), (5, 1, 2), (8, 0, 4)])
    def test_obc_chain_closed_form(self, L, lam, blocks):
        t = ScalarPoly.t()
        ep2 = [1, 0, -(t.scale(2) + t * t)]  # lambda^2 - 2t - t^2
        want = _lambda_product(*[[1, 0]] * lam, *[ep2] * blocks)
        m = hatano_nelson(L, "obc").matrix
        assert charpoly_direct(m) == want
        assert charpoly_traces(m) == want

    @pytest.mark.parametrize("fn", [charpoly_direct, charpoly_traces])
    def test_chain_products_grow_quadratically(self, fn, monkeypatch):
        """A deterministic work guard: count the kernel's entry products."""
        products = 0
        dot = charpoly_module._dot

        def counting_dot(pairs, rad):
            nonlocal products
            pairs = list(pairs)
            products += len(pairs)
            return dot(pairs, rad)

        monkeypatch.setattr(charpoly_module, "_dot", counting_dot)
        L = 64
        fn(hatano_nelson(L, "unidirectional").matrix)
        assert 0 < products <= 4 * L * L

    def test_traces_form_only_the_half_powers(self, monkeypatch):
        """A deterministic work guard: charpoly_traces forms M^2..M^h with
        h = ceil(n/2), one _row_times call per row, and pairs the rest."""
        calls = 0
        row_times = charpoly_module._row_times

        def counting_row_times(row, rows, rad):
            nonlocal calls
            calls += 1
            return row_times(row, rows, rad)

        n = 8
        m = rand_linear_matrix(random.Random(8), n)
        want = charpoly_direct(m)  # Berkowitz forms A v with _row_times too
        monkeypatch.setattr(charpoly_module, "_row_times", counting_row_times)
        assert charpoly_traces(m) == want
        assert calls == ((n + 1) // 2 - 1) * n == 24

    def test_chain_dot_calls_grow_linearly(self, monkeypatch):
        """Berkowitz calls the kernel's dot product only where v has nonzeros."""
        calls = 0
        dot = charpoly_module._dot

        def counting_dot(pairs, rad):
            nonlocal calls
            calls += 1
            return dot(pairs, rad)

        monkeypatch.setattr(charpoly_module, "_dot", counting_dot)
        L = 256
        charpoly_direct(hatano_nelson(L, "unidirectional").matrix)
        assert 0 < calls <= 4 * L

    def test_one_way_blocks_stop_the_walk_at_an_empty_border(self, monkeypatch):
        """A deterministic work guard: HN OBC is L/2 EP2 blocks coupled one
        way, and Berkowitz stops walking v = A^k c at a level whose bordering
        row has no entry right of the diagonal, as no item can be nonzero
        there (3,489 _dot calls at L = 32 when the walk went on)."""
        calls = 0
        dot = charpoly_module._dot

        def counting_dot(pairs, rad):
            nonlocal calls
            calls += 1
            return dot(pairs, rad)

        monkeypatch.setattr(charpoly_module, "_dot", counting_dot)
        L = 32
        t = ScalarPoly.t()
        ep2 = [1, 0, -(t.scale(2) + t * t)]  # lambda^2 - 2t - t^2
        assert charpoly_direct(hatano_nelson(L, "obc").matrix) == _lambda_product(
            *[ep2] * (L // 2))
        assert calls == 1904


class TestSympyOracle:
    """sympy's charpoly is a third, independent implementation."""

    def _check(self, m):
        sympy = pytest.importorskip("sympy")
        t, lam = sympy.symbols("t lam")
        theirs = sympy.Matrix([[sympy_poly(sympy, x, t) for x in row] for row in m.rows])
        theirs = theirs.charpoly(lam).all_coeffs()
        for cp in (charpoly_direct(m), charpoly_traces(m)):
            for ours, other in zip(cp.coeffs, theirs, strict=True):
                assert sympy.expand(sympy_poly(sympy, ours, t) - other) == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_dense_gaussian_rationals(self, n):
        rng = random.Random(100 + n)

        def q():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        self._check(PolyMatrix([[ScalarPoly({0: ExactComplex(q(), q()), 1: ExactComplex(q(), q())})
                                 for _ in range(n)] for _ in range(n)]))

    def test_surd_matrix(self):
        s2 = ExactComplex(Fraction(1, 2), 1, Fraction(-3, 2), 1, 2)
        self._check(PolyMatrix([[0, s2, ScalarPoly({1: ec(1, -1)})],
                                [ScalarPoly({0: 1, 1: s2}), ec(Fraction(2, 3)), 0],
                                [ExactComplex.radical(2, 1), ScalarPoly.t(), s2]]))


class TestClosedForms:
    def test_2x2_trace_det(self):
        rng = random.Random(44)
        for _ in range(20):
            a, b, c, d = (ec(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(4))
            cp = charpoly_traces(PolyMatrix([[a, b], [c, d]]))
            assert cp.coefficient(1) == ScalarPoly.const(-(a + d))
            assert cp.coefficient(2) == ScalarPoly.const(a * d - b * c)

    def test_pinned_2x2(self):
        cp = charpoly_traces(PolyMatrix([[0, 1], [ScalarPoly.t(), 0]]))
        assert cp.coefficient(1) == ScalarPoly.zero()
        assert cp.coefficient(2) == ScalarPoly.monomial(1, -1)

    def test_truncation_orders(self):
        # a_1 = -tr M sees only the diagonal, a_2 = det M every entry
        m = PolyMatrix([[1, ScalarPoly.zero(1)], [ScalarPoly.monomial(2), 0]])
        for fn in (charpoly_direct, charpoly_traces):
            cp = fn(m)
            assert cp.coefficient(1) == ScalarPoly.const(-1)
            assert cp.coefficient(2) == ScalarPoly.zero(1)

    def test_companion(self):
        coeffs = [ScalarPoly.const(1), ScalarPoly.monomial(1, 2),
                  ScalarPoly.zero(), ScalarPoly.const(ec(0, 1))]
        cp = charpoly_direct(companion_matrix(coeffs))
        assert list(cp.coeffs) == coeffs


def _poly_of(*pairs):
    """Helper: exact polynomial sum of (value, exponent) pairs."""
    out = ScalarPoly.zero()
    for value, exp in pairs:
        out = out + ScalarPoly.monomial(exp, value)
    return out


class TestPerturbedJordanForms:
    """Characteristic polynomials of the catalog templates in closed form.

    Each closed form below is an independent transcription; the matrix route
    must reproduce it exactly for random exact directions.
    """

    def _cp(self, partition, d):
        return charpoly_traces(build_direction_matrix(_TEMPLATES[partition], d))

    def test_full_2x2(self):
        rng = random.Random(45)
        for _ in range(20):
            d = rand_exact_direction(rng, ("d12", "d21", "d22"))
            cp = self._cp((1, 1), d)
            const = -(d["d22"] * d["d22"] + d["d12"] * d["d21"])
            assert cp.coefficient(1) == ScalarPoly.zero()
            assert cp.coefficient(2) == _poly_of((const, 2))

    def test_nilpotent_2x2(self):
        d = {"d21": ec(7, -2)}
        cp = self._cp((2,), d)
        assert cp.coefficient(2) == _poly_of((-d["d21"], 1))

    def test_full_3x3_depressed_cubic(self):
        rng = random.Random(46)
        names = ("d11", "d12", "d13", "d21", "d23", "d31", "d32", "d33")
        for _ in range(20):
            d = rand_exact_direction(rng, names)
            cp = self._cp((1, 1, 1), d)
            d11, d12, d13 = d["d11"], d["d12"], d["d13"]
            d21, d23 = d["d21"], d["d23"]
            d31, d32, d33 = d["d31"], d["d32"], d["d33"]
            minus_p = (d11 * d11 + d33 * d11 + d33 * d33
                       + d12 * d21 + d13 * d31 + d23 * d32)
            minus_q = (d13 * d31 * d33 - d33 * d33 * d11 + d13 * d31 * d11
                       + d12 * d23 * d31 + d13 * d21 * d32 - d33 * d11 * d11
                       - d12 * d21 * d33 - d23 * d32 * d11)
            assert cp.coefficient(1) == ScalarPoly.zero()
            assert cp.coefficient(2) == _poly_of((-minus_p, 2))
            assert cp.coefficient(3) == _poly_of((-minus_q, 3))

    def test_block_21(self):
        rng = random.Random(47)
        for _ in range(20):
            d = rand_exact_direction(rng, ("d21", "d23", "d31", "d33"))
            cp = self._cp((2, 1), d)
            lam1 = _poly_of((-d["d21"], 1), (-(d["d33"] * d["d33"]), 2))
            lam0 = _poly_of((d["d21"] * d["d33"] - d["d23"] * d["d31"], 2))
            assert cp.coefficient(2) == lam1
            assert cp.coefficient(3) == lam0

    def test_block_3(self):
        d = {"d31": ec(4), "d32": ec(-5)}
        cp = self._cp((3,), d)
        assert cp.coefficient(2) == _poly_of((-d["d32"], 1))
        assert cp.coefficient(3) == _poly_of((-d["d31"], 1))

    def test_block_211(self):
        rng = random.Random(48)
        names = ("d21", "d23", "d24", "d31", "d34", "d41", "d43", "d44")
        for _ in range(15):
            d = {k: ec(rng.randint(-9, 9)) for k in names}
            cp = self._cp((2, 1, 1), d)
            d21, d23, d24 = d["d21"], d["d23"], d["d24"]
            d31, d34 = d["d31"], d["d34"]
            d41, d43, d44 = d["d41"], d["d43"], d["d44"]
            lam2 = _poly_of((-d21, 1), (-(d44 * d44 + d34 * d43), 2))
            lam1 = _poly_of((-(d23 * d31 + d24 * d41), 2))
            # constant term is det(M); expanding along the second column:
            # -det of the 3x3 minor, checked against a float determinant
            lam0 = _poly_of((d21 * d44 * d44 + d21 * d34 * d43 + d23 * d31 * d44
                             - d23 * d34 * d41 - d24 * d31 * d43 - d24 * d41 * d44, 3))
            assert cp.coefficient(2) == lam2
            assert cp.coefficient(3) == lam1
            assert cp.coefficient(4) == lam0

    def test_block_22(self):
        rng = random.Random(49)
        names = ("d21", "d23", "d24", "d31", "d41", "d43", "d44")
        for _ in range(15):
            d = {k: ec(rng.randint(-9, 9)) for k in names}
            cp = self._cp((2, 2), d)
            d21, d23, d24 = d["d21"], d["d23"], d["d24"]
            d31, d41, d43, d44 = d["d31"], d["d41"], d["d43"], d["d44"]
            lam2 = _poly_of((-(d21 + d43), 1), (-(d44 * d44), 2))
            lam1 = _poly_of((-(d23 * d31 + d24 * d41), 2))
            lam0 = _poly_of((d21 * d43 - d23 * d41, 2),
                            (d23 * d31 * d44 + d21 * d44 * d44
                             - d24 * d31 * d43 - d24 * d41 * d44, 3))
            assert cp.coefficient(2) == lam2
            assert cp.coefficient(3) == lam1
            assert cp.coefficient(4) == lam0

    def test_block_31(self):
        rng = random.Random(50)
        names = ("d31", "d32", "d34", "d41", "d42", "d44")
        for _ in range(15):
            d = {k: ec(rng.randint(-9, 9)) for k in names}
            cp = self._cp((3, 1), d)
            d31, d32, d34 = d["d31"], d["d32"], d["d34"]
            d41, d42, d44 = d["d41"], d["d42"], d["d44"]
            lam2 = _poly_of((-d32, 1), (-(d44 * d44), 2))
            lam1 = _poly_of((-d31, 1), (d32 * d44 - d34 * d42, 2))
            lam0 = _poly_of((d31 * d44 - d34 * d41, 2))
            assert cp.coefficient(2) == lam2
            assert cp.coefficient(3) == lam1
            assert cp.coefficient(4) == lam0

    def test_block_4(self):
        d = {"d41": ec(3), "d42": ec(-7), "d43": ec(5)}
        cp = self._cp((4,), d)
        assert cp.coefficient(2) == _poly_of((-d["d43"], 1))
        assert cp.coefficient(3) == _poly_of((-d["d42"], 1))
        assert cp.coefficient(4) == _poly_of((-d["d41"], 1))


class TestSubstituteDirection:
    def test_restriction_matches_template(self):
        d = {"d21": ec(1)}
        cp = charpoly_traces(build_direction_matrix(_TEMPLATES[(2,)], d))
        assert cp.coefficient(2) == ScalarPoly.monomial(1, -1)

    def test_unlifting_direction_cancels_exactly(self):
        d22 = ec(3, 1)
        d12 = ec(2)
        d21 = -(d22 * d22) / d12
        cp = charpoly_traces(build_direction_matrix(
            _TEMPLATES[(1, 1)], {"d12": d12, "d21": d21, "d22": d22}))
        assert cp.coefficient(2).is_zero()

    def test_zero_direction(self):
        d = {k: ExactComplex() for k in ("d21", "d23", "d31", "d33")}
        cp = charpoly_traces(build_direction_matrix(_TEMPLATES[(2, 1)], d))
        assert all(cp.coefficient(i).is_zero() for i in range(1, 4))

    def test_missing_placeholder_named(self):
        with pytest.raises(ValueError, match="d33"):
            charpoly_traces(build_direction_matrix(
                _TEMPLATES[(2, 1)], {"d21": ec(1), "d23": ec(1), "d31": ec(1)}))


class TestSimilarityInvariance:
    def test_exact_conjugations(self):
        rng = random.Random(51)
        done = 0
        while done < 50:
            n = rng.choice((2, 3))
            m = rand_linear_matrix(rng, n)
            s = [[ec(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            try:
                conj = conjugate_by(m, s)
            except ZeroDivisionError:
                continue
            assert charpoly_traces(conj) == charpoly_traces(m)
            done += 1


class TestNumericConsistency:
    def test_charpoly_vanishes_on_eigenvalues(self):
        rng = random.Random(52)
        for _ in range(20):
            n = rng.choice((2, 3, 4))
            m = rand_linear_matrix(rng, n)
            cp = charpoly_traces(m)
            t = 0.37
            arr = dense(m, t)
            norm = np.linalg.norm(arr, 2)
            bound = 100 * n * max(1.0, norm) ** n * np.finfo(float).eps
            for lam in np.linalg.eigvals(arr):
                assert abs(evaluate_charpoly(cp, lam, t)) <= bound
