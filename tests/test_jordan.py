import math
import random
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import (AMBIGUOUS_CHAIN, dense, jordan_matrix, partitions,
                       reference_solve_linear, weyr_by_powers)
from tropeig.charpoly import charpoly_direct, charpoly_traces
from tropeig.exact import EC_ZERO, ec
from tropeig.jordan import (_CATALOG_SPECS, _PARSED, _TEMPLATES, _placeholders, _solve_linear,
                            _terms, catalog_families, validate_partition)
from tropeig.poly import ScalarPoly
from tropeig.tropical import tropical_roots
from tropeig import jordan, weyr
from tropeig.weyr import WeyrAmbiguityError, _svd, weyr_structure


def roots_set(report):
    return frozenset((r.omega, r.multiplicity) for r in report.roots)


class TestJordanMatrix:
    def test_single_2_block(self):
        m = jordan_matrix((2,), 0)
        assert m.rows == ((ScalarPoly.zero(), ScalarPoly.const(1)),
                          (ScalarPoly.zero(), ScalarPoly.zero()))

    def test_diagonal_partition(self):
        m = jordan_matrix((1, 1, 1, 1), 0)
        assert all(m[i, j].is_zero() for i in range(4) for j in range(4))

    def test_3_1(self):
        m = jordan_matrix((3, 1), 0)
        ones = {(0, 1), (1, 2)}
        for i in range(4):
            for j in range(4):
                want = ScalarPoly.const(1) if (i, j) in ones else ScalarPoly.zero()
                assert m[i, j] == want

    def test_eigenvalue_on_diagonal(self):
        m = jordan_matrix((2, 1), ec(2, -1))
        assert m[0, 0] == ScalarPoly.const(ec(2, -1))
        assert m[2, 2] == ScalarPoly.const(ec(2, -1))

    def test_rejects_bad_partition(self):
        with pytest.raises(ValueError):
            validate_partition((1, 2))

    @pytest.mark.parametrize("partition", [(2.5, 1), (2.0, 1), (True, 1), (2, False), ("2", 1)])
    def test_rejects_a_part_that_is_not_an_int(self, partition):
        # refused, not truncated to (2, 1) or read as (1, 1)
        with pytest.raises(ValueError, match="not a partition"):
            validate_partition(partition)


class TestPartitions:
    def test_counts(self):
        # partition numbers p(1..6) = 1, 2, 3, 5, 7, 11
        assert [len(list(partitions(n))) for n in range(1, 7)] == [1, 2, 3, 5, 7, 11]


class TestCatalog:
    def test_matrix_vanishes_at_zero(self, catalogs):
        for fams in catalogs.values():
            for fam in fams:
                base = jordan_matrix(fam.parameters["partition"], 0)
                at_zero = [[ScalarPoly.const(x.coefficient(0)) for x in row]
                           for row in fam.matrix.rows]
                from tropeig.charpoly import PolyMatrix
                assert PolyMatrix(at_zero) == base

    def test_every_family_reproduces_expectation(self, catalogs):
        for fams in catalogs.values():
            for fam in fams:
                assert tropical_roots(fam.charpoly) == fam.expected, fam.name
                assert charpoly_direct(fam.matrix) == fam.charpoly

    def test_coefficient_orders_verified_generic(self, catalogs):
        for fams in catalogs.values():
            for fam in fams:
                for coeff, want in zip(fam.charpoly.coeffs, fam.parameters["coeff_orders"]):
                    o = coeff.ord()
                    if want is None:
                        assert o.is_infinite
                    else:
                        assert o.value == want

    def test_table_n2(self, catalogs):
        by_constraint = {(f.parameters["partition"], f.parameters["constraint"]): f
                         for f in catalogs[2]}
        assert roots_set(by_constraint[((1, 1), "generic")].expected) == {(Fraction(1), 2)}
        assert roots_set(by_constraint[((2,), "generic")].expected) == {(Fraction(1, 2), 2)}
        unlift = by_constraint[((1, 1), "unlifting")]
        assert unlift.expected.roots == () and unlift.expected.zero_root_count == 2

    def test_table_n3(self, catalogs):
        rows = {}
        for fam in catalogs[3]:
            rows.setdefault(fam.parameters["partition"], set()).add(
                roots_set(tropical_roots(fam.charpoly)))
        assert {(Fraction(1), 3)} in [set(r) for r in rows[(1, 1, 1)]] or \
            frozenset({(Fraction(1), 3)}) in rows[(1, 1, 1)]
        assert rows[(2, 1)] == {frozenset({(Fraction(1, 2), 2), (Fraction(1), 1)}),
                                frozenset({(Fraction(2, 3), 3)}),
                                frozenset({(Fraction(1), 2)}),
                                frozenset({(Fraction(1, 2), 2)})}
        assert rows[(3,)] == {frozenset({(Fraction(1, 3), 3)}),
                              frozenset({(Fraction(1, 2), 2)})}

    def test_table_n4_contains_all_printed_rows(self, catalogs):
        rows = {}
        for fam in catalogs[4]:
            rows.setdefault(fam.parameters["partition"], set()).add(
                roots_set(tropical_roots(fam.charpoly)))
        printed = {
            (1, 1, 1, 1): [{(Fraction(1), 4)}, {(Fraction(1), 3)}, {(Fraction(1), 2)}],
            (2, 1, 1): [{(Fraction(1, 2), 2), (Fraction(1), 2)},
                        {(Fraction(2, 3), 3), (Fraction(1), 1)},
                        {(Fraction(1, 2), 2), (Fraction(1), 1)}],
            (2, 2): [{(Fraction(1, 2), 4)},
                     {(Fraction(1, 2), 2), (Fraction(1), 1)},
                     {(Fraction(2, 3), 3), (Fraction(1), 1)}],
            (3, 1): [{(Fraction(1, 3), 3), (Fraction(1), 1)},
                     {(Fraction(1, 2), 2), (Fraction(1), 1)},
                     {(Fraction(1, 2), 4)}],
            (4,): [{(Fraction(1, 4), 4)}, {(Fraction(1, 3), 3)}, {(Fraction(1, 2), 2)}],
        }
        for partition, wanted in printed.items():
            for row in wanted:
                assert frozenset(row) in rows[partition], (partition, row)

    def test_generic_rows_bold(self, catalogs):
        bold = {
            (1, 1): {(Fraction(1), 2)}, (2,): {(Fraction(1, 2), 2)},
            (1, 1, 1): {(Fraction(1), 3)},
            (2, 1): {(Fraction(1, 2), 2), (Fraction(1), 1)},
            (3,): {(Fraction(1, 3), 3)},
            (1, 1, 1, 1): {(Fraction(1), 4)},
            (2, 1, 1): {(Fraction(1, 2), 2), (Fraction(1), 2)},
            (2, 2): {(Fraction(1, 2), 4)},
            (3, 1): {(Fraction(1, 3), 3), (Fraction(1), 1)},
            (4,): {(Fraction(1, 4), 4)},
        }
        for fams in catalogs.values():
            for fam in fams:
                p = fam.parameters
                if p["generic"]:
                    assert roots_set(fam.expected) == frozenset(bold[p["partition"]])

    @pytest.mark.parametrize("seed", range(8))
    def test_stored_charpoly_is_the_matrix_charpoly(self, seed):
        # the draw stores every family's charpoly in place of computing it on
        # first use: a solved family the one _solve_linear reads off its
        # marker charpoly, any other charpoly_traces of its matrix
        for n in (2, 3, 4):
            for fam in catalog_families(n, seed=seed):
                stored = fam.__dict__["charpoly"]  # seeded, not computed on first use
                assert stored == charpoly_traces(fam.matrix), fam.name
                assert stored == charpoly_direct(fam.matrix), fam.name

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_stored_charpoly_is_the_matrix_charpoly_at_any_seed(self, seed):
        for n in (2, 3, 4):
            for fam in catalog_families(n, seed=seed):
                assert fam.__dict__["charpoly"] == charpoly_direct(fam.matrix), fam.name

    def test_one_round_expands_34_charpolys_and_builds_no_report(self, monkeypatch):
        """A deterministic work guard: a catalog round (n = 2..4, seed 0)
        expands one charpoly per generic or pinned family and one marker
        charpoly per solved one, and every family shares the report its
        spec built at import."""
        calls = {"charpoly_traces": 0, "_report": 0}

        def counting(name):
            fn = getattr(jordan, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(jordan, name, counting(name))
        for n, specs in _CATALOG_SPECS.items():
            for spec, fam in zip(specs, catalog_families(n, seed=0), strict=True):
                assert fam.expected is spec.expected, fam.name
        assert calls == {"charpoly_traces": 34, "_report": 0}

    def test_deterministic_given_seed(self):
        a = catalog_families(3, seed=7)
        b = catalog_families(3, seed=7)
        assert [f.parameters["direction"] for f in a] == [f.parameters["direction"] for f in b]

    @staticmethod
    def positions(partition, var):
        """Number of template entries in which placeholder `var` appears."""
        return sum(var in dict(_terms(entry)) for row in _TEMPLATES[partition] for entry in row)

    def test_solve_variables_occupy_one_position(self):
        # _solve_linear refuses a slope that some a_j is not affine in, which
        # a slope in two positions may be (test_solve_refuses_a_non_affine_slope)
        solved = {(spec.partition, spec.solve[0]) for specs in _CATALOG_SPECS.values()
                  for spec in specs if spec.solve}
        assert len(solved) == 8
        for partition, var in solved:
            assert self.positions(partition, var) == 1, (partition, var)
        assert self.positions((1, 1, 1), "d11") == 2  # diagonal ones may repeat

    @pytest.mark.parametrize("seed", range(8))
    def test_solve_matches_the_two_charpoly_solve(self, seed):
        solved = 0
        for n, specs in _CATALOG_SPECS.items():
            for spec, fam in zip(specs, catalog_families(n, seed=seed)):
                if spec.solve:
                    direction = fam.parameters["direction"]
                    want = reference_solve_linear(_TEMPLATES[spec.partition], direction,
                                                  *spec.solve)
                    assert want == (direction[spec.solve[0]], fam.charpoly), fam.name
                    parsed = _PARSED[spec.partition][0]
                    assert _solve_linear(parsed, direction, *spec.solve) == want
                    solved += 1
        assert solved == 9

    SOLVED = [(spec.partition, spec.solve) for specs in _CATALOG_SPECS.values()
              for spec in specs if spec.solve]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(SOLVED), st.data())
    def test_solve_matches_on_directions_with_zero_slopes(self, solved, data):
        # slopes in -1..1 often make the solved coefficient independent of
        # the solved slope, the None branch the seeded draws never reach
        partition, solve = solved
        direction = {name: ec(data.draw(st.integers(-1, 1), label=name))
                     for name in _PARSED[partition][1]}
        want = reference_solve_linear(_TEMPLATES[partition], direction, *solve)
        assert _solve_linear(_PARSED[partition][0], direction, *solve) == want

    def test_solve_returns_none_when_the_slope_vanishes(self):
        # a_2 = -(d22^2 + d12 d21) t^2 does not depend on d21 once d12 = 0
        direction = {"d12": EC_ZERO, "d21": ec(3), "d22": ec(2)}
        assert _solve_linear(_PARSED[(1, 1)][0], direction, "d21", 2, 2) is None
        assert reference_solve_linear(_TEMPLATES[(1, 1)], direction, "d21", 2, 2) is None

    def test_solve_refuses_a_non_affine_slope(self):
        # d11 fills (1, 1) and, negated, (2, 2), so a_2 holds -d11^2 t^2
        direction = {name: ec(k) for k, name in enumerate(_PARSED[(1, 1, 1)][1], 1)}
        with pytest.raises(ValueError, match="a_2 is not affine in d11"):
            _solve_linear(_PARSED[(1, 1, 1)][0], direction, "d11", 2, 2)
        # d11 cancels out of a_1, but the charpoly at the solved value needs
        # every a_j affine in d11
        with pytest.raises(ValueError, match="a_2 is not affine in d11"):
            _solve_linear(_PARSED[(1, 1, 1)][0], direction, "d11", 1, 1)

    def test_spec_names_are_template_placeholders(self):
        # _draw_family skips names the template lacks, so a misspelt one is
        # silently ignored (zeros, fixed) or fails only after 500 draws (solve)
        for specs in _CATALOG_SPECS.values():
            for spec in specs:
                named = ({*spec.zeros} | {name for name, _ in spec.fixed}
                         | ({spec.solve[0]} if spec.solve else set()))
                assert named <= set(_placeholders(_TEMPLATES[spec.partition])), spec

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            catalog_families(5)


class TestWeyr:
    def test_all_partitions_up_to_6(self):
        for n in range(1, 7):
            for p in partitions(n):
                arr = dense(jordan_matrix(p, 0), 0.0)
                assert weyr_structure(arr, 0.0).partition == p

    def test_structure_is_an_immutable_record(self):
        got = weyr_structure([[0, 1], [0, 0]], 0)
        assert repr(got) == "JordanStructure(eigenvalue=0j, partition=(2,), rank_sequence=(2, 1, 0))"
        with pytest.raises(AttributeError):
            got.partition = (1, 1)

    def test_shifted_eigenvalue(self):
        lam = 1.5 - 0.5j
        arr = dense(jordan_matrix((3, 2), ec(Fraction(3, 2), Fraction(-1, 2))), 0.0)
        got = weyr_structure(arr, lam)
        assert got.partition == (3, 2)
        assert got.eigenvalue == lam

    def test_rank_sequence_differences_non_increasing(self):
        rng = random.Random(70)
        for _ in range(20):
            n = rng.randint(2, 6)
            p = rng.choice(list(partitions(n)))
            arr = dense(jordan_matrix(p, 0), 0.0)
            seq = weyr_structure(arr, 0.0).rank_sequence
            diffs = [a - b for a, b in zip(seq, seq[1:])]
            assert all(d1 >= d2 for d1, d2 in zip(diffs, diffs[1:]))

    def test_partial_multiplicity(self):
        # eigenvalue 0 has blocks (2, 1); eigenvalue 3 is simple
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1
        m[3, 3] = 3
        assert weyr_structure(m, 0.0).partition == (2, 1)
        assert weyr_structure(m, 3.0).partition == (1,)

    def test_noise_robustness_at_tolerance(self):
        rng = np.random.default_rng(1)
        arr = dense(jordan_matrix((3, 1), 0), 0.0)
        arr = arr + 1e-12 * rng.standard_normal((4, 4))
        assert weyr_structure(arr, 0.0, tol=1e-8).partition == (3, 1)

    def test_ambiguity_raises_with_gaps(self):
        # a 3-chain whose weak link sits on the threshold to rounding: counted
        # above it at level 1 and below it at level 2, so the nullities grow
        m = [[complex(*z) for z in row] for row in AMBIGUOUS_CHAIN]
        with pytest.raises(WeyrAmbiguityError) as info:
            weyr_structure(m, 0.0, tol=1e-6)
        assert info.value.gaps

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            weyr_structure(np.eye(2), 0.0, tol=0.0)


ENTRY = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)


@st.composite
def square_matrices(draw):
    """n x n products of n x r and r x n factors, so rank <= r, scaled by
    2^-500, 1 or 2^500."""
    n = draw(st.integers(1, 8))
    r = draw(st.integers(0, n))
    a = np.array(draw(st.lists(ENTRY, min_size=n * r, max_size=n * r)), dtype=complex)
    b = np.array(draw(st.lists(ENTRY, min_size=r * n, max_size=r * n)), dtype=complex)
    scale = draw(st.sampled_from([2.0 ** -500, 1.0, 2.0 ** 500]))
    return a.reshape(n, r) @ b.reshape(r, n) * scale


class TestSingularValues:
    @settings(max_examples=300, deadline=None)
    @given(square_matrices())
    def test_agrees_with_numpy_svd(self, m):
        want = np.linalg.svd(m, compute_uv=False)
        pairs = _svd(m.tolist())
        got = np.array([s for s, _ in pairs])
        assert np.max(np.abs(got - want)) <= 1e-13 * want[0]
        vs = np.array([v for _, v in pairs])
        # norms of m scaled by 2^-e exactly, so squares do not underflow; a
        # subnormal sigma is exact only to 5e-324
        e = np.frexp(want[0])[1]
        a = np.ldexp(m.real, -e) + 1j * np.ldexp(m.imag, -e)
        bound = np.ldexp(1e-13 * want[0] + 5e-324, -e)
        for s, v in pairs:
            if s > 0:
                assert abs(np.linalg.norm(v) - 1) <= 1e-13
                assert abs(np.linalg.norm(a @ v) - np.ldexp(s, -e)) <= bound
        gram = np.abs(vs.conj() @ vs.T)
        assert np.max(gram - np.diag(np.diag(gram)), initial=0.0) <= 1e-12

    def test_tiny_entries_do_not_underflow(self):
        m = [[1e-200, 1e-200], [0, 1e-200]]
        want = np.linalg.svd(np.array(m), compute_uv=False)
        assert np.allclose([s for s, _ in _svd(m)], want, rtol=1e-15, atol=0)
        got = weyr_structure(m, 0.0)
        assert got.partition == () and got.rank_sequence == (2, 2)

    @staticmethod
    def _rank_one_beside_tiny_entries():
        m = [[0j] * 8 for _ in range(8)]
        for i, a in ((6, 1 + 1j), (7, 1 + 2j)):
            for j, b in ((4, 1 - 1j), (7, -1 + 2j)):
                m[i][j] = a * b * 1e-151
        for i, j in ((0, 5), (1, 5), (5, 4), (2, 0)):
            m[i][j] = 1e-286
        return m

    @pytest.mark.parametrize("m, values", [
        # rank 1 at 1e-151: a rotation leaves rounding debris in one column
        ([[0] * 4, [0] * 4, [0, 0, 0, complex(1, 1) * 1e-151], [0, 0, 0, complex(1, 7) * 1e-151]],
         [math.sqrt(52) * 1e-151, 0, 0, 0]),
        # the same beside entries 135 decades smaller
        (_rank_one_beside_tiny_entries(), [7e-151, 0, math.sqrt(2) * 1e-286, 1e-286, 0, 0, 0, 0]),
    ])
    def test_debris_columns_stop_the_sweeps(self, m, values, monkeypatch):
        # each rotation calls hypot twice, and every sweep but the last rotates;
        # a column read as debris is no longer rotated, so the debris does not
        # shrink into the subnormal range where it stalled for all 60 sweeps
        calls = []
        counting = types.SimpleNamespace(**vars(math))
        counting.hypot = lambda *a: calls.append(a) or math.hypot(*a)
        monkeypatch.setattr(weyr, "math", counting)
        got = [s for s, _ in _svd(m)]
        assert len(calls) // 2 <= 10
        assert got == pytest.approx(values, rel=1e-13, abs=1e-13 * values[0])

    @pytest.mark.parametrize("m, message", [
        ([[float("nan"), 0], [0, 0]], "finite"),
        ([[0, complex(0, float("inf"))], [0, 0]], "finite"),
        ([[1, 2], [3]], "square"),
        ([[1, 2], [3, 4], [5, 6]], "square"),
        ([], "square"),
        ([[]], "square"),
        ([1, 2], "square"),
    ])
    def test_bad_matrices_rejected(self, m, message):
        with pytest.raises(ValueError, match=message):
            weyr_structure(m, 0.0)


@st.composite
def planted_jordan(draw):
    """(Q (lam I + N) Q^H, lam, partition of N) for a unitary Q, n <= 8."""
    n = draw(st.integers(1, 8))
    partition = draw(st.sampled_from(list(partitions(n))))
    lam = draw(st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    m = q @ dense(jordan_matrix(partition, 0), 0.0) @ q.conj().T + lam * np.eye(n)
    return m, lam, partition


class TestStaircase:
    @settings(max_examples=150, deadline=None)
    @given(planted_jordan())
    def test_agrees_with_the_power_ranks(self, planted):
        m, lam, partition = planted
        got = weyr_structure(m, lam)
        assert got.partition == partition
        assert (got.partition, got.rank_sequence) == weyr_by_powers(m, lam, 1e-8)

    def test_huge_entries_do_not_overflow(self):
        # 0 is a simple eigenvalue; a power would hold 1e400
        got = weyr_structure([[1e200, 0], [0, 0]], 0.0)
        assert got.partition == (1,) and got.rank_sequence == (2, 1, 1)

    def test_weak_chain_is_one_block(self):
        # similar to a 3-block; the square's singular value 1e-18 lies far
        # below the threshold, but no level of the staircase forms it
        got = weyr_structure([[0, 1e-9, 0], [0, 0, 1e-9], [0, 0, 0]], 0.0, tol=1e-6)
        assert got.partition == (3,) and got.rank_sequence == (3, 2, 1, 0)


class TestNbolical:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_scalar_matrices_are_n_simple_blocks(self, n):
        # unitary conjugates of lam*I are lam*I up to rounding: n blocks of
        # size 1, not a threshold placed on rounding noise
        rng = np.random.default_rng(n)
        for lam in (0, 2, 1 - 3j, 1e-3):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            m = q @ (lam * np.eye(n)) @ q.conj().T
            got = weyr_structure(m, lam)
            assert got.partition == (1,) * n and got.rank_sequence == (n, 0, 0)

    def test_one_ulp_from_the_identity(self):
        got = weyr_structure([[1.0000000000000002, 0], [0, 1]], 1.0)
        assert got.partition == (1, 1)
