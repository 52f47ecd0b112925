import random
from fractions import Fraction

import numpy as np
import pytest

from tropeig.charpoly import charpoly_direct
from tropeig.exact import ec
from tropeig.jordan import (JordanStructure, WeyrAmbiguityError,
                            catalog_families, jordan_matrix, partitions,
                            validate_partition, weyr_structure)
from tropeig.poly import ScalarPoly
from tropeig.tropical import tropical_roots


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

    def test_deterministic_given_seed(self):
        a = catalog_families(3, seed=7)
        b = catalog_families(3, seed=7)
        assert [f.parameters["direction"] for f in a] == [f.parameters["direction"] for f in b]

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            catalog_families(5)


class TestWeyr:
    def test_all_partitions_up_to_6(self):
        for n in range(1, 7):
            for p in partitions(n):
                arr = jordan_matrix(p, 0).to_array(0.0)
                assert weyr_structure(arr, 0.0).partition == p

    def test_shifted_eigenvalue(self):
        lam = 1.5 - 0.5j
        arr = jordan_matrix((3, 2), ec(Fraction(3, 2), Fraction(-1, 2))).to_array(0.0)
        got = weyr_structure(arr, lam)
        assert got.partition == (3, 2)
        assert got.eigenvalue == lam

    def test_rank_sequence_differences_non_increasing(self):
        rng = random.Random(70)
        for _ in range(20):
            n = rng.randint(2, 6)
            p = rng.choice(list(partitions(n)))
            arr = jordan_matrix(p, 0).to_array(0.0)
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
        arr = jordan_matrix((3, 1), 0).to_array(0.0)
        arr = arr + 1e-12 * rng.standard_normal((4, 4))
        assert weyr_structure(arr, 0.0, tol=1e-8).partition == (3, 1)

    def test_ambiguity_raises_with_gaps(self):
        # a weak 3-chain: the square falls below threshold while the first
        # power does not, so the rank profile is not a valid Weyr sequence
        m = np.array([[0, 1e-9, 0], [0, 0, 1e-9], [0, 0, 0]], dtype=complex)
        with pytest.raises(WeyrAmbiguityError) as info:
            weyr_structure(m, 0.0, tol=1e-6)
        assert info.value.gaps

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            weyr_structure(np.eye(2), 0.0, tol=0.0)
