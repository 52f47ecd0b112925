import json
import random
import re
from fractions import Fraction

import pytest

from tropeig.charpoly import CharPoly, PolyMatrix, charpoly_direct
from tropeig.exact import ExactComplex, ec
from tropeig.models import circuit_laplacian, effective_liouvillian_example
from tropeig.poly import ScalarPoly
from tropeig.serialize import (ParseError, charpoly_from_json, charpoly_to_json,
                               dumps, exact_from_json, exact_to_json,
                               polymatrix_from_json, polymatrix_to_json,
                               report_from_json, report_to_json,
                               scalarpoly_from_json, scalarpoly_to_json)
from tropeig.tropical import SplittingReport, TropicalRoot, tropical_roots


def rand_scalarpoly(rng):
    terms = {rng.randint(0, 8): ec(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                   rng.randint(-5, 5))
             for _ in range(rng.randint(0, 4))}
    trunc = rng.choice([None, None, 10])
    return ScalarPoly(terms, trunc)


class TestScalarRoundTrip:
    def test_exact_complex(self):
        z = ExactComplex(Fraction(-2, 3), Fraction(5), Fraction(1, 7), Fraction(0), 5)
        assert exact_from_json(json.loads(json.dumps(exact_to_json(z))), "$") == z

    def test_rationals_survive_as_strings(self):
        out = exact_to_json(ec(Fraction(1, 3)))
        assert out["re"] == "1/3"

    def test_scalarpoly_plain_and_truncated(self):
        rng = random.Random(90)
        for _ in range(50):
            p = rand_scalarpoly(rng)
            blob = json.loads(json.dumps(scalarpoly_to_json(p)))
            assert scalarpoly_from_json(blob, "$") == p

    def test_plain_form_is_a_bare_array(self):
        p = ScalarPoly({2: 3})
        assert isinstance(scalarpoly_to_json(p), list)

    def test_bad_exponent_path(self):
        with pytest.raises(ParseError, match=r"\$\[0\]\.exp"):
            scalarpoly_from_json([{"exp": -1, "re": "1", "im": "0"}], "$")

    @pytest.mark.parametrize("blob, where", [
        ([{"exp": True, "re": "1", "im": "0"}], r"\$\[0\]\.exp"),
        ([{"exp": 1.0, "re": "1", "im": "0"}], r"\$\[0\]\.exp"),
        ({"terms": [], "trunc": True}, r"\$\.trunc"),
        ({"terms": [], "trunc": -1}, r"\$\.trunc"),
        ([{"exp": 0, "re": "1", "im": "0", "sre": "1", "rad": True}], r"\$\[0\]\.rad"),
        ([{"exp": 0, "re": "1", "im": "0", "sre": "1", "rad": 4}], r"\$\[0\]\.rad"),
    ])
    def test_bad_integer_fields_rejected_with_path(self, blob, where):
        with pytest.raises(ParseError, match=where):
            scalarpoly_from_json(blob, "$")

    def test_repeated_exponent_rejected(self):
        terms = [{"exp": 1, "re": "1", "im": "0"}, {"exp": 1, "re": "-1", "im": "0"}]
        with pytest.raises(ParseError, match=r"\$\[1\]\.exp: repeated exponent 1"):
            scalarpoly_from_json(terms, "$")


class TestMatrixRoundTrip:
    def test_random_matrices(self):
        rng = random.Random(91)
        for _ in range(20):
            n = rng.randint(1, 4)
            m = PolyMatrix([[rand_scalarpoly(rng) for _ in range(n)] for _ in range(n)])
            blob = json.loads(json.dumps(polymatrix_to_json(m)))
            assert polymatrix_from_json(blob) == m

    def test_radical_entries_round_trip(self):
        m = circuit_laplacian("epsilon").realization
        blob = json.loads(json.dumps(charpoly_to_json(m)))
        assert charpoly_from_json(blob) == m

    def test_non_square_rejected_with_path(self):
        with pytest.raises(ParseError, match=r"entries\[1\]"):
            polymatrix_from_json({"entries": [[[], []], [[]]]})

    def test_wrong_declared_dimension(self):
        with pytest.raises(ParseError, match=r"\$\.n"):
            polymatrix_from_json({"n": 3, "entries": [[[]]]})

    def test_bool_declared_dimension(self):
        with pytest.raises(ParseError, match=r"\$\.n: expected an int >= 1, got True"):
            polymatrix_from_json({"n": True, "entries": [[[]]]})


class TestCharPolyRoundTrip:
    def test_round_trip(self):
        cp = effective_liouvillian_example().realization
        blob = json.loads(json.dumps(charpoly_to_json(cp)))
        assert charpoly_from_json(blob) == cp

    def test_bool_declared_degree(self):
        with pytest.raises(ParseError, match=r"\$\.n: expected an int >= 1, got True"):
            charpoly_from_json({"n": True, "coeffs": [[{"exp": 0, "re": "1", "im": "0"}], []]})

    def test_monic_enforced(self):
        with pytest.raises(ParseError):
            charpoly_from_json({"coeffs": [[{"exp": 0, "re": "2", "im": "0"}], []]})


class TestReportRoundTrip:
    def test_round_trip(self):
        for rep in (SplittingReport((TropicalRoot(Fraction(1, 5), 5),
                                     TropicalRoot(Fraction(1), 1)), 3, False),
                    SplittingReport((), 2, True), SplittingReport((), None, True)):
            blob = json.loads(json.dumps(report_to_json(rep)))
            assert report_from_json(blob) == rep

    def test_open_zero_count_needs_the_undetermined_flag(self):
        with pytest.raises(ParseError, match=re.escape("$.zero_roots: null needs")):
            report_from_json({"roots": [], "zero_roots": None})
        with pytest.raises(ValueError, match="only an undetermined report"):
            SplittingReport((), None)

    @pytest.mark.parametrize("root, zero_roots, where", [
        ({"omega": "1/2", "mult": 2.0}, 0, r"roots\[0\]\.mult"),
        ({"omega": "1/2", "mult": "2"}, 0, r"roots\[0\]\.mult"),
        ({"omega": "1/2", "mult": True}, 0, r"roots\[0\]\.mult"),
        ({"omega": "1/2", "mult": 0}, 0, r"roots\[0\]\.mult"),
        ({"omega": "1/2", "mult": 2}, -1, r"\$\.zero_roots"),
        ({"omega": "1/2", "mult": 2}, False, r"\$\.zero_roots"),
        ({"omega": "1/2", "mult": 2}, 1.0, r"\$\.zero_roots"),
    ])
    def test_counts_must_be_ints(self, root, zero_roots, where):
        with pytest.raises(ParseError, match=where):
            report_from_json({"roots": [root], "zero_roots": zero_roots})

    @pytest.mark.parametrize("blob, where", [
        ({"roots": 5}, "$.roots: expected an array"),
        ({"roots": "ab"}, "$.roots: expected an array"),
        ({"roots": {"omega": "1/2", "mult": 2}}, "$.roots: expected an array"),
        ({"roots": [], "undetermined": "false"}, "$.undetermined"),
        ({"roots": [], "undetermined": 0}, "$.undetermined"),
        ({"roots": [], "undetermined": None}, "$.undetermined"),
    ])
    def test_roots_list_and_undetermined_bool(self, blob, where):
        with pytest.raises(ParseError, match=re.escape(where)):
            report_from_json(blob)

    def test_repeated_omega_rejected(self):
        # 2/6 is 1/3: one omega split over two entries
        blob = {"roots": [{"omega": "1/3", "mult": 2}, {"omega": "2/6", "mult": 1}]}
        with pytest.raises(ParseError, match=r"^\$\.roots\[1\]\.omega: repeated omega 1/3$"):
            report_from_json(blob)

    def test_exact_omega_strings(self):
        rep = SplittingReport((TropicalRoot(Fraction(2, 3), 3),), 0)
        assert report_to_json(rep)["roots"][0]["omega"] == "2/3"


class TestDeterminism:
    def test_dumps_stable_under_reparse(self):
        cp = charpoly_direct(PolyMatrix([[0, 1], [ScalarPoly.t(), 0]]))
        body = {"splitting": report_to_json(tropical_roots(cp)),
                "charpoly": charpoly_to_json(cp)}
        assert dumps(body) == dumps(json.loads(dumps(body)))
