import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from golden_corpus import EXAMPLE_PARAMS
from tropeig.charpoly import CharPoly, PolyMatrix, charpoly_direct
from tropeig.cli import _parse_param, main
from tropeig.exact import ExactComplex, ec
from tropeig.models import (build_example, circuit_laplacian, effective_liouvillian_example,
                            example_names)
from tropeig.poly import ScalarPoly
from tropeig.serialize import (ParseError, charpoly_from_json, charpoly_to_json,
                               dumps, exact_from_json, exact_to_json,
                               family_document_from_json, family_document_to_json,
                               numeric_matrix_from_json, parse_frac,
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

    @pytest.mark.parametrize("text", [
        "0", "-0", "+12", "007", "1_000", " 5", "5 ", "\u0663", "+-1", "-", "", "1/2", "1e3", 3,
        True, pytest.param("-" + "9" * 4300, id="4300 digits"),
        pytest.param("9" * 4301, id="4301 digits")])
    def test_integer_strings_read_as_fractions_read_them(self, text):
        # parse_frac reads an integer-only string as an int, any other through
        # Fraction; either way it accepts, refuses and values as Fraction does
        try:
            want = Fraction(str(text))
        except ValueError:
            with pytest.raises(ParseError, match=r"^\$\.re: not a rational"):
                parse_frac(text, "$.re")
        else:
            assert parse_frac(text, "$.re") == want

    def test_integer_strings_skip_fraction(self):
        assert [type(parse_frac(x, "$")) for x in ("-3", "+0", "12", "1/2")] == [int] * 3 + [Fraction]

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


# every field name a reader looks up, so drawn objects reach past the first check
FIELDS = ["annotations", "charpoly", "coeffs", "entries", "exp", "expected", "im", "matrix",
          "mult", "n", "name", "omega", "re", "rad", "roots", "sim", "sre", "terms", "trunc",
          "undetermined", "zero_roots"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 6, 10 ** 6) | st.floats()
    | st.text(alphabet="0123456789/.-+e_ ix", max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=2), inner, max_size=5),
    max_leaves=24)
# objects whose keys are all field names reach deeper, as documents do
DOCUMENTS = JSON_VALUES | st.dictionaries(st.sampled_from(FIELDS), JSON_VALUES, min_size=1)
READERS = {"exact": lambda obj: exact_from_json(obj, "$"),
           "scalarpoly": lambda obj: scalarpoly_from_json(obj, "$"),
           "polymatrix": polymatrix_from_json, "charpoly": charpoly_from_json,
           "report": report_from_json, "numeric_matrix": numeric_matrix_from_json,
           "family_document": family_document_from_json}


class TestEveryReaderRefusesWithParseError:
    @pytest.mark.parametrize("reader", sorted(READERS))
    @settings(max_examples=100, deadline=None)
    @given(obj=DOCUMENTS)
    def test_returns_a_value_or_raises_parse_error(self, reader, obj):
        try:
            READERS[reader](obj)
        except ParseError:
            pass

    @pytest.mark.parametrize("reader, obj, where", [
        # not an array: iterating None raised TypeError, "ab" read two bad terms
        ("charpoly", {"coeffs": "ab"}, "$.coeffs: expected an array"),
        ("charpoly", {"coeffs": None}, "$.coeffs: expected an array"),
        # an int beyond the float range raised OverflowError
        ("numeric_matrix", [[10 ** 400]], "$[0][0]: entries are"),
        ("numeric_matrix", {"entries": [[0, [1, -10 ** 400]], [0, 0]]}, "$.entries[0][1]: "),
    ])
    def test_found_cases(self, reader, obj, where):
        with pytest.raises(ParseError) as exc:
            READERS[reader](obj)
        assert str(exc.value).startswith(where)


class TestInputSizeLimits:
    @pytest.mark.parametrize("text", ["1e3000000", "1e-3000000", "1.5E+4300", "99e4299",
                                      "1" * 4300 + "e1", "1e3_000_000"])
    def test_long_exponents_refused(self, text):
        with pytest.raises(ParseError, match=r"^\$\.re: a number with exponent .* more than "
                                             r"4300 digits$"):
            exact_from_json({"re": text}, "$")

    @pytest.mark.parametrize("text, digits", [("1e4299", 4300), ("12e4298", 4300),
                                              ("-1e-4299", 4300)])
    def test_exponents_within_the_limit_read(self, text, digits):
        value = exact_from_json({"re": text}, "$").re
        assert max(len(str(value.numerator).lstrip("-")), len(str(value.denominator))) == digits

    def test_large_radicand_refused(self):
        blob = {"re": "1", "sre": "1", "rad": 2 ** 32}
        with pytest.raises(ParseError, match=r"^\$\.rad: radicand must be below 2\^32"):
            exact_from_json(blob, "$")
        assert exact_from_json(dict(blob, rad=2 ** 32 - 1), "$").rad == 2 ** 32 - 1


class TestFamilyDocument:
    @pytest.mark.parametrize("name", example_names())
    def test_example_output_reads_back(self, capsys, name):
        argv = EXAMPLE_PARAMS.get(name, [])
        family = build_example(name, **dict(_parse_param(p) for p in argv[1::2]))
        assert main(["example", name, *argv]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document == dict(family_document_to_json(family),
                                provenance=document["provenance"])
        assert family_document_from_json(document) == (family.name, family.realization,
                                                      family.expected)

    def test_name_and_expected_are_optional(self):
        matrix = polymatrix_to_json(PolyMatrix([[0, 1], [ScalarPoly.t(), 0]]))
        assert family_document_from_json({"matrix": matrix})[::2] == (None, None)

    @pytest.mark.parametrize("obj, where", [
        ({}, "$: family file needs 'matrix' or 'charpoly'"),
        ({"matrix": {"entries": [[[]]]}, "expected": None}, "$.expected: "),
    ])
    def test_malformed_documents(self, obj, where):
        with pytest.raises(ParseError) as exc:
            family_document_from_json(obj)
        assert str(exc.value).startswith(where)
