import json
import os
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from reference import AMBIGUOUS_CHAIN
from tropeig.cli import main
from tropeig.models import example_names, hatano_nelson
from tropeig.serialize import charpoly_to_json, dumps, report_to_json

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


SQRT_T = {"n": 2, "entries": [
    [[], [{"exp": 0, "re": "1", "im": "0"}]],
    [[{"exp": 1, "re": "1", "im": "0"}], []],
]}


class TestAnalyze:
    def test_matrix_square_root_pair(self, tmp_path, capsys):
        code, out, _ = run(capsys, "analyze", "--matrix", write(tmp_path, "m.json", SQRT_T))
        assert code == 0
        body = json.loads(out)
        assert body["splitting"]["roots"] == [{"mult": 2, "omega": "1/2"}]

    def test_charpoly_input(self, tmp_path, capsys):
        cp = {"coeffs": [[{"exp": 0, "re": "1", "im": "0"}], [],
                         [{"exp": 1, "re": "-1", "im": "0"}]]}
        code, out, _ = run(capsys, "analyze", "--charpoly", write(tmp_path, "c.json", cp))
        assert code == 0
        assert json.loads(out)["splitting"]["roots"] == [{"mult": 2, "omega": "1/2"}]

    def test_pure_power_has_only_zero_roots(self, tmp_path, capsys):
        cp = {"coeffs": [[{"exp": 0, "re": "1", "im": "0"}], [], [], []]}
        code, out, _ = run(capsys, "analyze", "--charpoly", write(tmp_path, "c.json", cp))
        assert code == 0
        body = json.loads(out)
        assert body["splitting"]["roots"] == [] and body["splitting"]["zero_roots"] == 3

    def test_undetermined_exit_code(self, tmp_path, capsys):
        cp = {"coeffs": [[{"exp": 0, "re": "1", "im": "0"}], [],
                         {"terms": [], "trunc": 4}]}
        code, out, _ = run(capsys, "analyze", "--charpoly", write(tmp_path, "c.json", cp))
        assert code == 2
        assert json.loads(out)["splitting"]["undetermined"] is True

    def test_malformed_input_points_at_path(self, tmp_path, capsys):
        bad = {"entries": [[[{"exp": 0, "re": "x", "im": "0"}]]]}
        code, _, err = run(capsys, "analyze", "--matrix", write(tmp_path, "bad.json", bad))
        assert code == 1
        assert "entries[0][0]" in err

    @pytest.mark.parametrize("coeff, where", [
        ({"terms": [{"exp": 1, "re": "-1", "im": "0"}], "trunc": True}, "$.coeffs[2].trunc"),
        ([{"exp": True, "re": "-1", "im": "0"}], "$.coeffs[2][0].exp"),
    ])
    def test_bool_fields_exit_with_path(self, tmp_path, capsys, coeff, where):
        cp = {"coeffs": [[{"exp": 0, "re": "1", "im": "0"}], [], coeff]}
        code, out, err = run(capsys, "analyze", "--charpoly", write(tmp_path, "c.json", cp))
        assert code == 1 and out == "" and err.startswith(f"error: {where}: ")

    def test_requires_exactly_one_input(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])
        assert exc.value.code == 1
        assert "one of the arguments --matrix --charpoly is required" in capsys.readouterr().err

    def test_unreadable_input_exits_usage(self, tmp_path, capsys):
        code, out, err = run(capsys, "analyze", "--matrix", str(tmp_path))
        assert code == 1 and out == "" and err.startswith(f"error: {tmp_path}: ")

    @pytest.mark.parametrize("flag", ["--output", "--emit-tropical-plot", "--emit-svg",
                                      "--emit-polygon-svg"])
    @pytest.mark.parametrize("target", ["missing/x", ""], ids=["no-such-directory", "directory"])
    def test_unwritable_output_exits_usage(self, tmp_path, capsys, flag, target):
        path = str(tmp_path / target)
        code, _, err = run(capsys, "analyze", "--matrix", write(tmp_path, "m.json", SQRT_T),
                           flag, path)
        assert code == 1 and len(err.splitlines()) == 1 and err.startswith(f"error: {path}: ")

    def test_unwritable_plot_writes_no_report(self, tmp_path, capsys):
        # every plot is rendered and every target opened before the report
        path = str(tmp_path / "missing" / "x.svg")
        code, out, err = run(capsys, "analyze", "--charpoly", str(GOLDEN / "analyze_flat.json"),
                             "--emit-svg", path)
        assert code == 1 and out == "" and err == f"error: {path}: No such file or directory\n"

    def test_plot_emission(self, tmp_path, capsys):
        csv = tmp_path / "plot.csv"
        svg = tmp_path / "plot.svg"
        polygon = tmp_path / "polygon.svg"
        code, _, _ = run(capsys, "analyze", "--matrix", write(tmp_path, "m.json", SQRT_T),
                         "--emit-tropical-plot", str(csv), "--emit-svg", str(svg),
                         "--emit-polygon-svg", str(polygon))
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "kind,omega,value,exact_omega,multiplicity"
        assert any(line.startswith("kink,") and ",1/2," in line for line in lines)
        assert svg.read_text().startswith("<svg")
        # lambda^2 - t: points (0, 0) and (2, 1), both hull vertices, drawn red
        drawn = re.findall(r'<circle [^>]*fill="(\w+)"/><text [^>]*>(\([^<]*\))</text>',
                           polygon.read_text())
        assert sorted(drawn, key=lambda d: d[1]) == [("red", "(0, 0)"), ("red", "(2, 1)")]


class TestCatalog:
    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "catalog", "2")
        assert code == 0
        assert "[1/2,2]" in out and "[1,2]" in out
        assert "*" in out  # generic marker

    def test_output_to_a_directory_exits_usage(self, tmp_path, capsys):
        code, out, err = run(capsys, "catalog", "2", "-o", str(tmp_path))
        assert code == 1 and out == "" and err == f"error: {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("argv", [["catalog", "2"],
                                      ["verify", "--jordan", "2", "--constraint", "impossible"],
                                      ["verify", "--jordan", "2", "--constraint", "impossible",
                                       "--t0", "nan"]])
    def test_unrealizable_family_exits_mismatch(self, capsys, monkeypatch, argv):
        from tropeig import jordan
        # lambda^2 - d21 t: a_2 has valuation 1 whatever the slope, never 2
        impossible = jordan._FamilySpec((2,), "impossible", (0, None, 2), ())
        monkeypatch.setitem(jordan._CATALOG_SPECS, 2, [impossible])
        code, out, err = run(capsys, *argv)
        assert out == ""
        if "--t0" in argv:  # a usage error wins over the unrealized family
            assert code == 1 and err.startswith("error: need a finite t0 > 0")
        else:
            assert code == 5 and err == "error: could not realize family (2,) 'impossible'\n"

    def test_verify_jordan_draws_no_family_after_the_one_it_keeps(self, capsys, monkeypatch):
        from tropeig import jordan
        impossible = jordan._FamilySpec((2,), "impossible", (0, None, 2), ())
        monkeypatch.setitem(jordan._CATALOG_SPECS, 2,
                            [*jordan._CATALOG_SPECS[2], impossible])
        code, out, err = run(capsys, "verify", "--jordan", "1,1")
        assert code == 0 and err == "" and json.loads(out)["family"] == "H[1,1] generic"
        code, out, err = run(capsys, "catalog", "2")
        assert code == 5 and out == "" and "could not realize family (2,) 'impossible'" in err

    def test_json_output_agrees(self, capsys):
        code, out, _ = run(capsys, "catalog", "3", "--format", "json")
        assert code == 0
        body = json.loads(out)
        assert all(row["agrees"] for row in body["catalog"])

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "catalog", "4", "--format", "json", "--seed", "5")
        _, out2, _ = run(capsys, "catalog", "4", "--format", "json", "--seed", "5")
        assert out1 == out2


class TestVerify:
    def test_example_unidirectional_chain(self, capsys):
        code, out, _ = run(capsys, "verify", "--example", "hatano_nelson",
                           "--param", "L=5", "--param", "regime=unidirectional")
        assert code == 0
        body = json.loads(out)
        assert body["verification"]["pass"] is True
        assert body["verification"]["clusters"][0]["exponent"] == pytest.approx(0.2, abs=0.01)

    def test_jordan_braid(self, capsys):
        code, out, _ = run(capsys, "verify", "--jordan", "4", "--constraint", "generic",
                           "--braid")
        assert code == 0
        body = json.loads(out)
        assert body["braid"]["cycle_lengths"] == [4]

    def test_unlifting_direction_tracks_all_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--jordan", "1,1",
                           "--constraint", "unlifting")
        assert code == 0
        body = json.loads(out)
        assert body["verification"]["zero_tracks"] == 2
        assert body["verification"]["clusters"] == []

    def test_provenance_records_every_sampling_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "--jordan", "2", "--phase", "1.0", "--t0", "1e-5")
        assert code == 0
        assert json.loads(out)["provenance"]["tolerances"] == {
            "match_tol": 0.05, "t0": 1e-5, "phase": 1.0}
        code, out, _ = run(capsys, "verify", "--jordan", "2", "--braid", "--eps0", "1e-5",
                           "--steps", "48")
        assert code == 0
        tolerances = json.loads(out)["provenance"]["tolerances"]
        assert (tolerances["eps0"], tolerances["steps"]) == (1e-5, 48)

    def test_braid_loop_failure_exit(self, tmp_path, capsys):
        # (lambda^2 - 2t - t^2)^2, hatano_nelson(L=4,obc)'s charpoly on its own:
        # with no blocks to deflate, two eigenvalues nearly coincide
        fam = hatano_nelson(4, "obc")
        doc = {"charpoly": charpoly_to_json(fam.charpoly),
               "expected": report_to_json(fam.expected)}
        code, out, _ = run(capsys, "verify", "--file", write(tmp_path, "power.json", doc),
                           "--braid")
        assert code == 3
        assert "below 1e-3" in json.loads(out)["braid"]["error"]

    @pytest.mark.parametrize("L", [4, 5, 8])
    def test_open_chain_passes_with_its_blocks_deflated(self, capsys, L):
        code, out, _ = run(capsys, "verify", "--example", "hatano_nelson", "--param", f"L={L}",
                           "--param", "regime=obc", "--braid")
        assert code == 0
        body = json.loads(out)
        assert body["verification"]["deflated"] == [{"degree": 2, "multiplicity": L // 2}]
        assert body["braid"]["cycle_lengths"] == body["braid"]["predicted_cycle_lengths"]

    def test_file_family(self, tmp_path, capsys):
        fam = {"matrix": SQRT_T,
               "expected": {"roots": [{"omega": "1/2", "mult": 2}], "zero_roots": 0}}
        code, out, _ = run(capsys, "verify", "--file", write(tmp_path, "fam.json", fam))
        assert code == 0 and json.loads(out)["verification"]["pass"]

    def test_disagreeing_file_family_exit(self, tmp_path, capsys):
        fam = {"matrix": SQRT_T,
               "expected": {"roots": [{"omega": "1/3", "mult": 2}], "zero_roots": 0}}
        code, out, _ = run(capsys, "verify", "--file", write(tmp_path, "fam.json", fam))
        assert code == 6 and not json.loads(out)["verification"]["pass"]

    def test_undetermined_example_runs_no_check(self, capsys):
        # a_2 is an unknown O(t^2): sampling it as 0 would make every track vanish
        code, out, _ = run(capsys, "verify", "--example", "lieb_pi_diag",
                           "--param", "series_order=2", "--braid")
        assert code == 2
        body = json.loads(out)
        assert set(body) == {"family", "expected", "provenance"}
        assert body["expected"]["undetermined"] is True

    def test_undetermined_file_family_runs_no_check(self, tmp_path, capsys):
        cp = {"coeffs": [[{"exp": 0, "re": "1", "im": "0"}], [],
                         {"terms": [], "trunc": 4}]}
        code, out, _ = run(capsys, "verify", "--file",
                           write(tmp_path, "c.json", {"charpoly": cp}), "--braid")
        assert code == 2
        body = json.loads(out)
        assert set(body) == {"family", "expected", "provenance"}
        assert body["expected"]["undetermined"] is True

    @pytest.mark.parametrize("flag, message", [
        (["--tol", "nan"], "error: match_tol must be finite and positive"),
        (["--steps", "0", "--braid"], "error: braid loop needs steps >= 1"),
        (["--t0", "nan"], "error: need a finite t0 > 0"),
        (["--phase", "nan"], "error: need a finite t0 > 0 and a finite phase")])
    def test_usage_error_wins_over_undetermined(self, capsys, flag, message):
        code, out, err = run(capsys, "verify", "--example", "lieb_pi_diag",
                             "--param", "series_order=2", *flag)
        assert code == 1 and out == ""
        assert err.startswith(message)

    def test_nonconvergence_exit_without_traceback(self, capsys):
        # (lambda^2 - 2t - t^2)^4 as a charpoly: no blocks, so no deflation
        code, out, err = run(capsys, "verify", "--file",
                             str(GOLDEN / "family_perfect_power.json"))
        assert code == 6 and out == ""
        assert err.startswith("error: root iteration did not converge")

    @pytest.mark.parametrize("flag", [["--steps", "0"], ["--steps", "-3"], ["--eps0", "nan"],
                                      ["--eps0", "0"]])
    def test_bad_braid_arguments_exit(self, capsys, flag):
        code, out, err = run(capsys, "verify", "--jordan", "3", "--braid", *flag)
        assert code == 1 and out == ""
        assert err.startswith("error: braid loop needs steps >= 1")

    def test_repeated_exponent_exit(self, tmp_path, capsys):
        one = {"exp": 1, "re": "1", "im": "0"}
        cp = {"coeffs": [[{"exp": 0, "re": "1", "im": "0"}], [],
                         [one, dict(one, re="-1")]]}
        code, _, err = run(capsys, "verify", "--file", write(tmp_path, "c.json", {"charpoly": cp}))
        assert code == 1 and "repeated exponent 1" in err

    @pytest.mark.parametrize("expected, where", [
        ({"roots": 5}, "$.expected.roots"),
        ({"roots": [], "undetermined": "false"}, "$.expected.undetermined"),
    ])
    def test_malformed_expectation_exit(self, tmp_path, capsys, expected, where):
        fam = {"matrix": SQRT_T, "expected": expected}
        code, out, err = run(capsys, "verify", "--file", write(tmp_path, "fam.json", fam))
        assert code == 1 and out == "" and err.startswith(f"error: {where}: ")

    @pytest.mark.parametrize("roots", [
        [("1/3", 2), ("1/3", 1), ("1", 1)],  # the golden's 1/3 x3 split in two
        [("1/3", 3), ("1/3", 3), ("1", 1)],
    ])
    def test_repeated_omega_exit(self, tmp_path, capsys, roots):
        fam = json.loads((GOLDEN / "family_matrix.json").read_text())
        fam["expected"]["roots"] = [{"omega": w, "mult": m} for w, m in roots]
        code, out, err = run(capsys, "verify", "--file", write(tmp_path, "fam.json", fam),
                             "--braid")
        assert code == 1 and out == ""
        assert err == "error: $.expected.roots[1].omega: repeated omega 1/3\n"

    def test_negative_omega_exit(self, tmp_path, capsys):
        fam = {"matrix": SQRT_T,
               "expected": {"roots": [{"omega": "-1/3", "mult": 2}], "zero_roots": 0}}
        code, out, err = run(capsys, "verify", "--file", write(tmp_path, "fam.json", fam))
        assert code == 1 and out == ""
        assert err == "error: $.expected.roots[0].omega: expected omega >= 0, got -1/3\n"

    @pytest.mark.parametrize("doc", [5, "matrix"])
    def test_non_object_family_file_exit(self, tmp_path, capsys, doc):
        code, out, err = run(capsys, "verify", "--file", write(tmp_path, "fam.json", doc))
        assert code == 1 and out == "" and err.startswith("error: $: ")
        assert "family file must be a JSON object" in err

    @pytest.mark.parametrize("flag, message", [
        (["--tol", "nan"], "match_tol must be finite and positive"),
        (["--tol", "-1"], "match_tol must be finite and positive"),
        (["--t0", "nan"], "need a finite t0 > 0"),
        (["--t0", "inf"], "need a finite t0 > 0"),
        (["--phase", "nan"], "finite phase"),
    ])
    def test_bad_numeric_flags_exit(self, capsys, flag, message):
        code, out, err = run(capsys, "verify", "--jordan", "3", *flag)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err

    def test_unresolved_branches_fail_at_a_large_t0(self, capsys):
        # at t0 = 1e300 no root of q_t is near E_omega's; all four are
        # assigned, so only 0 is left to compete with them
        code, out, _ = run(capsys, "verify", "--jordan", "4", "--t0", "1e300")
        assert code == 6
        verification = json.loads(out)["verification"]
        assert not verification["pass"]
        assert verification["diagnostics"] == [
            "predicted root 1/4 x4: next root or 0 at 1.000e+00 against 4.472e+74"]

    @pytest.mark.parametrize("name", ["cavity_d12", "circuit_epsilon", "effective_liouvillian",
                                      "lieb_arccot"])
    def test_overflowing_q_t_fails_the_check(self, capsys, name):
        # at |t| = 1e300 a coefficient of q_t overflows or a root of it is
        # not finite: the root fails with a diagnostic and no cluster
        code, out, err = run(capsys, "verify", "--example", name, "--t0", "1e300")
        assert code == 6 and err == ""
        body = json.loads(out)
        verification = body["verification"]
        assert not verification["pass"] and verification["clusters"] == []
        assert verification["diagnostics"] == [
            f"predicted root {r['omega']} x{r['mult']}: q_t is not finite at |t| = 1.000e+300"
            for r in body["expected"]["roots"]]

    def test_overflowing_loop_radius_exit(self, capsys):
        code, out, err = run(capsys, "verify", "--example", "cavity_d12", "--braid",
                             "--eps0", "1e300")
        assert code == 3 and err == ""
        assert json.loads(out)["braid"] == {
            "error": "a scaled coefficient overflows at loop radius eps0=1e+300"}

    @pytest.mark.parametrize("eps0", ["1e100", "1e300"])
    def test_overflowing_loop_values_exit(self, capsys, eps0):
        # the scaled coefficients are finite, but the polynomial's values at
        # roots of modulus up to 1e250 are not: refused before the first step
        code, out, err = run(capsys, "verify", "--example", "circuit_epsilon", "--braid",
                             "--eps0", eps0)
        assert code == 3 and err == ""
        assert json.loads(out)["braid"] == {
            "error": f"a scaled coefficient overflows at loop radius eps0={float(eps0)}"}

    @pytest.mark.parametrize("argv", [
        ["--file", str(GOLDEN / "family_out_of_range.json")],  # 1e400 * t
        ["--example", "lieb_pi_antidiag", "--param", "eps=1e400"],
        # an edge coefficient that rounds to 0 would make an edge root 0
        ["--example", "lieb_pi_antidiag", "--param", "eps=1e-400"],
        ["--example", "hatano_nelson", "--param", "L=4", "--param", "regime=obc",
         "--param", "gamma1=1e400"],
        ["--example", "torus_knot", "--param", "p=2", "--param", "q=1",
         "--param", "direction=kx_only", "--param", "ky=1e400"],
    ], ids=["file", "eps-1e400", "eps-1e-400", "gamma1-1e400", "ky-1e400"])
    def test_coefficient_beyond_the_floats_exit(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 1 and out == "" and "Traceback" not in err
        assert re.fullmatch(r"error: charpoly coefficient a_\d+ has a term beyond the range "
                            r"of floats\n", err)

    def test_undetermined_wins_over_a_coefficient_beyond_the_floats(self, tmp_path, capsys):
        cp = {"coeffs": [[{"exp": 0, "re": "1", "im": "0"}],
                         [{"exp": 1, "re": "1e400", "im": "0"}], {"terms": [], "trunc": 4}]}
        code, out, _ = run(capsys, "verify", "--file",
                           write(tmp_path, "c.json", {"charpoly": cp}), "--braid")
        assert code == 2 and json.loads(out)["expected"]["undetermined"] is True

    def test_braid_disagreeing_with_a_passing_fit_exit(self, tmp_path, capsys):
        # (lambda - t)^2 - t^3: the fit sees t^1 x2 and passes, but the two
        # branches t +- t^(3/2) exchange around the loop
        c = [[{"exp": 0, "re": "1", "im": "0"}], [{"exp": 1, "re": "-2", "im": "0"}],
             [{"exp": 2, "re": "1", "im": "0"}, {"exp": 3, "re": "-1", "im": "0"}]]
        fam = {"charpoly": {"coeffs": c},
               "expected": {"roots": [{"omega": "1", "mult": 2}], "zero_roots": 0}}
        code, out, _ = run(capsys, "verify", "--file", write(tmp_path, "fam.json", fam),
                           "--braid")
        assert code == 6
        body = json.loads(out)
        assert body["verification"]["pass"] is True
        assert body["braid"]["cycle_lengths"] == [2]
        assert body["braid"]["predicted_cycle_lengths"] == [1, 1]

    def test_wide_loop_encloses_other_degeneracies_exit(self, capsys):
        # at eps0 = 1.5 every solve of the loop converges, but the loop
        # encloses degeneracies away from t = 0 (as at eps0 = 1.0), so its
        # braid is not the predicted one
        code, out, err = run(capsys, "verify", "--example", "effective_liouvillian", "--braid",
                             "--eps0", "1.5")
        assert code == 6 and err == ""  # no "root iteration did not converge"
        braid = json.loads(out)["braid"]
        assert braid["cycle_lengths"] == [1, 1, 2, 5]
        assert braid["predicted_cycle_lengths"] == [1, 3, 5]

    def test_exponent_outside_a_tight_tol_exit(self, capsys):
        code, out, _ = run(capsys, "verify", "--example", "lieb_arccot", "--tol", "1e-9")
        assert code == 6
        assert json.loads(out)["verification"]["diagnostics"] == [
            "predicted root 1/2 x2: exponent~0.5000"]

    def test_continuation_ambiguous_after_max_halving_exit(self, tmp_path, capsys):
        # lambda^3 + (30-20i) lambda^2 + (-1+2i) t^4: the loop scales by the
        # order-1 root, so the two t^2 branches lie near 1e-13 in the loop's
        # polynomial, below the resolution of the root iteration's stopping test
        c = [[{"exp": 0, "re": "1", "im": "0"}], [{"exp": 0, "re": "30", "im": "-20"}], [],
             [{"exp": 4, "re": "-1", "im": "2"}]]
        code, out, _ = run(capsys, "verify", "--file",
                           write(tmp_path, "c.json", {"charpoly": {"coeffs": c}}), "--braid")
        assert code == 3
        body = json.loads(out)
        assert body["verification"]["pass"] is True
        assert body["braid"] == {"error": "continuation ambiguous after max halving"}

    def test_subnormal_t0_exit(self, capsys):
        # the second point, t0 / 10^2, underflows to 0
        code, out, err = run(capsys, "verify", "--example", "cavity_d12", "--t0", "5e-324")
        assert code == 1 and out == ""
        assert err.startswith("error: t0=5e-324 ") and err.count("\n") == 1

    def test_tiny_t0_still_checks(self, capsys):
        code, out, err = run(capsys, "verify", "--example", "cavity_d12", "--t0", "1e-320")
        assert code == 0 and err == "" and json.loads(out)["verification"]["pass"]

    def test_unknown_constraint(self, capsys):
        code, _, err = run(capsys, "verify", "--jordan", "4", "--constraint", "nope")
        assert code == 1 and "nope" in err

    @pytest.mark.parametrize("partition", ["a", "2,x", "", "2,3", "0"])
    def test_bad_partition_named_at_jordan(self, capsys, partition):
        code, out, err = run(capsys, "verify", "--jordan", partition)
        assert code == 1 and out == ""
        assert err.startswith("error: --jordan: expected a partition") and err.count("\n") == 1

    @pytest.mark.parametrize("partition", ["5", "1", "3,2"])
    def test_partition_outside_the_catalog_named_at_jordan(self, capsys, partition):
        code, out, err = run(capsys, "verify", "--jordan", partition)
        assert code == 1 and out == ""
        size = sum(map(int, partition.split(",")))
        assert err == ("error: --jordan: the catalog covers partitions of 2, 3 and 4, "
                       f"not of {size}\n")

    @pytest.mark.parametrize("source", [["--jordan", "2"], ["--file", "family"]])
    def test_param_without_example_exit(self, tmp_path, capsys, source):
        if source[0] == "--file":
            source = ["--file", write(tmp_path, "fam.json", {"matrix": SQRT_T})]
        code, out, err = run(capsys, "verify", *source, "--param", "x=1")
        assert code == 1 and out == ""
        assert err == "error: --param: only --example reads --param\n"

    def test_non_string_family_name_exit(self, tmp_path, capsys):
        fam = {"name": [1, 2], "matrix": SQRT_T}
        code, out, err = run(capsys, "verify", "--file", write(tmp_path, "fam.json", fam))
        assert code == 1 and out == ""
        assert err == "error: $.name: expected a string, got [1, 2]\n"


class TestExample:
    def test_dump_and_reanalyze(self, tmp_path, capsys):
        code, out, _ = run(capsys, "example", "cavity_d12")
        assert code == 0
        body = json.loads(out)
        matrix = write(tmp_path, "m.json", body["matrix"])
        code2, out2, _ = run(capsys, "analyze", "--matrix", matrix)
        assert code2 == 0
        assert json.loads(out2)["splitting"] == body["expected"] | {
            "undetermined": False}

    def test_charpoly_realization_dump(self, capsys):
        code, out, _ = run(capsys, "example", "circuit_epsilon")
        assert code == 0
        assert "charpoly" in json.loads(out)

    def test_params_forwarded(self, capsys):
        code, out, _ = run(capsys, "example", "hatano_nelson",
                           "--param", "L=6", "--param", "regime=obc")
        assert code == 0
        assert json.loads(out)["parameters"]["L"] == "6"

    @pytest.mark.parametrize("name, params, message", [
        ("hatano_nelson", ["L=3", "regime=obc", "t1=5"], "t1 is not read in the obc regime"),
        ("hatano_nelson", ["L=3", "regime=unidirectional", "gamma1=7"],
         "gamma1 is not read in the unidirectional regime"),
        ("torus_knot", ["p=2", "q=3", "ky=5"], "ky is not read in the linear direction"),
    ])
    def test_unread_params_exit(self, capsys, name, params, message):
        argv = [arg for p in params for arg in ("--param", p)]
        code, out, err = run(capsys, "example", name, *argv)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("name, params", [
        ("lieb_arccot", ["eps=1/0"]),
        ("lieb_arccot", ["eps=inf"]),
        ("hatano_nelson", ["L=4", "regime=obc", "gamma1=-inf"]),
        ("effective_liouvillian", ["gamma2=inf"]),
    ])
    def test_zero_denominator_and_infinite_params_exit(self, capsys, name, params):
        argv = [arg for p in params for arg in ("--param", p)]
        code, out, err = run(capsys, "example", name, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_zero_denominator_is_named_at_param(self, capsys):
        _, _, err = run(capsys, "example", "lieb_arccot", "--param", "eps=1/0")
        assert err == "error: --param: zero denominator in 'eps=1/0'\n"

    def test_unknown_lieb_param_names_lieb(self, capsys):
        code, out, err = run(capsys, "example", "lieb_pi_diag", "--param", "x=1")
        assert code == 1 and out == ""
        assert err == "error: example lieb_pi_diag takes eps, series_order, not x\n"

    @pytest.mark.parametrize("name", example_names())
    def test_unknown_param_names_the_example(self, capsys, name):
        takes = {"effective_liouvillian": "gamma2, gamma4, epsilon",
                 "hatano_nelson": "L, regime, gamma1, t1, t2",
                 "lieb_arccot": "eps, series_order", "lieb_pi_antidiag": "eps, series_order",
                 "lieb_pi_diag": "eps, series_order",
                 "torus_knot": "p, q, direction, ky"}.get(name, "no parameters")
        code, out, err = run(capsys, "example", name, "--param", "foo=1")
        assert code == 1 and out == ""
        assert err == f"error: example {name} takes {takes}, not foo\n"

    @pytest.mark.parametrize("name", example_names())
    def test_missing_param_names_the_example(self, capsys, name):
        needs = {"hatano_nelson": "L, regime", "torus_knot": "p, q"}.get(name)
        code, out, err = run(capsys, "example", name)
        if needs is None:
            assert code == 0 and err == ""
        else:
            assert code == 1 and out == ""
            assert err == f"error: example {name} needs {needs}\n"

    def test_partly_given_params_name_the_rest(self, capsys):
        code, out, err = run(capsys, "example", "torus_knot", "--param", "p=2")
        assert code == 1 and out == ""
        assert err == "error: example torus_knot needs q\n"

    @pytest.mark.parametrize("name, params, message", [
        ("hatano_nelson", ["L=5/2", "regime=obc"], "L must be an integer >= 2"),
        ("hatano_nelson", ["L=true", "regime=obc"], "L must be an integer >= 2"),
        ("torus_knot", ["p=1e400", "q=1"], "p must be an integer >= 1"),
        ("lieb_pi_diag", ["series_order=2.5"], "series_order must be an integer >= 1"),
        ("torus_knot", ["p=2", "q=1/2"], "q must be an integer >= 1"),
    ])
    def test_non_integer_params_are_named(self, capsys, name, params, message):
        argv = [arg for p in params for arg in ("--param", p)]
        code, out, err = run(capsys, "example", name, *argv)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("params, ky", [([], "1"), (["ky=5"], "5"), (["ky=1/2"], "1/2")])
    def test_kx_only_records_ky(self, capsys, params, ky):
        argv = [arg for p in ["p=2", "q=3", "direction=kx_only", *params] for arg in ("--param", p)]
        code, out, _ = run(capsys, "example", "torus_knot", *argv)
        assert code == 0
        assert json.loads(out)["parameters"] == {"direction": "kx_only", "ky": ky, "p": "2",
                                                 "q": "3"}


class TestJordanCommand:
    def test_nilpotent_block(self, tmp_path, capsys):
        j4 = {"entries": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]}
        code, out, _ = run(capsys, "jordan", "--matrix", write(tmp_path, "j.json", j4),
                           "--eigenvalue", "0")
        assert code == 0
        body = json.loads(out)
        assert body["partition"] == [4]
        assert body["rank_sequence"] == [4, 3, 2, 1, 0]

    def test_complex_entries_and_eigenvalue(self, tmp_path, capsys):
        m = {"entries": [[[0, 1], [1, 0]], [[0, 0], [0, 1]]]}
        code, out, _ = run(capsys, "jordan", "--matrix", write(tmp_path, "m.json", m),
                           "--eigenvalue", "0,1")
        assert code == 0
        assert json.loads(out)["partition"] == [2]

    @pytest.mark.parametrize("entries, where", [
        ([[True, 0], [0, False]], "$.entries[0][0]"),
        ([[0, [1, True]], [0, 0]], "$.entries[0][1]"),
        ([[0, 1], [["0", 1], 0]], "$.entries[1][0]"),
        ([[float("nan"), 1], [0, 0]], "$.entries[0][0]"),
        ([[0, [1, float("-inf")]], [0, 0]], "$.entries[0][1]"),
    ])
    def test_non_numeric_entries_exit_with_path(self, tmp_path, capsys, entries, where):
        path = write(tmp_path, "m.json", {"entries": entries})
        code, out, err = run(capsys, "jordan", "--matrix", path, "--eigenvalue", "0")
        assert code == 1 and out == "" and err.startswith(f"error: {where}: ")

    @pytest.mark.parametrize("tol, eigenvalue, message", [
        ("nan", "0", "tol must be finite and positive"),
        ("0", "0", "tol must be finite and positive"),
        ("1e-8", "nan", "eigenvalue must be finite"),
        ("1e-8", "0,inf", "eigenvalue must be finite"),
    ])
    def test_bad_numeric_flags_exit(self, tmp_path, capsys, tol, eigenvalue, message):
        path = write(tmp_path, "j.json", {"entries": [[0, 1], [0, 0]]})
        code, out, err = run(capsys, "jordan", "--matrix", path, "--eigenvalue", eigenvalue,
                             "--tol", tol)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("eigenvalue", ["abc", "1,abc", "1,2,3"])
    def test_malformed_eigenvalue_names_the_flag(self, tmp_path, capsys, eigenvalue):
        path = write(tmp_path, "j.json", {"entries": [[0, 1], [0, 0]]})
        code, out, err = run(capsys, "jordan", "--matrix", path, "--eigenvalue", eigenvalue)
        assert code == 1 and out == ""
        assert err == f"error: --eigenvalue: expected RE[,IM], got {eigenvalue!r}\n"

    def test_ambiguity_exit_code(self, tmp_path, capsys):
        chain = {"entries": AMBIGUOUS_CHAIN}
        code, out, _ = run(capsys, "jordan", "--matrix", write(tmp_path, "w.json", chain),
                           "--eigenvalue", "0", "--tol", "1e-6")
        assert code == 4
        assert "singular_value_gaps" in json.loads(out)

    @pytest.mark.parametrize("entries, tol, partition, ranks", [
        # 0 is a simple eigenvalue; a power of the matrix would hold 1e400
        ([[1e200, 0], [0, 0]], "1e-8", [1], [2, 1, 1]),
        # similar to a 3-block, although its square lies below the threshold
        ([[0, 1e-9, 0], [0, 0, 1e-9], [0, 0, 0]], "1e-6", [3], [3, 2, 1, 0]),
    ])
    def test_extreme_scales_read_cleanly(self, tmp_path, capsys, entries, tol, partition, ranks):
        path = write(tmp_path, "m.json", {"entries": entries})
        code, out, _ = run(capsys, "jordan", "--matrix", path, "--eigenvalue", "0", "--tol", tol)
        assert code == 0
        body = json.loads(out)
        assert body["partition"] == partition and body["rank_sequence"] == ranks


ONE = [{"exp": 0, "re": "1", "im": "0"}]


class TestTinyInputsFailFast:
    """Inputs of a few bytes that once ran for seconds or hours, or escaped
    without a path: each exits 1 at once with one error line naming where."""

    @pytest.mark.parametrize("term, where", [
        ({"exp": 1, "re": "1e3000000"}, "$.coeffs[2][0].re: "),
        ({"exp": 1, "im": "-7e-3000000"}, "$.coeffs[2][0].im: "),
        ({"exp": 1, "re": "0", "sre": "1", "rad": 100000000000007}, "$.coeffs[2][0].rad: "),
        ({"exp": 1, "re": "0", "sre": "1", "rad": 10 ** 20 + 1}, "$.coeffs[2][0].rad: "),
    ])
    def test_charpoly_coefficient(self, tmp_path, capsys, term, where):
        path = write(tmp_path, "c.json", {"coeffs": [ONE, [], [term]]})
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", "--charpoly", path)
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == "" and err.startswith(f"error: {where}")
        assert err.count("\n") == 1

    def test_charpoly_coeffs_not_an_array(self, tmp_path, capsys):
        code, out, err = run(capsys, "analyze", "--charpoly",
                             write(tmp_path, "c.json", {"coeffs": 5}))
        assert code == 1 and out == ""
        assert err == "error: $.coeffs: expected an array, got 5\n"

    @pytest.mark.parametrize("command", [["example", "lieb_arccot"],
                                         ["verify", "--example", "lieb_arccot"]])
    def test_param_exponent(self, capsys, command):
        start = time.perf_counter()
        code, out, err = run(capsys, *command, "--param", "eps=1e3000000")
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert err == "error: --param: a number with exponent 3000000 has more than 4300 digits\n"

    @pytest.mark.parametrize("argv, degree", [
        (["analyze", "--matrix", {"entries": [[[{"exp": 10 ** 12, "re": "1"}]]]}], 10 ** 12),
        (["verify", "--example", "torus_knot", "--param", "p=2", "--param", f"q={10 ** 12}"],
         10 ** 12),
    ])
    def test_huge_t_degree(self, tmp_path, capsys, argv, degree):
        # packing the charpoly at 2^bits per power of t would need terabytes
        argv = [write(tmp_path, "m.json", a) if isinstance(a, dict) else a for a in argv]
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: charpoly of t-degree up to {degree} is too large: ")

    def test_numeric_entry_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text('{"entries": [[0, 1], [0, 1' + "0" * 400 + "]]}")
        code, out, err = run(capsys, "jordan", "--matrix", str(path), "--eigenvalue", "0")
        assert code == 1 and out == ""
        assert err.startswith("error: $.entries[1][1]: ")

    # json.loads refuses an integer of more digits than int(str) reads, and
    # bytes that are not UTF-8: either names the file
    @pytest.mark.parametrize("data", [b"[[" + b"1" * 5000 + b"]]", b"[[\xff]]"])
    def test_unreadable_json_names_the_file(self, tmp_path, capsys, data):
        path = tmp_path / "m.json"
        path.write_bytes(data)
        code, out, err = run(capsys, "jordan", "--matrix", str(path), "--eigenvalue", "0")
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    def test_utf8_file_reads_under_an_ascii_locale(self, tmp_path):
        # json.loads decodes the file's bytes; the locale's codec never sees them
        family = json.loads((GOLDEN / "family_charpoly.json").read_text(encoding="utf-8"))
        path = tmp_path / "f.json"
        path.write_text(json.dumps(dict(family, name="Kramers–Kronig é"), ensure_ascii=False),
                        encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), LC_ALL="C", LANG="C",
                   PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        proc = subprocess.run([sys.executable, "-m", "tropeig.cli", "verify", "--file", str(path)],
                              env=env, cwd=ROOT, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["family"] == "Kramers–Kronig é"


class TestSparseHighDegree:
    """A sparse t-degree of a million is never expanded, so each input answers
    in well under a second; the timeout only stops a regression."""

    def tropeig(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        return subprocess.run([sys.executable, "-m", "tropeig.cli", *argv], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=30)

    def test_analyze_matrix(self, tmp_path):
        doc = {"n": 2, "entries": [[[], [{"exp": 0, "re": "1", "im": "0"}]],
                                   [[{"exp": 10 ** 6, "re": "1", "im": "0"}], []]]}
        proc = self.tropeig("analyze", "--matrix", write(tmp_path, "m.json", doc))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["splitting"]["roots"] == [{"mult": 2, "omega": "500000"}]

    def test_verify_torus_knot(self):
        proc = self.tropeig("verify", "--example", "torus_knot", "--param", "p=2",
                            "--param", "q=1000000")
        assert proc.returncode == 0, proc.stderr


class TestArgumentErrors:
    @pytest.mark.parametrize("argv", [
        ["verify", "--t0", "abc"], ["catalog", "7"], ["frobnicate"],
        ["verify", "--example", "cavity_d12", "--file", "/nonexistent.json"],
        ["verify", "--jordan", "2", "--file", "/nonexistent.json"],
    ])
    def test_argument_errors_exit_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error: argument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["verify", "--example", "nope"], ["example", "nope"]])
    def test_unknown_example_names_every_example(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert all(name in err for name in example_names())

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0


class TestDeterminism:
    def test_analyze_byte_stable(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", SQRT_T)
        _, out1, _ = run(capsys, "analyze", "--matrix", path)
        _, out2, _ = run(capsys, "analyze", "--matrix", path)
        assert out1 == out2


# imports tropeig, runs `tropeig argv` when argv is given, and reports on
# stderr, after exit, whether numpy was ever imported, which tropeig modules
# were, and which other modules were imported after tropeig
PROBE = """import atexit, sys
def report():
    ours = {m for m in sys.modules if m.startswith("tropeig")}
    sys.stderr.write("\\nnumpy loaded: %s\\ntropeig modules: %s\\nother modules: %s" % (
        "numpy" in sys.modules, " ".join(sorted(ours)),
        " ".join(sorted(set(sys.modules) - ours - before))))
atexit.register(report)
import tropeig
before = set(sys.modules)
if sys.argv[1:]:
    from tropeig.cli import main
    sys.exit(main(sys.argv[1:]))
"""
# the modules each command may load: `tropeig` and the CLI itself, the float
# Jordan reading and the writers, and the exact layers analyze runs
STARTUP = {"tropeig", "tropeig.cli"}
WEYR = STARTUP | {"tropeig.weyr", "tropeig.serialize"}
EXACT = STARTUP | {"tropeig.serialize", "tropeig.exact", "tropeig.poly", "tropeig.charpoly",
                   "tropeig.tropical"}


def probe(*argv, site=True):
    """(whether numpy was loaded, the set of tropeig modules loaded, the set of
    other modules loaded after `import tropeig`) by `tropeig argv`; with
    site=False the interpreter runs with -S, without site-packages."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    flags = [] if site else ["-S"]
    proc = subprocess.run([sys.executable, *flags, "-c", PROBE, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    numpy_line, *module_lines = proc.stderr.splitlines()[-3:]
    return (numpy_line, *(set(line.split(": ", 1)[1].split()) for line in module_lines))


class TestStartup:
    def test_cli_import_leaves_scipy_unloaded(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        code = "import tropeig.cli, sys; sys.exit('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, timeout=120)
        assert proc.returncode == 0

    def test_all_names_resolve_and_none_is_a_module(self):
        import tropeig
        for name in tropeig.__all__:
            assert not isinstance(getattr(tropeig, name), types.ModuleType), name

    def test_names_resolve_lazily_and_dir_lists_them(self):
        # a bare import loads no layer; each name then loads its own module
        assert probe()[1] == {"tropeig"}
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        code = """import sys, tropeig
assert set(tropeig.__all__) <= set(dir(tropeig))
for name in tropeig.__all__:
    value = getattr(tropeig, name)
    assert sys.modules[value.__module__] is not None, name
namespace = {}
exec("from tropeig import *", namespace)
assert set(tropeig.__all__) <= set(namespace)
"""
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("argv, allowed", [
        (["--version"], STARTUP),
        (["jordan", "--matrix", str(GOLDEN / "jordan_matrix.json"), "--eigenvalue", "1,0.5"],
         WEYR),
        (["analyze", "--matrix", str(GOLDEN / "analyze_matrix.json")], EXACT),
        (["analyze", "--charpoly", str(GOLDEN / "analyze_charpoly.json")], EXACT),
        (["example", "effective_liouvillian"], EXACT | {"tropeig.models"}),
        (["example", "circuit_epsilon"], EXACT | {"tropeig.models"}),
        # only --example builds a model; only catalog and --jordan draw from
        # the catalog, which loads jordan and weyr
        (["verify", "--example", "hatano_nelson", "--param", "L=5", "--param",
          "regime=unidirectional"], EXACT | {"tropeig.models", "tropeig.numeric"}),
        (["verify", "--file", str(GOLDEN / "family_matrix.json")], EXACT | {"tropeig.numeric"}),
        (["catalog"], EXACT | {"tropeig.jordan", "tropeig.weyr"}),
        (["verify", "--jordan", "2"],
         EXACT | {"tropeig.jordan", "tropeig.weyr", "tropeig.numeric"}),
    ])
    def test_each_command_loads_only_its_layers(self, argv, allowed):
        loaded = probe(*argv)[1]
        assert loaded <= allowed, loaded - allowed
        assert "tropeig.cli" in loaded

    STDLIB_ARGVS = [
        ["--version"],
        ["jordan", "--matrix", str(GOLDEN / "jordan_matrix.json"), "--eigenvalue", "1,0.5"],
        ["analyze", "--matrix", str(GOLDEN / "analyze_matrix.json")],
        ["example", "effective_liouvillian"],
        ["catalog"],
        ["verify", "--example", "hatano_nelson", "--param", "L=5", "--param",
         "regime=unidirectional", "--braid"],
        ["verify", "--jordan", "2,2", "--braid"],
        ["verify", "--file", str(GOLDEN / "family_matrix.json")],
    ]

    @pytest.mark.parametrize("argv", STDLIB_ARGVS)
    def test_jordan_loads_no_dataclasses_inspect_or_fractions(self, argv):
        # the exact layers need fractions, and no command needs dataclasses or
        # inspect; typing and pathlib are checked without site (below), as a
        # site-packages .pth file may load them before tropeig
        forbidden = {"dataclasses", "inspect"}
        if argv[0] in ("--version", "jordan"):
            forbidden.add("fractions")
        assert not probe(*argv)[2] & forbidden

    @pytest.mark.parametrize("argv", STDLIB_ARGVS)
    def test_no_command_loads_typing_or_pathlib_without_site(self, argv):
        # under -S no .pth hook runs, so every module loaded after `import
        # tropeig` is one the command loads; --version reads no JSON either
        forbidden = {"typing", "pathlib"}
        if argv[0] == "--version":
            forbidden.add("json")
        assert not probe(*argv, site=False)[2] & forbidden

    NUMPY_ARGVS = [
        [], ["--version"], ["catalog"], ["example", "effective_liouvillian"],
        ["analyze", "--matrix", str(GOLDEN / "analyze_matrix.json")],
        ["analyze", "--charpoly", str(GOLDEN / "analyze_charpoly.json")],
        ["verify", "--jordan", "2", "--braid"],
        ["jordan", "--matrix", str(GOLDEN / "jordan_matrix.json"), "--eigenvalue", "1,0.5"],
    ]

    # each id ends in the answer every row expects, "numpy loaded: False"
    @pytest.mark.parametrize("argv", NUMPY_ARGVS,
                             ids=[f"argv{i}-False" for i in range(len(NUMPY_ARGVS))])
    def test_numpy_loads_only_for_float_commands(self, argv):
        # no command loads numpy, the float ones (verify, jordan) included
        assert probe(*argv)[0] == "numpy loaded: False"
