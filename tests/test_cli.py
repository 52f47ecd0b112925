import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from reference import AMBIGUOUS_CHAIN
from tropeig.cli import main
from tropeig.models import example_names
from tropeig.serialize import dumps

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

    def test_braid_loop_failure_exit(self, capsys):
        # its EP2 blocks split alike, so two eigenvalues nearly coincide
        code, out, _ = run(capsys, "verify", "--example", "hatano_nelson", "--param", "L=4",
                           "--param", "regime=obc", "--braid")
        assert code == 3
        assert "below 1e-3" in json.loads(out)["braid"]["error"]

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
        code, out, err = run(capsys, "verify", "--example", "hatano_nelson",
                             "--param", "L=8", "--param", "regime=obc")
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

    def test_unknown_constraint(self, capsys):
        code, _, err = run(capsys, "verify", "--jordan", "4", "--constraint", "nope")
        assert code == 1 and "nope" in err


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
        ([[True, 0], [0, False]], "$[0][0]"),
        ([[0, [1, True]], [0, 0]], "$[0][1]"),
        ([[0, 1], [["0", 1], 0]], "$[1][0]"),
        ([[float("nan"), 1], [0, 0]], "$[0][0]"),
        ([[0, [1, float("-inf")]], [0, 0]], "$[0][1]"),
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


def probe(*argv):
    """(whether numpy was loaded, the set of tropeig modules loaded, the set of
    other modules loaded after `import tropeig`) by `tropeig argv`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, cwd=ROOT,
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

    @pytest.mark.parametrize("argv", [
        ["--version"],
        ["jordan", "--matrix", str(GOLDEN / "jordan_matrix.json"), "--eigenvalue", "1,0.5"],
        ["analyze", "--matrix", str(GOLDEN / "analyze_matrix.json")],
        ["example", "effective_liouvillian"],
        ["catalog"],
        ["verify", "--example", "hatano_nelson", "--param", "L=5", "--param",
         "regime=unidirectional", "--braid"],
        ["verify", "--jordan", "2,2", "--braid"],
        ["verify", "--file", str(GOLDEN / "family_matrix.json")],
    ])
    def test_jordan_loads_no_dataclasses_inspect_or_fractions(self, argv):
        # the exact layers need fractions, and no command needs dataclasses or
        # inspect; typing is left out: a site-packages .pth file may load it
        forbidden = {"dataclasses", "inspect"}
        if argv[0] in ("--version", "jordan"):
            forbidden.add("fractions")
        assert not probe(*argv)[2] & forbidden

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
