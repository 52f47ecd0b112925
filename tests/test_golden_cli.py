"""Byte-exact CLI outputs on a fixed corpus.

Each case runs ``tropeig`` in process and compares its stdout, byte for
byte, and its exit code with files under ``tests/golden/cli``; the plot
files ``analyze`` emits are compared the same way.  The corpus freezes the
behaviour of every subcommand across refactors.  After an intended output
change, regenerate the files (and the demo outputs, see test_demos.py) with

    PYTHONPATH=src python tests/test_golden_cli.py --regenerate

and review the diff.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from tropeig.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
OUTPUTS = GOLDEN / "cli"
EXIT_CODES = OUTPUTS / "exit_codes.json"

EXAMPLE_PARAMS = {
    "hatano_nelson": ["--param", "L=5", "--param", "regime=unidirectional"],
    "torus_knot": ["--param", "p=3", "--param", "q=2"],
}
EXAMPLES = ["cavity_d12", "cavity_d22_ep31", "cavity_d22_ep4", "circuit_epsilon",
            "circuit_gamma_detune", "effective_liouvillian", "hatano_nelson",
            "lieb_arccot", "lieb_pi_antidiag", "lieb_pi_diag", "torus_knot"]
PARTITIONS = ["2", "1,1", "3", "2,1", "1,1,1", "4", "3,1", "2,2", "2,1,1", "1,1,1,1"]
FAMILY_FILES = ["family_matrix.json", "family_charpoly.json", "family_multiblock.json"]


# analyze's plot flags, each with the suffix of its golden file
ARTIFACTS = {"analyze-matrix": [("--emit-tropical-plot", "csv"), ("--emit-svg", "svg"),
                                ("--emit-polygon-svg", "polygon.svg")]}


def _cases():
    cases = {"analyze-matrix": ["analyze", "--matrix", str(GOLDEN / "analyze_matrix.json")],
             "analyze-charpoly": ["analyze", "--charpoly",
                                  str(GOLDEN / "analyze_charpoly.json")],
             "catalog-json": ["catalog", "--format", "json"],
             "catalog-table": ["catalog"],
             "jordan-matrix": ["jordan", "--matrix", str(GOLDEN / "jordan_matrix.json"),
                               "--eigenvalue", "1,0.5"]}
    for name in EXAMPLES:
        cases[f"example-{name}"] = ["example", name, *EXAMPLE_PARAMS.get(name, [])]
    for name in EXAMPLES:
        cases[f"verify-example-{name}"] = ["verify", "--example", name,
                                           *EXAMPLE_PARAMS.get(name, []), "--braid"]
    # deep enough that lambda^2 - t^50 underflows in floats at the check's
    # second point, and t^60 on the braid loop at eps0 = 1e-6; both solve
    # scaled polynomials that stay in range
    cases["verify-example-torus_knot-q50"] = ["verify", "--example", "torus_knot",
                                              "--param", "p=2", "--param", "q=50"]
    cases["verify-example-torus_knot-q60"] = ["verify", "--example", "torus_knot",
                                              "--param", "p=2", "--param", "q=60", "--braid"]
    # every eigenvalue is a flat zero: the braid is the identity
    cases["verify-jordan-11-unlifting"] = ["verify", "--jordan", "1,1", "--constraint",
                                           "unlifting", "--braid"]
    for p in PARTITIONS:
        cases[f"verify-jordan-{p.replace(',', '')}"] = ["verify", "--jordan", p, "--braid"]
    for f in FAMILY_FILES:
        cases[f"verify-file-{Path(f).stem}"] = ["verify", "--file", str(GOLDEN / f), "--braid"]
    return cases


CASES = _cases()


def run_case(case, tmp):
    """(exit code, stdout, {suffix: artifact bytes}) of one case; the
    artifacts are written under the directory tmp."""
    argv = list(CASES[case])
    paths = {}
    for flag, suffix in ARTIFACTS.get(case, ()):
        paths[suffix] = Path(tmp) / f"{case}.{suffix}"
        argv += [flag, str(paths[suffix])]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue(), {s: p.read_bytes() for s, p in paths.items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    code, out, artifacts = run_case(case, tmp_path)
    assert code == json.loads(EXIT_CODES.read_text())[case]
    assert out.encode() == (OUTPUTS / f"{case}.out").read_bytes()
    for suffix, data in artifacts.items():
        assert data == (OUTPUTS / f"{case}.{suffix}").read_bytes(), suffix


def test_corpus_covers_every_example_and_partition():
    from tropeig.jordan import partitions
    from tropeig.models import example_names

    assert EXAMPLES == example_names()
    assert PARTITIONS == [",".join(map(str, p)) for n in (2, 3, 4) for p in partitions(n)]


def regenerate():
    OUTPUTS.mkdir(parents=True, exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            codes[case], out, artifacts = run_case(case, tmp)
            (OUTPUTS / f"{case}.out").write_bytes(out.encode())
            for suffix, data in artifacts.items():
                (OUTPUTS / f"{case}.{suffix}").write_bytes(data)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    regenerate()
    from test_demos import regenerate as regenerate_demos
    regenerate_demos()
