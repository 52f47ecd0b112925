"""Byte-exact CLI outputs on a fixed corpus.

Each case runs ``tropeig`` in process and compares its stdout, byte for
byte, and its exit code with files under ``tests/golden/cli``.  The corpus
freezes the behaviour of ``catalog``, ``example`` and ``verify`` across
refactors.  After an intended output change, regenerate the files with

    PYTHONPATH=src python tests/test_golden_cli.py --regenerate

and review the diff.
"""

import contextlib
import io
import json
import sys
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
FAMILY_FILES = ["family_matrix.json", "family_charpoly.json"]


def _cases():
    cases = {"catalog-json": ["catalog", "--format", "json"],
             "catalog-table": ["catalog"]}
    for name in EXAMPLES:
        cases[f"example-{name}"] = ["example", name, *EXAMPLE_PARAMS.get(name, [])]
    for name in EXAMPLES:
        cases[f"verify-example-{name}"] = ["verify", "--example", name,
                                           *EXAMPLE_PARAMS.get(name, []), "--braid"]
    for p in PARTITIONS:
        cases[f"verify-jordan-{p.replace(',', '')}"] = ["verify", "--jordan", p, "--braid"]
    for f in FAMILY_FILES:
        cases[f"verify-file-{Path(f).stem}"] = ["verify", "--file", str(GOLDEN / f), "--braid"]
    return cases


CASES = _cases()


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case):
    code, out = run_cli(CASES[case])
    assert code == json.loads(EXIT_CODES.read_text())[case]
    assert out.encode() == (OUTPUTS / f"{case}.out").read_bytes()


def test_corpus_covers_every_example_and_partition():
    from tropeig.jordan import partitions
    from tropeig.models import example_names

    assert EXAMPLES == example_names()
    assert PARTITIONS == [",".join(map(str, p)) for n in (2, 3, 4) for p in partitions(n)]


def regenerate():
    OUTPUTS.mkdir(parents=True, exist_ok=True)
    codes = {}
    for case, argv in sorted(CASES.items()):
        codes[case], out = run_cli(argv)
        (OUTPUTS / f"{case}.out").write_bytes(out.encode())
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    regenerate()
