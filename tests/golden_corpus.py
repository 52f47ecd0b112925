"""The CLI golden corpus: fixed ``tropeig`` commands and their byte-exact
outputs under ``tests/golden/cli``.

Each case runs ``tropeig`` in process and yields its exit code, its stdout
and the plot files ``analyze`` emits.  The corpus freezes the behaviour of
every subcommand across refactors.  It needs only the installed package, so
it also checks an installation without the test dependencies:

    python tests/golden_corpus.py --check

prints each case whose exit code, stdout or plot file differs and exits 1
if any does.  After an intended output change, rewrite the CLI corpus and
the demo outputs under ``tests/golden/demos`` with

    PYTHONPATH=src python tests/golden_corpus.py --regenerate

and review the diff.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from tropeig.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
OUTPUTS = GOLDEN / "cli"
EXIT_CODES = OUTPUTS / "exit_codes.json"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DEMO_OUTPUTS = GOLDEN / "demos"

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
PLOTS = [("--emit-tropical-plot", "csv"), ("--emit-svg", "svg"),
         ("--emit-polygon-svg", "polygon.svg")]
ARTIFACTS = {case: PLOTS for case in ("analyze-matrix", "analyze-charpoly", "analyze-flat")}


def _cases():
    cases = {"analyze-matrix": ["analyze", "--matrix", str(GOLDEN / "analyze_matrix.json")],
             "analyze-charpoly": ["analyze", "--charpoly",
                                  str(GOLDEN / "analyze_charpoly.json")],
             # lambda^2 - 1: every finite valuation is 0 and the one kink sits
             # at omega = 0, so both plots' axis ranges are degenerate
             "analyze-flat": ["analyze", "--charpoly", str(GOLDEN / "analyze_flat.json")],
             "catalog-2": ["catalog", "2"],
             "catalog-json": ["catalog", "--format", "json"],
             "catalog-table": ["catalog"],
             "jordan-matrix": ["jordan", "--matrix", str(GOLDEN / "jordan_matrix.json"),
                               "--eigenvalue", "1,0.5"],
             # a unitary conjugate of 2*I: three blocks of size 1, not rounding noise
             "jordan-nbolical": ["jordan", "--matrix", str(GOLDEN / "jordan_nbolical.json"),
                                 "--eigenvalue", "2"],
             # a 3-chain whose weak link sits on the threshold to rounding: exit 4
             "jordan-ambiguous": ["jordan", "--matrix", str(GOLDEN / "jordan_ambiguous.json"),
                                  "--eigenvalue", "0", "--tol", "1e-6"],
             # links of 1e-9 far above the threshold, with a square far below it
             "jordan-weak-chain": ["jordan", "--matrix", str(GOLDEN / "jordan_weak_chain.json"),
                                   "--eigenvalue", "0", "--tol", "1e-6"]}
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
    # constrained catalog directions: two exponents and a flat zero mode
    cases["verify-jordan-22-pq0"] = ["verify", "--jordan", "2,2", "--constraint", "p=q=0",
                                     "--braid"]
    cases["verify-jordan-31-d31q0"] = ["verify", "--jordan", "3,1", "--constraint",
                                       "d31=0,q=0", "--braid"]
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


def mismatches(case, tmp):
    """What of one case differs from its golden files: "exit code",
    "stdout" and the suffixes of differing plot files."""
    code, out, artifacts = run_case(case, tmp)
    bad = []
    if code != json.loads(EXIT_CODES.read_text())[case]:
        bad.append("exit code")
    if out.encode() != (OUTPUTS / f"{case}.out").read_bytes():
        bad.append("stdout")
    bad += [s for s, data in artifacts.items()
            if data != (OUTPUTS / f"{case}.{s}").read_bytes()]
    return bad


def run_demo(path: Path) -> bytes:
    """Stdout of one demo script, run in a fresh interpreter on ``src``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(path)], env=env, cwd=ROOT,
                          capture_output=True, check=True).stdout


def check() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            bad = mismatches(case, tmp)
            if bad:
                failed += 1
                print(f"{case}: differs in {', '.join(bad)}")
    print(f"{len(CASES) - failed} of {len(CASES)} cases match")
    return 1 if failed else 0


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
    DEMO_OUTPUTS.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        (DEMO_OUTPUTS / f"{demo.stem}.out").write_bytes(run_demo(demo))


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    regenerate()
