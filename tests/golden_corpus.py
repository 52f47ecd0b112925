"""The CLI golden corpus: fixed ``tropeig`` commands and their byte-exact
outputs under ``tests/golden/cli``.

Each case runs ``tropeig`` in process and yields its exit code, its stdout
and the plot files ``analyze`` emits.  The corpus freezes the behaviour of
every subcommand across refactors.  It needs only the installed package, so
it also checks an installation without the test dependencies:

    python tests/golden_corpus.py --check

prints each case whose exit code, stdout or plot file differs and exits 1
if any does.  It also compares ``braid_loop``'s outcome on a fixed family
corpus (braid_families) at each of BRAID_SETTINGS, the permutation or the
error raised, with ``tests/golden/braid_outcomes.json``, and the direction
each catalog draw takes (catalog_draws) with
``tests/golden/catalog_draws.json``.  After an intended output change,
rewrite the CLI corpus, the demo outputs under ``tests/golden/demos``, the
braid outcomes and the catalog draws with

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
from tropeig.jordan import catalog_families
from tropeig.models import default_families, hatano_nelson, torus_knot
from tropeig.numeric import LoopDegeneracyError, NonConvergenceError, braid_loop

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
OUTPUTS = GOLDEN / "cli"
EXIT_CODES = OUTPUTS / "exit_codes.json"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DEMO_OUTPUTS = GOLDEN / "demos"
BRAID_OUTCOMES = GOLDEN / "braid_outcomes.json"
CATALOG_DRAWS = GOLDEN / "catalog_draws.json"
# (eps0, steps) of each braid loop in the braid-outcome corpus
BRAID_SETTINGS = [(1e-6, 96), (1e-3, 64), (1e-2, 32), (0.5, 16)]

EXAMPLE_PARAMS = {
    "hatano_nelson": ["--param", "L=5", "--param", "regime=unidirectional"],
    "torus_knot": ["--param", "p=3", "--param", "q=2"],
}
EXAMPLES = ["cavity_d12", "cavity_d22_ep31", "cavity_d22_ep4", "circuit_epsilon",
            "circuit_gamma_detune", "effective_liouvillian", "hatano_nelson",
            "lieb_arccot", "lieb_pi_antidiag", "lieb_pi_diag", "torus_knot"]
PARTITIONS = ["2", "1,1", "3", "2,1", "1,1,1", "4", "3,1", "2,2", "2,1,1", "1,1,1,1"]
# family_perfect_power is a charpoly realization, (lambda^2 - 2t - t^2)^4: it
# has no blocks to deflate, so its repeated roots stall the root iteration (6)
FAMILY_FILES = ["family_matrix.json", "family_charpoly.json", "family_multiblock.json",
                "family_perfect_power.json"]


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
             # seed 5 rejects one (2,2) generic draw on the valuation check
             "catalog-seed5-json": ["catalog", "--seed", "5", "--format", "json"],
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
    # the failure exits: an unknown O(t^2) coefficient runs no check (2); and
    # at |t| = 1e300 the branches are no longer asymptotic (6).  The open
    # chains' equal EP2 blocks are deflated: each check solves one copy (0)
    cases["verify-example-lieb_pi_diag-order2"] = ["verify", "--example", "lieb_pi_diag",
                                                   "--param", "series_order=2", "--braid"]
    cases["verify-example-hatano_nelson-L4-obc"] = ["verify", "--example", "hatano_nelson",
                                                    "--param", "L=4", "--param", "regime=obc",
                                                    "--braid"]
    # L = 5 keeps one copy of the repeated EP2 block beside the flat site:
    # the solved part spans several blocks
    cases["verify-example-hatano_nelson-L5-obc"] = ["verify", "--example", "hatano_nelson",
                                                    "--param", "L=5", "--param", "regime=obc",
                                                    "--braid"]
    cases["verify-example-hatano_nelson-L8-obc"] = ["verify", "--example", "hatano_nelson",
                                                    "--param", "L=8", "--param", "regime=obc"]
    cases["verify-jordan-4-t0-1e300"] = ["verify", "--jordan", "4", "--t0", "1e300"]
    # numbers out of range: a zero denominator in --param is a usage error
    # (1), and so is a charpoly coefficient beyond the floats (1e400 * t);
    # q_t overflows at |t| = 1e300, so its root fails the check (6); and the
    # scaled coefficients overflow at the loop radius 1e300 (3)
    cases["example-lieb_arccot-zero-denominator"] = ["example", "lieb_arccot",
                                                     "--param", "eps=1/0"]
    cases["verify-file-out-of-range"] = ["verify", "--file",
                                         str(GOLDEN / "family_out_of_range.json")]
    cases["verify-example-cavity_d12-t0-1e300"] = ["verify", "--example", "cavity_d12",
                                                   "--t0", "1e300"]
    cases["verify-example-cavity_d12-eps0-1e300"] = ["verify", "--example", "cavity_d12",
                                                     "--braid", "--eps0", "1e300"]
    # a wide loop that encloses degeneracies away from t = 0: it completes,
    # in the frame turning with the t^(1/5) branches, with a braid other
    # than the predicted one (6)
    cases["verify-example-effective_liouvillian-eps0-1.5"] = [
        "verify", "--example", "effective_liouvillian", "--braid", "--eps0", "1.5"]
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


def catalog_seed_families():
    """(label, family) pairs of the catalog at seeds 0-11 and n = 2..4,
    labels unique."""
    for seed in range(12):
        for n in (2, 3, 4):
            for fam in catalog_families(n, seed):
                yield f"catalog seed {seed}: {fam.name}", fam


def catalog_draws():
    """{label: the family's direction, each slope as its exact str} over
    catalog_seed_families."""
    return {label: {name: str(v) for name, v in sorted(fam.parameters["direction"].items())}
            for label, fam in catalog_seed_families()}


def braid_families():
    """(label, family) pairs of the braid-outcome corpus, labels unique:
    catalog_seed_families, the default families, Hatano-Nelson L = 2..16,
    24 and 32 in both regimes, and the torus knots p = 2..5, q = 1..11."""
    yield from catalog_seed_families()
    for fam in default_families():
        yield f"default: {fam.name}", fam
    for L in [*range(2, 17), 24, 32]:
        for regime in ("obc", "unidirectional"):
            fam = hatano_nelson(L, regime)
            yield fam.name, fam
    for p in range(2, 6):
        for q in range(1, 12):
            fam = torus_knot(p, q)
            yield fam.name, fam


def braid_outcome(family, eps0, steps):
    """braid_loop's permutation, or "<error type>: <message>" when it refuses."""
    try:
        return list(braid_loop(family, eps0, steps).permutation)
    except (LoopDegeneracyError, NonConvergenceError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def braid_outcomes():
    """{label: [braid_outcome at each of BRAID_SETTINGS]} over braid_families."""
    return {label: [braid_outcome(fam, eps0, steps) for eps0, steps in BRAID_SETTINGS]
            for label, fam in braid_families()}


def golden_mismatches(path, got):
    """The labels whose value in ``got`` differs from, or is missing in, the
    golden file at ``path``, and those only the file holds."""
    want = json.loads(path.read_text())
    return sorted(label for label in want.keys() | got.keys()
                  if want.get(label) != got.get(label))


def braid_mismatches():
    return golden_mismatches(BRAID_OUTCOMES, braid_outcomes())


def catalog_draw_mismatches():
    return golden_mismatches(CATALOG_DRAWS, catalog_draws())


def write_golden(path, values):
    """Write {label: value} one label per line, so that a diff names the
    labels whose value changed."""
    lines = [f"  {json.dumps(label)}: {json.dumps(value)}" for label, value in values.items()]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


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
    braids = braid_mismatches()
    for label in braids:
        print(f"braid {label}: differs in its outcomes")
    total = len(json.loads(BRAID_OUTCOMES.read_text()))
    print(f"{total - len(braids)} of {total} braid families match")
    draws = catalog_draw_mismatches()
    for label in draws:
        print(f"{label}: differs in its direction")
    total = len(json.loads(CATALOG_DRAWS.read_text()))
    print(f"{total - len(draws)} of {total} catalog draws match")
    return 1 if failed or braids or draws else 0


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
    write_golden(BRAID_OUTCOMES, braid_outcomes())
    write_golden(CATALOG_DRAWS, catalog_draws())
    DEMO_OUTPUTS.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        (DEMO_OUTPUTS / f"{demo.stem}.out").write_bytes(run_demo(demo))


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    regenerate()
