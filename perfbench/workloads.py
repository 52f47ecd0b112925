"""The four workloads: seeded inputs, one round of operations, and oracles.

Each workload imports tropeig in ``load()``, builds its inputs from the seed
in ``build()``, exposes one round of its fixed operation mix as (label,
callable) pairs in ``ops`` and judges the first output of each operation
against its oracle in ``judge()``.
Operations call into tropeig through module attributes (``charpoly.
charpoly_direct``), never through captured function objects, so that a
traced pass sees them.

Only the standard library is imported at module level: a set-up probe times
the import of tropeig from a clean start.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import List, Optional


BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "out"

# Braid settings are the CLI defaults for `verify --braid`.
BRAID_EPS0 = 1e-6
BRAID_STEPS = 96

# Operations that fail at the seed commit (b4dbef8), per round of the mix.
# They are counted in fail_frac, never dropped.  Keys are failure kinds.
KNOWN_FAILURES = {
    "exact-large": {},
    "exact-small": {},
    "verify": {"fit raised NonConvergenceError": 1,       # hatano_nelson(8, obc)
               "braid raised LoopDegeneracyError": 10},   # 6 catalog, 4 models
    "cli": {},
}


def _attempt(fn, *args, **kwargs):
    """Result of fn, or the exception it raised, so both halves of an
    operation run even when the first one fails."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # judged by the oracle as a failure
        return exc


def describe(matrix) -> dict:
    """Size, entry degree and coefficient field of a PolyMatrix."""
    degree, gaussian, rational = 0, False, False
    for row in matrix.rows:
        for entry in row:
            degree = max(degree, entry.degree())
            for c in entry.terms.values():
                gaussian |= bool(c.im or c.sim)
                rational |= any(f.denominator != 1 for f in (c.re, c.im, c.sre, c.sim))
    radicands = sorted({c.rad for row in matrix.rows for e in row
                        for c in e.terms.values() if c.rad})
    gens = (["i"] if gaussian else []) + [f"sqrt{r}" for r in radicands]
    field = f"Q({','.join(gens)})" if gens else "Q"
    return {"n": matrix.n, "entry_degree": degree, "field": field,
            "surd": bool(radicands), "denominators": rational}


def report_dict(report) -> dict:
    """A SplittingReport in the CLI's JSON shape, built without serialize."""
    return {"roots": [{"omega": str(r.omega), "mult": r.multiplicity} for r in report.roots],
            "zero_roots": report.zero_root_count,
            "undetermined": report.undetermined}


def seeded_order(items: list, seed: int, salt: str) -> list:
    items = list(items)
    random.Random(f"{salt}:{seed}").shuffle(items)
    return items


class Workload:
    name = ""
    tail_p = 50.0    # fixed per workload so that runs stay comparable
    children = False  # operations run child processes

    def __init__(self):
        self.ops: List[tuple] = []
        self.inputs: List[dict] = []

    def load(self) -> None:
        import tropeig  # noqa: F401  (the import is part of set-up)
        from tropeig import charpoly, jordan, models, numeric, tropical
        self.charpoly, self.jordan, self.models = charpoly, jordan, models
        self.numeric, self.tropical = numeric, tropical

    def build(self, seed: int) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Oracle work that must precede the loop; not part of set-up."""

    def trace_ops(self) -> List[tuple]:
        return self.ops

    def judge(self, label: str, result) -> tuple:
        """(failure reasons, whether one is a wrong output) for one output."""
        raise NotImplementedError

    def extras(self) -> dict:
        return {}


# ---------------------------------------------------------------------------

def dense_qi_matrix(rng: random.Random, n: int):
    """Dense n x n matrix A + B t; A, B Gaussian integers in [-9, 9] + i[-9, 9].

    Integer entries keep the cost of one matrix within about 1% across
    seeds; Q(i) denominators and a surd come in through the Liouvillian.
    """
    from tropeig.charpoly import PolyMatrix
    from tropeig.exact import ExactComplex
    from tropeig.poly import ScalarPoly

    def gauss():
        return ExactComplex(rng.randint(-9, 9), rng.randint(-9, 9))

    return PolyMatrix(
        [[ScalarPoly({0: gauss(), 1: gauss()}) for _ in range(n)] for _ in range(n)])


# Splitting of the 9x9 effective Liouvillian, from the (5,3,1) multiblock EP
# analysis: branch orders 1/5, 1/3 and 1.
LIOUVILLIAN_ROOTS = ((Fraction(1, 5), 5), (Fraction(1, 3), 3), (Fraction(1), 1))


class ExactLarge(Workload):
    name = "exact-large"
    tail_p = 50.0  # p75 would need 10 rounds of about 2.5 s

    def build(self, seed):
        from tropeig.tropical import SplittingReport, TropicalRoot
        rng = random.Random(seed)
        liou = SplittingReport(tuple(TropicalRoot(w, m) for w, m in LIOUVILLIAN_ROOTS), 0)
        hn = self.models.hatano_nelson(24, "unidirectional")
        cases = [("dense8", dense_qi_matrix(rng, 8), None),
                 ("dense12", dense_qi_matrix(rng, 12), None),
                 ("liouvillian9", self.models.effective_liouvillian_matrix(), liou),
                 ("hatano_nelson24", hn.realization, hn.expected)]
        self.cases = {label: (m, exp) for label, m, exp in cases}
        self.inputs = [dict(label=label, **describe(m)) for label, m, _ in cases]
        self.ops = [(label, self._op(m)) for label, m, _ in seeded_order(cases, seed, self.name)]

    def _op(self, matrix):
        charpoly, tropical = self.charpoly, self.tropical

        def analyze():  # the `analyze` pipeline
            cp = charpoly.charpoly_direct(matrix)
            poly = tropical.tropicalize(cp)
            polygon = tropical.newton_polygon(cp)
            return cp, poly, tropical.tropical_roots(polygon)
        return analyze

    def judge(self, label, result):
        matrix, expected = self.cases[label]
        cp, poly, report = result
        reasons = []
        if cp != self.charpoly.charpoly_traces(matrix):
            reasons.append(f"{label}: charpoly_direct != charpoly_traces")
        if self.tropical.tropical_roots(poly) != report:
            reasons.append(f"{label}: hull view != min-plus view")
        if expected is not None and report != expected:
            reasons.append(f"{label}: report != expected")
        return reasons, True


class ExactSmall(Workload):
    name = "exact-small"
    tail_p = 90.0

    def build(self, seed):
        # The library's default catalog seed, as `tropeig catalog` uses: at
        # other catalog seeds the rejection sampling costs up to 1.6x more,
        # which would swamp the bounds.  --seed orders the operations.
        self.inputs = [{"label": f"catalog{n}", "n": n, "catalog_seed": self.jordan.DEFAULT_SEED}
                       for n in (2, 3, 4)]
        self.ops = [(f"catalog{n}", self._op(n)) for n in seeded_order((2, 3, 4), seed, self.name)]

    def _op(self, n):
        jordan, tropical = self.jordan, self.tropical

        def classify():  # both dual views on every family
            return [(f, tropical.tropical_roots(f.charpoly),
                     tropical.tropical_roots(tropical.tropicalize(f.charpoly)))
                    for f in jordan.catalog_families(n)]
        return classify

    def judge(self, label, result):
        reasons = []
        for f, hull, minplus in result:
            if self.charpoly.charpoly_direct(f.matrix) != f.charpoly:
                reasons.append(f"{f.name}: charpoly_direct != charpoly_traces")
            if hull != minplus:
                reasons.append(f"{f.name}: hull view != min-plus view")
            if hull != f.expected:
                reasons.append(f"{f.name}: report != expected")
        return reasons, True


class Verify(Workload):
    name = "verify"
    tail_p = 90.0

    def build(self, seed):
        # Default catalog seed on purpose: braid cost at other catalog seeds
        # ranges over 3.6x (step halving depends on the drawn slopes).
        models = self.models
        fams = [f for n in (2, 3, 4) for f in self.jordan.catalog_families(n)]
        fams += models.default_families()
        fams += [models.hatano_nelson(8, "unidirectional"), models.hatano_nelson(8, "obc")]
        self.families = {f.name: f for f in fams}
        self.omega_err = 0.0
        self.inputs = [{"label": f.name, "n": f.expected.total_dimension} for f in fams]
        self.ops = [(f.name, self._op(f)) for f in seeded_order(fams, seed, self.name)]

    def _op(self, family):
        numeric = self.numeric

        def verify():  # `verify --braid`: exponent fit, then one braid loop
            return (_attempt(numeric.fit_exponents, family),
                    _attempt(numeric.braid_loop, family, eps0=BRAID_EPS0, steps=BRAID_STEPS))
        return verify

    def judge(self, label, result):
        family = self.families[label]
        fit, braid = result
        reasons, mismatch = [], False
        if isinstance(fit, Exception):
            reasons.append(f"{label}: fit raised {type(fit).__name__}")
        elif not fit.passed:
            reasons.append(f"{label}: fit disagrees with the prediction")
            mismatch = True
        else:
            for c in fit.clusters:
                if c.matched is not None:
                    self.omega_err = max(self.omega_err, abs(c.exponent - float(c.matched.omega)))
        if isinstance(braid, Exception):
            reasons.append(f"{label}: braid raised {type(braid).__name__}")
        else:
            predicted = family.expected.predicted_cycle_lengths()
            if predicted is not None and tuple(predicted) != braid.cycle_lengths:
                reasons.append(f"{label}: braid cycles != predicted")
                mismatch = True
        return reasons, mismatch

    def extras(self):
        return {"omega_err_max": self.omega_err}


# ---------------------------------------------------------------------------

def _partition(rng: random.Random, n: int) -> tuple:
    parts, left = [], n
    while left:
        parts.append(rng.randint(1, left))
        left -= parts[-1]
    return tuple(sorted(parts, reverse=True))


def _exact_json(re, im) -> dict:
    return {"re": str(re), "im": str(im)}


def analyze_matrix_json(rng: random.Random, n: int):
    """Nilpotent Jordan form of a seeded partition plus a dense Gaussian-
    integer perturbation times t, in the PolyMatrix JSON format."""
    partition = _partition(rng, n)
    starts, k = set(), 0
    for size in partition:
        starts.add(k)
        k += size
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = []
            if j == i + 1 and j not in starts:
                terms.append({"exp": 0, **_exact_json(1, 0)})
            re, im = rng.randint(-9, 9), rng.randint(-9, 9)
            if re or im:
                terms.append({"exp": 1, **_exact_json(re, im)})
            row.append(terms)
        entries.append(row)
    return partition, {"n": n, "entries": entries}


def jordan_matrix_json(rng: random.Random, n: int):
    """Q (lam I + N) Q^H for a seeded partition, eigenvalue and unitary Q."""
    import numpy as np
    partition = _partition(rng, n)
    lam = complex(rng.randint(-3, 3), rng.randint(-3, 3))
    nil = np.zeros((n, n), dtype=complex)
    k = 0
    for size in partition:
        for r in range(size - 1):
            nil[k + r, k + r + 1] = 1
        k += size
    gauss = np.random.default_rng(rng.getrandbits(64)).standard_normal((n, n, 2))
    q, _ = np.linalg.qr(gauss[..., 0] + 1j * gauss[..., 1])
    m = q @ (lam * np.eye(n) + nil) @ q.conj().T
    entries = [[[float(x.real), float(x.imag)] for x in row] for row in m]
    return partition, lam, {"entries": entries}


class Cli(Workload):
    name = "cli"
    tail_p = 50.0  # p75 would need 10 rounds of about 6 s
    children = True

    def load(self):
        super().load()
        import tropeig.cli
        self.cli = tropeig.cli

    def build(self, seed):
        rng = random.Random(seed)
        WORK.mkdir(parents=True, exist_ok=True)
        self.analyze_partition, analyze_json = analyze_matrix_json(rng, 6)
        analyze_path = WORK / f"cli-analyze-{seed}.json"
        analyze_path.write_text(json.dumps(analyze_json))
        self.jordan_partition, lam, jordan_json = jordan_matrix_json(rng, 6)
        jordan_path = WORK / f"cli-jordan-{seed}.json"
        jordan_path.write_text(json.dumps(jordan_json))
        self.stderr_path = WORK / f"cli-stderr-{seed}.txt"
        self.commands = {
            "version": ["--version"],
            "analyze": ["analyze", "--matrix", str(analyze_path)],
            "catalog": ["catalog", "--format", "json"],
            "example": ["example", "effective_liouvillian"],
            "verify": ["verify", "--example", "hatano_nelson", "--param", "L=5",
                       "--param", "regime=unidirectional", "--braid"],
            "jordan": ["jordan", "--matrix", str(jordan_path),
                       f"--eigenvalue={lam.real:g},{lam.imag:g}"],  # '=': may start with '-'
        }
        self.inputs = [
            dict(label="analyze", jordan_partition=list(self.analyze_partition),
                 **describe(self._load_polymatrix(analyze_path))),
            {"label": "jordan", "n": 6, "field": "complex float",
             "jordan_partition": list(self.jordan_partition), "eigenvalue": [lam.real, lam.imag]},
        ]
        env = dict(os.environ, PYTHONPATH="src")
        self.child_rss: List[float] = []
        self.ops = [(label, self._child(argv, env))
                    for label, argv in seeded_order(self.commands.items(), seed, self.name)]

    def _child(self, argv, env):
        cmd = [sys.executable, "-m", "tropeig.cli", *argv]
        stderr_path, child_rss = self.stderr_path, self.child_rss

        def run():
            with open(stderr_path, "wb") as err:
                proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
                with proc.stdout:
                    out = proc.stdout.read()
                # wait4, not wait: it also returns the child's peak RSS
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            child_rss.append(usage.ru_maxrss / 1024)
            return proc.returncode, out.decode()
        return run

    def _in_process(self, argv):
        def run():
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                try:
                    code = self.cli.main(argv)  # looked up per call, for tracing
                except SystemExit as exc:  # argparse exits for --version
                    code = exc.code if isinstance(exc.code, int) else 0
            return code, out.getvalue()
        return run

    def trace_ops(self):
        return [(label, self._in_process(self.commands[label])) for label, _ in self.ops]

    def prepare(self):
        self.reference = {label: self._in_process(argv)() for label, argv in self.commands.items()}
        self.semantic = {label: self._semantic(label, *self.reference[label])
                         for label in self.commands}

    def _semantic(self, label, code, out) -> Optional[str]:
        """Independent check of one command's in-process output."""
        import tropeig
        if code != 0:
            return f"exit code {code}"
        if label == "version":
            return None if out == f"tropeig {tropeig.__version__}\n" else "wrong version"
        body = json.loads(out)
        if label == "analyze":
            matrix = self._load_polymatrix(self.commands["analyze"][2])
            cp = self.charpoly.charpoly_traces(matrix)
            want = report_dict(self.tropical.tropical_roots(self.tropical.tropicalize(cp)))
            return None if body["splitting"] == want else "splitting differs from traces/min-plus"
        if label == "catalog":
            fams = [f for n in (2, 3, 4) for f in self.jordan.catalog_families(n)]
            rows = body["catalog"]
            if len(rows) != len(fams):
                return "wrong number of catalog rows"
            for row, f in zip(rows, fams):
                cp = self.charpoly.charpoly_direct(f.matrix)
                want = report_dict(self.tropical.tropical_roots(self.tropical.tropicalize(cp)))
                if not row["agrees"] or row["computed"] != want or row["expected"] != want:
                    return f"catalog row {f.name} wrong"
            return None
        if label == "example":
            from tropeig.serialize import charpoly_from_json
            cp = self.charpoly.charpoly_traces(self.models.effective_liouvillian_matrix())
            roots = [{"omega": str(w), "mult": m} for w, m in LIOUVILLIAN_ROOTS]
            if charpoly_from_json(body["charpoly"]) != cp:
                return "charpoly differs from charpoly_traces"
            return None if body["expected"]["roots"] == roots else "expected roots wrong"
        if label == "verify":
            ok = body["verification"]["pass"] and body["braid"]["cycle_lengths"] == [5] \
                and body["braid"]["predicted_cycle_lengths"] == [5]
            return None if ok else "verification did not pass"
        if label == "jordan":
            return None if tuple(body["partition"]) == self.jordan_partition else "wrong partition"
        return "unknown command"

    def _load_polymatrix(self, path):
        from tropeig.exact import ExactComplex
        from tropeig.poly import ScalarPoly
        obj = json.loads(Path(path).read_text())
        return self.charpoly.PolyMatrix(
            [[ScalarPoly({t["exp"]: ExactComplex(Fraction(t["re"]), Fraction(t["im"]))
                          for t in entry}) for entry in row] for row in obj["entries"]])

    def judge(self, label, result):
        reasons = []
        if result != self.reference[label]:
            reasons.append(f"{label}: exit code or stdout differs from in-process main")
        if self.semantic[label]:
            reasons.append(f"{label}: {self.semantic[label]}")
        return reasons, True

    def extras(self):
        return {"child_peak_rss_mb": max(self.child_rss)} if self.child_rss else {}


WORKLOADS = {w.name: w for w in (ExactLarge, ExactSmall, Verify, Cli)}
