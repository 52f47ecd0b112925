"""Statistics, failure accounting and run metadata for the benchmark.

Only the standard library is imported here, so that importing this module
adds nothing to a measured import of tropeig.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

MIN_BEYOND = 10  # samples a tail percentile must have beyond it

# The 2-vCPU Intel Xeon VM this benchmark was written on slows by up to 1.6x
# in spells that last from a second to minutes.  The loop therefore runs a
# fixed calibration job between operations, and each operation's time is
# scaled by the job's nominal seconds over the mean of the job's times within
# CALIBRATION_WINDOW_S, or the operation's own length if longer, of its start
# and end; raw times are reported as well.  In-process work tracks a
# pure-Python job; child processes, whose time is mostly interpreter start and
# imports, track a child that imports numpy.
CALIBRATION_S = 0.010        # calibration_job() at the VM's usual speed
CHILD_CALIBRATION_S = 0.150  # calibration_child() at the VM's usual speed
CALIBRATION_WINDOW_S = 0.5


def calibration_job() -> float:
    """Seconds for a fixed pure-Python job of Fraction, complex and dict work."""
    start = time.perf_counter()
    d = {}
    for k in range(1, 2500):
        s = Fraction(k % 7 + 1, k % 11 + 1) + Fraction(k % 5 + 1, k % 13 + 1)
        z = complex(k, 1) * complex(1, -k)
        d[k % 64] = (s.numerator, z.real)
    return time.perf_counter() - start


def calibration_child() -> float:
    """Seconds for a child interpreter that imports numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - start


def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (the 'inclusive' method)."""
    xs = sorted(samples)
    pos = p / 100 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(n: int, p: float) -> int:
    """Number of samples lying strictly above the p-th percentile position."""
    return n - 1 - math.floor(p / 100 * (n - 1))


def min_rounds(labels: int, p: float) -> int:
    """Rounds of a mix of `labels` operations that put at least MIN_BEYOND
    samples beyond the p-th percentile of the per-operation medians."""
    return math.ceil(MIN_BEYOND / beyond(labels, p))


def label_medians(outcomes: Sequence["Outcome"], scaled: bool = True) -> Dict[str, float]:
    """Median seconds of each operation of the mix, over the rounds."""
    times: Dict[str, List[float]] = {}
    for o in outcomes:
        times.setdefault(o.label, []).append(o.scaled if scaled else o.seconds)
    return {label: statistics.median(ts) for label, ts in times.items()}


@dataclass
class Outcome:
    """One operation of a timed loop: what ran, what it returned, how long.

    Only the first output of each operation is kept, in `result`; a later one
    is compared with it at once and dropped (`same`), so memory does not grow
    with the number of rounds.  `seconds * scale` is the time at the machine's
    usual speed.
    """

    label: str
    seconds: float
    result: object = None
    error: Optional[BaseException] = None
    same: Optional[bool] = None  # None for the first output of an operation
    start: float = 0.0
    scale: float = 1.0  # nominal over measured calibration seconds around it

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def same_output(a, b) -> bool:
    """Equality of two outputs; exceptions are equal by type and arguments."""
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and a.args == b.args
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same_output, a, b))
    return a == b


@dataclass
class Tally:
    """Failure accounting: every attempted operation is recorded once."""

    attempted: int = 0
    failed: int = 0
    mismatched: int = 0  # outputs that contradicted their oracle
    reasons: dict = field(default_factory=dict)

    def record(self, reasons: Sequence[str], mismatch: bool = False) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.mismatched += bool(mismatch)
            for r in reasons:
                self.reasons[r] = self.reasons.get(r, 0) + 1

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def timed_loop(ops: Sequence, seconds_budget: float, rounds_needed: int,
               calibrate: Callable[[], float] = calibration_job,
               nominal: float = CALIBRATION_S) -> tuple:
    """Run whole rounds of `ops` until `seconds_budget` has passed and at
    least `rounds_needed` rounds were made; closed loop, one operation at a
    time, with `calibrate` between operations (outside their timing), and
    set each outcome's scale from the calibrations near it.

    Each op is a (label, callable) pair.  An op that raises is recorded as an
    Outcome with its exception; the loop goes on.  Returns (outcomes, wall
    seconds, rounds).
    """
    outcomes: List[Outcome] = []
    firsts: Dict[str, object] = {}
    rounds = 0
    clock = time.perf_counter
    start = clock()
    calibrations = [(clock(), calibrate())]
    while True:
        for label, fn in ops:
            t0 = clock()
            try:
                res, err = fn(), None
            except Exception as exc:  # recorded and counted as a failure
                res, err = None, exc
            o = Outcome(label, clock() - t0, None, err, start=t0)
            calibrations.append((clock(), calibrate()))
            if err is None:
                if label in firsts:
                    o.same = same_output(res, firsts[label])
                else:
                    firsts[label] = o.result = res
            outcomes.append(o)
        rounds += 1
        if clock() - start >= seconds_budget and rounds >= rounds_needed:
            wall = clock() - start
            break
    for o in outcomes:
        reach = max(CALIBRATION_WINDOW_S, o.seconds)
        near = [c for t, c in calibrations
                if o.start - reach <= t <= o.start + o.seconds + reach]
        o.scale = nominal * len(near) / sum(near)
    return outcomes, wall, rounds


def tally_outcomes(outcomes: Sequence[Outcome], judge: Callable) -> Tally:
    """Judge every first output with `judge(label, result) -> (reasons,
    mismatch)`; a repeat shares its first output's verdict or, if it
    differs from it, fails as a wrong output."""
    tally = Tally()
    verdicts: Dict[str, tuple] = {}
    for o in outcomes:
        if o.error is not None:
            tally.record([f"{o.label}: raised {type(o.error).__name__}"])
        elif o.same is None:
            verdicts[o.label] = judge(o.label, o.result)
            tally.record(*verdicts[o.label])
        elif o.same:
            tally.record(*verdicts[o.label])
        else:
            tally.record([f"{o.label}: output differs from its first round"], True)
    return tally


def run_rounds(ops: Sequence, rounds: int) -> float:
    """Wall seconds for exactly `rounds` rounds of `ops`, errors ignored."""
    start = time.perf_counter()
    for _ in range(rounds):
        for _, fn in ops:
            try:
                fn()
            except Exception:
                pass  # failures were already counted in the untraced pass
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cpu_model() -> Optional[str]:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _version(dist: str) -> Optional[str]:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_commit(root: Path) -> Optional[str]:
    # the ceiling keeps git from searching directories above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: Path) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": _version("numpy"),
            "scipy": _version("scipy"),
            "git_commit": _git_commit(root)}
