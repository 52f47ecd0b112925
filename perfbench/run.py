"""Benchmark for tropeig: the exact pipeline, numeric verification and the CLI.

Usage:
    python3 perfbench/run.py --workload {exact-large,exact-small,verify,cli}
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; tropeig is imported from src/.
Every workload is a closed loop with one client: an operation starts only
after the previous one returned (for `cli`, one child process at a time).

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 makes
one profiled round and one checked round, then alternates untraced and
traced rounds for --seconds, and reports the per-layer metrics (see
layers.py).  Both modes check outputs against their oracles outside the
operations' timing.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the full report
(inputs, environment, failure breakdown, fail_frac and omega_err_max).
The exit code is 0 when every output agreed with its oracle, 1 when one did
not, and 2 when the checkout holds no tropeig sources.  Seed 0 is the
default; seed 1 is held out for checking later claims.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from metrics import (CALIBRATION_S, CHILD_CALIBRATION_S, Tally,  # noqa: E402
                     beyond, calibration_child, calibration_job, environment,
                     label_medians, min_rounds, peak_rss_mb, percentile, run_rounds,
                     tally_outcomes, timed_loop)
import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import BRAID_STEPS, KNOWN_FAILURES, ROOT, SRC, WORK, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


def _setup_times(name: str, seed: int) -> list:
    """(scaled, raw) seconds of SETUP_REPEATS set-ups, each in a fresh
    interpreter, with a calibration child before and after each one."""
    out, before = [], calibration_child()
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), name,
                                str(seed)], cwd=ROOT, capture_output=True, text=True,
                               check=True, timeout=170)
        raw = float(probe.stdout.strip().splitlines()[-1])
        after = calibration_child()
        out.append((raw * 2 * CHILD_CALIBRATION_S / (before + after), raw))
        before = after
    return out


def _failure_kinds(tally: Tally, rounds: int) -> dict:
    """Failing operations per round, by kind ('braid raised X', ...)."""
    kinds: dict = {}
    for reason, count in tally.reasons.items():
        kind = reason.split(": ", 1)[1]
        kinds[kind] = kinds.get(kind, 0) + count / rounds
    return kinds


def _check(workload, outcomes, rounds: int):
    tally = tally_outcomes(outcomes, workload.judge)
    kinds = _failure_kinds(tally, rounds)
    known = KNOWN_FAILURES[workload.name]
    failures = {"fail_frac": tally.fail_frac,
                "kinds_per_round": kinds,
                "seed_commit_kinds_per_round": known,
                "matches_seed_commit": kinds == known,
                "reasons": tally.reasons}
    return tally, workload.extras(), failures


def _typical_round(medians: list, ok_per_round: float, tail_p: float) -> dict:
    """Metrics of a round with each operation at its median time."""
    return {"ops_per_s": ok_per_round / sum(medians),
            "op_p50_ms": percentile(medians, 50) * 1e3,
            "op_tail_ms": percentile(medians, tail_p) * 1e3}


def end_to_end(workload, seed: int, seconds: float) -> dict:
    probes = _setup_times(workload.name, seed)
    start = time.perf_counter()
    workload.load()
    workload.build(seed)
    inproc_setup = time.perf_counter() - start
    workload.prepare()

    labels = len(workload.ops)
    calibration = ((calibration_child, CHILD_CALIBRATION_S) if workload.children
                   else (calibration_job, CALIBRATION_S))
    outcomes, wall, rounds = timed_loop(workload.ops, seconds,
                                        min_rounds(labels, workload.tail_p), *calibration)
    rss = peak_rss_mb()
    tally, extras, failures = _check(workload, outcomes, rounds)

    ok_per_round = (tally.attempted - tally.failed) / rounds
    scaled = label_medians(outcomes)
    metrics = _typical_round(list(scaled.values()), ok_per_round, workload.tail_p)
    metrics["setup_s"] = statistics.median(p[0] for p in probes)
    metrics["peak_rss_mb"] = extras.get("child_peak_rss_mb", rss)
    raw = _typical_round(list(label_medians(outcomes, scaled=False).values()), ok_per_round,
                         workload.tail_p)
    raw["setup_s"] = statistics.median(p[1] for p in probes)
    report = {"fail_frac": {"value": tally.fail_frac, "unit": "1"}}
    if "omega_err_max" in extras:
        report["omega_err_max"] = {"value": extras["omega_err_max"], "unit": "1"}
    return {"tally": tally, "metrics": metrics, "units": E2E_UNITS,
            "report": {**report,
                       "op_tail": {"percentile": workload.tail_p, "samples": len(outcomes),
                                   "beyond": beyond(labels, workload.tail_p) * rounds},
                       "raw": raw, "speed": statistics.median(o.scale for o in outcomes),
                       "op_medians_ms": {k: v * 1e3 for k, v in scaled.items()},
                       "rounds": rounds, "loop_s": wall,
                       "setup_samples_s": probes, "setup_in_process_s": inproc_setup,
                       "failures": failures}}


def _interpreter_times(repeats: int = 3) -> tuple:
    """Median seconds of a bare interpreter start and of importing tropeig.cli."""
    env = dict(os.environ, PYTHONPATH="src")

    def start():
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        return time.perf_counter() - t0

    def imp():
        code = ("import time; t = time.perf_counter(); import tropeig.cli; "
                "print(time.perf_counter() - t)")
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True)
        return float(out.stdout)

    return (statistics.median(start() for _ in range(repeats)),
            statistics.median(imp() for _ in range(repeats)))


def traced(workload, seed: int, seconds: float) -> dict:
    workload.load()
    bits = {"max": 0}
    with Tracer() as setup_tracer:
        setup_tracer.install(layers.span_targets(bits))
        workload.build(seed)
    models_setup = layers.models_inclusive(setup_tracer.spans)
    workload.prepare()
    ops = workload.trace_ops()
    profile = layers.profile_round(ops)  # first, so it also warms lazy set-up

    outcomes, _, _ = timed_loop(ops, 0.0, 1)  # one round, checked
    tally, extras, failures = _check(workload, outcomes, 1)

    # untraced and traced rounds alternate, so both see the same machine
    targets = layers.span_targets(bits)
    bits["max"] = 0
    tracer = Tracer()
    untraced_wall = traced_wall = 0.0
    rounds, start = 0, time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        untraced_wall += run_rounds(ops, 1)
        with tracer:
            tracer.install(targets)
            traced_wall += run_rounds(ops, 1)
        rounds += 1
    spans = tracer.spans
    per_round = layers.pass_metrics(spans, rounds, BRAID_STEPS, bits["max"])
    layer_self = per_round.pop("layers_self_s")
    python_start, import_cli = _interpreter_times()

    untraced_s, traced_s = untraced_wall / rounds, traced_wall / rounds
    metrics = dict(profile)
    metrics.update(per_round)
    metrics.update({
        "numeric.omega_err_max": extras.get("omega_err_max", 0.0),
        "models.build_s": models_setup + layers.models_inclusive(spans) / rounds,
        "cli.main_s": untraced_s / len(ops) if workload.name == "cli" else 0.0,
        "cli.python_start_s": python_start,
        "cli.import_s": import_cli,
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.remainder_s": traced_s - sum(layer_self.values()),
    })
    metrics = {name: metrics[name] for name in layers.PER_LAYER}

    WORK.mkdir(parents=True, exist_ok=True)
    spans_path = WORK / f"spans-{workload.name}-{seed}.json"
    spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "raised"],
                                      "spans": spans}))
    return {"tally": tally, "metrics": metrics, "units": layers.PER_LAYER,
            "report": {"rounds": rounds, "layers_self_s_per_round": layer_self,
                       "spans": len(spans), "spans_file": str(spans_path.relative_to(ROOT)),
                       "failures": failures}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tropeig" / "__init__.py").is_file():
        print(f"error: no tropeig sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment(ROOT)
    # one CPU for the benchmark and its children, so that the calibration
    # job runs where the operations run
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workload = WORKLOADS[args.workload]()
    run = (traced if args.trace else end_to_end)(workload, args.seed, args.seconds)
    tally = run["tally"]
    correct = tally.mismatched == 0

    for name, value in run["metrics"].items():
        print(f"{args.workload:12s} {name:28s} {value:14.6g} {run['units'][name]}")
    for name in ("fail_frac", "omega_err_max"):
        if name in run["report"]:
            print(f"{args.workload:12s} {name:28s} {run['report'][name]['value']:14.6g} 1")
    print(json.dumps({"report": {"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "seconds": args.seconds,
                                 "inputs": workload.inputs, "env": env,
                                 **run["report"]}}, default=str))
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {name: {"value": value, "unit": run["units"][name]}
                                  for name, value in run["metrics"].items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
