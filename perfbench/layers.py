"""Per-layer metrics from a traced pass and a cProfile pass.

Layers are named after the modules in src/tropeig.  Spans are named
``<layer>.<public function>``; the functions wrapped are the layer's public
entry points, so a layer's self time is time spent in its own code and in
private helpers below it, not in another traced layer.  ``exact`` (L0) and
``poly`` (L1) calls are too fine-grained for one span each: they get call
counts and a self-time share from one profiled round instead.

Every time and count is given per round of the workload's fixed operation
mix, so a run of any length reports the same work.
"""

from __future__ import annotations

import cProfile
import importlib
import inspect
import pstats
from typing import Dict, List

from spans import END, NAME, RAISED, START, ancestor, self_times

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "exact.new_count": "count",
    "exact.mul_count": "count",
    "exact.add_count": "count",
    "exact.profile_share": "1",
    "exact.fraction_share": "1",
    "poly.mul_count": "count",
    "poly.add_count": "count",
    "poly.profile_share": "1",
    "charpoly.direct_calls": "count",
    "charpoly.direct_self_s": "s",
    "charpoly.coeff_bits_max": "bits",
    "charpoly.traces_calls": "count",
    "charpoly.traces_self_s": "s",
    "tropical.calls": "count",
    "tropical.self_s": "s",
    "numeric.roots_calls": "count",
    "numeric.aberth_self_s": "s",
    "numeric.track_self_s": "s",
    "numeric.fit_self_s": "s",
    "numeric.braid_self_s": "s",
    "numeric.braid_extra_evals": "count",
    "numeric.errors": "count",
    "numeric.omega_err_max": "1",
    "jordan.catalog_self_s": "s",
    "jordan.catalog_charpolys": "count",
    "jordan.weyr_self_s": "s",
    "models.build_s": "s",
    "serialize.self_s": "s",
    "cli.self_s": "s",
    "cli.main_s": "s",
    "cli.python_start_s": "s",
    "cli.import_s": "s",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
    "trace.remainder_s": "s",
}

SPAN_FUNCTIONS = {
    "charpoly": ("charpoly_direct", "charpoly_traces"),
    "tropical": ("tropicalize", "newton_polygon", "tropical_roots"),
    "numeric": ("aberth_roots", "track_eigenvalues", "fit_exponents", "braid_loop"),
    "jordan": ("catalog_families", "weyr_structure"),
    "cli": ("main",),
}
WHOLE_MODULE = ("models", "serialize")  # every public function is a span


def coeff_bits(cp) -> int:
    """Largest numerator or denominator bit length in a CharPoly."""
    best = 0
    for coeff in cp.coeffs:
        for c in coeff.terms.values():
            for f in (c.re, c.im, c.sre, c.sim):
                best = max(best, abs(f.numerator).bit_length(), f.denominator.bit_length())
    return best


def span_targets(bits: Dict[str, int]) -> dict:
    """Span name -> (function, result hook) for every traced entry point."""

    def record_bits(cp):
        bits["max"] = max(bits["max"], coeff_bits(cp))

    targets = {}
    for layer, names in SPAN_FUNCTIONS.items():
        mod = importlib.import_module(f"tropeig.{layer}")
        for fn in names:
            hook = record_bits if layer == "charpoly" else None
            targets[f"{layer}.{fn}"] = (getattr(mod, fn), hook)
    for layer in WHOLE_MODULE:
        mod = importlib.import_module(f"tropeig.{layer}")
        for fn_name, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not fn_name.startswith("_")):
                targets[f"{layer}.{fn_name}"] = (fn, None)
    return targets


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def span_summary(spans: List[list]) -> dict:
    """Per span name: calls, self seconds and raised count."""
    out: Dict[str, dict] = {}
    for s, self_s in zip(spans, self_times(spans)):
        d = out.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "raised": 0})
        d["calls"] += 1
        d["self_s"] += self_s
        d["raised"] += s[RAISED]
    return out


def layer_self(summary: dict) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name, d in summary.items():
        out[layer_of(name)] = out.get(layer_of(name), 0.0) + d["self_s"]
    return out


def _is_models(name: str) -> bool:
    return layer_of(name) == "models"


def models_inclusive(spans: List[list]) -> float:
    """Time inside outermost model-builder calls."""
    return sum(s[END] - s[START] for i, s in enumerate(spans)
               if _is_models(s[NAME]) and ancestor(spans, i, _is_models) is None)


def braid_extra_evals(spans: List[list], steps: int) -> int:
    """Root solves inside braid loops beyond the steps+1 a loop needs
    without step halving."""
    solves: Dict[int, int] = {}
    for i, s in enumerate(spans):
        if s[NAME] == "numeric.aberth_roots":
            loop = ancestor(spans, i, lambda n: n == "numeric.braid_loop")
            if loop is not None:
                solves[loop] = solves.get(loop, 0) + 1
    return sum(max(0, n - (steps + 1)) for n in solves.values())


def catalog_charpolys(spans: List[list]) -> int:
    """charpoly_traces calls made inside catalog_families."""
    return sum(1 for i, s in enumerate(spans) if s[NAME] == "charpoly.charpoly_traces"
               and ancestor(spans, i, lambda n: n == "jordan.catalog_families") is not None)


def profile_round(ops) -> dict:
    """Call counts and self-time shares of L0/L1 over one profiled round."""
    prof = cProfile.Profile()
    prof.enable()
    for _, fn in ops:
        try:
            fn()
        except Exception:
            pass  # failures are counted in the untraced pass
    prof.disable()
    stats = pstats.Stats(prof).stats
    total = sum(v[2] for v in stats.values()) or 1.0

    def calls(module_file: str, func: str) -> int:
        return sum(v[1] for (f, _, fn), v in stats.items()
                   if f.endswith(module_file) and fn == func)

    def share(module_file: str) -> float:
        return sum(v[2] for (f, _, _), v in stats.items() if f.endswith(module_file)) / total

    return {"exact.new_count": calls("tropeig/exact.py", "__post_init__"),
            "exact.mul_count": calls("tropeig/exact.py", "__mul__"),
            "exact.add_count": calls("tropeig/exact.py", "__add__"),
            "exact.profile_share": share("tropeig/exact.py"),
            "exact.fraction_share": share("/fractions.py"),
            "poly.mul_count": calls("tropeig/poly.py", "__mul__"),
            "poly.add_count": calls("tropeig/poly.py", "__add__"),
            "poly.profile_share": share("tropeig/poly.py")}


def pass_metrics(spans: List[list], rounds: int, steps: int, bits: int) -> dict:
    """Per-round layer metrics from the spans of one traced pass."""
    summ = span_summary(spans)

    def calls(name):
        return summ.get(name, {}).get("calls", 0) / rounds

    def self_s(name):
        return summ.get(name, {}).get("self_s", 0.0) / rounds

    def layer_calls(layer):
        return sum(d["calls"] for n, d in summ.items() if layer_of(n) == layer) / rounds

    layers = layer_self(summ)
    return {
        "charpoly.direct_calls": calls("charpoly.charpoly_direct"),
        "charpoly.direct_self_s": self_s("charpoly.charpoly_direct"),
        "charpoly.coeff_bits_max": bits,
        "charpoly.traces_calls": calls("charpoly.charpoly_traces"),
        "charpoly.traces_self_s": self_s("charpoly.charpoly_traces"),
        "tropical.calls": layer_calls("tropical"),
        "tropical.self_s": layers.get("tropical", 0.0) / rounds,
        "numeric.roots_calls": calls("numeric.aberth_roots"),
        "numeric.aberth_self_s": self_s("numeric.aberth_roots"),
        "numeric.track_self_s": self_s("numeric.track_eigenvalues"),
        "numeric.fit_self_s": self_s("numeric.fit_exponents"),
        "numeric.braid_self_s": self_s("numeric.braid_loop"),
        "numeric.braid_extra_evals": braid_extra_evals(spans, steps) / rounds,
        "numeric.errors": sum(summ.get(n, {}).get("raised", 0) for n in
                              ("numeric.fit_exponents", "numeric.braid_loop")) / rounds,
        "jordan.catalog_self_s": self_s("jordan.catalog_families"),
        "jordan.catalog_charpolys": catalog_charpolys(spans) / rounds,
        "jordan.weyr_self_s": self_s("jordan.weyr_structure"),
        "serialize.self_s": layers.get("serialize", 0.0) / rounds,
        "cli.self_s": layers.get("cli", 0.0) / rounds,
        "layers_self_s": {k: v / rounds for k, v in sorted(layers.items())},
    }
