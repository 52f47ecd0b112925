"""Tests of the benchmark's own logic.

Run with: python3 -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import pytest

import layers
from metrics import (Outcome, beyond, label_medians, min_rounds, percentile, same_output,
                     tally_outcomes, timed_loop)
from spans import END, NAME, PARENT, START, Tracer, ancestor, self_times
from workloads import WORKLOADS


# -- tail percentile ----------------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond():
    # percentiles are taken over the per-operation medians of a fixed mix;
    # each operation beyond the percentile contributes one sample per round
    assert beyond(4, 50) == 2 and min_rounds(4, 50) == 5
    assert beyond(48, 90) == 5 and min_rounds(48, 90) == 2
    assert beyond(3, 90) == 1 and min_rounds(3, 90) == 10
    assert beyond(6, 50) == 3 and min_rounds(6, 50) == 4
    assert beyond(100, 90) == 10


def test_label_medians_resist_one_slow_round():
    rounds = [[("a", 1.0), ("b", 2.0)], [("a", 1.1), ("b", 2.1)], [("a", 5.0), ("b", 9.0)]]
    outcomes = [Outcome(label, t) for r in rounds for label, t in r]
    assert label_medians(outcomes) == {"a": 1.1, "b": 2.1}


def test_percentile_interpolates_and_matches_median():
    xs = [float(x) for x in range(1, 21)]
    assert percentile(xs, 50) == pytest.approx(10.5)
    assert percentile(xs, 0) == 1.0 and percentile(xs, 100) == 20.0
    # with whole rounds of a fixed mix the p50 position never moves between classes
    for rounds in (5, 6, 7):
        mix = [1.0, 2.0, 3.0, 4.0] * rounds
        assert percentile(mix, 50) == pytest.approx(2.5)


# -- spans and self time --------------------------------------------------------

def test_self_time_subtracts_nested_children():
    # root 0..10 with children 1..3 and 4..8; the second has a child 5..6
    spans = [["a", 0.0, 10.0, None, False],
             ["b", 1.0, 3.0, 0, False],
             ["c", 4.0, 8.0, 0, False],
             ["d", 5.0, 6.0, 2, False]]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])
    # self times partition the root's duration
    assert sum(self_times(spans)) == pytest.approx(10.0)
    assert ancestor(spans, 3, lambda n: n == "a") == 0
    assert ancestor(spans, 1, lambda n: n == "c") is None


def test_tracer_records_parent_and_raised():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda: traced_inner(1) + traced_inner(2))
    assert outer() == 3
    with pytest.raises(ValueError):
        traced_inner(-1)
    names = [s[NAME] for s in tracer.spans]
    assert names == ["outer", "inner", "inner", "inner"]
    assert [s[PARENT] for s in tracer.spans] == [None, 0, 0, None]
    assert [s[4] for s in tracer.spans] == [False, False, False, True]
    assert all(s[END] >= s[START] for s in tracer.spans)


# -- failure accounting ------------------------------------------------------------

def test_fail_frac_counts_raised_mismatched_and_changed_ops():
    calls = {"drift": 0}

    def boom():
        raise RuntimeError("refused")

    def drift():
        calls["drift"] += 1
        return 1 if calls["drift"] == 1 else 3

    ops = [("good", lambda: 1), ("bad", lambda: 2), ("boom", boom), ("drift", drift)]
    outcomes, wall, rounds = timed_loop(ops, 0.0, 2)
    assert rounds == 2 and len(outcomes) == 8 and wall >= 0
    assert all(o.scale > 0 for o in outcomes)
    # only first outputs are kept; repeats are compared with them at once
    assert [o.same for o in outcomes] == [None, None, None, None, True, True, None, False]
    assert outcomes[4].result is None

    def judge(label, result):
        return ([] if result == 1 else [f"{label}: wrong"]), True

    tally = tally_outcomes(outcomes, judge)
    assert (tally.attempted, tally.failed, tally.mismatched) == (8, 5, 3)
    assert tally.fail_frac == pytest.approx(5 / 8)
    assert tally.reasons == {"bad: wrong": 2, "boom: raised RuntimeError": 2,
                             "drift: output differs from its first round": 1}


def test_same_output_compares_exceptions_by_type_and_args():
    assert same_output((1, ValueError("x")), (1, ValueError("x")))
    assert not same_output((1, ValueError("x")), (1, ValueError("y")))
    assert not same_output([1, 2], (1, 2))


# -- wrappers reach every binding site ------------------------------------------------

def test_wrappers_intercept_calls_from_numeric_and_jordan():
    import tropeig.charpoly
    import tropeig.jordan
    import tropeig.numeric
    from tropeig.models import hatano_nelson

    originals = (tropeig.charpoly.charpoly_direct, tropeig.numeric.charpoly_direct,
                 tropeig.jordan.charpoly_traces, tropeig.jordan.tropical_roots)
    bits = {"max": 0}
    with Tracer() as tracer:
        assert tracer.install(layers.span_targets(bits)) > 0
        tropeig.numeric.fit_exponents(hatano_nelson(3, "unidirectional"))
        tropeig.jordan.catalog_families(2)
    spans = tracer.spans
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)
    # numeric binds charpoly_direct by name; the call made inside fit_exponents is seen
    direct = by_name["charpoly.charpoly_direct"]
    assert any(ancestor(spans, i, lambda n: n == "numeric.fit_exponents") is not None
               for i in direct)
    assert by_name["numeric.aberth_roots"]
    # jordan binds charpoly_traces by name; its calls nest under catalog_families
    assert layers.catalog_charpolys(spans) == len(by_name["charpoly.charpoly_traces"]) > 0
    assert bits["max"] > 0
    # uninstalling restores every binding
    assert (tropeig.charpoly.charpoly_direct, tropeig.numeric.charpoly_direct,
            tropeig.jordan.charpoly_traces, tropeig.jordan.tropical_roots) == originals


def test_wrappers_reach_the_example_registry():
    import tropeig.models

    original = tropeig.models.BUILDERS["hatano_nelson"]
    with Tracer() as tracer:
        tracer.install(layers.span_targets({"max": 0}))
        tropeig.models.build_example("hatano_nelson", L=3, regime="obc")
    assert [s[NAME] for s in tracer.spans][:2] == ["models.build_example", "models.hatano_nelson"]
    assert tropeig.models.BUILDERS["hatano_nelson"] is original


def test_braid_extra_evals_counts_only_halving_work():
    spans = [["numeric.braid_loop", 0.0, 1.0, None, False]]
    spans += [["numeric.aberth_roots", 0.1, 0.2, 0, False] for _ in range(5)]
    assert layers.braid_extra_evals(spans, steps=3) == 1
    assert layers.braid_extra_evals(spans, steps=4) == 0


# -- the benchmark description matches the code ---------------------------------------

def test_benchmark_json_lists_every_metric_the_code_reports():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    import run
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
