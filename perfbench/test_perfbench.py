"""The benchmark's own tests: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def test_metric_names_use_only_allowed_characters(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))


def test_end_to_end_metrics_have_unit_direction_and_bound(spec):
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
        assert run.END_TO_END[metric["name"]] == metric["unit"]
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_workloads_and_per_layer_metrics_match_the_runner(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.PREPARE)
    empty = {"self_ns": {}, "counts": {}, "timer_ns": {}, "clusters": [],
             "root_ns": 0, "telemetry_events": 0, "telemetry_dropped": 0}
    reported = tracing.layer_metrics(empty, 2.0, 1.0, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_value, unit) in reported.items()}


def test_digest_check_trips_on_a_perturbed_output():
    fields = {"packets": 2098354, "execution_ns": 11306243143,
              "timeouts": 90}
    reference = workloads.digest(fields)
    assert workloads.digest(dict(fields)) == reference
    perturbed = workloads.digest(dict(fields, timeouts=91))
    assert perturbed != reference
    reps = [{"digest": reference, "attempted": 8192, "failed": 0},
            {"digest": perturbed, "attempted": 8192, "failed": 0}]
    assert run.count_failed(reps[:1], reference) == 0
    assert run.count_failed(reps, reference) == 8192


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_arithmetic_on_nested_spans():
    tracer = tracing.Tracer("test", span_dir=".")
    clock = FakeClock()
    tracer._clock = clock

    def leaf():            # layer a again, 10 ns
        clock.now += 10

    def middle():          # layer b: 5 ns, leaf, 15 ns
        clock.now += 5
        tracer.span("a", "leaf", leaf, (), {})
        clock.now += 15

    def same_layer():      # layer a inside a: no span of its own
        clock.now += 7

    wrapped_same = tracer.wrap(same_layer, "a")

    def outer():           # layer a: 20 ns, middle, same-layer call, 3 ns
        clock.now += 20
        tracer.span("b", "middle", middle, (), {})
        wrapped_same()
        clock.now += 3

    tracer.span("a", "outer", outer, (), {})
    # a: 20 + 10 (leaf) + 7 + 3; b: 5 + 15
    assert dict(tracer.self_ns) == {"a": 40, "b": 20}
    assert tracer.root_ns == 60
    assert dict(tracer.spans) == {"a": 2, "b": 1}
    offline = tracing.self_time_ns(
        [(span_id, parent, layer, start, end)
         for span_id, parent, layer, _name, start, end, _run
         in tracer.sample])
    assert offline == dict(tracer.self_ns)


def test_counted_wrapper_times_only_the_outermost_call():
    tracer = tracing.Tracer("test", span_dir=".")
    clock = FakeClock()
    tracer._clock = clock

    def setup(depth):
        clock.now += 4
        if depth:
            counted(depth - 1)

    counted = tracer.wrap_counted(setup, "verbs", "calls", timer="setup")
    counted(2)
    assert tracer.counts["calls"] == 3
    assert tracer.timer_ns["setup"] == 12


def test_layer_of_uses_the_longest_prefix():
    assert tracing.layer_of("repro.sim.future") == "sim.future"
    assert tracing.layer_of("repro.sim.engine") == "sim"
    assert tracing.layer_of("repro.apps.spark.fleet") == "parallel"
    assert tracing.layer_of("repro.apps.spark.engine") == "spark"
    assert tracing.layer_of("repro.ib.odp.coordinator") == "odp"
    assert tracing.layer_of("repro.ib.verbs.pd") == "verbs"
    assert tracing.layer_of("repro.report") == "app"


def test_coverage_leaves_out_the_catch_all_layer():
    agg = {"self_ns": {"sim": 60, "transport": 20, tracing.CATCH_ALL: 15,
                       tracing.ROOT: 3, tracing.OVERHEAD: 2},
           "counts": {}, "timer_ns": {}, "clusters": [], "root_ns": 100,
           "telemetry_events": 0, "telemetry_dropped": 0}
    metrics = tracing.layer_metrics(agg, 2.0, 1.0, 0.0)
    assert metrics["trace.coverage"][0] == pytest.approx(0.80)
    assert metrics["app.self_s"][0] == pytest.approx(15e-9)
