"""Tests for the benchmark's own pieces: the scenario generator, span
self-time arithmetic, the host-speed gauge, and the metric names
BENCHMARK.json declares.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

from gen import SHAPES, generate, generate_all  # noqa: E402
from spans import NO_PARENT, Tracer, instrument, self_times  # noqa: E402


@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_generator_is_byte_identical_for_a_seed(workload):
    assert generate_all(workload, 7) == generate_all(workload, 7)
    assert generate(workload, 7) != generate(workload, 8)
    assert generate(workload, 7, 0) != generate(workload, 7, 1)


def test_generator_output_does_not_depend_on_the_process():
    def run(hashseed):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        return subprocess.run(
            [sys.executable, str(BENCH / "gen.py"), "twin-rehearsal", "3", "0"],
            env=env, capture_output=True, check=True,
        ).stdout

    assert run("0") == run("12345") == generate("twin-rehearsal", 3).encode()


@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_generated_scenarios_pass_validation(workload):
    from sdcps.scenario import parse_scenario

    shape = SHAPES[workload]
    for seed in range(3):
        scenario = parse_scenario(generate(workload, seed))
        assert len(scenario.nodes) == shape.side ** 2
        assert len(scenario.flows) == shape.flows
        for f in scenario.flows:
            (ra, ca), (rb, cb) = (divmod(f[k], shape.side) for k in ("origin", "dest"))
            assert abs(ra - rb) + abs(ca - cb) == shape.distance
        assert len({f["node"] for f in scenario.faults}) == shape.faults
        assert (scenario.dag is not None) == shape.dag


def test_self_time_subtracts_only_direct_children():
    # root [0, 10] has children [1, 3] and [4, 8]; [5, 6] is a grandchild
    start = [0.0, 1.0, 4.0, 5.0]
    end = [10.0, 3.0, 8.0, 6.0]
    parent = [NO_PARENT, 0, 0, 2]
    assert self_times(start, end, parent) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_clips_children_to_the_parent_interval():
    start = [2.0, 1.0]
    end = [4.0, 3.0]
    assert self_times(start, end, [NO_PARENT, 0]) == [1.0, 2.0]


class _Layer:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


def test_tracer_nests_spans_counts_calls_and_restores_originals():
    original = _Layer.inner
    tracer = Tracer()
    with instrument(tracer, [
        (_Layer, "outer", "layer.outer"),
        (_Layer, "inner", "layer.inner", lambda result: result),
    ]):
        tracer.begin_op("tick:1")
        assert _Layer().outer(3) == 7
        tracer.begin_op("rehearsal:0")
        assert _Layer().inner(5) == 10
    assert _Layer.inner is original
    assert list(tracer.parent) == [NO_PARENT, 0, NO_PARENT]
    assert [tracer.ops[i] for i in tracer.in_op] == ["tick:1", "tick:1", "rehearsal:0"]
    assert tracer.tallies == {"layer.inner": {"tick": 6, "rehearsal": 10}}
    totals = tracer.totals()
    assert totals["layer.outer"][0] == 1 and totals["layer.inner"][0] == 2
    own = tracer.self_times()
    outer_duration = tracer.end[0] - tracer.start[0]
    inner_duration = tracer.end[1] - tracer.start[1]
    assert own[0] == pytest.approx(outer_duration - inner_duration)
    assert sum(s for s in own) <= (tracer.end[2] - tracer.start[0])


def test_gauge_kernel_is_fixed_work():
    from gauge import kernel

    assert kernel() == kernel() == 1533


def test_gauge_scales_by_the_median_of_the_samples_around_an_operation():
    from gauge import GAUGE_WINDOW, REF_S, Gauge

    assert GAUGE_WINDOW == 3
    gauge = Gauge()
    gauge.samples = [1.0, 2.0, 2.0, 4.0, 8.0, 8.0, 8.0, 8.0]
    # after 0 samples: samples[0:3] -> median 2
    assert gauge.scale_at(0) == pytest.approx(REF_S / 2.0)
    # after 4 samples: samples[1:7] -> median (4 + 8) / 2
    assert gauge.scale_at(4) == pytest.approx(REF_S / 6.0)
    # past the last sample: samples[5:] -> median 8
    assert gauge.scale_at(8) == pytest.approx(REF_S / 8.0)


def test_gauge_samples_at_most_every_interval(monkeypatch):
    import gauge as gauge_mod

    monkeypatch.setattr(gauge_mod, "GAUGE_EVERY", 3600.0)
    gauge = gauge_mod.Gauge()
    gauge.maybe()
    gauge.maybe()
    assert len(gauge.samples) == 1 and gauge.samples[0] > 0


def test_reported_metric_names_match_benchmark_json():
    from harness import run_pass, traced_pass
    from run import end_to_end, per_layer

    doc = json.loads(generate("twin-rehearsal", 0))
    doc["horizon"] = 8  # rehearsals after ticks 6 and 8 only
    texts = [json.dumps(doc)]
    untraced = run_pass("twin-rehearsal", 0, texts, 2)
    traced = traced_pass("twin-rehearsal", 0, texts)
    assert len(untraced.setup_s) == 2 and len(untraced.rehearsal_s) == 2
    assert untraced.gauge.samples and traced.gauge.samples
    assert untraced.stats == [
        {k: v for k, v in s.items() if k != "unit_hops"} for s in traced.stats
    ]

    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = end_to_end([untraced], traced.total("unit_hops"), 1.0)
    assert {m["name"] for m in declared["end_to_end"]} == {
        k for k in e2e if not k.startswith("rehearsal_")
    }
    assert [m["name"] for m in declared["per_layer"]] == list(per_layer(traced, 1.0))
    assert all(e2e[m["name"]][1] == m["unit"] for m in declared["end_to_end"])
