"""Southbound telemetry: probes and each domain's batch reused until a
health change drops a probe, and one bus message per domain per tick.

Each scenario runs twice, side by side: once with `World._telemetry` and
once with `tests/conftest.py::reference_telemetry`, which probes every
neighbour afresh on every tick. Every tick must send the same reports and
leave the RNG in the same state.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from sdcps import Bus, Decision, Health, Topology, parse_scenario, spawn_twin
from sdcps.controller import Controller, HealthMonitor
from sdcps.scenario import build_world, run_scenario

from conftest import record_reports, reference_telemetry

TESTS = Path(__file__).parent
sys.path.insert(0, str(TESTS.parent / "perfbench"))

import harness  # noqa: E402


def fixture_world(name):
    return build_world(parse_scenario((TESTS / name).read_text()))


def malicious():
    return fixture_world("fixtures/malicious.json")


def congested_then_repaired():
    """Node 1 turns congested at t=3; a committed repair heals it at t=10."""
    world = fixture_world("fixtures/congested.json")
    world.run(9)
    world.pending_commits.append(Decision.inject_repair(1))
    return world


def rehearsal_with_repair():
    """Three domains with failed nodes; a committed repair heals node 7 at t=41."""
    world = fixture_world("golden/twin-rehearsal-2-0.json")
    world.run(40)
    world.pending_commits.append(Decision.inject_repair(7))
    return world


def interleaved_domains():
    """A ring 0-1-2-3-0 whose domains interleave: domain 0 holds {1, 2},
    domain 1 holds {0, 3}. Malicious node 1 makes its neighbours draw the
    RNG in node order 0, 2, which is not domain order (2, then 0)."""
    doc = {
        "seed": 5, "horizon": 30,
        "nodes": [{"id": i, "kind": "smart_device", "compute": 1} for i in range(4)],
        "links": [{"a": a, "b": b, "latency": 1, "capacity": 2}
                  for a, b in ((0, 1), (1, 2), (2, 3), (0, 3))],
        "domains": [{"id": 0, "nodes": [1, 2]}, {"id": 1, "nodes": [0, 3]}],
        "tenants": [{"id": 0, "priority": "silver", "share": 1,
                     "links": [[0, 1], [1, 2], [2, 3], [0, 3]]}],
        "flows": [{"tenant": 0, "origin": 0, "dest": 2, "units": 6, "start": 0}],
        "faults": [{"tick": 2, "node": 1, "health": {"kind": "malicious", "drop_prob": 0.5}}],
    }
    return build_world(parse_scenario(json.dumps(doc)))


def with_reference_telemetry(world):
    world._telemetry = lambda t: reference_telemetry(world, t)
    return world


@pytest.mark.parametrize(
    "make", [malicious, congested_then_repaired, rehearsal_with_repair, interleaved_domains])
def test_reused_probes_send_what_fresh_probes_send(make, monkeypatch):
    world, reference = make(), with_reference_telemetry(make())
    sent = record_reports(monkeypatch)
    reused = 0
    for _ in range(30):
        world.tick()
        reference.tick()
        assert sent[world.farm] == sent[reference.farm]
        assert world.rng.getstate() == reference.rng.getstate()
        reused += sum(obs is world.topology.probes.get(r) for r, _tick, obs in sent[world.farm])
        sent.clear()
    assert reused
    assert world.trace_hash() == reference.trace_hash()


def test_a_health_change_in_a_twin_leaves_the_worlds_reports_alone(monkeypatch):
    world, reference = malicious(), malicious()
    world.run(5)
    reference.run(5)
    twin = world.fork()
    twin.apply_health(2, Health.congested(4.0))
    twin.run(3)
    sent = record_reports(monkeypatch)
    for _ in range(5):
        world.tick()
        reference.tick()
    assert sent[world.farm] == sent[reference.farm]
    assert world.trace_hash() == reference.trace_hash()


def check_reports_ride_the_bus_in_order(monkeypatch):
    """Wrap `Bus.deliver_up_to`, which only `World.tick` calls, on every bus:
    each delivered report carries the tick before the delivering one,
    there is at most one per domain topic, and no reporter appears twice
    in one. `HealthMonitor.ingest` keeps no per-reporter tick because of
    this order. Return the record: (bus, reports delivered) per call."""
    deliver, record = Bus.deliver_up_to, []

    def checked(bus, tick):
        delivered = deliver(bus, tick)
        reports = [m for m in delivered if m.topic.startswith("south/")]
        assert len({m.topic for m in reports}) == len(reports)
        for msg in reports:
            reporters = [reporter for reporter, _obs in msg.payload]
            assert msg.tick == tick - 1 and len(set(reporters)) == len(reporters)
        record.append((bus, len(reports)))
        return delivered

    monkeypatch.setattr(Bus, "deliver_up_to", checked)
    return record


def test_southbound_telemetry_is_one_message_per_domain_per_tick(monkeypatch):
    """Each reporting domain publishes one message a tick, and the next tick
    hands each of them whole to `Controller.ingest_report`, the entry point
    the benchmark traces."""
    world = fixture_world("golden/federated-admission-2-0.json")
    farm, bus = world.farm, world.bus
    domains = len(farm.controllers)
    sent = record_reports(monkeypatch)
    delivered = check_reports_ride_the_bus_in_order(monkeypatch)
    ingested = []
    ingest_report = Controller.ingest_report

    def counting_ingest(self, entries):
        ingested.append(entries)
        return ingest_report(self, entries)

    monkeypatch.setattr(Controller, "ingest_report", counting_ingest)
    reported_before = 0  # domains whose report rides the bus into this tick
    for _ in range(40):
        published, reports = bus.published_count, farm.report_count
        world.tick()
        digests = domains * (domains - 1) if world.now % world.options.digest_period == 0 else 0
        reporting = {farm.resolve(r) for r, _tick, _obs in sent[farm]}
        assert bus.published_count - published == len(reporting) + digests
        assert bus.published_count - published <= domains + digests
        assert farm.report_count - reports == len(sent[farm]) > domains
        assert delivered == [(bus, reported_before)] and len(ingested) == reported_before
        reported_before = len(reporting)
        sent.clear()
        delivered.clear()
        ingested.clear()


def test_reports_ride_the_bus_in_order_in_twins_and_rehearsals(monkeypatch):
    """The twin-rehearsal golden instance through the benchmark harness,
    rehearsing, so every repair branch ticks too; then a twin spawned
    mid-run ticked to the horizon beside its world, as `twin-compare`
    does."""
    delivered = check_reports_ride_the_bus_in_order(monkeypatch)
    text = (TESTS / "golden/twin-rehearsal-2-0.json").read_text()
    scenario, world, _ = harness.set_up(text)
    out = harness.PassResult()
    harness.run_instance(out, "twin-rehearsal-2-0", True, scenario, world)
    assert out.stats[0]["rehearsals"] > 0 and out.stats[0]["rehearsal_errors"] == 0
    branches = {bus for bus, _n in delivered} - {world.bus}
    assert branches and sum(n for bus, n in delivered if bus in branches) > 0
    delivered.clear()
    scenario, world, _ = harness.set_up(text)
    half = scenario.horizon // 2
    world.run(half)
    twin = spawn_twin(world)
    world.run(scenario.horizon - half)
    twin.run(scenario.horizon - half)
    assert twin.trace_hash() == world.trace_hash()
    for w, ran in ((world, scenario.horizon), (twin, scenario.horizon - half)):
        reports = [n for bus, n in delivered if bus is w.bus]
        assert len(reports) == ran and sum(reports) > 0


def test_telemetry_probes_and_ingests_only_what_changed(monkeypatch):
    """The federated-admission golden scenario, run to its horizon, probes
    at most 300 times and ingests at most 1,200 reports one by one. When
    every live node probed and every report was ingested alone on every
    tick, it made 5,916 probes and 5,819 ingests."""
    calls = Counter()
    for cls, name in ((Topology, "probe"), (HealthMonitor, "_ingest")):
        def counting(*args, _call=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _call(*args)

        monkeypatch.setattr(cls, name, counting)
    run_scenario(parse_scenario((TESTS / "golden/federated-admission-2-0.json").read_text()))
    assert 0 < calls["probe"] <= 300
    assert 0 < calls["_ingest"] <= 1200
