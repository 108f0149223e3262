"""Southbound telemetry: probes and each domain's batch reused until a
health change drops a probe, and one bus message per domain per tick.

Each scenario runs twice, side by side: once with `World._telemetry` and
once with `tests/conftest.py::reference_telemetry`, which probes every
neighbour afresh on every tick. Every tick must send the same reports and
leave the RNG in the same state.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from sdcps import Bus, Decision, Health, SliceTable, Topology, parse_scenario
from sdcps.controller import LOSS, Controller, HealthEstimate, HealthMonitor, Verdict
from sdcps.farm import Farm
from sdcps.scenario import build_world, run_scenario

from conftest import make_node, record_reports, reference_telemetry

TESTS = Path(__file__).parent


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


def test_southbound_telemetry_is_one_message_per_domain_per_tick(monkeypatch):
    """Each reporting domain publishes one message a tick, and the next tick
    hands each of them whole to `Controller.ingest_report`, the entry point
    the benchmark traces."""
    world = fixture_world("golden/federated-admission-2-0.json")
    farm, bus = world.farm, world.bus
    domains = len(farm.controllers)
    sent = record_reports(monkeypatch)
    ingested = []
    ingest_report = Controller.ingest_report

    def counting_ingest(self, entries, tick):
        ingested.append(tick)
        return ingest_report(self, entries, tick)

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
        assert ingested == [world.now - 1] * reported_before
        reported_before = len(reporting)
        sent.clear()
        ingested.clear()


def test_a_stale_report_in_a_batch_drops_only_itself():
    topo = Topology()
    for i in range(5):
        topo.add_node(make_node(i))
    for i in range(4):
        topo.add_link(i, i + 1, 1, 1)
    bus = Bus()
    farm = Farm(topo, SliceTable(topo), bus, window=1)
    farm.register_domain(0, range(5))
    farm.send_reports(0, tuple(
        (r, tuple((n, 1) for n in topo.neighbors(r))) for r in range(5)), 1)
    assert farm.receive(bus.deliver_up_to(2)) == []

    # reporter 3's latest becomes tick 2, so its entry in the tick-2 batch is stale
    assert farm.controllers[0].ingest_report(((3, ((2, 1), (4, 1))),), 2) == []
    farm.send_reports(0, (
        (1, ((2, LOSS),)),
        (2, ((1, LOSS),)),
        (3, ((4, LOSS),)),
        (4, ((3, LOSS),)),
    ), 2)
    assert farm.report_count == 9
    failed = Verdict.SUSPECT_FAILED
    assert farm.receive(bus.deliver_up_to(3)) == [
        (0, HealthEstimate(2, failed)),
        (0, HealthEstimate(1, failed)),
        (0, HealthEstimate(3, failed)),
    ]
    assert farm.controllers[0].monitor.estimates() == {1: failed, 2: failed, 3: failed}


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
