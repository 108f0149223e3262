"""Telemetry reuses a reporter's probes until a health change drops them.

Each scenario runs twice, side by side: once with `World._telemetry` and
once with `tests/conftest.py::reference_telemetry`, which probes every
neighbour afresh on every tick. Every tick must send the same reports and
leave the RNG in the same state.
"""

from pathlib import Path

import pytest

from sdcps import Decision, Health, parse_scenario
from sdcps.scenario import build_world

from conftest import record_reports, reference_telemetry

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


def with_reference_telemetry(world):
    world._telemetry = lambda t: reference_telemetry(world, t)
    return world


@pytest.mark.parametrize("make", [malicious, congested_then_repaired, rehearsal_with_repair])
def test_reused_probes_send_what_fresh_probes_send(make, monkeypatch):
    world, reference = make(), with_reference_telemetry(make())
    sent = record_reports(monkeypatch)
    reused = 0
    for _ in range(30):
        world.tick()
        reference.tick()
        assert sent[world.farm] == sent[reference.farm]
        assert world.rng.getstate() == reference.rng.getstate()
        reused += sum(r.neighbor_observations is world.topology.probes.get(r.reporter)
                      for r in sent[world.farm])
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
