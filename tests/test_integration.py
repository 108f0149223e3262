"""Cross-module scenarios: federation-wide recovery, contention plus
failure, and kernel bookkeeping under longer runs."""

import json
from pathlib import Path

import pytest

from sdcps import (
    CompositionDag,
    FlowState,
    Health,
    Node,
    NodeKind,
    Priority,
    ServiceRegistry,
    Verdict,
    World,
    WorldOptions,
)
from sdcps.cli import main as cli_main
from sdcps.errors import BadParameter, CyclicDag, UnknownNode, UnknownService
from sdcps.flow_engine import CloneCase

from conftest import build_world

FIXTURES = Path(__file__).parent / "fixtures"


def test_cross_domain_failure_recovered_via_digest():
    """The victim sits in a foreign domain: the origin's controller can only
    learn about it from a westbound health digest."""
    w = World(seed=4)
    for i in range(6):
        w.add_node(Node(i, NodeKind.SMART_DEVICE, compute_capacity=1))
    lids = [
        w.add_link(0, 1, 1, 2),
        w.add_link(1, 2, 1, 2),
        w.add_link(2, 3, 1, 2),
        w.add_link(3, 4, 1, 2),
        w.add_link(4, 5, 1, 2),
        w.add_link(3, 5, 3, 2),  # standing detour around node 4
    ]
    w.register_domain(0, [0, 1, 2])
    w.register_domain(1, [3, 4, 5])
    w.allocate_slice(0, lids, 1, Priority.GOLD)
    w.finish_setup()
    w.schedule_flow(0, 0, 5, 3, 0)
    w.schedule_fault(2, 4, Health.failed())
    w.run(40)
    flow = w.engine.flows[0]
    assert flow.state is FlowState.DELIVERED
    assert flow.delivered_record == [0, 1, 2]
    assert len(w.engine.decisions) == 1
    decision = w.engine.decisions[0]
    assert decision.case_tag is CloneCase.TO_DESTINATION
    assert 4 not in decision.detour
    # digests actually carried the verdict across the domain boundary
    assert w.farm.controllers[0].peer_views[1][4] is Verdict.SUSPECT_FAILED


def test_two_tenants_both_recover_with_shares_respected(qos_grants):
    w = World(seed=6)
    for i in range(4):
        w.add_node(Node(i, NodeKind.SMART_DEVICE, compute_capacity=1))
    lids = [
        w.add_link(0, 1, 1, 4),
        w.add_link(1, 3, 1, 4),
        w.add_link(0, 2, 1, 4),
        w.add_link(2, 3, 1, 4),
    ]
    w.register_domain(0, [0, 1, 2, 3])
    w.allocate_slice(0, lids, 2, Priority.GOLD)
    w.allocate_slice(1, lids, 2, Priority.BRONZE)
    w.finish_setup()
    w.schedule_flow(0, 0, 3, 5, 0)
    w.schedule_flow(1, 0, 3, 5, 0)
    w.schedule_fault(2, 1, Health.failed())
    w.run(30)
    for fid in (0, 1):
        flow = w.engine.flows[fid]
        assert flow.state is FlowState.DELIVERED
        assert flow.delivered_record == [0, 1, 2, 3, 4]
    for requests, grants in qos_grants:
        for tenant, _prio, share, pending in requests:
            assert grants.get(tenant, 0) >= min(pending, share)
    assert w.engine.slice_violations == 0


def test_rejoin_tie_breaks_to_earliest_intermediate():
    # two equal-latency rejoin points; the earlier one on the path wins
    w = build_world(
        5,
        [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (0, 2, 4), (0, 3, 4)],
    )
    fid = w.open_flow(0, 0, 4, 2)
    assert w.engine.flows[fid].path == [0, 1, 2, 3, 4]
    d = w.engine.on_unhealthy(fid, 1, set())
    assert d.case_tag is CloneCase.REJOIN
    assert d.clone_destination == 2
    assert d.detour == [0, 2]


def test_branch_walks_back_past_suspect_nodes():
    # units progressed to node 2, but node 2 is itself suspect: the clone
    # must branch from somewhere earlier and avoid both suspects
    w = build_world(
        6,
        [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (1, 5, 5)],
        capacity=1,
    )
    fid = w.open_flow(0, 0, 5, 2)
    w.run(3)  # let the head unit progress a few hops
    flow = w.engine.flows[fid]
    assert flow.state is FlowState.ACTIVE
    d = w.engine.on_unhealthy(fid, 3, {2, 3})
    assert d.branch_point == 1
    assert set(d.detour).isdisjoint({2, 3})
    w.run(30)
    assert flow.state is FlowState.DELIVERED
    assert flow.delivered_record == [0, 1]


def test_metrics_counters_monotone():
    w = build_world(4, [(0, 1), (1, 3), (0, 2), (2, 3)], seed=2)
    w.schedule_flow(0, 0, 3, 6, 0)
    w.schedule_fault(2, 1, Health.failed())
    w.run(25)
    for field in ("delivered_units", "dropped_units", "cloned_units", "controller_messages"):
        values = [getattr(m, field) for m in w.metrics]
        assert values == sorted(values), field
    assert len(w.metrics) == 25


def test_qos_fill_order_gold_silver_bronze():
    from sdcps import qos_schedule

    grants = qos_schedule(6, [
        (0, Priority.BRONZE, 1, 5),
        (1, Priority.SILVER, 1, 5),
        (2, Priority.GOLD, 1, 5),
    ])
    # guarantees: one each; the remaining 3 go to gold first
    assert grants == {2: 4, 1: 1, 0: 1}


def test_idempotent_health_set_leaves_trace_unchanged(line_world):
    line_world.run(2)
    before = line_world.trace_hash()
    line_world.apply_health(1, Health.healthy())  # already healthy
    assert line_world.trace_hash() == before
    line_world.apply_health(1, Health.failed())
    assert line_world.trace_hash() != before


@pytest.mark.parametrize("bad", [
    {"window": 0}, {"digest_period": 0}, {"congestion_threshold": 0.0},
])
def test_world_options_out_of_range_rejected(bad):
    with pytest.raises(BadParameter):
        WorldOptions(**bad)


def test_schedule_fault_checks_node_and_tick(line_world):
    with pytest.raises(UnknownNode):
        line_world.schedule_fault(1, 9, Health.failed())
    with pytest.raises(BadParameter):
        line_world.schedule_fault(-1, 1, Health.failed())
    assert line_world.pending_faults == []


def test_negative_unit_flow_is_rejected(line_world):
    """A flow of -3 units would never terminate: a queued one is rejected
    at admission and a direct one raises."""
    line_world.schedule_flow(0, 0, 2, -3, 0)
    line_world.run(horizon=2)
    assert line_world.engine.flows == {}
    [(pf, cause)] = line_world.rejected_flows
    assert (pf.units, cause) == (-3, "units must be >= 0")
    with pytest.raises(BadParameter, match="units must be >= 0"):
        line_world.open_flow(0, 0, 2, -3)
    assert line_world.engine.flows == {}


def test_set_composition_checks_dag_and_services(line_world):
    registry = ServiceRegistry(line_world.topology)
    registry.register_service("svc", 1, [0])
    with pytest.raises(UnknownService):
        line_world.set_composition(registry, CompositionDag([("a", "other")]))
    with pytest.raises(CyclicDag):
        line_world.set_composition(registry, CompositionDag(
            [("a", "svc"), ("b", "svc")], [("a", "b", 1), ("b", "a", 1)]))
    assert line_world.dag is None


def test_cli_horizon_override(tmp_path):
    out = tmp_path / "m.jsonl"
    cli_main(["run", str(FIXTURES / "minimal.json"), "--horizon", "3",
              "--out", str(out)])
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert records[-2]["tick"] == 3
    assert "summary" in records[-1]


def test_cli_runtime_abort_exit_code(tmp_path):
    # providers of the two services live in disconnected domains, which only
    # scheduling (not static validation) can discover
    doc = {
        "seed": 1,
        "horizon": 4,
        "nodes": [
            {"id": 0, "kind": "controller_ves", "compute": 1},
            {"id": 1, "kind": "controller_ves", "compute": 1},
            {"id": 2, "kind": "controller_ves", "compute": 1},
            {"id": 3, "kind": "controller_ves", "compute": 1},
        ],
        "links": [
            {"a": 0, "b": 1, "latency": 1, "capacity": 1},
            {"a": 2, "b": 3, "latency": 1, "capacity": 1},
        ],
        "domains": [{"id": 0, "nodes": [0, 1]}, {"id": 1, "nodes": [2, 3]}],
        "services": [
            {"name": "first", "cost": 1, "providers": [0]},
            {"name": "second", "cost": 1, "providers": [3]},
        ],
        "dag": {
            "tasks": [["a", "first"], ["b", "second"]],
            "edges": [["a", "b", 2]],
        },
    }
    scenario_file = tmp_path / "disconnected.json"
    scenario_file.write_text(json.dumps(doc))
    assert cli_main(["validate", str(scenario_file)]) == 0
    rc = cli_main(["run", str(scenario_file), "--out", str(tmp_path / "m.jsonl")])
    assert rc == 2
