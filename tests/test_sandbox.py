import copy
import json
from pathlib import Path

import pytest

from sdcps import (
    CompositionDag,
    Decision,
    Health,
    Node,
    NodeKind,
    Priority,
    ServiceRegistry,
    World,
    build_world as build_scenario_world,
    commit,
    evaluate,
    parse_scenario,
    spawn_twin,
)
from sdcps.errors import (
    BadParameter,
    MidTickSpawn,
    NoPathInSlice,
    SdcpsError,
    StaleDelta,
    UnresolvableDecision,
)
from sdcps.flow_engine import FlowEngine
from sdcps.sandbox import DecisionKind, MetricsDelta, apply_decision

from conftest import build_world, reference_evaluate, reference_makespan

TESTS = Path(__file__).parent


def blocked_line_world():
    """4-node line with the only route through a failed node. After one tick
    the units are still short of the dead node, so a prompt repair saves
    them all while the baseline loses everything."""
    w = build_world(4, [(0, 1), (1, 2), (2, 3)], capacity=1)
    w.schedule_flow(0, 0, 3, 6, 0)
    w.schedule_fault(1, 1, Health.failed())
    w.run(1)
    return w


def congested_diamond_world():
    """Two-domain diamond whose admitted branch congests at t=3, after two
    deliveries; by t=5 both history sinks hold something."""
    w = World(seed=0)
    for i in range(4):
        w.add_node(Node(i, NodeKind.SMART_DEVICE, compute_capacity=1))
    links = [w.add_link(a, b, 1, 2) for a, b in [(0, 1), (1, 3), (0, 2), (2, 3)]]
    w.register_domain(0, [0, 1])
    w.register_domain(1, [2, 3])
    w.allocate_slice(0, links, 1, Priority.GOLD)
    w.finish_setup()
    w.schedule_flow(0, 0, 3, 10, 0)
    w.schedule_fault(3, 1, Health.congested(4.0))
    w.run(5)
    return w


def history(w, event_lines):
    """The world's metrics records and the event lines recorded from its log."""
    return (event_lines[w.log], w.metrics)


# -- spawn_twin --------------------------------------------------------------------

def test_twin_same_seed_same_trace(diamond_world):
    diamond_world.schedule_flow(0, 0, 3, 4, 0)
    diamond_world.schedule_fault(3, 1, Health.malicious(0.5))
    twin = spawn_twin(diamond_world)
    diamond_world.run(10)
    twin.run(10)
    assert twin.trace_hash() == diamond_world.trace_hash()


def test_twin_mutations_leave_physical_untouched(diamond_world):
    diamond_world.schedule_flow(0, 0, 3, 4, 0)
    twin = spawn_twin(diamond_world)
    twin.apply_health(1, Health.failed())
    twin.run(8)
    before = diamond_world.trace_hash()
    diamond_world.run(8)
    solo = build_world(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    solo.schedule_flow(0, 0, 3, 4, 0)
    solo.run(8)
    assert diamond_world.trace_hash() == solo.trace_hash()
    assert twin.trace_hash() != diamond_world.trace_hash()


def test_twin_starts_with_empty_history_and_live_digest(event_lines):
    w = congested_diamond_world()
    assert all(history(w, event_lines))
    twin = spawn_twin(w)
    assert [len(sink) for sink in history(twin, event_lines)] == [0] * 2
    assert twin.trace_hash() == w.trace_hash()
    assert twin.summary()["totals"] == w.summary()["totals"]
    assert twin.summary()["health_events"] == w.summary()["health_events"]


def test_twin_and_evaluate_leave_physical_history_untouched(event_lines):
    w = congested_diamond_world()
    lengths = [len(sink) for sink in history(w, event_lines)]
    trace = w.trace_hash()
    twin = spawn_twin(w)
    twin.run(6)
    evaluate(twin, Decision.inject_repair(1), horizon=6)
    assert [len(sink) for sink in history(w, event_lines)] == lengths
    assert w.trace_hash() == trace


def test_twin_metrics_records_track_physical(event_lines):
    w = congested_diamond_world()
    twin = spawn_twin(w)
    snapshot = len(w.metrics)
    w.run(7)
    twin.run(7)
    assert [m.to_json() for m in twin.metrics] == [
        m.to_json() for m in w.metrics[snapshot:]
    ]
    twin_lines = event_lines[twin.log]
    assert twin_lines == event_lines[w.log][-len(twin_lines):]
    assert twin.trace_hash() == w.trace_hash()


def test_twin_continues_the_world_hash_tick_for_tick():
    """A twin is traced: its trace hash equals the world's after every tick."""
    text = (TESTS / "golden" / "twin-rehearsal-2-0.json").read_text(encoding="utf-8")
    w = build_scenario_world(parse_scenario(text))
    w.run_composition()
    w.run(10)
    twin = spawn_twin(w)
    for _ in range(20):
        w.tick()
        twin.tick()
        assert twin.trace_hash() == w.trace_hash()


def test_an_untraced_world_and_its_forks_keep_no_trace_hash(diamond_world):
    """A hash read from a world that folds no events fails loudly, and not
    as an `SdcpsError`, which a caller could take for a refused decision."""
    branch = diamond_world.fork()
    branch.log.untrace()
    for world in (branch, branch.fork()):
        world.run(2)
        with pytest.raises(RuntimeError, match="untraced") as raised:
            world.trace_hash()
        assert not isinstance(raised.value, SdcpsError)
    assert diamond_world.trace_hash() == diamond_world.fork().trace_hash()


def test_mid_tick_spawn_rejected(line_world):
    line_world.mid_tick = True
    with pytest.raises(MidTickSpawn):
        spawn_twin(line_world)


# -- evaluate -------------------------------------------------------------------------

def test_repair_decision_improves_delivery():
    w = blocked_line_world()
    twin = spawn_twin(w)
    delta = evaluate(twin, Decision.inject_repair(1), horizon=12)
    assert delta.delivered_units > 0
    assert delta.violations == 0


def test_noop_reroute_is_all_zero(line_world):
    line_world.schedule_flow(0, 0, 2, 3, 0)
    line_world.run(1)
    flow = line_world.engine.flows[0]
    twin = spawn_twin(line_world)
    delta = evaluate(twin, Decision.reroute(0, list(flow.path)), horizon=8)
    assert (delta.delivered_units, delta.mean_latency, delta.makespan, delta.violations) == (0, 0.0, 0, 0)


def test_committed_reroute_rehomes_queued_units_only(event_lines):
    # admitted 0-1-2-4; the reroute moves the flow onto 0-1-3-4 while seq 1
    # queues at node 1, seqs 4-5 queue at the origin and seqs 0, 2 and 3
    # are on the wire
    w = build_world(5, [(0, 1, 1, 2), (1, 2, 1, 1), (2, 4, 1, 1), (1, 3), (3, 4)],
                    capacity=1)
    w.schedule_flow(0, 0, 4, 6, 0)
    w.run(2)
    flow = w.engine.flows[0]
    assert flow.path == [0, 1, 2, 4]
    decision = Decision.reroute(0, [0, 1, 3, 4])
    delta = evaluate(spawn_twin(w), decision, horizon=4)
    assert commit(w, decision, delta, policy=lambda d: True) is True
    w.tick()
    t3 = [line for line in event_lines[w.log] if line.startswith("t=3 ")]
    assert t3[0] == "t=3 ev=reroute flow=0 path=0>1>3>4"
    assert "t=3 ev=send flow=0 seq=1 link=1-3" in t3
    assert flow.path == [0, 1, 3, 4]
    routes = {u.seq: u.route for u in w.engine.units}
    assert routes == {0: [0, 1, 2, 4], 1: [0, 1, 3, 4], 2: [0, 1, 2, 4],
                      3: [0, 1, 2, 4], 4: [0, 1, 3, 4], 5: [0, 1, 3, 4]}
    w.run(20)
    assert flow.delivered_record == list(range(6))
    assert sorted(flow.destination_arrivals) == list(range(6))


def test_mean_latency_matches_list_oracle(monkeypatch):
    """Every delivery latency since t=0, kept in a list that a full deep
    copy carries along, gives the same mean as the running sum and count."""
    deliver = FlowEngine._deliver

    def recording(self, flow, unit):
        self.__dict__.setdefault("oracle_latencies", []).append(self.now - flow.start_tick)
        deliver(self, flow, unit)

    monkeypatch.setattr(FlowEngine, "_deliver", recording)

    def mean(w):
        lat = w.engine.__dict__.get("oracle_latencies", [])
        return sum(lat) / len(lat) if lat else 0.0

    w = congested_diamond_world()
    decision = Decision.inject_repair(1)
    delta = evaluate(spawn_twin(w), decision, horizon=8)
    baseline, candidate = copy.deepcopy(w), copy.deepcopy(w)
    apply_decision(candidate, decision)
    baseline.run(8)
    candidate.run(8)
    assert delta.mean_latency == mean(candidate) - mean(baseline)
    assert delta.mean_latency != 0.0


def test_zero_horizon_rejected(line_world):
    twin = spawn_twin(line_world)
    with pytest.raises(UnresolvableDecision):
        evaluate(twin, Decision.inject_repair(0), horizon=0)


def test_unresolvable_decision(line_world):
    twin = spawn_twin(line_world)
    with pytest.raises(UnresolvableDecision):
        evaluate(twin, Decision.inject_repair(99), horizon=2)
    with pytest.raises(UnresolvableDecision):
        evaluate(twin, Decision.reroute(5, [0, 1]), horizon=2)


def test_negative_share_decision_unresolvable(line_world):
    links = sorted(line_world.topology.links)
    with pytest.raises(UnresolvableDecision):
        apply_decision(line_world, Decision.set_slice(0, links, -1, Priority.GOLD))
    assert line_world.slices.get(0).share == 1


def test_committed_slice_change_reroutes_admission():
    # domains {0,1,2} and {3,4,5}; node 5 hangs off node 4 alone
    text = (Path(__file__).parent / "fixtures" / "two_domains.json").read_text()
    world = build_scenario_world(parse_scenario(text))
    assert world.farm.cross_domain_path(0, 5, 0) == [0, 1, 4, 5]
    links = sorted(world.slices.get(0).links - {(4, 5)})
    apply_decision(world, Decision.set_slice(0, links, 2, Priority.GOLD))
    with pytest.raises(NoPathInSlice):
        world.farm.cross_domain_path(0, 5, 0)
    assert world.farm.cross_domain_path(0, 3, 0) == [0, 1, 2, 3]


def composition_world(ticks: int = 2):
    """composition.json composed, then run `ticks` ticks."""
    text = (TESTS / "fixtures" / "composition.json").read_text(encoding="utf-8")
    world = build_scenario_world(parse_scenario(text))
    world.run_composition()
    world.run(ticks)
    return world


def test_evaluate_spends_the_twin_and_leaves_the_world():
    """A placement replays the twin itself: it is left at snapshot plus
    horizon with the override set. Neither that nor a repair, which runs
    on two forks, changes the world."""
    world = composition_world()
    before = (world.trace_hash(), world.summary(), world.now, dict(world.task_overrides))
    twin = spawn_twin(world)
    evaluate(twin, Decision.place_task("fuse", 3), horizon=5)
    assert (twin.now, twin.task_overrides["fuse"]) == (world.now + 5, 3)
    evaluate(spawn_twin(world), Decision.inject_repair(1), horizon=5)
    assert (world.trace_hash(), world.summary(), world.now, dict(world.task_overrides)) == before


def test_place_task_decision_changes_makespan():
    w = World(seed=0)
    w.add_node(Node(0, NodeKind.CONTROLLER_VES, compute_capacity=4))
    w.add_node(Node(1, NodeKind.CONTROLLER_VES, compute_capacity=1))
    w.add_link(0, 1, 1, 2)
    w.register_domain(0, [0, 1])
    w.allocate_slice(0, [(0, 1)], 1, Priority.GOLD)
    w.finish_setup()
    registry = ServiceRegistry(w.topology)
    registry.register_service("svc", 4, [0, 1])
    w.set_composition(registry, CompositionDag([("a", "svc")]))
    w.run_composition()
    assert w.composition_report.makespan == 1  # fast provider wins placement
    twin = spawn_twin(w)
    delta = evaluate(twin, Decision.place_task("a", 1), horizon=1)
    assert delta.makespan == 3  # pinned to the slow provider


def _outcome(rehearse, twin, decision, horizon):
    """A rehearsal's delta, or the type and message of what it raised."""
    try:
        return rehearse(twin, decision, horizon)
    except SdcpsError as exc:
        return type(exc), str(exc)


def _placements(world):
    """(task, node) pairs: every provider of every task, a non-provider, a
    missing node and an unknown task."""
    nodes = sorted(world.topology.nodes)
    pairs = [("no-such-task", nodes[0])]
    if world.dag is None:
        return pairs
    for task, service in world.dag.tasks:
        providers = sorted(world.registry.lookup(service).providers)
        pairs += [(task, node) for node in providers]
        pairs += [(task, node) for node in nodes if node not in providers][:1]
    return pairs + [(world.dag.tasks[0][0], nodes[-1] + 1)]


def _pending_commits(world, task, node):
    """No pending commit, a pending placement of the same task elsewhere, on
    the same node, and both in turn, and one of another task. For the first
    provider of each task also a pending repair of a non-healthy node (or
    the first node) and of the next fault's node, a pending reroute and
    slice change, and an unresolvable reroute."""
    variants = [[]]
    if world.dag is None:
        return variants
    tasks = dict(world.dag.tasks)
    if task in tasks:
        providers = sorted(world.registry.lookup(tasks[task]).providers)
        other = next((n for n in providers if n != node), providers[0])
        variants.append([Decision.place_task(task, other)])
        variants.append([Decision.place_task(task, node)])
        variants.append([Decision.place_task(task, other), Decision.place_task(task, node)])
        if node == providers[0]:
            nodes = sorted(world.topology.nodes)
            sick = [n for n in nodes if world.topology.node(n).health != Health.healthy()]
            due = [f.node for f in sorted(world.pending_faults, key=lambda f: (f.tick, f.node))]
            for repaired in dict.fromkeys([(sick or nodes)[0]] + due[:1]):
                variants.append([Decision.inject_repair(repaired)])
            for fid in sorted(world.engine.flows)[:1]:
                flow = world.engine.flows[fid]
                variants.append([Decision.reroute(fid, list(flow.path))])
                variants.append([Decision.reroute(fid, [flow.origin])])
            for tenant, sl in sorted(world.slices.slices.items())[:1]:
                variants.append(
                    [Decision.set_slice(tenant, sorted(sl.links), sl.share, sl.priority)])
    other_task, service = next((t for t in world.dag.tasks if t[0] != task), world.dag.tasks[0])
    variants.append(
        [Decision.place_task(other_task, min(world.registry.lookup(service).providers))]
    )
    return variants


def _decisions(world):
    """(decision, pending commits) cases over every decision kind, each
    resolvable and not."""
    nodes = sorted(world.topology.nodes)
    missing = nodes[-1] + 1
    failed = [n for n in nodes if world.topology.node(n).health == Health.failed()]
    cases = [
        (Decision.inject_repair((failed or nodes)[0]), []),
        (Decision.inject_repair(missing), []),
        (Decision.reroute(10**6, [nodes[0], nodes[-1]]), []),
    ]
    for fid in sorted(world.engine.flows)[:2]:
        flow = world.engine.flows[fid]
        cases.append((Decision.reroute(fid, list(flow.path)), []))
        cases.append((Decision.reroute(fid, [flow.origin]), []))
        cases.append((Decision.reroute(fid, [flow.origin, missing, flow.destination]), []))
    for tenant, sl in sorted(world.slices.slices.items())[:2]:
        links = sorted(sl.links)
        cases.append((Decision.set_slice(tenant, links, sl.share, sl.priority), []))
        cases.append((Decision.set_slice(tenant, links, -1, sl.priority), []))
        cases.append((Decision.set_slice(tenant, [(nodes[0], missing)], 1, sl.priority), []))
    for task, node in _placements(world):
        for pending in _pending_commits(world, task, node):
            cases.append((Decision.place_task(task, node), pending))
    return cases


EQUIVALENCE_TICKS = {
    **{f"fixtures/{p.name}": (0, 3, 8) for p in sorted((TESTS / "fixtures").glob("*.json"))},
    # faults land at 15, 37 and 39: inside the horizons from 13 and 36
    "golden/twin-rehearsal-2-0.json": (5, 13, 24, 36, 60),
}


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_TICKS))
def test_evaluate_matches_the_two_branch_reference(name):
    """On each scenario at several ticks, every case rehearses to the delta,
    or raises the exception, that running baseline and decision on two
    branches gives, and leaves the world as it was. The reference only
    forks the twin, so it runs first; `evaluate` then spends the twin."""
    world = build_scenario_world(parse_scenario((TESTS / name).read_text(encoding="utf-8")))
    if world.dag is not None:
        world.run_composition()
    kinds, pending_kinds = set(), set()
    for tick in EQUIVALENCE_TICKS[name]:
        world.run(tick - world.now)
        for decision, pending in _decisions(world):
            pending_kinds.update(d.kind for d in pending)
            before = (world.trace_hash(), world.now, dict(world.task_overrides),
                      list(world.pending_commits))
            twin = spawn_twin(world)
            twin.pending_commits.extend(pending)
            expected = _outcome(reference_evaluate, twin, decision, 3)
            assert _outcome(evaluate, twin, decision, 3) == expected, (tick, decision, pending)
            assert (world.trace_hash(), world.now, dict(world.task_overrides),
                    list(world.pending_commits)) == before
            kinds.add(decision.kind)
    assert kinds == set(DecisionKind)
    assert pending_kinds == (set() if world.dag is None else set(DecisionKind))


def test_an_unresolvable_placement_raises_before_any_fork_or_tick(monkeypatch):
    twin = spawn_twin(composition_world())
    calls = []
    monkeypatch.setattr(World, "fork", lambda w: calls.append("fork"))
    monkeypatch.setattr(World, "tick", lambda w: calls.append("tick"))
    monkeypatch.setattr(World, "boundary", lambda w: calls.append("boundary"))
    for decision, message in [
        (Decision.place_task("no-such-task", 0), "task 'no-such-task' is not in the workload"),
        (Decision.place_task("act", 2), "node 2 does not provide 'actuate'"),
        (Decision.place_task("act", 9), "node 9 does not exist"),
    ]:
        with pytest.raises(UnresolvableDecision, match=f"^{message}$"):
            evaluate(twin, decision, horizon=3)
    assert calls == []


def test_a_placement_rehearsal_forks_nothing_and_never_ticks(monkeypatch):
    """A `place_task` rehearsal replays only the tick boundaries of the
    twin it is handed, whatever commits are pending. A two-branch
    rehearsal ticks the twin and its one fork `horizon` times each."""
    world = composition_world()
    calls = []
    fork, tick = World.fork, World.tick

    def counting_fork(w):
        calls.append("fork")
        return fork(w)

    def counting_tick(w):
        calls.append("tick")
        tick(w)

    slice0 = world.slices.slices[0]
    set_slice = Decision.set_slice(0, sorted(slice0.links), slice0.share, slice0.priority)
    flow = world.engine.flows[0]
    reroute = Decision.reroute(flow.id, list(flow.path))
    place = Decision.place_task("fuse", 3)
    for decision, pending, forks, ticks in [
        (place, [], 0, 0),
        (place, [Decision.inject_repair(1)], 0, 0),
        (place, [Decision.place_task("fuse", 2)], 0, 0),
        (place, [Decision.place_task("act", 4)], 0, 0),
        (place, [reroute], 0, 0),
        (place, [set_slice], 0, 0),
        (place, [Decision.inject_repair(1), reroute], 0, 0),
        (Decision.inject_repair(1), [], 1, 6),
        (set_slice, [], 1, 6),
    ]:
        twin = spawn_twin(world)
        twin.pending_commits[:] = pending
        with monkeypatch.context() as mp:
            mp.setattr(World, "fork", counting_fork)
            mp.setattr(World, "tick", counting_tick)
            calls.clear()
            evaluate(twin, decision, horizon=3)
        assert (calls.count("fork"), calls.count("tick")) == (forks, ticks), (decision, pending)


def _overflow_twin(heal: bool):
    """composition.json at tick 2, with nodes 1 and 2 congested so far
    from tick 3 that link (1, 2)'s latency overflows; with `heal`, node 1
    is healthy again at tick 4. A 3-tick horizon holds both faults."""
    doc = json.loads((TESTS / "fixtures" / "composition.json").read_text(encoding="utf-8"))
    huge = {"kind": "congested", "slowdown": 1e200}
    doc["faults"] = [{"tick": 3, "node": n, "health": huge} for n in (1, 2)]
    if heal:
        doc["faults"].append({"tick": 4, "node": 1, "health": "healthy"})
    world = build_scenario_world(parse_scenario(json.dumps(doc)))
    world.run_composition()
    world.run(2)
    return spawn_twin(world)


def test_a_placement_rehearsal_raises_an_overflow_unless_the_horizon_heals_it():
    """The skipped phases' only error, the congested-latency overflow, is
    raised by composition too while it lasts to the horizon's end. The one
    case where the replay differs from running the ticks is an overflow
    that a fault inside the horizon heals: the two-branch run raises it in
    the tick's telemetry, while the replay composes under the final health."""
    decision = Decision.place_task("fuse", 3)
    overflow = (BadParameter, "link (1, 2): congested latency overflows")
    twin = _overflow_twin(heal=False)
    assert _outcome(reference_evaluate, twin, decision, 3) == overflow
    assert _outcome(evaluate, twin, decision, 3) == overflow
    twin = _overflow_twin(heal=True)
    assert _outcome(reference_evaluate, twin, decision, 3) == overflow
    final = twin.fork()
    final.apply_health(2, Health.congested(1e200))
    base = reference_makespan(final)
    final.task_overrides["fuse"] = 3
    expected = MetricsDelta(0, 0.0, reference_makespan(final) - base, 0, twin.now)
    assert expected.makespan < 0
    assert evaluate(twin, decision, 3) == expected


def test_evaluate_branches_keep_no_trace_hash(monkeypatch):
    """A `place_task` rehearsal, with and without a pending reroute, makes
    no branch. A repair makes one. The branch and the twin it spends are
    untraced: they are dropped once their counters and makespans are read.
    The world's own hash is untouched."""
    world = composition_world()
    branches = []
    fork = World.fork

    def recording(w):
        branch = fork(w)
        branches.append(branch)
        return branch

    flow = world.engine.flows[0]
    twins = [spawn_twin(world) for _ in range(3)]
    twins[1].pending_commits.append(Decision.reroute(flow.id, list(flow.path)))
    monkeypatch.setattr(World, "fork", recording)
    evaluate(twins[0], Decision.place_task("fuse", 3), horizon=3)
    evaluate(twins[1], Decision.place_task("fuse", 3), horizon=3)
    assert branches == []
    before = world.trace_hash()
    evaluate(twins[2], Decision.inject_repair(1), horizon=3)
    assert len(branches) == 1
    for spent in (*branches, twins[2]):
        with pytest.raises(RuntimeError, match="untraced"):
            spent.trace_hash()
    assert world.trace_hash() == before


# -- commit ------------------------------------------------------------------------------

def test_improving_decision_commits_at_boundary():
    w = blocked_line_world()
    twin = spawn_twin(w)
    decision = Decision.inject_repair(1)
    delta = evaluate(twin, decision, horizon=12)
    assert commit(w, decision, delta) is True
    # not applied yet: only at the next tick boundary
    assert w.topology.node(1).health == Health.failed()
    w.run(12)
    assert w.topology.node(1).health == Health.healthy()
    assert w.engine.flows[0].delivered_record  # units flowed after repair


def test_worsening_decision_rejected():
    w = blocked_line_world()
    twin = spawn_twin(w)
    # repairing node 1 helps; "repairing" node 2 (already healthy) is a no-op
    noop = Decision.inject_repair(2)
    delta = evaluate(twin, noop, horizon=6)
    assert delta.delivered_units == 0
    assert commit(w, noop, delta) is True  # policy accepts non-worsening
    # a worsening delta is refused outright
    delta.delivered_units = -1
    assert commit(w, noop, delta) is False
    assert w.pending_commits == [noop]  # only the accepted one queued


def test_rejected_decision_leaves_no_observable_difference():
    w = blocked_line_world()
    baseline = spawn_twin(w)
    twin = spawn_twin(w)
    decision = Decision.inject_repair(1)
    delta = evaluate(twin, decision, horizon=6)
    delta.delivered_units = -5  # doctored so the policy refuses it
    assert commit(w, decision, delta) is False
    w.run(6)
    baseline.run(6)
    assert w.trace_hash() == baseline.trace_hash()


def test_a_commit_that_no_longer_resolves_is_refused(diamond_world, event_lines):
    """Each decision rehearses against the world as it is, so a slice change
    and then a reroute onto the links it drops are both accepted. At the
    boundary the reroute no longer resolves: it is refused and logged, the
    slice change stands, and the world ticks on."""
    w = diamond_world
    w.schedule_flow(0, 0, 3, 1, 0)
    w.run(6)
    flow = w.engine.flows[0]
    assert (flow.path, flow.delivered_record) == ([0, 1, 3], [0])
    for decision in [Decision.set_slice(0, [(0, 1), (1, 3)], 1, Priority.GOLD),
                     Decision.reroute(0, [0, 2, 3])]:
        assert commit(w, decision, evaluate(spawn_twin(w), decision, horizon=2)) is True
    w.tick()
    assert "t=7 ev=refuse kind=reroute" in event_lines[w.log]
    assert (w.pending_commits, w.mid_tick) == ([], False)
    assert (w.slices.get(0).links, flow.path) == ({(0, 1), (1, 3)}, [0, 1, 3])
    spawn_twin(w).run(2)
    w.run(2)
    assert w.now == 9


def test_stale_delta_rejected():
    w = blocked_line_world()
    twin = spawn_twin(w)
    decision = Decision.inject_repair(1)
    delta = evaluate(twin, decision, horizon=4)
    w.run(3)
    with pytest.raises(StaleDelta):
        commit(w, decision, delta)
