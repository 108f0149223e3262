import random

import pytest

from sdcps import (
    CloneCase,
    CloneDecision,
    FlowState,
    Health,
    Priority,
    ReorderBuffer,
    World,
)
from sdcps.errors import (
    NoPathInSlice,
    NotIntermediate,
    StaleDecision,
    UnknownFlow,
    Unrecoverable,
)
from sdcps.flow_engine import _simplify

from conftest import (
    build_world,
    path_latency,
    reference_beyond_buffer_point,
    reference_high_water,
    reference_safely_past,
    reference_shortest_path,
)


# -- open_flow -------------------------------------------------------------------

def test_open_flow_line(line_world):
    fid = line_world.open_flow(0, 0, 2, 4)
    flow = line_world.engine.flows[fid]
    assert flow.state is FlowState.ACTIVE
    assert flow.path == [0, 1, 2]
    assert len([u for u in line_world.engine.units if u.flow == fid]) == 4


def test_open_flow_zero_units_delivers_immediately(line_world):
    fid = line_world.open_flow(0, 0, 2, 0)
    assert line_world.engine.flows[fid].state is FlowState.DELIVERED
    assert line_world.engine.flows[fid].delivered_record == []


def test_open_flow_no_path_creates_nothing():
    from sdcps import Node, NodeKind, World

    w = World(seed=0)
    for i in range(3):
        w.add_node(Node(i, NodeKind.SMART_DEVICE, compute_capacity=1))
    first = w.add_link(0, 1, 1, 2)
    w.add_link(1, 2, 1, 2)
    w.register_domain(0, [0, 1, 2])
    w.allocate_slice(0, [first], 1, Priority.GOLD)  # slice stops at node 1
    w.finish_setup()
    with pytest.raises(NoPathInSlice):
        w.open_flow(0, 0, 2, 2)
    assert w.engine.flows == {}


# -- tick ------------------------------------------------------------------------

def test_single_hop_delivers_after_one_tick():
    w = build_world(2, [(0, 1)])
    w.schedule_flow(0, 0, 1, 1, 0)
    w.tick()  # opened and transmitted this tick
    assert w.engine.flows[0].delivered_record == []
    w.tick()
    assert w.engine.flows[0].delivered_record == [0]
    assert w.engine.flows[0].state is FlowState.DELIVERED


def test_empty_world_tick_advances_counter():
    w = World(seed=0)
    w.tick()
    assert w.now == 1
    assert w.metrics[-1].delivered_units == 0


def test_capacity_one_serializes_deliveries():
    w = build_world(2, [(0, 1, 1, 1)], share=1)
    w.schedule_flow(0, 0, 1, 3, 0)
    deliveries = {}
    for _ in range(5):
        w.tick()
        for seq in w.engine.flows.get(0, type("e", (), {"delivered_record": []})).delivered_record:
            deliveries.setdefault(seq, w.now)
    record = w.engine.flows[0].delivered_record
    assert record == [0, 1, 2]
    # opened during tick 1; one unit crosses per tick
    assert [deliveries[s] for s in (0, 1, 2)] == [2, 3, 4]


def test_failed_node_drops_all_units_without_cloning():
    w = build_world(3, [(0, 1), (1, 2)])
    w.topology.set_health(1, Health.failed())
    w.open_flow(0, 0, 2, 3)
    for _ in range(6):
        w.tick()
    flow = w.engine.flows[0]
    assert flow.delivered_record == []
    assert w.engine.total_dropped == 3


def test_congested_intermediate_doubles_end_to_end():
    # healthy: 2 ticks end to end; slowdown 2 on the middle: 4 ticks
    for slowdown, expect in ((None, 2), (2.0, 4)):
        w = build_world(3, [(0, 1), (1, 2)])
        if slowdown:
            w.topology.set_health(1, Health.congested(slowdown))
        w.schedule_flow(0, 0, 2, 1, 0)
        opened_at = 1
        for _ in range(10):
            w.tick()
            if w.engine.flows and w.engine.flows[0].state is FlowState.DELIVERED:
                break
        assert w.now - opened_at == expect


def test_malicious_intermediate_drops_probabilistically():
    drops = 0
    for seed in range(12):
        w = build_world(3, [(0, 1), (1, 2)], seed=seed)
        w.options.digest_period = 10_000
        w.topology.set_health(1, Health.malicious(0.5))
        w.open_flow(0, 0, 2, 4)
        for _ in range(10):
            w.tick()
        drops += w.engine.total_dropped
    assert drops > 0  # seeded RNG actually exercises the drop path


# -- on_unhealthy case arbitration -----------------------------------------------------

def test_diamond_selects_detour_to_destination(diamond_world, event_lines):
    fid = diamond_world.open_flow(0, 0, 3, 4)
    d = diamond_world.engine.on_unhealthy(fid, 1, set())
    assert d.case_tag is CloneCase.TO_DESTINATION
    assert d.clone_destination == 3
    assert d.detour == [0, 2, 3]
    assert d.branch_point == 0
    # the flow recovers inside the call: recovering, then active again
    states = [l for l in event_lines[diamond_world.log] if "ev=state" in l]
    assert states == [f"t=0 ev=state flow={fid} state=recovering",
                      f"t=0 ev=state flow={fid} state=active"]
    assert diamond_world.engine.flows[fid].state is FlowState.ACTIVE


def test_nothing_at_risk_marks_handled_and_changes_nothing(chord_world):
    """Once every unit is past the flagged node there is nothing to clone:
    on_unhealthy only marks the node handled and returns None."""
    w = chord_world
    fid = w.open_flow(0, 0, 3, 2)
    w.run(2)  # both units now on the wire from node 1 toward node 2
    flow, engine = w.engine.flows[fid], w.engine
    assert flow.state is FlowState.ACTIVE and engine.at_risk_seqs(fid, 1) == frozenset()
    digest, path = w.trace_hash(), flow.path
    assert engine.on_unhealthy(fid, 1, set()) is None
    assert flow.handled_bad == {1}
    assert w.trace_hash() == digest and engine.decisions == []
    assert flow.state is FlowState.ACTIVE and flow.path is path and flow.clone_count == 0


def test_chord_selects_rejoin(chord_world):
    fid = chord_world.open_flow(0, 0, 3, 4)
    assert chord_world.engine.flows[fid].path == [0, 1, 2, 3]
    d = chord_world.engine.on_unhealthy(fid, 1, set())
    assert d.case_tag is CloneCase.REJOIN
    assert d.clone_destination == 2
    assert d.detour == [0, 2]


def test_line_failure_is_unrecoverable(line_world):
    fid = line_world.open_flow(0, 0, 2, 2)
    with pytest.raises(Unrecoverable):
        line_world.engine.on_unhealthy(fid, 1, set())
    assert line_world.engine.flows[fid].state is FlowState.FAILED


def test_on_unhealthy_rejects_endpoints(line_world):
    fid = line_world.open_flow(0, 0, 2, 2)
    with pytest.raises(NotIntermediate):
        line_world.engine.on_unhealthy(fid, 0, set())
    with pytest.raises(NotIntermediate):
        line_world.engine.on_unhealthy(fid, 2, set())
    with pytest.raises(NotIntermediate):
        line_world.engine.on_unhealthy(fid, 9, set())


def test_on_unhealthy_rejects_inactive_flow(line_world):
    fid = line_world.open_flow(0, 0, 2, 2)
    with pytest.raises(Unrecoverable):
        line_world.engine.on_unhealthy(fid, 1, set())
    with pytest.raises(StaleDecision):  # the flow is failed, not active
        line_world.engine.on_unhealthy(fid, 1, set())


def test_rejoin_latency_never_exceeds_destination_detour():
    # redundancy minimization, asserted on several shapes
    shapes = [
        (4, [(0, 1), (1, 2), (2, 3), (0, 2)], 1),   # chord
        (4, [(0, 1), (1, 3), (0, 2), (2, 3)], 1),   # diamond
        (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3)], 1),
        (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 4)], 2),
    ]
    for n, links, bad in shapes:
        w = build_world(n, links)
        fid = w.open_flow(0, 0, n - 1, 2)
        flow = w.engine.flows[fid]
        if bad not in flow.path[1:-1]:
            continue
        try:
            d = w.engine.on_unhealthy(fid, bad, set())
        except Unrecoverable:
            continue
        if d.case_tag is CloneCase.REJOIN:
            sl = w.slices.get(0)
            best_dest = reference_shortest_path(
                w.topology, d.branch_point, flow.destination,
                link_filter=lambda l: l.endpoints in sl.links,
                exclude_nodes={bad},
            )
            assert best_dest is not None
            assert path_latency(w.topology, d.detour) <= best_dest[0]


def reference_detour(w, flow, bad, suspects):
    """(case, branch, clone destination, detour) by pairwise searches, or
    None when no detour exists."""
    avoid = (set(suspects) | {bad}) - {flow.origin, flow.destination}
    bad_idx = flow.path.index(bad)
    idx = min(bad_idx - 1, flow.progress)
    while idx > 0 and flow.path[idx] in avoid:
        idx -= 1
    branch = flow.path[idx]
    sl = w.slices.get(flow.tenant)

    def search(dst):
        return reference_shortest_path(
            w.topology, branch, dst, link_filter=lambda l: l.endpoints in sl.links,
            exclude_nodes=avoid - {branch, dst},
        )

    to_dest = search(flow.destination)
    rejoins = [
        (found[0], i, found[1])
        for i in range(bad_idx + 1, len(flow.path) - 1)
        if flow.path[i] not in avoid and (found := search(flow.path[i])) is not None
    ]
    best = min(rejoins, default=None, key=lambda r: r[:2])
    if best is not None and (to_dest is None or best[0] <= to_dest[0]):
        return CloneCase.REJOIN, branch, flow.path[best[1]], best[2]
    if to_dest is not None:
        return CloneCase.TO_DESTINATION, branch, flow.destination, to_dest[1]
    return None


@pytest.mark.parametrize("seed", range(8))
def test_on_unhealthy_matches_pairwise_reference(seed):
    """25 arbitrated cases per seed; a flow with nothing at risk is not
    arbitrated, and on_unhealthy returns None for it."""
    rng = random.Random(seed)
    checked = 0
    while checked < 25:
        n = rng.randint(5, 10)
        # a unit-latency line keeps admitted paths long; slower chords
        # offer detours and rejoins
        links = [(i, i + 1, 1) for i in range(n - 1)]
        for _ in range(rng.randint(n, 2 * n)):
            a, b = sorted(rng.sample(range(n), 2))
            if all((a, b) != (x, y) for x, y, _ in links):
                links.append((a, b, rng.randint(2, 4)))
        w = build_world(n, links)
        origin, dest = rng.sample(range(n), 2)
        fid = w.open_flow(0, origin, dest, 12)
        flow = w.engine.flows[fid]
        if len(flow.path) < 3:
            continue
        on_path = set(zip(flow.path, flow.path[1:]))
        kept = [(a, b) for a, b, _ in links if (a, b) in on_path or (b, a) in on_path
                or rng.random() < 0.85]
        w.allocate_slice(0, kept, 1, Priority.GOLD)
        for _ in range(rng.randint(0, 8)):
            w.tick()
        if flow.state is not FlowState.ACTIVE:
            continue
        bad = rng.choice(flow.path[1:-1])
        suspects = set(rng.sample(range(n), rng.randint(0, 2)))
        bad_idx, done = flow.path.index(bad), w.engine.buffers[(fid, dest)].done
        if all(s in done or reference_safely_past(w.engine, flow, s, bad_idx)
               for s in range(flow.units)):
            assert w.engine.on_unhealthy(fid, bad, suspects) is None
            continue
        expected = reference_detour(w, flow, bad, suspects)
        checked += 1
        if expected is None:
            with pytest.raises(Unrecoverable):
                w.engine.on_unhealthy(fid, bad, suspects)
            continue
        d = w.engine.on_unhealthy(fid, bad, suspects)
        assert (d.case_tag, d.branch_point, d.clone_destination, d.detour) == expected


@pytest.mark.parametrize("seed", range(6))
def test_unit_positions_match_per_seq_scans(seed):
    """at_risk_seqs, a new REJOIN buffer's done set and the progress rebase
    agree with per-seq scans of the unit list, over repeated recoveries that
    strand units on old detours. The done set is scanned on a fork taken
    before the recovery, since on_unhealthy enacts what it decides."""
    rng = random.Random(seed)
    rejoins = checked = 0
    while checked < 30 or rejoins < 3:
        n = rng.randint(5, 10)
        links = [(i, i + 1, 1) for i in range(n - 1)]
        for _ in range(rng.randint(n, 2 * n)):
            a, b = sorted(rng.sample(range(n), 2))
            if all((a, b) != (x, y) for x, y, _ in links):
                links.append((a, b, rng.randint(2, 4)))
        w = build_world(n, links, capacity=rng.randint(1, 3))
        fid = w.open_flow(0, *rng.sample(range(n), 2), 12)
        engine, flow = w.engine, w.engine.flows[fid]
        for _ in range(3):
            w.run(rng.randint(0, 4))
            if flow.state is not FlowState.ACTIVE or len(flow.path) < 3:
                break
            bad = rng.choice(flow.path[1:-1])
            bad_idx = flow.path.index(bad)
            done = engine.buffers[(fid, flow.destination)].done
            assert engine.at_risk_seqs(fid, bad) == frozenset(
                s for s in range(flow.units)
                if s not in done and not reference_safely_past(engine, flow, s, bad_idx)
            )
            before = w.fork()
            try:
                d = engine.on_unhealthy(fid, bad, set())
            except Unrecoverable:
                break
            if d is None:
                continue
            key = (fid, d.clone_destination)
            if d.case_tag is CloneCase.REJOIN and key not in before.engine.buffers:
                was = before.engine.flows[fid]
                dest_idx = was.path.index(d.clone_destination)
                done = before.engine.buffers[(fid, was.destination)].done
                assert engine.buffers[key].done == done | {
                    s for s in range(was.units)
                    if reference_beyond_buffer_point(before.engine, was, s, dest_idx)
                }
                rejoins += 1
            assert flow.progress == max(reference_high_water(engine, flow).values(), default=0)
            checked += 1


# -- clone_subflow ----------------------------------------------------------------------

def test_clone_duplicates_exact_cardinality(diamond_world):
    fid = diamond_world.open_flow(0, 0, 3, 4)
    before = len(diamond_world.engine.units)
    d = diamond_world.engine.on_unhealthy(fid, 1, set())
    assert sorted(d.cloned_seqs) == [0, 1, 2, 3]
    assert len(diamond_world.engine.units) == before + 4
    assert diamond_world.engine.flows[fid].state is FlowState.ACTIVE


def test_clone_with_no_seqs_is_noop_but_installs_buffer(chord_world):
    fid = chord_world.open_flow(0, 0, 3, 4)
    engine = chord_world.engine
    d = CloneDecision(flow=fid, case_tag=CloneCase.REJOIN, branch_point=0,
                      clone_destination=2, detour=[0, 2], cloned_seqs=frozenset(),
                      decided_tick=0)
    before = len(engine.units)
    engine.clone_subflow(d)
    assert len(engine.units) == before
    assert (fid, 2) in engine.buffers


def test_rejoin_buffer_dedupes_original_and_clone(event_lines):
    # false positive on node 1: originals pass through it while clones
    # ride the chord, so node 2 sees both copies and must dedupe
    w = build_world(4, [(0, 1), (1, 2), (2, 3), (0, 2, 3)], capacity=1)
    fid = w.open_flow(0, 0, 3, 3)
    w.tick()  # seq 0 now in transit toward the flagged node
    d = w.engine.on_unhealthy(fid, 1, set())
    assert d.case_tag is CloneCase.REJOIN and d.clone_destination == 2
    assert 0 in d.cloned_seqs
    w.run(20)
    flow = w.engine.flows[fid]
    assert flow.state is FlowState.DELIVERED
    assert flow.delivered_record == [0, 1, 2]
    arrivals_at_2 = [
        l for l in event_lines[w.log] if "ev=arrive" in l and l.endswith("node=2")
    ]
    seqs = [l.split("seq=")[1].split()[0] for l in arrivals_at_2]
    assert len(seqs) > len(set(seqs))  # a duplicate really reached the buffer


# -- recompose --------------------------------------------------------------------------

def test_recompose_reorders():
    buf = ReorderBuffer(onward=[])
    assert buf.absorb(1) == []
    assert buf.absorb(0) == [0, 1]


def test_recompose_dedupes():
    buf = ReorderBuffer(onward=[])
    assert buf.absorb(0) == [0]
    assert buf.absorb(0) == []


def test_recompose_in_order_is_immediate():
    buf = ReorderBuffer(onward=[])
    for seq in range(4):
        assert buf.absorb(seq) == [seq]


def test_recompose_skips_preseeded():
    buf = ReorderBuffer(onward=[])
    buf.done = {0, 2}
    assert buf.absorb(1) == [1]
    assert buf.absorb(3) == [3]


# -- delivered records ---------------------------------------------------------------------

def test_delivered_full_record(line_world):
    line_world.schedule_flow(0, 0, 2, 4, 0)
    line_world.run(10)
    assert line_world.engine.flows[0].delivered_record == [0, 1, 2, 3]


def test_delivered_unknown_flow(line_world):
    with pytest.raises(UnknownFlow):
        line_world.engine.at_risk_seqs(42, 1)


def test_failed_flow_record_is_prefix():
    # line with capacity 1: first units slip past before the failure bites
    w = build_world(3, [(0, 1), (1, 2)], capacity=2)
    w.schedule_flow(0, 0, 2, 6, 0)
    w.schedule_fault(3, 1, Health.failed())
    w.run(15)
    flow = w.engine.flows[0]
    assert flow.state is FlowState.FAILED
    n = len(flow.delivered_record)
    assert flow.delivered_record == list(range(n))
    assert n < 6


def test_clean_flow_has_no_clone_decisions(line_world):
    line_world.schedule_flow(0, 0, 2, 4, 0)
    line_world.run(10)
    assert line_world.engine.decisions == []
    assert line_world.engine.flows[0].state is FlowState.DELIVERED


def test_self_flow_delivers_at_open(line_world):
    fid = line_world.open_flow(0, 1, 1, 3)
    flow = line_world.engine.flows[fid]
    assert flow.state is FlowState.DELIVERED
    assert flow.delivered_record == [0, 1, 2]


def test_destination_prebuffer_record_keeps_duplicates(diamond_world):
    # false positive on node 1: originals survive it while clones take the
    # other arm, so the destination sees two copies of every cloned seq
    fid = diamond_world.open_flow(0, 0, 3, 3)
    d = diamond_world.engine.on_unhealthy(fid, 1, set())
    assert d.case_tag is CloneCase.TO_DESTINATION
    diamond_world.run(15)
    flow = diamond_world.engine.flows[fid]
    assert flow.state is FlowState.DELIVERED
    assert flow.delivered_record == [0, 1, 2]
    raw = flow.destination_arrivals
    assert len(raw) == 6  # every seq arrived twice, pre-buffer
    assert sorted(raw) == [0, 0, 1, 1, 2, 2]


# -- end-to-end recovery through the controller path ----------------------------------------

def test_harmless_suspect_does_not_stop_later_recovery(monkeypatch):
    """Phase 5 passes over a suspect with nothing at risk and recovers the
    flow from the next suspect on its path in the same tick."""
    w = build_world(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2, 3), (2, 4, 3)])
    fid = w.open_flow(0, 0, 5, 2)
    flow = w.engine.flows[fid]
    assert flow.path == [0, 1, 2, 3, 4, 5]
    w.run(2)  # both units on the wire from node 1 toward node 2
    monkeypatch.setattr(w.farm.controllers[0], "suspect_failed", lambda: frozenset({1, 3}))
    w.tick()
    [d] = w.engine.decisions
    assert (d.decided_tick, d.cloned_seqs) == (w.now, frozenset({0, 1}))
    assert flow.handled_bad == {1, 3}


def test_diamond_fault_recovers_exactly_once(diamond_world):
    diamond_world.schedule_flow(0, 0, 3, 4, 0)
    diamond_world.schedule_fault(2, 1, Health.failed())
    diamond_world.run(25)
    flow = diamond_world.engine.flows[0]
    assert flow.state is FlowState.DELIVERED
    assert flow.delivered_record == [0, 1, 2, 3]
    assert len(diamond_world.engine.decisions) == 1


def test_clone_latency_counts_from_flow_start(event_lines):
    """A clone injected ticks after its flow opened still counts its
    delivery latency from the flow's start tick, not from the decision."""
    w = build_world(4, [(0, 1, 4), (1, 3), (0, 2), (2, 3, 5)])
    w.run(2)
    fid = w.open_flow(0, 0, 3, 2)  # path 0-1-3; both units reach node 1 at t=7
    w.run(2)
    w.apply_health(1, Health.failed())
    d = w.engine.on_unhealthy(fid, 1, set())
    w.run(12)
    flow, engine = w.engine.flows[fid], w.engine
    assert (flow.start_tick, d.decided_tick, d.detour) == (2, 4, [0, 2, 3])
    assert engine.total_dropped == 2 and flow.delivered_record == [0, 1]  # clones delivered
    delivered = [int(l.split()[0][2:]) for l in event_lines[w.log] if " ev=deliver " in l]
    assert delivered == [11, 11]
    assert (engine.latency_sum, engine.latency_count) == (2 * (11 - 2), 2)


@pytest.mark.parametrize("path, simple", [
    ([0, 1, 2, 1, 3], [0, 1, 3]),
    ([0, 1, 2, 0, 4], [0, 4]),
], ids=["inner-loop", "loop-to-origin"])
def test_simplify_cuts_each_loop_back_to_the_first_visit(path, simple):
    assert _simplify(path) == simple


def test_determinism_same_seed_same_trace(diamond_world):
    def run_once():
        w = build_world(4, [(0, 1), (1, 3), (0, 2), (2, 3)], seed=11)
        w.schedule_flow(0, 0, 3, 4, 0)
        w.schedule_fault(2, 1, Health.malicious(0.4))
        w.run(30)
        return w.trace_hash()

    assert run_once() == run_once()
