import heapq
import math
from collections import defaultdict
from typing import NamedTuple

import pytest

from sdcps import Node, NodeKind, Priority, Topology, World, flow_engine
from sdcps.composition import Schedule, Scheduler
from sdcps.controller import (
    _FRESH_WINDOW,
    DEFAULT_CONGESTION_THRESHOLD,
    DEFAULT_WINDOW,
    LOSS,
    HealthEstimate,
    Verdict,
    merge_verdicts,
)
from sdcps.errors import (
    BadParameter,
    CyclicDag,
    NoFeasibleProvider,
    UnreachableProvider,
    UnresolvableDecision,
)
from sdcps.events import EventLog
from sdcps.farm import Farm
from sdcps.sandbox import MetricsDelta, apply_decision
from sdcps.topology import HealthState, link_id, multi_target_paths


def make_node(i, kind=NodeKind.SWITCH, compute=None):
    if compute is None:
        compute = 0 if kind is NodeKind.SWITCH else 1
    return Node(i, kind, compute_capacity=compute)


def build_topology(n_nodes, links):
    """links: iterable of (a, b) or (a, b, latency) or (a, b, latency, capacity)."""
    topo = Topology()
    for i in range(n_nodes):
        topo.add_node(make_node(i))
    for spec in links:
        a, b = spec[0], spec[1]
        latency = spec[2] if len(spec) > 2 else 1
        capacity = spec[3] if len(spec) > 3 else 1
        topo.add_link(a, b, latency, capacity)
    return topo


def path_latency(topo, path):
    """Sum of nominal link latencies along a node path."""
    return sum(topo.link(a, b).latency for a, b in zip(path, path[1:]))


def reference_shortest_path(topo, src, dst, link_filter=None, exclude_nodes=(),
                            latency_fn=None):
    """Independent pairwise oracle: a lazy Dijkstra over loop-free paths that
    reads the topology directly and ranks by (latency, hops, node sequence)."""
    topo.node(src)
    topo.node(dst)
    excluded = set(exclude_nodes)
    if src in excluded or dst in excluded:
        return None
    if src == dst:
        return 0, [src]
    cost = latency_fn or (lambda a, b: topo.link(a, b).latency)
    best = {}
    heap = [(0, 0, (src,))]
    while heap:
        dist, hops, path = heapq.heappop(heap)
        node = path[-1]
        key = (dist, hops, path)
        if node in best and best[node] < key:
            continue
        if node == dst:
            return dist, list(path)
        for nxt in topo.neighbors(node):
            if nxt in excluded or nxt in path:
                continue
            link = topo.link(node, nxt)
            if link_filter is not None and not link_filter(link):
                continue
            nkey = (dist + cost(node, nxt), hops + 1, path + (nxt,))
            if nxt not in best or nkey < best[nxt]:
                best[nxt] = nkey
                heapq.heappush(heap, nkey)
    return None


def reference_effective_latency(topo, a, b):
    """Latency of link a-b scaled by both endpoints' congestion, computed
    from the nodes' health on every call."""

    def slowdown(n):
        h = topo.nodes[n].health
        return h.slowdown if h.state is HealthState.CONGESTED else 1.0

    scaled = topo.link(a, b).latency * slowdown(a) * slowdown(b)
    if not math.isfinite(scaled):
        raise BadParameter(f"link {link_id(a, b)}: congested latency overflows")
    return max(1, math.ceil(scaled))


class ReferenceHealthMonitor:
    """`HealthMonitor` as it was before run lengths were capped: every
    observation of every report is applied, and run lengths grow without
    bound."""

    def __init__(self, topology, window=DEFAULT_WINDOW,
                 congestion_threshold=DEFAULT_CONGESTION_THRESHOLD):
        self._topology = topology
        self.window = window
        self.congestion_threshold = congestion_threshold
        self._windows = {}

    def estimates(self):
        return {
            n: verdict
            for n, (_run, _length, verdict) in sorted(self._windows.items())
            if verdict is not Verdict.HEALTHY
        }

    def ingest(self, entries):
        """Apply each (reporter, observations) pair in turn."""
        transitions = []
        for reporter, observations in entries:
            self._topology.node(reporter)
            for neighbor, observation in observations:
                self._topology.node(neighbor)
                nominal = self._topology.link(reporter, neighbor).latency
                if observation == LOSS:
                    points_to = Verdict.SUSPECT_FAILED
                elif observation > self.congestion_threshold * nominal:
                    points_to = Verdict.SUSPECT_CONGESTED
                else:
                    points_to = Verdict.HEALTHY
                run, length, before = self._windows.get(neighbor, _FRESH_WINDOW)
                length = length + 1 if points_to is run else 1
                verdict = points_to if length >= self.window else before
                self._windows[neighbor] = (points_to, length, verdict)
                if verdict is not before:
                    transitions.append(HealthEstimate(neighbor, verdict))
        return transitions


def reference_telemetry(world, t):
    """`World._telemetry` without reuse: every live node probes every
    neighbour afresh, in node order, with one RNG draw per probe of a
    malicious neighbour. Each domain's reports are sent as one batch of
    (reporter, observations) pairs, in reporter order, domains in id order."""
    topo = world.topology
    batches = defaultdict(list)
    for reporter in topo.node_ids():
        if topo.nodes[reporter].health.state is HealthState.FAILED:
            continue
        observations = []
        for neighbor in topo.neighbors(reporter):
            h = topo.nodes[neighbor].health
            if h.state is HealthState.FAILED:
                observations.append((neighbor, LOSS))
            elif h.state is HealthState.MALICIOUS and world.rng.random() < h.drop_prob:
                observations.append((neighbor, LOSS))
            else:
                observations.append(
                    (neighbor, reference_effective_latency(topo, reporter, neighbor))
                )
        if observations:
            batches[world.farm.resolve(reporter)].append((reporter, tuple(observations)))
    for cid in sorted(batches):
        world.farm.send_reports(cid, tuple(batches[cid]), t)


def record_reports(mp):
    """Wrap `Farm.send_reports` through the monkeypatch `mp` and return the
    record: farm object -> the reports it sent, batches flattened in send
    order, each pair as a (reporter, tick, observations) triple at its
    batch's tick."""
    recorded = defaultdict(list)
    send = Farm.send_reports

    def recording_send(farm, cid, entries, tick):
        recorded[farm].extend((r, tick, obs) for r, obs in entries)
        send(farm, cid, entries, tick)

    mp.setattr(Farm, "send_reports", recording_send)
    return recorded


def reference_segment_table(ctrl, sl, terminals):
    """`Controller.segment_table` before searches were memoized: one search
    per terminal over an adjacency of the slice's links built for the
    table, with the suspects merged afresh from the monitor and the peer
    views."""
    merged = merge_verdicts([ctrl.monitor.estimates(), *ctrl.peer_views.values()])
    suspects = {n for n, v in merged.items() if v is Verdict.SUSPECT_FAILED}
    adj = ctrl._topology.adjacency(ctrl.domain_nodes, sl.links)
    table = {}
    terms = sorted(set(terminals) & ctrl.domain_nodes)
    for i, u in enumerate(terms[:-1]):
        found = multi_target_paths(adj, u, terms[i + 1:], suspects - {u})
        for v, (dist, _hops, seq) in sorted(found.items()):
            table[(u, v)] = (dist, list(seq))
            table[(v, u)] = (dist, list(reversed(seq)))
    return table


def reference_cross_domain_path(farm, cache, src, dst, tenant):
    """`Farm.cross_domain_path` as a table join: the orchestrator gathers
    each domain's segment table of its terminals (src, dst and the
    endpoints of slice links that cross domains) from `cache`, keyed by
    (controller, slice links, terminals), and joins the tables and the
    gateway links in one search. Return the route, or None where there is
    no slice route, and the messages counted: a request and its reply per
    peer table missing from `cache`. The caller empties `cache` whenever
    the farm's `invalidate_caches` runs."""
    messages = 0
    orchestrator = farm.resolve(src)
    farm.resolve(dst)
    sl = farm._slices.get(tenant)

    owner = farm._owner
    gateways = [
        (a, b) for a, b in sorted(sl.links)
        if a in owner and b in owner and owner[a] != owner[b]
    ]
    terminals = {c: set() for c in farm.controllers}
    terminals[orchestrator].add(src)
    terminals[farm.resolve(dst)].add(dst)
    for a, b in gateways:
        terminals[farm.resolve(a)].add(a)
        terminals[farm.resolve(b)].add(b)

    segments = {}
    for cid in sorted(farm.controllers):
        terms = sorted(terminals[cid])
        if len(terms) < 2:
            continue
        cache_key = (cid, sl.links, tuple(terms))
        table = cache.get(cache_key)
        if table is None:
            table = reference_segment_table(farm.controllers[cid], sl, terms)
            if cid != orchestrator:
                messages += 2  # the request and its reply
            cache[cache_key] = table
        segments.update(table)

    for a, b in gateways:
        w = farm._topology.links[(a, b)].latency
        segments[(a, b)] = (w, [a, b])
        segments[(b, a)] = (w, [b, a])
    adj = {}
    for (u, v), (w, path) in segments.items():
        adj.setdefault(u, []).append((v, w, len(path) - 1))
    found = multi_target_paths(adj, src, {dst}).get(dst)
    if found is None:
        return None, messages
    seq = found[2]
    route = [src]
    for hop in zip(seq, seq[1:]):
        route += segments[hop][1][1:]
    return route, messages


class Admission(NamedTuple):
    request: tuple  # (src, dst, tenant)
    route: object  # None where NoPathInSlice was raised
    messages: int
    expected_route: object
    expected_messages: int


def record_admissions(mp):
    """Wrap `Farm.cross_domain_path` and `Farm.invalidate_caches` through the
    monkeypatch `mp` so every admission also runs
    `reference_cross_domain_path`, with one reference cache per farm that
    each invalidation empties. Return the list of `Admission`s made."""
    caches = defaultdict(dict)
    admissions = []
    invalidate, compose = Farm.invalidate_caches, Farm.cross_domain_path

    def invalidating(farm):
        caches[farm].clear()
        invalidate(farm)

    def composing(farm, src, dst, tenant):
        expected = reference_cross_domain_path(farm, caches[farm], src, dst, tenant)
        before, route = farm.message_count, None
        try:
            route = compose(farm, src, dst, tenant)
            return route
        finally:
            admissions.append(
                Admission((src, dst, tenant), route, farm.message_count - before, *expected)
            )

    mp.setattr(Farm, "invalidate_caches", invalidating)
    mp.setattr(Farm, "cross_domain_path", composing)
    return admissions


def reference_topo_order(dag):
    """Kahn's algorithm over a sorted ready list; ready tasks are taken in
    ascending task id."""
    indeg = {t: 0 for t, _ in dag.tasks}
    outs = {t: [] for t in indeg}
    for a, b, _ in dag.edges:
        indeg[b] += 1
        outs[a].append(b)
    ready = sorted(t for t, d in indeg.items() if d == 0)
    order = []
    while ready:
        t = ready.pop(0)
        order.append(t)
        changed = False
        for b in outs[t]:
            indeg[b] -= 1
            if indeg[b] == 0:
                ready.append(b)
                changed = True
        if changed:
            ready.sort()
    if len(order) != len(indeg):
        raise CyclicDag("composition graph contains a cycle")
    return order


def _reference_duration(topology, cost, node, congestion=False):
    cap = topology.node(node).compute_capacity
    if congestion and topology.slowdown(node) != 1.0:
        cost = -(-int(round(cost * topology.slowdown(node) * 1000)) // 1000)
    return -(-cost // cap)


def _reference_place(topology, task, sdef, dag, transfers, assignments, busy,
                     exclude=frozenset(), congestion_aware=False):
    best = None
    for node in sorted(sdef.providers - exclude):
        ready = 0
        feasible = True
        for producer, size in [(a, size) for a, b, size in dag.edges if b == task]:
            pnode, _, pend = assignments[producer]
            lat = transfers(pnode, node, size)
            if lat is None:
                feasible = False
                break
            ready = max(ready, pend + lat)
        if not feasible:
            continue
        start = max(ready, busy.get(node, 0))
        end = start + _reference_duration(topology, sdef.cost, node, congestion=congestion_aware)
        if best is None or (end, node) < (best[2], best[0]):
            best = (node, start, end)
    return best


def _failed_nodes(topology):
    return {n for n, node in topology.nodes.items() if node.health.state is HealthState.FAILED}


def _reference_transfers(topology, failed):
    """Transfer latency of `size` units from src to dst over the pairwise
    oracle, where failed nodes other than src and dst relay nothing;
    memoized per (src, dst) for one reference call."""
    paths = {}

    def latency(src, dst, size):
        if size == 0 or src == dst:
            return 0
        if (src, dst) not in paths:
            paths[(src, dst)] = reference_shortest_path(
                topology, src, dst, exclude_nodes=failed - {src, dst},
                latency_fn=topology.effective_latency,
            )
        found = paths[(src, dst)]
        return None if found is None else found[0] * size

    return latency


def reference_schedule(topology, registry, dag, overrides=None):
    """`Scheduler.schedule` as a loop of its own: each task goes to the
    provider that finishes it first, or only to its override, where the
    override provides the task's service."""
    overrides = overrides or {}
    services = {t: registry.lookup(s) for t, s in dag.tasks}
    transfers = _reference_transfers(topology, _failed_nodes(topology))
    assignments = {}
    busy = {}
    for task in reference_topo_order(dag):
        sdef = services[task]
        exclude = frozenset()
        if task in overrides:
            exclude = sdef.providers - {overrides[task]}
        placed = _reference_place(topology, task, sdef, dag, transfers, assignments, busy,
                                  exclude=exclude)
        if placed is None:
            raise UnreachableProvider(
                f"task {task}: no provider of {sdef.name!r} is reachable "
                f"from its input locations"
            )
        node, start, end = placed
        assignments[task] = (node, start, end)
        busy[node] = end
    makespan = max((e for _, _, e in assignments.values()), default=0)
    return Schedule(assignments, makespan)


def reference_execute(topology, registry, schedule, dag):
    """`Scheduler.execute` as a loop of its own: each task keeps its planned
    node unless that node has failed, when it goes to the live provider that
    finishes it first; congestion stretches every task's cost."""
    services = {t: registry.lookup(s) for t, s in dag.tasks}
    failed = _failed_nodes(topology)
    transfers = _reference_transfers(topology, failed)
    actual = {}
    busy = {}
    replaced = []
    for task in reference_topo_order(dag):
        sdef = services[task]
        node = schedule.assignments[task][0]
        if node in failed:
            replaced.append(task)
            placed = _reference_place(
                topology, task, sdef, dag, transfers, actual, busy,
                exclude=frozenset(failed), congestion_aware=True,
            )
        else:
            placed = _reference_place(
                topology, task, sdef, dag, transfers, actual, busy,
                exclude=frozenset(failed) | (sdef.providers - {node}),
                congestion_aware=True,
            )
        if placed is None:
            raise NoFeasibleProvider(
                f"task {task}: every provider of {sdef.name!r} is failed"
            )
        actual[task] = placed
        busy[placed[0]] = placed[2]
    makespan = max((e for _, _, e in actual.values()), default=0)
    return Schedule(actual, makespan, replaced)


def reference_safely_past(engine, flow, seq, bad_idx):
    """Per-seq oracle for `FlowEngine.at_risk_seqs`: True when the unit can no
    longer be harmed by the flagged node.

    A unit is safe once its current node, or the node it is on the wire
    toward, lies strictly beyond the flagged index; anything at or heading
    into the flagged node is at risk.
    """
    for u in engine.units:
        if u.flow == flow.id and u.seq == seq:
            idx = flow.path_index(u.route[u.position])
            if idx is None:
                continue  # stranded on an old detour: treat as at risk
            if idx > bad_idx:
                return True
    return False


def reference_beyond_buffer_point(engine, flow, seq, point_idx):
    """Per-seq oracle for a new REJOIN buffer's `done` set: will this unit
    never pass through the buffer node again?"""
    for u in engine.units:
        if u.flow == flow.id and u.seq == seq:
            here = u.route[u.position]
            idx = flow.path_index(here)
            if idx is None:
                continue
            if u.in_transit and idx > point_idx:
                return True
            if not u.in_transit and idx >= point_idx:
                return True
    return False


def reference_high_water(engine, flow):
    """Per-seq oracle for `Flow.progress` after a path rewrite: seq -> its
    furthest index on the rewritten canonical path."""
    done = engine.buffers[(flow.id, flow.destination)].done
    high_water = {}
    positions = {}
    for u in engine.units:
        if u.flow != flow.id:
            continue
        idx = flow.path_index(u.route[u.position])
        if idx is not None:
            positions[u.seq] = max(positions.get(u.seq, 0), idx)
    for seq in range(flow.units):
        if seq in done:
            high_water[seq] = len(flow.path) - 1
        else:
            high_water[seq] = positions.get(seq, 0)
    return high_water


def reference_makespan(world: World) -> int:
    """The makespan of `World.run_composition` without its memo: a fresh
    `Scheduler` plans and executes the world's task graph."""
    scheduler = Scheduler(world.topology, world.registry)
    schedule = scheduler.schedule(world.dag, overrides=world.task_overrides)
    return scheduler.execute(schedule, world.dag).makespan


def reference_evaluate(twin: World, decision, horizon: int) -> MetricsDelta:
    """`sandbox.evaluate` with two branches for every decision kind, each
    composed by `reference_makespan`."""
    if horizon < 1:
        raise UnresolvableDecision("horizon must be >= 1")
    snapshot_tick = twin.now
    baseline = twin.fork()
    candidate = twin.fork()
    apply_decision(candidate, decision)  # UnresolvableDecision propagates
    baseline.run(horizon)
    candidate.run(horizon)
    makespan = 0
    if baseline.dag is not None:
        base = reference_makespan(baseline)
        makespan = reference_makespan(candidate) - base

    def mean_latency(w: World) -> float:
        e = w.engine
        return e.latency_sum / e.latency_count if e.latency_count else 0.0

    return MetricsDelta(
        delivered_units=candidate.engine.total_delivered - baseline.engine.total_delivered,
        mean_latency=mean_latency(candidate) - mean_latency(baseline),
        makespan=makespan,
        violations=candidate.engine.slice_violations - baseline.engine.slice_violations,
        snapshot_tick=snapshot_tick,
    )


def record_event_lines(mp):
    """Wrap `EventLog.emit` through the monkeypatch `mp` so every emitted line
    is also kept, and return the record: log object -> its lines, in emit
    order. A twin's log is a new object, so its lines start at the snapshot."""
    recorded = defaultdict(list)
    emit = EventLog.emit

    def recording_emit(log, line):
        recorded[log].append(line)
        emit(log, line)

    mp.setattr(EventLog, "emit", recording_emit)
    return recorded


@pytest.fixture
def event_lines(monkeypatch):
    """`event_lines[world.log]`: the lines that log emitted in this test."""
    return record_event_lines(monkeypatch)


@pytest.fixture
def qos_grants(monkeypatch):
    """Every link allocation the flow engine makes in this test, as
    `(requests, grants)` of its `qos_schedule` call."""
    calls = []
    schedule = flow_engine.qos_schedule

    def recording_schedule(capacity, requests):
        grants = schedule(capacity, requests)
        calls.append((requests, grants))
        return grants

    monkeypatch.setattr(flow_engine, "qos_schedule", recording_schedule)
    return calls


def build_world(n_nodes, links, seed=0, share=1, priority=Priority.GOLD,
                capacity=2, options=None):
    """Single-domain world with one tenant sliced over every link."""
    w = World(seed=seed, options=options)
    for i in range(n_nodes):
        kind = NodeKind.SMART_DEVICE
        w.add_node(Node(i, kind, compute_capacity=1))
    link_ids = []
    for spec in links:
        a, b = spec[0], spec[1]
        latency = spec[2] if len(spec) > 2 else 1
        cap = spec[3] if len(spec) > 3 else capacity
        link_ids.append(w.add_link(a, b, latency, cap))
    w.register_domain(0, range(n_nodes))
    w.allocate_slice(0, link_ids, share, priority)
    w.finish_setup()
    return w


@pytest.fixture
def diamond_world():
    # 0-1-3 and 0-2-3, equal latencies
    return build_world(4, [(0, 1), (1, 3), (0, 2), (2, 3)])


@pytest.fixture
def line_world():
    return build_world(3, [(0, 1), (1, 2)])


@pytest.fixture
def chord_world():
    # admitted path 0-1-2-3; the chord 0-2 is the standing detour
    return build_world(4, [(0, 1), (1, 2), (2, 3), (0, 2, 3)])
