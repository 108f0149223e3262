"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Oracles here are deliberately independent re-implementations (BFS
reachability, merged-graph Dijkstra, exhaustive schedule enumeration).
"""

import itertools
import random
import time
from pathlib import Path

from sdcps import (
    CompositionDag,
    FlowState,
    Health,
    Node,
    NodeKind,
    Priority,
    Scheduler,
    ServiceRegistry,
    Topology,
    World,
    parse_scenario,
    run_scenario,
    spawn_twin,
    speedup_curve,
)
from sdcps.errors import NoPathInSlice

from conftest import path_latency

FIXTURES = Path(__file__).parent / "fixtures"


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


# -- shared random-world generator -----------------------------------------------

def random_flow_world(rng, max_nodes=50, units_range=(4, 8)):
    """Connected random graph, one domain, one full-coverage slice, one flow
    between nodes at hop distance >= 2."""
    n = rng.randint(6, max_nodes)
    w = World(seed=rng.randrange(1 << 30))
    for i in range(n):
        w.add_node(Node(i, NodeKind.SMART_DEVICE, compute_capacity=1))
    edges = set()
    for i in range(1, n):
        edges.add((rng.randrange(i), i))
    for _ in range(rng.randint(0, n // 2)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and (a, b) not in edges and (b, a) not in edges:
            edges.add((a, b))
    lids = []
    adjacency = {i: set() for i in range(n)}
    for a, b in sorted(edges):
        lids.append(w.add_link(a, b, rng.randint(1, 3), rng.randint(1, 3)))
        adjacency[a].add(b)
        adjacency[b].add(a)
    w.register_domain(0, range(n))
    w.allocate_slice(0, lids, 1, Priority.GOLD)
    w.finish_setup()
    # endpoints at hop distance >= 2 so an intermediate exists
    for _ in range(200):
        origin, dest = rng.sample(range(n), 2)
        if dest not in adjacency[origin]:
            break
    else:
        origin, dest = 0, n - 1
    units = rng.randint(*units_range)
    w.schedule_flow(0, origin, dest, units, 0)
    return w, adjacency, origin, dest, units


def bfs_reachable(adjacency, src, dst, excluded):
    if src in excluded or dst in excluded:
        return False
    seen = {src}
    frontier = [src]
    while frontier:
        u = frontier.pop()
        if u == dst:
            return True
        for v in adjacency[u]:
            if v not in excluded and v not in seen:
                seen.add(v)
                frontier.append(v)
    return dst in seen


# -- 1. exactly-once resilience -----------------------------------------------------

def test_acceptance_1_exactly_once_resilience():
    started = time.monotonic()
    rng = random.Random(20250417)
    scenarios = 0
    vacuous = 0
    draws = 0
    while scenarios < 110 and draws < 220:  # a cap, so rejected admissions fail, not hang
        draws += 1
        w, adjacency, origin, dest, units = random_flow_world(rng)
        w.tick()  # opens the flow
        flow = w.engine.flows.get(0)
        if flow is None or len(flow.path) < 3:
            continue
        scenarios += 1
        bad = rng.choice(flow.path[1:-1])
        fault_tick = rng.randint(2, 8)
        w.schedule_fault(fault_tick, bad, Health.failed())
        while w.now < fault_tick - 1:
            w.tick()
        # exposure snapshot: any undelivered unit not safely past the victim
        bad_idx = flow.path.index(bad)
        delivered = set(flow.delivered_record)
        exposed = False
        for u in w.engine.units:
            if u.flow != flow.id or u.seq in delivered:
                continue
            here_idx = (
                flow.path.index(u.route[u.position])
                if u.route[u.position] in flow.path
                else -1
            )
            if here_idx <= bad_idx:
                exposed = True
                break
        if len(delivered) == units:
            exposed = False
        for _ in range(250):  # until every flow is delivered or failed, with nothing pending
            w.tick()
            if not w.pending_flows and not w.pending_faults and all(
                f.state in (FlowState.DELIVERED, FlowState.FAILED) for f in w.engine.flows.values()
            ):
                break
        record = w.engine.flows[0].delivered_record
        state = w.engine.flows[0].state
        if not exposed:
            vacuous += 1
            assert state is FlowState.DELIVERED and record == list(range(units)), (
                f"unexposed flow must still deliver: {state} {record}"
            )
        elif bfs_reachable(adjacency, origin, dest, {bad}):
            assert state is FlowState.DELIVERED, (
                f"recoverable flow ended {state}: bad={bad} path={flow.path}"
            )
            assert record == list(range(units)), f"record {record} != 0..{units - 1}"
        else:
            assert state is FlowState.FAILED, (
                f"disconnected flow ended {state}: bad={bad}"
            )
            k = len(record)
            assert record == list(range(k)), f"failed record not a prefix: {record}"
    assert scenarios == 110, f"only {scenarios} of {draws} drawn worlds opened a multi-hop flow"
    elapsed = time.monotonic() - started
    _report(
        "1 exactly-once resilience",
        elapsed < 30,
        f"({scenarios} scenarios in {draws} draws, {vacuous} untouched by the fault, "
        f"{elapsed:.1f}s)",
    )


# -- 2. case arbitration ----------------------------------------------------------------

def test_acceptance_2_case_arbitration():
    _, _, chord = run_scenario(parse_scenario((FIXTURES / "chord_case2.json").read_text()))
    _, _, diamond = run_scenario(parse_scenario((FIXTURES / "diamond_fault.json").read_text()))
    chord_decisions = chord["clone_decisions"]
    diamond_decisions = diamond["clone_decisions"]
    ok = (
        len(chord_decisions) == 1
        and chord_decisions[0]["case"] == 2
        and chord_decisions[0]["clone_destination"] == 2
        and len(diamond_decisions) == 1
        and diamond_decisions[0]["case"] == 1
        and diamond_decisions[0]["clone_destination"] == 3
    )
    _report(
        "2 case arbitration",
        ok,
        f"(chord={chord_decisions}, diamond={diamond_decisions})",
    )


# -- 3. federation transparency -----------------------------------------------------------

def merged_dijkstra(topo, src, dst):
    import heapq

    dist = {src: 0}
    heap = [(0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == dst:
            return d
        if d > dist.get(u, 1 << 30):
            continue
        for v in topo.neighbors(u):
            nd = d + topo.link(u, v).latency
            if nd < dist.get(v, 1 << 30):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return None


def random_partitioned_world(rng):
    n = rng.randint(6, 20)
    w = World(seed=rng.randrange(1 << 20))
    for i in range(n):
        w.add_node(Node(i, NodeKind.SMART_DEVICE, compute_capacity=1))
    edges = {}
    for i in range(1, n):
        edges[(rng.randrange(i), i)] = rng.randint(1, 4)
    for _ in range(rng.randint(1, n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and (a, b) not in edges and (b, a) not in edges:
            edges[(a, b)] = rng.randint(1, 4)
    adjacency = {i: set() for i in range(n)}
    lids = []
    for (a, b), lat in sorted(edges.items()):
        lids.append(w.add_link(a, b, lat, 4))
        adjacency[a].add(b)
        adjacency[b].add(a)
    k = rng.randint(1, 4)
    seeds = rng.sample(range(n), k)
    owner = {s: i for i, s in enumerate(seeds)}
    changed = True
    while changed:
        changed = False
        for node in range(n):
            if node in owner:
                continue
            for nxt in sorted(adjacency[node]):
                if nxt in owner:
                    owner[node] = owner[nxt]
                    changed = True
                    break
    domains = {}
    for node, did in sorted(owner.items()):
        domains.setdefault(did, []).append(node)
    for did in sorted(domains):
        w.register_domain(did, domains[did])
    w.allocate_slice(0, lids, 1, Priority.GOLD)
    w.finish_setup()
    return w


def test_acceptance_3_federation_transparency():
    started = time.monotonic()
    rng = random.Random(777)
    checked = 0
    mismatches = 0
    for _ in range(22):
        w = random_partitioned_world(rng)
        nodes = w.topology.node_ids()
        for src, dst in itertools.permutations(nodes, 2):
            expected = merged_dijkstra(w.topology, src, dst)
            try:
                path = w.farm.cross_domain_path(src, dst, 0)
                got = path_latency(w.topology, path)
            except NoPathInSlice:
                got = None
            checked += 1
            if got != expected:
                mismatches += 1
    elapsed = time.monotonic() - started
    _report(
        "3 federation transparency",
        mismatches == 0 and elapsed < 10,
        f"({checked} pairs, {mismatches} mismatches, {elapsed:.1f}s)",
    )


# -- 4. tenant isolation ----------------------------------------------------------------------

def test_acceptance_4_tenant_isolation(event_lines, qos_grants):
    scenario = parse_scenario((FIXTURES / "qos_contention.json").read_text())
    world, _, summary = run_scenario(scenario)
    slice_a = world.slices.get(0)
    share = slice_a.share
    violations = []
    tenant_0_grants = 0
    for requests, grants in qos_grants:
        for tenant, _prio, shr, pending in requests:
            if tenant != 0:
                continue
            granted = grants.get(tenant, 0)
            tenant_0_grants += granted
            if granted < min(pending, shr):
                violations.append((pending, shr, granted))
    # every unit tenant 0 sent must ride a slice link
    off_slice = []
    for line in event_lines[world.log]:
        if "ev=send flow=0 " in line:
            a, b = line.rsplit("link=", 1)[1].split("-")
            lid = tuple(sorted((int(a), int(b))))
            if lid not in slice_a.links:
                off_slice.append(line)
    a_flow = summary["flows"][0]
    ok = (
        tenant_0_grants > 0
        and not violations
        and not off_slice
        and a_flow["state"] == "delivered"
        and a_flow["delivered"] == list(range(8))
        and summary["totals"]["slice_violations"] == 0
    )
    _report(
        "4 tenant isolation",
        ok,
        f"(tenant-0 grants={tenant_0_grants}, guarantee breaches={violations[:3]}, "
        f"off-slice={len(off_slice)}, share={share})",
    )


# -- 5. speedup curve shape ----------------------------------------------------------------------

def test_acceptance_5_speedup_curve():
    instances = [1, 2, 4, 8, 16, 32, 64, 128]
    ok = True
    detail = []
    for cost in (1, 3):
        rows = speedup_curve(64, instances, cost)
        speedups = []
        for m, makespan, speedup in rows:
            expected = -(-64 // m) * cost
            if makespan != expected:
                ok = False
                detail.append(f"m={m}: makespan {makespan} != {expected}")
            speedups.append(speedup)
        if speedups != sorted(speedups):
            ok = False
            detail.append("speedup not monotone")
        by_m = {m: sp for m, _, sp in rows}
        if by_m[128] != by_m[64]:
            ok = False
            detail.append("gain beyond parallel width")
    _report("5 speedup curve shape", ok, "; ".join(detail))


# -- 6. twin fidelity ----------------------------------------------------------------------------

def test_acceptance_6_twin_fidelity():
    started = time.monotonic()
    rng = random.Random(600)
    failures = []
    for i in range(25):
        w, adjacency, origin, dest, units = random_flow_world(rng, max_nodes=16)
        horizon = rng.randint(8, 16)
        if rng.random() < 0.6:
            victim = rng.randrange(len(adjacency))
            if victim not in (origin, dest):
                health = (
                    Health.failed()
                    if rng.random() < 0.5
                    else Health.malicious(rng.random())
                )
                w.schedule_fault(rng.randint(1, horizon), victim, health)
        fidelity_twin = spawn_twin(w)
        scratch_twin = spawn_twin(w)
        # twin mutations must never touch the physical run
        scratch_twin.apply_health(origin, Health.congested(2.5))
        scratch_twin.run(3)
        reference = spawn_twin(w)  # pristine copy run side by side
        w.run(horizon)
        fidelity_twin.run(horizon)
        reference.run(horizon)
        if fidelity_twin.trace_hash() != w.trace_hash():
            failures.append(f"scenario {i}: twin hash diverged")
        if reference.trace_hash() != w.trace_hash():
            failures.append(f"scenario {i}: physical perturbed by twin activity")
    elapsed = time.monotonic() - started
    _report(
        "6 twin fidelity",
        not failures and elapsed < 10,
        f"(25 scenarios, {elapsed:.1f}s) {failures[:2]}",
    )


# -- 7. determinism across the fixture corpus ------------------------------------------------------

def test_acceptance_7_determinism():
    mismatched = []
    for path in sorted(FIXTURES.glob("*.json")):
        scenario_a = parse_scenario(path.read_text())
        scenario_b = parse_scenario(path.read_text())
        w1, h1, s1 = run_scenario(scenario_a)
        w2, h2, s2 = run_scenario(scenario_b)
        bytes1 = "\n".join(m.to_json() for m in w1.metrics).encode()
        bytes2 = "\n".join(m.to_json() for m in w2.metrics).encode()
        if h1 != h2 or bytes1 != bytes2 or s1 != s2:
            mismatched.append(path.name)
    _report(
        "7 determinism",
        not mismatched,
        f"({len(list(FIXTURES.glob('*.json')))} fixtures) {mismatched}",
    )


# -- 8. scheduler quality --------------------------------------------------------------------------

def test_acceptance_8_scheduler_quality():
    started = time.monotonic()
    worst = 0.0
    cases = 0
    for n_tasks in range(1, 9):
        for m in range(1, 4):
            for cost in (1, 2, 5):
                topo = Topology()
                for i in range(m):
                    topo.add_node(Node(i, NodeKind.CONTROLLER_VES, compute_capacity=1))
                registry = ServiceRegistry(topo)
                registry.register_service("svc", cost, range(m))
                dag = CompositionDag([(f"t{i}", "svc") for i in range(n_tasks)])
                got = Scheduler(topo, registry).schedule(dag).makespan
                best = min(
                    max(
                        sum(cost for t in range(n_tasks) if assignment[t] == k)
                        for k in range(m)
                    )
                    for assignment in itertools.product(range(m), repeat=n_tasks)
                )
                cases += 1
                worst = max(worst, got / best)
                assert got <= 1.5 * best, (n_tasks, m, cost, got, best)
    elapsed = time.monotonic() - started
    _report(
        "8 scheduler quality",
        worst <= 1.5 and elapsed < 20,
        f"({cases} instances, worst ratio {worst:.2f}, {elapsed:.1f}s)",
    )
