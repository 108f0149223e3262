import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from sdcps import (
    CompositionDag,
    Health,
    Node,
    NodeKind,
    Scheduler,
    ServiceRegistry,
    Topology,
    build_world,
    parse_scenario,
    speedup_curve,
)
from sdcps import topology as topology_module
from sdcps import composition
from sdcps.composition import MAX_SWEEP_POINTS, Schedule
from sdcps.topology import TRANSFER_KEYS, HealthState
from sdcps.errors import (
    BadParameter,
    CyclicDag,
    DuplicateService,
    NoFeasibleProvider,
    NoProviders,
    SdcpsError,
    UnknownService,
    UnreachableProvider,
)

from conftest import (
    make_node,
    reference_effective_latency,
    reference_execute,
    reference_schedule,
    reference_shortest_path,
    reference_topo_order,
)

FIXTURES = Path(__file__).parent / "fixtures"


def compute_node(i, capacity=1):
    return Node(i, NodeKind.CONTROLLER_VES, compute_capacity=capacity)


def providers_topology(m, capacity=1, link_latency=None):
    """m compute nodes; optionally chained by links of the given latency."""
    topo = Topology()
    for i in range(m):
        topo.add_node(compute_node(i, capacity))
    if link_latency is not None:
        for i in range(m - 1):
            topo.add_link(i, i + 1, link_latency, 4)
    return topo


# -- registry ---------------------------------------------------------------------

def test_register_and_lookup():
    topo = providers_topology(2)
    reg = ServiceRegistry(topo)
    reg.register_service("svc", 3, [0, 1])
    assert reg.lookup("svc").cost == 3


def test_register_duplicate_name():
    topo = providers_topology(1)
    reg = ServiceRegistry(topo)
    reg.register_service("svc", 1, [0])
    with pytest.raises(DuplicateService):
        reg.register_service("svc", 2, [0])


def test_register_zero_capacity_providers_filtered():
    topo = Topology()
    topo.add_node(make_node(0))  # switch, zero compute
    reg = ServiceRegistry(topo)
    with pytest.raises(NoProviders):
        reg.register_service("svc", 1, [0])


def test_unknown_service_at_schedule_time():
    topo = providers_topology(1)
    reg = ServiceRegistry(topo)
    sched = Scheduler(topo, reg)
    with pytest.raises(UnknownService):
        sched.schedule(CompositionDag([("t0", "ghost")]))


# -- schedule ---------------------------------------------------------------------

def test_single_task_ceiling_division():
    topo = providers_topology(1, capacity=2)
    reg = ServiceRegistry(topo)
    reg.register_service("svc", 4, [0])
    sched = Scheduler(topo, reg).schedule(CompositionDag([("t0", "svc")]))
    assert sched.makespan == 2


def test_four_equal_tasks_two_providers():
    topo = providers_topology(2)
    reg = ServiceRegistry(topo)
    cost = 3
    reg.register_service("svc", cost, [0, 1])
    dag = CompositionDag([(f"t{i}", "svc") for i in range(4)])
    sched = Scheduler(topo, reg).schedule(dag)
    # oracle: every assignment of 4 equal tasks to 2 identical machines
    best = min(
        max(sum(cost for t in range(4) if assign[t] == m) for m in range(2))
        for assign in itertools.product(range(2), repeat=4)
    )
    assert best == 2 * cost
    assert sched.makespan == best


def test_chain_waits_for_transfer():
    topo = Topology()
    topo.add_node(compute_node(0))
    topo.add_node(compute_node(1))
    topo.add_link(0, 1, 3, 4)
    reg = ServiceRegistry(topo)
    reg.register_service("first", 2, [0])
    reg.register_service("second", 2, [1])
    dag = CompositionDag([("a", "first"), ("b", "second")], [("a", "b", 1)])
    sched = Scheduler(topo, reg).schedule(dag)
    a_node, a_start, a_end = sched.assignments["a"]
    b_node, b_start, b_end = sched.assignments["b"]
    assert (a_node, b_node) == (0, 1)
    assert b_start == a_end + 3


def test_transfer_scales_with_size():
    topo = Topology()
    topo.add_node(compute_node(0))
    topo.add_node(compute_node(1))
    topo.add_link(0, 1, 2, 4)
    reg = ServiceRegistry(topo)
    reg.register_service("first", 1, [0])
    reg.register_service("second", 1, [1])
    dag = CompositionDag([("a", "first"), ("b", "second")], [("a", "b", 3)])
    sched = Scheduler(topo, reg).schedule(dag)
    assert sched.assignments["b"][1] == sched.assignments["a"][2] + 2 * 3


def test_cyclic_dag_rejected():
    with pytest.raises(CyclicDag):
        CompositionDag([("a", "svc"), ("b", "svc")], [("a", "b", 0), ("b", "a", 0)])


def test_duplicate_task_ids_rejected():
    with pytest.raises(BadParameter):
        CompositionDag([("a", "svc"), ("a", "svc")])


def random_dag(rng, max_tasks=12):
    n = rng.randint(1, max_tasks)
    tasks = [(f"t{i:02d}", "svc") for i in range(n)]
    edges = []
    for j in range(1, n):
        for i in range(j):
            if rng.random() < 0.25:
                edges.append((f"t{i:02d}", f"t{j:02d}", rng.randint(0, 3)))
    return CompositionDag(tasks, edges)


def test_schedule_validity_property():
    rng = random.Random(17)
    for _ in range(40):
        m = rng.randint(1, 4)
        topo = providers_topology(m, capacity=rng.randint(1, 3), link_latency=1)
        reg = ServiceRegistry(topo)
        reg.register_service("svc", rng.randint(1, 5), range(m))
        dag = random_dag(rng)
        sched = Scheduler(topo, reg).schedule(dag)
        # per-node intervals must not overlap
        by_node = {}
        for task, (node, start, end) in sched.assignments.items():
            assert end > start
            by_node.setdefault(node, []).append((start, end))
        for intervals in by_node.values():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2
        # precedence with transfer latency honored
        failed = {v for v in topo.nodes if topo.node(v).health.state is HealthState.FAILED}
        for a, b, size in dag.edges:
            a_node, _, a_end = sched.assignments[a]
            b_node, b_start, _ = sched.assignments[b]
            lat, _path = reference_shortest_path(
                topo, a_node, b_node, exclude_nodes=failed - {a_node, b_node},
                latency_fn=topo.effective_latency,
            )
            assert b_start >= a_end + lat * size
        assert sched.makespan == max(e for _, _, e in sched.assignments.values())


def test_determinism_identical_inputs_identical_schedule():
    def build():
        topo = providers_topology(3, link_latency=2)
        reg = ServiceRegistry(topo)
        reg.register_service("svc", 2, [0, 1, 2])
        dag = CompositionDag(
            [("a", "svc"), ("b", "svc"), ("c", "svc"), ("d", "svc")],
            [("a", "c", 1), ("b", "d", 2)],
        )
        return Scheduler(topo, reg).schedule(dag)

    assert build() == build()


# -- execute ------------------------------------------------------------------------

def test_execute_healthy_matches_plan():
    topo = providers_topology(2, link_latency=1)
    reg = ServiceRegistry(topo)
    reg.register_service("svc", 2, [0, 1])
    dag = CompositionDag([("a", "svc"), ("b", "svc")], [("a", "b", 1)])
    scheduler = Scheduler(topo, reg)
    plan = scheduler.schedule(dag)
    report = scheduler.execute(plan, dag)
    assert report.makespan == plan.makespan
    assert report.assignments == plan.assignments
    assert report.replaced == []


def test_execute_replaces_failed_provider():
    topo = providers_topology(2, link_latency=1)
    reg = ServiceRegistry(topo)
    reg.register_service("svc", 2, [0, 1])
    dag = CompositionDag([("a", "svc")])
    scheduler = Scheduler(topo, reg)
    plan = scheduler.schedule(dag)
    assert plan.assignments["a"][0] == 0
    topo.set_health(0, Health.failed())
    report = scheduler.execute(plan, dag)
    assert report.replaced == ["a"]
    assert report.assignments["a"][0] == 1


def test_reused_scheduler_sees_health_change_in_transfers():
    # 0-1-2 at latency 1 per link, or 0-3-2 at latency 3 per link
    topo = Topology()
    for i in range(4):
        topo.add_node(compute_node(i))
    for a, b, latency in [(0, 1, 1), (1, 2, 1), (0, 3, 3), (3, 2, 3)]:
        topo.add_link(a, b, latency, 4)
    reg = ServiceRegistry(topo)
    reg.register_service("first", 2, [0])
    reg.register_service("second", 2, [2])
    dag = CompositionDag([("a", "first"), ("b", "second")], [("a", "b", 1)])
    scheduler = Scheduler(topo, reg)
    plan = scheduler.schedule(dag)
    report = scheduler.execute(plan, dag)
    assert report.assignments["b"][1] == report.assignments["a"][2] + 2
    topo.set_health(1, Health.failed())
    report = scheduler.execute(plan, dag)
    assert report.assignments["b"][1] == report.assignments["a"][2] + 6
    failed = {v for v in topo.nodes if topo.node(v).health.state is HealthState.FAILED}
    lat, _path = reference_shortest_path(
        topo, 0, 2, exclude_nodes=failed - {0, 2}, latency_fn=topo.effective_latency
    )
    assert lat * 1 == 6  # the a->b edge carries size 1


def assert_paths_match_reference(topo):
    failed = {v for v in topo.nodes if topo.node(v).health.state is HealthState.FAILED}
    assert topo.failed_nodes() == failed
    for src, dst in itertools.product(topo.nodes, repeat=2):
        found = topo.paths_from(src).get(dst)
        assert (None if found is None else (found[0], list(found[2]))) == reference_shortest_path(
            topo, src, dst, exclude_nodes=failed - {src, dst},
            latency_fn=lambda a, b: reference_effective_latency(topo, a, b),
        )


def other_health(rng, topo, v):
    return rng.choice([h for h in (Health.healthy(), Health.failed(), Health.congested(2.0))
                       if h != topo.node(v).health])


@pytest.mark.parametrize("seed", range(6))
def test_transfers_match_pairwise_reference(seed):
    """`Topology.paths_from` and `failed_nodes` match the pairwise oracle,
    read again after each kind of change that must select other searches:
    health that reverts, a fork's health change searched before the world
    reads the same health, a fork's new link or node, and more health keys
    than the memo holds."""
    rng = random.Random(seed)
    forks = random.Random(-1 - seed)  # draws of the fork cases leave rng's sequence as it was
    for _ in range(20):
        n = rng.randint(2, 9)
        topo = providers_topology(n)
        for i in range(1, n):
            topo.add_link(i, rng.randrange(i), rng.randint(1, 4), 4)
        for _ in range(rng.randint(0, n)):
            a, b = rng.sample(range(n), 2)
            if not topo.has_link(a, b):
                topo.add_link(a, b, rng.randint(1, 4), 4)
        for v in range(n):
            r = rng.random()
            if r < 0.2:
                topo.set_health(v, Health.failed())
            elif r < 0.45:
                topo.set_health(v, Health.congested(rng.choice([1.5, 2.0, 3.5])))
        assert_paths_match_reference(topo)
        v = rng.randrange(n)
        health_a = topo.node(v).health
        topo.set_health(v, rng.choice(
            [Health.healthy(), Health.failed(), Health.congested(3.0)]
        ))
        assert_paths_match_reference(topo)
        health_b = topo.node(v).health
        for health in (health_a, health_b):  # A -> B -> A -> B
            topo.set_health(v, health)
            assert_paths_match_reference(topo)
        twin, u = topo.fork(), forks.randrange(n)
        twin.set_health(u, other_health(forks, topo, u))
        assert_paths_match_reference(twin)
        topo.set_health(u, twin.node(u).health)  # reads what the twin searched
        assert_paths_match_reference(topo)
        unlinked = [p for p in itertools.combinations(range(n), 2) if not topo.has_link(*p)]
        if unlinked:
            twin = topo.fork()
            twin.add_link(*forks.choice(unlinked), 1, 4)
            assert_paths_match_reference(twin)
            assert_paths_match_reference(topo)
        twin = topo.fork()
        twin.add_node(Node(n, NodeKind.CONTROLLER_VES, 1))
        assert_paths_match_reference(twin)
        twin.add_node(Node(n + 1, NodeKind.CONTROLLER_VES, 1, Health.congested(2.0)))
        twin.add_link(n, n + 1, 1, 4)
        twin.add_link(n + 1, forks.randrange(n), 1, 4)
        assert_paths_match_reference(twin)
        assert_paths_match_reference(topo)
        a, b = rng.sample(range(n), 2)
        if not topo.has_link(a, b):
            topo.add_link(a, b, 1, 4)
        assert_paths_match_reference(topo)
        topo.add_node(Node(n, NodeKind.CONTROLLER_VES, 1, Health.failed()))
        assert_paths_match_reference(topo)
        topo.add_link(n, rng.randrange(n), 1, 4)
        assert_paths_match_reference(topo)
    keys = [Health.congested(1.0 + k / 4) for k in range(TRANSFER_KEYS + 3)]
    for health in keys + keys[:3]:  # the first three are evicted, then searched again
        topo.set_health(0, health)
        assert_paths_match_reference(topo)
        assert len(topo._memo) <= TRANSFER_KEYS


def test_composition_runs_each_transfer_search_once(monkeypatch):
    """Under unchanged health, `execute` reads the searches `schedule` ran,
    and a second composition runs none."""
    sources = []
    search = topology_module.multi_target_paths

    def counted(adj, src, *args):
        sources.append(src)
        return search(adj, src, *args)

    monkeypatch.setattr(topology_module, "multi_target_paths", counted)
    text = (Path(__file__).parent / "golden" / "twin-rehearsal-2-0.json").read_text()
    world = build_world(parse_scenario(text))
    world.run_composition()
    assert sources and len(sources) == len(set(sources))
    del sources[:]
    world.run_composition()
    assert sources == []


def test_congestion_overflow_is_raised_by_the_first_transfer_search():
    """The transfer adjacency is built when a search first needs it, so a
    graph with no cross-node transfer never reads an overflowing link."""
    topo = providers_topology(3, link_latency=1)
    reg = ServiceRegistry(topo)
    reg.register_service("first", 2, [0])
    reg.register_service("second", 2, [2])
    for n in (1, 2):
        topo.set_health(n, Health.congested(1e200))
    scheduler = Scheduler(topo, reg)
    local = CompositionDag([("a", "first"), ("b", "first")], [("a", "b", 1)])
    assert scheduler.schedule(local).makespan == 4
    remote = CompositionDag([("a", "first"), ("b", "second")], [("a", "b", 1)])
    with pytest.raises(BadParameter, match=r"link \(1, 2\)"):
        scheduler.schedule(remote)


def test_congestion_overflow_aborts_scheduling():
    topo = providers_topology(3, link_latency=1)
    reg = ServiceRegistry(topo)
    reg.register_service("first", 2, [0])
    reg.register_service("second", 2, [2])
    dag = CompositionDag([("a", "first"), ("b", "second")], [("a", "b", 1)])
    for n in (1, 2):
        topo.set_health(n, Health.congested(1e200))
    with pytest.raises(BadParameter, match=r"link \(1, 2\)"):
        Scheduler(topo, reg).schedule(dag)


def test_congested_task_duration_overflow_aborts_execution():
    doc = json.loads((FIXTURES / "composition.json").read_text())
    huge = {"kind": "congested", "slowdown": 1e306}
    doc["faults"] = [{"tick": 1, "node": n, "health": huge} for n in (2, 3)]
    world = build_world(parse_scenario(json.dumps(doc)))
    world.run(3)
    with pytest.raises(BadParameter, match=r"^node 2: congested task duration overflows$"):
        world.run_composition()


def test_healthy_task_duration_is_exact_integer_arithmetic():
    """On a healthy node the congestion-aware duration is the planned one,
    with no float rounding of a large cost."""
    topo = providers_topology(1)
    scheduler = Scheduler(topo, ServiceRegistry(topo))
    cost = 2**60 + 1
    assert scheduler._duration(cost, 0, True) == scheduler._duration(cost, 0, False) == cost


def test_healthy_execution_of_the_largest_cost_does_not_overflow():
    topo = providers_topology(1)
    reg = ServiceRegistry(topo)
    reg.register_service("svc", topology_module.MAX_WEIGHT, [0])
    dag = CompositionDag([("a", "svc")])
    scheduler = Scheduler(topo, reg)
    plan = scheduler.schedule(dag)
    report = scheduler.execute(plan, dag)
    assert report.makespan == plan.makespan == topology_module.MAX_WEIGHT


def test_execute_all_providers_failed():
    topo = providers_topology(2, link_latency=1)
    reg = ServiceRegistry(topo)
    reg.register_service("svc", 2, [0, 1])
    dag = CompositionDag([("a", "svc")])
    scheduler = Scheduler(topo, reg)
    plan = scheduler.schedule(dag)
    topo.set_health(0, Health.failed())
    topo.set_health(1, Health.failed())
    with pytest.raises(NoFeasibleProvider):
        scheduler.execute(plan, dag)


def test_execute_congestion_stretches_cost():
    topo = providers_topology(1)
    reg = ServiceRegistry(topo)
    reg.register_service("svc", 2, [0])
    dag = CompositionDag([("a", "svc")])
    scheduler = Scheduler(topo, reg)
    plan = scheduler.schedule(dag)
    topo.set_health(0, Health.congested(3.0))
    report = scheduler.execute(plan, dag)
    assert report.makespan == 6


def test_execute_utilization():
    topo = providers_topology(2)
    reg = ServiceRegistry(topo)
    reg.register_service("svc", 4, [0, 1])
    dag = CompositionDag([("a", "svc"), ("b", "svc")])
    scheduler = Scheduler(topo, reg)
    report = scheduler.execute(scheduler.schedule(dag), dag)
    assert report.assignments == {"a": (0, 0, 4), "b": (1, 0, 4)}


# -- one placement loop ---------------------------------------------------------------

def random_composition(rng):
    """Up to 8 nodes, switches among them, joined by links of latency 1 or 2
    so that ties are common; 1-3 services over random provider sets; and a
    random task graph over those services."""
    n = rng.randint(2, 8)
    topo = Topology()
    for i in range(n):
        if i and rng.random() < 0.25:
            topo.add_node(make_node(i))  # a switch relays but computes nothing
        else:
            topo.add_node(compute_node(i, rng.randint(1, 2)))
    for i in range(1, n):
        topo.add_link(i, rng.randrange(i), rng.choice([1, 1, 2]), 4)
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(range(n), 2)
        if not topo.has_link(a, b):
            topo.add_link(a, b, rng.choice([1, 1, 2]), 4)
    compute = [i for i in range(n) if topo.node(i).compute_capacity > 0]
    reg = ServiceRegistry(topo)
    services = [f"s{k}" for k in range(rng.randint(1, 3))]
    for name in services:
        reg.register_service(name, rng.randint(1, 4),
                             rng.sample(compute, rng.randint(1, len(compute))))
    n_tasks = rng.randint(1, 10)
    tasks = [(f"t{i:02d}", rng.choice(services)) for i in range(n_tasks)]
    edges = [
        (f"t{i:02d}", f"t{j:02d}", rng.randint(0, 3))
        for j in range(n_tasks) for i in range(j) if rng.random() < 0.3
    ]
    rng.shuffle(tasks)
    return topo, reg, CompositionDag(tasks, edges)


def shake(rng, topo):
    """Give every node a random health: failed, congested or healthy."""
    for v in topo.nodes:
        r = rng.random()
        if r < 0.15:
            topo.set_health(v, Health.failed())
        elif r < 0.4:
            topo.set_health(v, Health.congested(rng.choice([1.5, 2.0, 3.5])))
        else:
            topo.set_health(v, Health.healthy())


def outcome(fn, *args):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except SdcpsError as exc:
        return type(exc), str(exc)


def test_placement_matches_the_two_loop_reference():
    """`schedule` and `execute` place exactly as the two loops they replace,
    over failed and congested providers and relays and over overrides,
    including ones that name no provider of the task's service."""
    rng = random.Random(15)
    seen = Counter()
    for _ in range(300):
        topo, reg, dag = random_composition(rng)
        assert dag.order == tuple(reference_topo_order(dag))
        overrides = {t: rng.randrange(len(topo.nodes)) for t, _ in dag.tasks
                     if rng.random() < 0.2}
        shake(rng, topo)
        scheduler = Scheduler(topo, reg)
        plan = outcome(scheduler.schedule, dag, overrides)
        assert plan == outcome(reference_schedule, topo, reg, dag, overrides)
        if not isinstance(plan, Schedule):
            seen[plan[0]] += 1
            continue
        seen["planned"] += 1
        planned = {v: node.health for v, node in topo.nodes.items()}
        shake(rng, topo)
        report = outcome(scheduler.execute, plan, dag)
        assert report == outcome(reference_execute, topo, reg, plan, dag)
        if isinstance(report, Schedule):
            seen["replaced" if report.replaced else "executed"] += 1
        else:
            seen[report[0]] += 1
        shaken = {v: node.health for v, node in topo.nodes.items()}
        for health in (planned, shaken):  # health reverts between plan and execution
            for v, h in health.items():
                topo.set_health(v, h)
            assert outcome(scheduler.execute, plan, dag) == outcome(
                reference_execute, topo, reg, plan, dag)
    assert min(seen[k] for k in ("planned", "replaced", "executed",
                                 UnreachableProvider, NoFeasibleProvider)) >= 10, seen


# -- composition memo ------------------------------------------------------------------

def scenario_world(name):
    return build_world(parse_scenario((Path(__file__).parent / name).read_text()))


def fresh_composition(world):
    """What `World.run_composition` reports, from a new `Scheduler`."""
    scheduler = Scheduler(world.topology, world.registry)
    return scheduler.execute(scheduler.schedule(world.dag, world.task_overrides), world.dag)


def count_schedules(monkeypatch):
    """Wrap `Scheduler.schedule`; return the list its calls append to."""
    calls = []
    schedule = Scheduler.schedule

    def counted(self, *args, **kwargs):
        calls.append(args)
        return schedule(self, *args, **kwargs)

    monkeypatch.setattr(Scheduler, "schedule", counted)
    return calls


def composition_moves(world, rng):
    """A random health change of a node, or a random override change, drawn
    from few values so that earlier (health, overrides) pairs recur. Nodes
    fail, congest and heal; an override names a provider, or a node that
    provides nothing of its task's service."""
    nodes = sorted(world.topology.nodes)
    healths = [Health.healthy(), Health.healthy(), Health.failed(), Health.congested(2.5)]
    tasks = [t for t, _ in world.dag.tasks][:3]
    while True:
        if rng.random() < 0.5:
            world.apply_health(rng.choice(nodes[:6]), rng.choice(healths))
        else:
            task = rng.choice(tasks)
            providers = sorted(world.registry.lookup(dict(world.dag.tasks)[task]).providers)
            choice = rng.choice(providers[:2] * 2 + [nodes[0], None, None])
            if choice is None:
                world.task_overrides.pop(task, None)
            else:
                world.task_overrides[task] = choice
        yield


@pytest.mark.parametrize("name", ["fixtures/composition.json", "golden/twin-rehearsal-2-0.json"])
def test_a_memoized_composition_equals_a_fresh_one(monkeypatch, name):
    """Across health and override changes, on the world and on forks that
    share its memo, every composition reports (or raises) what a fresh
    `schedule` + `execute` does, and recurring pairs are not scheduled again."""
    world = scenario_world(name)
    rng = random.Random(7)
    moves = composition_moves(world, rng)
    calls = count_schedules(monkeypatch)
    seen, outcomes = set(), Counter()
    for step in range(150):
        next(moves)
        composer = world.fork() if step % 3 == 0 else world
        expected = outcome(fresh_composition, world)
        before = len(calls)
        got = outcome(composer.run_composition)
        assert got == expected, step
        key = (world.topology._health_key, frozenset(world.task_overrides.items()))
        hit = len(calls) == before
        assert not hit or key in seen
        seen.add(key)
        outcomes["raised" if isinstance(got, tuple) else "hit" if hit else "miss"] += 1
    assert min(outcomes.values()) >= 10 and len(outcomes) == 3, outcomes


def test_a_composition_that_raises_raises_again(monkeypatch):
    """No failed composition is kept: an unreachable override, every
    provider of a task failed, and a congested duration that overflows each
    raise on every call, scheduling again, until the world changes back."""
    world = scenario_world("fixtures/composition.json")
    good = world.run_composition()
    calls = count_schedules(monkeypatch)
    overflow = Health.congested(1e306)
    for error, change, undo in [
        (UnreachableProvider, lambda: world.task_overrides.update(act=0),
         lambda: world.task_overrides.clear()),
        (NoFeasibleProvider, lambda: world.apply_health(4, Health.failed()),
         lambda: world.apply_health(4, Health.healthy())),
        (BadParameter, lambda: [world.apply_health(n, overflow) for n in (2, 3)],
         lambda: [world.apply_health(n, Health.healthy()) for n in (2, 3)]),
    ]:
        change()
        del calls[:]
        first = outcome(world.run_composition)
        assert first[0] is error
        assert outcome(world.run_composition) == first
        assert outcome(world.fork().run_composition) == first
        assert len(calls) == 3
        undo()
        assert world.run_composition() == good


def test_a_new_task_graph_reads_no_old_entry(monkeypatch):
    """After `set_composition`, a composition under the same health and
    overrides is the new graph's, even for a graph equal to the old one."""
    world = scenario_world("fixtures/composition.json")
    registry, old = world.registry, world.dag
    world.run_composition()
    calls = count_schedules(monkeypatch)
    for dag in [
        CompositionDag([("ingest", "sense"), ("fuse", "sense"), ("act", "actuate")],
                       [("ingest", "fuse", 2), ("fuse", "act", 3)]),
        CompositionDag(old.tasks, old.edges),
    ]:
        world.set_composition(registry, dag)
        del calls[:]
        assert world.run_composition() == fresh_composition(world)
        assert len(calls) == 2, dag.tasks  # the memo's and the fresh one
        assert world.topology.health_entry().composed[0][0] is dag


def test_the_memo_holds_one_composition_per_health_key(monkeypatch):
    """Each health key's entry holds the last composition under it, and
    only that one: after overrides X, overrides Y and then X again are each
    scheduled, and X once more is not."""
    world = scenario_world("golden/twin-rehearsal-2-0.json")
    moves = composition_moves(world, random.Random(3))
    for _ in range(60):
        next(moves)
        got = outcome(world.run_composition)
        last = world.topology.health_entry().composed
        for entry in world.topology._memo.values():
            assert entry.composed == () or len(entry.composed) == 2
        if isinstance(got, Schedule):
            assert last[0][2] == frozenset(world.task_overrides.items())
    world.task_overrides.clear()
    world.run_composition()
    calls = count_schedules(monkeypatch)
    for overrides in ({}, {"sense0": 22}, {}):
        world.task_overrides = dict(overrides)
        world.run_composition()
    assert len(calls) == 2
    world.run_composition()
    assert len(calls) == 2


# -- speedup curve ---------------------------------------------------------------------

def test_speedup_curve_arithmetic():
    rows = {m: (mk, sp) for m, mk, sp in speedup_curve(64, [1, 64, 128], 1)}
    assert rows[1] == (64, 1.0)
    assert rows[64] == (1, 64.0)
    assert rows[128] == (1, 64.0)  # no gain beyond parallel width


def test_speedup_curve_monotone_and_bounded():
    instances = [1, 2, 4, 8, 16, 32, 64, 128]
    rows = speedup_curve(64, instances, 3)
    speedups = [sp for _, _, sp in rows]
    assert speedups == sorted(speedups)
    for (m, makespan, sp) in rows:
        assert makespan == -(-64 // m) * 3
        assert sp <= min(m, 64) + 1e-9


def test_speedup_curve_refuses_too_many_points_before_building(monkeypatch):
    """A curve of up to MAX_SWEEP_POINTS counts runs; one more is refused
    before any topology is built."""
    assert len(speedup_curve(4, [1] * MAX_SWEEP_POINTS, 1)) == MAX_SWEEP_POINTS

    def no_build():
        raise AssertionError("a topology was built")

    monkeypatch.setattr(composition, "Topology", no_build)
    for instances in ([], [1] * (MAX_SWEEP_POINTS + 1)):
        message = f"^{len(instances)} instance counts; a curve takes 1..{MAX_SWEEP_POINTS}$"
        with pytest.raises(BadParameter, match=message):
            speedup_curve(4, instances, 1)


def test_list_schedule_within_bound_of_optimum():
    # every instance with <= 8 equal tasks on <= 3 identical providers
    for n_tasks in range(1, 9):
        for m in range(1, 4):
            for cost in (1, 2, 3):
                topo = providers_topology(m)
                reg = ServiceRegistry(topo)
                reg.register_service("svc", cost, range(m))
                dag = CompositionDag([(f"t{i}", "svc") for i in range(n_tasks)])
                sched = Scheduler(topo, reg).schedule(dag)
                best = min(
                    max(
                        sum(cost for t in range(n_tasks) if assign[t] == k)
                        for k in range(m)
                    )
                    for assign in itertools.product(range(m), repeat=n_tasks)
                )
                assert sched.makespan <= 1.5 * best
