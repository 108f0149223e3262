"""A fork shares no mutable state with the world it was forked from.

`reachable` walks an object graph with `gc.get_referents`. It stops at the
types a fork shares whole: memoized searches, a controller's domain
adjacency per slice links (tuple rows, built from links that never change
and read only by searches), the service registry, the task graph, the
composition report and clone decisions, none of which anything changes
once made, and the topology's `TransferMemo`, which is safe to share
because each entry is a pure function of node/link structure, health key
and source, and a structure change unbinds it.
It skips the fields that are only ever replaced, never changed in place
(unit routes, flow paths, buffers' onward paths, bus message payloads,
decision paths and links). Every other object reachable from both a world
and its fork must be immutable.
"""

import dataclasses
import enum
import gc
import itertools
from pathlib import Path

import pytest

from sdcps import CompositionDag, Decision, ServiceRegistry, Topology, World, parse_scenario
from sdcps.topology import HealthState, TransferMemo
from sdcps.bus import BusMessage
from sdcps.composition import Schedule
from sdcps.controller import Controller, DomainAdjacency, HealthMonitor, SegmentTable
from sdcps.farm import Farm, JoinGraph
from sdcps.flow_engine import CloneDecision, Flow, FlowState, ReorderBuffer, Unit
from sdcps.sandbox import DecisionKind, apply_decision, spawn_twin
from sdcps.scenario import build_world

from conftest import reference_effective_latency, reference_shortest_path

TESTS = Path(__file__).parent

SHARED_TYPES = (
    SegmentTable, DomainAdjacency, ServiceRegistry, CompositionDag, Schedule, CloneDecision,
    TransferMemo,
)
SHARED_FIELDS = {
    Unit: {"route"},
    Flow: {"path"},
    ReorderBuffer: {"onward"},
    BusMessage: {"payload"},
    Decision: {"new_path", "links"},
}
IMMUTABLE = (int, float, str, bool, type(None), tuple, frozenset)


def immutable(obj) -> bool:
    cls = type(obj)
    return (
        cls in IMMUTABLE
        or isinstance(obj, enum.Enum)
        or (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen)
    )


def reachable(root) -> dict[int, object]:
    """id -> object for every object reachable from root, classes aside."""
    seen = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, (SHARED_TYPES, enum.Enum)):
            continue
        skip = SHARED_FIELDS.get(type(obj))
        if skip is None:
            stack.extend(gc.get_referents(obj))
        else:
            stack.extend(v for k, v in vars(obj).items() if k not in skip)
    return seen


def shared_mutables(world, twin) -> list:
    theirs = reachable(twin)
    return [
        obj for i, obj in reachable(world).items()
        if i in theirs and not immutable(obj) and not isinstance(obj, SHARED_TYPES)
    ]


def malicious_world():
    """A malicious relay drops units, so at t=5 later seqs wait in the
    destination's reorder buffer for their clones; units are on the wire,
    reports wait on the bus and a composition has run."""
    world = build_world(parse_scenario((TESTS / "fixtures" / "malicious.json").read_text()))
    registry = ServiceRegistry(world.topology)
    registry.register_service("svc", 2, [0, 3])
    world.set_composition(registry, CompositionDag([("a", "svc"), ("b", "svc")], [("a", "b", 1)]))
    world.run_composition()
    world.run(5)
    return world


def composed_world():
    """The generated twin-rehearsal scenario right after its composition,
    which filled the topology's transfer table."""
    text = (TESTS / "golden" / "twin-rehearsal-2-0.json").read_text()
    world = build_world(parse_scenario(text))
    world.run_composition()
    return world


def rehearsal_world():
    """The generated twin-rehearsal scenario at t=60: three domains with
    peer digests and cached segment tables, failed nodes, clone decisions,
    a task graph, and a committed decision waiting for the next tick."""
    world = composed_world()
    world.run(60)
    world.task_overrides["sense0"] = 0
    world.pending_commits.append(Decision.inject_repair(7))
    return world


@pytest.fixture(params=[malicious_world, rehearsal_world])
def live_world(request):
    world = request.param()
    engine = world.engine
    assert any(u.in_transit for u in engine.units)
    assert world.bus._pending
    assert world.composition_report is not None
    farm = world.farm
    assert farm._joins and all(c._searches for c in farm.controllers.values())
    if request.param is malicious_world:
        assert any(buf.held for buf in engine.buffers.values())
    else:
        assert engine.decisions and farm._fetched
        assert any(c.peer_views for c in world.farm.controllers.values())
    return world


def placed_twin(world):
    """A twin with a commit pending and a task placed."""
    twin = spawn_twin(world)
    twin.pending_commits.append(Decision.inject_repair(0))
    task, service = twin.dag.tasks[0]
    twin.task_overrides.setdefault(task, min(twin.registry.lookup(service).providers))
    return twin


def untraced(world):
    """The world with its log untraced, as a rehearsal leaves its twin."""
    world.log.untrace()
    return world


@pytest.mark.parametrize("parent", [
    lambda world: world,
    untraced,
    lambda world: untraced(world).fork(),
    placed_twin,
], ids=["fork", "untraced-fork", "fork-of-untraced-fork", "fork-of-placed-twin"])
def test_fork_shares_no_mutable_state(live_world, parent):
    """The world and its fork, an untraced world and its fork, a fork of
    that world and its own fork, and a twin with a commit pending and a
    task placed and its fork."""
    world = parent(live_world)
    assert shared_mutables(world, world.fork()) == []


def test_guard_catches_a_fork_that_shares_a_container(monkeypatch):
    fork = HealthMonitor.fork

    def leaky(self, topology):
        twin = fork(self, topology)
        twin._windows = self._windows
        return twin

    monkeypatch.setattr(HealthMonitor, "fork", leaky)
    world = malicious_world()
    leaked = shared_mutables(world, world.fork())
    assert any(obj is world.farm.controllers[0].monitor._windows for obj in leaked)


def assert_guard_catches_a_shared_cache(monkeypatch, cls, field, owner, make_world):
    """Make `cls.fork` hand its twin the original's `field`; the guard must
    find that container, filled by the world's set-up and ticks, shared by
    the fork."""
    fork = cls.fork

    def leaky(self, *args):
        twin = fork(self, *args)
        setattr(twin, field, getattr(self, field))
        return twin

    monkeypatch.setattr(cls, "fork", leaky)
    world = make_world()
    cache = getattr(owner(world), field)
    assert cache
    assert any(obj is cache for obj in shared_mutables(world, world.fork()))


@pytest.mark.parametrize("cls, field, owner", [
    (Topology, "_effective", lambda world: world.topology),
    (Topology, "probes", lambda world: world.topology),
    (World, "_batches", lambda world: world),
])
def test_guard_catches_a_fork_that_shares_a_telemetry_cache(monkeypatch, cls, field, owner):
    assert_guard_catches_a_shared_cache(monkeypatch, cls, field, owner, malicious_world)


@pytest.mark.parametrize("field", ["options", "pending_commits", "task_overrides"])
def test_guard_catches_a_fork_that_shares_a_world_container(monkeypatch, field):
    """`WorldOptions` is a mutable dataclass, so sharing it counts too."""
    assert_guard_catches_a_shared_cache(monkeypatch, World, field, lambda world: world,
                                        rehearsal_world)


@pytest.mark.parametrize("cls, field, owner", [
    (Controller, "_searches", lambda world: world.farm.controllers[0]),
    (Controller, "_adjacency", lambda world: world.farm.controllers[0]),
    (Farm, "_joins", lambda world: world.farm),
    (Farm, "_fetched", lambda world: world.farm),
    (JoinGraph, "adj", lambda world: next(iter(world.farm._joins.values()))),
])
def test_guard_catches_a_fork_that_shares_an_admission_cache(monkeypatch, cls, field, owner):
    assert_guard_catches_a_shared_cache(monkeypatch, cls, field, owner, rehearsal_world)


def test_guard_catches_a_fork_that_shares_a_mutable_adjacency(monkeypatch):
    """A domain adjacency kept as a plain dict is mutable, so a fork that
    shares the controller's copy of it is caught."""
    monkeypatch.setattr("sdcps.controller.DomainAdjacency", dict)
    world = rehearsal_world()
    kept = [adj for c in world.farm.controllers.values() for adj in c._adjacency.values()]
    assert kept and all(type(adj) is dict for adj in kept)
    leaked = shared_mutables(world, world.fork())
    assert all(any(obj is adj for obj in leaked) for adj in kept)


@pytest.mark.parametrize("field", ["_adj", "_unhealthy"])
def test_guard_catches_a_fork_that_shares_a_transfer_source(monkeypatch, field):
    """The transfer memo is shared, but the tables its searches and keys are
    built from (the adjacency index and the health-key map) are each
    topology's own."""
    assert_guard_catches_a_shared_cache(
        monkeypatch, Topology, field, lambda world: world.topology, rehearsal_world
    )


def paths_disagree_with_reference(topo) -> list:
    """The (src, dst) pairs whose `paths_from` row is not the oracle's."""
    failed = {v for v in topo.nodes if topo.node(v).health.state is HealthState.FAILED}
    wrong = []
    for src, dst in itertools.product(topo.nodes, repeat=2):
        found = topo.paths_from(src).get(dst)
        if (None if found is None else (found[0], list(found[2]))) != reference_shortest_path(
            topo, src, dst, exclude_nodes=failed - {src, dst},
            latency_fn=lambda a, b: reference_effective_latency(topo, a, b),
        ):
            wrong.append((src, dst))
    return wrong


@pytest.mark.parametrize("in_place", [False, True])
def test_a_twins_new_link_leaves_the_worlds_transfers_alone(monkeypatch, in_place):
    """A twin's `add_link` unbinds its memo, so its next read binds a new
    one. Emptying the shared memo in place instead lets the twin's searches
    over its new link reach the world, whose later reads then disagree with
    the oracle."""
    if in_place:
        add_link = Topology.add_link

        def clearing(self, *args):
            memo = self._memo
            lid = add_link(self, *args)
            if memo is not None:  # unbound until the first read or fork
                self._memo = memo
                memo.clear()
            return lid

        monkeypatch.setattr(Topology, "add_link", clearing)
    world = malicious_world()
    twin = world.fork()
    twin.topology.add_link(0, 3, 1, 2)
    assert paths_disagree_with_reference(twin.topology) == []
    wrong = paths_disagree_with_reference(world.topology)
    assert (0, 3) in wrong if in_place else wrong == []


def decision_for(kind: DecisionKind, world) -> Decision:
    """A decision of each kind that resolves against the rehearsal world
    and changes it."""
    if kind is DecisionKind.INJECT_REPAIR:
        return Decision.inject_repair(9)
    if kind is DecisionKind.PLACE_TASK:
        task, service = world.dag.tasks[0]
        placed = world.composition_report.assignments[task][0]
        return Decision.place_task(task, max(world.registry.lookup(service).providers - {placed}))
    if kind is DecisionKind.SET_SLICE:
        sl = world.slices.get(0)
        return Decision.set_slice(0, sorted(sl.links), 0, sl.priority)
    flow = next(f for f in world.engine.flows.values() if f.state is FlowState.ACTIVE)
    sl = world.slices.get(flow.tenant)
    _, path = reference_shortest_path(
        world.topology, flow.origin, flow.destination,
        link_filter=lambda link: link.endpoints in sl.links, exclude_nodes=[flow.path[1]],
    )
    return Decision.reroute(flow.id, path)


@pytest.mark.parametrize("kind", list(DecisionKind))
def test_a_twin_decision_leaves_the_world_as_it_was(kind):
    world, reference = rehearsal_world(), rehearsal_world()
    before = (world.trace_hash(), world.summary(), world.rng.getstate())
    twin = spawn_twin(world)
    assert twin.engine._rng is twin.rng  # the twin's engine draws from its own RNG
    apply_decision(twin, decision_for(kind, twin))
    twin.run(10)
    for src in twin.topology.nodes:  # the twin's health key fills the shared memo first
        twin.topology.paths_from(src)
    assert twin.trace_hash() != before[0]
    assert (world.trace_hash(), world.summary(), world.rng.getstate()) == before
    for src in reference.topology.nodes:
        assert world.topology.paths_from(src) == reference.topology.paths_from(src)
    world.run(10)
    reference.run(10)
    assert (world.trace_hash(), world.summary()) == (reference.trace_hash(), reference.summary())
