"""Service registry, task-graph composition, and load-aware list scheduling.

A `CompositionDag` is checked and ordered when it is built. Placement is
earliest-estimated-finish, in one loop that both planning (`schedule`) and
execution (`execute`) run: tasks are visited in the graph's topological
order (ties by ascending task id) and each goes to the candidate minimizing
max(latest input arrival, candidate busy-until) + ceil(cost / capacity),
with input arrival = producer end + transfer_size * path latency over the
current health-aware topology: congestion stretches link latency and failed
nodes relay nothing. Transfer paths and the failed set come from
`Topology.paths_from` and `Topology.failed_nodes`, memoized per health key
and shared with forks, so an `execute` after a `schedule` repeats no search.
Ties break by ascending node id, so equal worlds always produce equal schedules.
`World.run_composition` keeps one executed schedule per health-key entry,
under (task graph, registry, overrides); a composition that raises is not.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .errors import (
    BadParameter,
    CyclicDag,
    DuplicateService,
    NoFeasibleProvider,
    NoProviders,
    SdcpsError,
    UnknownService,
    UnreachableProvider,
)
from .topology import MAX_WEIGHT, Node, NodeId, NodeKind, Topology


@dataclass
class ServiceDef:
    name: str
    cost: int
    providers: frozenset[NodeId]


class CompositionDag:
    """A task graph, checked and indexed once, when it is built.

    `tasks` holds (task id, service name) pairs in declaration order and
    `edges` (producer, consumer, transfer units) triples. `order` is Kahn's
    order with ready tasks taken in ascending id, and `inputs` maps each
    task to its (producer, size) edges in edge order.
    """

    def __init__(self, tasks, edges=()):
        self.tasks = tuple(map(tuple, tasks))
        self.edges = tuple(map(tuple, edges))
        inputs: dict[str, list[tuple[str, int]]] = {t: [] for t, _ in self.tasks}
        if len(inputs) != len(self.tasks):
            raise BadParameter("task ids must be unique")
        outs: dict[str, list[str]] = {t: [] for t in inputs}
        for a, b, size in self.edges:
            if a not in inputs or b not in inputs:
                raise BadParameter(f"edge ({a},{b}) references an unknown task")
            if size < 0:
                raise BadParameter(f"edge ({a},{b}) has negative transfer size")
            inputs[b].append((a, size))
            outs[a].append(b)
        indeg = {t: len(ins) for t, ins in inputs.items()}
        ready = [t for t, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            t = heapq.heappop(ready)
            order.append(t)
            for b in outs[t]:
                indeg[b] -= 1
                if indeg[b] == 0:
                    heapq.heappush(ready, b)
        if len(order) != len(indeg):
            raise CyclicDag("composition graph contains a cycle")
        self.order = tuple(order)
        self.inputs = {t: tuple(ins) for t, ins in inputs.items()}


@dataclass
class Schedule:
    assignments: dict[str, tuple[NodeId, int, int]]  # task -> (node, start, end)
    makespan: int
    replaced: list[str] = field(default_factory=list)  # re-placed by `execute`


class ServiceRegistry:
    def __init__(self, topology: Topology):
        self._topology = topology
        self._services: dict[str, ServiceDef] = {}

    def register_service(self, name: str, cost: int, providers) -> ServiceDef:
        if name in self._services:
            raise DuplicateService(f"service {name!r} already registered")
        if cost <= 0:
            raise NoProviders(f"service {name!r}: cost must be > 0")
        if cost > MAX_WEIGHT:
            raise BadParameter(f"service {name!r}: cost must be <= {MAX_WEIGHT:.6g}")
        usable = frozenset(
            n for n in providers
            if self._topology.node(n).compute_capacity > 0
        )
        if not usable:
            raise NoProviders(f"service {name!r} has no providers with compute capacity")
        sdef = ServiceDef(name, cost, usable)
        self._services[name] = sdef
        return sdef

    def lookup(self, name: str) -> ServiceDef:
        if name not in self._services:
            raise UnknownService(f"unknown service {name!r}")
        return self._services[name]


class Scheduler:
    """Pure function of (topology snapshot, registry, dag)."""

    def __init__(self, topology: Topology, registry: ServiceRegistry):
        self._topology = topology
        self._registry = registry

    def _duration(self, cost: int, node: NodeId, congestion: bool) -> int:
        cap = self._topology.node(node).compute_capacity
        if congestion and (slowdown := self._topology.slowdown(node)) != 1.0:
            scaled = cost * slowdown * 1000
            if not math.isfinite(scaled):
                raise BadParameter(f"node {node}: congested task duration overflows")
            cost = _ceil_div(int(round(scaled)), 1000)
        return _ceil_div(cost, cap)

    def schedule(self, dag: CompositionDag, overrides: Optional[dict[str, NodeId]] = None) -> Schedule:
        """Plan against current health; an override pins its task to that
        node, and a node that does not provide the task's service leaves
        it no candidate."""
        overrides = overrides or {}

        def candidates(task: str, providers: frozenset[NodeId]) -> frozenset[NodeId]:
            return providers & {overrides[task]} if task in overrides else providers

        return self._assign(
            dag, candidates, congestion=False,
            unplaced=lambda task, service: UnreachableProvider(
                f"task {task}: no provider of {service!r} is reachable "
                f"from its input locations"
            ),
        )

    def execute(self, schedule: Schedule, dag: CompositionDag) -> Schedule:
        """Simulate the planned schedule against current node health.

        A provider that is failed at a task's start gets that one task
        re-placed on the live providers; congestion stretches effective
        cost.
        """
        failed = self._topology.failed_nodes()

        def candidates(task: str, providers: frozenset[NodeId]) -> frozenset[NodeId]:
            node = schedule.assignments[task][0]
            return providers - failed if node in failed else providers & {node}

        return self._assign(
            dag, candidates, congestion=True,
            unplaced=lambda task, service: NoFeasibleProvider(
                f"task {task}: every provider of {service!r} is failed"
            ),
            replaced=[t for t in dag.order if schedule.assignments[t][0] in failed],
        )

    def _assign(
        self,
        dag: CompositionDag,
        candidates: Callable[[str, frozenset[NodeId]], frozenset[NodeId]],
        congestion: bool,
        unplaced: Callable[[str, str], SdcpsError],
        replaced: Iterable[str] = (),
    ) -> Schedule:
        """Walk `dag.order` and put each task on the candidate that finishes
        it first, ties broken by ascending node id. A task with no
        candidate reachable from its inputs raises `unplaced(task, service)`."""
        services = {t: self._registry.lookup(s) for t, s in dag.tasks}
        paths_from = self._topology.paths_from
        assignments: dict[str, tuple[NodeId, int, int]] = {}
        busy: dict[NodeId, int] = {}
        for task in dag.order:
            sdef = services[task]
            inputs = [(assignments[p], size) for p, size in dag.inputs[task]]
            best = None
            for node in sorted(candidates(task, sdef.providers)):
                ready = 0
                for (pnode, _, pend), size in inputs:
                    if size and pnode != node:
                        found = paths_from(pnode).get(node)
                        if found is None:
                            break
                        pend += found[0] * size
                    ready = max(ready, pend)
                else:
                    start = max(ready, busy.get(node, 0))
                    end = start + self._duration(sdef.cost, node, congestion)
                    if best is None or (end, node) < (best[2], best[0]):
                        best = (node, start, end)
            if best is None:
                raise unplaced(task, sdef.name)
            assignments[task] = best
            busy[best[0]] = best[2]
        makespan = max((e for _, _, e in assignments.values()), default=0)
        return Schedule(assignments, makespan, list(replaced))


# The largest task count and instance count of a speedup curve, and the most
# instance counts one curve takes: one point at both caps takes about 0.4 s
# (CPython 3.11, 2-vCPU VM), so a curve of the most points about 13 s.
MAX_SWEEP_TASKS = 1024
MAX_SWEEP_INSTANCES = 1024
MAX_SWEEP_POINTS = 32


def speedup_curve(
    n_tasks: int, instances: list[int], cost: int
) -> list[tuple[int, int, float]]:
    """Makespan and speedup of n independent equal tasks over m identical
    virtual execution spaces, for each m in `instances`. Every count is
    checked before anything is built."""
    if not 1 <= n_tasks <= MAX_SWEEP_TASKS:
        raise BadParameter(f"task count {n_tasks} must be in 1..{MAX_SWEEP_TASKS}")
    if not 1 <= len(instances) <= MAX_SWEEP_POINTS:
        raise BadParameter(f"{len(instances)} instance counts; a curve takes 1..{MAX_SWEEP_POINTS}")
    for m in instances:
        if not 1 <= m <= MAX_SWEEP_INSTANCES:
            raise BadParameter(f"instance count {m} must be in 1..{MAX_SWEEP_INSTANCES}")
    dag = CompositionDag([(f"t{i:04d}", "unit") for i in range(n_tasks)])

    def makespan(m: int) -> int:
        topo = Topology()
        for i in range(m):
            topo.add_node(Node(i, NodeKind.CONTROLLER_VES, compute_capacity=1))
        registry = ServiceRegistry(topo)
        registry.register_service("unit", cost, range(m))
        return Scheduler(topo, registry).schedule(dag).makespan

    base_makespan = makespan(1)
    results = []
    for m in instances:
        span = makespan(m)
        results.append((m, span, base_makespan / span))
    return results


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)
