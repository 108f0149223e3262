"""Service registry, task-graph composition, and load-aware list scheduling.

Placement is earliest-estimated-finish: tasks are visited in topological
order (ties by ascending task id) and each goes to the provider minimizing
max(latest input arrival, provider busy-until) + ceil(cost / capacity),
with input arrival = producer end + transfer_size * path latency over the
current health-aware topology: congestion stretches link latency and failed
nodes relay nothing. Each call searches once per producer node over that
topology. Ties break by ascending node id, so equal worlds always produce
equal schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    BadParameter,
    CyclicDag,
    DuplicateService,
    NoFeasibleProvider,
    NoProviders,
    UnknownService,
    UnreachableProvider,
)
from .topology import HealthState, NodeId, PathKey, Topology, multi_target_paths


@dataclass
class ServiceDef:
    name: str
    cost: int
    providers: frozenset[NodeId]


@dataclass
class CompositionDag:
    # (task id, service name) in declaration order
    tasks: list[tuple[str, str]]
    # (producer task, consumer task, transfer units)
    edges: list[tuple[str, str, int]] = field(default_factory=list)

    def task_ids(self) -> list[str]:
        return [t for t, _ in self.tasks]

    def validate(self) -> None:
        ids = self.task_ids()
        if len(ids) != len(set(ids)):
            raise BadParameter("task ids must be unique")
        known = set(ids)
        for a, b, size in self.edges:
            if a not in known or b not in known:
                raise BadParameter(f"edge ({a},{b}) references an unknown task")
            if size < 0:
                raise BadParameter(f"edge ({a},{b}) has negative transfer size")
        self.topo_order()

    def topo_order(self) -> list[str]:
        """Kahn's algorithm; ready tasks are taken in ascending task id."""
        indeg = {t: 0 for t in self.task_ids()}
        outs: dict[str, list[str]] = {t: [] for t in indeg}
        for a, b, _ in self.edges:
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

    def producers(self, task: str) -> list[tuple[str, int]]:
        return [(a, size) for a, b, size in self.edges if b == task]


@dataclass
class Schedule:
    assignments: dict[str, tuple[NodeId, int, int]]  # task -> (node, start, end)
    makespan: int


@dataclass
class ExecutionReport:
    makespan: int
    assignments: dict[str, tuple[NodeId, int, int]]
    replaced: list[str] = field(default_factory=list)


class ServiceRegistry:
    def __init__(self, topology: Topology):
        self._topology = topology
        self._services: dict[str, ServiceDef] = {}

    def register_service(self, name: str, cost: int, providers) -> ServiceDef:
        if name in self._services:
            raise DuplicateService(f"service {name!r} already registered")
        if cost <= 0:
            raise NoProviders(f"service {name!r}: cost must be > 0")
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


class _Transfers:
    """Health-aware transfer latencies for one `schedule` or `execute` call.

    Health is read once, when the call starts: one adjacency over every node,
    weighted by `effective_latency`, and one search per source node, memoized
    until the call returns, so a health change between calls is seen. Failed
    nodes other than the source may end a transfer but never relay one.
    """

    def __init__(self, topology: Topology, failed: set[NodeId]):
        self._adj = topology.adjacency(
            topology.nodes.keys(), latency_fn=topology.effective_latency
        )
        self._failed = failed
        self._from: dict[NodeId, dict[NodeId, PathKey]] = {}

    def latency(self, src: NodeId, dst: NodeId, size: int) -> Optional[int]:
        if size == 0 or src == dst:
            return 0
        if src not in self._from:
            self._from[src] = multi_target_paths(
                self._adj, src, self._adj.keys(), self._failed - {src}
            )
        found = self._from[src].get(dst)
        return None if found is None else found[0] * size


class Scheduler:
    """Pure function of (topology snapshot, registry, dag)."""

    def __init__(self, topology: Topology, registry: ServiceRegistry):
        self._topology = topology
        self._registry = registry

    def _failed_nodes(self) -> set[NodeId]:
        return {
            n for n, node in self._topology.nodes.items()
            if node.health.state is HealthState.FAILED
        }

    def _duration(self, cost: int, node: NodeId, congestion: bool = False) -> int:
        cap = self._topology.node(node).compute_capacity
        if congestion:
            cost = _ceil_div(int(round(cost * self._topology.slowdown(node) * 1000)), 1000)
        return _ceil_div(cost, cap)

    def schedule(self, dag: CompositionDag, overrides: Optional[dict[str, NodeId]] = None) -> Schedule:
        dag.validate()
        overrides = overrides or {}
        services = {t: self._registry.lookup(s) for t, s in dag.tasks}
        transfers = _Transfers(self._topology, self._failed_nodes())
        assignments: dict[str, tuple[NodeId, int, int]] = {}
        busy: dict[NodeId, int] = {}
        for task in dag.topo_order():
            sdef = services[task]
            exclude = frozenset()
            if task in overrides:
                exclude = sdef.providers - {overrides[task]}
            placed = self._place(task, sdef, dag, transfers, assignments, busy,
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

    def _place(
        self,
        task: str,
        sdef: ServiceDef,
        dag: CompositionDag,
        transfers: _Transfers,
        assignments: dict[str, tuple[NodeId, int, int]],
        busy: dict[NodeId, int],
        exclude: frozenset[NodeId] = frozenset(),
        congestion_aware: bool = False,
    ) -> Optional[tuple[NodeId, int, int]]:
        best = None
        for node in sorted(sdef.providers - exclude):
            ready = 0
            feasible = True
            for producer, size in dag.producers(task):
                pnode, _, pend = assignments[producer]
                lat = transfers.latency(pnode, node, size)
                if lat is None:
                    feasible = False
                    break
                ready = max(ready, pend + lat)
            if not feasible:
                continue
            start = max(ready, busy.get(node, 0))
            end = start + self._duration(sdef.cost, node, congestion=congestion_aware)
            if best is None or (end, node) < (best[2], best[0]):
                best = (node, start, end)
        return best

    def execute(self, schedule: Schedule, dag: CompositionDag) -> ExecutionReport:
        """Simulate the planned schedule against current node health.

        A provider that is failed at a task's start gets that one task
        re-placed; congestion stretches effective cost.
        """
        services = {t: self._registry.lookup(s) for t, s in dag.tasks}
        failed = self._failed_nodes()
        transfers = _Transfers(self._topology, failed)
        actual: dict[str, tuple[NodeId, int, int]] = {}
        busy: dict[NodeId, int] = {}
        replaced = []
        for task in dag.topo_order():
            sdef = services[task]
            node = schedule.assignments[task][0]
            if node in failed:
                replaced.append(task)
                placed = self._place(
                    task, sdef, dag, transfers, actual, busy,
                    exclude=frozenset(failed), congestion_aware=True,
                )
            else:
                # pin the planned provider; only its timing is re-derived
                placed = self._place(
                    task, sdef, dag, transfers, actual, busy,
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
        return ExecutionReport(makespan, actual, replaced)


def speedup_curve(
    n_tasks: int, instances: list[int], cost: int
) -> list[tuple[int, int, float]]:
    """Makespan and speedup of n independent equal tasks over m identical
    virtual execution spaces, for each m in `instances`."""
    from .topology import Node, NodeKind

    if n_tasks < 1:
        raise BadParameter(f"task count {n_tasks} must be >= 1")
    dag = CompositionDag([(f"t{i:04d}", "unit") for i in range(n_tasks)])

    def makespan(m: int) -> int:
        if m < 1:
            raise BadParameter(f"instance count {m} must be >= 1")
        topo = Topology()
        for i in range(m):
            topo.add_node(Node(i, NodeKind.CONTROLLER_VES, compute_capacity=1))
        registry = ServiceRegistry(topo)
        registry.register_service("unit", cost, range(m))
        return Scheduler(topo, registry).schedule(dag).makespan

    results = []
    base_makespan = None
    for m in instances:
        span = makespan(m)
        if base_makespan is None:
            base_makespan = makespan(1)
        results.append((m, span, base_makespan / span))
    return results


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)
