"""Modelling sandbox: spawn a one-to-one twin of the world, rehearse a
decision over a horizon on it, and commit the decision to the physical
world only if the rehearsal improved things. A rehearsal spends its twin
and untraces its log, since no one reads its digest: a `place_task`
decision, which changes only composition, replays the twin's own tick
boundaries (composition reads nothing the other phases change); any other
decision runs the baseline on the twin and the decision on one fork of it.
A commit is applied at the next tick boundary, or refused there if it no
longer resolves.

A twin is a `World.fork()`: a copy of the live state that shares only what
nothing changes in place, with its metrics records empty. It runs the same
code the physical world runs; with the same seed its trace hash and totals
continue tick for tick from the physical world's. Twin mutations can never
touch physical state.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .controller import Priority
from .errors import MidTickSpawn, SdcpsError, StaleDelta, UnresolvableDecision
from .topology import Health, NodeId, link_id
from .world import World


class DecisionKind(str, Enum):
    REROUTE = "reroute"
    SET_SLICE = "set_slice"
    PLACE_TASK = "place_task"
    INJECT_REPAIR = "inject_repair"


@dataclass(frozen=True)
class Decision:
    kind: DecisionKind
    flow: Optional[int] = None
    new_path: Optional[list[NodeId]] = None
    tenant: Optional[int] = None
    links: Optional[list] = None
    share: Optional[int] = None
    priority: Optional[Priority] = None
    task: Optional[str] = None
    node: Optional[NodeId] = None

    @classmethod
    def reroute(cls, flow: int, new_path: list[NodeId]) -> "Decision":
        return cls(DecisionKind.REROUTE, flow=flow, new_path=list(new_path))

    @classmethod
    def set_slice(cls, tenant: int, links, share: int, priority: Priority) -> "Decision":
        return cls(DecisionKind.SET_SLICE, tenant=tenant, links=list(links),
                   share=share, priority=priority)

    @classmethod
    def place_task(cls, task: str, node: NodeId) -> "Decision":
        return cls(DecisionKind.PLACE_TASK, task=task, node=node)

    @classmethod
    def inject_repair(cls, node: NodeId) -> "Decision":
        return cls(DecisionKind.INJECT_REPAIR, node=node)


@dataclass
class MetricsDelta:
    delivered_units: int
    mean_latency: float
    makespan: int
    violations: int
    snapshot_tick: int


def spawn_twin(world: World) -> World:
    """Fork the world at a tick boundary into an isolated twin."""
    if world.mid_tick:
        raise MidTickSpawn("twins may only be spawned between ticks")
    return world.fork()


def _check_placement(world: World, decision: Decision) -> None:
    """Raise unless the placement names a workload task and a provider of it."""
    if decision.node not in world.topology.nodes:
        raise UnresolvableDecision(f"node {decision.node} does not exist")
    if world.dag is None or decision.task not in world.dag.inputs:
        raise UnresolvableDecision(f"task {decision.task!r} is not in the workload")
    service = dict(world.dag.tasks)[decision.task]
    if decision.node not in world.registry.lookup(service).providers:
        raise UnresolvableDecision(f"node {decision.node} does not provide {service!r}")


def apply_decision(world: World, decision: Decision) -> None:
    """Resolve and apply one decision against a world, now."""
    if decision.kind is DecisionKind.INJECT_REPAIR:
        if decision.node not in world.topology.nodes:
            raise UnresolvableDecision(f"node {decision.node} does not exist")
        world.apply_health(decision.node, Health.healthy())
    elif decision.kind is DecisionKind.REROUTE:
        flow = world.engine.flows.get(decision.flow)
        if flow is None:
            raise UnresolvableDecision(f"flow {decision.flow} does not exist")
        path = decision.new_path
        if not path or path[0] != flow.origin or path[-1] != flow.destination:
            raise UnresolvableDecision("reroute path must span origin to destination")
        sl = world.slices.slices.get(flow.tenant)
        for a, b in zip(path, path[1:]):
            if not world.topology.has_link(a, b):
                raise UnresolvableDecision(f"reroute uses missing link ({a},{b})")
            if sl is None or link_id(a, b) not in sl.links:
                raise UnresolvableDecision(f"reroute leaves the tenant slice at ({a},{b})")
        world.engine.reroute(flow.id, path)
    elif decision.kind is DecisionKind.SET_SLICE:
        try:
            world.allocate_slice(
                decision.tenant, decision.links, decision.share, decision.priority
            )
        except SdcpsError as exc:
            raise UnresolvableDecision(str(exc)) from exc
    elif decision.kind is DecisionKind.PLACE_TASK:
        _check_placement(world, decision)
        world.task_overrides[decision.task] = decision.node
    else:
        raise UnresolvableDecision(f"unknown decision kind {decision.kind}")


def evaluate(twin: World, decision: Decision, horizon: int) -> MetricsDelta:
    """Return candidate minus baseline metrics over `horizon` ticks, spending
    the twin whatever the decision's kind: the caller reads nothing from it
    afterwards, so its log is untraced first and folds nothing. A
    `place_task` replays the twin's own boundaries (`World.boundary`, which
    alone changes health and overrides), composed before and after its
    override; a pending `place_task` commit of the same task overwrites it
    at tick 1. Only where a fault inside the horizon heals a link overflow
    does the replay return a delta instead of raising it. Any other decision
    runs the baseline on the twin and the candidate on a fork taken before
    either runs, both read only for their counters and makespans."""
    if horizon < 1:
        raise UnresolvableDecision("horizon must be >= 1")
    twin.log.untrace()
    snapshot_tick = twin.now
    if decision.kind is DecisionKind.PLACE_TASK:
        _check_placement(twin, decision)
        overwritten = any(d.kind is DecisionKind.PLACE_TASK and d.task == decision.task
                          for d in twin.pending_commits)  # `boundary` clears them
        for _ in range(horizon):
            twin.now += 1
            twin.boundary()
        base = twin.run_composition().makespan
        if not overwritten:  # else the candidate composes as the baseline does
            twin.task_overrides[decision.task] = decision.node
        return MetricsDelta(0, 0.0, twin.run_composition().makespan - base, 0, snapshot_tick)
    baseline, candidate = twin, twin.fork()
    apply_decision(candidate, decision)  # UnresolvableDecision propagates
    baseline.run(horizon)
    candidate.run(horizon)
    makespan = 0
    if baseline.dag is not None:
        base = baseline.run_composition().makespan
        makespan = candidate.run_composition().makespan - base

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


def default_policy(delta: MetricsDelta) -> bool:
    return delta.violations <= 0 and delta.delivered_units >= 0


def commit(world: World, decision: Decision, delta: MetricsDelta, policy=default_policy) -> bool:
    """Queue the decision for the next tick boundary iff the policy accepts
    the evaluated delta. Rejects stale deltas outright."""
    if delta.snapshot_tick != world.now:
        raise StaleDelta(
            f"delta evaluated at tick {delta.snapshot_tick}, world is at {world.now}"
        )
    if not policy(delta):
        return False
    world.pending_commits.append(decision)
    return True
