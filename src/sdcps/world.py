"""The simulated world and its deterministic tick loop.

One world owns everything mutable (topology, controllers, flows, bus, RNG,
trace digest) so `World.fork()` is a faithful twin. Its only history is the
per-tick metrics records: event lines fold into the digest and are not kept.
Each tick runs fixed phases:

  1. boundary changes   scheduled faults, committed decisions (`boundary`);
                        no other phase changes node health or placements;
                        a commit that no longer resolves is refused
  2. bus delivery       digests and reports published last tick, handed
                        straight to the farm; each domain's report is one
                        message of (reporter, observations) pairs, which
                        its controller ingests (`Controller.ingest_report`)
                        or skips whole if it repeats the last report that
                        wrote nothing
  3. flow admissions    scenario flows starting this tick
  4. digest broadcast   every digest-period ticks
  5. clone decisions    `FlowEngine.on_unhealthy` on each active flow's
                        unhandled suspects in path order, until one
                        clones or fails the flow
  6. movement           arrivals, QoS-scheduled transmissions, telemetry
  7. metrics            one record per tick
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Optional

from .bus import Bus
from .composition import Scheduler
from .controller import (
    DEFAULT_CONGESTION_THRESHOLD,
    DEFAULT_WINDOW,
    Priority,
    SliceTable,
)
from .errors import BadParameter, SdcpsError, UnresolvableDecision, Unrecoverable
from .events import EventLog
from .farm import DEFAULT_DIGEST_PERIOD, Farm
from .flow_engine import FlowEngine, FlowState
from .topology import Health, Node, NodeId, Topology


@dataclass
class WorldOptions:
    window: int = DEFAULT_WINDOW
    digest_period: int = DEFAULT_DIGEST_PERIOD
    congestion_threshold: float = DEFAULT_CONGESTION_THRESHOLD
    materialize_transfers: bool = False
    transfer_tenant: int = 0

    def __post_init__(self):
        if self.window < 1:
            raise BadParameter("window (w) must be >= 1")
        if self.digest_period < 1:
            raise BadParameter("digest_period must be >= 1")
        if self.congestion_threshold <= 0:
            raise BadParameter("congestion_threshold must be > 0")


@dataclass(frozen=True)
class PendingFlow:
    tenant: int
    origin: NodeId
    dest: NodeId
    units: int
    start: int


@dataclass(frozen=True)
class PendingFault:
    tick: int
    node: NodeId
    health: Health


@dataclass
class MetricsRecord:
    tick: int
    delivered_units: int
    dropped_units: int
    cloned_units: int
    active_flows: int
    per_tenant_throughput: dict[int, int]
    controller_messages: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "tick": self.tick,
                "delivered": self.delivered_units,
                "dropped": self.dropped_units,
                "cloned": self.cloned_units,
                "active_flows": self.active_flows,
                "throughput": {str(k): v for k, v in sorted(self.per_tenant_throughput.items())},
                "messages": self.controller_messages,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


class World:
    def __init__(self, seed: int = 0, options: Optional[WorldOptions] = None):
        self.seed = seed
        self.options = options or WorldOptions()
        self.rng = random.Random(seed)
        self.topology = Topology()
        self.slices = SliceTable(self.topology)
        self.log = EventLog()
        self.bus = Bus()
        self.farm = Farm(
            self.topology,
            self.slices,
            self.bus,
            window=self.options.window,
            congestion_threshold=self.options.congestion_threshold,
        )
        self.engine = FlowEngine(self.topology, self.slices, self.rng, self.log)
        self.now = 0
        self.mid_tick = False
        self.pending_flows: list[PendingFlow] = []
        self.pending_faults: list[PendingFault] = []
        self.pending_commits: list = []  # Decision objects, applied next boundary
        self.metrics: list[MetricsRecord] = []
        self.rejected_flows: list[tuple[PendingFlow, str]] = []
        self.health_log: list[str] = []
        # optional service-composition workload
        self.registry = None
        self.dag = None
        self.task_overrides: dict[str, NodeId] = {}
        self.composition_report = None
        self._batches: dict[int, tuple] = {}  # domain -> its last telemetry batch

    # -- construction ------------------------------------------------------------

    def add_node(self, node: Node) -> NodeId:
        return self.topology.add_node(node)

    def add_link(self, a: NodeId, b: NodeId, latency: int, capacity: int):
        return self.topology.add_link(a, b, latency, capacity)

    def register_domain(self, domain_id: int, nodes) -> int:
        return self.farm.register_domain(domain_id, nodes)

    def allocate_slice(self, tenant: int, links, share: int, priority: Priority):
        """Install or replace a tenant slice; admissions route over it from
        the next call on."""
        return self.slices.allocate(tenant, links, share, priority)

    def schedule_flow(self, tenant, origin, dest, units, start) -> None:
        self.pending_flows.append(PendingFlow(tenant, origin, dest, units, start))

    def schedule_fault(self, tick: int, node: NodeId, health: Health) -> None:
        self.topology.node(node)
        if tick < 0:
            raise BadParameter(f"fault tick {tick} must be >= 0")
        self.pending_faults.append(PendingFault(tick, node, health))

    def finish_setup(self) -> None:
        """Validate that domains cover every node before the first tick."""
        stray = self.farm.unassigned_nodes()
        if stray:
            raise SdcpsError(f"nodes {stray} belong to no domain")

    # -- routing helpers -----------------------------------------------------------

    def open_flow(self, tenant, origin, dest, units) -> int:
        """Admit a flow of `units` >= 0 units on its federated slice route."""
        if units < 0:
            raise BadParameter("units must be >= 0")
        path = self.farm.cross_domain_path(origin, dest, tenant)
        return self.engine.open_flow(tenant, origin, dest, units, path)

    def fork(self) -> "World":
        """Copy the live state, sharing only what nothing changes in place and
        the topology's memo (see `TransferMemo`). The copy's metrics start
        empty; its trace hash, counters and totals continue from here."""
        twin = World.__new__(World)
        twin.seed, twin.now, twin.mid_tick, twin.metrics, twin.bus = (
            self.seed, self.now, self.mid_tick, [], self.bus.fork())
        twin.rng = random.Random(0)  # setstate overwrites it; `Random()` reads os.urandom
        twin.rng.setstate(self.rng.getstate())
        twin.topology = self.topology.fork()
        twin.slices = self.slices.fork(twin.topology)
        twin.log = self.log.fork()
        twin.farm = self.farm.fork(twin.topology, twin.slices, twin.bus)
        twin.engine = self.engine.fork(twin.topology, twin.slices, twin.rng, twin.log)
        twin.pending_flows, twin.pending_faults, twin.pending_commits = (
            list(self.pending_flows), list(self.pending_faults), list(self.pending_commits))
        twin.rejected_flows, twin.health_log, twin.task_overrides = (
            list(self.rejected_flows), list(self.health_log), dict(self.task_overrides))
        twin.options, twin.registry, twin.dag, twin.composition_report = (
            replace(self.options), self.registry, self.dag, self.composition_report)
        twin._batches = dict(self._batches)  # the batches are tuples, so shared
        return twin

    # -- composition workload ------------------------------------------------------

    def set_composition(self, registry, dag) -> None:
        """Install a task graph whose every task uses a registered service."""
        for _, service in dag.tasks:
            registry.lookup(service)
        self.registry = registry
        self.dag = dag

    def run_composition(self):
        """Schedule and execute the configured task graph against current
        health, honoring any committed placement overrides. The report is
        kept in the health key's memo entry (see `composition`)."""
        if self.registry is None or self.dag is None:
            return None
        key = (self.dag, self.registry, frozenset(self.task_overrides.items()))
        entry = self.topology.health_entry()
        if entry.composed[:1] != (key,):
            scheduler = Scheduler(self.topology, self.registry)
            schedule = scheduler.schedule(self.dag, overrides=self.task_overrides)
            entry.composed = (key, scheduler.execute(schedule, self.dag))
        report = self.composition_report = entry.composed[1]
        self.log.emit(f"t={self.now} ev=composition makespan={report.makespan}")
        if self.options.materialize_transfers:
            for a, b, size in self.dag.edges:
                if size <= 0:
                    continue
                src = report.assignments[a][0]
                dst = report.assignments[b][0]
                if src == dst:
                    continue
                start = max(self.now + 1, report.assignments[a][2])
                self.schedule_flow(
                    self.options.transfer_tenant, src, dst, size, start
                )
        return report

    # -- tick loop --------------------------------------------------------------------

    def apply_health(self, node: NodeId, health: Health) -> None:
        """Change node health now; a change is logged as a fault event."""
        changed = self.topology.set_health(node, health)
        if changed:
            line = f"t={self.now} ev=fault node={node} health={health.label()}"
            self.log.emit(line)
            self.health_log.append(line)

    def boundary(self) -> None:
        """Phase 1 at tick `now`: the faults due by now, in (tick, node)
        order, then every pending commit, of which one that no longer
        resolves changes nothing and is logged as refused."""
        for fault in sorted(
            (f for f in self.pending_faults if f.tick <= self.now),
            key=lambda f: (f.tick, f.node),
        ):
            self.apply_health(fault.node, fault.health)
        self.pending_faults = [f for f in self.pending_faults if f.tick > self.now]
        if self.pending_commits:
            from .sandbox import apply_decision

            for decision in self.pending_commits:
                try:
                    apply_decision(self, decision)
                except UnresolvableDecision:  # each checks before it changes anything
                    self.log.emit(f"t={self.now} ev=refuse kind={decision.kind.value}")
            self.pending_commits = []

    def tick(self) -> None:
        self.mid_tick = True
        self.now += 1
        t = self.now
        self.engine.begin_tick(t)
        self.boundary()  # 1. boundary changes

        # 2. bus delivery, then controller ingestion in delivered order
        for cid, est in self.farm.receive(self.bus.deliver_up_to(t)):
            line = (
                f"t={t} ev=estimate ctrl={cid} node={est.node} "
                f"verdict={est.verdict.value}"
            )
            self.log.emit(line)
            self.health_log.append(line)

        # 3. scenario admissions (start tick 0 opens on the first tick)
        for pf in [p for p in self.pending_flows if p.start <= t]:
            try:
                self.open_flow(pf.tenant, pf.origin, pf.dest, pf.units)
            except SdcpsError as exc:
                # dynamic-health admission misses are recorded, not fatal
                self.rejected_flows.append((pf, str(exc)))
                self.log.emit(
                    f"t={t} ev=reject tenant={pf.tenant} "
                    f"origin={pf.origin} dest={pf.dest} cause={type(exc).__name__}"
                )
        self.pending_flows = [p for p in self.pending_flows if p.start > t]

        # 4. digest broadcast
        if t % self.options.digest_period == 0:
            for cid in sorted(self.farm.controllers):
                self.farm.broadcast_health_digest(cid, t)

        # 5. clone decisions
        self._clone_decisions()

        # 6. movement and telemetry
        self.engine.tick_movement()
        self._telemetry(t)

        # 7. metrics
        rec = MetricsRecord(
            tick=t,
            delivered_units=self.engine.total_delivered,
            dropped_units=self.engine.total_dropped,
            cloned_units=self.engine.total_cloned,
            active_flows=self.engine.active_flow_count(),
            per_tenant_throughput=dict(self.engine.delivered_this_tick),
            controller_messages=self.farm.message_count + self.farm.report_count,
        )
        self.metrics.append(rec)
        self.mid_tick = False

    def run(self, horizon: int) -> None:
        for _ in range(horizon):
            self.tick()

    def _clone_decisions(self) -> None:
        for fid in sorted(self.engine.flows):
            flow = self.engine.flows[fid]
            if flow.state is not FlowState.ACTIVE:
                continue
            suspects = self.farm.controllers[self.farm.resolve(flow.origin)].suspect_failed()
            for node in flow.path[1:-1]:
                if node not in suspects or node in flow.handled_bad:
                    continue
                try:
                    if self.engine.on_unhealthy(fid, node, suspects) is None:
                        continue  # every unit is already safely beyond it
                except Unrecoverable:
                    pass
                break

    def _telemetry(self, t: int) -> None:
        """Probe, in node order (that of the RNG draws), each reporter with
        no kept probe (`Topology.probe`). Rebuild the batch of each domain
        with a probed reporter, or with none yet, in reporter order; each
        non-empty batch rides the bus as one message, domains in id order."""
        topo, controllers, batches = self.topology, self.farm.controllers, self._batches
        kept = topo.probes
        fresh = {r: topo.probe(r, self.rng) for r in topo.node_ids() if r not in kept}
        for cid in {self.farm.resolve(r) for r in fresh} | (controllers.keys() - batches.keys()):
            batches[cid] = tuple((r, obs) for r in sorted(controllers[cid].domain_nodes)
                                 if (obs := fresh[r] if r in fresh else kept[r]))
        for cid in sorted(batches):
            if batches[cid]:
                self.farm.send_reports(cid, batches[cid], t)

    # -- summary ------------------------------------------------------------------------

    def trace_hash(self) -> str:
        return self.log.trace_hash()

    def summary(self) -> dict:
        flows = []
        for fid in sorted(self.engine.flows):
            f = self.engine.flows[fid]
            flows.append(
                {
                    "id": f.id,
                    "tenant": f.tenant,
                    "origin": f.origin,
                    "dest": f.destination,
                    "units": f.units,
                    "state": f.state.value,
                    "delivered": f.delivered_record,
                    "clones": f.clone_count,
                }
            )
        return {
            "ticks": self.now,
            "seed": self.seed,
            "trace_hash": self.trace_hash(),
            "flows": flows,
            "rejected_flows": [
                {"tenant": p.tenant, "origin": p.origin, "dest": p.dest, "cause": c}
                for p, c in self.rejected_flows
            ],
            "clone_decisions": [
                {
                    "flow": d.flow,
                    "case": int(d.case_tag),
                    "branch": d.branch_point,
                    "clone_destination": d.clone_destination,
                    "detour": d.detour,
                    "cloned_seqs": sorted(d.cloned_seqs),
                    "tick": d.decided_tick,
                }
                for d in self.engine.decisions
            ],
            "health_events": list(self.health_log),
            "totals": {
                "delivered": self.engine.total_delivered,
                "dropped": self.engine.total_dropped,
                "cloned": self.engine.total_cloned,
                "messages": self.farm.message_count,
                "slice_violations": self.engine.slice_violations,
            },
        }
