"""Flow transport and the subflow clone/recompose resilience protocol.

Flows carry sequence-numbered units along an admitted path. When the control
plane flags an intermediary, `FlowEngine.on_unhealthy` recovers the flow in one
call: with no unit at risk it returns None; otherwise it picks a branch point
with confirmed custody of the at-risk units, has `clone_subflow` duplicate them
onto a detour and logs `recovering` then `active` (a logged line, not a state:
the flow stays active). Reorder buffers recompose the stream so the destination
sees each sequence number exactly once, in order.

Clone destination selection: if a detour can rejoin the original path at a
downstream intermediate node no more expensively than detouring straight to
the destination, the subflow rejoins there (minimizing redundant hops);
otherwise it runs all the way to the destination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import AbstractSet, Optional

from .controller import SliceTable, TenantId, qos_schedule
from .errors import (
    NotIntermediate,
    StaleDecision,
    UnknownFlow,
    Unrecoverable,
)
from .events import EventLog
from .topology import HealthState, NodeId, Topology, link_id, multi_target_paths


class FlowState(str, Enum):
    ACTIVE = "active"
    DELIVERED = "delivered"
    FAILED = "failed"


class CloneCase(IntEnum):
    TO_DESTINATION = 1  # subflow runs to the original destination
    REJOIN = 2          # subflow rejoins the original path at an intermediate


@dataclass(eq=False)
class Unit:
    """One copy of unit `seq` of a flow on its way along `route`. A copy
    carries no tick of its own: original, clone and released copy alike
    count their delivery latency from the flow's start tick. A reorder
    buffer keeps only the seq of a copy it absorbs."""

    flow: int
    seq: int
    route: list[NodeId]  # replaced, never changed in place, so copies and forks share it
    position: int  # index into route of current (or arrival) node
    in_transit: bool = False
    arrives: int = 0  # tick the unit reaches route[position], while in transit

    def key(self) -> tuple[int, int]:
        return (self.flow, self.seq)

    def fork(self) -> "Unit":
        return Unit(self.flow, self.seq, self.route, self.position, self.in_transit,
                    self.arrives)


@dataclass
class ReorderBuffer:
    """Releases a flow's sequence numbers strictly in order, once each.

    `held` holds the seqs that arrived ahead of `next_expected`; `done`
    holds those that will never be (or were already) released here:
    duplicates of either are absorbed silently.
    """

    onward: list[NodeId]  # remaining path after release; [] delivers; shared by copies
    held: set[int] = field(default_factory=set)
    done: set[int] = field(default_factory=set)
    next_expected: int = 0

    def fork(self) -> "ReorderBuffer":
        return ReorderBuffer(self.onward, set(self.held), set(self.done), self.next_expected)

    def absorb(self, seq: int) -> list[int]:
        """Take one arrival; return the seqs released by it, in order."""
        if seq in self.done or seq in self.held:
            return []
        self.held.add(seq)
        released = []
        while self.next_expected in self.held or self.next_expected in self.done:
            if self.next_expected in self.held:
                self.held.remove(self.next_expected)
                self.done.add(self.next_expected)
                released.append(self.next_expected)
            self.next_expected += 1
        return released


@dataclass
class Flow:
    id: int
    tenant: TenantId
    origin: NodeId
    destination: NodeId
    units: int
    path: list[NodeId]  # current canonical path, replaced on recovery; shared by forks
    state: FlowState = FlowState.ACTIVE
    start_tick: int = 0
    progress: int = 0  # furthest path index any unit has reached; see _rebase_progress
    delivered_record: list[int] = field(default_factory=list)  # post-buffer, in release order
    destination_arrivals: list[int] = field(default_factory=list)  # pre-buffer, duplicates included
    clone_count: int = 0
    handled_bad: set[NodeId] = field(default_factory=set)

    def fork(self) -> "Flow":
        return Flow(self.id, self.tenant, self.origin, self.destination, self.units, self.path,
                    self.state, self.start_tick, self.progress, list(self.delivered_record),
                    list(self.destination_arrivals), self.clone_count, set(self.handled_bad))

    def path_index(self, node: NodeId) -> Optional[int]:
        try:
            return self.path.index(node)
        except ValueError:
            return None


@dataclass
class CloneDecision:
    flow: int
    case_tag: CloneCase
    branch_point: NodeId
    clone_destination: NodeId
    detour: list[NodeId]  # branch_point .. clone_destination
    cloned_seqs: frozenset[int]
    decided_tick: int


class FlowEngine:
    """Moves units each tick and runs the resilience protocol.

    All mutation happens inside tick(); distinct engines never share state.
    """

    def __init__(self, topology: Topology, slices: SliceTable, rng, log: EventLog):
        self._topology = topology
        self._slices = slices
        self._rng = rng
        self._log = log
        self.flows: dict[int, Flow] = {}
        self.units: list[Unit] = []
        self.buffers: dict[tuple[int, NodeId], ReorderBuffer] = {}
        self.decisions: list[CloneDecision] = []
        self._next_flow_id = 0
        self.now = 0
        # counters surfaced in metrics
        self.total_delivered = 0
        self.total_dropped = 0
        self.total_cloned = 0
        self.delivered_this_tick: dict[TenantId, int] = {}
        self.latency_sum = 0  # delivery latencies, as sum and count
        self.latency_count = 0
        self.slice_violations = 0

    def fork(self, topology: Topology, slices: SliceTable, rng, log: EventLog) -> "FlowEngine":
        twin = FlowEngine(topology, slices, rng, log)
        twin.flows = {fid: flow.fork() for fid, flow in self.flows.items()}
        twin.units = [u.fork() for u in self.units]
        twin.buffers = {key: buf.fork() for key, buf in self.buffers.items()}
        twin.decisions = list(self.decisions)  # a decision is never changed once made
        twin.delivered_this_tick = dict(self.delivered_this_tick)
        twin._next_flow_id, twin.now = self._next_flow_id, self.now
        twin.total_delivered, twin.total_dropped = self.total_delivered, self.total_dropped
        twin.total_cloned, twin.slice_violations = self.total_cloned, self.slice_violations
        twin.latency_sum, twin.latency_count = self.latency_sum, self.latency_count
        return twin

    def begin_tick(self, now: int) -> None:
        self.now = now
        self.delivered_this_tick = {}

    # -- flow lifecycle --------------------------------------------------------

    def open_flow(self, tenant: TenantId, origin: NodeId, dest: NodeId,
                  units: int, path: list[NodeId]) -> int:
        fid = self._next_flow_id
        self._next_flow_id += 1
        flow = Flow(fid, tenant, origin, dest, units, list(path), start_tick=self.now)
        self.flows[fid] = flow
        self.buffers[(fid, dest)] = ReorderBuffer(onward=[])
        self._log.emit(
            f"t={self.now} ev=open flow={fid} tenant={tenant} "
            f"path={_fmt_path(path)} units={units}"
        )
        if units == 0:
            self._set_state(flow, FlowState.DELIVERED)
        elif origin == dest:
            # degenerate self-flow: units are already home
            buf = self._dest_buffer(flow)
            for seq in range(units):
                flow.destination_arrivals.append(seq)
                for r in buf.absorb(seq):
                    self._deliver(flow, r)
        else:
            self.units.extend(Unit(fid, seq, flow.path, 0) for seq in range(units))
        return fid

    def _flow(self, fid: int) -> Flow:
        if fid not in self.flows:
            raise UnknownFlow(f"flow {fid}")
        return self.flows[fid]

    def _set_state(self, flow: Flow, state: FlowState) -> None:
        flow.state = state
        self._log.emit(f"t={self.now} ev=state flow={flow.id} state={state.value}")

    # -- resilience --------------------------------------------------------------

    def on_unhealthy(self, fid: int, bad: NodeId,
                     suspects: AbstractSet[NodeId]) -> Optional[CloneDecision]:
        """Recover a flow around a flagged intermediary `bad`, marking it handled.

        None, and no other change, when no unit is at risk (`at_risk_seqs`);
        else the decision, enacted by `clone_subflow` between a logged
        `recovering` line and an `active` one; the flow stays active. The
        detour avoids `bad` and `suspects`, the deciding controller's
        current set of suspected-failed nodes.
        """
        flow = self._flow(fid)
        if flow.state is not FlowState.ACTIVE:
            raise StaleDecision(f"flow {fid} is {flow.state.value}")
        bad_idx = flow.path_index(bad)
        if bad_idx is None or bad_idx == 0 or bad_idx == len(flow.path) - 1:
            raise NotIntermediate(f"node {bad} is not an intermediate of flow {fid}")
        flow.handled_bad.add(bad)
        cloned = self.at_risk_seqs(fid, bad)
        if not cloned:
            return None
        self._log.emit(f"t={self.now} ev=state flow={fid} state=recovering")

        avoid = (set(suspects) | {bad}) - {flow.origin, flow.destination}
        branch_idx = self._branch_index(flow, bad_idx, avoid)
        branch = flow.path[branch_idx]

        # one search from the branch point reaches the destination and
        # every rejoin candidate over the slice; the branch is never in avoid
        adj = self._topology.adjacency(
            self._topology.nodes.keys() - avoid, self._slices.get(flow.tenant).links
        )
        rejoins = [
            idx for idx in range(bad_idx + 1, len(flow.path) - 1)
            if flow.path[idx] not in avoid
        ]
        found = multi_target_paths(
            adj, branch, [flow.destination] + [flow.path[idx] for idx in rejoins]
        )
        to_dest = found.get(flow.destination)
        best_rejoin = min(  # (latency, path index)
            ((found[flow.path[idx]][0], idx) for idx in rejoins if flow.path[idx] in found),
            default=None,
        )

        if best_rejoin is not None and (to_dest is None or best_rejoin[0] <= to_dest[0]):
            case = CloneCase.REJOIN
            clone_dest = flow.path[best_rejoin[1]]
            detour = list(found[clone_dest][2])
        elif to_dest is not None:
            case = CloneCase.TO_DESTINATION
            clone_dest = flow.destination
            detour = list(to_dest[2])
        else:
            self._set_state(flow, FlowState.FAILED)
            self._log.emit(f"t={self.now} ev=unrecoverable flow={fid} node={bad}")
            raise Unrecoverable(f"flow {fid}: no detour from {branch} avoiding {sorted(avoid)}")

        decision = CloneDecision(
            flow=fid,
            case_tag=case,
            branch_point=branch,
            clone_destination=clone_dest,
            detour=detour,
            cloned_seqs=cloned,
            decided_tick=self.now,
        )
        self.decisions.append(decision)
        self._log.emit(
            f"t={self.now} ev=decision flow={fid} case={int(case)} "
            f"branch={branch} dest={clone_dest} detour={_fmt_path(detour)} "
            f"seqs={_fmt_seqs(cloned)}"
        )
        self.clone_subflow(decision)
        self._set_state(flow, FlowState.ACTIVE)
        return decision

    def _dest_buffer(self, flow: Flow) -> ReorderBuffer:
        return self.buffers[(flow.id, flow.destination)]

    def at_risk_seqs(self, fid: int, bad: NodeId) -> frozenset[int]:
        """Undelivered seqs the flagged node can still harm: everything not
        safely beyond it."""
        flow = self._flow(fid)
        bad_idx = flow.path_index(bad)
        if bad_idx is None:
            return frozenset()
        done = self._dest_buffer(flow).done
        furthest = self._furthest(flow)
        return frozenset(
            s for s in range(flow.units)
            if s not in done and furthest.get(s, (-1, False))[0] <= bad_idx
        )

    def _branch_index(self, flow: Flow, bad_idx: int, avoid: set[NodeId]) -> int:
        """Last path node before the failure with confirmed custody.

        Custody extends to the furthest index any unit has reached; if that
        node is itself suspect the branch walks back toward the origin.
        """
        idx = min(bad_idx - 1, flow.progress)
        while idx > 0 and flow.path[idx] in avoid:
            idx -= 1
        return idx

    def _furthest(self, flow: Flow) -> dict[int, tuple[int, bool]]:
        """Per seq, the furthest (canonical path index, settled) pair over its
        live units, in one pass.

        The index is that of the unit's current node, or of the node it is on
        the wire toward; settled is False while it is on the wire. A seq is
        safely past a flagged index once its index lies strictly beyond it,
        and beyond a buffer point once its pair reaches (point, True). Units
        stranded on an old detour are off the path and count for nothing.
        """
        out: dict[int, tuple[int, bool]] = {}
        for u in self.units:
            if u.flow != flow.id:
                continue
            idx = flow.path_index(u.route[u.position])
            if idx is not None:
                out[u.seq] = max(out.get(u.seq, (-1, False)), (idx, not u.in_transit))
        return out

    def clone_subflow(self, decision: CloneDecision) -> int:
        """Inject duplicates of the cloned seqs at the branch point and
        install the recompose buffer at the clone destination."""
        flow = self._flow(decision.flow)
        subflow_id = flow.clone_count
        flow.clone_count += 1

        dest_idx = flow.path_index(decision.clone_destination)
        if decision.case_tag is CloneCase.REJOIN:
            onward = flow.path[dest_idx:]
            key = (flow.id, decision.clone_destination)
            if key not in self.buffers:
                buf = ReorderBuffer(onward=onward)
                buf.done = self._dest_buffer(flow).done | {
                    s for s, pair in self._furthest(flow).items() if pair >= (dest_idx, True)
                }
                self.buffers[key] = buf

        branch_idx = flow.path_index(decision.branch_point)
        for seq in sorted(decision.cloned_seqs):
            dup = Unit(flow.id, seq, decision.detour, 0)
            self.units.append(dup)
            self.total_cloned += 1
            self._log.emit(
                f"t={self.now} ev=clone flow={flow.id} seq={seq} "
                f"at={decision.branch_point} sub={subflow_id}"
            )

        # recovery is enacted; the canonical path now follows the detour
        flow.path = _simplify(
            flow.path[:branch_idx] + decision.detour + flow.path[dest_idx + 1:]
        )
        self._rebase_progress(flow)
        return subflow_id

    def _rebase_progress(self, flow: Flow) -> None:
        """Re-express progress against a rewritten canonical path: the
        destination once any seq is delivered, else the furthest index any
        live unit holds on the new path."""
        if flow.delivered_record:
            flow.progress = len(flow.path) - 1
        else:
            flow.progress = max((idx for idx, _ in self._furthest(flow).values()), default=0)

    def reroute(self, fid: int, path: list[NodeId]) -> None:
        """Move a flow onto a new canonical path, validated by the caller.

        Units queued at a node of the new path continue along it; units on
        the wire, or queued off it, keep their routes.
        """
        flow = self._flow(fid)
        if path == flow.path:
            return
        flow.path = list(path)
        for unit in self.units:
            if unit.flow != fid or unit.in_transit:
                continue
            here = unit.route[unit.position]
            if here in path:
                unit.route = flow.path
                unit.position = path.index(here)
        self._rebase_progress(flow)
        self._log.emit(f"t={self.now} ev=reroute flow={fid} path={_fmt_path(path)}")

    # -- per-tick movement ----------------------------------------------------------

    def tick_movement(self) -> None:
        self._arrivals()
        self._transmissions()

    def _arrivals(self) -> None:
        now = self.now
        for u in sorted((u for u in self.units if u.in_transit and u.arrives <= now),
                        key=Unit.key):
            u.in_transit = False
            self._arrive(u)

    def _arrive(self, unit: Unit) -> None:
        flow = self.flows[unit.flow]
        node = unit.route[unit.position]
        health = self._topology.nodes[node].health
        if health.state is HealthState.FAILED:
            self._drop(unit, node, "failed")
            return
        if health.state is HealthState.MALICIOUS:
            if self._rng.random() < health.drop_prob:
                self._drop(unit, node, "malicious")
                return
        self._log.emit(f"t={self.now} ev=arrive flow={unit.flow} seq={unit.seq} node={node}")
        idx = flow.path_index(node)
        if idx is not None:
            flow.progress = max(flow.progress, idx)
        buf = self.buffers.get((unit.flow, node))
        if buf is not None:
            if node == flow.destination:
                flow.destination_arrivals.append(unit.seq)
            released = buf.absorb(unit.seq)
            self.units.remove(unit)
            for seq in released:
                if node == flow.destination:
                    self._deliver(flow, seq)
                else:
                    self._log.emit(
                        f"t={self.now} ev=release flow={flow.id} seq={seq} at={node}"
                    )
                    self.units.append(Unit(flow.id, seq, buf.onward, 0))

    def _deliver(self, flow: Flow, seq: int) -> None:
        """Record a seq released at the destination; its latency counts
        from the flow's start tick, whichever copy arrived."""
        flow.delivered_record.append(seq)
        self.total_delivered += 1
        self.delivered_this_tick[flow.tenant] = (
            self.delivered_this_tick.get(flow.tenant, 0) + 1
        )
        self.latency_sum += self.now - flow.start_tick
        self.latency_count += 1
        self._log.emit(f"t={self.now} ev=deliver flow={flow.id} seq={seq}")
        if len(flow.delivered_record) == flow.units and flow.state is FlowState.ACTIVE:
            self._set_state(flow, FlowState.DELIVERED)

    def _drop(self, unit: Unit, node: NodeId, cause: str) -> None:
        self.total_dropped += 1
        self._log.emit(
            f"t={self.now} ev=drop flow={unit.flow} seq={unit.seq} node={node} cause={cause}"
        )
        self.units.remove(unit)

    def _transmissions(self) -> None:
        # queued units wanting to depart, grouped by directed link
        by_link: dict[tuple[NodeId, NodeId], list[Unit]] = {}
        for u in self.units:
            if u.in_transit or u.position >= len(u.route) - 1:
                continue
            here = u.route[u.position]
            if self._topology.nodes[here].health.state is HealthState.FAILED:
                continue  # custody lost; recovery clones these seqs
            nxt = u.route[u.position + 1]
            by_link.setdefault((here, nxt), []).append(u)

        for (here, nxt) in sorted(by_link):
            queue = sorted(by_link[(here, nxt)], key=Unit.key)
            lid = link_id(here, nxt)
            link = self._topology.links[lid]
            pending: dict[TenantId, list[Unit]] = {}
            for u in queue:
                pending.setdefault(self.flows[u.flow].tenant, []).append(u)
            requests = []
            for tenant in sorted(pending):
                sl = self._slices.slices.get(tenant)
                if sl is None or lid not in sl.links:
                    self.slice_violations += len(pending[tenant])
                    continue
                requests.append((tenant, sl.priority, sl.share, len(pending[tenant])))
            if not requests:
                continue
            grants = qos_schedule(link.capacity, requests)
            latency = self._topology.effective_latency(here, nxt)
            for tenant, *_ in requests:
                for u in pending[tenant][:grants.get(tenant, 0)]:
                    u.in_transit = True
                    u.position += 1
                    u.arrives = self.now + latency
                    self._log.emit(
                        f"t={self.now} ev=send flow={u.flow} seq={u.seq} "
                        f"link={here}-{nxt}"
                    )

    # -- introspection ---------------------------------------------------------------

    def active_flow_count(self) -> int:
        return sum(1 for f in self.flows.values() if f.state is FlowState.ACTIVE)


def _simplify(path: list[NodeId]) -> list[NodeId]:
    """Cut loops so the canonical path visits each node at most once."""
    out: list[NodeId] = []
    for node in path:
        if node in out:
            del out[out.index(node) + 1:]
        else:
            out.append(node)
    return out


def _fmt_path(path) -> str:
    return ">".join(str(n) for n in path)


def _fmt_seqs(seqs) -> str:
    return ",".join(str(s) for s in sorted(seqs)) or "-"
