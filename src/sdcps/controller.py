"""Single-domain controller: tenant slices, protected data store, QoS, and
health estimation from southbound reports.

A controller is a logical actor. It only ever reads shared world structures
(topology, slice table); everything it mutates is its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Iterable, Optional

from .errors import (
    AccessDenied,
    EmptyPath,
    NoPathInSlice,
    NoSlice,
    NotFound,
    Oversubscribed,
    StaleReport,
    UnknownLink,
)
from .topology import LinkId, NodeId, Topology, link_id, multi_target_paths

TenantId = int
ControllerId = int

DEFAULT_WINDOW = 3
DEFAULT_CONGESTION_THRESHOLD = 2.0


class Priority(IntEnum):
    """QoS classes; lower value fills leftover capacity first."""

    GOLD = 0
    SILVER = 1
    BRONZE = 2

    @classmethod
    def parse(cls, name: str) -> "Priority":
        return cls[name.upper()]


@dataclass
class TenantSlice:
    tenant: TenantId
    links: frozenset[LinkId]
    share: int
    priority: Priority

    def covers(self, lid: LinkId) -> bool:
        return lid in self.links


class SliceTable:
    """World-level registry of tenant slices.

    Mutated only by the single writer at tick boundaries; controllers read.
    """

    def __init__(self, topology: Topology):
        self._topology = topology
        self.slices: dict[TenantId, TenantSlice] = {}

    def allocate(
        self,
        tenant: TenantId,
        links: Iterable[LinkId],
        share: int,
        priority: Priority,
    ) -> TenantSlice:
        links = frozenset(link_id(a, b) for a, b in links)
        for lid in sorted(links):
            if lid not in self._topology.links:
                raise UnknownLink(f"link {lid}")
        for lid in sorted(links):
            cap = self._topology.links[lid].capacity
            claimed = sum(
                s.share
                for t, s in self.slices.items()
                if t != tenant and s.covers(lid)
            )
            if claimed + share > cap:
                raise Oversubscribed(
                    lid,
                    f"link {lid}: shares {claimed + share} exceed capacity {cap}",
                )
        sl = TenantSlice(tenant, links, share, priority)
        self.slices[tenant] = sl
        return sl

    def get(self, tenant: TenantId) -> TenantSlice:
        if tenant not in self.slices:
            raise NoSlice(f"tenant {tenant} has no slice")
        return self.slices[tenant]

    def share_on(self, tenant: TenantId, lid: LinkId) -> int:
        sl = self.slices.get(tenant)
        if sl is None or not sl.covers(lid):
            return 0
        return sl.share


def qos_schedule(
    capacity: int, requests: list[tuple[TenantId, Priority, int, int]]
) -> dict[TenantId, int]:
    """Per-tick link allocation: (tenant, priority, share, pending) -> units.

    Every tenant first receives min(pending, share). Leftover capacity is
    then handed out one unit at a time, priority class by priority class,
    round-robin over ascending tenant id within a class. Total never
    exceeds capacity.
    """
    grant: dict[TenantId, int] = {}
    remaining = capacity
    ordered = sorted(requests, key=lambda r: r[0])
    for tenant, _prio, share, pending in ordered:
        if pending < 0:
            raise ValueError("pending must be >= 0")
        g = min(pending, share, remaining)
        grant[tenant] = g
        remaining -= g
    for prio in sorted({r[1] for r in ordered}):
        cohort = [r for r in ordered if r[1] == prio]
        while remaining > 0:
            gave = False
            for tenant, _p, _s, pending in cohort:
                if remaining <= 0:
                    break
                if grant[tenant] < pending:
                    grant[tenant] += 1
                    remaining -= 1
                    gave = True
            if not gave:
                break
    return grant


# -- data store --------------------------------------------------------------


class DataStore:
    """Tenant-namespaced key/value store with explicit read grants."""

    def __init__(self):
        self._entries: dict[tuple[TenantId, tuple[str, ...]], bytes] = {}
        self._grants: set[tuple[TenantId, ControllerId]] = set()

    def put(self, tenant: TenantId, path: Iterable[str], value: bytes) -> None:
        path = tuple(path)
        if not path:
            raise EmptyPath("store path must be non-empty")
        self._entries[(tenant, path)] = bytes(value)

    def grant(self, owner: TenantId, reader: ControllerId) -> None:
        self._grants.add((owner, reader))

    def has_grant(self, owner: TenantId, reader: ControllerId) -> bool:
        return (owner, reader) in self._grants

    def get(
        self,
        owner: TenantId,
        path: Iterable[str],
        as_tenant: Optional[TenantId] = None,
        as_controller: Optional[ControllerId] = None,
    ) -> bytes:
        path = tuple(path)
        key = (owner, path)
        if key not in self._entries:
            raise NotFound(f"no entry for tenant {owner} at {'/'.join(path)}")
        if as_tenant is not None and as_tenant == owner:
            return self._entries[key]
        if as_controller is not None and self.has_grant(owner, as_controller):
            return self._entries[key]
        raise AccessDenied(
            f"requester {as_tenant if as_tenant is not None else as_controller} "
            f"may not read tenant {owner}"
        )


# -- health estimation -------------------------------------------------------


class Verdict(str, Enum):
    HEALTHY = "healthy"
    SUSPECT_CONGESTED = "suspect_congested"
    SUSPECT_FAILED = "suspect_failed"


SEVERITY = {Verdict.HEALTHY: 0, Verdict.SUSPECT_CONGESTED: 1, Verdict.SUSPECT_FAILED: 2}

LOSS = "LOSS"


@dataclass(frozen=True)
class SouthboundReport:
    reporter: NodeId
    tick: int
    # (neighbor, observed latency in ticks) or (neighbor, LOSS)
    neighbor_observations: tuple[tuple[NodeId, object], ...]


@dataclass
class HealthEstimate:
    node: NodeId
    verdict: Verdict
    window: int


@dataclass
class _NodeWindow:
    loss_streak: int = 0
    congested_streak: int = 0
    clean_streak: int = 0
    verdict: Verdict = Verdict.HEALTHY


class HealthMonitor:
    """Escalates a verdict after `window` consecutive corroborating
    observations; a single clean observation resets the counters, and
    `window` consecutive clean observations clear an existing verdict."""

    def __init__(self, topology: Topology, window: int = DEFAULT_WINDOW,
                 congestion_threshold: float = DEFAULT_CONGESTION_THRESHOLD):
        self._topology = topology
        self.window = window
        self.congestion_threshold = congestion_threshold
        self._windows: dict[NodeId, _NodeWindow] = {}
        self._last_tick: dict[NodeId, int] = {}

    def estimates(self) -> dict[NodeId, Verdict]:
        return {
            n: w.verdict
            for n, w in sorted(self._windows.items())
            if w.verdict is not Verdict.HEALTHY
        }

    def ingest(self, report: SouthboundReport) -> list[HealthEstimate]:
        self._topology.node(report.reporter)
        last = self._last_tick.get(report.reporter)
        if last is not None and report.tick <= last:
            raise StaleReport(
                f"reporter {report.reporter}: tick {report.tick} <= {last}"
            )
        self._last_tick[report.reporter] = report.tick
        transitions = []
        for neighbor, observation in report.neighbor_observations:
            self._topology.node(neighbor)
            nominal = self._topology.link(report.reporter, neighbor).latency
            est = self._observe(neighbor, observation, nominal)
            if est is not None:
                transitions.append(est)
        return transitions

    def _observe(self, node: NodeId, observation, nominal: int) -> Optional[HealthEstimate]:
        w = self._windows.setdefault(node, _NodeWindow())
        before = w.verdict
        if observation == LOSS:
            w.loss_streak += 1
            w.congested_streak = 0
            w.clean_streak = 0
        elif observation > self.congestion_threshold * nominal:
            w.congested_streak += 1
            w.loss_streak = 0
            w.clean_streak = 0
        else:
            w.loss_streak = 0
            w.congested_streak = 0
            w.clean_streak += 1
        if w.loss_streak >= self.window:
            w.verdict = Verdict.SUSPECT_FAILED
        elif w.congested_streak >= self.window:
            w.verdict = Verdict.SUSPECT_CONGESTED
        elif w.clean_streak >= self.window:
            w.verdict = Verdict.HEALTHY
        if w.verdict is not before:
            streak = max(w.loss_streak, w.congested_streak, w.clean_streak)
            return HealthEstimate(node, w.verdict, streak)
        return None


def merge_verdicts(views: Iterable[dict[NodeId, Verdict]]) -> dict[NodeId, Verdict]:
    """Most severe verdict wins when controllers disagree about a node."""
    merged: dict[NodeId, Verdict] = {}
    for view in views:
        for node, verdict in view.items():
            cur = merged.get(node, Verdict.HEALTHY)
            if SEVERITY[verdict] > SEVERITY[cur]:
                merged[node] = verdict
    return {n: v for n, v in sorted(merged.items()) if v is not Verdict.HEALTHY}


# -- the controller actor -----------------------------------------------------


class Controller:
    """Owns one domain: its store, health windows, and intra-domain routing."""

    def __init__(
        self,
        cid: ControllerId,
        domain_nodes: frozenset[NodeId],
        topology: Topology,
        slice_table: SliceTable,
        window: int = DEFAULT_WINDOW,
        congestion_threshold: float = DEFAULT_CONGESTION_THRESHOLD,
    ):
        self.id = cid
        self.domain_nodes = domain_nodes
        self._topology = topology
        self._slices = slice_table
        self.store = DataStore()
        self.monitor = HealthMonitor(topology, window, congestion_threshold)
        # latest digest snapshot per peer controller
        self.peer_views: dict[ControllerId, dict[NodeId, Verdict]] = {}

    # -- tenant surface ------------------------------------------------------

    def slice_allocate(
        self, tenant: TenantId, links: Iterable[LinkId], share: int, priority: Priority
    ) -> TenantSlice:
        return self._slices.allocate(tenant, links, share, priority)

    def store_put(self, tenant: TenantId, path: Iterable[str], value: bytes) -> None:
        self.store.put(tenant, path, value)

    def store_get(
        self,
        owner: TenantId,
        path: Iterable[str],
        as_tenant: Optional[TenantId] = None,
        as_controller: Optional[ControllerId] = None,
    ) -> bytes:
        return self.store.get(owner, path, as_tenant=as_tenant, as_controller=as_controller)

    # -- health --------------------------------------------------------------

    def ingest_report(self, report: SouthboundReport) -> list[HealthEstimate]:
        return self.monitor.ingest(report)

    def merged_view(self) -> dict[NodeId, Verdict]:
        return merge_verdicts([self.monitor.estimates(), *self.peer_views.values()])

    def receive_digest(self, peer: ControllerId, estimates: dict[NodeId, Verdict]) -> None:
        self.peer_views[peer] = dict(estimates)

    def suspect_failed(self) -> set[NodeId]:
        return {
            n for n, v in self.merged_view().items() if v is Verdict.SUSPECT_FAILED
        }

    # -- routing -------------------------------------------------------------

    def admit_flow(
        self, tenant: TenantId, origin: NodeId, dest: NodeId, units: int
    ) -> list[NodeId]:
        """Least-latency intra-domain route over the tenant slice, skipping
        nodes this controller currently believes failed."""
        sl = self._slices.get(tenant)
        for n in (origin, dest):
            self._topology.node(n)
            if n not in self.domain_nodes:
                raise NoPathInSlice(f"node {n} outside domain of controller {self.id}")
        found = self._topology.shortest_path(
            origin,
            dest,
            link_filter=lambda link: sl.covers(link.endpoints)
            and link.endpoints[0] in self.domain_nodes
            and link.endpoints[1] in self.domain_nodes,
            exclude_nodes=self.suspect_failed() - {origin, dest},
        )
        if found is None:
            raise NoPathInSlice(f"tenant {tenant}: no slice path {origin}->{dest}")
        return found[1]

    def segment_table(
        self, tenant: TenantId, terminals: list[NodeId]
    ) -> dict[tuple[NodeId, NodeId], tuple[int, list[NodeId]]]:
        """All-pairs slice paths between terminals through this domain only.

        Served over the westbound surface; peers never see the topology
        itself, just these segments. One single-source search per terminal
        covers every later terminal; suspects other than the source may end
        a segment but never relay one.
        """
        sl = self._slices.get(tenant)
        suspects = self.suspect_failed()
        adj = self._topology.adjacency(
            self.domain_nodes, lambda link: sl.covers(link.endpoints)
        )
        table: dict[tuple[NodeId, NodeId], tuple[int, list[NodeId]]] = {}
        terms = sorted(set(terminals) & self.domain_nodes)
        for i, u in enumerate(terms[:-1]):
            found = multi_target_paths(adj, u, terms[i + 1:], suspects - {u})
            for v, (dist, _hops, seq) in sorted(found.items()):
                table[(u, v)] = (dist, list(seq))
                table[(v, u)] = (dist, list(reversed(seq)))
        return table
