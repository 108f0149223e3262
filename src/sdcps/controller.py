"""Single-domain controller: tenant slices, QoS, health estimation from
southbound reports, and intra-domain segment tables.

A controller is a logical actor. The only shared world structure it reads is
the topology; it routes over the slice links it is handed, never a tenant,
and everything it mutates is its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Iterable, Optional

from .errors import BadParameter, NoSlice, Oversubscribed, UnknownLink
from .topology import LOSS, LinkId, NodeId, Topology, link_id, multi_target_paths

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


@dataclass(frozen=True)
class TenantSlice:
    tenant: TenantId
    links: frozenset[LinkId]
    share: int
    priority: Priority


class SliceTable:
    """World-level registry of tenant slices.

    Mutated only by the single writer at tick boundaries; controllers read.
    """

    def __init__(self, topology: Topology):
        self._topology = topology
        self.slices: dict[TenantId, TenantSlice] = {}

    def fork(self, topology: Topology) -> "SliceTable":
        twin = SliceTable(topology)
        twin.slices = dict(self.slices)  # slices are frozen, so shared
        return twin

    def allocate(
        self,
        tenant: TenantId,
        links: Iterable[LinkId],
        share: int,
        priority: Priority,
    ) -> TenantSlice:
        if share < 0:
            raise BadParameter(f"tenant {tenant}: share must be >= 0")
        links = frozenset(link_id(a, b) for a, b in links)
        for lid in sorted(links):
            if lid not in self._topology.links:
                raise UnknownLink(f"tenant {tenant}: slice link {lid} does not exist")
        claimed = dict.fromkeys(links, 0)
        for t, s in self.slices.items():
            if t != tenant:
                for lid in s.links & links:
                    claimed[lid] += s.share
        for lid in sorted(links):
            cap = self._topology.links[lid].capacity
            if claimed[lid] + share > cap:
                raise Oversubscribed(
                    lid,
                    f"link {lid} oversubscribed: shares {claimed[lid] + share} exceed capacity {cap}",
                )
        sl = TenantSlice(tenant, links, share, priority)
        self.slices[tenant] = sl
        return sl

    def get(self, tenant: TenantId) -> TenantSlice:
        if tenant not in self.slices:
            raise NoSlice(f"tenant {tenant} has no slice")
        return self.slices[tenant]


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


# -- health estimation -------------------------------------------------------


class Verdict(str, Enum):
    HEALTHY = "healthy"
    SUSPECT_CONGESTED = "suspect_congested"
    SUSPECT_FAILED = "suspect_failed"


SEVERITY = {Verdict.HEALTHY: 0, Verdict.SUSPECT_CONGESTED: 1, Verdict.SUSPECT_FAILED: 2}


@dataclass
class HealthEstimate:
    node: NodeId
    verdict: Verdict


# (run, length, verdict): the verdict the node's latest consecutive
# observations point to, how many there are, and the node's current verdict
_FRESH_WINDOW = (Verdict.HEALTHY, 0, Verdict.HEALTHY)


class HealthMonitor:
    """Sets a node's verdict once `window` consecutive observations point
    to it: losses to suspect-failed, slow replies to suspect-congested and
    clean replies to healthy. An observation of another kind starts a new
    run, so `window` clean observations clear an existing verdict.

    A run's length stops growing at `window`, the only length ever read, so
    a node's (run, length, verdict) tuple stops changing once a run has
    set its verdict. The monitor writes a tuple only when it changes and
    counts the writes. A report that wrote nothing is remembered until the
    next report: `ingest` skips whole a repeat of it, since equal
    observations over unchanged windows write nothing again. Reports come
    off the ordered bus one per domain per tick, each a tick later than the
    last, so the monitor keeps no per-reporter tick."""

    def __init__(self, topology: Topology, window: int = DEFAULT_WINDOW,
                 congestion_threshold: float = DEFAULT_CONGESTION_THRESHOLD):
        self._topology = topology
        self.window = window
        self.congestion_threshold = congestion_threshold
        self._windows: dict[NodeId, tuple[Verdict, int, Verdict]] = {}
        self._writes = 0
        self._quiet: Optional[tuple] = None  # the last report, if it wrote nothing

    def fork(self, topology: Topology) -> "HealthMonitor":
        twin = HealthMonitor(topology, self.window, self.congestion_threshold)
        twin._windows, twin._writes, twin._quiet = dict(self._windows), self._writes, self._quiet
        return twin

    def estimates(self) -> dict[NodeId, Verdict]:
        return {
            n: verdict
            for n, (_run, _length, verdict) in sorted(self._windows.items())
            if verdict is not Verdict.HEALTHY
        }

    def ingest(self, entries: tuple) -> list[HealthEstimate]:
        """Ingest a report's (reporter, ((neighbour, latency or LOSS), ...))
        pairs in order."""
        if entries == self._quiet:
            return []
        writes, transitions, self._quiet = self._writes, [], None
        for reporter, observations in entries:
            transitions += self._ingest(reporter, observations)
        self._quiet = entries if self._writes == writes else None
        return transitions

    def _ingest(self, reporter: NodeId, observations) -> list[HealthEstimate]:
        self._topology.node(reporter)
        transitions = []
        for neighbor, observation in observations:
            self._topology.node(neighbor)
            nominal = self._topology.link(reporter, neighbor).latency
            est = self._observe(neighbor, observation, nominal)
            if est is not None:
                transitions.append(est)
        return transitions

    def _observe(self, node: NodeId, observation, nominal: int) -> Optional[HealthEstimate]:
        if observation == LOSS:
            points_to = Verdict.SUSPECT_FAILED
        elif observation > self.congestion_threshold * nominal:
            points_to = Verdict.SUSPECT_CONGESTED
        else:
            points_to = Verdict.HEALTHY
        old = self._windows.get(node, _FRESH_WINDOW)
        run, length, before = old
        length = min(length + 1, self.window) if points_to is run else 1
        verdict = points_to if length >= self.window else before
        new = (points_to, length, verdict)
        if new != old:
            self._windows[node] = new
            self._writes += 1
        if verdict is not before:
            return HealthEstimate(node, verdict)
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


class SegmentTable(dict):
    """node -> (latency, hops, node sequence): one source's search through
    one domain, as `multi_target_paths` returns it. Never changed once
    built, so forks share it."""


class DomainAdjacency(dict):
    """node -> ((next, latency, 1), ...) within one domain over one slice's
    links: a search adjacency with tuple rows. Never changed once built, so
    forks share it."""


class Controller:
    """Owns one domain: its health windows and intra-domain routing over
    the slice links it is handed.

    Its caches spare admissions repeated work. The suspect sets, the only
    readers of the merged view, are kept until one of the two writes that
    can change them: a digest (`receive_digest`) or a verdict transition
    (`ingest_report`). `_searches` keeps one full search per (slice links,
    source), together with the domain's suspects it ran with; a read under
    other domain suspects runs it again and replaces it, so the memo holds
    one search per key. `_adjacency` keeps the domain's search adjacency
    per slice links, which no health change alters."""

    def __init__(
        self,
        cid: ControllerId,
        domain_nodes: frozenset[NodeId],
        topology: Topology,
        window: int = DEFAULT_WINDOW,
        congestion_threshold: float = DEFAULT_CONGESTION_THRESHOLD,
    ):
        self.id = cid
        self.domain_nodes = domain_nodes
        self._topology = topology
        self.monitor = HealthMonitor(topology, window, congestion_threshold)
        # latest digest snapshot per peer controller
        self.peer_views: dict[ControllerId, dict[NodeId, Verdict]] = {}
        self._suspects: Optional[frozenset[NodeId]] = None
        self._domain_suspects: Optional[frozenset[NodeId]] = None
        # (slice links, source) -> (domain suspects it ran with, its rows)
        self._searches: dict[tuple, tuple[frozenset[NodeId], SegmentTable]] = {}
        self._adjacency: dict[frozenset[LinkId], DomainAdjacency] = {}

    def fork(self, topology: Topology) -> "Controller":
        twin = Controller(self.id, self.domain_nodes, topology)
        twin.monitor = self.monitor.fork(topology)
        twin.peer_views = {peer: dict(view) for peer, view in self.peer_views.items()}
        twin._suspects, twin._domain_suspects = self._suspects, self._domain_suspects
        twin._searches, twin._adjacency = dict(self._searches), dict(self._adjacency)
        return twin

    # -- health --------------------------------------------------------------

    def ingest_report(self, entries: tuple) -> list[HealthEstimate]:
        """A domain's report, its (reporter, observations) pairs of one tick,
        which the bus delivers a tick after the last."""
        transitions = self.monitor.ingest(entries)
        if transitions:
            self._suspects = self._domain_suspects = None
        return transitions

    def merged_view(self) -> dict[NodeId, Verdict]:
        """Own and peer verdicts merged, most severe first."""
        return merge_verdicts([self.monitor.estimates(), *self.peer_views.values()])

    def receive_digest(self, peer: ControllerId, estimates: dict[NodeId, Verdict]) -> None:
        self.peer_views[peer] = dict(estimates)
        self._suspects = self._domain_suspects = None

    def suspect_failed(self) -> frozenset[NodeId]:
        if self._suspects is None:
            self._suspects = frozenset(
                n for n, v in self.merged_view().items() if v is Verdict.SUSPECT_FAILED
            )
        return self._suspects

    def domain_suspects(self) -> frozenset[NodeId]:
        """The suspects in this domain: all that a search through it reads."""
        if self._domain_suspects is None:
            self._domain_suspects = self.suspect_failed() & self.domain_nodes
        return self._domain_suspects

    # -- routing -------------------------------------------------------------

    def search(self, links: frozenset[LinkId], source: NodeId) -> SegmentTable:
        """The best path key from source to every node of the domain that
        source reaches over the slice links, source itself included.
        Suspects other than the source may end a path but never relay one."""
        suspects = self.domain_suspects()
        memo = self._searches.get((links, source))
        if memo is None or memo[0] != suspects:
            adj = self._adjacency.get(links)
            if adj is None:
                rows = self._topology.adjacency(self.domain_nodes, links).items()
                adj = self._adjacency[links] = DomainAdjacency((n, tuple(r)) for n, r in rows)
            found = multi_target_paths(adj, source, self.domain_nodes, suspects - {source})
            memo = self._searches[(links, source)] = (suspects, SegmentTable(found))
        return memo[1]

    def segment(self, links: frozenset[LinkId], u: NodeId, v: NodeId):
        """(latency, hops, node sequence) from u to v through this domain, or
        None: u's search key when u < v, else v's with its sequence
        reversed, so both directions break ties alike."""
        if u < v:
            return self.search(links, u).get(v)
        found = self.search(links, v).get(u)
        return None if found is None else (found[0], found[1], found[2][::-1])

    def segment_table(self, links: frozenset[LinkId], terminals: list[NodeId]) -> dict:
        """(u, v) -> (latency, hops, node sequence) over the slice links
        between terminals, through this domain only.

        Served over the westbound surface; peers never see the topology
        itself, just these segments. Read from the memoized per-source
        searches: (u, v) with u < v is u's key for v, (v, u) that key
        with its sequence reversed."""
        table = {}
        terms = sorted(set(terminals) & self.domain_nodes)
        for i, u in enumerate(terms[:-1]):
            rows = self.search(links, u)
            for v in terms[i + 1:]:
                found = rows.get(v)
                if found is not None:
                    table[(u, v)] = found
                    table[(v, u)] = (found[0], found[1], found[2][::-1])
        return table
