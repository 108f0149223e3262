"""Federated controller deployment.

Domains strictly partition the node set. Controllers coordinate only through
the farm: cross-domain routes are composed from per-domain path segments
joined at gateway links, so no controller ever reads a peer's topology
directly. The farm owns each controller's bus inboxes and counts westbound
traffic; it keeps no message log.
"""

from __future__ import annotations

from .controller import DEFAULT_CONGESTION_THRESHOLD, DEFAULT_WINDOW, Controller, ControllerId
from .controller import HealthEstimate, SegmentTable, SouthboundReport, TenantId
from .errors import (
    DisconnectedDomain,
    DuplicateId,
    NoPath,
    OverlappingDomain,
    StaleReport,
    UnassignedNode,
)
from .topology import Adjacency, NodeId, Topology, multi_target_paths

DEFAULT_DIGEST_PERIOD = 5


class Farm:
    """Controller farm over a shared topology.

    The farm is the single mutation point for registration; controllers it
    creates share only read-only structures. Each controller has two bus
    inboxes, one exact topic each, delivered next tick: southbound reports
    from its domain's nodes (`south/<domain>/reports`) and health digests
    from its peers (`west/to/<receiver>`, each carrying its sender). Segment
    tables are direct calls; `message_count` counts each table fetched from
    a peer as a request plus its reply, and each digest as one message.

    Segment tables are cached by (controller, slice links, terminals), so
    tenants whose slices have the same links share them. Only the events
    that can change a suspect set drop the cache: a delivered digest and a
    verdict transition at report ingestion.
    """

    def __init__(self, topology, slice_table, bus, window=DEFAULT_WINDOW,
                 congestion_threshold=DEFAULT_CONGESTION_THRESHOLD):
        self._topology: Topology = topology
        self._slices = slice_table
        self._window = window
        self._congestion_threshold = congestion_threshold
        self.controllers: dict[ControllerId, Controller] = {}
        self._owner: dict[NodeId, ControllerId] = {}
        self._inboxes: dict[ControllerId, tuple] = {}  # (reports, digests)
        self.message_count = 0
        self.report_count = 0
        self._bus = bus
        self.now = 0  # advanced by the world each tick
        self._segment_cache: dict[tuple, SegmentTable] = {}

    def fork(self, topology, slice_table, bus) -> "Farm":
        twin = Farm(topology, slice_table, bus, self._window, self._congestion_threshold)
        twin.controllers = {cid: c.fork(topology, slice_table)
                            for cid, c in self.controllers.items()}
        twin._owner, twin._segment_cache = dict(self._owner), dict(self._segment_cache)
        old, new = self._bus.subscriptions, bus.subscriptions  # bus is a Bus.fork of ours
        twin._inboxes = {cid: tuple(new[s.topic][old[s.topic].index(s)] for s in subs)
                         for cid, subs in self._inboxes.items()}
        twin.message_count, twin.report_count = self.message_count, self.report_count
        twin.now = self.now
        return twin

    # -- registration ---------------------------------------------------------

    def register_domain(self, domain_id: ControllerId, nodes) -> ControllerId:
        """Give a connected node set its own controller, whose id is the
        domain id, and subscribe that controller's inboxes."""
        nodes = frozenset(nodes)
        if domain_id in self.controllers:
            raise DuplicateId(f"domain {domain_id} declared twice")
        overlap = sorted(nodes & self._owner.keys())
        if overlap:
            raise OverlappingDomain(
                f"domains {self._owner[overlap[0]]} and {domain_id} overlap on nodes {overlap}"
            )
        for n in sorted(nodes):
            self._topology.node(n)
        if nodes and nodes != self._topology.reachable(
            min(nodes), lambda link: nodes.issuperset(link.endpoints)
        ):
            raise DisconnectedDomain(f"domain {domain_id} induces a disconnected subgraph")
        self.controllers[domain_id] = Controller(
            domain_id, nodes, self._topology, self._slices,
            self._window, self._congestion_threshold,
        )
        for n in nodes:
            self._owner[n] = domain_id
        self._inboxes[domain_id] = (
            self._bus.subscribe(f"south/{domain_id}/reports"),
            self._bus.subscribe(f"west/to/{domain_id}"),
        )
        return domain_id

    def resolve(self, n: NodeId) -> ControllerId:
        if n not in self._owner:
            raise UnassignedNode(f"node {n} belongs to no domain")
        return self._owner[n]

    def unassigned_nodes(self) -> list[NodeId]:
        return [n for n in self._topology.node_ids() if n not in self._owner]

    # -- westbound traffic ------------------------------------------------------

    def invalidate_caches(self) -> None:
        """Drop every cached segment table; the only way they go stale."""
        self._segment_cache.clear()

    def broadcast_health_digest(self, sender: ControllerId) -> None:
        """Push this controller's estimate set to every peer via the bus."""
        estimates = self.controllers[sender].monitor.estimates()
        for peer in sorted(self.controllers):
            if peer == sender:
                continue
            self.message_count += 1
            self._bus.publish(
                f"west/to/{peer}", (sender, estimates), self.now,
                f"controller/{sender:06d}",
            )

    def deliver_digest(self, receiver: ControllerId, sender: ControllerId, estimates) -> None:
        self.controllers[receiver].receive_digest(sender, estimates)
        self.invalidate_caches()

    def send_report(self, report: SouthboundReport) -> None:
        """Publish a node's telemetry to its domain controller's inbox."""
        self._bus.publish(
            f"south/{self.resolve(report.reporter)}/reports", report, self.now,
            f"node/{report.reporter:06d}",
        )
        self.report_count += 1

    def drain_inboxes(self) -> list[tuple[ControllerId, HealthEstimate]]:
        """Hand each controller, in id order, its delivered digests and then
        its reports; return the verdict changes in that order."""
        changes = []
        for cid in sorted(self.controllers):
            reports, digests = self._inboxes[cid]
            for msg in digests.drain():
                self.deliver_digest(cid, *msg.payload)
            ctrl = self.controllers[cid]
            for msg in reports.drain():
                try:
                    transitions = ctrl.ingest_report(msg.payload)
                except StaleReport:
                    continue  # replayed telemetry is dropped, not fatal
                for est in transitions:
                    changes.append((cid, est))
                    self.invalidate_caches()
        return changes

    def cross_domain_path(
        self, src: NodeId, dst: NodeId, tenant: TenantId
    ) -> list[NodeId]:
        """Least-latency tenant-slice route composed from per-domain segments.

        The orchestrating controller (owner of src) asks each involved peer
        for a terminal-to-terminal segment table, then joins segments over
        gateway links. Matches the merged-graph shortest path latency.
        """
        orchestrator = self.resolve(src)
        self.resolve(dst)
        sl = self._slices.get(tenant)

        owner = self._owner
        gateways = [
            (a, b) for a, b in sorted(sl.links)
            if a in owner and b in owner and owner[a] != owner[b]
        ]
        terminals: dict[ControllerId, set[NodeId]] = {c: set() for c in self.controllers}
        terminals[orchestrator].add(src)
        terminals[self.resolve(dst)].add(dst)
        for a, b in gateways:
            terminals[self.resolve(a)].add(a)
            terminals[self.resolve(b)].add(b)

        segments: dict[tuple[NodeId, NodeId], tuple[int, list[NodeId]]] = {}
        for cid in sorted(self.controllers):
            terms = sorted(terminals[cid])
            if len(terms) < 2:
                continue
            cache_key = (cid, sl.links, tuple(terms))
            table = self._segment_cache.get(cache_key)
            if table is None:
                table = self.controllers[cid].segment_table(tenant, terms)
                if cid != orchestrator:
                    self.message_count += 2  # the request and its reply
                self._segment_cache[cache_key] = table
            segments.update(table)

        # join segments and gateway hops; keys rank by (latency, node hops,
        # terminal sequence)
        for a, b in gateways:
            w = self._topology.links[(a, b)].latency
            segments[(a, b)] = (w, [a, b])
            segments[(b, a)] = (w, [b, a])
        adj: Adjacency = {}
        for (u, v), (w, path) in segments.items():
            adj.setdefault(u, []).append((v, w, len(path) - 1))
        found = multi_target_paths(adj, src, {dst}).get(dst)
        if found is None:
            raise NoPath(f"tenant {tenant}: no slice route {src}->{dst}")
        seq = found[2]
        route = [src]
        for hop in zip(seq, seq[1:]):
            route += segments[hop][1][1:]
        return route
