"""Federated controller deployment.

Domains strictly partition the node set. Controllers coordinate only through
westbound messages; cross-domain routes are composed from per-domain path
segments joined at gateway links, so no controller ever reads a peer's
topology directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .controller import Controller, ControllerId, TenantId
from .errors import (
    AccessDenied,
    DisconnectedDomain,
    NoPath,
    NotFound,
    OverlappingDomain,
    SliceViolation,
    UnassignedNode,
)
from .topology import Adjacency, LinkId, NodeId, Topology, multi_target_paths

DomainId = int

DEFAULT_DIGEST_PERIOD = 5


@dataclass
class Domain:
    id: DomainId
    nodes: frozenset[NodeId]
    controller: Optional[ControllerId] = None


@dataclass
class WestboundMessage:
    kind: str  # PathSegmentRequest | PathSegmentReply | PeerStoreRead | PeerStoreReply | Nack | HealthDigest
    sender: ControllerId
    receiver: ControllerId
    correlation: int
    payload: Any
    tick: int = 0
    seq: int = 0

    def order_key(self) -> tuple[int, int, int]:
        return (self.tick, self.sender, self.seq)

    def render(self) -> str:
        return (
            f"west kind={self.kind} from={self.sender} to={self.receiver} "
            f"corr={self.correlation} t={self.tick} seq={self.seq}"
        )


class Farm:
    """Controller farm over a shared topology.

    The farm is the single mutation point for registration; controllers it
    creates share only read-only structures.
    """

    def __init__(self, topology, slice_table, window=3, congestion_threshold=2.0):
        self._topology: Topology = topology
        self._slices = slice_table
        self._window = window
        self._congestion_threshold = congestion_threshold
        self.domains: dict[DomainId, Domain] = {}
        self.controllers: dict[ControllerId, Controller] = {}
        self._owner: dict[NodeId, ControllerId] = {}
        self._corr = 0
        self._send_seq: dict[ControllerId, int] = {}
        self.processed_log: list[WestboundMessage] = []
        self.sent_log: list[WestboundMessage] = []
        self.message_count = 0
        self._bus = None
        self.now = 0  # advanced by the world each tick; plain int so twins deep-copy cleanly
        self._segment_cache: dict[tuple, dict] = {}
        self._cache_version = 0

    def attach_bus(self, bus) -> None:
        """Mirror westbound traffic onto `west/<pair>` topics for tracing."""
        self._bus = bus

    # -- registration ---------------------------------------------------------

    def register_controller(self, domain: Domain) -> ControllerId:
        taken = set(self._owner)
        overlap = domain.nodes & taken
        if overlap:
            raise OverlappingDomain(
                f"domain {domain.id}: nodes {sorted(overlap)} already owned"
            )
        for n in sorted(domain.nodes):
            self._topology.node(n)
        if not self._domain_connected(domain.nodes):
            raise DisconnectedDomain(f"domain {domain.id} induces a disconnected subgraph")
        cid = domain.id
        ctrl = Controller(
            cid,
            frozenset(domain.nodes),
            self._topology,
            self._slices,
            window=self._window,
            congestion_threshold=self._congestion_threshold,
        )
        domain.controller = cid
        self.domains[domain.id] = domain
        self.controllers[cid] = ctrl
        for n in domain.nodes:
            self._owner[n] = cid
        self.invalidate_caches()
        return cid

    def _domain_connected(self, nodes: frozenset[NodeId]) -> bool:
        if len(nodes) <= 1:
            return True
        start = min(nodes)
        seen = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in self._topology.neighbors(u):
                if v in nodes and v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return seen == nodes

    def resolve(self, n: NodeId) -> ControllerId:
        if n not in self._owner:
            raise UnassignedNode(f"node {n} belongs to no domain")
        return self._owner[n]

    def unassigned_nodes(self) -> list[NodeId]:
        return [n for n in self._topology.node_ids() if n not in self._owner]

    def gateway_links(self) -> list[LinkId]:
        """Links whose endpoints live in different domains."""
        out = []
        for lid in sorted(self._topology.links):
            a, b = lid
            if a in self._owner and b in self._owner and self._owner[a] != self._owner[b]:
                out.append(lid)
        return out

    # -- westbound transport ----------------------------------------------------

    def invalidate_caches(self) -> None:
        self._cache_version += 1
        self._segment_cache.clear()

    def _send(self, kind: str, sender: ControllerId, receiver: ControllerId,
              payload: Any, correlation: Optional[int] = None) -> WestboundMessage:
        if correlation is None:
            self._corr += 1
            correlation = self._corr
        seq = self._send_seq.get(sender, 0)
        self._send_seq[sender] = seq + 1
        msg = WestboundMessage(
            kind, sender, receiver, correlation, payload,
            tick=self.now, seq=seq,
        )
        self.message_count += 1
        self.sent_log.append(msg)
        if self._bus is not None:
            pair = f"{min(sender, receiver)}-{max(sender, receiver)}"
            self._bus.publish(
                f"west/{pair}", msg.render(), self.now, f"controller/{sender:06d}"
            )
        return msg

    def _dispatch(self, msg: WestboundMessage) -> Any:
        """Deliver a request to its receiver and return the reply payload."""
        self.processed_log.append(msg)
        ctrl = self.controllers[msg.receiver]
        if msg.kind == "PathSegmentRequest":
            tenant, terminals = msg.payload
            return ctrl.segment_table(tenant, terminals)
        if msg.kind == "PeerStoreRead":
            tenant, path = msg.payload
            return ctrl.store_get(tenant, path, as_controller=msg.sender)
        raise ValueError(f"unroutable westbound kind {msg.kind}")

    # -- federated operations -----------------------------------------------------

    def peer_store_read(
        self,
        requester: ControllerId,
        owner: ControllerId,
        tenant: TenantId,
        path,
    ) -> bytes:
        if owner == requester:
            return self.controllers[owner].store_get(tenant, path, as_controller=requester)
        msg = self._send("PeerStoreRead", requester, owner, (tenant, tuple(path)))
        try:
            reply = self._dispatch(msg)
        except (NotFound, AccessDenied):
            self._send("Nack", owner, requester, None, correlation=msg.correlation)
            raise
        self._send("PeerStoreReply", owner, requester, None, correlation=msg.correlation)
        return reply

    def broadcast_health_digest(self, sender: ControllerId) -> None:
        """Push this controller's estimate set to every peer via the bus."""
        estimates = self.controllers[sender].monitor.estimates()
        for peer in sorted(self.controllers):
            if peer == sender:
                continue
            msg = self._send("HealthDigest", sender, peer, dict(estimates))
            if self._bus is not None:
                self._bus.publish(
                    f"west/to/{peer:06d}/{sender:06d}", msg, self.now,
                    f"controller/{sender:06d}",
                )
            else:
                # no bus attached: deliver immediately (library use)
                self.processed_log.append(msg)
                self.controllers[peer].receive_digest(sender, estimates)
        self.invalidate_caches()

    def deliver_digest(self, msg: WestboundMessage) -> None:
        self.processed_log.append(msg)
        self.controllers[msg.receiver].receive_digest(msg.sender, msg.payload)
        self.invalidate_caches()

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
        if tenant not in self._slices.slices:
            raise SliceViolation(f"tenant {tenant} has no slice")
        sl = self._slices.slices[tenant]

        gateways = [lid for lid in self.gateway_links() if sl.covers(lid)]
        terminals: dict[ControllerId, set[NodeId]] = {c: set() for c in self.controllers}
        terminals[self.resolve(src)].add(src)
        terminals[self.resolve(dst)].add(dst)
        for a, b in gateways:
            terminals[self.resolve(a)].add(a)
            terminals[self.resolve(b)].add(b)

        segments: dict[tuple[NodeId, NodeId], tuple[int, list[NodeId]]] = {}
        for cid in sorted(self.controllers):
            terms = sorted(terminals[cid])
            if len(terms) < 2:
                continue
            cache_key = (self._cache_version, cid, tenant, tuple(terms))
            table = self._segment_cache.get(cache_key)
            if table is None:
                if cid == orchestrator:
                    table = self.controllers[cid].segment_table(tenant, terms)
                else:
                    msg = self._send(
                        "PathSegmentRequest", orchestrator, cid, (tenant, terms)
                    )
                    table = self._dispatch(msg)
                    self._send(
                        "PathSegmentReply", cid, orchestrator, None,
                        correlation=msg.correlation,
                    )
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
