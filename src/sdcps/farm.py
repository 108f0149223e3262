"""Federated controller deployment.

Domains strictly partition the node set. Controllers coordinate only through
the farm: cross-domain routes are composed from per-domain path segments
joined at gateway links, so no controller ever reads a peer's topology
directly. The farm hands each controller what the bus delivers on its
topics and counts westbound traffic; it keeps no message log.
"""

from __future__ import annotations

from .controller import DEFAULT_CONGESTION_THRESHOLD, DEFAULT_WINDOW, Controller, ControllerId
from .controller import HealthEstimate, TenantId
from .errors import (
    DisconnectedDomain,
    DuplicateId,
    NoPathInSlice,
    OverlappingDomain,
    UnassignedNode,
)
from .topology import NodeId, Topology, link_id, multi_target_paths

DEFAULT_DIGEST_PERIOD = 5


class JoinGraph:
    """The join graph of one slice's links: each domain's segments between
    its gateway terminals (endpoints of slice links that cross domains) and
    the gateway links, as a search adjacency. `suspects` holds, per domain,
    the domain suspects its segments were read with."""

    def __init__(self, owner: dict[NodeId, ControllerId], gateways):
        """gateways: (a, b, latency) of each slice link that crosses domains."""
        terminals: dict[ControllerId, set[NodeId]] = {}
        self.gateway_edges: dict[NodeId, tuple] = {}  # node -> its gateway-link edges
        for a, b, latency in gateways:
            for u, v in ((a, b), (b, a)):
                terminals.setdefault(owner[u], set()).add(u)
                self.gateway_edges[u] = self.gateway_edges.get(u, ()) + ((v, latency, 1),)
        self.terminals = {cid: tuple(sorted(t)) for cid, t in terminals.items()}
        self.adj: dict[NodeId, tuple] = dict(self.gateway_edges)
        self.suspects: dict[ControllerId, frozenset[NodeId]] = {}

    def fork(self) -> "JoinGraph":
        twin = JoinGraph.__new__(JoinGraph)
        twin.gateway_edges, twin.terminals = dict(self.gateway_edges), dict(self.terminals)
        twin.adj, twin.suspects = dict(self.adj), dict(self.suspects)
        return twin


class Farm:
    """Controller farm over a shared topology.

    The farm is the single mutation point for registration; controllers it
    creates share only read-only structures. Each controller subscribes two
    exact bus topics, whose messages the world's next tick delivers and
    `receive` hands it: southbound reports from its domain's nodes
    (`south/<domain>/reports`, one message per tick holding (reporter,
    observations) pairs in reporter order: the domain's report, which
    `Controller.ingest_report` takes whole, without its tick, since each
    arrives a tick after the last) and health digests from its peers
    (`west/to/<receiver>`, each carrying its sender). The farm alone orders
    what it hands on: controllers in id order, each taking its digests, in
    publish order, before its reports. Segments are direct calls.

    An admission names a tenant: the farm looks up its slice's links once and
    hands controllers only links. It keeps no clock; messages go out at the
    tick they are given.

    Route composition reuses what it has computed. Each controller memoizes
    one search per (slice links, source) under its domain's suspects, and
    the farm keeps one `JoinGraph` per slice links, whose part for a domain
    it rebuilds only when that domain's suspects have changed. A delivered
    digest or a node health change drops neither: a search reads raw link
    latencies and the suspects in its own domain, nothing else.

    `message_count` counts each digest as one message, and each segment
    table a peer would have to send as a request plus its reply: the first
    time the orchestrator needs that (controller, slice links, terminals)
    table since the last `invalidate_caches`, which a delivered digest and
    a verdict transition at report ingestion call.
    """

    def __init__(self, topology, slice_table, bus, window=DEFAULT_WINDOW,
                 congestion_threshold=DEFAULT_CONGESTION_THRESHOLD):
        self._topology: Topology = topology
        self._slices = slice_table
        self._window = window
        self._congestion_threshold = congestion_threshold
        self.controllers: dict[ControllerId, Controller] = {}
        self._owner: dict[NodeId, ControllerId] = {}
        self.message_count = 0
        self.report_count = 0
        self._bus = bus
        self._joins: dict[frozenset, JoinGraph] = {}  # slice links -> its join graph
        self._fetched: set[tuple] = set()  # (controller, slice links, terminals)

    def fork(self, topology, slice_table, bus) -> "Farm":
        twin = Farm(topology, slice_table, bus, self._window, self._congestion_threshold)
        twin.controllers = {cid: c.fork(topology) for cid, c in self.controllers.items()}
        twin._owner, twin._fetched = dict(self._owner), set(self._fetched)
        twin._joins = {links: join.fork() for links, join in self._joins.items()}
        twin.message_count, twin.report_count = self.message_count, self.report_count
        return twin

    # -- registration ---------------------------------------------------------

    def register_domain(self, domain_id: ControllerId, nodes) -> ControllerId:
        """Give a connected node set its own controller, whose id is the
        domain id, and subscribe that controller's two topics."""
        nodes = frozenset(nodes)
        if domain_id in self.controllers:
            raise DuplicateId(f"domain {domain_id} declared twice")
        overlap = sorted(nodes & self._owner.keys())
        if overlap:
            raise OverlappingDomain(
                f"domains {self._owner[overlap[0]]} and {domain_id} overlap on nodes {overlap}"
            )
        neighbors = self._topology.neighbors  # raises on an unknown node
        own_links = {link_id(n, m) for n in sorted(nodes) for m in neighbors(n) if m in nodes}
        if not nodes:
            raise DisconnectedDomain(f"domain {domain_id} has no nodes")
        if nodes != self._topology.hops(min(nodes), own_links).keys():
            raise DisconnectedDomain(f"domain {domain_id} induces a disconnected subgraph")
        self.controllers[domain_id] = Controller(
            domain_id, nodes, self._topology, self._window, self._congestion_threshold,
        )
        for n in nodes:
            self._owner[n] = domain_id
        self._joins.clear()  # gateways may have changed
        self._bus.subscribe(f"south/{domain_id}/reports")
        self._bus.subscribe(f"west/to/{domain_id}")
        return domain_id

    def resolve(self, n: NodeId) -> ControllerId:
        if n not in self._owner:
            raise UnassignedNode(f"node {n} belongs to no domain")
        return self._owner[n]

    def unassigned_nodes(self) -> list[NodeId]:
        return [n for n in self._topology.node_ids() if n not in self._owner]

    # -- westbound traffic ------------------------------------------------------

    def invalidate_caches(self) -> None:
        """Forget which segment tables peers have sent, so the next admission
        that needs one counts its request and reply again."""
        self._fetched.clear()

    def broadcast_health_digest(self, sender: ControllerId, tick: int) -> None:
        """Push this controller's estimate set to every peer via the bus at tick."""
        estimates = self.controllers[sender].monitor.estimates()
        for peer in sorted(self.controllers):
            if peer == sender:
                continue
            self.message_count += 1
            self._bus.publish(f"west/to/{peer}", (sender, estimates), tick)

    def deliver_digest(self, receiver: ControllerId, sender: ControllerId, estimates) -> None:
        self.controllers[receiver].receive_digest(sender, estimates)
        self.invalidate_caches()

    def send_reports(self, cid: ControllerId, entries: tuple, tick: int) -> None:
        """Publish one tick's reports of a domain's nodes, (reporter,
        observations) pairs in reporter order, to its controller's topic as
        one message at tick; each pair counts as a report."""
        self._bus.publish(f"south/{cid}/reports", entries, tick)
        self.report_count += len(entries)

    def receive(self, messages) -> list[tuple[ControllerId, HealthEstimate]]:
        """Hand each controller, in id order, its digests and then its
        domain's reports among the delivered `messages`, each topic in the
        order the bus delivered it; return the verdict changes in that order."""
        by_topic: dict[str, list] = {}
        for msg in messages:
            by_topic.setdefault(msg.topic, []).append(msg)
        changes = []
        for cid in sorted(self.controllers):
            for msg in by_topic.get(f"west/to/{cid}", ()):
                self.deliver_digest(cid, *msg.payload)
            ctrl = self.controllers[cid]
            for msg in by_topic.get(f"south/{cid}/reports", ()):
                for est in ctrl.ingest_report(msg.payload):
                    changes.append((cid, est))
                    self.invalidate_caches()
        return changes

    def cross_domain_path(
        self, src: NodeId, dst: NodeId, tenant: TenantId
    ) -> list[NodeId]:
        """Least-latency tenant-slice route composed from per-domain segments.

        The orchestrating controller (owner of src) joins segments over
        gateway links. The slice's join graph holds the segments between
        gateway terminals. The admission adds only the edges from src to
        its domain's terminals and from dst's domain's terminals to dst,
        each read from a memoized search, runs one search over that overlay
        and splices the segments it crossed. The edges it leaves out, into
        src and out of dst, never change the route to dst, so the route is
        the one a join of every domain's whole terminal table gives. Each
        node's fewest links to dst bound the search, which stays exact (A*).
        """
        orchestrator = self.resolve(src)
        self.resolve(dst)
        links = self._slices.get(tenant).links
        join = self._join_graph(links)
        self._count_fetches(join, links, src, dst)
        if src == dst:
            return [src]

        owner = self._owner
        extra: dict[NodeId, tuple] = {}  # the edges of each node a new edge leaves
        terms = join.terminals.get(orchestrator, ())
        if src not in terms:
            extra[src] = self._edges(links, src, terms)
        terms = join.terminals.get(owner[dst], ())
        if dst not in terms:
            if owner[dst] == orchestrator and src not in terms:
                terms += (src,)
            for t in terms:
                extra[t] = extra.get(t, join.adj.get(t, ())) + self._edges(links, t, (dst,))
        # shares every other node's edges with the cached graph
        adj = {**join.adj, **extra} if extra else join.adj
        found = multi_target_paths(adj, src, (dst,), bound=self._topology.hops(dst)).get(dst)
        if found is None:
            raise NoPathInSlice(f"tenant {tenant}: no slice route {src}->{dst}")
        seq = found[2]
        route = [src]
        for u, v in zip(seq, seq[1:]):
            if owner[u] == owner[v]:
                route += self.controllers[owner[u]].segment(links, u, v)[2][1:]
            else:  # a gateway link
                route.append(v)
        return route

    def _edges(self, links, u: NodeId, targets) -> tuple:
        """Join edges (v, latency, hops) from u to each target it reaches
        within its domain, read from the segment's key."""
        ctrl = self.controllers[self._owner[u]]
        edges = []
        for v in targets:
            found = ctrl.segment(links, u, v)
            if found is not None:
                edges.append((v, found[0], found[1]))
        return tuple(edges)

    def _join_graph(self, links) -> JoinGraph:
        """The slice's join graph, its segments read under every domain's
        current suspects."""
        join = self._joins.get(links)
        if join is None:
            owner, topo_links = self._owner, self._topology.links
            join = self._joins[links] = JoinGraph(owner, [
                (a, b, topo_links[(a, b)].latency) for a, b in sorted(links)
                if a in owner and b in owner and owner[a] != owner[b]
            ])
        for cid, terms in join.terminals.items():
            ctrl = self.controllers[cid]
            suspects = ctrl.domain_suspects()
            if len(terms) < 2 or join.suspects.get(cid) == suspects:
                continue
            join.suspects[cid] = suspects
            edges: dict[NodeId, list] = {u: [] for u in terms}
            for (u, v), (w, hops, _seq) in ctrl.segment_table(links, terms).items():
                edges[u].append((v, w, hops))
            for u in terms:
                join.adj[u] = (*edges[u], *join.gateway_edges[u])
        return join

    def _count_fetches(self, join: JoinGraph, links, src: NodeId, dst: NodeId) -> None:
        """Count a request and its reply for each peer table this admission
        needs that no admission has needed since the last invalidate_caches."""
        owner = self._owner
        for cid in self.controllers:
            terms = join.terminals.get(cid, ())
            ends = {n for n in (src, dst) if owner[n] == cid}
            if ends:
                terms = tuple(sorted(ends.union(terms)))
            if len(terms) < 2:
                continue
            key = (cid, links, terms)
            if key not in self._fetched:
                self._fetched.add(key)
                if cid != owner[src]:
                    self.message_count += 2  # the request and its reply
