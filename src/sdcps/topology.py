"""Shared network model: nodes, links, health states, and path computation.

All path queries are deterministic: equal-cost alternatives are ordered by
(total latency, hop count, lexicographic node-id sequence), so two runs of
the same world always route identically.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import AbstractSet, Callable, Iterable, Optional

from .errors import (
    BadParameter,
    DuplicateId,
    DuplicateLink,
    ExcludesEndpoint,
    SelfLoop,
    UnknownLink,
    UnknownNode,
)

NodeId = int
LinkId = tuple[int, int]  # canonical (min, max) endpoint pair


class NodeKind(str, Enum):
    SMART_DEVICE = "smart_device"
    SWITCH = "switch"
    SURROGATE = "surrogate"
    CONTROLLER_VES = "controller_ves"


class HealthState(str, Enum):
    HEALTHY = "healthy"
    CONGESTED = "congested"
    FAILED = "failed"
    MALICIOUS = "malicious"


@dataclass(frozen=True)
class Health:
    """Node health variant.

    Congested carries a latency multiplier >= 1; Malicious carries a unit
    drop probability in [0, 1] drawn from the world RNG at arrival time.
    """

    state: HealthState = HealthState.HEALTHY
    slowdown: float = 1.0
    drop_prob: float = 0.0

    def __post_init__(self):
        if self.state is HealthState.CONGESTED and self.slowdown < 1.0:
            raise BadParameter("congested slowdown must be >= 1")
        if self.state is HealthState.MALICIOUS and not 0.0 <= self.drop_prob <= 1.0:
            raise BadParameter("malicious drop_prob must be in [0, 1]")

    @classmethod
    def healthy(cls) -> "Health":
        return cls(HealthState.HEALTHY)

    @classmethod
    def congested(cls, slowdown: float) -> "Health":
        return cls(HealthState.CONGESTED, slowdown=slowdown)

    @classmethod
    def failed(cls) -> "Health":
        return cls(HealthState.FAILED)

    @classmethod
    def malicious(cls, drop_prob: float) -> "Health":
        return cls(HealthState.MALICIOUS, drop_prob=drop_prob)

    def label(self) -> str:
        if self.state is HealthState.CONGESTED:
            return f"congested:{self.slowdown:g}"
        if self.state is HealthState.MALICIOUS:
            return f"malicious:{self.drop_prob:g}"
        return self.state.value


@dataclass
class Node:
    id: NodeId
    kind: NodeKind
    domain: int = 0
    compute_capacity: int = 0
    health: Health = field(default_factory=Health.healthy)

    def __post_init__(self):
        if self.id < 0:
            raise BadParameter("node id must be non-negative")
        if self.compute_capacity < 0:
            raise BadParameter("compute_capacity must be >= 0")
        if self.compute_capacity == 0 and self.kind is not NodeKind.SWITCH:
            raise BadParameter(
                f"node {self.id}: compute_capacity 0 is only permitted for switches"
            )


@dataclass(frozen=True)
class Link:
    endpoints: LinkId
    latency: int
    capacity: int


def link_id(a: NodeId, b: NodeId) -> LinkId:
    return (a, b) if a <= b else (b, a)


LinkFilter = Callable[[Link], bool]

# node -> [(next, weight, hops)], at most one edge per (node, next);
# weight >= 1 and hops >= 1
Adjacency = dict[NodeId, list[tuple[NodeId, int, int]]]
PathKey = tuple[int, int, tuple[NodeId, ...]]  # (latency, hops, node sequence)


def multi_target_paths(
    adj: Adjacency,
    src: NodeId,
    targets: Iterable[NodeId],
    stop_at: AbstractSet[NodeId] = frozenset(),
) -> dict[NodeId, PathKey]:
    """Best (latency, hops, node sequence) path from src to each target.

    Paths rank by that key. With positive weights and hops the order is
    consistent with prefixes (the best path's prefix is the best path to the
    node where it ends), so a lazy Dijkstra gives every node its best key the
    first time it pops. Keys are distinct, so edge order does not change
    the result. Nodes in stop_at may end a path but never relay one.
    Unreachable targets are absent from the result; the search stops as soon
    as every target has popped.
    """
    remaining = set(targets)
    found: dict[NodeId, PathKey] = {}
    best: dict[NodeId, PathKey] = {src: (0, 0, (src,))}
    heap = [best[src]]
    while heap and remaining:
        key = heapq.heappop(heap)
        dist, hops, seq = key
        node = seq[-1]
        if best[node] < key:
            continue
        if node in remaining:
            remaining.discard(node)
            found[node] = key
        if node in stop_at:
            continue
        for nxt, weight, edge_hops in adj.get(node, ()):
            old = best.get(nxt)
            if old is not None and dist + weight > old[0]:
                continue  # cheap reject before building the key
            nkey = (dist + weight, hops + edge_hops, seq + (nxt,))
            if old is None or nkey < old:
                best[nxt] = nkey
                heapq.heappush(heap, nkey)
    return found


class Topology:
    """Mutable node/link store with a consistent adjacency index.

    Single-writer: callers serialize mutations. Path queries never mutate.
    """

    def __init__(self):
        self.nodes: dict[NodeId, Node] = {}
        self.links: dict[LinkId, Link] = {}
        self._adj: dict[NodeId, dict[NodeId, Link]] = {}

    # -- mutation ----------------------------------------------------------

    def add_node(self, node: Node) -> NodeId:
        if node.id in self.nodes:
            raise DuplicateId(f"node {node.id} already exists")
        self.nodes[node.id] = node
        self._adj[node.id] = {}
        return node.id

    def add_link(self, a: NodeId, b: NodeId, latency: int, capacity: int) -> LinkId:
        if a == b:
            raise SelfLoop(f"link ({a},{b})")
        for n in (a, b):
            if n not in self.nodes:
                raise UnknownNode(f"node {n}")
        lid = link_id(a, b)
        if lid in self.links:
            raise DuplicateLink(f"link {lid}")
        if latency < 1:
            raise BadParameter("latency must be >= 1")
        if capacity < 1:
            raise BadParameter("capacity must be >= 1")
        link = Link(lid, latency, capacity)
        self.links[lid] = link
        self._adj[a][b] = link
        self._adj[b][a] = link
        return lid

    def set_health(self, n: NodeId, health: Health) -> bool:
        """Set node health. Returns True when the health actually changed."""
        node = self.node(n)
        if node.health == health:
            return False
        node.health = health
        return True

    # -- queries -----------------------------------------------------------

    def node(self, n: NodeId) -> Node:
        try:
            return self.nodes[n]
        except KeyError:
            raise UnknownNode(f"node {n}") from None

    def link(self, a: NodeId, b: NodeId) -> Link:
        try:
            return self.links[link_id(a, b)]
        except KeyError:
            raise UnknownLink(f"link ({a},{b})") from None

    def has_link(self, a: NodeId, b: NodeId) -> bool:
        return link_id(a, b) in self.links

    def neighbors(self, n: NodeId) -> list[NodeId]:
        self.node(n)
        return sorted(self._adj[n])

    def node_ids(self) -> list[NodeId]:
        return sorted(self.nodes)

    def adjacency(self, nodes: frozenset[NodeId], link_filter: LinkFilter) -> Adjacency:
        """Search adjacency of the subgraph induced by nodes, over the links
        that pass link_filter, weighted by raw latency."""
        return {
            n: [
                (nxt, link.latency, 1)
                for nxt, link in self._adj[n].items()
                if nxt in nodes and link_filter(link)
            ]
            for n in nodes
        }

    def slowdown(self, n: NodeId) -> float:
        h = self.nodes[n].health
        return h.slowdown if h.state is HealthState.CONGESTED else 1.0

    def effective_latency(self, a: NodeId, b: NodeId) -> int:
        """Traversal latency of link a-b including endpoint congestion."""
        raw = self.link(a, b).latency
        return max(1, _ceil(raw * self.slowdown(a) * self.slowdown(b)))

    # -- path computation ----------------------------------------------------

    def shortest_path(
        self,
        src: NodeId,
        dst: NodeId,
        link_filter: Optional[LinkFilter] = None,
        exclude_nodes: Iterable[NodeId] = (),
        latency_fn: Optional[Callable[[NodeId, NodeId], int]] = None,
    ) -> Optional[tuple[int, list[NodeId]]]:
        """Deterministic least-latency path, or None when unreachable.

        Ties break on hop count then lexicographic node-id sequence. The
        optional latency_fn substitutes per-hop cost (health-aware callers
        pass effective_latency).
        """
        self.node(src)
        self.node(dst)
        excluded = set(exclude_nodes)
        if src in excluded or dst in excluded:
            return None
        if src == dst:
            return 0, [src]
        cost = latency_fn or (lambda a, b: self.link(a, b).latency)
        best: dict[NodeId, tuple] = {}
        heap = [(0, 0, (src,))]
        while heap:
            dist, hops, path = heapq.heappop(heap)
            node = path[-1]
            key = (dist, hops, path)
            if node in best and best[node] < key:
                continue
            if node == dst:
                return dist, list(path)
            for nxt in sorted(self._adj[node]):
                if nxt in excluded or nxt in path:
                    continue
                link = self._adj[node][nxt]
                if link_filter is not None and not link_filter(link):
                    continue
                nkey = (dist + cost(node, nxt), hops + 1, path + (nxt,))
                if nxt not in best or nkey < best[nxt]:
                    best[nxt] = nkey
                    heapq.heappush(heap, nkey)
        return None

    def k_shortest_paths(
        self,
        src: NodeId,
        dst: NodeId,
        k: int,
        link_filter: Optional[LinkFilter] = None,
        exclude_nodes: Iterable[NodeId] = (),
    ) -> list[list[NodeId]]:
        """At most k loop-free paths ordered by (latency, hops, sequence).

        Best-first enumeration over simple paths; positive latencies make
        completed paths pop in exactly the stated order, so the result for
        k is always a prefix of the result for k+1.
        """
        self.node(src)
        self.node(dst)
        if k < 1:
            raise BadParameter("k must be >= 1")
        excluded = set(exclude_nodes)
        if src in excluded or dst in excluded:
            return []
        if src == dst:
            return [[src]]
        found: list[list[NodeId]] = []
        heap = [(0, 0, (src,))]
        while heap and len(found) < k:
            dist, hops, path = heapq.heappop(heap)
            node = path[-1]
            if node == dst:
                found.append(list(path))
                continue
            for nxt in sorted(self._adj[node]):
                if nxt in excluded or nxt in path:
                    continue
                link = self._adj[node][nxt]
                if link_filter is not None and not link_filter(link):
                    continue
                heapq.heappush(
                    heap, (dist + link.latency, hops + 1, path + (nxt,))
                )
        return found

    def reachable_excluding(
        self,
        src: NodeId,
        dst: NodeId,
        excluded: Iterable[NodeId],
        link_filter: Optional[LinkFilter] = None,
    ) -> bool:
        """True iff a path src->dst exists avoiding all excluded nodes."""
        self.node(src)
        self.node(dst)
        excluded = set(excluded)
        if src in excluded or dst in excluded:
            raise ExcludesEndpoint(f"excluded set contains an endpoint of ({src},{dst})")
        seen = {src}
        frontier = [src]
        while frontier:
            node = frontier.pop()
            if node == dst:
                return True
            for nxt in self._adj[node]:
                if nxt in excluded or nxt in seen:
                    continue
                link = self._adj[node][nxt]
                if link_filter is not None and not link_filter(link):
                    continue
                seen.add(nxt)
                frontier.append(nxt)
        return dst in seen

    def path_latency(self, path: list[NodeId]) -> int:
        return sum(self.link(a, b).latency for a, b in zip(path, path[1:]))


def _ceil(x: float) -> int:
    n = int(x)
    return n if n == x else n + 1
