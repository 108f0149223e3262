"""Shared network model: nodes, links, health states, and path computation.

All path queries are deterministic: equal-cost alternatives are ordered by
(total latency, hop count, lexicographic node-id sequence), so two runs of
the same world always route identically. `Topology` owns every table
derived from node health.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import AbstractSet, Callable, Iterable, Optional

from .errors import (
    BadParameter,
    DuplicateId,
    DuplicateLink,
    SelfLoop,
    UnknownLink,
    UnknownNode,
)

NodeId = int
LinkId = tuple[int, int]  # canonical (min, max) endpoint pair

LOSS = "LOSS"  # what a probe of a failed or dropping neighbour observes

# The largest link latency or service cost: congestion scales either by a
# float, so each must convert to one.
MAX_WEIGHT = int(sys.float_info.max)


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


@dataclass(frozen=True)
class Node:
    id: NodeId
    kind: NodeKind
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


LatencyFn = Callable[[NodeId, NodeId], int]  # per-hop cost of a link a-b

# node -> [(next, weight, hops)], at most one edge per (node, next);
# weight >= 1 and hops >= 1
Adjacency = dict[NodeId, list[tuple[NodeId, int, int]]]
PathKey = tuple[int, int, tuple[NodeId, ...]]  # (latency, hops, node sequence)


def multi_target_paths(
    adj: Adjacency,
    src: NodeId,
    targets: Iterable[NodeId],
    stop_at: AbstractSet[NodeId] = frozenset(),
    bound: Optional[dict[NodeId, int]] = None,
) -> dict[NodeId, PathKey]:
    """Best (latency, hops, node sequence) path from src to each target.

    Paths rank by that key. With positive weights and hops the order is
    consistent with prefixes (the best path's prefix is the best path to the
    node where it ends), so a lazy Dijkstra gives every node its best key the
    first time it pops. Keys are distinct, so edge order does not change
    the result. Nodes in stop_at may end a path but never relay one.
    Unreachable targets are absent from the result; the search stops as soon
    as every target has popped.

    bound, when given, maps each node to a consistent lower bound on the
    weight left to its nearest target (bound[u] <= weight + bound[v] on each
    edge u-v); a node with no entry reaches no target and is never entered.
    The heap then orders by (latency + bound, hops, sequence) (A*) and the
    result keeps path keys. A node still pops first with its best key: the
    first unpopped node on a better path has a lower latency + bound, or an
    equal one and strictly fewer hops.
    """
    remaining = set(targets)
    found: dict[NodeId, PathKey] = {}
    best: dict[NodeId, PathKey] = {src: (0, 0, (src,))}
    heap: list = [best[src]] if bound is None else (
        [(bound[src], 0, best[src][2])] if src in bound else [])  # best's own sequence
    while heap and remaining:
        seq = heapq.heappop(heap)[2]
        node = seq[-1]
        key = best[node]
        if key[2] is not seq:
            continue  # best[node] is a better key, pushed since (checked by identity)
        dist, hops, _ = key
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
            if (old is None or nkey < old) and (bound is None or nxt in bound):
                best[nxt] = nkey
                heapq.heappush(heap, nkey if bound is None else
                               (nkey[0] + bound[nxt], nkey[1], nkey[2]))
    return found


TRANSFER_KEYS = 16  # health keys a TransferMemo holds; the oldest goes first


@dataclass
class _Transfers:
    """A health key's failed set, all-node adjacency (built lazily), rows and composition."""

    failed: frozenset[NodeId]
    adj: Optional[Adjacency] = None
    rows: dict[NodeId, dict[NodeId, PathKey]] = field(default_factory=dict)
    composed: tuple = ()  # (key, report), or empty


class TransferMemo(dict):
    """Health key -> `_Transfers`, shared whole by a topology and its forks:
    each entry is a pure function of node/link structure, key and source
    (a composition's, of its task graph, registry and overrides)."""


class Topology:
    """Mutable node/link store with a consistent adjacency index.

    Single-writer: callers serialize mutations. Path queries never mutate.

    It fills, keeps and drops every table derived from node health: the
    effective latency per directed link (`effective_latency`), each
    reporter's `probes` (`probe`), the transfer searches (`paths_from`) and
    the failed set (`failed_nodes`). A health change drops the changed
    node's latencies and the probes of it and its neighbours, a new link
    its endpoints' probes. The transfer searches, failed set and composition
    live in a `TransferMemo` under the health key (each non-healthy node's
    `Health`), which forks share. A new node or link unbinds it until a read.
    """

    def __init__(self):
        self.nodes: dict[NodeId, Node] = {}
        self.links: dict[LinkId, Link] = {}
        self._adj: dict[NodeId, dict[NodeId, Link]] = {}
        self._effective: dict[tuple[NodeId, NodeId], int] = {}
        self.probes: dict[NodeId, tuple] = {}
        self._unhealthy: dict[NodeId, Health] = {}
        self._health_key, self._memo = frozenset(), None

    def fork(self) -> "Topology":
        """Copy every table; share the frozen nodes and links and the memo."""
        twin = Topology()
        twin.nodes, twin.links = dict(self.nodes), dict(self.links)  # both frozen, so shared
        twin._adj = {n: dict(nbrs) for n, nbrs in self._adj.items()}
        twin._effective, twin.probes = dict(self._effective), dict(self.probes)
        twin._unhealthy, twin._health_key = dict(self._unhealthy), self._health_key
        if self._memo is None:
            self._memo = TransferMemo()
        twin._memo = self._memo
        return twin

    # -- mutation ----------------------------------------------------------

    def add_node(self, node: Node) -> NodeId:
        if node.id in self.nodes:
            raise DuplicateId(f"node {node.id} declared twice")
        self.nodes[node.id] = node
        self._adj[node.id] = {}
        if node.health.state is not HealthState.HEALTHY:
            self._unhealthy[node.id] = node.health
            self._health_key = frozenset(self._unhealthy.items())
        self._memo = None
        return node.id

    def add_link(self, a: NodeId, b: NodeId, latency: int, capacity: int) -> LinkId:
        if a == b:
            raise SelfLoop(f"link ({a},{b}) is a self-loop")
        for n in (a, b):
            if n not in self.nodes:
                raise UnknownNode(f"unknown node {n}")
        lid = link_id(a, b)
        if lid in self.links:
            raise DuplicateLink(f"link {lid} declared twice")
        if latency < 1:
            raise BadParameter("latency must be >= 1")
        if latency > MAX_WEIGHT:
            raise BadParameter(f"latency must be <= {MAX_WEIGHT:.6g}")
        if capacity < 1:
            raise BadParameter("capacity must be >= 1")
        link = Link(lid, latency, capacity)
        self.links[lid] = link
        self._adj[a][b] = link
        self._adj[b][a] = link
        self.probes.pop(a, None)  # a new neighbour for each endpoint
        self.probes.pop(b, None)
        self._memo = None
        return lid

    def set_health(self, n: NodeId, health: Health) -> bool:
        """Replace the frozen node with one of the new health; True if it changed."""
        node = self.node(n)
        if node.health == health:
            return False
        self.nodes[n] = replace(node, health=health)
        self.probes.pop(n, None)
        for nbr in self._adj[n]:
            self._effective.pop((n, nbr), None)
            self._effective.pop((nbr, n), None)
            self.probes.pop(nbr, None)
        if health.state is HealthState.HEALTHY:
            self._unhealthy.pop(n, None)
        else:
            self._unhealthy[n] = health
        self._health_key = frozenset(self._unhealthy.items())
        return True

    # -- queries -----------------------------------------------------------

    def node(self, n: NodeId) -> Node:
        try:
            return self.nodes[n]
        except KeyError:
            raise UnknownNode(f"unknown node {n}") from None

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

    def adjacency(
        self,
        nodes: AbstractSet[NodeId],
        links: Optional[AbstractSet[LinkId]] = None,
        latency_fn: Optional[LatencyFn] = None,
    ) -> Adjacency:
        """Search adjacency of the subgraph induced by nodes, over the links
        whose endpoints are in links (every link when None), weighted by
        latency_fn (raw latency when None)."""
        return {
            n: [
                (nxt, link.latency if latency_fn is None else latency_fn(n, nxt), 1)
                for nxt, link in self._adj[n].items()
                if nxt in nodes and (links is None or link.endpoints in links)
            ]
            for n in nodes
        }

    def slowdown(self, n: NodeId) -> float:
        h = self.nodes[n].health
        return h.slowdown if h.state is HealthState.CONGESTED else 1.0

    def effective_latency(self, a: NodeId, b: NodeId) -> int:
        """Traversal latency of link a-b including endpoint congestion, kept
        per direction until a health change; an overflow is never kept."""
        latency = self._effective.get((a, b))
        if latency is None:
            scaled = self.link(a, b).latency * self.slowdown(a) * self.slowdown(b)
            if not math.isfinite(scaled):
                raise BadParameter(f"link {link_id(a, b)}: congested latency overflows")
            latency = self._effective[(a, b)] = max(1, math.ceil(scaled))
        return latency

    def health_entry(self) -> _Transfers:
        if self._memo is None:
            self._memo = TransferMemo()
        entry = self._memo.get(self._health_key)
        if entry is None:
            if len(self._memo) >= TRANSFER_KEYS:
                del self._memo[next(iter(self._memo))]
            failed = (n for n, h in self._unhealthy.items() if h.state is HealthState.FAILED)
            entry = self._memo[self._health_key] = _Transfers(frozenset(failed))
        return entry

    def failed_nodes(self) -> frozenset[NodeId]:
        return self.health_entry().failed

    def probe(self, reporter: NodeId, rng) -> tuple[tuple[NodeId, object], ...]:
        """What reporter observes of each neighbour, in node order: LOSS for
        a failed one, LOSS with a malicious one's drop probability (one rng
        draw each), else the link's effective latency; a failed reporter
        observes nothing. Kept in `probes` unless a neighbour is malicious."""
        observations = self.probes.get(reporter)
        if observations is None:
            observations, reusable = [], True
            failed = self.nodes[reporter].health.state is HealthState.FAILED
            for neighbor in () if failed else self.neighbors(reporter):
                h = self.nodes[neighbor].health
                if h.state is HealthState.MALICIOUS:
                    reusable = False
                    lost = rng.random() < h.drop_prob
                else:
                    lost = h.state is HealthState.FAILED
                observations.append(
                    (neighbor, LOSS if lost else self.effective_latency(reporter, neighbor))
                )
            observations = tuple(observations)
            if reusable:
                self.probes[reporter] = observations
        return observations

    # -- path computation ----------------------------------------------------

    def shortest_path(
        self,
        src: NodeId,
        dst: NodeId,
        links: Optional[AbstractSet[LinkId]] = None,
        exclude_nodes: Iterable[NodeId] = (),
        latency_fn: Optional[LatencyFn] = None,
    ) -> Optional[tuple[int, list[NodeId]]]:
        """Deterministic least-latency path, or None when unreachable.

        One pair's `multi_target_paths` search over the nodes not excluded
        and the links in links (every link when None); latency_fn
        substitutes per-hop cost as in `adjacency`.
        """
        self.node(src)
        self.node(dst)
        nodes = self.nodes.keys() - set(exclude_nodes)
        if src not in nodes or dst not in nodes:
            return None
        adj = self.adjacency(nodes, links, latency_fn)
        found = multi_target_paths(adj, src, (dst,)).get(dst)
        return None if found is None else (found[0], list(found[2]))

    def paths_from(self, src: NodeId) -> dict[NodeId, PathKey]:
        """Best transfer path from src to every node it reaches over every
        link, weighted by `effective_latency`. Failed nodes other than src
        may end a path but never relay one. Memoized per health key."""
        entry = self.health_entry()
        rows = entry.rows.get(src)
        if rows is None:
            if entry.adj is None:
                entry.adj = self.adjacency(self.nodes.keys(), latency_fn=self.effective_latency)
            rows = entry.rows[src] = multi_target_paths(
                entry.adj, src, entry.adj, entry.failed - {src})
        return rows

    def hops(self, src: NodeId, links: Optional[AbstractSet[LinkId]] = None) -> dict[NodeId, int]:
        """Fewest links from src to each node connected to it over the links
        in links (every link when None), src at 0: one breadth-first walk.
        Every latency is at least 1, so this is a consistent lower bound on
        the latency to src (`multi_target_paths`' bound)."""
        self.node(src)
        level = {src: 0}
        queue = [src]
        for n in queue:  # reaches what it appends, in breadth-first order
            for nxt, link in self._adj[n].items():
                if nxt not in level and (links is None or link.endpoints in links):
                    level[nxt] = level[n] + 1
                    queue.append(nxt)
        return level
