import random

import pytest

from sdcps import Health, Node, NodeKind, Topology
from sdcps.errors import (
    BadParameter,
    DuplicateId,
    DuplicateLink,
    ExcludesEndpoint,
    SelfLoop,
    UnknownLink,
    UnknownNode,
)

from conftest import build_topology, make_node


# -- oracle: exhaustive simple-path enumeration -------------------------------

def all_simple_paths(adj, src, dst):
    """adj: {node: {neighbor: latency}}. Returns every loop-free path."""
    out = []

    def walk(path):
        here = path[-1]
        if here == dst:
            out.append(list(path))
            return
        for nxt in sorted(adj.get(here, {})):
            if nxt not in path:
                path.append(nxt)
                walk(path)
                path.pop()

    walk([src])
    return out


def oracle_ranked_paths(adj, src, dst):
    def latency(path):
        return sum(adj[a][b] for a, b in zip(path, path[1:]))

    return sorted(
        all_simple_paths(adj, src, dst),
        key=lambda p: (latency(p), len(p) - 1, p),
    )


def adj_of(topo):
    adj = {}
    for (a, b), link in topo.links.items():
        adj.setdefault(a, {})[b] = link.latency
        adj.setdefault(b, {})[a] = link.latency
    for n in topo.nodes:
        adj.setdefault(n, {})
    return adj


def random_topology(rng, max_nodes=12):
    n = rng.randint(2, max_nodes)
    topo = Topology()
    for i in range(n):
        topo.add_node(make_node(i))
    # spanning tree keeps it connected, then sprinkle extras
    for i in range(1, n):
        topo.add_link(i, rng.randrange(i), rng.randint(1, 4), 1)
    for _ in range(rng.randint(0, n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not topo.has_link(a, b):
            topo.add_link(a, b, rng.randint(1, 4), 1)
    return topo


# -- add_node / add_link ------------------------------------------------------

def test_add_node_base_case():
    topo = Topology()
    topo.add_node(make_node(0))
    assert topo.node(0).kind is NodeKind.SWITCH


def test_add_node_duplicate_id():
    topo = Topology()
    topo.add_node(make_node(0))
    with pytest.raises(DuplicateId):
        topo.add_node(make_node(0))


def test_add_fifty_nodes_all_queryable():
    topo = Topology()
    for i in range(50):
        topo.add_node(make_node(i))
    assert len(topo.nodes) == 50
    for i in range(50):
        assert topo.node(i).id == i


def test_add_link_creates_bidirectional_path():
    topo = build_topology(2, [(0, 1)])
    assert topo.k_shortest_paths(0, 1, 1) == [[0, 1]]
    assert topo.k_shortest_paths(1, 0, 1) == [[1, 0]]


def test_add_link_self_loop():
    topo = build_topology(1, [])
    with pytest.raises(SelfLoop):
        topo.add_link(0, 0, 1, 1)


def test_add_link_duplicate():
    topo = build_topology(2, [(0, 1)])
    with pytest.raises(DuplicateLink):
        topo.add_link(1, 0, 2, 2)


def test_add_link_unknown_node_and_bad_params():
    topo = build_topology(2, [])
    with pytest.raises(UnknownNode):
        topo.add_link(0, 9, 1, 1)
    with pytest.raises(BadParameter):
        topo.add_link(0, 1, 0, 1)
    with pytest.raises(BadParameter):
        topo.add_link(0, 1, 1, 0)


def test_node_compute_capacity_rules():
    with pytest.raises(BadParameter):
        Node(0, NodeKind.SMART_DEVICE, compute_capacity=0)
    Node(1, NodeKind.SWITCH, compute_capacity=0)  # permitted


def test_health_parameter_rules():
    with pytest.raises(BadParameter):
        Health.congested(0.5)
    with pytest.raises(BadParameter):
        Health.malicious(1.5)


def test_link_missing_raises_unknown_link():
    topo = build_topology(3, [(0, 1)])
    assert topo.link(1, 0).endpoints == (0, 1)
    with pytest.raises(UnknownLink):
        topo.link(0, 2)


# -- set_health ----------------------------------------------------------------

def test_set_health_unknown_node():
    topo = build_topology(1, [])
    with pytest.raises(UnknownNode):
        topo.set_health(7, Health.failed())


def test_set_health_idempotent_signal():
    topo = build_topology(1, [])
    assert topo.set_health(0, Health.healthy()) is False
    assert topo.set_health(0, Health.failed()) is True
    assert topo.set_health(0, Health.failed()) is False


def test_congestion_doubles_effective_latency():
    topo = build_topology(3, [(0, 1, 1), (1, 2, 1)])
    assert topo.effective_latency(0, 1) + topo.effective_latency(1, 2) == 2
    topo.set_health(1, Health.congested(2.0))
    assert topo.effective_latency(0, 1) == 2
    assert topo.effective_latency(1, 2) == 2


# -- k_shortest_paths -------------------------------------------------------------

def test_k_paths_line():
    topo = build_topology(3, [(0, 1), (1, 2)])
    assert topo.k_shortest_paths(0, 2, 3) == [[0, 1, 2]]


def test_k_paths_src_equals_dst():
    topo = build_topology(2, [(0, 1)])
    assert topo.k_shortest_paths(0, 0, 2) == [[0]]


def test_k_paths_diamond_lexicographic_tiebreak():
    topo = build_topology(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    assert topo.k_shortest_paths(0, 3, 2) == [[0, 1, 3], [0, 2, 3]]


def test_k_paths_unreachable_is_empty():
    topo = build_topology(3, [(0, 1)])
    assert topo.k_shortest_paths(0, 2, 4) == []


def test_k_paths_respects_link_filter():
    topo = build_topology(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    banned = {(0, 1)}
    paths = topo.k_shortest_paths(0, 3, 5, link_filter=lambda l: l.endpoints not in banned)
    assert paths == [[0, 2, 3]]


def test_k_paths_match_enumeration_oracle():
    rng = random.Random(1234)
    for _ in range(40):
        topo = random_topology(rng)
        adj = adj_of(topo)
        src, dst = rng.sample(sorted(topo.nodes), 2)
        expected = oracle_ranked_paths(adj, src, dst)
        for k in (1, 2, 5, len(expected) + 2 if expected else 3):
            assert topo.k_shortest_paths(src, dst, k) == expected[:k]


def test_k_paths_prefix_property():
    rng = random.Random(77)
    for _ in range(20):
        topo = random_topology(rng)
        src, dst = rng.sample(sorted(topo.nodes), 2)
        for k in range(1, 6):
            shorter = topo.k_shortest_paths(src, dst, k)
            longer = topo.k_shortest_paths(src, dst, k + 1)
            assert longer[:k] == shorter


def test_shortest_latency_matches_bruteforce():
    rng = random.Random(4321)
    for _ in range(30):
        topo = random_topology(rng)
        adj = adj_of(topo)
        src, dst = rng.sample(sorted(topo.nodes), 2)
        ranked = oracle_ranked_paths(adj, src, dst)
        got = topo.k_shortest_paths(src, dst, 1)
        if not ranked:
            assert got == []
        else:
            best_latency = sum(adj[a][b] for a, b in zip(ranked[0], ranked[0][1:]))
            assert topo.path_latency(got[0]) == best_latency


# -- reachable_excluding -------------------------------------------------------------

def test_reachable_line_excluding_middle():
    topo = build_topology(3, [(0, 1), (1, 2)])
    assert topo.reachable_excluding(0, 2, {1}) is False


def test_reachable_diamond_excluding_one_arm():
    topo = build_topology(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    assert topo.reachable_excluding(0, 3, {1}) is True


def test_reachable_empty_exclusion_connected():
    topo = build_topology(3, [(0, 1), (1, 2)])
    assert topo.reachable_excluding(0, 2, set()) is True


def test_reachable_excluding_endpoint_rejected():
    topo = build_topology(2, [(0, 1)])
    with pytest.raises(ExcludesEndpoint):
        topo.reachable_excluding(0, 1, {1})


def test_reachable_iff_filtered_kpaths_nonempty():
    rng = random.Random(99)
    for _ in range(30):
        topo = random_topology(rng, max_nodes=9)
        nodes = sorted(topo.nodes)
        src, dst = rng.sample(nodes, 2)
        others = [n for n in nodes if n not in (src, dst)]
        excluded = set(rng.sample(others, min(len(others), rng.randint(0, 3))))
        paths = topo.k_shortest_paths(
            src, dst, 1,
            link_filter=lambda l: not (set(l.endpoints) & excluded),
        )
        assert topo.reachable_excluding(src, dst, excluded) == bool(paths)


def test_mutation_preserves_unrelated_ids():
    topo = build_topology(4, [(0, 1), (2, 3)])
    before = {n: topo.node(n).kind for n in topo.nodes}
    topo.add_node(make_node(9))
    topo.add_link(1, 2, 3, 1)
    topo.set_health(3, Health.failed())
    for n, kind in before.items():
        assert topo.node(n).kind == kind
    assert topo.link(0, 1).latency == 1
