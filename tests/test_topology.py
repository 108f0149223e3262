import random

import pytest

from sdcps import Health, Node, NodeKind, Topology
from sdcps.topology import multi_target_paths
from sdcps.errors import (
    BadParameter,
    DuplicateId,
    DuplicateLink,
    SelfLoop,
    UnknownLink,
    UnknownNode,
)

from conftest import (
    build_topology,
    make_node,
    path_latency,
    reference_effective_latency,
    reference_shortest_path,
)


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


def random_topology(rng, max_nodes=12, max_latency=4):
    n = rng.randint(2, max_nodes)
    topo = Topology()
    for i in range(n):
        topo.add_node(make_node(i))
    # spanning tree keeps it connected, then sprinkle extras
    for i in range(1, n):
        topo.add_link(i, rng.randrange(i), rng.randint(1, max_latency), 1)
    for _ in range(rng.randint(0, n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not topo.has_link(a, b):
            topo.add_link(a, b, rng.randint(1, max_latency), 1)
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
    assert topo.shortest_path(0, 1) == (1, [0, 1])
    assert topo.shortest_path(1, 0) == (1, [1, 0])


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


# -- shortest_path ----------------------------------------------------------------

def test_k_paths_line():
    topo = build_topology(3, [(0, 1), (1, 2)])
    assert topo.shortest_path(0, 2) == (2, [0, 1, 2])


def test_k_paths_src_equals_dst():
    topo = build_topology(2, [(0, 1)])
    assert topo.shortest_path(0, 0) == (0, [0])


def test_k_paths_diamond_lexicographic_tiebreak():
    topo = build_topology(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    assert topo.shortest_path(0, 3) == (2, [0, 1, 3])


def test_k_paths_unreachable_is_empty():
    topo = build_topology(3, [(0, 1)])
    assert topo.shortest_path(0, 2) is None


def test_k_paths_respects_link_filter():
    topo = build_topology(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    banned = {(0, 1)}
    found = topo.shortest_path(0, 3, links=topo.links.keys() - banned)
    assert found == (2, [0, 2, 3])


def test_k_paths_match_enumeration_oracle():
    rng = random.Random(1234)
    for _ in range(40):
        topo = random_topology(rng)
        adj = adj_of(topo)
        src, dst = rng.sample(sorted(topo.nodes), 2)
        expected = oracle_ranked_paths(adj, src, dst)
        assert topo.shortest_path(src, dst) == (
            (path_latency(topo, expected[0]), expected[0]) if expected else None
        )


def test_shortest_latency_matches_bruteforce():
    rng = random.Random(4321)
    for _ in range(30):
        topo = random_topology(rng)
        adj = adj_of(topo)
        src, dst = rng.sample(sorted(topo.nodes), 2)
        ranked = oracle_ranked_paths(adj, src, dst)
        got = topo.shortest_path(src, dst)
        if not ranked:
            assert got is None
        else:
            best_latency = sum(adj[a][b] for a, b in zip(ranked[0], ranked[0][1:]))
            assert got == (best_latency, ranked[0])


@pytest.mark.parametrize("seed", range(6))
def test_shortest_path_matches_reference_with_filters_exclusions_congestion(seed):
    rng = random.Random(seed)
    for _ in range(40):
        topo = random_topology(rng)
        nodes = sorted(topo.nodes)
        for n in rng.sample(nodes, rng.randint(0, len(nodes) // 2)):
            topo.set_health(n, Health.congested(rng.choice([1.5, 2.0, 3.0])))
        banned = {lid for lid in topo.links if rng.random() < 0.2}
        kept = rng.choice([None, topo.links.keys() - banned])
        kwargs = {
            "exclude_nodes": set(rng.sample(nodes, rng.randint(0, min(3, len(nodes))))),
            "latency_fn": rng.choice([None, topo.effective_latency]),
        }
        # the same choice of links: a set for Topology, a predicate for the oracle
        link_filter = None if kept is None else lambda l: l.endpoints in kept
        src, dst = rng.choice(nodes), rng.choice(nodes)
        assert topo.shortest_path(src, dst, kept, **kwargs) == reference_shortest_path(
            topo, src, dst, link_filter=link_filter, **kwargs
        )


def test_shortest_path_rejects_unknown_endpoints():
    topo = build_topology(2, [(0, 1)])
    with pytest.raises(UnknownNode):
        topo.shortest_path(0, 5)
    with pytest.raises(UnknownNode):
        topo.shortest_path(5, 0)


def test_effective_latency_overflow_names_the_link():
    topo = build_topology(3, [(0, 1, 1), (1, 2, 1)])
    topo.set_health(0, Health.congested(1e200))
    topo.set_health(1, Health.congested(1e200))
    assert topo.effective_latency(1, 2) > 1
    for _ in range(2):  # an overflow is never kept, so it raises again
        with pytest.raises(BadParameter, match=r"\(0, 1\)"):
            topo.effective_latency(1, 0)
    topo.set_health(0, Health.healthy())
    assert topo.effective_latency(1, 0) == reference_effective_latency(topo, 1, 0) > 1


def outcome(call):
    try:
        return call()
    except BadParameter as exc:
        return str(exc)


HEALTH_CHANGES = [
    Health.healthy(), Health.failed(), Health.malicious(0.4), Health.congested(1.0),
    Health.congested(1.5), Health.congested(2.0), Health.congested(3.7), Health.congested(1e200),
]


@pytest.mark.parametrize("seed", range(4))
def test_effective_latency_table_matches_the_formula_after_health_changes(seed):
    rng = random.Random(seed)
    for _ in range(10):
        topo = random_topology(rng)
        directed = [(a, b) for lid in sorted(topo.links) for a, b in (lid, lid[::-1])]
        for _ in range(15):
            topo.set_health(rng.choice(sorted(topo.nodes)), rng.choice(HEALTH_CHANGES))
            for _ in range(2):  # the second pass reads what the first one kept
                for a, b in directed:
                    assert outcome(lambda: topo.effective_latency(a, b)) == outcome(
                        lambda: reference_effective_latency(topo, a, b)
                    )


# -- hops ----------------------------------------------------------------------------

def avoiding(topo, excluded):
    """The links of topo with no endpoint in excluded."""
    return {lid for lid in topo.links if not set(lid) & excluded}


def test_hops_line_excluding_middle():
    topo = build_topology(3, [(0, 1), (1, 2)])
    assert 2 not in topo.hops(0, avoiding(topo, {1}))


def test_hops_diamond_excluding_one_arm():
    topo = build_topology(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    assert 3 in topo.hops(0, avoiding(topo, {1}))


def test_hops_empty_exclusion_connected():
    topo = build_topology(3, [(0, 1), (1, 2)])
    assert topo.hops(0) == {0: 0, 1: 1, 2: 2}


def test_hops_always_holds_source_and_rejects_unknown():
    topo = build_topology(2, [(0, 1)])
    assert topo.hops(0, frozenset()) == {0: 0}
    with pytest.raises(UnknownNode):
        topo.hops(5)


def test_hops_iff_filtered_kpaths_nonempty():
    rng = random.Random(99)
    for _ in range(30):
        topo = random_topology(rng, max_nodes=9)
        nodes = sorted(topo.nodes)
        src, dst = rng.sample(nodes, 2)
        others = [n for n in nodes if n not in (src, dst)]
        excluded = set(rng.sample(others, min(len(others), rng.randint(0, 3))))
        found = topo.shortest_path(src, dst, links=avoiding(topo, excluded))
        assert (dst in topo.hops(src, avoiding(topo, excluded))) == (found is not None)


def test_hops_equal_reference_hop_counts_at_unit_latency():
    rng = random.Random(5)
    for _ in range(30):
        topo = random_topology(rng, max_latency=1)
        links = set(rng.sample(sorted(topo.links), rng.randint(0, len(topo.links))))
        for src in topo.nodes:
            levels = topo.hops(src, links)
            for dst in topo.nodes:
                found = reference_shortest_path(
                    topo, src, dst, link_filter=lambda link: link.endpoints in links)
                assert levels.get(dst) == (None if found is None else len(found[1]) - 1)


class Entered(dict):
    """An adjacency that records each node whose edges a search reads."""

    def __init__(self, adj):
        super().__init__(adj)
        self.entered = set()

    def get(self, node, default=None):
        self.entered.add(node)
        return super().get(node, default)


def test_bounded_search_breaks_equal_estimates_by_hops():
    """Both routes 0-1-2-3 and 0-4-3 take latency 3, and every node on them
    is as far from 3 as its bound says. Node 1 and node 2's path to 3 sort
    before node 4 by sequence, so only the hops part of the heap key puts 4,
    on the route with fewer hops, first."""
    topo = build_topology(5, [(0, 1), (1, 2), (2, 3), (0, 4, 2), (4, 3)])
    adj = topo.adjacency(topo.nodes.keys())
    assert multi_target_paths(adj, 0, (3,), bound=topo.hops(3)) == {3: (3, 2, (0, 4, 3))}


def test_bounded_search_matches_the_unbounded_one():
    """A hop-count bound, over every link or only the searched ones, gives
    the same path to each target as no bound, even where low latencies tie
    and stop_at nodes may only end a path; the search enters no node
    without a bound entry."""
    rng = random.Random(28)
    unbounded_src = 0
    for _ in range(40):
        topo = random_topology(rng, max_nodes=16, max_latency=3)
        links = set(rng.sample(sorted(topo.links), rng.randint(1, len(topo.links))))
        adj = topo.adjacency(topo.nodes.keys(), links)
        stop_at = set(rng.sample(sorted(topo.nodes), rng.randint(0, min(3, len(topo.nodes)))))
        for target in topo.nodes:
            for bound in (topo.hops(target), topo.hops(target, links)):
                for src in topo.nodes:
                    expected = multi_target_paths(adj, src, (target,), stop_at - {src})
                    seen = Entered(adj)
                    assert multi_target_paths(
                        seen, src, (target,), stop_at - {src}, bound=bound) == expected
                    assert seen.entered <= bound.keys()
                    unbounded_src += src not in bound
    assert unbounded_src  # some searches start outside the bound and enter nothing


def test_mutation_preserves_unrelated_ids():
    topo = build_topology(4, [(0, 1), (2, 3)])
    before = {n: topo.node(n).kind for n in topo.nodes}
    topo.add_node(make_node(9))
    topo.add_link(1, 2, 3, 1)
    topo.set_health(3, Health.failed())
    for n, kind in before.items():
        assert topo.node(n).kind == kind
    assert topo.link(0, 1).latency == 1
