import heapq
import random
import sys
from pathlib import Path

import pytest

from sdcps import (
    Bus,
    Controller,
    Farm,
    Health,
    Node,
    NodeKind,
    Priority,
    SliceTable,
    Topology,
    Verdict,
    World,
    build_world,
    parse_scenario,
    spawn_twin,
)
from sdcps.controller import LOSS
from sdcps.topology import multi_target_paths
from sdcps.errors import (
    DisconnectedDomain,
    DuplicateId,
    NoPathInSlice,
    OverlappingDomain,
    SdcpsError,
    UnassignedNode,
)

from conftest import make_node, path_latency, record_admissions, reference_cross_domain_path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from gen import generate  # noqa: E402


# -- oracle: plain Dijkstra on the merged graph ---------------------------------

def merged_shortest_latency(topo, src, dst):
    dist = {src: 0}
    heap = [(0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == dst:
            return d
        if d > dist.get(u, 1 << 30):
            continue
        for v in topo.neighbors(u):
            nd = d + topo.link(u, v).latency
            if nd < dist.get(v, 1 << 30):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return None


def farm_world(domain_map, links, seed=0):
    """domain_map: {domain_id: [nodes]}; links: (a, b[, latency])."""
    w = World(seed=seed)
    all_nodes = sorted(n for ns in domain_map.values() for n in ns)
    for n in all_nodes:
        w.add_node(Node(n, NodeKind.SMART_DEVICE, compute_capacity=1))
    lids = []
    for spec in links:
        a, b = spec[0], spec[1]
        lat = spec[2] if len(spec) > 2 else 1
        lids.append(w.add_link(a, b, lat, 4))
    for did in sorted(domain_map):
        w.register_domain(did, domain_map[did])
    w.allocate_slice(0, lids, 1, Priority.GOLD)
    w.finish_setup()
    return w


# -- registration and resolution -----------------------------------------------

def test_register_two_disjoint_domains():
    w = farm_world({0: [0, 1, 2], 1: [3, 4, 5]},
                   [(0, 1), (1, 2), (3, 4), (4, 5), (2, 3)])
    assert sorted(w.farm.controllers) == [0, 1]
    assert w.farm.resolve(1) == 0
    assert w.farm.resolve(4) == 1


def test_register_overlapping_domains_rejected():
    topo = Topology()
    for i in range(4):
        topo.add_node(make_node(i))
    topo.add_link(0, 1, 1, 1)
    topo.add_link(2, 3, 1, 1)
    topo.add_link(1, 2, 1, 1)
    farm = Farm(topo, SliceTable(topo), Bus())
    farm.register_domain(0, {0, 1})
    with pytest.raises(OverlappingDomain):
        farm.register_domain(1, {1, 2})


def test_register_disconnected_domain_rejected():
    topo = Topology()
    for i in range(3):
        topo.add_node(make_node(i))
    topo.add_link(0, 1, 1, 1)
    farm = Farm(topo, SliceTable(topo), Bus())
    with pytest.raises(DisconnectedDomain):
        farm.register_domain(0, {0, 2})


def test_register_duplicate_domain_id_rejected():
    topo = Topology()
    for i in range(4):
        topo.add_node(make_node(i))
    topo.add_link(0, 1, 1, 1)
    topo.add_link(2, 3, 1, 1)
    farm = Farm(topo, SliceTable(topo), Bus())
    farm.register_domain(0, {0, 1})
    with pytest.raises(DuplicateId):
        farm.register_domain(0, {2, 3})
    assert farm.controllers[0].domain_nodes == {0, 1}
    assert farm.unassigned_nodes() == [2, 3]


def test_world_duplicate_domain_keeps_first_controller_and_subscriptions():
    w = World(seed=0)
    for i in range(4):
        w.add_node(Node(i, NodeKind.SMART_DEVICE, compute_capacity=1))
    w.add_link(0, 1, 1, 1)
    w.add_link(2, 3, 1, 1)
    w.register_domain(0, [0, 1])
    before = w.bus.topics
    with pytest.raises(DuplicateId):
        w.register_domain(0, [2, 3])
    assert w.bus.topics == before
    assert w.farm.resolve(0) == 0 and w.farm.unassigned_nodes() == [2, 3]


def test_uncovered_node_rejected_at_setup():
    w = World(seed=0)
    for i in range(3):
        w.add_node(Node(i, NodeKind.SMART_DEVICE, compute_capacity=1))
    w.add_link(0, 1, 1, 1)
    w.add_link(1, 2, 1, 1)
    w.register_domain(0, [0, 1])
    with pytest.raises(SdcpsError):
        w.finish_setup()


def test_resolve_unassigned():
    topo = Topology()
    topo.add_node(make_node(0))
    farm = Farm(topo, SliceTable(topo), Bus())
    with pytest.raises(UnassignedNode):
        farm.resolve(0)


def test_domain_partition_property_random():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(4, 14)
        topo = Topology()
        for i in range(n):
            topo.add_node(make_node(i))
        for i in range(1, n):
            topo.add_link(i, rng.randrange(i), 1, 1)
        farm = Farm(topo, SliceTable(topo), Bus())
        # greedy connected chunks in random order
        unassigned = set(range(n))
        did = 0
        while unassigned:
            seed_node = rng.choice(sorted(unassigned))
            chunk = {seed_node}
            frontier = [seed_node]
            want = rng.randint(1, max(1, len(unassigned) // 2))
            while frontier and len(chunk) < want:
                u = frontier.pop(0)
                for v in topo.neighbors(u):
                    if v in unassigned and v not in chunk and len(chunk) < want:
                        chunk.add(v)
                        frontier.append(v)
            farm.register_domain(did, chunk)
            unassigned -= chunk
            did += 1
        # partition: disjoint and covering
        seen = {}
        for c in farm.controllers.values():
            for node in c.domain_nodes:
                assert node not in seen
                seen[node] = c.id
        assert set(seen) == set(range(n))
        assert farm.unassigned_nodes() == []


# -- cross-domain paths -------------------------------------------------------------

def test_two_domain_line_concatenates_segments():
    w = farm_world({0: [0, 1], 1: [2, 3]}, [(0, 1), (1, 2), (2, 3)])
    path = w.farm.cross_domain_path(0, 3, 0)
    assert path == [0, 1, 2, 3]


def test_same_domain_pair_degenerates_to_intra():
    w = farm_world({0: [0, 1, 2]}, [(0, 1), (1, 2)])
    assert w.farm.cross_domain_path(0, 2, 0) == [0, 1, 2]
    table = w.farm.controllers[0].segment_table(w.slices.get(0).links, [0, 2])
    assert table[(0, 2)] == (2, 2, (0, 1, 2))


def test_admission_edges_count_their_segments_hops():
    """0 and 1 share a domain: its own path 0-2-3-4-5-1 ties in latency
    with 0-6-8-7-1 through domain 1, which has one link fewer. The join
    edges out of 0 and into 1 must count their segments' links, or the
    tie goes to the shorter join sequence (0, 1)."""
    w = farm_world(
        {0: [0, 1, 2, 3, 4, 5, 6, 7], 1: [8]},
        [(0, 2), (2, 3), (3, 4), (4, 5), (5, 1), (0, 6), (6, 8), (8, 7, 2), (7, 1)],
    )
    route = w.farm.cross_domain_path(0, 1, 0)
    assert route == [0, 6, 8, 7, 1]
    assert route == reference_cross_domain_path(w.farm, {}, 0, 1, 0)[0]


def test_no_cross_domain_link_in_slice_is_no_path():
    w = World(seed=0)
    for i in range(4):
        w.add_node(Node(i, NodeKind.SMART_DEVICE, compute_capacity=1))
    inner_a = w.add_link(0, 1, 1, 2)
    gateway = w.add_link(1, 2, 1, 2)
    inner_b = w.add_link(2, 3, 1, 2)
    w.register_domain(0, [0, 1])
    w.register_domain(1, [2, 3])
    w.allocate_slice(0, [inner_a, inner_b], 1, Priority.GOLD)  # gateway excluded
    w.finish_setup()
    with pytest.raises(NoPathInSlice):
        w.farm.cross_domain_path(0, 3, 0)
    assert gateway == (1, 2) and w.farm.resolve(1) != w.farm.resolve(2)


def random_partitioned_world(rng, max_nodes=20, max_domains=4, max_latency=4):
    n = rng.randint(6, max_nodes)
    links = set()
    for i in range(1, n):
        links.add((rng.randrange(i), i, rng.randint(1, max_latency)))
    for _ in range(rng.randint(1, n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not any(l[:2] in ((a, b), (b, a)) for l in links):
            links.add((min(a, b), max(a, b), rng.randint(1, max_latency)))
    adjacency = {i: set() for i in range(n)}
    for a, b, _ in links:
        adjacency[a].add(b)
        adjacency[b].add(a)
    k = rng.randint(1, max_domains)
    seeds = rng.sample(range(n), k)
    owner = {s: i for i, s in enumerate(seeds)}
    frontier = list(seeds)
    while len(owner) < n:
        grew = False
        for node in list(frontier):
            for nxt in sorted(adjacency[node]):
                if nxt not in owner:
                    owner[nxt] = owner[node]
                    frontier.append(nxt)
                    grew = True
        if not grew:
            break
    domains = {}
    for node, did in owner.items():
        domains.setdefault(did, []).append(node)
    return farm_world(domains, sorted(links), seed=rng.randrange(1 << 16))


def test_federation_transparency_oracle_equivalence():
    rng = random.Random(2024)
    for _ in range(20):
        w = random_partitioned_world(rng)
        topo = w.topology
        nodes = topo.node_ids()
        for src in nodes:
            for dst in nodes:
                if src == dst:
                    continue
                expected = merged_shortest_latency(topo, src, dst)
                try:
                    path = w.farm.cross_domain_path(src, dst, 0)
                except NoPathInSlice:
                    assert expected is None
                    continue
                assert path_latency(topo, path) == expected
                # returned path is simple and traverses real links
                assert len(set(path)) == len(path)


# -- admissions against the table-join reference ---------------------------------------
# `record_admissions` runs `conftest.reference_cross_domain_path` beside every
# admission; the route and the messages it counts must be the reference's.

def random_digest(rng, farm, pool):
    """A digest from a random sender to a random receiver that marks up to
    three nodes of pool suspect, or clears the sender's view."""
    cids = sorted(farm.controllers)
    receiver = rng.choice(cids)
    sender = rng.choice([c for c in cids if c != receiver] or [max(cids) + 1])
    marked = rng.sample(pool, rng.randint(0, min(3, len(pool))))
    verdicts = (Verdict.SUSPECT_FAILED, Verdict.SUSPECT_CONGESTED)
    farm.deliver_digest(receiver, sender, {n: rng.choice(verdicts) for n in marked})


def test_admissions_match_the_table_join_reference(monkeypatch):
    admissions = record_admissions(monkeypatch)
    rng = random.Random(14)
    seen = set()
    for k in range(12):
        w = random_partitioned_world(rng, max_latency=1 + k % 3)  # low latencies tie often
        farm, nodes = w.farm, w.topology.node_ids()
        links = sorted(w.topology.links)
        w.allocate_slice(1, rng.sample(links, rng.randint(1, len(links))), 1, Priority.SILVER)
        w.allocate_slice(2, w.slices.get(1).links, 1, Priority.BRONZE)  # tenant 1's links
        gateways = sorted({n for a, b in links if farm.resolve(a) != farm.resolve(b)
                           for n in (a, b)})
        for _ in range(120):
            roll = rng.random()
            if roll < 0.15:
                random_digest(rng, farm, gateways if gateways and rng.random() < 0.5 else nodes)
                continue
            if roll < 0.2:
                farm.invalidate_caches()
                continue
            src = rng.choice(gateways if gateways and rng.random() < 0.3 else nodes)
            dst = src if roll > 0.95 else rng.choice(
                gateways if gateways and rng.random() < 0.3 else nodes)
            try:
                farm.cross_domain_path(src, dst, rng.randrange(3))
            except NoPathInSlice:
                pass
            seen.add((src == dst, farm.resolve(src) == farm.resolve(dst),
                      src in gateways or dst in gateways, admissions[-1].route is None))
    for a in admissions:
        assert (a.route, a.messages) == (a.expected_route, a.expected_messages), a.request
    assert {same for same, *_ in seen} == {True, False}  # origin == dest
    assert {same for _, same, _, _ in seen} == {True, False}  # same-domain pairs
    assert {gate for *_, gate, _ in seen} == {True, False}  # a gateway end
    assert {none for *_, none in seen} == {True, False}  # NoPathInSlice
    assert any(a.messages for a in admissions)


@pytest.mark.parametrize("seed", range(2, 7))
def test_federated_admission_routes_match_the_reference(monkeypatch, seed):
    admissions = record_admissions(monkeypatch)
    scenario = parse_scenario(generate("federated-admission", seed, 0))
    w = build_world(scenario)
    w.run(scenario.horizon)
    assert len(admissions) == len(scenario.flows)
    for a in admissions:
        assert (a.route, a.messages) == (a.expected_route, a.expected_messages), a.request


def golden_admission_world():
    """The golden federated-admission instance (seed 1, instance 0): 50
    admissions over a 10x10 grid in 5 band domains."""
    scenario = parse_scenario(generate("federated-admission", 1, 0))
    return build_world(scenario), scenario.horizon


def test_join_searches_pop_no_more_than_measured(monkeypatch):
    """The golden instance's 50 join searches, bounded by hop counts to the
    destination, pop 1,342 heap entries; unbounded, they popped 5,543."""
    joining, pops, searches = [False], [0], [0]
    heappop, search = heapq.heappop, multi_target_paths

    def counting_pop(heap):
        pops[0] += joining[0]
        return heappop(heap)

    def join_search(*args, **kwargs):
        joining[0] = True
        searches[0] += 1
        try:
            return search(*args, **kwargs)
        finally:
            joining[0] = False

    monkeypatch.setattr(heapq, "heappop", counting_pop)
    monkeypatch.setattr("sdcps.farm.multi_target_paths", join_search)
    w, horizon = golden_admission_world()
    w.run(horizon)
    assert searches[0] == 50
    assert 0 < pops[0] <= 1342


def test_a_controller_builds_each_slice_adjacency_once(monkeypatch):
    """The golden instance's searches read 5 (controller, slice links)
    adjacencies; rebuilt on every search miss, they took 131 builds."""
    w, horizon = golden_admission_world()
    owner = {id(c.domain_nodes): c.id for c in w.farm.controllers.values()}
    builds: dict[tuple, int] = {}
    adjacency = Topology.adjacency

    def counting(self, nodes, links=None, latency_fn=None):
        if id(nodes) in owner:
            key = (owner[id(nodes)], links)
            builds[key] = builds.get(key, 0) + 1
        return adjacency(self, nodes, links, latency_fn)

    monkeypatch.setattr(Topology, "adjacency", counting)
    w.run(horizon)
    assert len(builds) == 5 and set(builds.values()) == {1}


def test_memo_holds_one_search_per_source_and_one_join_graph_per_slice():
    rng = random.Random(7)
    w = farm_world(
        {0: [0, 1, 2], 1: [3, 4, 5], 2: [6, 7, 8]},
        [(0, 1), (1, 2), (0, 2, 3), (2, 3), (3, 4), (4, 5), (3, 5, 3), (5, 6), (6, 7),
         (7, 8), (6, 8, 3), (1, 4), (4, 7)],
    )
    w.allocate_slice(1, w.slices.get(0).links, 1, Priority.SILVER)
    farm, nodes = w.farm, w.topology.node_ids()
    sizes, changes = [], 0
    for k in range(30):  # a digest from a peer marks up to two of a domain's nodes
        ctrl = farm.controllers[k % 3]
        before = ctrl.domain_suspects()
        marked = rng.sample(sorted(ctrl.domain_nodes), rng.randint(0, 2))
        farm.deliver_digest(ctrl.id, (k + 1) % 3, dict.fromkeys(marked, Verdict.SUSPECT_FAILED))
        changes += ctrl.domain_suspects() != before
        for src in nodes:
            for dst in nodes:
                try:
                    farm.cross_domain_path(src, dst, rng.randrange(2))
                except NoPathInSlice:
                    pass
        sizes.append([len(c._searches) for c in farm.controllers.values()])
        assert len(farm._joins) == 1  # both tenants have the same links
        for ctrl in farm.controllers.values():
            for (_links, source), (suspects, _rows) in ctrl._searches.items():
                assert source in ctrl.domain_nodes and suspects == ctrl.domain_suspects()
    assert changes >= 20
    # a domain's largest node has no search: its segments are others' reversed
    assert sizes[-1] == sizes[0] == [2, 2, 2]


# -- westbound message counting -------------------------------------------------------
# A segment table fetched from a peer controller is a request plus its reply;
# a digest is one message per peer.

def test_digest_broadcast_counts_one_message_per_peer():
    w = farm_world(
        {0: [0, 1], 1: [2, 3], 2: [4, 5]},
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
    )
    before = w.farm.message_count
    w.farm.broadcast_health_digest(1, w.now)
    assert w.farm.message_count == before + 2


def test_cross_domain_path_counts_peer_tables_on_cache_miss_only():
    w = farm_world(
        {0: [0, 1], 1: [2, 3], 2: [4, 5]},
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
    )
    before = w.farm.message_count
    assert w.farm.cross_domain_path(0, 5, 0) == [0, 1, 2, 3, 4, 5]
    assert w.farm.message_count == before + 2 * 2  # tables of domains 1 and 2
    w.farm.cross_domain_path(0, 5, 0)
    assert w.farm.message_count == before + 4
    w.farm.invalidate_caches()
    w.farm.cross_domain_path(4, 0, 0)  # orchestrated by domain 2 this time
    assert w.farm.message_count == before + 8


def test_negative_unit_flow_is_rejected_before_any_table_fetch():
    w = farm_world({0: [0, 1], 1: [2, 3]}, [(0, 1), (1, 2), (2, 3)])
    w.schedule_flow(0, 0, 3, -3, 0)
    w.tick()
    [(pf, cause)] = w.rejected_flows
    assert (pf.units, cause) == (-3, "units must be >= 0")
    assert w.farm.message_count == 0 and w.engine.flows == {}


LINE3 = ({0: [0, 1], 1: [2, 3], 2: [4, 5]}, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])


def test_node_health_change_keeps_segment_tables():
    w = farm_world(*LINE3)
    w.farm.cross_domain_path(0, 5, 0)
    before = w.farm.message_count
    w.apply_health(3, Health.congested(3.0))
    assert w.farm.cross_domain_path(0, 5, 0) == [0, 1, 2, 3, 4, 5]
    assert w.farm.message_count == before


def test_tenant_with_same_slice_links_reuses_tables():
    w = farm_world(*LINE3)
    w.farm.cross_domain_path(0, 5, 0)
    before = w.farm.message_count
    w.allocate_slice(1, w.slices.get(0).links, 1, Priority.SILVER)
    assert w.farm.cross_domain_path(0, 5, 1) == [0, 1, 2, 3, 4, 5]
    assert w.farm.message_count == before


def test_slice_change_rerequests_only_that_slices_tables():
    domains, links = LINE3
    w = farm_world(domains, [*links, (2, 4)])  # the chord 2-4 is a second gateway
    w.allocate_slice(1, w.slices.get(0).links, 1, Priority.SILVER)
    assert w.farm.cross_domain_path(0, 5, 0) == [0, 1, 2, 4, 5]
    assert w.farm.cross_domain_path(0, 5, 1) == [0, 1, 2, 4, 5]
    before = w.farm.message_count
    w.allocate_slice(0, links, 1, Priority.GOLD)
    assert w.farm.cross_domain_path(0, 5, 0) == [0, 1, 2, 3, 4, 5]
    assert w.farm.message_count == before + 2 * 2  # tables of domains 1 and 2
    assert w.farm.cross_domain_path(0, 5, 1) == [0, 1, 2, 4, 5]
    assert w.farm.message_count == before + 4


def test_admission_without_slice_is_rejected_as_no_slice(event_lines):
    w = farm_world(*LINE3)
    w.schedule_flow(7, 0, 5, 2, 0)
    w.run(3)
    assert w.now == 3 and [p.tenant for p, _ in w.rejected_flows] == [7]
    assert "cause=NoSlice" in event_lines[w.log][0]


def two_domain_world_after_admission():
    text = (Path(__file__).parent / "fixtures" / "two_domains.json").read_text()
    w = build_world(parse_scenario(text))
    w.schedule_fault(6, 4, Health.failed())
    w.schedule_flow(0, 0, 3, 2, 8)
    w.run(3)
    assert any(c._searches for c in w.farm.controllers.values())
    return w


def test_twin_shares_segment_tables():
    w = two_domain_world_after_admission()
    twin = spawn_twin(w)
    for cid, ctrl in w.farm.controllers.items():
        memo = twin.farm.controllers[cid]._searches
        assert memo.keys() == ctrl._searches.keys()
        for key, (_suspects, rows) in ctrl._searches.items():
            assert memo[key][1] is rows


def test_twin_message_series_tracks_physical():
    w = two_domain_world_after_admission()
    twin = spawn_twin(w)
    snapshot = len(w.metrics)
    w.run(12)
    twin.run(12)
    assert [m.controller_messages for m in twin.metrics] == [
        m.controller_messages for m in w.metrics[snapshot:]
    ]
    assert twin.trace_hash() == w.trace_hash()


def test_twin_shares_pending_bus_messages():
    w = farm_world(*LINE3)
    fail_node(w, 1, 0, 0)
    w.farm.broadcast_health_digest(0, w.now)
    twin = spawn_twin(w)
    assert len(twin.bus._pending) == 2
    assert all(a is b for a, b in zip(twin.bus._pending, w.bus._pending))
    twin.tick()
    assert twin.farm.controllers[1].peer_views == {0: {1: Verdict.SUSPECT_FAILED}}
    assert w.farm.controllers[1].peer_views == {}
    w.tick()
    assert w.farm.controllers[1].peer_views == {0: {1: Verdict.SUSPECT_FAILED}}


# -- health digests ----------------------------------------------------------------------

def fail_node(w, node, reporter, domain):
    """Feed the reporter's controller enough LOSS reports to escalate."""
    ctrl = w.farm.controllers[domain]
    for _ in range(3):
        ctrl.ingest_report(((reporter, ((node, LOSS),)),))


def test_receive_hands_each_controller_its_digests_then_its_reports(monkeypatch):
    w = farm_world(*LINE3)
    calls = []
    receive_digest, ingest_report = Controller.receive_digest, Controller.ingest_report

    def recording_digest(self, peer, estimates):
        calls.append((self.id, "digest", peer))
        return receive_digest(self, peer, estimates)

    def recording_report(self, entries):
        calls.append((self.id, "reports", entries))
        return ingest_report(self, entries)

    monkeypatch.setattr(Controller, "receive_digest", recording_digest)
    monkeypatch.setattr(Controller, "ingest_report", recording_report)
    for cid in (2, 0, 1):
        w.farm.send_reports(cid, ((2 * cid, ()),), w.now)
        w.farm.broadcast_health_digest(cid, w.now)
    assert w.farm.receive(w.bus.deliver_up_to(w.now + 1)) == []
    # controllers in id order; each takes its digests in publish order
    assert calls == [
        (0, "digest", 2), (0, "digest", 1), (0, "reports", ((0, ()),)),
        (1, "digest", 2), (1, "digest", 0), (1, "reports", ((2, ()),)),
        (2, "digest", 0), (2, "digest", 1), (2, "reports", ((4, ()),)),
    ]


def test_digest_propagates_within_period():
    w = farm_world({0: [0, 1], 1: [2, 3]}, [(0, 1), (1, 2), (2, 3)])
    w.schedule_fault(1, 1, __import__("sdcps").Health.failed())
    w.run(2 + 3 + 5 + 1)  # fault, detection window, digest period, delivery
    view_b = w.farm.controllers[1].merged_view()
    assert view_b.get(1) is Verdict.SUSPECT_FAILED


def test_empty_digests_leave_views_empty():
    w = farm_world({0: [0, 1], 1: [2, 3]}, [(0, 1), (1, 2), (2, 3)])
    w.run(11)
    for ctrl in w.farm.controllers.values():
        assert ctrl.merged_view() == {}


def test_conflicting_verdicts_most_severe_wins():
    w = farm_world({0: [0, 1], 1: [2, 3]}, [(0, 1), (1, 2), (2, 3)])
    a, b = w.farm.controllers[0], w.farm.controllers[1]
    for _ in range(3):
        a.ingest_report(((1, ((2, 9),)),))  # high latency
        b.ingest_report(((3, ((2, LOSS),)),))
    assert a.merged_view()[2] is Verdict.SUSPECT_CONGESTED
    w.farm.broadcast_health_digest(0, w.now)
    w.farm.broadcast_health_digest(1, w.now)
    w.run(1)  # digests ride the bus to the next tick
    assert a.merged_view()[2] is Verdict.SUSPECT_FAILED
    assert b.merged_view()[2] is Verdict.SUSPECT_FAILED


def test_views_converge_one_period_after_quiescence():
    w = farm_world(
        {0: [0, 1], 1: [2, 3], 2: [4, 5]},
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
    )
    w.schedule_fault(1, 3, __import__("sdcps").Health.failed())
    w.run(20)
    views = [w.farm.controllers[c].merged_view() for c in sorted(w.farm.controllers)]
    assert all(v == views[0] for v in views)
    assert views[0].get(3) is Verdict.SUSPECT_FAILED
