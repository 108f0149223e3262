import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdcps import (
    Controller,
    DataStore,
    HealthMonitor,
    Priority,
    SliceTable,
    SouthboundReport,
    Verdict,
    qos_schedule,
)
from sdcps.controller import LOSS, merge_verdicts
from sdcps.errors import (
    AccessDenied,
    EmptyPath,
    NoPathInSlice,
    NoSlice,
    NotFound,
    Oversubscribed,
    StaleReport,
    UnknownLink,
    UnknownNode,
)

from conftest import build_topology


def make_controller(topo, nodes=None, window=3):
    slices = SliceTable(topo)
    ctrl = Controller(
        0, frozenset(nodes if nodes is not None else topo.nodes), topo, slices,
        window=window,
    )
    return ctrl, slices


# -- slice allocation ------------------------------------------------------------

def test_two_tenants_fit_on_capacity_two():
    topo = build_topology(2, [(0, 1, 1, 2)])
    table = SliceTable(topo)
    table.allocate(0, [(0, 1)], 1, Priority.GOLD)
    table.allocate(1, [(0, 1)], 1, Priority.SILVER)
    assert table.share_on(0, (0, 1)) == 1
    assert table.share_on(1, (0, 1)) == 1


def test_third_tenant_oversubscribes():
    topo = build_topology(2, [(0, 1, 1, 2)])
    table = SliceTable(topo)
    table.allocate(0, [(0, 1)], 1, Priority.GOLD)
    table.allocate(1, [(0, 1)], 1, Priority.GOLD)
    with pytest.raises(Oversubscribed) as err:
        table.allocate(2, [(0, 1)], 1, Priority.GOLD)
    assert err.value.link == (0, 1)


def test_empty_slice_is_valid():
    topo = build_topology(2, [(0, 1)])
    table = SliceTable(topo)
    sl = table.allocate(0, [], 1, Priority.BRONZE)
    assert sl.links == frozenset()


def test_slice_unknown_link():
    topo = build_topology(2, [(0, 1)])
    table = SliceTable(topo)
    with pytest.raises(UnknownLink):
        table.allocate(0, [(0, 5)], 1, Priority.GOLD)


# -- data store ---------------------------------------------------------------------

def test_store_roundtrip():
    store = DataStore()
    store.put(0, ["cfg", "policy"], b"allow")
    assert store.get(0, ["cfg", "policy"], as_tenant=0) == b"allow"


def test_store_last_write_wins():
    store = DataStore()
    store.put(0, ["k"], b"one")
    store.put(0, ["k"], b"two")
    assert store.get(0, ["k"], as_tenant=0) == b"two"


def test_store_namespaces_are_independent():
    store = DataStore()
    store.put(0, ["shared", "key"], b"mine")
    store.put(1, ["shared", "key"], b"yours")
    assert store.get(0, ["shared", "key"], as_tenant=0) == b"mine"
    assert store.get(1, ["shared", "key"], as_tenant=1) == b"yours"


def test_store_empty_path_rejected():
    store = DataStore()
    with pytest.raises(EmptyPath):
        store.put(0, [], b"x")


def test_store_cross_tenant_denied_without_grant():
    store = DataStore()
    store.put(0, ["k"], b"v")
    with pytest.raises(AccessDenied):
        store.get(0, ["k"], as_tenant=1)


def test_store_peer_controller_with_grant():
    store = DataStore()
    store.put(3, ["k"], b"v")
    store.grant(3, 9)
    assert store.get(3, ["k"], as_controller=9) == b"v"
    with pytest.raises(AccessDenied):
        store.get(3, ["k"], as_controller=8)


def test_store_missing_entry():
    store = DataStore()
    with pytest.raises(NotFound):
        store.get(0, ["missing"], as_tenant=0)


@given(
    grants=st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12),
    owner=st.integers(0, 4),
    reader_tenant=st.integers(0, 4),
    reader_ctrl=st.integers(0, 4),
)
def test_store_grant_table_property(grants, owner, reader_tenant, reader_ctrl):
    store = DataStore()
    store.put(owner, ["p"], b"v")
    for g_owner, g_reader in grants:
        store.grant(g_owner, g_reader)
    # tenant access: only the owner itself
    if reader_tenant == owner:
        assert store.get(owner, ["p"], as_tenant=reader_tenant) == b"v"
    else:
        with pytest.raises(AccessDenied):
            store.get(owner, ["p"], as_tenant=reader_tenant)
    # controller access: exactly the granted pairs
    if (owner, reader_ctrl) in grants:
        assert store.get(owner, ["p"], as_controller=reader_ctrl) == b"v"
    else:
        with pytest.raises(AccessDenied):
            store.get(owner, ["p"], as_controller=reader_ctrl)


# -- health windows --------------------------------------------------------------------

def loss_report(reporter, tick, about):
    return SouthboundReport(reporter, tick, ((about, LOSS),))


def clean_report(reporter, tick, about, latency=1):
    return SouthboundReport(reporter, tick, ((about, latency),))


def test_three_losses_escalate():
    topo = build_topology(2, [(0, 1)])
    mon = HealthMonitor(topo)
    out = []
    for t in range(1, 4):
        out += mon.ingest(loss_report(0, t, 1))
    assert [(e.node, e.verdict) for e in out] == [(1, Verdict.SUSPECT_FAILED)]


def test_clean_report_resets_window():
    topo = build_topology(2, [(0, 1)])
    mon = HealthMonitor(topo)
    seq = [LOSS, LOSS, 1, LOSS, LOSS]
    out = []
    for t, obs in enumerate(seq, start=1):
        out += mon.ingest(SouthboundReport(0, t, ((1, obs),)))
    assert out == []
    assert mon.estimates() == {}


def test_unknown_reporter_and_neighbor():
    topo = build_topology(2, [(0, 1)])
    mon = HealthMonitor(topo)
    with pytest.raises(UnknownNode):
        mon.ingest(loss_report(5, 1, 1))
    with pytest.raises(UnknownNode):
        mon.ingest(loss_report(0, 1, 5))


def test_stale_report_rejected():
    topo = build_topology(2, [(0, 1)])
    mon = HealthMonitor(topo)
    mon.ingest(loss_report(0, 5, 1))
    with pytest.raises(StaleReport):
        mon.ingest(loss_report(0, 5, 1))
    with pytest.raises(StaleReport):
        mon.ingest(loss_report(0, 3, 1))


def test_congestion_detection_threshold_is_strict():
    topo = build_topology(2, [(0, 1, 2)])  # nominal latency 2
    mon = HealthMonitor(topo)
    for t in range(1, 4):
        mon.ingest(clean_report(0, t, 1, latency=4))  # exactly 2x: not over
    assert mon.estimates() == {}
    mon2 = HealthMonitor(topo)
    out = []
    for t in range(1, 4):
        out += mon2.ingest(clean_report(0, t, 1, latency=5))
    assert [(e.node, e.verdict) for e in out] == [(1, Verdict.SUSPECT_CONGESTED)]


def window_oracle(observations, w=3, threshold=2.0, nominal=1):
    """Brute-force replay: final verdict after a list of observations."""
    verdict = Verdict.HEALTHY
    loss = congested = clean = 0
    for obs in observations:
        if obs == LOSS:
            loss, congested, clean = loss + 1, 0, 0
        elif obs > threshold * nominal:
            loss, congested, clean = 0, congested + 1, 0
        else:
            loss, congested, clean = 0, 0, clean + 1
        if loss >= w:
            verdict = Verdict.SUSPECT_FAILED
        elif congested >= w:
            verdict = Verdict.SUSPECT_CONGESTED
        elif clean >= w:
            verdict = Verdict.HEALTHY
    return verdict


@given(
    st.lists(st.sampled_from([LOSS, 1, 2, 3, 9]), min_size=0, max_size=24),
)
@settings(max_examples=200)
def test_window_automaton_matches_replay_oracle(observations):
    topo = build_topology(2, [(0, 1)])
    mon = HealthMonitor(topo)
    for t, obs in enumerate(observations, start=1):
        mon.ingest(SouthboundReport(0, t, ((1, obs),)))
    got = mon.estimates().get(1, Verdict.HEALTHY)
    assert got == window_oracle(observations)


def test_escalation_exactly_at_wth_report():
    """Never earlier than the w-th consecutive corroboration."""
    topo = build_topology(2, [(0, 1)])
    for w in (2, 3, 4):
        mon = HealthMonitor(topo, window=w)
        for t in range(1, w):
            mon.ingest(loss_report(0, t, 1))
            assert mon.estimates() == {}
        out = mon.ingest(loss_report(0, w, 1))
        assert [e.verdict for e in out] == [Verdict.SUSPECT_FAILED]


def test_merge_verdicts_most_severe_wins():
    merged = merge_verdicts([
        {5: Verdict.SUSPECT_CONGESTED},
        {5: Verdict.SUSPECT_FAILED, 6: Verdict.SUSPECT_CONGESTED},
        {6: Verdict.HEALTHY},
    ])
    assert merged == {5: Verdict.SUSPECT_FAILED, 6: Verdict.SUSPECT_CONGESTED}


# -- admit_flow -----------------------------------------------------------------------

def test_admit_flow_on_line_slice():
    topo = build_topology(3, [(0, 1), (1, 2)])
    ctrl, slices = make_controller(topo)
    slices.allocate(0, [(0, 1), (1, 2)], 1, Priority.GOLD)
    assert ctrl.admit_flow(0, 0, 2, 4) == [0, 1, 2]


def test_admit_flow_requires_slice():
    topo = build_topology(3, [(0, 1), (1, 2)])
    ctrl, _ = make_controller(topo)
    with pytest.raises(NoSlice):
        ctrl.admit_flow(0, 0, 2, 1)


def test_admit_flow_dest_outside_slice():
    topo = build_topology(3, [(0, 1), (1, 2)])
    ctrl, slices = make_controller(topo)
    slices.allocate(0, [(0, 1)], 1, Priority.GOLD)
    with pytest.raises(NoPathInSlice):
        ctrl.admit_flow(0, 0, 2, 1)


def segment_case(seed):
    """Random small graph (latencies 1-3, so ties occur), a domain, a slice,
    terminals and suspects; suspects are drawn over all nodes, so some are
    terminals."""
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    links = [
        (a, b, rng.randint(1, 3))
        for a in range(n) for b in range(a + 1, n) if rng.random() < 0.45
    ]
    rng.shuffle(links)  # adjacency order must not matter
    domain = {v for v in range(n) if rng.random() < 0.85} or {0}
    sliced = [(a, b) for a, b, _ in links if rng.random() < 0.9]
    terminals = [v for v in range(n) if rng.random() < 0.6]
    suspects = {v for v in range(n) if rng.random() < 0.25}
    return n, links, domain, sliced, terminals, suspects


@given(st.integers(0, 2**32))
@settings(max_examples=300)
def test_segment_table_matches_pairwise_oracle(seed):
    n, links, domain, sliced, terminals, suspects = segment_case(seed)
    topo = build_topology(n, links)
    ctrl, slices = make_controller(topo, nodes=domain)
    slices.allocate(0, sliced, 1, Priority.GOLD)
    ctrl.receive_digest(1, {s: Verdict.SUSPECT_FAILED for s in suspects})
    sl = slices.get(0)

    def in_slice(link):
        return sl.covers(link.endpoints) and set(link.endpoints) <= domain

    expected = {}
    terms = sorted(set(terminals) & domain)
    for i, u in enumerate(terms):
        for v in terms[i + 1:]:
            found = topo.shortest_path(
                u, v, link_filter=in_slice, exclude_nodes=suspects - {u, v}
            )
            if found is not None:
                expected[(u, v)] = found
                expected[(v, u)] = (found[0], list(reversed(found[1])))
    assert list(ctrl.segment_table(0, terminals).items()) == list(expected.items())


def test_ingest_report_about_non_neighbour_raises_unknown_link():
    topo = build_topology(3, [(0, 1)])
    mon = HealthMonitor(topo)
    with pytest.raises(UnknownLink):
        mon.ingest(loss_report(0, 1, 2))


def test_admit_flow_routes_around_suspect():
    topo = build_topology(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    ctrl, slices = make_controller(topo)
    slices.allocate(0, [(0, 1), (1, 3), (0, 2), (2, 3)], 1, Priority.GOLD)
    assert ctrl.admit_flow(0, 0, 3, 1) == [0, 1, 3]
    for t in range(1, 4):
        ctrl.ingest_report(loss_report(0, t, 1))
    assert ctrl.admit_flow(0, 0, 3, 1) == [0, 2, 3]


# -- qos discipline --------------------------------------------------------------------

def test_qos_single_tenant_clamped_to_share():
    assert qos_schedule(2, [(0, Priority.GOLD, 2, 5)]) == {0: 2}


def test_qos_priority_fill_after_guarantees():
    grants = qos_schedule(4, [
        (0, Priority.GOLD, 1, 3),
        (1, Priority.BRONZE, 1, 3),
    ])
    assert grants == {0: 3, 1: 1}


def test_qos_no_pending_traffic():
    grants = qos_schedule(4, [(0, Priority.GOLD, 2, 0), (1, Priority.SILVER, 1, 0)])
    assert grants == {0: 0, 1: 0}


def test_qos_round_robin_within_class():
    grants = qos_schedule(5, [
        (0, Priority.GOLD, 1, 4),
        (1, Priority.GOLD, 1, 4),
    ])
    # guarantees 1+1, fill alternates 0,1,0 for the remaining 3
    assert grants == {0: 3, 1: 2}


@given(
    capacity=st.integers(1, 12),
    requests=st.lists(
        st.tuples(
            st.sampled_from(list(Priority)),
            st.integers(0, 4),
            st.integers(0, 15),
        ),
        min_size=1,
        max_size=5,
    ),
)
@settings(max_examples=300)
def test_qos_isolation_property(capacity, requests):
    reqs = [(i, prio, share, pending) for i, (prio, share, pending) in enumerate(requests)]
    # cap shares so the guarantee is actually promisable, as slice_allocate does
    total_share = sum(r[2] for r in reqs)
    if total_share > capacity:
        scale = capacity / total_share
        reqs = [(t, p, int(s * scale), pend) for t, p, s, pend in reqs]
    grants = qos_schedule(capacity, reqs)
    assert sum(grants.values()) <= capacity
    for tenant, _prio, share, pending in reqs:
        assert grants[tenant] >= min(pending, share)
        assert grants[tenant] <= pending
