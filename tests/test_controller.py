import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdcps import (
    Bus,
    Controller,
    Farm,
    HealthMonitor,
    Priority,
    SliceTable,
    Verdict,
    qos_schedule,
)
from sdcps.controller import LOSS, HealthEstimate, merge_verdicts
from sdcps.errors import (
    BadParameter,
    NoSlice,
    Oversubscribed,
    UnknownLink,
    UnknownNode,
)

from conftest import ReferenceHealthMonitor, build_topology, reference_shortest_path


def make_controller(topo, nodes=None, window=3):
    """A controller of nodes (every node when None) and an empty slice
    table whose slices' links the tests hand it."""
    ctrl = Controller(
        0, frozenset(nodes if nodes is not None else topo.nodes), topo, window=window,
    )
    return ctrl, SliceTable(topo)


# -- slice allocation ------------------------------------------------------------

def test_two_tenants_fit_on_capacity_two():
    topo = build_topology(2, [(0, 1, 1, 2)])
    table = SliceTable(topo)
    table.allocate(0, [(0, 1)], 1, Priority.GOLD)
    table.allocate(1, [(0, 1)], 1, Priority.SILVER)
    for tenant in (0, 1):
        assert (0, 1) in table.get(tenant).links
        assert table.get(tenant).share == 1


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


def test_slice_negative_share_rejected():
    topo = build_topology(2, [(0, 1)])
    table = SliceTable(topo)
    with pytest.raises(BadParameter):
        table.allocate(0, [(0, 1)], -1, Priority.GOLD)
    assert table.slices == {}


def test_slice_unknown_link():
    topo = build_topology(2, [(0, 1)])
    table = SliceTable(topo)
    with pytest.raises(UnknownLink):
        table.allocate(0, [(0, 5)], 1, Priority.GOLD)


# -- health windows --------------------------------------------------------------------

def loss_report(reporter, about):
    """A one-entry report: the reporter lost its probe of `about`."""
    return ((reporter, ((about, LOSS),)),)


def clean_report(reporter, about, latency=1):
    return ((reporter, ((about, latency),)),)


def test_three_losses_escalate():
    topo = build_topology(2, [(0, 1)])
    mon = HealthMonitor(topo)
    out = []
    for _ in range(3):
        out += mon.ingest(loss_report(0, 1))
    assert [(e.node, e.verdict) for e in out] == [(1, Verdict.SUSPECT_FAILED)]


def test_clean_report_resets_window():
    topo = build_topology(2, [(0, 1)])
    mon = HealthMonitor(topo)
    seq = [LOSS, LOSS, 1, LOSS, LOSS]
    out = []
    for obs in seq:
        out += mon.ingest(((0, ((1, obs),)),))
    assert out == []
    assert mon.estimates() == {}


def test_unknown_reporter_and_neighbor():
    topo = build_topology(2, [(0, 1)])
    mon = HealthMonitor(topo)
    with pytest.raises(UnknownNode):
        mon.ingest(loss_report(5, 1))
    with pytest.raises(UnknownNode):
        mon.ingest(loss_report(0, 5))


def test_congestion_detection_threshold_is_strict():
    topo = build_topology(2, [(0, 1, 2)])  # nominal latency 2
    mon = HealthMonitor(topo)
    for _ in range(3):
        mon.ingest(clean_report(0, 1, latency=4))  # exactly 2x: not over
    assert mon.estimates() == {}
    mon2 = HealthMonitor(topo)
    out = []
    for _ in range(3):
        out += mon2.ingest(clean_report(0, 1, latency=5))
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
    for obs in observations:
        mon.ingest(((0, ((1, obs),)),))
    got = mon.estimates().get(1, Verdict.HEALTHY)
    assert got == window_oracle(observations)


def test_escalation_exactly_at_wth_report():
    """Never earlier than the w-th consecutive corroboration."""
    topo = build_topology(2, [(0, 1)])
    for w in (2, 3, 4):
        mon = HealthMonitor(topo, window=w)
        for _ in range(1, w):
            mon.ingest(loss_report(0, 1))
            assert mon.estimates() == {}
        out = mon.ingest(loss_report(0, 1))
        assert [e.verdict for e in out] == [Verdict.SUSPECT_FAILED]


# five nodes with nominal latencies 1-3; every reporter shares a neighbour
# with another
SHARED_NEIGHBOURS = [(0, 1, 1), (0, 2, 2), (1, 2, 1), (1, 3, 2), (2, 3, 3), (3, 4, 1), (0, 4, 2)]
# loss, and latencies on both sides of and at threshold x nominal
OBSERVATIONS = [LOSS, 1, 2, 3, 4, 5, 6, 7, 8]


REPORT_STEPS = st.lists(
    st.tuples(
        st.integers(0, 4),  # reporter
        st.sampled_from([True, True, False]),  # repeat its last observations verbatim
        st.booleans(),  # replay the report at once: skipped if it wrote nothing
        st.lists(st.sampled_from(OBSERVATIONS), min_size=3, max_size=3),  # one per neighbour
    ),
    max_size=60,
)


@given(st.integers(1, 4), st.sampled_from([1.0, 1.5, 2.0, 2.5]), REPORT_STEPS)
@settings(max_examples=500, deadline=None)
def test_capped_skipping_monitor_matches_the_reference(window, threshold, steps):
    topo = build_topology(5, SHARED_NEIGHBOURS)
    mon = HealthMonitor(topo, window, threshold)
    ref = ReferenceHealthMonitor(topo, window, threshold)
    last = {}
    for reporter, repeat, replay, values in steps:
        if not (repeat and reporter in last):
            last[reporter] = tuple(zip(topo.neighbors(reporter), values))
        report = ((reporter, last[reporter]),)
        for _ in range(1 + replay):
            assert mon.ingest(report) == ref.ingest(report)
            assert mon.estimates() == ref.estimates()


BATCHES = st.lists(
    st.tuples(
        st.sampled_from(["batch", "repeat", "repeat", "single"]),  # repeat: the last batch again
        st.integers(1, 5),  # how many REPORT_STEPS a new batch takes
    ),
    max_size=40,
)


@given(st.integers(1, 4), st.sampled_from([1.0, 1.5, 2.0, 2.5]), REPORT_STEPS, BATCHES)
@settings(max_examples=500, deadline=None)
def test_a_batch_ingests_what_its_reports_ingest_one_at_a_time(window, threshold, steps, kinds):
    """Batches of (reporter, observations) pairs, repeats included, with
    single reports in between."""
    topo = build_topology(5, SHARED_NEIGHBOURS)
    mon = HealthMonitor(topo, window, threshold)
    ref = ReferenceHealthMonitor(topo, window, threshold)
    last, entries = {}, ()
    for kind, size in kinds:
        take = 1 if kind == "single" else size
        group, steps = steps[:take], steps[take:]
        for reporter, repeat, _replay, values in group:
            if not (repeat and reporter in last):
                last[reporter] = tuple(zip(topo.neighbors(reporter), values))
        if kind == "single" and group:
            report = ((group[0][0], last[group[0][0]]),)
            assert mon.ingest(report) == ref.ingest(report)
        else:
            if kind == "batch" or not entries:
                entries = tuple(sorted({step[0]: last[step[0]] for step in group}.items()))
            expected = []
            for entry in entries:
                expected += ref.ingest((entry,))
            assert mon.ingest(entries) == expected
        assert mon.estimates() == ref.estimates()


def test_a_repeated_quiet_report_is_skipped_until_a_write(monkeypatch):
    topo = build_topology(3, [(0, 1), (1, 2)])
    mon = HealthMonitor(topo)
    report = ((1, ((0, LOSS), (2, 1))),)
    for _ in range(4):
        mon.ingest(report)
    assert mon.estimates() == {0: Verdict.SUSPECT_FAILED}
    observed = []
    observe = HealthMonitor._observe

    def recording_observe(self, *args):
        observed.append(args)
        return observe(self, *args)

    monkeypatch.setattr(HealthMonitor, "_observe", recording_observe)
    # the fourth report wrote nothing, so its repeat is skipped whole
    assert mon.ingest(report) == []
    assert observed == []
    mon.ingest(((0, ((1, 1),)),))  # writes node 1's window
    assert mon.ingest(report) == []
    assert mon.estimates() == {0: Verdict.SUSPECT_FAILED}
    assert len(observed) == 3


def test_a_repeated_quiet_batch_is_skipped_until_a_write(monkeypatch):
    topo = build_topology(3, [(0, 1), (1, 2)])
    mon = HealthMonitor(topo, window=1)
    batch = ((0, ((1, LOSS),)), (2, ((1, LOSS),)))
    assert mon.ingest(batch) == [HealthEstimate(1, Verdict.SUSPECT_FAILED)]
    assert mon.ingest(batch) == []  # wrote nothing: remembered
    ingested = []
    ingest = HealthMonitor._ingest

    def recording_ingest(self, reporter, *args):
        ingested.append(reporter)
        return ingest(self, reporter, *args)

    monkeypatch.setattr(HealthMonitor, "_ingest", recording_ingest)
    assert mon.ingest(batch) == []
    assert ingested == []
    # another quiet report is the one remembered now, so the batch runs again
    assert mon.ingest(((0, ((1, LOSS),)),)) == []
    assert mon.ingest(batch) == []
    assert ingested == [0, 0, 2]
    # a write: node 1 clears, and the batch must set it again
    assert mon.ingest(((0, ((1, 1),)),)) == [HealthEstimate(1, Verdict.HEALTHY)]
    assert mon.ingest(batch) == [HealthEstimate(1, Verdict.SUSPECT_FAILED)]


def test_a_report_that_raises_part_way_forgets_the_quiet_report():
    topo = build_topology(3, [(0, 1), (1, 2)])
    mon = HealthMonitor(topo, window=1)
    quiet = loss_report(0, 1)
    assert mon.ingest(quiet) == [HealthEstimate(1, Verdict.SUSPECT_FAILED)]
    assert mon.ingest(quiet) == []  # wrote nothing: remembered
    with pytest.raises(UnknownLink):  # clears node 1, then reports on a non-neighbour
        mon.ingest(((2, ((1, 1),)), (0, ((2, LOSS),))))
    assert mon.ingest(quiet) == [HealthEstimate(1, Verdict.SUSPECT_FAILED)]


def test_merge_verdicts_most_severe_wins():
    merged = merge_verdicts([
        {5: Verdict.SUSPECT_CONGESTED},
        {5: Verdict.SUSPECT_FAILED, 6: Verdict.SUSPECT_CONGESTED},
        {6: Verdict.HEALTHY},
    ])
    assert merged == {5: Verdict.SUSPECT_FAILED, 6: Verdict.SUSPECT_CONGESTED}


# -- admission segments ----------------------------------------------------------------

def test_admit_flow_on_line_slice():
    topo = build_topology(3, [(0, 1), (1, 2)])
    ctrl, slices = make_controller(topo)
    sl = slices.allocate(0, [(0, 1), (1, 2)], 1, Priority.GOLD)
    assert ctrl.segment_table(sl.links, [0, 2]) == {
        (0, 2): (2, 2, (0, 1, 2)), (2, 0): (2, 2, (2, 1, 0))
    }


def test_admit_flow_requires_slice():
    """Controllers are handed links; the farm resolves an admission's
    tenant to its slice and rejects a tenant with none."""
    topo = build_topology(3, [(0, 1), (1, 2)])
    farm = Farm(topo, SliceTable(topo), Bus())
    farm.register_domain(0, topo.nodes)
    with pytest.raises(NoSlice):
        farm.cross_domain_path(0, 2, 0)


def test_admit_flow_dest_outside_slice():
    topo = build_topology(3, [(0, 1), (1, 2)])
    ctrl, slices = make_controller(topo)
    sl = slices.allocate(0, [(0, 1)], 1, Priority.GOLD)
    assert ctrl.segment_table(sl.links, [0, 2]) == {}


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
        return link.endpoints in sl.links and set(link.endpoints) <= domain

    expected = {}
    terms = sorted(set(terminals) & domain)
    for i, u in enumerate(terms):
        for v in terms[i + 1:]:
            found = reference_shortest_path(
                topo, u, v, link_filter=in_slice, exclude_nodes=suspects - {u, v}
            )
            if found is not None:
                dist, path = found
                expected[(u, v)] = (dist, len(path) - 1, tuple(path))
                expected[(v, u)] = (dist, len(path) - 1, tuple(reversed(path)))
    assert list(ctrl.segment_table(sl.links, terminals).items()) == list(expected.items())


def test_ingest_report_about_non_neighbour_raises_unknown_link():
    topo = build_topology(3, [(0, 1)])
    mon = HealthMonitor(topo)
    with pytest.raises(UnknownLink):
        mon.ingest(loss_report(0, 2))


def test_admit_flow_routes_around_suspect():
    topo = build_topology(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    ctrl, slices = make_controller(topo)
    sl = slices.allocate(0, [(0, 1), (1, 3), (0, 2), (2, 3)], 1, Priority.GOLD)
    assert ctrl.segment_table(sl.links, [0, 3])[(0, 3)] == (2, 2, (0, 1, 3))
    for _ in range(3):
        ctrl.ingest_report(loss_report(0, 1))
    assert ctrl.segment_table(sl.links, [0, 3])[(0, 3)] == (2, 2, (0, 2, 3))


def test_merged_view_and_suspects_are_kept_until_a_digest_or_a_transition():
    topo = build_topology(4, [(0, 1), (1, 2), (2, 3)])
    ctrl, _ = make_controller(topo)
    view, suspects = ctrl.merged_view(), ctrl.suspect_failed()
    assert view == {} and suspects == frozenset()
    view[1] = Verdict.SUSPECT_FAILED  # a copy: the caller's to change
    assert ctrl.merged_view() == {} and ctrl.suspect_failed() is suspects
    ctrl.ingest_report(clean_report(0, 1))  # no transition keeps both
    assert ctrl.suspect_failed() is suspects
    for _ in range(3):
        ctrl.ingest_report(loss_report(0, 1))
    assert ctrl.suspect_failed() == {1} and ctrl.merged_view() == {1: Verdict.SUSPECT_FAILED}
    ctrl.receive_digest(7, {3: Verdict.SUSPECT_FAILED, 2: Verdict.SUSPECT_CONGESTED})
    assert ctrl.suspect_failed() == {1, 3} and ctrl.domain_suspects() == {1, 3}
    assert ctrl.merged_view() == {
        1: Verdict.SUSPECT_FAILED, 2: Verdict.SUSPECT_CONGESTED, 3: Verdict.SUSPECT_FAILED}
    for _ in range(3):
        ctrl.ingest_report(clean_report(0, 1))
    assert ctrl.suspect_failed() == {3}
    ctrl.receive_digest(7, {})
    assert ctrl.merged_view() == {} and ctrl.suspect_failed() == frozenset()


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
    # cap shares so the guarantee is actually promisable, as SliceTable.allocate does
    total_share = sum(r[2] for r in reqs)
    if total_share > capacity:
        scale = capacity / total_share
        reqs = [(t, p, int(s * scale), pend) for t, p, s, pend in reqs]
    grants = qos_schedule(capacity, reqs)
    assert sum(grants.values()) <= capacity
    for tenant, _prio, share, pending in reqs:
        assert grants[tenant] >= min(pending, share)
        assert grants[tenant] <= pending
