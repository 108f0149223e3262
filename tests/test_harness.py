import argparse
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdcps import Bus, build_world, parse_scenario, run_scenario
from sdcps.cli import build_parser, main as cli_main
from sdcps.composition import MAX_SWEEP_INSTANCES, MAX_SWEEP_POINTS, MAX_SWEEP_TASKS
from sdcps.errors import DuplicateId, ScenarioSyntaxError, ScenarioValidationError, SdcpsError

FIXTURES = Path(__file__).parent / "fixtures"


def load(name):
    return parse_scenario((FIXTURES / name).read_text())


def all_fixture_names():
    return sorted(p.name for p in FIXTURES.glob("*.json"))


# -- bus ---------------------------------------------------------------------------

def test_bus_per_publisher_fifo():
    bus = Bus()
    bus.subscribe("a/topic")
    for i in range(3):
        bus.publish("a/topic", f"m{i}", tick=0)
    assert [m.payload for m in bus.deliver_up_to(1)] == ["m0", "m1", "m2"]


def test_bus_tick_order_dominates():
    bus = Bus()
    bus.subscribe("t")
    bus.publish("t", "second", tick=1)
    bus.publish("t", "first", tick=0)
    assert [m.payload for m in bus.deliver_up_to(2)] == ["first", "second"]


def test_bus_no_subscriber_drops_and_counts():
    bus = Bus()
    bus.publish("lonely", "x", tick=0)
    bus.deliver_up_to(1)
    assert bus.dropped_no_subscriber == 1


def test_bus_delivers_by_exact_topic():
    bus = Bus()
    bus.subscribe("south")
    bus.subscribe("south/*")
    bus.publish("south/0/reports", "a", tick=0)
    assert bus.deliver_up_to(1) == []
    assert bus.dropped_no_subscriber == 1


def test_bus_refuses_a_second_subscriber_of_a_topic():
    bus = Bus()
    bus.subscribe("t")
    with pytest.raises(DuplicateId):
        bus.subscribe("t")
    assert bus.topics == {"t"}
    bus.publish("t", "m1", tick=1)
    bus.publish("t", "m0", tick=0)
    delivered = bus.deliver_up_to(2) + bus.deliver_up_to(3)
    assert [m.payload for m in delivered] == ["m0", "m1"]
    assert bus.dropped_no_subscriber == 0


def test_bus_at_most_once_per_subscriber():
    bus = Bus()
    bus.subscribe("t")
    bus.publish("t", "once", tick=0)
    assert len(bus.deliver_up_to(1) + bus.deliver_up_to(2)) == 1


BUS_TOPICS = ("a", "b", "c", "d")
BUS_STEPS = st.lists(st.one_of(
    st.tuples(st.just("publish"), st.sampled_from(BUS_TOPICS), st.integers(0, 8)),  # topic, tick
    st.tuples(st.just("deliver"), st.integers(1, 3)),  # how far the delivery tick moves
), max_size=40)


@given(st.frozensets(st.sampled_from(BUS_TOPICS)), BUS_STEPS, st.integers(0, 40))
@settings(max_examples=300, deadline=None)
def test_bus_delivers_each_subscribed_message_once_in_order(subscribed, steps, fork_at):
    """Across increasing delivery ticks, each message on a subscribed topic
    comes back exactly once, after its tick, each call in tick order and,
    within a tick, in publish order; the rest count as dropped. A fork taken between calls, then given the same
    calls, returns what the original returns."""
    bus, twin, now = Bus(), None, 0
    for topic in sorted(subscribed):
        bus.subscribe(topic)
    sent, got = [], []
    for i, step in enumerate(steps + [("deliver", 100)]):  # the last call delivers everything
        if i == fork_at:
            twin = bus.fork()
        if step[0] == "publish":
            _, topic, tick = step
            sent.append(bus.publish(topic, i, tick))  # the payload counts publishes
            if twin is not None:
                twin.publish(topic, i, tick)
            continue
        now += step[1]
        delivered = bus.deliver_up_to(now)
        keys = [(m.tick, m.payload) for m in delivered]
        assert keys == sorted(keys)
        assert all(m.tick < now for m in delivered)
        if twin is not None:
            assert twin.deliver_up_to(now) == delivered
        got += delivered
    assert sorted(m.payload for m in got) == [m.payload for m in sent if m.topic in subscribed]
    assert bus.dropped_no_subscriber == sum(m.topic not in subscribed for m in sent)
    if twin is not None:
        assert (twin.dropped_no_subscriber, twin.published_count) == (
            bus.dropped_no_subscriber, bus.published_count)


# -- parse/validate -------------------------------------------------------------------

def test_minimal_fixture_parses():
    s = load("minimal.json")
    assert s.horizon == 6
    assert len(s.nodes) == 2


def test_malformed_json_reports_line():
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario("{\n  broken\n}")


def test_overlapping_domains_named_in_error():
    doc = json.loads((FIXTURES / "two_domains.json").read_text())
    doc["domains"][1]["nodes"].append(1)  # node 1 already in domain 0
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(json.dumps(doc))
    assert any("domains 0 and 1 overlap" in v for v in err.value.violations)


def test_oversubscribed_slice_names_link():
    doc = json.loads((FIXTURES / "qos_contention.json").read_text())
    doc["tenants"][0]["share"] = 3  # 3 + 1 > capacity 3
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(json.dumps(doc))
    assert any("(0, 1) oversubscribed" in v for v in err.value.violations)


def test_validation_collects_multiple_violations():
    doc = {
        "seed": 0,
        "horizon": 0,
        "nodes": [{"id": 0, "kind": "mystery"}],
        "links": [{"a": 0, "b": 0}],
        "domains": [],
        "flows": [{"tenant": 9, "origin": 0, "dest": 1, "units": 1}],
    }
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(json.dumps(doc))
    assert len(err.value.violations) >= 4


def test_flow_outside_slice_rejected_statically():
    doc = json.loads((FIXTURES / "minimal.json").read_text())
    doc["tenants"][0]["links"] = []
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(json.dumps(doc))
    assert any("does not connect" in v for v in err.value.violations)


BREAKAGES = [None, "dup_node", "orphan", "self_loop", "oversub", "bad_tenant", "dup_domain",
             "neg_share", "unknown_service", "dag_cycle", "dag_dup_task", "dag_unknown_task",
             "dag_neg_size", "fault_node", "fault_tick", "w_zero"]


def fuzz_scenario(rng, breakage="random"):
    """Random small scenario, sometimes deliberately broken: by `breakage`,
    one of BREAKAGES, or by one drawn at random."""
    n = rng.randint(2, 7)
    nodes = [{"id": i, "kind": "smart_device", "compute": 1} for i in range(n)]
    links = []
    for i in range(1, n):
        links.append({"a": rng.randrange(i), "b": i, "latency": rng.randint(1, 3),
                      "capacity": rng.randint(1, 3)})
    doc = {
        "seed": rng.randrange(100),
        "horizon": rng.randint(1, 12),
        "nodes": nodes,
        "links": links,
        "domains": [{"id": 0, "nodes": list(range(n))}],
        "tenants": [{"id": 0, "priority": "gold", "share": 1,
                     "links": [[l["a"], l["b"]] for l in links]}],
        "services": [{"name": "svc", "cost": rng.randint(1, 3), "providers": [0, n - 1]}],
        "dag": {"tasks": [["t0", "svc"], ["t1", "svc"]], "edges": [["t0", "t1", rng.randint(0, 2)]]},
        "flows": [{"tenant": 0, "origin": 0, "dest": n - 1,
                   "units": rng.randint(0, 4), "start": rng.randint(0, 3)}],
        "faults": [],
    }
    if breakage == "random":
        breakage = rng.choice(BREAKAGES)
    if breakage == "dup_node":
        doc["nodes"].append({"id": 0, "kind": "switch"})
    elif breakage == "orphan":
        doc["domains"][0]["nodes"] = doc["domains"][0]["nodes"][:-1]
    elif breakage == "self_loop":
        doc["links"].append({"a": 1, "b": 1})
    elif breakage == "oversub":
        doc["tenants"].append({"id": 1, "priority": "gold", "share": 99,
                               "links": [[links[0]["a"], links[0]["b"]]]})
    elif breakage == "bad_tenant":
        doc["flows"][0]["tenant"] = 5
    elif breakage == "dup_domain":
        doc["domains"].append({"id": 0, "nodes": []})
    elif breakage == "neg_share":
        doc["tenants"][0]["share"] = -1
    elif breakage == "unknown_service":
        doc["dag"]["tasks"].append(["t2", "nope"])
    elif breakage == "dag_cycle":
        doc["dag"]["edges"].append(["t1", "t0", 1])
    elif breakage == "dag_dup_task":
        doc["dag"]["tasks"].append(["t0", "svc"])
    elif breakage == "dag_unknown_task":
        doc["dag"]["edges"].append(["t1", "t9", 1])
    elif breakage == "dag_neg_size":
        doc["dag"]["edges"][0][2] = -1
    elif breakage == "fault_node":
        doc["faults"].append({"tick": 1, "node": n, "health": "failed"})
    elif breakage == "fault_tick":
        doc["faults"].append({"tick": -1, "node": 0, "health": "failed"})
    elif breakage == "w_zero":
        doc["options"] = {"w": 0}
    return doc, breakage


def test_validation_completeness_fuzz():
    """A parse-accepted scenario never aborts at run time."""
    rng = random.Random(123)
    for _ in range(120):
        doc, breakage = fuzz_scenario(rng)
        try:
            scenario = parse_scenario(json.dumps(doc))
        except ScenarioValidationError:
            assert breakage is not None
            continue
        run_scenario(scenario)  # must not raise


@pytest.mark.parametrize("breakage, violation", [
    ("dag_cycle", "dag: composition graph contains a cycle"),
    ("dag_dup_task", "dag: task ids must be unique"),
    ("dag_unknown_task", "dag: edge (t1,t9) references an unknown task"),
    ("dag_neg_size", "dag: edge (t0,t1) has negative transfer size"),
])
def test_a_bad_task_graph_is_one_dag_violation(breakage, violation):
    doc, _ = fuzz_scenario(random.Random(5), breakage)
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.violations == [violation]


def json_paths(value, prefix=()):
    """Every path into a JSON value, the empty path (the value itself) first."""
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from json_paths(child, prefix + (key,))


SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-3, 40) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


@st.composite
def one_value_replaced(draw):
    name = draw(st.sampled_from(all_fixture_names()))
    doc = json.loads((FIXTURES / name).read_text())
    return name, draw(st.sampled_from(list(json_paths(doc)))), draw(SMALL_JSON)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=one_value_replaced())
@example(case=("minimal.json", (), {"nodes": [1]}))
@example(case=("minimal.json", ("seed",), "x"))
@example(case=("minimal.json", ("tenants", 0, "links", 0), [0]))
@example(case=("composition.json", ("dag", "tasks", 0), ["a"]))
@example(case=("minimal.json", ("options",), {"w": "3"}))
@example(case=("minimal.json", ("links",), 5))
@example(case=("minimal.json", ("flows", 0, "units"), 2.5))
@example(case=("congested.json", ("faults", 0, "health"), {"kind": "congested"}))
def test_one_replaced_value_is_rejected_or_runs(case):
    """Any document one value away from a fixture is either rejected as a
    syntax or validation error, or runs raising only SdcpsError."""
    name, path, value = case
    doc = json.loads((FIXTURES / name).read_text())
    if path:
        target = doc
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
    else:
        doc = value
    try:
        scenario = parse_scenario(json.dumps(doc))
    except (ScenarioSyntaxError, ScenarioValidationError):
        return
    scenario.horizon = min(scenario.horizon, 30)
    try:
        run_scenario(scenario)
    except SdcpsError:
        pass


# -- run ----------------------------------------------------------------------------------

def test_clean_run_summary_minimal():
    _, digest, summary = run_scenario(load("minimal.json"))
    assert summary["flows"][0]["state"] == "delivered"
    assert summary["totals"]["cloned"] == 0
    assert summary["clone_decisions"] == []


def test_diamond_fault_run_summary():
    _, _, summary = run_scenario(load("diamond_fault.json"))
    assert len(summary["clone_decisions"]) == 1
    assert summary["flows"][0]["state"] == "delivered"
    assert summary["flows"][0]["delivered"] == [0, 1, 2, 3]


def test_same_scenario_twice_identical_hash_and_metrics():
    for name in all_fixture_names():
        w1, h1, s1 = run_scenario(load(name))
        w2, h2, s2 = run_scenario(load(name))
        assert h1 == h2, name
        assert [m.to_json() for m in w1.metrics] == [m.to_json() for m in w2.metrics], name
        assert s1 == s2, name


def test_parse_hands_its_world_to_the_first_build_at_its_seed():
    text = (FIXTURES / "diamond_fault.json").read_text()
    scenario = parse_scenario(text)
    held = scenario.world
    other_seed = build_world(scenario, seed=scenario.seed + 1)
    assert other_seed is not held and scenario.world is held
    first, second = build_world(scenario), build_world(scenario)
    assert first is held and second is not first and scenario.world is None
    fresh = build_world(parse_scenario(text))
    for world in (first, second, fresh):
        world.run(scenario.horizon)
    assert first.trace_hash() == second.trace_hash() == fresh.trace_hash()
    assert first.summary() == second.summary() == fresh.summary()


def test_run_executes_exactly_horizon_ticks():
    scenario = load("minimal.json")
    world, _, summary = run_scenario(scenario)
    assert world.now == scenario.horizon
    assert len(world.metrics) == scenario.horizon


def test_seed_override_changes_malicious_run():
    scenario = load("malicious.json")
    hashes = {run_scenario(scenario, seed=s)[1] for s in range(6)}
    assert len(hashes) > 1


@pytest.mark.parametrize("name", all_fixture_names())
def test_fixture_runs_publish_nothing_without_subscriber(name):
    world, _, _ = run_scenario(load(name))
    assert world.bus.dropped_no_subscriber == 0


def test_materialized_transfers_open_flows():
    _, _, summary = run_scenario(load("composition.json"))
    assert summary["composition"]["makespan"] > 0
    # transfer edges materialize as extra flows beyond the declared one
    assert len(summary["flows"]) >= 2


# -- cli ------------------------------------------------------------------------------------

def test_cli_validate_ok(capsys):
    rc = cli_main(["validate", str(FIXTURES / "minimal.json")])
    assert rc == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_broken_exits_1(tmp_path, capsys):
    doc = json.loads((FIXTURES / "minimal.json").read_text())
    doc["domains"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        cli_main(["validate", str(bad)])
    assert exc.value.code == 1


def test_cli_run_writes_metrics_and_hash(tmp_path, capsys):
    out = tmp_path / "metrics.jsonl"
    rc = cli_main(["run", str(FIXTURES / "diamond_fault.json"),
                   "--out", str(out), "--trace-hash"])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    records = [json.loads(l) for l in lines]
    assert all("tick" in r for r in records[:-1])
    assert "summary" in records[-1]
    ticks = [r["tick"] for r in records[:-1]]
    assert ticks == sorted(ticks)
    assert "trace-hash" in capsys.readouterr().out


def test_cli_run_deterministic_bytes(tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"m{i}.jsonl"
        cli_main(["run", str(FIXTURES / "malicious.json"), "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_env_seed_override(tmp_path, monkeypatch):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    monkeypatch.setenv("SDCPS_SEED", "424242")
    cli_main(["run", str(FIXTURES / "malicious.json"), "--out", str(out1)])
    monkeypatch.delenv("SDCPS_SEED")
    cli_main(["run", str(FIXTURES / "malicious.json"), "--seed", "424242",
              "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_twin_compare_passes(capsys):
    rc = cli_main(["twin-compare", str(FIXTURES / "diamond_fault.json"),
                   "--horizon", "12"])
    assert rc == 0
    assert "fidelity PASS" in capsys.readouterr().out


@pytest.mark.parametrize("name", all_fixture_names())
def test_twin_compare_checks_the_world_run_runs(name, tmp_path, capsys):
    """`twin-compare`'s physical world is `run`'s: same trace hash."""
    scenario = str(FIXTURES / name)
    assert cli_main(["run", scenario, "--trace-hash", "--out", str(tmp_path / "m")]) == 0
    run_hash = capsys.readouterr().out.split()[-1]
    assert cli_main(["twin-compare", scenario]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"physical {run_hash}"
    assert out[-1] == "fidelity PASS"


def readme_cli_synopsis():
    """{subcommand: (positionals, {flag: (value or None, bracketed)})} from
    the README's CLI block."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    synopsis = {}
    for line in text.split("## CLI", 1)[1].split("```")[1].strip().splitlines():
        flags = re.findall(r"(\[?)(--[\w-]+)(?: ([^\s\[\]-][^\s\]]*))?", line)
        synopsis[line.split()[1]] = (
            re.findall(r"<[^>]+>", line),
            {flag: (value or None, bool(bracket)) for bracket, flag, value in flags},
        )
    return synopsis


def test_readme_cli_block_matches_the_parser():
    """Every documented subcommand and flag parses, every flag of each
    subcommand is documented, bracketed iff optional and with a value iff
    it takes one."""
    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    synopsis = readme_cli_synopsis()
    assert sorted(synopsis) == sorted(subparsers)
    for command, (positionals, flags) in synopsis.items():
        actions = subparsers[command]._actions
        assert len(positionals) == sum(1 for a in actions if not a.option_strings), command
        options = {o: a for a in actions for o in a.option_strings if o not in ("-h", "--help")}
        assert sorted(flags) == sorted(options), command
        argv = [command] + ["scenario.json"] * len(positionals)
        for flag, (value, bracketed) in flags.items():
            assert (value is not None) == (options[flag].nargs != 0), (command, flag)
            assert bracketed != options[flag].required, (command, flag)
            argv += [flag] + (["1"] if value is not None else [])
        assert parser.parse_args(argv).command == command


def test_cli_sweep_csv(tmp_path):
    out = tmp_path / "curve.csv"
    rc = cli_main(["sweep", str(FIXTURES / "minimal.json"),
                   "--instances", "1,2,4,8", "--tasks", "16", "--cost", "2",
                   "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "m,makespan,speedup"
    table = {int(r.split(",")[0]): r.split(",") for r in rows[1:]}
    assert table[1][1] == "32"
    assert table[8][1] == "4"


def cli_exit_code(argv):
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return exc.code


RUNTIME_ABORT = {  # providers in disconnected domains: only scheduling finds out
    "horizon": 4,
    "nodes": [{"id": i, "kind": "controller_ves", "compute": 1} for i in range(4)],
    "links": [{"a": 0, "b": 1}, {"a": 2, "b": 3}],
    "domains": [{"id": 0, "nodes": [0, 1]}, {"id": 1, "nodes": [2, 3]}],
    "services": [{"name": "first", "providers": [0]}, {"name": "second", "providers": [3]}],
    "dag": {"tasks": [["a", "first"], ["b", "second"]], "edges": [["a", "b", 2]]},
}


def congestion_overflow():
    """congested.json with nodes 0 and 1 congested so far that the latency
    of link (0, 1) is no finite number."""
    doc = json.loads((FIXTURES / "congested.json").read_text())
    huge = {"kind": "congested", "slowdown": 1e200}
    doc["faults"] = [{"tick": 1, "node": n, "health": huge} for n in (0, 1)]
    return doc


def huge_number(fixture, *path):
    """The fixture with the field at `path` (keys and list indices, creating
    missing objects) set to an integer of 400 digits, too large to convert
    to a float."""
    doc = json.loads((FIXTURES / fixture).read_text())
    *parents, key = path
    node = doc
    for step in parents:
        node = node[step] if type(step) is int else node.setdefault(step, {})
    node[key] = 10 ** 400
    return doc


def empty_domain():
    """two_domains.json with a third domain that owns no node."""
    doc = json.loads((FIXTURES / "two_domains.json").read_text())
    doc["domains"].append({"id": 99, "nodes": []})
    return doc


CLI_CASES = [
    (["validate", "{good}"], None, 0),
    (["validate", "{invalid}"], None, 1),
    (["validate", "{syntax}"], None, 1),
    (["validate", "{missing}"], None, 1),
    (["run", "{good}", "--out", "{out}"], None, 0),
    (["run", "{good}", "--out", "{out}"], "7", 0),
    (["run", "{invalid}", "--out", "{out}"], None, 1),
    (["run", "{good}", "--out", "{out}"], "x", 1),
    (["twin-compare", "{good}"], "x", 1),
    (["run", "{abort}", "--out", "{out}"], None, 2),
    (["validate", "{overflow}"], None, 0),
    (["run", "{overflow}", "--out", "{out}"], None, 2),
    (["sweep", "{good}", "--out", "{out}"], None, 0),
    (["sweep", "{good}", "--instances", "0"], None, 1),
    (["sweep", "{good}", "--cost", "0"], None, 1),
    (["sweep", "{good}", "--instances", "1,x"], None, 1),
    (["sweep", "{invalid}"], None, 1),
    (["run", "{good}", "--horizon", "0"], None, 1),
    (["twin-compare", "{good}", "--horizon", "0"], None, 1),
    (["twin-compare", "{good}", "--horizon", "-2"], None, 1),
    (["sweep", "{good}", "--tasks", "0"], None, 1),
    (["sweep", "{good}", "--tasks", "-4"], None, 1),
    (["validate", "{deep}"], None, 1),
    (["run", "{bigint}", "--out", "{out}"], None, 1),
    (["run", "{good}", "--out", "{nodir}"], None, 1),
    (["sweep", "{good}", "--out", "{nodir}"], None, 1),
    (["run", "{good}", "--seed", "abc"], None, 1),
    (["sweep", "{good}", "--tasks", "x"], None, 1),
    (["run", "{hugelatency}", "--out", "{out}"], None, 1),
    (["run", "{hugecost}", "--out", "{out}"], None, 1),
    (["sweep", "{good}", "--instances", ""], None, 1),
    (["sweep", "{good}", "--instances", ","], None, 1),
    (["sweep", "{good}", "--instances", f"1,{MAX_SWEEP_INSTANCES + 1}"], None, 1),
    (["sweep", "{good}", "--tasks", str(MAX_SWEEP_TASKS + 1)], None, 1),
    (["sweep", "{good}", "--instances", ",".join(["1"] * (MAX_SWEEP_POINTS + 1))], None, 1),
    (["validate", "{emptydomain}"], None, 1),
    (["run", "{emptydomain}", "--out", "{out}"], None, 1),
    (["validate", "{hugethreshold}"], None, 1),
    (["validate", "{hugeslowdown}"], None, 1),
    (["validate", "{hugedropprob}"], None, 1),
]


@pytest.mark.parametrize("argv, env_seed, code", CLI_CASES, ids=[
    "_".join(a.strip("{}-") for a in argv) + (f"_SDCPS_SEED={e}" if e else "")
    for argv, e, _ in CLI_CASES
])
def test_cli_exit_codes(argv, env_seed, code, tmp_path, monkeypatch, capsys):
    files = {"good": str(FIXTURES / "minimal.json"), "missing": str(tmp_path / "none.json"),
             "out": str(tmp_path / "out.txt"), "nodir": str(tmp_path / "none" / "out.txt")}
    for key, text in [("invalid", json.dumps({"nodes": [1]})), ("syntax", "{"),
                      ("abort", json.dumps(RUNTIME_ABORT)),
                      ("overflow", json.dumps(congestion_overflow())),
                      ("deep", "[" * 100_000 + "]" * 100_000),
                      ("bigint", '{"horizon": ' + "9" * 5_000 + "}"),
                      ("hugelatency", json.dumps(
                          huge_number("minimal.json", "links", 0, "latency"))),
                      ("hugecost", json.dumps(
                          huge_number("composition.json", "services", 0, "cost"))),
                      ("hugethreshold", json.dumps(
                          huge_number("minimal.json", "options", "congestion_threshold"))),
                      ("hugeslowdown", json.dumps(
                          huge_number("congested.json", "faults", 0, "health", "slowdown"))),
                      ("hugedropprob", json.dumps(
                          huge_number("malicious.json", "faults", 0, "health", "drop_prob"))),
                      ("emptydomain", json.dumps(empty_domain()))]:
        files[key] = str(tmp_path / f"{key}.json")
        Path(files[key]).write_text(text)
    if env_seed is None:
        monkeypatch.delenv("SDCPS_SEED", raising=False)
    else:
        monkeypatch.setenv("SDCPS_SEED", env_seed)
    assert cli_exit_code([a.format(**files) for a in argv]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert (err == "") == (code == 0)


def test_unwritable_out_fails_before_the_run(tmp_path, monkeypatch, capsys):
    def run_scenario(*args, **kwargs):
        raise AssertionError("the run started before --out was opened")

    monkeypatch.setattr("sdcps.cli.run_scenario", run_scenario)
    out = tmp_path / "none" / "x.jsonl"
    assert cli_exit_code(["run", str(FIXTURES / "minimal.json"), "--out", str(out)]) == 1
    assert "cannot write --out file" in capsys.readouterr().err
