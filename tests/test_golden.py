"""Golden corpus: pinned trace hashes and totals.

Every fixture in tests/fixtures/ and every generated scenario in
tests/golden/ runs to its horizon at its own seed through `sdcps run --out`.
The sha256 of the bytes it writes (every per-tick metrics record plus the
summary line), the sha256 of every event line it emits (each followed by a
newline, recorded by wrapping `EventLog.emit`), its trace hash and its
delivered, dropped, cloned and messages totals must equal the values in
tests/golden/expected.json. The three generated scenarios were made with
`perfbench/gen.py` (federated-admission and twin-rehearsal at seed 2, and
bulk-transport at seed 1, each instance 0) and are committed as JSON; each
`<workload>-<seed>-<k>.json` must still equal, byte for byte, what the
generator writes for that workload, seed and instance.

The generated twin-rehearsal scenario also pins `rehearsal_sha256`: it is
run again on the benchmark's rehearsal schedule (`perfbench/harness.py`), and
the sha256 covers each rehearsal's `MetricsDelta` and commit result, then
every metrics record and the summary line.

A change that alters behaviour re-pins explicitly, and records the re-pin
and its reason in CHANGES.md:

    PYTHONPATH=src python3 tests/test_golden.py

Before it writes expected.json, the re-pin prints each pinned value it
changes as `<scenario> <key>: <old> -> <new>`, so its scope shows.
"""

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from sdcps import World, events, sandbox
from sdcps import topology as topology_module
from sdcps.cli import main as cli_main
from sdcps.composition import Scheduler
from sdcps.scenario import parse_scenario, run_scenario

from conftest import record_event_lines

TESTS = Path(__file__).parent
sys.path.insert(0, str(TESTS.parent / "perfbench"))

from gen import generate_all  # noqa: E402
from harness import (  # noqa: E402
    FIRST_REHEARSAL,
    REHEARSAL_EVERY,
    REHEARSAL_HORIZON,
    PassResult,
    _decision,
    run_instance,
    set_up,
)

EXPECTED = TESTS / "golden" / "expected.json"
SCENARIOS = sorted(
    p.relative_to(TESTS).as_posix()
    for p in [*TESTS.glob("fixtures/*.json"), *TESTS.glob("golden/*.json")]
    if p != EXPECTED
)
TOTALS = ("delivered", "dropped", "cloned", "messages")
REHEARSED = {"golden/twin-rehearsal-2-0.json"}


def _json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def rehearsal_sha256(name: str) -> str:
    """Run the scenario with a seeded rehearsal every REHEARSAL_EVERY ticks
    from FIRST_REHEARSAL on, as the benchmark does, and hash what it shows."""
    scenario, world, _ = set_up((TESTS / name).read_text(encoding="utf-8"))
    rng = random.Random(f"decisions:{name}")
    h = hashlib.sha256()
    for _ in range(scenario.horizon):
        world.tick()
        if world.now >= FIRST_REHEARSAL and world.now % REHEARSAL_EVERY == 0:
            decision = _decision(rng, world)
            delta = sandbox.evaluate(sandbox.spawn_twin(world), decision, REHEARSAL_HORIZON)
            h.update(_json(dataclasses.asdict(delta)))
            h.update(_json(sandbox.commit(world, decision, delta)))
    for rec in world.metrics:
        h.update(rec.to_json().encode() + b"\n")
    h.update(_json({"summary": world.summary()}))
    return h.hexdigest()


def observe(name: str) -> dict:
    path = TESTS / name
    # an explicit --seed equal to the scenario's own keeps SDCPS_SEED out
    seed = parse_scenario(path.read_text(encoding="utf-8")).seed
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        recorded = record_event_lines(mp)
        out = Path(tmp) / "metrics.jsonl"
        assert cli_main(["run", str(path), "--seed", str(seed), "--out", str(out)]) == 0
        output = out.read_bytes()
    stream = "".join(line + "\n" for lines in recorded.values() for line in lines)
    summary = json.loads(output.splitlines()[-1])["summary"]
    observed = {
        "events_sha256": hashlib.sha256(stream.encode()).hexdigest(),
        "output_sha256": hashlib.sha256(output).hexdigest(),
        "trace_hash": summary["trace_hash"],
        "totals": {k: summary["totals"][k] for k in TOTALS},
    }
    if name in REHEARSED:
        observed["rehearsal_sha256"] = rehearsal_sha256(name)
    return observed


def _flat(entry: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in entry.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def repin_changes(old: dict, new: dict) -> list[str]:
    """One line per (scenario, key) whose pinned value differs; a missing
    value shows as None."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        before, after = _flat(old.get(name, {})), _flat(new.get(name, {}))
        for key in sorted(before.keys() | after.keys()):
            if before.get(key) != after.get(key):
                lines.append(f"{name} {key}: {before.get(key)} -> {after.get(key)}")
    return lines


def test_repin_lists_only_changed_keys():
    old = {"a.json": {"trace_hash": "x", "totals": {"messages": 4, "cloned": 1}}}
    new = {
        "a.json": {"trace_hash": "x", "totals": {"messages": 3, "cloned": 1}},
        "b.json": {"trace_hash": "y"},
    }
    assert repin_changes(old, new) == [
        "a.json totals.messages: 4 -> 3",
        "b.json trace_hash: None -> y",
    ]
    assert repin_changes(new, new) == []


@pytest.mark.parametrize("name", [s for s in SCENARIOS if s.startswith("golden/")])
def test_generated_instance_matches_generator(name):
    """A committed instance that drifted from `perfbench/gen.py` would pin
    a scenario the benchmark no longer runs."""
    workload, seed, k = Path(name).stem.rsplit("-", 2)
    generated = generate_all(workload, int(seed))[int(k)].encode("utf-8")
    assert (TESTS / name).read_bytes() == generated


def test_corpus_is_fully_pinned():
    assert sorted(json.loads(EXPECTED.read_text())) == SCENARIOS


@pytest.mark.parametrize("name", SCENARIOS)
def test_golden(name):
    assert observe(name) == json.loads(EXPECTED.read_text())[name]


@pytest.mark.parametrize("name", SCENARIOS)
def test_recorded_lines_fold_to_trace_hash(name, event_lines):
    """The recorder sees exactly the stream the trace digest folds."""
    world, digest, _ = run_scenario(parse_scenario((TESTS / name).read_text(encoding="utf-8")))
    state = events.FNV_OFFSET
    for line in event_lines[world.log]:
        state = events.fnv1a_64(line.encode() + b"\n", state)
    assert f"{state:016x}" == digest


@pytest.mark.parametrize("name", ["fixtures/malicious.json", "golden/federated-admission-2-0.json"])
def test_output_is_identical_across_processes_and_hash_seeds(name, tmp_path):
    """`sdcps run` in fresh interpreters with different string-hash seeds
    writes the same bytes, and they are the pinned ones."""
    path = TESTS / name
    seed = parse_scenario(path.read_text(encoding="utf-8")).seed
    src = str(TESTS.parent / "src")
    outputs = []
    for hash_seed in ("0", "4242"):
        env = {k: v for k, v in os.environ.items() if k != "SDCPS_SEED"}
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"hash-seed-{hash_seed}.jsonl"
        subprocess.run(
            [sys.executable, "-c", "import sys; from sdcps.cli import main; sys.exit(main())",
             "run", str(path), "--seed", str(seed), "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    expected = json.loads(EXPECTED.read_text())[name]["output_sha256"]
    assert hashlib.sha256(outputs[0]).hexdigest() == expected


def test_rehearsal_reuses_transfer_searches(monkeypatch):
    """A world and its twins share transfer searches under equal health, so
    the rehearsal schedule runs at most 60 (548 when each fork and health
    change searched afresh) and still shows the pinned hash."""
    sources = []
    search = topology_module.multi_target_paths

    def counted(adj, src, *args):
        sources.append(src)
        return search(adj, src, *args)

    monkeypatch.setattr(topology_module, "multi_target_paths", counted)
    name = "golden/twin-rehearsal-2-0.json"
    assert rehearsal_sha256(name) == json.loads(EXPECTED.read_text())[name]["rehearsal_sha256"]
    assert 0 < len(sources) <= 60


def inside_evaluate(monkeypatch) -> list:
    """Wrap `sandbox.evaluate`; while it runs, the returned list holds the
    twin it was handed."""
    inside = []
    evaluate = sandbox.evaluate

    def evaluating(twin, *args):
        inside.append(twin)
        try:
            return evaluate(twin, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(sandbox, "evaluate", evaluating)
    return inside


def test_rehearsal_runs_one_branch_per_place_task(monkeypatch):
    """A `place_task` rehearsal replays only the tick boundaries of the twin
    it is handed, and a repair forks one branch, so the rehearsal
    schedule's 50 placements and 3 repairs at horizon 3 make at most 3
    forks and 18 ticks inside `evaluate` (53 forks and 168 ticks with
    placement branches that fork and tick) and still show the pinned hash."""
    counts = {"fork": 0, "tick": 0}
    inside = inside_evaluate(monkeypatch)

    def counted(method_name):
        method = getattr(World, method_name)

        def wrapper(world, *args, **kwargs):
            counts[method_name] += bool(inside)
            return method(world, *args, **kwargs)
        return wrapper

    for method_name in counts:
        monkeypatch.setattr(World, method_name, counted(method_name))
    name = "golden/twin-rehearsal-2-0.json"
    assert rehearsal_sha256(name) == json.loads(EXPECTED.read_text())[name]["rehearsal_sha256"]
    assert 0 < counts["fork"] <= 3
    assert 0 < counts["tick"] <= 18


def test_a_benchmark_rehearsal_forks_its_twin_and_one_branch_per_repair(monkeypatch):
    """One benchmark instance with rehearsals (`harness.run_instance`)
    forks the world once per rehearsal, for the twin, and once more per
    repair rehearsal, for its candidate: the baseline runs on the twin."""
    name = "twin-rehearsal-2-0"
    scenario, world, _ = set_up((TESTS / "golden" / f"{name}.json").read_text(encoding="utf-8"))
    forks, kinds = [], []
    fork, evaluate = World.fork, sandbox.evaluate

    def counted_fork(w):
        forks.append(w)
        return fork(w)

    def counted_evaluate(twin, decision, horizon):
        kinds.append(decision.kind)
        return evaluate(twin, decision, horizon)

    monkeypatch.setattr(World, "fork", counted_fork)
    monkeypatch.setattr(sandbox, "evaluate", counted_evaluate)
    run_instance(PassResult(), name, True, scenario, world)
    repairs = kinds.count(sandbox.DecisionKind.INJECT_REPAIR)
    assert 0 < repairs < len(kinds)
    assert len(forks) == len(kinds) + repairs


def test_rehearsal_reuses_compositions(monkeypatch):
    """A world and its branches share the last composition under each
    health key, so the rehearsal schedule, with its set-up composition,
    schedules at most 51 times (107 when every composition schedules) and
    still shows the pinned hash."""
    calls = []
    schedule = Scheduler.schedule

    def counted(self, *args, **kwargs):
        calls.append(args)
        return schedule(self, *args, **kwargs)

    monkeypatch.setattr(Scheduler, "schedule", counted)
    name = "golden/twin-rehearsal-2-0.json"
    assert rehearsal_sha256(name) == json.loads(EXPECTED.read_text())[name]["rehearsal_sha256"]
    assert 0 < len(calls) <= 51


def test_rehearsal_folds_no_branch_event(monkeypatch):
    """`evaluate` spends the twin it is handed and untraces it before
    anything runs, so while it runs nothing folds a line into a digest:
    neither the twin nor its branch. The physical world and its twins fold
    every line, and the rehearsal schedule still shows the pinned hash."""
    folded = {True: 0, False: 0}  # inside `evaluate`? -> bytes folded
    inside = inside_evaluate(monkeypatch)
    fold = events.fnv1a_64

    def counted(data, state=events.FNV_OFFSET):
        folded[bool(inside)] += len(data)
        return fold(data, state)

    monkeypatch.setattr(events, "fnv1a_64", counted)
    name = "golden/twin-rehearsal-2-0.json"
    assert rehearsal_sha256(name) == json.loads(EXPECTED.read_text())[name]["rehearsal_sha256"]
    assert folded[True] == 0 and folded[False] > 0


def test_rehearsal_is_identical_across_hash_seeds():
    """The transfer memo is keyed by frozensets, whose iteration order
    depends on the string-hash seed; rehearsals in fresh interpreters with
    different seeds show the same, pinned hash."""
    name = "golden/twin-rehearsal-2-0.json"
    code = f"from test_golden import rehearsal_sha256; print(rehearsal_sha256({name!r}))"
    src = str(TESTS.parent / "src")
    hashes = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, str(TESTS), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=TESTS,
                              check=True, capture_output=True, text=True)
        hashes.append(done.stdout.strip())
    assert hashes[0] == hashes[1] == json.loads(EXPECTED.read_text())[name]["rehearsal_sha256"]


if __name__ == "__main__":
    pinned = {name: observe(name) for name in SCENARIOS}
    old = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for line in repin_changes(old, pinned):
        sys.stdout.write(line + "\n")
    EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"pinned {len(pinned)} scenarios in {EXPECTED}\n")
