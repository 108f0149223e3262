"""The benchmark's traced pass wraps every entry point that
`perfbench/harness.py::targets()` names. A renamed or deleted entry point
makes every benchmark run die with AttributeError, so each must resolve.
An entry point that nothing calls any more reports 0 calls, so each must
also be reached."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from spans import Tracer, instrument  # noqa: E402

from sdcps import FlowEngine  # noqa: E402

GOLDEN = Path(__file__).parent / "golden"

# span name -> why no run reaches it
UNREACHED = {
    "topology.shortest_path": "no caller in src/; ROADMAP item 1 deletes it",
}


def test_every_traced_entry_point_resolves():
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, *_ in harness.targets()
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_every_traced_entry_point_is_reached():
    """One instance without rehearsals and one with them, both traced,
    together call every span but the listed exceptions."""
    tracer = Tracer()
    with instrument(tracer, harness.targets()):
        for name, rehearse in (("federated-admission-2-0", False), ("twin-rehearsal-2-0", True)):
            scenario, world, _ = harness.set_up((GOLDEN / f"{name}.json").read_text())
            harness.run_instance(harness.PassResult(), name, rehearse, scenario, world)
    calls = {name: n for name, (n, _self_s) in tracer.totals().items()}
    dark = sorted(name for name in harness.SPAN_NAMES if not calls.get(name))
    assert dark == sorted(UNREACHED)


def test_one_rehearsing_instance_runs_clean():
    """The harness reads engine state directly (`engine.units`, the
    destination buffer's `held`, `Flow.destination_arrivals`); one run over a
    golden twin-rehearsal instance must rehearse without error and deliver
    every delivered flow exactly once, in order."""
    text = (Path(__file__).parent / "golden" / "twin-rehearsal-2-0.json").read_text()
    scenario, world, _ = harness.set_up(text)
    out = harness.PassResult()
    harness.run_instance(out, "twin-rehearsal-2-0", True, scenario, world)
    assert out.bad_records == []
    assert out.stats[0]["rehearsals"] > 0
    assert out.stats[0]["rehearsal_errors"] == 0


def test_one_at_risk_pass_per_recovery(monkeypatch):
    """A recovery reads the at-risk units once, inside on_unhealthy, and
    every decision it returns was enacted once."""
    calls = {"at_risk_seqs": 0, "on_unhealthy": 0, "clone_subflow": 0}
    for name in calls:
        def counted(*args, _inner=getattr(FlowEngine, name), _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(FlowEngine, name, counted)
    text = (GOLDEN / "federated-admission-2-0.json").read_text()
    scenario, world, _ = harness.set_up(text)
    harness.run_instance(harness.PassResult(), "federated-admission-2-0", False, scenario, world)
    assert calls["on_unhealthy"] > 0
    assert calls["at_risk_seqs"] == calls["on_unhealthy"]
    assert calls["clone_subflow"] == len(world.engine.decisions)
