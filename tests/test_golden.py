"""Golden corpus: pinned trace hashes and totals.

Every fixture in tests/fixtures/ and every generated scenario in
tests/golden/ runs to its horizon at its own seed, as `sdcps run` does. Its
trace hash and its delivered, dropped, cloned and messages totals must equal
the values in tests/golden/expected.json. The generated scenarios were made
once with `perfbench/gen.py` (federated-admission and twin-rehearsal, seed 2,
instance 0) and are committed as JSON.

A change that alters behaviour re-pins explicitly, and records the re-pin
and its reason in CHANGES.md:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from sdcps.scenario import parse_scenario, run_scenario

TESTS = Path(__file__).parent
EXPECTED = TESTS / "golden" / "expected.json"
SCENARIOS = sorted(
    p.relative_to(TESTS).as_posix()
    for p in [*TESTS.glob("fixtures/*.json"), *TESTS.glob("golden/*.json")]
    if p != EXPECTED
)
TOTALS = ("delivered", "dropped", "cloned", "messages")


def observe(name: str) -> dict:
    scenario = parse_scenario((TESTS / name).read_text(encoding="utf-8"))
    _world, digest, summary = run_scenario(scenario)
    return {
        "trace_hash": digest,
        "totals": {k: summary["totals"][k] for k in TOTALS},
    }


def test_corpus_is_fully_pinned():
    assert sorted(json.loads(EXPECTED.read_text())) == SCENARIOS


@pytest.mark.parametrize("name", SCENARIOS)
def test_golden(name):
    assert observe(name) == json.loads(EXPECTED.read_text())[name]


if __name__ == "__main__":
    pinned = {name: observe(name) for name in SCENARIOS}
    EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"pinned {len(pinned)} scenarios in {EXPECTED}\n")
