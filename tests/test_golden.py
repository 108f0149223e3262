"""Golden corpus: pinned trace hashes and totals.

Every fixture in tests/fixtures/ and every generated scenario in
tests/golden/ runs to its horizon at its own seed through `sdcps run --out`.
The sha256 of the bytes it writes (every per-tick metrics record plus the
summary line), its trace hash and its delivered, dropped, cloned and
messages totals must equal the values in tests/golden/expected.json. The generated scenarios were made
once with `perfbench/gen.py` (federated-admission and twin-rehearsal, seed 2,
instance 0) and are committed as JSON.

A change that alters behaviour re-pins explicitly, and records the re-pin
and its reason in CHANGES.md:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from sdcps.cli import main as cli_main
from sdcps.scenario import parse_scenario

TESTS = Path(__file__).parent
EXPECTED = TESTS / "golden" / "expected.json"
SCENARIOS = sorted(
    p.relative_to(TESTS).as_posix()
    for p in [*TESTS.glob("fixtures/*.json"), *TESTS.glob("golden/*.json")]
    if p != EXPECTED
)
TOTALS = ("delivered", "dropped", "cloned", "messages")


def observe(name: str) -> dict:
    path = TESTS / name
    # an explicit --seed equal to the scenario's own keeps SDCPS_SEED out
    seed = parse_scenario(path.read_text(encoding="utf-8")).seed
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "metrics.jsonl"
        assert cli_main(["run", str(path), "--seed", str(seed), "--out", str(out)]) == 0
        output = out.read_bytes()
    summary = json.loads(output.splitlines()[-1])["summary"]
    return {
        "output_sha256": hashlib.sha256(output).hexdigest(),
        "trace_hash": summary["trace_hash"],
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
