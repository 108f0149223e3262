"""The benchmark's traced pass wraps every entry point that
`perfbench/harness.py::targets()` names. A renamed or deleted entry point
makes every benchmark run die with AttributeError, so each must resolve."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402


def test_every_traced_entry_point_resolves():
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, *_ in harness.targets()
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
