"""Re-pin golden.json: each workload's simulated totals per instance at the
default seed, from one traced pass. New pins record a behaviour change.

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, GOLDEN, SRC

sys.path.insert(0, str(SRC))

from gen import SHAPES, generate_all  # noqa: E402
from harness import traced_pass  # noqa: E402

if __name__ == "__main__":
    golden = {
        workload: traced_pass(workload, DEFAULT_SEED, generate_all(workload, DEFAULT_SEED)).stats
        for workload in SHAPES
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
