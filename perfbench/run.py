"""sdcps benchmark: run one generated workload, check it, print its metrics.

    python3 perfbench/run.py --workload federated-admission --seed 1 \
        --seconds 50 --trace 0

Run from the root of a checkout; the simulator is imported from its `src/`.
The workload's scenarios are generated from --seed (gen.py) and handed to
the program as JSON text through `parse_scenario`.

A run repeats passes (harness.run_pass) and ends, with its traced pass,
within about --seconds (see `measure`). A pass sets each instance up
SETUPS_PER_INSTANCE times, timing each set-up, and runs the last world
set up. The run then makes one traced pass with
every layer entry point wrapped (spans.py). Both modes do all of this;
--trace only selects what the last line reports:

  --trace 0   end-to-end metrics, from the untraced passes
  --trace 1   per-layer metrics, from the traced pass; its spans are
              written to .perfbench-out/

Every pass repeats the same deterministic operations: each instance's
ticks, rehearsals and final report. On a shared host the same pass runs up
to ~2x slower for stretches of seconds to minutes, sometimes a whole run,
while other tenants contend for the cores. Each pass therefore also samples
a fixed reference kernel between its operations (gauge.py), and each host
time is scaled by REF_S over the kernel's median time in the samples
around it: host time at a fixed reference speed. Then `wall_s` is the
median over passes of a pass's scaled ticks, rehearsals and reports; tick
and rehearsal percentiles are taken over each operation's median scaled
time across passes; `setup_s` is the median scaled set-up. The unscaled
pass times and the kernel's median time per pass are printed too.

Each metric is printed as `metric <name> <value> <unit>`; the last line is
one JSON object {"correct", "attempted", "failed", "metrics"}. `attempted`
counts the physical ticks and rehearsals the untraced passes ran and
`failed` the rehearsals that raised.

Correctness gate, exit code 1 on any violation:
  - every pass, traced or not, yields the same trace hashes and simulated
    totals, no rehearsal raises, and every delivered flow's record is
    exactly 0..units-1;
  - at DEFAULT_SEED those totals equal the ones pinned in golden.json
    (re-pin with pin.py; a changed pin is a behaviour change).
For any other seed the hashes are printed so two commits can be compared.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
GOLDEN = BENCH / "golden.json"

DEFAULT_SEED = 1
SETUPS_PER_INSTANCE = 3


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def per_op(series) -> list[float]:
    """Per operation, the median over passes of its scaled host time."""
    return [statistics.median(times) for times in zip(*series)]


def end_to_end(passes, hops, rss_mb) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric, rehearsal percentiles only where there are
    rehearsals."""
    ticks = per_op(p.scaled(p.tick_s, p.tick_at) for p in passes)
    rehearsals = per_op(p.scaled(p.rehearsal_s, p.rehearsal_at) for p in passes)
    wall = statistics.median(p.scaled_wall() for p in passes)
    setup = statistics.median(t for p in passes for t in p.scaled(p.setup_s, p.setup_at))
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (wall, "s"),
        "ticks_per_s": (len(ticks) / wall, "1/s"),
        "unit_hops_per_s": (hops / wall, "1/s"),
        "tick_ms_p50": (percentile(ticks, 50) * 1e3, "ms"),
        "tick_ms_p90": (percentile(ticks, 90) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    if rehearsals:
        metrics["rehearsal_ms_p50"] = (percentile(rehearsals, 50) * 1e3, "ms")
        metrics["rehearsal_ms_p90"] = (percentile(rehearsals, 90) * 1e3, "ms")
    return metrics


def per_layer(traced, untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Calls and self time per traced entry point, plus the layer ratios."""
    from harness import SPAN_NAMES

    totals = traced.spans.totals()
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        calls, own = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (own, "s")

    def ratio(num, den):
        return num / den if den else 0.0

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    metrics.update({
        "farm.segment_tables_per_admission": (
            ratio(calls("controller.segment_table"), calls("farm.cross_domain_path")), "ratio"),
        "bus.no_subscriber_ratio": (
            ratio(traced.dropped_no_subscriber, traced.published), "ratio"),
        "sandbox.commit_accept_ratio": (
            ratio(traced.total("commits_accepted"), calls("sandbox.commit")), "ratio"),
        "flow_engine.duplicate_ratio": (
            ratio(traced.absorbed_duplicates, traced.destination_arrivals), "ratio"),
        "flow_engine.units_peak": (traced.units_peak, "count"),
        "flow_engine.unit_hops": (traced.total("unit_hops"), "count"),
        "bench.trace_overhead_s": (traced.scaled_wall() - untraced_wall, "s"),
    })
    return metrics


def check(workload: str, seed: int, passes, traced) -> list[str]:
    """Return every correctness-gate violation."""
    problems = []
    reference = [{k: v for k, v in s.items() if k != "unit_hops"} for s in traced.stats]
    for i, p in enumerate(passes):
        if p.stats != reference:
            problems.append(f"untraced pass {i} differs from the traced pass: "
                            f"{p.stats} != {reference}")
    for i, p in enumerate([*passes, traced]):
        if p.total("rehearsal_errors"):
            problems.append(f"pass {i}: {p.total('rehearsal_errors')} rehearsals raised")
        if p.bad_records:
            problems.append(f"pass {i}: delivered (instance, flow) {p.bad_records} "
                            f"have records other than 0..units-1")
    if seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text()).get(workload)
        if golden != traced.stats:
            problems.append(f"seed {seed} stats {traced.stats} != pinned {golden}")
    return problems


def measure(workload: str, seed: int, seconds: float):
    """Untraced passes, then one traced pass, all within about `seconds`:
    passes stop when one more pass and the traced pass, each as long as the
    last pass, would not fit. Returns (passes, peak RSS in MB, traced pass)."""
    from gen import generate_all
    from harness import run_pass, traced_pass

    texts = generate_all(workload, seed)
    passes = []
    deadline = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        passes.append(run_pass(workload, seed, texts, SETUPS_PER_INSTANCE))
        if perf_counter() + 2 * (perf_counter() - t0) > deadline:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return passes, rss_mb, traced_pass(workload, seed, texts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sdcps" / "__init__.py").is_file():
        print(f"error: no sdcps sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sdcps
    from gen import SHAPES

    if Path(sdcps.__file__).resolve().parent != SRC / "sdcps":
        print(f"error: imported sdcps from {sdcps.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in SHAPES:
        parser.error(f"--workload must be one of {', '.join(SHAPES)}")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    passes, rss_mb, traced = measure(args.workload, args.seed, args.seconds)
    problems = check(args.workload, args.seed, passes, traced)
    failed, attempted = traced.total("sim_failed"), traced.total("sim_attempted")

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(traced.stats)} instances, {len(traced.tick_s)} ticks and "
          f"{len(traced.rehearsal_s)} rehearsals per pass, "
          f"{sum(len(p.setup_s) for p in passes)} set-ups")
    print(f"trace_hash {' '.join(s['trace_hash'] for s in traced.stats)} (seed {args.seed})")
    for s in traced.stats:
        print(f"sim_stats {json.dumps(s, sort_keys=True)}")
    print(f"sim fail_ratio {failed / attempted:.6f} "
          f"({failed} of {attempted} flows + rehearsals failed)")
    print("pass_wall_s unscaled " + " ".join(f"{p.wall_s:.4f}" for p in passes)
          + f" traced {traced.wall_s:.4f}")
    print("gauge_median_ms " + " ".join(f"{p.gauge.median_s() * 1e3:.4f}" for p in passes)
          + f" traced {traced.gauge.median_s() * 1e3:.4f}")
    e2e = end_to_end(passes, traced.total("unit_hops"), rss_mb)
    layers = per_layer(traced, e2e["wall_s"][0])
    for name, (value, unit) in [*e2e.items(), *layers.items()]:
        print(f"metric {name} {value:.9g} {unit}")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print("correctness " + ("FAIL" if problems else "ok"))

    if args.trace:
        OUT.mkdir(exist_ok=True)
        traced.spans.write(OUT / f"spans-{args.workload}-{args.seed}.tsv")
        reported = layers
    else:
        reported = {k: v for k, v in e2e.items() if not k.startswith("rehearsal_")}
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(p.tick_s) + len(p.rehearsal_s) for p in passes),
        "failed": sum(p.total("rehearsal_errors") for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
