"""Command-line entry points.

Exit codes: 0 on success, 1 on bad input (usage, scenario file, SDCPS_SEED,
a --horizon below 1, sweep arguments or an unwritable --out), 2 on a runtime
abort. SDCPS_SEED overrides the scenario seed; an explicit --seed beats both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .composition import speedup_curve
from .errors import ScenarioSyntaxError, ScenarioValidationError, SdcpsError
from .sandbox import spawn_twin
from .scenario import build_world, parse_scenario, run_scenario


def _bad_input(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(1)


class _Parser(argparse.ArgumentParser):
    error = staticmethod(_bad_input)  # a usage error is bad input, not a runtime abort


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_scenario(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        _bad_input(f"cannot read scenario file: {exc}")
    except ScenarioSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    except ScenarioValidationError as exc:
        print("validation failed:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  - {violation}", file=sys.stderr)
        raise SystemExit(1)


def _write(payload: str, out) -> None:
    """Write to `out` if given, else to stdout."""
    if not out:
        sys.stdout.write(payload)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        _bad_input(f"cannot write --out file: {exc}")


def _seed_for(scenario, args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("SDCPS_SEED")
    if env is None:
        return scenario.seed
    try:
        return int(env)
    except ValueError:
        _bad_input(f"SDCPS_SEED must be an integer, not {env!r}")


def _horizon_for(scenario, args) -> int:
    if args.horizon is None:
        return scenario.horizon
    if args.horizon < 1:
        _bad_input(f"--horizon must be >= 1, not {args.horizon}")
    return args.horizon


def cmd_run(args) -> int:
    scenario = _load(args.scenario)
    scenario.horizon = _horizon_for(scenario, args)
    _write("", args.out)  # an unwritable --out fails before the run
    try:
        world, digest, summary = run_scenario(scenario, seed=_seed_for(scenario, args))
    except SdcpsError as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return 2
    lines = [rec.to_json() for rec in world.metrics]
    lines.append(json.dumps({"summary": summary}, sort_keys=True, separators=(",", ":")))
    payload = "\n".join(lines) + "\n"
    _write(payload, args.out)
    if args.trace_hash:
        print(f"trace-hash {digest}")
    return 0


def cmd_validate(args) -> int:
    _load(args.scenario)
    print("ok")
    return 0


def cmd_twin_compare(args) -> int:
    scenario = _load(args.scenario)
    horizon = _horizon_for(scenario, args)
    seed = _seed_for(scenario, args)
    try:
        physical = build_world(scenario, seed=seed)
        physical.run_composition()  # as `run_scenario` does, before the first tick
        twin = spawn_twin(physical)
        physical.run(horizon)
        twin.run(horizon)
    except SdcpsError as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return 2
    p_hash = physical.trace_hash()
    t_hash = twin.trace_hash()
    print(f"physical {p_hash}")
    print(f"twin     {t_hash}")
    if p_hash == t_hash:
        print("fidelity PASS")
        return 0
    print("fidelity FAIL")
    return 2


def cmd_sweep(args) -> int:
    scenario = _load(args.scenario)
    sweep_opts = scenario.options.get("sweep", {})
    n_tasks = args.tasks if args.tasks is not None else sweep_opts.get("n_tasks", 64)
    cost = args.cost if args.cost is not None else sweep_opts.get("cost", 1)
    try:
        instances = [int(x) for x in args.instances.split(",") if x]
        rows = speedup_curve(n_tasks, instances, cost)
    except (ValueError, SdcpsError) as exc:
        _bad_input(f"sweep: {exc}")
    out_lines = ["m,makespan,speedup"]
    for m, makespan, speedup in rows:
        out_lines.append(f"{m},{makespan},{speedup:.6g}")
    payload = "\n".join(out_lines) + "\n"
    _write(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sdcps")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario to its horizon")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--horizon", type=int)
    p_run.add_argument("--out", help="write metrics JSONL here instead of stdout")
    p_run.add_argument("--trace-hash", action="store_true")
    p_run.set_defaults(fn=cmd_run)

    p_val = sub.add_parser("validate", help="validate a scenario file")
    p_val.add_argument("scenario")
    p_val.set_defaults(fn=cmd_validate)

    p_twin = sub.add_parser("twin-compare", help="check twin fidelity over a horizon")
    p_twin.add_argument("scenario")
    p_twin.add_argument("--horizon", type=int)
    p_twin.add_argument("--seed", type=int)
    p_twin.set_defaults(fn=cmd_twin_compare)

    p_sweep = sub.add_parser("sweep", help="emit the scheduler speedup curve as CSV")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--instances", default="1,2,4,8,16")
    p_sweep.add_argument("--tasks", type=int)
    p_sweep.add_argument("--cost", type=int)
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
