"""One benchmark pass over a workload's generated scenarios, untraced or traced.

A pass runs every instance of the workload (gen.py) in turn, each on a
freshly set-up world. Per instance it times what a user of the simulator
waits for: every physical tick to the horizon, on twin-rehearsal one
rehearsal (spawn a twin, evaluate a seeded decision over three ticks,
commit it under the default policy) after every REHEARSAL_EVERY-th tick
from FIRST_REHEARSAL on, then `World.summary()` and the JSON rendering of every per-tick metrics
record, as `sdcps run` prints them. The loop is closed: each tick and
rehearsal starts when the previous one has returned. A pass also samples
the host-speed gauge (gauge.py) between operations, outside their timers.

Counts come from counters and return values only (`Bus.published_count`,
`Bus.dropped_no_subscriber`, engine totals, `summary()`), never from the
history lists `log.lines`, `qos_log`, `delivery_latencies`, `sent_log`,
`processed_log` or `health_log`, so the benchmark keeps working when those
become opt-in.

Importing this module imports `sdcps`; the caller puts the checkout's
`src/` on `sys.path` first.
"""

from __future__ import annotations

import gc
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from sdcps import bus, composition, controller, events, farm, flow_engine, sandbox
from sdcps import scenario as scenario_mod
from sdcps import topology, world as world_mod
from sdcps.errors import SdcpsError
from sdcps.topology import HealthState

from gauge import Gauge
from spans import Tracer, instrument

REHEARSING = {"twin-rehearsal"}
FIRST_REHEARSAL = 5
REHEARSAL_EVERY = 2
REHEARSAL_HORIZON = 3
HOPS = "controller.qos_schedule"


@dataclass
class PassResult:
    """One pass: host times of its set-ups and operations in run order
    (every instance's ticks, rehearsals and final report), each with the
    number of gauge samples taken before it (`*_at`), simulated statistics
    per instance, and layer counters summed over its instances. Every pass
    of a run does the same operations in the same order."""

    setup_s: list[float] = field(default_factory=list)
    tick_s: list[float] = field(default_factory=list)
    rehearsal_s: list[float] = field(default_factory=list)
    report_s: list[float] = field(default_factory=list)
    setup_at: list[int] = field(default_factory=list)
    tick_at: list[int] = field(default_factory=list)
    rehearsal_at: list[int] = field(default_factory=list)
    report_at: list[int] = field(default_factory=list)
    stats: list[dict] = field(default_factory=list)
    bad_records: list[tuple[int, int]] = field(default_factory=list)
    units_peak: int = 0
    published: int = 0
    dropped_no_subscriber: int = 0
    destination_arrivals: int = 0
    absorbed_duplicates: int = 0
    gauge: Gauge = field(default_factory=Gauge, repr=False)
    spans: Tracer | None = field(default=None, repr=False)

    def total(self, key: str) -> int:
        return sum(s[key] for s in self.stats)

    @property
    def wall_s(self) -> float:
        """Host time of the pass's ticks, rehearsals and reports."""
        return sum(self.tick_s) + sum(self.rehearsal_s) + sum(self.report_s)

    def timed(self, times: list[float], at: list[int], took: float) -> None:
        """Record one operation's host time and gauge position, then let the
        gauge sample between this operation and the next."""
        times.append(took)
        at.append(len(self.gauge.samples))
        self.gauge.maybe()

    def scaled(self, times: list[float], at: list[int]) -> list[float]:
        """Host times at the reference speed of the gauge around each."""
        return [t * self.gauge.scale_at(i) for t, i in zip(times, at)]

    def scaled_wall(self) -> float:
        return (sum(self.scaled(self.tick_s, self.tick_at))
                + sum(self.scaled(self.rehearsal_s, self.rehearsal_at))
                + sum(self.scaled(self.report_s, self.report_at)))


def set_up(text: str):
    """Parse the scenario, build its world and run the initial composition;
    return (scenario, world, seconds taken)."""
    t0 = perf_counter()
    scenario = scenario_mod.parse_scenario(text)
    world = scenario_mod.build_world(scenario)
    if world.dag is not None:
        world.run_composition()
    return scenario, world, perf_counter() - t0


def _decision(rng: random.Random, world):
    """Repair a currently failed node, or re-place a DAG task on another
    provider of its service. Both always resolve, so `evaluate` and
    `commit` raise only on a defect."""
    failed = sorted(
        n for n, node in world.topology.nodes.items()
        if node.health.state is HealthState.FAILED
    )
    if failed and rng.random() < 0.5:
        return sandbox.Decision.inject_repair(rng.choice(failed))
    task, service = rng.choice(world.dag.tasks)
    providers = sorted(world.registry.lookup(service).providers)
    return sandbox.Decision.place_task(task, rng.choice(providers))


def run_instance(out: PassResult, label: str, rehearse: bool, scenario, world,
                 tracer: Tracer | None = None) -> None:
    """Run one set-up world to its horizon and add the results to `out`."""
    rng = random.Random(f"decisions:{label}")
    accepted = errors = rehearsals = 0
    for _ in range(scenario.horizon):
        if tracer is not None:
            tracer.begin_op(f"tick:{label}:{world.now + 1}")
        ts = perf_counter()
        world.tick()
        out.timed(out.tick_s, out.tick_at, perf_counter() - ts)
        out.units_peak = max(out.units_peak, len(world.engine.units))
        if rehearse and world.now >= FIRST_REHEARSAL and world.now % REHEARSAL_EVERY == 0:
            decision = _decision(rng, world)
            if tracer is not None:
                tracer.begin_op(f"rehearsal:{label}:{rehearsals}")
            ts = perf_counter()
            try:
                twin = sandbox.spawn_twin(world)
                delta = sandbox.evaluate(twin, decision, REHEARSAL_HORIZON)
                accepted += sandbox.commit(world, decision, delta)
            except SdcpsError:
                errors += 1
            out.timed(out.rehearsal_s, out.rehearsal_at, perf_counter() - ts)
            rehearsals += 1
    if tracer is not None:
        tracer.begin_op(f"report:{label}")
    ts = perf_counter()
    summary = world.summary()
    lines = [rec.to_json() for rec in world.metrics]
    lines.append(json.dumps({"summary": summary}, sort_keys=True, separators=(",", ":")))
    out.timed(out.report_s, out.report_at, perf_counter() - ts)

    flows = summary["flows"]
    states = Counter(f["state"] for f in flows)
    rejected = len(summary["rejected_flows"])
    out.stats.append({
        "trace_hash": summary["trace_hash"],
        "ticks": summary["ticks"],
        "delivered": summary["totals"]["delivered"],
        "dropped": summary["totals"]["dropped"],
        "cloned": summary["totals"]["cloned"],
        "flow_states": dict(sorted(states.items())),
        "rejected": rejected,
        "rehearsals": rehearsals,
        "commits_accepted": accepted,
        "rehearsal_errors": errors,
        # a flow fails when admission rejects it or it is not delivered at
        # the horizon; a rehearsal fails when evaluate or commit raises
        "sim_attempted": len(scenario.flows) + rehearsals,
        "sim_failed": rejected + len(flows) - states["delivered"] + errors,
    })
    out.bad_records.extend(
        (len(out.stats) - 1, f["id"]) for f in flows
        if f["state"] == "delivered" and f["delivered"] != list(range(f["units"]))
    )
    out.published += world.bus.published_count
    out.dropped_no_subscriber += world.bus.dropped_no_subscriber
    for f in world.engine.flows.values():
        held = world.engine.buffers[(f.id, f.destination)].held
        n = len(f.destination_arrivals)
        out.destination_arrivals += n
        out.absorbed_duplicates += n - len(f.delivered_record) - len(held)


def run_pass(workload: str, seed: int, texts: list[str],
             setups_per_instance: int) -> PassResult:
    """Set each instance up `setups_per_instance` times, timing each set-up,
    and run the last world set up, sampling the gauge between operations."""
    out = PassResult()
    for k, text in enumerate(texts):
        for _ in range(setups_per_instance):
            gc.collect()
            out.gauge.maybe()
            scenario, world, took = set_up(text)
            out.timed(out.setup_s, out.setup_at, took)
        run_instance(out, f"{workload}:{seed}:{k}", workload in REHEARSING, scenario, world)
        del scenario, world
    return out


def _count_grants(grants: dict) -> int:
    return sum(grants.values())


def targets():
    """(owner, attribute, span name[, tally]) for every traced entry point.

    Functions are wrapped where callers look them up: `qos_schedule` in
    `sdcps.flow_engine`, which imported it by name, and the sandbox
    functions in `sdcps.sandbox`, which `World.tick` imports at call time.
    """
    W, FE, C, F = world_mod.World, flow_engine.FlowEngine, controller.Controller, farm.Farm
    return [
        (topology.Topology, "shortest_path", "topology.shortest_path"),
        (C, "segment_table", "controller.segment_table"),
        (C, "ingest_report", "controller.ingest_report"),
        (C, "merged_view", "controller.merged_view"),
        (flow_engine, "qos_schedule", HOPS, _count_grants),
        (F, "cross_domain_path", "farm.cross_domain_path"),
        (F, "invalidate_caches", "farm.invalidate_caches"),
        (F, "broadcast_health_digest", "farm.broadcast_health_digest"),
        (F, "deliver_digest", "farm.deliver_digest"),
        (FE, "tick_movement", "flow_engine.tick_movement"),
        (FE, "at_risk_seqs", "flow_engine.at_risk_seqs"),
        (FE, "on_unhealthy", "flow_engine.on_unhealthy"),
        (FE, "clone_subflow", "flow_engine.clone_subflow"),
        (FE, "open_flow", "flow_engine.open_flow"),
        (flow_engine.ReorderBuffer, "absorb", "flow_engine.absorb"),
        (events.EventLog, "emit", "events.emit"),
        (bus.Bus, "publish", "bus.publish"),
        (bus.Bus, "deliver_up_to", "bus.deliver_up_to"),
        (W, "tick", "world.tick"),
        (W, "open_flow", "world.open_flow"),
        (W, "run", "world.run"),
        (W, "run_composition", "world.run_composition"),
        (W, "apply_health", "world.apply_health"),
        (sandbox, "spawn_twin", "sandbox.spawn_twin"),
        (sandbox, "evaluate", "sandbox.evaluate"),
        (sandbox, "commit", "sandbox.commit"),
        (sandbox, "apply_decision", "sandbox.apply_decision"),
        (composition.Scheduler, "schedule", "composition.schedule"),
        (composition.Scheduler, "execute", "composition.execute"),
        (scenario_mod, "parse_scenario", "scenario.parse_scenario"),
        (scenario_mod, "build_world", "scenario.build_world"),
    ]


SPAN_NAMES = [t[2] for t in targets()]


def traced_pass(workload: str, seed: int, texts: list[str]) -> PassResult:
    """Set up and run every instance with every layer entry point wrapped.
    Each instance's stats gain `unit_hops`: the units that `qos_schedule`
    granted a link during its physical ticks."""
    tracer = Tracer()
    out = PassResult(spans=tracer)
    gc.collect()
    with instrument(tracer, targets()):
        for k, text in enumerate(texts):
            label = f"{workload}:{seed}:{k}"
            tracer.begin_op(f"setup:{label}")
            scenario, world, _ = set_up(text)
            hops_before = tracer.tallies.get(HOPS, {}).get("tick", 0)
            run_instance(out, label, workload in REHEARSING, scenario, world, tracer)
            out.stats[-1]["unit_hops"] = tracer.tallies.get(HOPS, {}).get("tick", 0) - hops_before
    return out
