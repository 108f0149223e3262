"""Scenario documents: JSON with fixed sections, checked in two steps that
report every violation, not just the first.

1. Shape: each section and field has the JSON type `_SHAPE` gives it
   (integers are not booleans or floats). Entries that fail skip step 2.
2. Build: `build_world` makes every constructor call and turns each
   `SdcpsError` into one violation, so each rule the simulator enforces
   (domain partition, slice capacity, DAG shape, option ranges, ...) is
   written once, in the module that owns it.

Only the document's own rules live here: horizon >= 1, unique tenant ids,
and each flow's tenant, endpoints, units, start tick and slice connectivity.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

from .composition import CompositionDag, ServiceRegistry
from .controller import Priority
from .errors import ScenarioSyntaxError, ScenarioValidationError, SdcpsError
from .topology import Health, HealthState, Node, NodeId, NodeKind
from .world import World, WorldOptions


@dataclass
class Scenario:
    seed: int = 0
    horizon: int = 1
    nodes: list[dict] = field(default_factory=list)
    links: list[dict] = field(default_factory=list)
    domains: list[dict] = field(default_factory=list)
    tenants: list[dict] = field(default_factory=list)
    services: list[dict] = field(default_factory=list)
    dag: Optional[dict] = None
    flows: list[dict] = field(default_factory=list)
    faults: list[dict] = field(default_factory=list)
    options: dict = field(default_factory=dict)
    world: Optional[World] = field(default=None, repr=False, compare=False)


# -- shape -------------------------------------------------------------------------

def _is_int(v) -> bool:
    return type(v) is int


def _is_num(v) -> bool:
    return type(v) is float and math.isfinite(v) or type(v) is int and abs(v) <= sys.float_info.max


def _is_str(v) -> bool:
    return type(v) is str


def _one_of(values) -> tuple:
    return f"one of {sorted(values)}", lambda v: _is_str(v) and v in values


def _rows(*types) -> Callable:
    """A list of fixed-length lists with one JSON type per position."""
    return lambda v: type(v) is list and all(
        type(row) is list and tuple(map(type, row)) == types for row in v
    )


_HEALTH_PARAM = {"healthy": None, "failed": None,
                 "congested": "slowdown", "malicious": "drop_prob"}


def _is_health(v) -> bool:
    if _is_str(v):
        return v in ("healthy", "failed")
    kind = v.get("kind") if type(v) is dict else None
    if not _is_str(kind) or kind not in _HEALTH_PARAM:
        return False
    param = _HEALTH_PARAM[kind]
    return param is None or _is_num(v.get(param))


_INT = ("an integer", _is_int)
_NUM = ("a finite number", _is_num)
_STR = ("a string", _is_str)
_IDS = ("a list of integers", lambda v: type(v) is list and all(map(_is_int, v)))

# section -> ({field: (expected, check)}, required fields); "dag" and
# "options" are single objects, every other section a list of them
_SHAPE = {
    "nodes": ({"id": _INT, "kind": _one_of({k.value for k in NodeKind}),
               "compute": _INT}, {"id"}),
    "links": ({"a": _INT, "b": _INT, "latency": _INT, "capacity": _INT}, {"a", "b"}),
    "domains": ({"id": _INT, "nodes": _IDS}, {"id"}),
    "tenants": ({"id": _INT, "priority": _one_of({p.name.lower() for p in Priority}),
                 "share": _INT,
                 "links": ("a list of [a, b] integer pairs", _rows(int, int))},
                {"id"}),
    "services": ({"name": _STR, "cost": _INT, "providers": _IDS}, {"name"}),
    "dag": ({"tasks": ("a list of [task, service] string pairs", _rows(str, str)),
             "edges": ("a list of [producer, consumer, size] triples",
                       _rows(str, str, int))}, set()),
    "flows": ({"tenant": _INT, "origin": _INT, "dest": _INT, "units": _INT, "start": _INT},
              {"tenant", "origin", "dest"}),
    "faults": ({"node": _INT, "tick": _INT,
                "health": ('"healthy", "failed" or a {"kind": ...} object', _is_health)},
               {"node"}),
    "options": ({"w": _INT, "digest_period": _INT, "congestion_threshold": _NUM,
                 "materialize_transfers": ("true or false", lambda v: type(v) is bool),
                 "transfer_tenant": _INT,
                 "sweep": ("an object of integers",
                           lambda v: type(v) is dict and all(map(_is_int, v.values())))},
                set()),
}

# scenario option -> WorldOptions field; unset options keep its defaults
_OPTIONS = {"w": "window", "digest_period": "digest_period",
            "congestion_threshold": "congestion_threshold",
            "materialize_transfers": "materialize_transfers",
            "transfer_tenant": "transfer_tenant"}


def _entry_ok(where: str, entry, fields: dict, required: set, problems: list[str]) -> bool:
    """True if entry is an object with well-typed fields; otherwise append
    one violation per problem."""
    if type(entry) is not dict:
        problems.append(f"{where}: {reprlib.repr(entry)} is not an object")
        return False
    before = len(problems)
    for name in sorted(required - entry.keys()):
        problems.append(f"{where}: {name!r} is missing")
    for name, (expected, ok) in fields.items():
        if name in entry and not ok(entry[name]):
            problems.append(f"{where}.{name}: {reprlib.repr(entry[name])} is not {expected}")
    return len(problems) == before


def _check_shape(doc: dict, problems: list[str]) -> dict:
    """Append one violation per ill-typed value; return the Scenario fields
    of the well-typed part of the document."""
    top = {"seed": _INT, "horizon": _INT}
    top_ok = _entry_ok("scenario", doc, top, set(), problems)
    out = {k: doc[k] for k in top if top_ok and k in doc}
    for key, (fields, required) in _SHAPE.items():
        value = doc.get(key)
        if key not in doc or (key == "dag" and value is None):
            continue
        if key in ("dag", "options"):
            if _entry_ok(key, value, fields, required, problems):
                out[key] = value
        elif type(value) is not list:
            problems.append(f"{key}: {reprlib.repr(value)} is not a list")
        else:
            out[key] = [e for i, e in enumerate(value)
                        if _entry_ok(f"{key}[{i}]", e, fields, required, problems)]
    return out


def parse_health(spec) -> Health:
    """Health from a value that passed the shape check."""
    if _is_str(spec):
        return Health(HealthState(spec))
    param = _HEALTH_PARAM[spec["kind"]]
    params = {param: float(spec[param])} if param else {}
    return Health(HealthState(spec["kind"]), **params)


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario document; check its shape, then build its world."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioSyntaxError(exc.lineno, exc.msg) from exc
    except (RecursionError, ValueError) as exc:
        # too deeply nested, or an integer literal too long to convert; the
        # parser gives no position, so the error names the document's line 1
        raise ScenarioSyntaxError(1, f"unparseable JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioSyntaxError(1, "scenario must be a JSON object")

    problems: list[str] = []
    scenario = Scenario(**_check_shape(doc, problems))
    try:
        scenario.world = build_world(scenario)
    except ScenarioValidationError as exc:
        problems += exc.violations
    if problems:
        raise ScenarioValidationError(problems)
    return scenario


def build_world(scenario: Scenario, seed: Optional[int] = None) -> World:
    """Materialize a shape-checked scenario into a ready-to-run world.

    Every constructor call is made even after one fails. Each SdcpsError
    becomes one violation, and any violation raises ScenarioValidationError
    with the full list. The first call at the parsed world's seed returns it.
    """
    if scenario.world and scenario.world.seed == (scenario.seed if seed is None else seed):
        world, scenario.world = scenario.world, None
        return world
    problems: list[str] = []

    def attempt(where: str, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SdcpsError as exc:
            problems.append(f"{where}: {exc}")
            return None

    if scenario.horizon < 1:
        problems.append("horizon must be >= 1")
    opts = attempt("options", WorldOptions, **{
        attr: scenario.options[key] for key, attr in _OPTIONS.items() if key in scenario.options
    })
    world = World(seed=seed if seed is not None else scenario.seed,
                  options=opts or WorldOptions())
    for i, n in enumerate(scenario.nodes):
        kind = NodeKind(n.get("kind", "switch"))
        compute = n.get("compute", 0 if kind is NodeKind.SWITCH else 1)
        node = attempt(f"nodes[{i}]", Node, n["id"], kind, compute_capacity=compute)
        if node is not None:
            attempt(f"nodes[{i}]", world.add_node, node)
    for i, l in enumerate(scenario.links):
        attempt(f"links[{i}]", world.add_link,
                l["a"], l["b"], l.get("latency", 1), l.get("capacity", 1))
    for i, d in enumerate(scenario.domains):
        attempt(f"domains[{i}]", world.register_domain, d["id"], d.get("nodes", []))
    tenant_ids: set[int] = set()
    for i, t in enumerate(scenario.tenants):
        if t["id"] in tenant_ids:
            problems.append(f"tenants[{i}]: tenant {t['id']} declared twice")
            continue
        tenant_ids.add(t["id"])
        attempt(f"tenants[{i}]", world.allocate_slice, t["id"],
                [tuple(p) for p in t.get("links", [])], t.get("share", 1),
                Priority.parse(t.get("priority", "bronze")))
    if scenario.services or scenario.dag is not None:
        world.registry = ServiceRegistry(world.topology)
        for i, svc in enumerate(scenario.services):
            attempt(f"services[{i}]", world.registry.register_service,
                    svc["name"], svc.get("cost", 1), svc.get("providers", []))
        if scenario.dag is not None:
            dag = attempt("dag", CompositionDag, scenario.dag.get("tasks", []),
                          scenario.dag.get("edges", []))
            if dag is not None:
                attempt("dag", world.set_composition, world.registry, dag)
    reach: dict[tuple[int, NodeId], dict[NodeId, int]] = {}  # slice-connected groups
    for i, f in enumerate(scenario.flows):
        where, tenant, origin, dest = f"flows[{i}]", f["tenant"], f["origin"], f["dest"]
        units, start = f.get("units", 1), f.get("start", 0)
        if tenant not in tenant_ids:
            problems.append(f"{where}: unknown tenant {tenant}")
            continue
        if units < 0:
            problems.append(f"{where}: units must be >= 0")
        if start < 0:
            problems.append(f"{where}: start tick must be >= 0")
        if origin not in world.topology.nodes or dest not in world.topology.nodes:
            problems.append(f"{where}: endpoints {[origin, dest]} must be declared nodes")
            continue
        sl = world.slices.slices.get(tenant)
        if sl is None:
            continue  # the failed allocation is already a violation
        if (tenant, origin) not in reach:
            group = world.topology.hops(origin, sl.links)
            reach.update(dict.fromkeys([(tenant, n) for n in group], group))
        if dest not in reach[tenant, origin]:
            problems.append(
                f"{where}: tenant {tenant} slice does not connect {origin} to {dest}"
            )
        world.schedule_flow(tenant, origin, dest, units, start)
    for i, fault in enumerate(scenario.faults):
        health = attempt(f"faults[{i}]", parse_health, fault.get("health", "failed"))
        if health is not None:
            attempt(f"faults[{i}]", world.schedule_fault,
                    fault.get("tick", 0), fault["node"], health)
    attempt("domains", world.finish_setup)
    if problems:
        raise ScenarioValidationError(problems)
    return world


def run_scenario(scenario: Scenario, seed: Optional[int] = None):
    """Run a scenario to its horizon; returns (world, trace hash, summary)."""
    world = build_world(scenario, seed=seed)
    world.run_composition()  # nothing without a task graph
    world.run(scenario.horizon)
    summary = world.summary()
    if world.composition_report is not None:
        summary["composition"] = {
            "makespan": world.composition_report.makespan,
            "assignments": {
                t: list(a) for t, a in sorted(world.composition_report.assignments.items())
            },
            "replaced": world.composition_report.replaced,
        }
    return world, world.trace_hash(), summary
