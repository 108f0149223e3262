"""Deterministic scenario generator for the benchmark workloads.

Every workload is drawn from the same family: an n x n grid (latency 1,
capacity 8) cut into horizontal-band domains, two tenants (gold and silver)
each holding share 4 on every link, seeded flows and seeded `failed` faults.
Flow endpoints are drawn uniformly among node pairs at a fixed grid
distance, so seeds differ little in transport work. Fault nodes are
drawn uniformly over all nodes, flow endpoints included, so a flow can lose
its own origin or destination.

A workload runs `instances` independent scenarios of its shape; averaging
over them keeps one seed's faults and endpoints from setting the whole
run's cost. The same (workload, seed, instance) always yields
byte-identical JSON text.

    python3 perfbench/gen.py federated-admission 1 0 > scenario.json
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass

CAPACITY = 8
SHARE = 4


@dataclass(frozen=True)
class Shape:
    side: int           # grid is side x side nodes
    bands: int          # horizontal-band domains, side // bands rows each
    flows: int
    units: int
    distance: int       # grid (Manhattan) distance between a flow's endpoints
    start: tuple        # flows start at a steady rate over this tick range
    faults: int
    fault_ticks: tuple  # fault ticks drawn uniformly from this range
    horizon: int
    instances: int
    dag: bool = False


SHAPES = {
    "federated-admission": Shape(
        side=10, bands=5, flows=50, units=2, distance=7, start=(0, 50),
        faults=3, fault_ticks=(5, 50), horizon=60, instances=2,
    ),
    "bulk-transport": Shape(
        side=10, bands=2, flows=20, units=250, distance=7, start=(0, 80),
        faults=2, fault_ticks=(10, 100), horizon=120, instances=1,
    ),
    "twin-rehearsal": Shape(
        side=6, bands=3, flows=12, units=20, distance=5, start=(0, 80),
        faults=3, fault_ticks=(5, 80), horizon=110, instances=2, dag=True,
    ),
}

SERVICES = ("sense", "fuse", "act")
PROVIDERS_PER_SERVICE = 4
TASKS_PER_LAYER = 4


def _grid_links(side: int) -> list[tuple[int, int]]:
    links = []
    for r in range(side):
        for c in range(side):
            n = r * side + c
            if c + 1 < side:
                links.append((n, n + 1))
            if r + 1 < side:
                links.append((n, n + side))
    return links


def _interior(side: int) -> list[int]:
    """Nodes with four neighbours. At most three faults can never cut one
    off, so composition always finds a live, reachable provider."""
    return [r * side + c for r in range(1, side - 1) for c in range(1, side - 1)]


def generate(workload: str, seed: int, instance: int = 0) -> str:
    """Return the scenario JSON text for one instance of a workload."""
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}:{instance}")
    side = shape.side
    n_nodes = side * side
    links = _grid_links(side)
    rows_per_band = side // shape.bands

    providers: dict[str, list[int]] = {}
    if shape.dag:
        picked = rng.sample(_interior(side), len(SERVICES) * PROVIDERS_PER_SERVICE)
        for i, name in enumerate(SERVICES):
            providers[name] = sorted(
                picked[i * PROVIDERS_PER_SERVICE:(i + 1) * PROVIDERS_PER_SERVICE]
            )
    compute = {p: rng.randint(1, 3) for ps in providers.values() for p in ps}

    nodes = []
    for n in range(n_nodes):
        if n in compute:
            nodes.append({"id": n, "kind": "surrogate", "compute": compute[n]})
        else:
            nodes.append({"id": n, "kind": "switch"})

    pairs = [
        (a, b) for a in range(n_nodes) for b in range(n_nodes)
        if abs(a // side - b // side) + abs(a % side - b % side) == shape.distance
    ]
    flows = []
    for i in range(shape.flows):
        origin, dest = rng.choice(pairs)
        flows.append({
            "tenant": i % 2,
            "origin": origin,
            "dest": dest,
            "units": shape.units,
            "start": shape.start[0] + i * (shape.start[1] - shape.start[0]) // shape.flows,
        })

    faults = [
        {"tick": rng.randint(*shape.fault_ticks), "node": node, "health": "failed"}
        for node in rng.sample(range(n_nodes), shape.faults)
    ]

    doc = {
        "seed": seed,
        "horizon": shape.horizon,
        "nodes": nodes,
        "links": [
            {"a": a, "b": b, "latency": 1, "capacity": CAPACITY} for a, b in links
        ],
        "domains": [
            {
                "id": d,
                "nodes": list(range(d * rows_per_band * side, (d + 1) * rows_per_band * side)),
            }
            for d in range(shape.bands)
        ],
        "tenants": [
            {"id": 0, "priority": "gold", "share": SHARE, "links": [list(l) for l in links]},
            {"id": 1, "priority": "silver", "share": SHARE, "links": [list(l) for l in links]},
        ],
        "flows": flows,
        "faults": faults,
        "options": {"w": 3, "digest_period": 5},
    }
    if shape.dag:
        doc["services"] = [
            {"name": name, "cost": rng.randint(2, 5), "providers": providers[name]}
            for name in SERVICES
        ]
        layers = [
            [f"{name}{j}" for j in range(TASKS_PER_LAYER)] for name in SERVICES
        ]
        doc["dag"] = {
            "tasks": [[t, name] for name, layer in zip(SERVICES, layers) for t in layer],
            "edges": [
                [a, b, rng.randint(1, 3)]
                for upper, lower in zip(layers, layers[1:])
                for b in lower
                for a in sorted(rng.sample(upper, 2))
            ],
        }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def generate_all(workload: str, seed: int) -> list[str]:
    """Every instance of a workload for one seed."""
    return [generate(workload, seed, k) for k in range(SHAPES[workload].instances)]


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in SHAPES:
        sys.exit(f"usage: gen.py {{{'|'.join(SHAPES)}}} SEED INSTANCE")
    sys.stdout.write(generate(sys.argv[1], int(sys.argv[2]), int(sys.argv[3])))
