"""Deterministic control-plane simulator: federated controllers over a
tenant-sliced topology, subflow clone/recompose flow resilience, load-aware
service-composition scheduling, and a digital-twin sandbox."""

from .topology import Health, HealthState, Link, Node, NodeKind, Topology
from .controller import (
    Controller,
    HealthMonitor,
    Priority,
    SliceTable,
    TenantSlice,
    Verdict,
    qos_schedule,
)
from .farm import Farm
from .flow_engine import CloneCase, CloneDecision, Flow, FlowEngine, FlowState, ReorderBuffer, Unit
from .composition import CompositionDag, Scheduler, ServiceRegistry, speedup_curve
from .sandbox import Decision, MetricsDelta, commit, evaluate, spawn_twin
from .scenario import Scenario, build_world, parse_scenario, run_scenario
from .world import World, WorldOptions
from .bus import Bus
from . import errors

__all__ = [
    "Bus",
    "CloneCase",
    "CloneDecision",
    "CompositionDag",
    "Controller",
    "Decision",
    "Farm",
    "Flow",
    "FlowEngine",
    "FlowState",
    "Health",
    "HealthMonitor",
    "HealthState",
    "Link",
    "MetricsDelta",
    "Node",
    "NodeKind",
    "Priority",
    "ReorderBuffer",
    "Scenario",
    "Scheduler",
    "ServiceRegistry",
    "SliceTable",
    "TenantSlice",
    "Topology",
    "Unit",
    "Verdict",
    "World",
    "WorldOptions",
    "build_world",
    "commit",
    "errors",
    "evaluate",
    "parse_scenario",
    "qos_schedule",
    "run_scenario",
    "spawn_twin",
    "speedup_curve",
]
