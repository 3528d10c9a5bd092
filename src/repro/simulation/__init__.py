"""Discrete-time PCN simulation substrate.

Single-terminal engine (chain-faithful slot semantics), a batched
NumPy engine for the distance strategy, multi-terminal network with
base stations and a location register, cost metering with confidence
intervals, and replicated analytic-vs-simulation validation with
optional process-pool parallelism.  The sharded fleet engine
(:mod:`repro.simulation.fleet`) scales the population axis to millions
of heterogeneous terminals with streaming metric merges and
fleet-granularity checkpoints.
"""

from .engine import SimulationEngine
from .events import EventLog, MoveEvent, PagingEvent, UpdateEvent
from .fleet import (
    FleetResult,
    FleetShardEngine,
    FleetSpec,
    ShardSnapshot,
    fleet_report,
    run_fleet,
    shard_bounds,
)
from .metrics import CostMeter, MeterColumns, MeterSnapshot, z_score
from .network import BaseStation, LocationRegister, MobileTerminal, PCNetwork
from .runner import (
    ModelComparison,
    PartialReplication,
    ReplicatedResult,
    run_replicated,
    run_until_precision,
    validate_against_model,
)
from .vectorized import VectorizedDistanceEngine, throughput_report

__all__ = [
    "BaseStation",
    "CostMeter",
    "EventLog",
    "FleetResult",
    "FleetShardEngine",
    "FleetSpec",
    "LocationRegister",
    "MeterColumns",
    "MeterSnapshot",
    "MobileTerminal",
    "ModelComparison",
    "MoveEvent",
    "PCNetwork",
    "PagingEvent",
    "PartialReplication",
    "ReplicatedResult",
    "ShardSnapshot",
    "SimulationEngine",
    "UpdateEvent",
    "VectorizedDistanceEngine",
    "fleet_report",
    "run_fleet",
    "run_replicated",
    "shard_bounds",
    "run_until_precision",
    "throughput_report",
    "validate_against_model",
    "z_score",
]

