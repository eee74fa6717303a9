"""Parallel runtime substrate: atomics, the interleaving scheduler, faults,
cost model."""

from repro.parallel.atomics import (
    INVALID_DEGREE,
    AtomicPairArray,
    OpCounter,
)
from repro.parallel.costmodel import (
    ParallelMachine,
    projected_speedup,
    projected_time,
)
from repro.parallel.faults import (
    FaultCounters,
    FaultInjector,
    FaultPlan,
    FaultyAtomicPairArray,
)
from repro.parallel.scheduler import InterleavingScheduler, drive

__all__ = [
    "INVALID_DEGREE",
    "AtomicPairArray",
    "OpCounter",
    "FaultCounters",
    "FaultInjector",
    "FaultPlan",
    "FaultyAtomicPairArray",
    "InterleavingScheduler",
    "drive",
    "ParallelMachine",
    "projected_time",
    "projected_speedup",
]
