"""Deterministic simulator for a heterogeneous CPU + near-data-processing
machine running an excited-state calculation pipeline: roofline kernel
classification, cost-aware function-level offloading, and a shared-block
pseudopotential runtime with hierarchical inter-stack communication.
"""

from importlib import import_module

from .machine import (Location, MachineConfig, UnitClass, UnitRef,
                      attainable_perf, bandwidth, peak_flops, ridge_point)
from .workload import (CalibrationFixture, KernelDescriptor, KernelFamily,
                       PseudoMode, SystemSpec, TaskGraph, build_taskgraph,
                       derive_system, kernel_cost)
from .analyzer import (Boundedness, Classification, arithmetic_intensity,
                       classify, estimate_time)
from .scheduler import (OverheadBreakdown, PlanContext, Schedule, plan,
                        schedule_from_placements, scheduling_overhead,
                        transfer_cost)
from .costmodel import Arch, CommStats, SystemSize, footprint_model
from .simulator import SimulationReport, compare, simulate

__version__ = "0.1.0"

# Resolved on first access (PEP 562): importing cli here would put
# ndftsim.cli in sys.modules before `python -m ndftsim.cli` runs it, and
# importing runtime would load numpy, which only the kernel needs.
_LAZY_EXPORTS = {
    "ExperimentConfig": "cli", "default_config": "cli",
    "run_experiment": "cli", "validate_config": "cli",
    "BlockDirectory": "runtime", "MemStats": "runtime",
    "NdpRuntime": "runtime", "SharedBlock": "runtime",
    "run_pseudopotential": "runtime",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        return getattr(import_module(f".{_LAZY_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Arch", "BlockDirectory", "Boundedness", "CalibrationFixture",
    "Classification", "CommStats", "ExperimentConfig", "KernelDescriptor",
    "KernelFamily", "Location", "MachineConfig", "MemStats", "NdpRuntime",
    "OverheadBreakdown", "PlanContext", "PseudoMode", "Schedule",
    "SharedBlock",
    "SimulationReport", "SystemSize", "SystemSpec", "TaskGraph", "UnitClass",
    "UnitRef", "arithmetic_intensity", "attainable_perf", "bandwidth",
    "build_taskgraph", "classify", "compare",
    "default_config", "derive_system", "estimate_time", "footprint_model",
    "kernel_cost", "peak_flops", "plan", "ridge_point", "run_experiment",
    "run_pseudopotential", "schedule_from_placements",
    "scheduling_overhead", "simulate", "transfer_cost",
    "validate_config",
]
