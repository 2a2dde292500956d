"""Static cost analysis: arithmetic intensity, boundedness, time estimates.

Kernel descriptors play the role of profiles; every judgement here reduces
to the roofline inequality of the target unit class.
"""

from __future__ import annotations

import csv
import enum
import io
from dataclasses import dataclass

from .errors import DomainError
from .machine import (MachineConfig, UnitClass, launch_latency, peak_flops,
                      ridge_point, unit_bandwidth)
from .workload import KernelDescriptor


class Boundedness(enum.Enum):
    COMPUTE_BOUND = "compute_bound"
    MEMORY_BOUND = "memory_bound"


@dataclass(frozen=True)
class Classification:
    ai: float
    bound: Boundedness
    ridge_used: float


def arithmetic_intensity(k: KernelDescriptor) -> float:
    """Flops per byte of total traffic; zero-traffic kernels are malformed."""
    total = k.bytes_read + k.bytes_written
    if total <= 0:
        raise DomainError(f"kernel {k.id} declares no memory traffic")
    return k.flops / total


def classify(k: KernelDescriptor, unit_class: UnitClass,
             cfg: MachineConfig) -> Classification:
    """Compute- or memory-bound on the given unit class; ties go compute-bound."""
    ai = arithmetic_intensity(k)
    ridge = ridge_point(unit_class, cfg)
    bound = Boundedness.COMPUTE_BOUND if ai >= ridge else Boundedness.MEMORY_BOUND
    return Classification(ai=ai, bound=bound, ridge_used=ridge)


def estimate_time(k: KernelDescriptor, cls: UnitClass,
                  cfg: MachineConfig) -> float:
    """Roofline seconds of the kernel on a unit of the class, plus its
    launch latency."""
    compute_s = k.flops / peak_flops(cls, cfg)
    memory_s = (k.bytes_read + k.bytes_written) / unit_bandwidth(cls, cfg)
    return max(compute_s, memory_s) + launch_latency(cls, cfg)


def classification_table(rows: list[tuple[str, str, KernelDescriptor]],
                         cfg: MachineConfig) -> str:
    """CSV of classifications: (family, system, descriptor) x both unit classes."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["kernel_family", "system", "unit_class", "ai", "ridge", "bound"])
    for family, system, k in rows:
        for cls in (UnitClass.CPU, UnitClass.NDP_UNIT):
            c = classify(k, cls, cfg)
            writer.writerow([family, system, cls.value,
                             repr(c.ai), repr(c.ridge_used), c.bound.value])
    return out.getvalue()
