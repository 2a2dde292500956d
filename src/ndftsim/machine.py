"""Hardware description of the CPU-NDP machine and its roofline quantities.

The default configuration models an 8-core out-of-order CPU attached to a
4x4 mesh of HBM stacks whose logic layers carry 8 in-order NDP units each.
All other modules read hardware numbers exclusively through this module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from .errors import ConfigurationError, DomainError

KIB = 1024
MIB = 1024 ** 2
GIB = 1024 ** 3


class UnitClass(enum.Enum):
    CPU = "cpu"
    NDP_UNIT = "ndp_unit"


class Location(enum.Enum):
    """Memory tier a roofline bandwidth is measured against."""

    STACK_LOCAL = "stack_local"
    CPU_LINK = "cpu_link"
    MESH_HOP = "mesh_hop"


# Transfer endpoints.  Host memory sits on the CPU side of the link, so
# HOST <-> CPU moves are free; stacks are addressed by index >= 0.
HOST = -2
CPU_SIDE = -1
CPU_LIKE = (HOST, CPU_SIDE)


@dataclass(frozen=True)
class CpuSpec:
    cores: int = 8
    freq_hz: float = 3e9
    issue_width: int = 4
    fma_factor: int = 2          # flops per issue slot (fused multiply-add)
    link_bandwidth: float = 64e9  # bytes/s between CPU and the stack mesh
    launch_latency_s: float = 2e-6


@dataclass(frozen=True)
class NdpSpec:
    stacks_x: int = 4
    stacks_y: int = 4
    units_per_stack: int = 8
    cores_per_unit: int = 2
    freq_hz: float = 2e9
    capacity_per_unit: int = 512 * MIB
    spm_per_core: int = 16 * KIB
    spm_per_stack: int = 256 * KIB
    launch_latency_s: float = 1e-6


@dataclass(frozen=True)
class HbmSpec:
    channels_per_stack: int = 8
    bus_width_bits: int = 128
    rate_hz: float = 1e9
    ddr_factor: int = 2
    total_capacity: int = 64 * GIB


@dataclass(frozen=True)
class MeshSpec:
    mesh_link_bandwidth: float = 32e9
    hop_latency_s: float = 100e-9


@dataclass(frozen=True)
class MachineConfig:
    """Immutable machine description; validate() before sharing.

    ``cxt_s`` is the constant per-handoff cost charged whenever a data edge
    crosses the CPU/NDP boundary.  It is a calibration constant, not a
    datasheet number: it aggregates everything a boundary handoff costs
    (synchronization, context staging) at whole-application granularity.
    """

    cpu: CpuSpec = field(default_factory=CpuSpec)
    ndp: NdpSpec = field(default_factory=NdpSpec)
    hbm: HbmSpec = field(default_factory=HbmSpec)
    interconnect: MeshSpec = field(default_factory=MeshSpec)
    cxt_s: float = 8.0

    @property
    def total_stacks(self) -> int:
        return self.ndp.stacks_x * self.ndp.stacks_y

    @property
    def total_units(self) -> int:
        return self.total_stacks * self.ndp.units_per_stack

    @property
    def stack_capacity(self) -> int:
        return self.ndp.units_per_stack * self.ndp.capacity_per_unit

    def validate(self) -> list[str]:
        """Return a list of '<key>: <problem>' diagnostics; empty means valid."""
        bad: list[str] = []

        def check(cond: bool, key: str, msg: str) -> None:
            if not cond:
                bad.append(f"{key}: {msg}")

        c, n, h, m = self.cpu, self.ndp, self.hbm, self.interconnect
        check(c.cores >= 1, "machine.cpu.cores", "must be >= 1")
        check(c.freq_hz > 0, "machine.cpu.freq_hz", "must be > 0")
        check(c.issue_width >= 1, "machine.cpu.issue_width", "must be >= 1")
        check(c.fma_factor >= 1, "machine.cpu.fma_factor", "must be >= 1")
        check(c.link_bandwidth > 0, "machine.cpu.link_bandwidth", "must be > 0")
        check(c.launch_latency_s >= 0, "machine.cpu.launch_latency_s", "must be >= 0")
        check(n.stacks_x >= 1, "machine.ndp.stacks_x", "must be >= 1")
        check(n.stacks_y >= 1, "machine.ndp.stacks_y", "must be >= 1")
        check(n.units_per_stack >= 1, "machine.ndp.units_per_stack", "must be >= 1")
        check(n.cores_per_unit >= 1, "machine.ndp.cores_per_unit", "must be >= 1")
        check(n.freq_hz > 0, "machine.ndp.freq_hz", "must be > 0")
        check(n.capacity_per_unit >= 1, "machine.ndp.capacity_per_unit", "must be >= 1")
        check(n.spm_per_core >= 1, "machine.ndp.spm_per_core", "must be >= 1")
        check(n.spm_per_stack >= n.spm_per_core, "machine.ndp.spm_per_stack",
              "must be >= spm_per_core")
        check(n.launch_latency_s >= 0, "machine.ndp.launch_latency_s", "must be >= 0")
        check(h.channels_per_stack >= 1, "machine.hbm.channels_per_stack", "must be >= 1")
        check(h.bus_width_bits >= 8, "machine.hbm.bus_width_bits", "must be >= 8")
        check(h.rate_hz > 0, "machine.hbm.rate_hz", "must be > 0")
        check(h.ddr_factor >= 1, "machine.hbm.ddr_factor", "must be >= 1")
        check(m.mesh_link_bandwidth > 0, "machine.interconnect.mesh_link_bandwidth",
              "must be > 0")
        check(m.hop_latency_s >= 0, "machine.interconnect.hop_latency_s", "must be >= 0")
        check(self.cxt_s >= 0, "machine.cxt_s", "must be >= 0")
        ndp_total = self.total_stacks * n.units_per_stack * n.capacity_per_unit
        check(ndp_total == h.total_capacity, "machine.hbm.total_capacity",
              f"stacks*units*capacity_per_unit = {ndp_total} must equal total_capacity")
        return bad

    def validated(self) -> "MachineConfig":
        bad = self.validate()
        if bad:
            raise ConfigurationError.from_diagnostic(bad[0])
        return self

    def with_cxt(self, cxt_s: float) -> "MachineConfig":
        return replace(self, cxt_s=cxt_s)


@dataclass(frozen=True, eq=True)
class UnitRef:
    """Identity of an execution unit: the whole CPU, or one NDP unit."""

    cls: UnitClass
    stack_id: int | None = None
    unit_id: int | None = None

    def __post_init__(self):
        if self.cls is UnitClass.CPU:
            if self.stack_id is not None or self.unit_id is not None:
                raise DomainError("CPU unit carries no stack/unit index")
        else:
            if self.stack_id is None or self.unit_id is None:
                raise DomainError("NDP unit needs stack_id and unit_id")
        object.__setattr__(self, "_hash",
                           hash((self.cls, self.stack_id, self.unit_id)))

    def __hash__(self) -> int:  # hot path: precomputed at construction
        return self._hash

    @staticmethod
    def cpu() -> "UnitRef":
        return UnitRef(UnitClass.CPU)

    @staticmethod
    def ndp(stack_id: int, unit_id: int) -> "UnitRef":
        return UnitRef(UnitClass.NDP_UNIT, stack_id, unit_id)

    def location(self) -> int:
        """Transfer endpoint this unit reads/writes: CPU_SIDE or its stack id."""
        return CPU_SIDE if self.cls is UnitClass.CPU else int(self.stack_id)

    def check_against(self, cfg: MachineConfig) -> None:
        if self.cls is UnitClass.NDP_UNIT:
            if not (0 <= self.stack_id < cfg.total_stacks):
                raise DomainError(f"stack_id {self.stack_id} out of range")
            if not (0 <= self.unit_id < cfg.ndp.units_per_stack):
                raise DomainError(f"unit_id {self.unit_id} out of range")

    def __str__(self) -> str:
        if self.cls is UnitClass.CPU:
            return "cpu"
        return f"ndp[{self.stack_id}:{self.unit_id}]"


def peak_flops(cls: UnitClass, cfg: MachineConfig) -> float:
    """Peak throughput of one unit of the given class.

    The CPU aggregates all its cores; an NDP unit aggregates its (in-order,
    scalar, non-FMA) cores.  Callers sum per stack or per machine themselves.
    """
    if cls is UnitClass.CPU:
        c = cfg.cpu
        return c.cores * c.freq_hz * c.issue_width * c.fma_factor
    n = cfg.ndp
    return n.cores_per_unit * n.freq_hz * 1 * 1


def bandwidth(location: Location, cfg: MachineConfig) -> float:
    """Bytes/s of a memory tier.

    STACK_LOCAL is derived from the HBM channel geometry; the other two are
    configured link speeds passed through unchanged.
    """
    if location is Location.STACK_LOCAL:
        h = cfg.hbm
        return h.channels_per_stack * (h.bus_width_bits / 8) * h.rate_hz * h.ddr_factor
    if location is Location.CPU_LINK:
        return cfg.cpu.link_bandwidth
    return cfg.interconnect.mesh_link_bandwidth


def unit_bandwidth(cls: UnitClass, cfg: MachineConfig) -> float:
    """Bandwidth of the unit's nearest memory.

    The CPU sees the whole machine through its link; an NDP unit gets an
    even share of its stack's local bandwidth.
    """
    if cls is UnitClass.CPU:
        return bandwidth(Location.CPU_LINK, cfg)
    return bandwidth(Location.STACK_LOCAL, cfg) / cfg.ndp.units_per_stack


def ridge_point(cls: UnitClass, cfg: MachineConfig) -> float:
    """Arithmetic intensity at which the unit turns compute-bound."""
    bw = unit_bandwidth(cls, cfg)
    if bw <= 0:
        raise DomainError("ridge point undefined for zero bandwidth")
    peak = peak_flops(cls, cfg)
    if peak == 0:
        return 0.0
    return peak / bw


def attainable_perf(cls: UnitClass, ai: float, cfg: MachineConfig) -> float:
    """Roofline ceiling min(peak, ai * bandwidth) for the unit class."""
    if ai < 0:
        raise DomainError("arithmetic intensity must be >= 0")
    return min(peak_flops(cls, cfg), ai * unit_bandwidth(cls, cfg))


def launch_latency(cls: UnitClass, cfg: MachineConfig) -> float:
    return cfg.cpu.launch_latency_s if cls is UnitClass.CPU else cfg.ndp.launch_latency_s


def stack_coords(stack_id: int, cfg: MachineConfig) -> tuple[int, int]:
    return stack_id % cfg.ndp.stacks_x, stack_id // cfg.ndp.stacks_x


def mesh_hops(src_stack: int, dst_stack: int, cfg: MachineConfig) -> int:
    """Manhattan hop count between two stacks on the mesh."""
    sx, sy = stack_coords(src_stack, cfg)
    dx, dy = stack_coords(dst_stack, cfg)
    return abs(sx - dx) + abs(sy - dy)
