"""Hardware description of the CPU-NDP machine and its roofline quantities.

The default configuration models an 8-core out-of-order CPU attached to a
4x4 mesh of HBM stacks whose logic layers carry 8 in-order NDP units each.
All other modules read hardware numbers exclusively through this module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Annotated, NamedTuple

from .errors import (ConfigurationError, DomainError, NonNegFloat, PosFloat,
                     PosInt, config_errors)

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
    cores: PosInt = 8
    freq_hz: PosFloat = 3e9
    issue_width: PosInt = 4
    fma_factor: PosInt = 2          # flops per issue slot (fused multiply-add)
    link_bandwidth: PosFloat = 64e9  # bytes/s between CPU and the stack mesh
    launch_latency_s: NonNegFloat = 2e-6


@dataclass(frozen=True)
class NdpSpec:
    stacks_x: PosInt = 4
    stacks_y: PosInt = 4
    units_per_stack: PosInt = 8
    cores_per_unit: PosInt = 2
    freq_hz: PosFloat = 2e9
    capacity_per_unit: PosInt = 512 * MIB
    spm_per_stack: PosInt = 256 * KIB
    launch_latency_s: NonNegFloat = 1e-6


@dataclass(frozen=True)
class HbmSpec:
    channels_per_stack: PosInt = 8
    bus_width_bits: Annotated[int, ">= 8"] = 128
    rate_hz: PosFloat = 1e9
    ddr_factor: PosInt = 2


@dataclass(frozen=True)
class MeshSpec:
    mesh_link_bandwidth: PosFloat = 32e9
    hop_latency_s: NonNegFloat = 100e-9


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
    cxt_s: NonNegFloat = 8.0

    @property
    def total_stacks(self) -> int:
        return self.ndp.stacks_x * self.ndp.stacks_y

    @property
    def total_units(self) -> int:
        return self.total_stacks * self.ndp.units_per_stack

    @property
    def stack_capacity(self) -> int:
        return self.ndp.units_per_stack * self.ndp.capacity_per_unit

    @property
    def total_capacity(self) -> int:
        """NDP memory of the whole machine, fixed by its geometry."""
        return self.total_stacks * self.stack_capacity

    @cached_property
    def links(self) -> "LinkModel":
        """The machine's link model, built once per config."""
        return LinkModel(self)

    def validate(self) -> list[str]:
        """Return a list of '<key>: <problem>' diagnostics; empty means valid."""
        return config_errors(self, "machine")

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


class PathKind(enum.Enum):
    LOCAL = "local"
    CPU_LINK = "cpu_link"
    MESH = "mesh"


class Path(NamedTuple):
    """How a move between two endpoints travels.

    ``route`` lists the link ids the move occupies, X then Y on the mesh;
    ``name`` is the timeline name of the move (its first link).
    """

    kind: PathKind
    bw: float        # bytes/s of every link on the route
    latency: float   # seconds an uncontended move adds to n / bw
    route: tuple[int, ...]
    name: str

    def seconds(self, n_bytes: float) -> float:
        """Uncontended price of moving n_bytes along the path."""
        if self.kind is PathKind.LOCAL:
            return 0.0
        return n_bytes / self.bw + self.latency


LOCAL_PATH = Path(PathKind.LOCAL, 0.0, 0.0, (), "local")


class LinkModel:
    """The one model of where moves go and what they cost.

    Endpoints are HOST, CPU_SIDE and the stack ids 0..total_stacks-1.  Host
    memory sits on the CPU side, so HOST <-> CPU_SIDE and same-endpoint
    moves are local and free.  A move with one CPU-side end crosses the CPU
    link (link id 0, latency one hop); a stack-to-stack move takes the
    X-then-Y Manhattan route over directed mesh links (latency one hop per
    link).  Anything else raises DomainError.

    The two users charge the same route differently.  The planner prices a
    move cut-through, ``n / bw + hops * hop`` (Path.seconds): a 3-hop 1 MB
    move costs 31.55 us.  The simulator's link FIFOs replay it
    store-and-forward, each link in turn taking ``n / bw + hop``: the same
    move occupies the mesh for 94.05 us uncontended.  This is part of
    the model's planner-vs-simulator gap, not an accident of either caller.

    Paths are built on first use and kept, one per ordered endpoint pair.
    """

    CPU_LINK_ID = 0

    def __init__(self, cfg: MachineConfig):
        self.cfg = cfg
        self.total_stacks = cfg.total_stacks
        self.hop = cfg.interconnect.hop_latency_s
        # the CPU link, then four directed links (+x, -x, +y, -y) per stack
        self.n_links = 1 + 4 * self.total_stacks
        self._paths: dict[tuple[int, int], Path] = {}

    def path(self, src: int, dst: int) -> Path:
        found = self._paths.get((src, dst))
        if found is None:
            found = self._paths[(src, dst)] = self._build(src, dst)
        return found

    def _build(self, src: int, dst: int) -> Path:
        for loc in (src, dst):
            if not HOST <= loc < self.total_stacks:
                raise DomainError(
                    f"unknown location {loc}: endpoints are HOST ({HOST}), "
                    f"CPU_SIDE ({CPU_SIDE}) and stacks 0..{self.total_stacks - 1}")
        cfg = self.cfg
        if src == dst or (src in CPU_LIKE and dst in CPU_LIKE):
            return LOCAL_PATH
        if src in CPU_LIKE or dst in CPU_LIKE:
            return Path(PathKind.CPU_LINK, bandwidth(Location.CPU_LINK, cfg),
                        self.hop, (self.CPU_LINK_ID,), "cpu_link")
        x, y = stack_coords(src, cfg)
        dx, dy = stack_coords(dst, cfg)
        hops = []
        while x != dx:
            tx = x + (1 if dx > x else -1)
            hops.append((x, y, tx, y))
            x = tx
        while y != dy:
            ty = y + (1 if dy > y else -1)
            hops.append((x, y, x, ty))
            y = ty
        route = tuple(self._link_id(*hop) for hop in hops)
        return Path(PathKind.MESH, bandwidth(Location.MESH_HOP, cfg),
                    mesh_hops(src, dst, cfg) * self.hop, route,
                    "mesh:{},{}-{},{}".format(*hops[0]))

    def _link_id(self, x: int, y: int, tx: int, ty: int) -> int:
        """Id of the directed mesh link from stack (x, y) to its neighbour."""
        direction = (0 if tx > x else 1) if tx != x else (2 if ty > y else 3)
        return 1 + 4 * (y * self.cfg.ndp.stacks_x + x) + direction
