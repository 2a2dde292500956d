"""Task-graph generator for the excited-state kernel pipeline.

A system of N silicon atoms expands into the six-stage pipeline
orbital FFTs -> face-splitting products -> product FFTs -> pseudopotential
application -> response-matrix GEMM -> all-to-all transpose -> SYEVD.
Per-family cost formulas are parameterized by a calibration fixture that
owns every constant the cost model leaves free.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Annotated, ClassVar

from .errors import DomainError, NonNegFloat, NonNegInt, PosFloat, PosInt
from .machine import GIB, HOST

HEADER_BYTES = 32        # shared-block header
DIRECTORY_ENTRY_BYTES = 24  # one DirectoryEntry: owner, address, length
COMPLEX_BYTES = 16       # complex double grid element
REAL_BYTES = 8


class PseudoMode(enum.Enum):
    """Private pseudopotential copies per process, or one block per atom."""

    PER_PROCESS_COPY = "per_process_copy"
    SHARED_BLOCK = "shared_block"


def block_length(n_indices: int, m: int) -> int:
    """Bytes of a packed block: header, int32 indices, float64 (m, m) matrix."""
    return HEADER_BYTES + 4 * n_indices + 8 * m * m


class KernelFamily(enum.Enum):
    FFT = "fft"
    FACE_SPLIT = "face_split"
    GEMM = "gemm"
    ALLTOALL = "alltoall"
    SYEVD = "syevd"
    PSEUDO = "pseudo"
    OTHER = "other"


@dataclass(frozen=True)
class SystemSpec:
    n_atoms: int
    n_valence: int
    n_conduction: int
    n_grid: int
    n_processes: int

    def validate(self) -> None:
        if self.n_atoms < 1:
            raise DomainError("n_atoms must be >= 1")
        if min(self.n_valence, self.n_conduction, self.n_grid) <= 0:
            raise DomainError("orbital and grid counts must be > 0")
        if self.n_processes < 1:
            raise DomainError("n_processes must be >= 1")


@dataclass(frozen=True)
class FamilyCoefficients:
    flop_coef: NonNegFloat
    byte_coef: PosFloat


@dataclass(frozen=True)
class PseudoCoefficients(FamilyCoefficients):
    """The pseudo family's coefficients and the scale of its per-atom payloads."""

    projectors_per_atom: PosInt = 226

    @property
    def block_bytes(self) -> int:
        return block_length(self.projectors_per_atom, self.projectors_per_atom)


@dataclass(frozen=True)
class FootprintParams:
    """Two-point calibration of the pseudopotential memory-footprint model."""

    base_small: PosFloat = 1.24230769 * GIB
    per_process_small: PosFloat = 0.02490385 * GIB
    base_large: PosFloat = 8.83846154 * GIB
    per_process_large: PosFloat = 0.20673077 * GIB
    shared_mode_overhead_factor: Annotated[float, ">= 1"] = 29.30521739
    processes_cpu: PosInt = 24
    processes_ndp: PosInt = 128
    small_atoms: PosInt = 64
    large_atoms: int = 1024

    def relation_errors(self, key: str) -> list[str]:
        # the two anchors fix the interpolation exponent's denominator
        return ([] if self.large_atoms > self.small_atoms
                else [f"{key}.large_atoms: must be > {key}.small_atoms"])


@dataclass(frozen=True)
class CalibrationFixture:
    """Every free constant of the workload and footprint models.

    ``calibrated()`` is the shipped fit used by the scenario matrix; the
    coefficients were tuned so the simulated matrix reproduces the measured
    speedup trend and overhead fractions.  The class defaults, also named
    ``textbook()``, keep the plain operation-count constants and are what
    the cost-formula unit oracles check against.
    """

    nv_per_atom: PosInt = 2
    nc_per_atom: PosInt = 2
    nr_per_atom: PosInt = 4096
    processes_cpu: PosInt = 8
    processes_ndp: PosInt = 128
    orbital_groups_max: PosInt = 48
    # Response dimension D = min(Nv*Nc, base + per_atom * n_atoms); None = untruncated.
    response_dim_base: PosInt | None = None
    response_dim_per_atom: NonNegInt | None = None
    # One record per costed family (every KernelFamily but OTHER), named by
    # its value.
    alltoall: FamilyCoefficients = FamilyCoefficients(0.0, 1.0)
    face_split: FamilyCoefficients = FamilyCoefficients(6.0, 1.0)
    fft: FamilyCoefficients = FamilyCoefficients(5.0, 1.0)
    gemm: FamilyCoefficients = FamilyCoefficients(2.0, 1.0)
    pseudo: PseudoCoefficients = PseudoCoefficients(1.0, 1.0)
    syevd: FamilyCoefficients = FamilyCoefficients(9.0, 4000.0)
    footprint: FootprintParams = field(default_factory=FootprintParams)
    # What calibrated() was fitted to reproduce: the hybrid speedup over
    # cpu_only at 64 and 1024 atoms, the largest hybrid overhead fraction and
    # the shared-block footprint reduction.  A constant, not a config field.
    targets: ClassVar[MappingProxyType] = MappingProxyType({
        "speedup_si_64": 1.9,
        "speedup_si_1024": 5.2,
        "max_overhead_fraction": 0.06,
        "shared_block_reduction": 0.578,
    })

    @staticmethod
    def textbook() -> "CalibrationFixture":
        return CalibrationFixture()

    @staticmethod
    def calibrated() -> "CalibrationFixture":
        return CalibrationFixture(
            response_dim_base=16200,
            response_dim_per_atom=4,
            face_split=FamilyCoefficients(6.0, 25.18),
            fft=FamilyCoefficients(5.0, 52.55),
            gemm=FamilyCoefficients(0.25356, 0.12678),
        )

    def response_dim(self, nv: int, nc: int, n_atoms: int) -> int:
        full = nv * nc
        if self.response_dim_base is None or self.response_dim_per_atom is None:
            return full
        return min(full, self.response_dim_base + self.response_dim_per_atom * n_atoms)


@dataclass(frozen=True)
class KernelDescriptor:
    id: str
    family: KernelFamily
    flops: float
    bytes_read: float
    bytes_written: float
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]

    @property
    def stage(self) -> str:
        """The id up to its last "_"; plan() places a run of one stage together."""
        return self.id.rsplit("_", 1)[0]

    @property
    def total_bytes(self) -> float:
        return self.bytes_read + self.bytes_written


@dataclass(frozen=True)
class DataObject:
    id: str
    size: int
    initial_location: int | None  # machine.HOST for inputs, None for produced data


@dataclass
class TaskGraph:
    """Tasks in execution order, the data they move, the system size, and
    the pseudopotential mode the graph was built for.

    Every task is listed after the producers of its inputs; the planner and
    the simulator walk the list as given.  ``producers`` and ``edges``
    (producer, consumer, object) are derived from it, and construction
    raises DomainError for an input whose producer is listed later.
    """

    tasks: list[KernelDescriptor]
    data_objects: dict[str, DataObject]
    system: SystemSpec
    pseudo_mode: PseudoMode = PseudoMode.SHARED_BLOCK
    edges: list[tuple[str, str, str]] = field(init=False)

    def __post_init__(self):
        self._by_id = {t.id: t for t in self.tasks}
        self.producers: dict[str, str] = {}
        self.edges = []
        early: dict[str, str] = {}  # object -> first task that read it unproduced
        for t in self.tasks:
            for oid in t.inputs:
                producer = self.producers.get(oid)
                if producer is None:
                    early.setdefault(oid, t.id)
                else:
                    self.edges.append((producer, t.id, oid))
            for oid in t.outputs:
                if oid in early:
                    raise DomainError(
                        f"task {early[oid]} consumes {oid} before its "
                        f"producer {t.id} is listed")
                self.producers[oid] = t.id

    def task(self, task_id: str) -> KernelDescriptor:
        return self._by_id[task_id]

    def topo_order(self) -> list[str]:
        """Task ids in execution order, the order of ``tasks``; a fresh list."""
        return [t.id for t in self.tasks]

    def total_flops(self) -> float:
        return sum(t.flops for t in self.tasks)

    def total_bytes(self) -> float:
        return sum(t.total_bytes for t in self.tasks)

    def dump_lines(self) -> list[str]:
        """One-task-per-line text form for golden-file comparisons."""
        lines = []
        for t in self.tasks:
            lines.append("\t".join([
                t.id, t.family.value, repr(t.flops), repr(t.bytes_read),
                repr(t.bytes_written), ",".join(t.inputs), ",".join(t.outputs),
            ]))
        return lines


def ceil_log2(n: int) -> int:
    """log2 rounded up; non-power-of-two transform sizes round upward."""
    if n < 1:
        raise DomainError("size must be >= 1")
    return max(1, (n - 1).bit_length())


def derive_system(n_atoms: int, fixture: CalibrationFixture,
                  context: str = "ndp") -> SystemSpec:
    """Expand an atom count into orbital/grid/process counts.

    ``context`` selects the process template: one process per NDP unit for
    NDP-side runs, one per CPU core for pure-CPU runs.
    """
    if n_atoms < 1:
        raise DomainError("n_atoms must be >= 1")
    if context not in ("ndp", "cpu"):
        raise DomainError(f"unknown context {context!r}")
    procs = fixture.processes_ndp if context == "ndp" else fixture.processes_cpu
    return SystemSpec(
        n_atoms=n_atoms,
        n_valence=fixture.nv_per_atom * n_atoms,
        n_conduction=fixture.nc_per_atom * n_atoms,
        n_grid=fixture.nr_per_atom * n_atoms,
        n_processes=procs,
    )


def kernel_cost(family: KernelFamily, fixture: CalibrationFixture,
                **size) -> tuple[float, float, float]:
    """Closed-form (flops, bytes_read, bytes_written) for one kernel instance.

    Shapes per family:
      GEMM(m, n, k) | FFT(n, count=1) | FACE_SPLIT(n, count=1)
      ALLTOALL(payload_bytes) | SYEVD(n) | PSEUDO(wavefunctions, atoms)
    """
    co = getattr(fixture, family.value, None)  # None for OTHER, which raises
    if family is KernelFamily.GEMM:
        m, n, k = size["m"], size["n"], size["k"]
        if min(m, n, k) <= 0:
            raise DomainError("GEMM sizes must be positive")
        flops = co.flop_coef * m * n * k
        br = 8.0 * (m * k + k * n) * co.byte_coef
        bw = 8.0 * (m * n) * co.byte_coef
        return flops, br, bw
    if family is KernelFamily.FFT:
        n, count = size["n"], size.get("count", 1)
        if n <= 0 or count <= 0:
            raise DomainError("FFT size must be positive")
        flops = co.flop_coef * n * ceil_log2(n) * count
        half = 16.0 * n * co.byte_coef * count
        return flops, half, half
    if family is KernelFamily.FACE_SPLIT:
        n, count = size["n"], size.get("count", 1)
        if n <= 0 or count <= 0:
            raise DomainError("face-splitting size must be positive")
        flops = co.flop_coef * n * count
        return flops, 32.0 * n * co.byte_coef * count, 16.0 * n * co.byte_coef * count
    if family is KernelFamily.ALLTOALL:
        payload = size["payload_bytes"]
        if payload < 0:
            raise DomainError("payload must be >= 0")
        flops = co.flop_coef * payload
        return flops, payload * co.byte_coef, payload * co.byte_coef
    if family is KernelFamily.SYEVD:
        n = size["n"]
        if n <= 0:
            raise DomainError("SYEVD dimension must be positive")
        flops = co.flop_coef * float(n) ** 3
        total = co.byte_coef * float(n) ** 2 * ceil_log2(n)
        return flops, total / 2, total / 2
    if family is KernelFamily.PSEUDO:
        wf, atoms = size["wavefunctions"], size["atoms"]
        owned_atoms = size.get("owned_atoms", 0)
        m = fixture.pseudo.projectors_per_atom
        block = fixture.pseudo.block_bytes
        flops = co.flop_coef * wf * atoms * (2.0 * m * m + 4.0 * m)
        directory = DIRECTORY_ENTRY_BYTES * atoms  # each process reads every entry
        br = (wf * atoms * (block + 16.0 * m) + directory) * co.byte_coef
        bw = (wf * atoms * (16.0 * m) + owned_atoms * block) * co.byte_coef
        extra = size.get("copy_bytes", 0.0)
        return flops, br, bw + extra
    raise DomainError(f"no cost formula for family {family}")


def _split_even(total: int, parts: int) -> list[int]:
    """Deterministic near-even division; first (total % parts) parts get one extra."""
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def build_taskgraph(spec: SystemSpec, fixture: CalibrationFixture,
                    pseudo_mode: PseudoMode | str = PseudoMode.SHARED_BLOCK,
                    ) -> TaskGraph:
    """Build the full pipeline graph for one system.

    Orbitals are batched into at most ``orbital_groups_max`` groups per kind
    and the pair space into the corresponding group grid, so task counts stay
    bounded while total work is preserved.  ``pseudo_mode``, a PseudoMode or
    its value, decides whether the pseudopotential tasks carry per-process
    materialization traffic; the graph records it.

    The tasks are listed in execution order, stage by stage: s1 conduction
    groups, s1 valence groups, every s2 face-splitting product, every s3
    product FFT, then s4 to s7.
    """
    spec.validate()
    pseudo_mode = PseudoMode(pseudo_mode)
    nv, nc, nr, procs = spec.n_valence, spec.n_conduction, spec.n_grid, spec.n_processes
    gv = min(nv, fixture.orbital_groups_max)
    gc = min(nc, fixture.orbital_groups_max)
    d_resp = fixture.response_dim(nv, nc, spec.n_atoms)

    tasks: list[KernelDescriptor] = []
    objects: dict[str, DataObject] = {}

    def add_object(oid: str, size: int, initial: int | None) -> str:
        objects[oid] = DataObject(oid, int(size), initial)
        return oid

    def task(tid: str, family: KernelFamily, inputs, outputs,
             **size) -> KernelDescriptor:
        fl, br, bw = kernel_cost(family, fixture, **size)
        return KernelDescriptor(tid, family, fl, br, bw,
                                tuple(inputs), tuple(outputs))

    # Stage 1: orbital transforms, one task per orbital group.
    orbital_groups: dict[str, list[str]] = {"v": [], "c": []}
    for kind, total, groups in (("c", nc, gc), ("v", nv, gv)):
        sizes = _split_even(total, groups)
        for i, norb in enumerate(sizes):
            raw = add_object(f"orb_{kind}_{i:04d}", COMPLEX_BYTES * nr * norb, HOST)
            out = add_object(f"orbhat_{kind}_{i:04d}", COMPLEX_BYTES * nr * norb, None)
            tasks.append(task(f"s1_fft_orb_{kind}_{i:04d}", KernelFamily.FFT,
                              (raw,), (out,), n=nr, count=norb))
            orbital_groups[kind].append(out)

    # Stage 2/3: pair cells on the (gv x gc) group grid.  The truncated pair
    # count D is spread evenly over the cells.
    n_cells = gv * gc
    cell_pairs = _split_even(d_resp, n_cells)
    cell_out: list[tuple[str, int]] = []
    prod_ffts: list[KernelDescriptor] = []  # listed after every s2 task
    for idx in range(n_cells):
        pairs = cell_pairs[idx]
        if pairs == 0:
            continue
        i, j = divmod(idx, gc)
        prod = add_object(f"prod_{idx:04d}", COMPLEX_BYTES * nr * pairs, None)
        tasks.append(task(f"s2_face_{idx:04d}", KernelFamily.FACE_SPLIT,
                          (orbital_groups["v"][i], orbital_groups["c"][j]),
                          (prod,), n=nr, count=pairs))
        phat = add_object(f"prodhat_{idx:04d}", COMPLEX_BYTES * nr * pairs, None)
        prod_ffts.append(task(f"s3_fft_prod_{idx:04d}", KernelFamily.FFT,
                              (prod,), (phat,), n=nr, count=pairs))
        cell_out.append((phat, pairs))
    tasks.extend(prod_ffts)

    # Stage 4: pseudopotential application, one task per process over the
    # cells it owns, passing each cell through updated.  Per-process-copy
    # mode adds the private materialization to the write traffic.
    wf_total = nv + nc
    wf_per_proc = _split_even(wf_total, procs)
    cells_per_proc: list[list[tuple[int, str, int]]] = [[] for _ in range(procs)]
    for idx, cell in enumerate(cell_out):
        cells_per_proc[idx % procs].append((idx, cell[0], cell[1]))
    pstate: list[list[tuple[str, int]]] = []  # per process: (state, pairs)
    copy_bytes = (spec.n_atoms * fixture.pseudo.block_bytes
                  if pseudo_mode is PseudoMode.PER_PROCESS_COPY else 0.0)
    for p in range(procs):
        cells = cells_per_proc[p]
        owned = len(range(p, spec.n_atoms, procs))
        outs = []
        for idx, cell_obj, pairs in cells:
            out = add_object(f"pstate_{idx:04d}", COMPLEX_BYTES * nr * pairs, None)
            outs.append((out, pairs))
        if not outs:  # keep every process represented even with no cells
            outs.append((add_object(f"pstate_x{p:04d}", REAL_BYTES, None), 0))
        tasks.append(task(f"s4_pseudo_{p:04d}", KernelFamily.PSEUDO,
                          (c[1] for c in cells), (o for o, _ in outs),
                          wavefunctions=wf_per_proc[p], atoms=spec.n_atoms,
                          owned_atoms=owned, copy_bytes=copy_bytes))
        pstate.append(outs)

    # Stage 5: response-matrix assembly, one tile per process; a tile
    # contracts its own pair rows against the grid dimension.  Only the
    # task's resident slice appears as graph inputs; operand streaming is
    # already inside the byte cost.
    resp_parts: list[str] = []
    for p, outs in enumerate(pstate):
        rows = max(sum(pairs for _, pairs in outs), 1)
        rt = add_object(f"resp_{p:04d}", REAL_BYTES * rows * d_resp, None)
        tasks.append(task(f"s5_gemm_{p:04d}", KernelFamily.GEMM,
                          (o for o, _ in outs), (rt,), m=rows, n=d_resp, k=nr))
        resp_parts.append(rt)

    # Stage 6: one all-to-all transposing the response matrix across all
    # process partitions.
    payload = REAL_BYTES * d_resp * d_resp
    response = add_object("response", payload, None)
    tasks.append(task("s6_alltoall", KernelFamily.ALLTOALL, resp_parts,
                      (response,), payload_bytes=payload))

    # Stage 7: one dense eigendecomposition of the response matrix.
    spectrum = add_object("spectrum", 2 * REAL_BYTES * d_resp, None)
    tasks.append(task("s7_syevd", KernelFamily.SYEVD, (response,), (spectrum,),
                      n=d_resp))

    return TaskGraph(tasks=tasks, data_objects=objects, system=spec,
                     pseudo_mode=pseudo_mode)
