"""The numpy-free pseudopotential cost model: the communication trace of a
cost-mode run and the calibrated memory-footprint model.  ``validate`` and
cost-mode runs import this module and never the numeric kernel in runtime.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ConfigurationError, DomainError, config_errors
from .machine import MachineConfig, UnitRef
from .workload import CalibrationFixture, PseudoMode, SystemSpec


class SystemSize(enum.Enum):
    SMALL = "small"   # the 64-atom reference system
    LARGE = "large"   # the 1024-atom reference system


class Arch(enum.Enum):
    CPU = "cpu"
    NDP = "ndp"


@dataclass
class CommStats:
    intra_stack_bytes: int = 0
    inter_stack_bytes: int = 0
    inter_stack_messages: int = 0
    requests_served_from_cache: int = 0

    def merge(self, other: "CommStats") -> None:
        self.intra_stack_bytes += other.intra_stack_bytes
        self.inter_stack_bytes += other.inter_stack_bytes
        self.inter_stack_messages += other.inter_stack_messages
        self.requests_served_from_cache += other.requests_served_from_cache


def _worker_units(cfg: MachineConfig, n_processes: int) -> list[UnitRef]:
    """Deterministic process->unit map; unit 0 of each stack is the arbiter."""
    eligible = []
    for stack in range(cfg.total_stacks):
        first = 1 if cfg.ndp.units_per_stack > 1 else 0
        for unit in range(first, cfg.ndp.units_per_stack):
            eligible.append(UnitRef.ndp(stack, unit))
    return [eligible[p % len(eligible)] for p in range(n_processes)]


def reader_stacks(spec: SystemSpec,
                  workers: list[UnitRef]) -> list[tuple[int, int]]:
    """(stack, reads per block) for each stack whose processes own
    wavefunctions, by stack id: process p owns wavefunctions p, p + procs, ..."""
    n_wf = spec.n_valence + spec.n_conduction
    reads: dict[int, int] = {}
    for p in range(min(spec.n_processes, n_wf)):
        stack = workers[p].location()
        reads[stack] = reads.get(stack, 0) + len(range(p, n_wf, spec.n_processes))
    return sorted(reads.items())


@dataclass(frozen=True)
class PseudoTrace:
    """Deterministic communication trace of one cost-mode run."""

    comm: CommStats
    fetches: tuple[tuple[int, int, int], ...]  # (src stack, dst stack, bytes)


def pseudo_cost_trace(spec: SystemSpec, mode: PseudoMode,
                      fixture: CalibrationFixture,
                      cfg: MachineConfig) -> PseudoTrace:
    """Replay the access pattern of the executable kernel without numerics.

    Ownership, arbiter caching, and access order are identical to
    run_pseudopotential, only the payload scale comes from the fixture, so
    message and cache-hit counts match the executable kernel exactly.
    """
    block_bytes = fixture.pseudo.block_bytes
    procs = spec.n_processes
    comm = CommStats()
    if mode is PseudoMode.PER_PROCESS_COPY:
        return PseudoTrace(comm=comm, fetches=())
    workers = _worker_units(cfg, procs)
    readers = reader_stacks(spec, workers)
    comm.intra_stack_bytes += spec.n_atoms * block_bytes  # distribution writes
    # An atom's traffic depends only on its owner stack: every reader stack
    # reads the block locally, and every other stack fetches it once and
    # serves the rest of its reads from its cache.
    per_owner: dict[int, tuple[tuple, int, int]] = {}
    fetches = []
    for a in range(spec.n_atoms):
        owner_stack = workers[a % procs].location()
        row = per_owner.get(owner_stack)
        if row is None:
            remote = [(s, n_acc) for s, n_acc in readers if s != owner_stack]
            row = per_owner[owner_stack] = (
                tuple((owner_stack, s, block_bytes) for s, _ in remote),
                sum(n_acc for _, n_acc in readers) * block_bytes,  # local reads
                sum(n_acc - 1 for _, n_acc in remote))
        row_fetches, local_reads, cache_hits = row
        fetches += row_fetches
        comm.intra_stack_bytes += local_reads
        comm.inter_stack_messages += len(row_fetches)
        comm.inter_stack_bytes += len(row_fetches) * block_bytes
        comm.requests_served_from_cache += cache_hits
    return PseudoTrace(comm=comm, fetches=tuple(fetches))


# -- calibrated footprint model ----------------------------------------------


def footprint_model(system: SystemSize, arch: Arch, mode: PseudoMode,
                    fixture: CalibrationFixture) -> float:
    """Bytes of pseudopotential data resident on one of the two calibrated
    anchor systems (see footprint_for_atoms)."""
    fp = fixture.footprint
    n_atoms = fp.small_atoms if system is SystemSize.SMALL else fp.large_atoms
    return footprint_for_atoms(n_atoms, arch, mode, fixture)


def footprint_percentage(n_bytes: float, cfg: MachineConfig) -> float:
    """Footprint as percent of total machine memory."""
    return 100.0 * n_bytes / cfg.total_capacity


def footprint_for_atoms(n_atoms: int, arch: Arch, mode: PseudoMode,
                        fixture: CalibrationFixture) -> float:
    """Bytes of pseudopotential data resident on the machine.

    Per-process-copy keeps one private copy per process; shared-block keeps
    one distributed copy plus directory/index overhead expressed through the
    shared-mode overhead factor.  Base and per-process bytes are power-law
    interpolations between the two calibrated anchor systems.
    """
    fp = fixture.footprint
    bad = config_errors(fp, "workload.footprint")
    if bad:
        raise ConfigurationError.from_diagnostic(bad[0])
    if n_atoms <= 0:
        raise DomainError("n_atoms must be >= 1")

    def interp(small: float, large: float) -> float:
        exp = math.log(large / small) / math.log(fp.large_atoms / fp.small_atoms)
        return small * (n_atoms / fp.small_atoms) ** exp

    base = interp(fp.base_small, fp.base_large)
    per_proc = interp(fp.per_process_small, fp.per_process_large)
    if mode is PseudoMode.PER_PROCESS_COPY:
        procs = fp.processes_ndp if arch is Arch.NDP else fp.processes_cpu
        return base + procs * per_proc
    return base + fp.shared_mode_overhead_factor * per_proc
