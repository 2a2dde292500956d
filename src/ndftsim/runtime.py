"""Shared-block pseudopotential runtime over simulated SPM and memory stacks.

Per-atom pseudopotential payloads (an integer index table plus a dense
double-precision matrix) are packed into contiguous shared blocks, placed in
the owning stack's scratchpad when they fit and in its spill region
otherwise, and published through a global directory.  One unit per stack
acts as the communication arbiter: remote reads go through it, are cached
per stack, and every later request for the same block is served locally.

The module also carries the executable miniature kernel that applies the
pseudopotentials to wavefunctions (the per-process-copy mode doubles as the
correctness oracle for the shared-block mode) and the calibrated
memory-footprint model.
"""

from __future__ import annotations

import enum
import logging
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (CapacityError, ConfigurationError, DataError, DomainError,
                     LocalityError, RangeError, UnknownBlockError,
                     config_errors)
from .machine import MachineConfig, UnitClass, UnitRef
from .workload import CalibrationFixture, HEADER_BYTES, SystemSpec

log = logging.getLogger("ndftsim.runtime")


class PseudoMode(enum.Enum):
    PER_PROCESS_COPY = "per_process_copy"
    SHARED_BLOCK = "shared_block"


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


@dataclass
class MemStats:
    footprint_bytes: int = 0
    spm_spills: int = 0


@dataclass
class SharedBlock:
    block_id: int
    atom_id: int
    owner_stack: int
    address: int
    index_table: np.ndarray   # int32 projector indices
    matrix: np.ndarray        # float64 (m, m) coefficients
    length: int
    spilled: bool = False

    @staticmethod
    def length_of(n_indices: int, m: int) -> int:
        return HEADER_BYTES + 4 * n_indices + 8 * m * m


@dataclass(frozen=True)
class DirectoryEntry:
    owner_stack: int
    address: int
    length: int


@dataclass
class StackMemoryState:
    spm_capacity: int
    spill_capacity: int
    spm_used: int = 0
    shared_region_used: int = 0
    remote_cache: dict[int, int] = field(default_factory=dict)  # block -> local addr
    next_address: int = 0


class BlockDirectory:
    """atom_id -> (owner stack, address, length), identical on every stack."""

    def __init__(self):
        self._entries: dict[int, DirectoryEntry] = {}

    def register(self, atom_id: int, entry: DirectoryEntry) -> None:
        if atom_id in self._entries:
            raise DataError(f"atom {atom_id} already registered")
        self._entries[atom_id] = entry

    def lookup(self, atom_id: int) -> DirectoryEntry:
        try:
            return self._entries[atom_id]
        except KeyError:
            raise UnknownBlockError(f"atom {atom_id} not in directory") from None

    def __contains__(self, atom_id: int) -> bool:
        return atom_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def items(self):
        return sorted(self._entries.items())


def pack_block(index_table: np.ndarray, matrix: np.ndarray, atom_id: int) -> bytes:
    """Serialize one pseudopotential payload into its wire/storage form."""
    m = matrix.shape[0]
    header = struct.pack("<4sIII16x", b"PSEU", atom_id, len(index_table), m)
    return header + index_table.astype("<i4").tobytes() + matrix.astype("<f8").tobytes()


def unpack_block(payload: bytes) -> tuple[int, np.ndarray, np.ndarray]:
    magic, atom_id, n_idx, m = struct.unpack_from("<4sIII", payload)
    if magic != b"PSEU":
        raise DataError("bad block header")
    off = HEADER_BYTES
    idx = np.frombuffer(payload, dtype="<i4", count=n_idx, offset=off).copy()
    off += 4 * n_idx
    mat = np.frombuffer(payload, dtype="<f8", count=m * m, offset=off).reshape(m, m).copy()
    return atom_id, idx, mat


def _check_times(times: int) -> None:
    if times < 1:
        raise DomainError(f"times must be >= 1, got {times}")


class NdpRuntime:
    """Shared-memory state of one simulation instance (never shared across runs)."""

    def __init__(self, cfg: MachineConfig):
        self.cfg = cfg
        self.directory = BlockDirectory()
        self.stacks = [
            StackMemoryState(spm_capacity=cfg.ndp.spm_per_stack,
                             spill_capacity=cfg.stack_capacity)
            for _ in range(cfg.total_stacks)
        ]
        self.blocks: dict[int, SharedBlock] = {}
        self.storage: dict[int, bytearray] = {}
        self.comm = CommStats()
        self._next_block_id = 0

    # -- allocation ---------------------------------------------------------

    def alloc_shared(self, pseu_info: tuple[np.ndarray, np.ndarray],
                     owner: UnitRef) -> SharedBlock:
        """Allocate a contiguous shared block in the owner's stack.

        Goes to the scratchpad when it fits, otherwise to the stack's spill
        region; either way the directory learns the placement.
        """
        if owner.cls is not UnitClass.NDP_UNIT:
            raise DomainError("shared blocks are owned by NDP units")
        index_table, matrix = pseu_info
        if matrix.size == 0 or len(index_table) == 0:
            raise DataError("empty pseudopotential payload")
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DataError("projector matrix must be square")
        stack = self.stacks[owner.stack_id]
        length = SharedBlock.length_of(len(index_table), matrix.shape[0])
        spilled = stack.spm_used + length > stack.spm_capacity
        if spilled and stack.shared_region_used + length > stack.spill_capacity:
            raise CapacityError(
                f"stack {owner.stack_id} shared region exhausted "
                f"({stack.shared_region_used} + {length} > {stack.spill_capacity})")
        address = stack.next_address
        stack.next_address += length
        if spilled:
            stack.shared_region_used += length
        else:
            stack.spm_used += length
        block = SharedBlock(
            block_id=self._next_block_id, atom_id=-1, owner_stack=owner.stack_id,
            address=address, index_table=np.asarray(index_table, dtype=np.int32),
            matrix=np.asarray(matrix, dtype=np.float64), length=length,
            spilled=spilled)
        self._next_block_id += 1
        self.blocks[block.block_id] = block
        self.storage[block.block_id] = bytearray(length)
        log.debug("NDFT_Alloc_Shared stack=%d len=%d addr=%d spilled=%s",
                  owner.stack_id, length, address, spilled)
        return block

    # -- local access -------------------------------------------------------

    def _check_local(self, block: SharedBlock, caller_stack: int) -> None:
        if caller_stack != block.owner_stack and \
                block.block_id not in self.stacks[caller_stack].remote_cache:
            raise LocalityError(
                f"block {block.block_id} lives on stack {block.owner_stack}; "
                f"stack {caller_stack} holds no cached copy (use NDFT_Read_Remote)")

    def write_local(self, block: SharedBlock, offset: int, payload: bytes,
                    caller_stack: int | None = None) -> None:
        caller = block.owner_stack if caller_stack is None else caller_stack
        self._check_local(block, caller)
        if offset < 0 or offset + len(payload) > block.length:
            raise RangeError(f"write [{offset}, {offset + len(payload)}) outside "
                             f"block of {block.length} bytes")
        self.storage[block.block_id][offset:offset + len(payload)] = payload
        self.comm.intra_stack_bytes += len(payload)
        self._invalidate(block.block_id, keep_stack=caller)
        log.debug("NDFT_Write block=%d off=%d len=%d", block.block_id, offset, len(payload))

    def read_local(self, block: SharedBlock, offset: int, length: int,
                   caller_stack: int | None = None, times: int = 1) -> bytes:
        """Read bytes of a block the caller's stack owns or has cached.

        ``times=n`` counts as n back-to-back reads of the same range and
        returns the bytes once.
        """
        _check_times(times)
        caller = block.owner_stack if caller_stack is None else caller_stack
        self._check_local(block, caller)
        if offset < 0 or length < 0 or offset + length > block.length:
            raise RangeError(f"read [{offset}, {offset + length}) outside "
                             f"block of {block.length} bytes")
        self.comm.intra_stack_bytes += length * times
        log.debug("NDFT_Read block=%d off=%d len=%d times=%d",
                  block.block_id, offset, length, times)
        return bytes(memoryview(self.storage[block.block_id])[offset:offset + length])

    # -- remote access through the per-stack arbiters -------------------------

    def read_remote(self, block_id: int, source_id: int, dest_id: int,
                    times: int = 1) -> int:
        """Fetch a block from its owner stack into the requester's stack.

        ``source_id`` is the requesting stack, ``dest_id`` the owner.  The
        first fetch moves the whole block between the two arbiters; every
        later request from the same stack is a cache hit.  ``times=n`` counts
        as n back-to-back requests.  Returns the local address of the copy.
        """
        _check_times(times)
        if block_id not in self.blocks:
            raise UnknownBlockError(f"block {block_id} not in directory")
        for stack_id in (source_id, dest_id):
            if not 0 <= stack_id < len(self.stacks):
                raise DomainError(f"stack {stack_id} is not on the machine "
                                  f"(0..{len(self.stacks) - 1})")
        block = self.blocks[block_id]
        if block.owner_stack != dest_id:
            raise DomainError(f"block {block_id} is owned by stack "
                              f"{block.owner_stack}, not {dest_id}")
        if source_id == dest_id:
            self.comm.intra_stack_bytes += block.length * times
            return block.address
        cached = self.stacks[source_id].remote_cache.get(block_id)
        if cached is not None:
            self.comm.requests_served_from_cache += times
            return cached
        addr = self._cache(source_id, block)
        self.comm.inter_stack_messages += 1
        self.comm.inter_stack_bytes += block.length
        self.comm.requests_served_from_cache += times - 1
        log.debug("NDFT_Read_Remote block=%d %d<-%d len=%d",
                  block_id, source_id, dest_id, block.length)
        return addr

    def write_remote(self, block_id: int, payload: bytes, offset: int,
                     source_id: int, dest_id: int) -> None:
        """Push bytes into a remote block; mirrors read_remote, write-invalidate."""
        if block_id not in self.blocks:
            raise UnknownBlockError(f"block {block_id} not in directory")
        block = self.blocks[block_id]
        if block.owner_stack != dest_id:
            raise DomainError(f"block {block_id} is owned by stack "
                              f"{block.owner_stack}, not {dest_id}")
        if offset < 0 or offset + len(payload) > block.length:
            raise RangeError("remote write outside block bounds")
        if source_id == dest_id:
            self.write_local(block, offset, payload)
            return
        self.comm.inter_stack_messages += 1
        self.comm.inter_stack_bytes += len(payload)
        self.storage[block_id][offset:offset + len(payload)] = payload
        self._invalidate(block_id, keep_stack=dest_id)
        log.debug("NDFT_Write_Remote block=%d %d->%d len=%d",
                  block_id, source_id, dest_id, len(payload))

    def broadcast(self, block_id: int) -> None:
        """Replicate a block into every non-owner stack's cache (idempotent).

        Stacks are filled in id order; a stack whose shared region cannot
        take the copy raises CapacityError and keeps its state.
        """
        if block_id not in self.blocks:
            raise UnknownBlockError(f"block {block_id} not in directory")
        block = self.blocks[block_id]
        for stack_id in range(self.cfg.total_stacks):
            if stack_id == block.owner_stack:
                continue
            if block_id not in self.stacks[stack_id].remote_cache:
                self._cache(stack_id, block)
                self.comm.inter_stack_bytes += block.length
            self.comm.inter_stack_messages += 1
        log.debug("NDFT_Broadcast block=%d", block_id)

    def _cache(self, stack_id: int, block: SharedBlock) -> int:
        """Place a copy of a remote block in a stack's shared region."""
        stack = self.stacks[stack_id]
        if stack.shared_region_used + block.length > stack.spill_capacity:
            raise CapacityError(f"stack {stack_id} cannot cache block {block.block_id}")
        addr = stack.next_address
        stack.next_address += block.length
        stack.shared_region_used += block.length
        stack.remote_cache[block.block_id] = addr
        return addr

    def _invalidate(self, block_id: int, keep_stack: int) -> None:
        for stack_id, stack in enumerate(self.stacks):
            if stack_id != keep_stack and block_id in stack.remote_cache:
                stack.shared_region_used -= self.blocks[block_id].length
                del stack.remote_cache[block_id]


# -- the executable miniature kernel ----------------------------------------


def _worker_units(cfg: MachineConfig, n_processes: int) -> list[UnitRef]:
    """Deterministic process->unit map; unit 0 of each stack is the arbiter."""
    eligible = []
    for stack in range(cfg.total_stacks):
        first = 1 if cfg.ndp.units_per_stack > 1 else 0
        for unit in range(first, cfg.ndp.units_per_stack):
            eligible.append(UnitRef.ndp(stack, unit))
    return [eligible[p % len(eligible)] for p in range(n_processes)]


def _generate_inputs(spec: SystemSpec, seed: int, m_projectors: int):
    """Seeded atoms and wavefunctions, identical for both execution modes."""
    rng = np.random.default_rng(seed)
    if m_projectors < 1:
        raise DataError("need at least one projector per atom")
    if m_projectors > spec.n_grid:
        raise DataError("more projectors than grid points")
    atoms = []
    for _ in range(spec.n_atoms):
        idx = np.sort(rng.choice(spec.n_grid, size=m_projectors, replace=False))
        mat = rng.standard_normal((m_projectors, m_projectors))
        atoms.append((idx.astype(np.int32), mat))
    n_wf = spec.n_valence + spec.n_conduction
    wfs = rng.standard_normal((n_wf, spec.n_grid))
    return atoms, wfs


def _apply_block(wfs: np.ndarray, idx: np.ndarray, mat: np.ndarray) -> None:
    """w += S^T V (S w) for every wavefunction w in the last axis of wfs.

    Gathers the projected entries, applies V and scatter-adds.  The stacked
    matmul makes the same gemv per wavefunction as a single-vector product,
    so a batch is bit-identical to one call per wavefunction.
    """
    if idx.max(initial=-1) >= wfs.shape[-1]:
        raise DataError("projector index outside the grid")
    wfs[..., idx] += np.matmul(mat, wfs[..., idx, None])[..., 0]


def run_pseudopotential(spec: SystemSpec, mode: PseudoMode, seed: int,
                        cfg: MachineConfig, m_projectors: int = 8,
                        ) -> tuple[np.ndarray, MemStats, CommStats]:
    """Execute the pseudopotential update on seeded data.

    Atoms are distributed round-robin over processes, and so are the
    wavefunctions.  In shared-block mode owners pack their atoms into shared
    memory, everyone else resolves addresses through the directory, and all
    access flows through the read_local/read_remote primitives.  The update
    goes atom by atom: each process that owns wavefunctions reads the block
    once per wavefunction it owns (one counted request to the arbiter), and
    the block is decoded once and applied to all wavefunctions with one
    stacked gemv.  In per-process-copy mode every process keeps a private
    copy of every block; its wavefunction output is the oracle the shared
    mode must match.
    """
    spec.validate()
    if spec.n_atoms > 64 or spec.n_grid > 16384:
        raise DomainError("numeric execution is desk-scale only "
                          "(n_atoms <= 64, n_grid <= 16384)")
    atoms, wfs = _generate_inputs(spec, seed, m_projectors)
    procs = spec.n_processes
    workers = _worker_units(cfg, procs)
    block_bytes = SharedBlock.length_of(m_projectors, m_projectors)

    if mode is PseudoMode.PER_PROCESS_COPY:
        # every process materializes every block privately
        footprint = procs * spec.n_atoms * block_bytes + wfs.nbytes
        for idx, mat in atoms:
            _apply_block(wfs, idx, mat)
        return wfs, MemStats(footprint_bytes=footprint), CommStats()

    runtime = NdpRuntime(cfg)
    blocks: list[SharedBlock] = []
    # distribution phase: owners pack their atoms into shared memory
    for a, (idx, mat) in enumerate(atoms):
        block = runtime.alloc_shared((idx, mat), workers[a % procs])
        block.atom_id = a
        runtime.write_local(block, 0, pack_block(idx, mat, a))
        runtime.directory.register(a, DirectoryEntry(
            owner_stack=block.owner_stack, address=block.address,
            length=block.length))
        blocks.append(block)

    spills = sum(1 for b in blocks if b.spilled)
    # update phase: process p owns wavefunctions p, p + procs, ...
    n_wf = wfs.shape[0]
    readers = [(workers[p].location(), len(range(p, n_wf, procs)))
               for p in range(min(procs, n_wf))]
    for block in blocks:
        payload = None
        for my_stack, owned in readers:
            if block.owner_stack != my_stack:
                runtime.read_remote(block.block_id, my_stack, block.owner_stack,
                                    times=owned)
            read = runtime.read_local(block, 0, block.length,
                                      caller_stack=my_stack, times=owned)
            payload = read if payload is None else payload
        _, idx, mat = unpack_block(payload)
        _apply_block(wfs, idx, mat)

    footprint = (spec.n_atoms * block_bytes
                 + 24 * len(runtime.directory) * cfg.total_stacks
                 + wfs.nbytes)
    mem = MemStats(footprint_bytes=footprint, spm_spills=spills)
    return wfs, mem, runtime.comm


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
    n_wf = spec.n_valence + spec.n_conduction
    wf_count = [0] * procs
    for w in range(n_wf):
        wf_count[w % procs] += 1
    accesses_per_stack: dict[int, int] = {}
    for p in range(procs):
        s = workers[p].location()
        accesses_per_stack[s] = accesses_per_stack.get(s, 0) + wf_count[p]
    comm.intra_stack_bytes += spec.n_atoms * block_bytes  # distribution writes
    readers = [(s, n_acc) for s, n_acc in sorted(accesses_per_stack.items())
               if n_acc > 0]
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
