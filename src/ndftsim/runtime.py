"""Shared-block pseudopotential runtime over simulated SPM and memory stacks.

Per-atom pseudopotential payloads (an integer index table plus a dense
double-precision matrix) are packed into contiguous shared blocks, placed in
the owning stack's scratchpad when they fit and in its spill region
otherwise, and published through a global directory.  One unit per stack
acts as the communication arbiter: remote reads go through it, are cached
per stack, and every later request for the same block is served locally.

The module also carries the executable miniature kernel that applies the
pseudopotentials to wavefunctions (the per-process-copy mode doubles as the
correctness oracle for the shared-block mode).  The numpy-free cost model
lives in ``costmodel``; its names are re-exported here.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field

import numpy as np

# the cost model's names stay importable from here, as the same objects
from .costmodel import (Arch, CommStats, PseudoMode, PseudoTrace,
                        SystemSize, _worker_units, footprint_for_atoms,
                        footprint_model, footprint_percentage,
                        pseudo_cost_trace, reader_stacks)
from .errors import (CapacityError, DataError, DomainError, LocalityError,
                     RangeError, UnknownBlockError)
from .machine import MachineConfig, UnitClass, UnitRef
from .workload import (DIRECTORY_ENTRY_BYTES, HEADER_BYTES, SystemSpec,
                       block_length)

log = logging.getLogger("ndftsim.runtime")


@dataclass
class MemStats:
    footprint_bytes: int = 0
    spm_spills: int = 0


@dataclass
class SharedBlock:
    block_id: int
    owner_stack: int
    address: int
    length: int
    spilled: bool = False

    length_of = staticmethod(block_length)


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
            block_id=self._next_block_id, owner_stack=owner.stack_id,
            address=address, length=length, spilled=spilled)
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
    memory and register each block in the directory; readers hold the
    allocator's SharedBlock handles, and all access flows through the
    read_local/read_remote primitives.  The update goes atom by atom: each
    reader stack (reader_stacks) reads the block once per wavefunction its
    processes own, and the block is decoded once and applied to all
    wavefunctions with one stacked gemv.  In per-process-copy mode every
    process keeps a private copy of every block; its wavefunction output is
    the oracle the shared mode must match.
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
        runtime.write_local(block, 0, pack_block(idx, mat, a))
        runtime.directory.register(a, DirectoryEntry(
            owner_stack=block.owner_stack, address=block.address,
            length=block.length))
        blocks.append(block)

    spills = sum(1 for b in blocks if b.spilled)
    # update phase: every reader stack reads every block
    readers = reader_stacks(spec, workers)
    for block in blocks:
        payload = None
        for my_stack, reads in readers:
            if block.owner_stack != my_stack:
                runtime.read_remote(block.block_id, my_stack, block.owner_stack,
                                    times=reads)
            read = runtime.read_local(block, 0, block.length,
                                      caller_stack=my_stack, times=reads)
            payload = read if payload is None else payload
        _, idx, mat = unpack_block(payload)
        _apply_block(wfs, idx, mat)

    footprint = (spec.n_atoms * block_bytes
                 + DIRECTORY_ENTRY_BYTES * len(runtime.directory) * cfg.total_stacks
                 + wfs.nbytes)
    mem = MemStats(footprint_bytes=footprint, spm_spills=spills)
    return wfs, mem, runtime.comm
