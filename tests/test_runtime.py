import copy
import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ndftsim.errors import (CapacityError, DataError, DomainError,
                            LocalityError, NdftError, RangeError,
                            UnknownBlockError)
from ndftsim.machine import GIB, MachineConfig, UnitRef
from ndftsim.runtime import (Arch, CommStats, NdpRuntime, PseudoMode,
                             SharedBlock, SystemSize, footprint_for_atoms,
                             footprint_model, footprint_percentage, pack_block,
                             pseudo_cost_trace, run_pseudopotential,
                             unpack_block)
from ndftsim.workload import CalibrationFixture, SystemSpec
from oracles import run_pseudopotential_reference


def payload(m=3, n_idx=None, nr=64, seed=0):
    rng = np.random.default_rng(seed)
    n_idx = m if n_idx is None else n_idx
    idx = np.sort(rng.choice(nr, size=n_idx, replace=False)).astype(np.int32)
    mat = rng.standard_normal((m, m))
    return idx, mat


# -- allocation ----------------------------------------------------------------

def test_block_length_formula(cfg):
    assert SharedBlock.length_of(5, 3) == 32 + 20 + 72 == 124
    runtime = NdpRuntime(cfg)
    idx, mat = payload(m=3, n_idx=5)
    block = runtime.alloc_shared((idx, mat), UnitRef.ndp(0, 1))
    assert block.length == 124
    assert not block.spilled


def test_alloc_spills_past_spm_capacity(cfg):
    runtime = NdpRuntime(cfg)
    m = 200  # 8*m*m = 320 KB > 256 KB scratchpad
    idx, mat = payload(m=m, nr=10 ** 6)
    block = runtime.alloc_shared((idx, mat), UnitRef.ndp(2, 0))
    assert block.spilled
    assert runtime.stacks[2].spm_used == 0
    assert runtime.stacks[2].shared_region_used == block.length


def test_alloc_rejects_empty_payload(cfg):
    runtime = NdpRuntime(cfg)
    with pytest.raises(DataError):
        runtime.alloc_shared((np.array([], dtype=np.int32),
                              np.zeros((0, 0))), UnitRef.ndp(0, 0))


def test_alloc_requires_ndp_owner(cfg):
    runtime = NdpRuntime(cfg)
    with pytest.raises(DomainError):
        runtime.alloc_shared(payload(), UnitRef.cpu())


def test_alloc_capacity_error_when_spill_region_full():
    import dataclasses
    base = MachineConfig()
    tiny = dataclasses.replace(
        base,
        ndp=dataclasses.replace(base.ndp, capacity_per_unit=4096,
                                spm_per_stack=128))
    runtime = NdpRuntime(tiny)
    idx, mat = payload(m=80, nr=10 ** 5)  # ~51 KB block > 32 KB stack spill
    with pytest.raises(CapacityError):
        runtime.alloc_shared((idx, mat), UnitRef.ndp(0, 0))


# -- local access ----------------------------------------------------------------

def test_write_then_read_round_trips(cfg):
    runtime = NdpRuntime(cfg)
    idx, mat = payload()
    block = runtime.alloc_shared((idx, mat), UnitRef.ndp(0, 0))
    raw = pack_block(idx, mat, atom_id=7)
    runtime.write_local(block, 0, raw)
    assert runtime.read_local(block, 0, len(raw)) == raw
    atom, idx2, mat2 = unpack_block(raw)
    assert atom == 7
    assert np.array_equal(idx2, idx)
    assert np.array_equal(mat2, mat)


def test_out_of_bounds_read_is_range_error(cfg):
    runtime = NdpRuntime(cfg)
    block = runtime.alloc_shared(payload(), UnitRef.ndp(0, 0))
    with pytest.raises(RangeError):
        runtime.read_local(block, block.length - 1, 2)
    with pytest.raises(RangeError):
        runtime.write_local(block, block.length, b"x")


def test_foreign_stack_read_without_cache_is_locality_error(cfg):
    runtime = NdpRuntime(cfg)
    block = runtime.alloc_shared(payload(), UnitRef.ndp(0, 0))
    with pytest.raises(LocalityError):
        runtime.read_local(block, 0, 4, caller_stack=3)


# -- remote access and the arbiter cache ------------------------------------------

def test_first_remote_read_moves_bytes_second_hits_cache(cfg):
    runtime = NdpRuntime(cfg)
    block = runtime.alloc_shared(payload(), UnitRef.ndp(0, 0))
    before = (runtime.comm.inter_stack_messages, runtime.comm.inter_stack_bytes)
    runtime.read_remote(block.block_id, source_id=3, dest_id=0)
    after_first = (runtime.comm.inter_stack_messages,
                   runtime.comm.inter_stack_bytes)
    assert after_first == (before[0] + 1, before[1] + block.length)
    runtime.read_remote(block.block_id, source_id=3, dest_id=0)
    after_second = (runtime.comm.inter_stack_messages,
                    runtime.comm.inter_stack_bytes)
    assert after_second == after_first
    assert runtime.comm.requests_served_from_cache == 1
    # and the cached copy is now locally readable
    assert runtime.read_local(block, 0, 4, caller_stack=3)


def test_remote_read_same_stack_degenerates_to_local(cfg):
    runtime = NdpRuntime(cfg)
    block = runtime.alloc_shared(payload(), UnitRef.ndp(0, 0))
    addr = runtime.read_remote(block.block_id, source_id=0, dest_id=0)
    assert addr == block.address
    assert runtime.comm.inter_stack_messages == 0


def test_unknown_block_is_an_error(cfg):
    runtime = NdpRuntime(cfg)
    with pytest.raises(UnknownBlockError):
        runtime.read_remote(99, source_id=1, dest_id=0)
    with pytest.raises(UnknownBlockError):
        runtime.broadcast(99)


def test_remote_read_names_the_wrong_owner_before_counting(cfg):
    runtime = NdpRuntime(cfg)
    block = runtime.alloc_shared(payload(), UnitRef.ndp(0, 0))
    before = dataclasses.replace(runtime.comm)
    with pytest.raises(DomainError, match="owned by stack 0"):
        runtime.read_remote(block.block_id, source_id=3, dest_id=3)
    assert runtime.comm == before


@pytest.mark.parametrize("source_id, dest_id", [(99, 0), (0, 16), (-1, 0),
                                                (3, -1)])
def test_remote_read_off_the_machine_is_domain_error(cfg, source_id, dest_id):
    runtime = NdpRuntime(cfg)
    block = runtime.alloc_shared(payload(), UnitRef.ndp(0, 0))
    before = dataclasses.replace(runtime.comm)
    with pytest.raises(DomainError, match="not on the machine"):
        runtime.read_remote(block.block_id, source_id, dest_id)
    assert runtime.comm == before


def test_remote_write_invalidates_caches(cfg):
    runtime = NdpRuntime(cfg)
    idx, mat = payload()
    block = runtime.alloc_shared((idx, mat), UnitRef.ndp(0, 0))
    runtime.write_local(block, 0, pack_block(idx, mat, 0))
    runtime.read_remote(block.block_id, source_id=5, dest_id=0)
    assert block.block_id in runtime.stacks[5].remote_cache
    runtime.write_remote(block.block_id, b"\\x00" * 8, 0,
                         source_id=2, dest_id=0)
    assert block.block_id not in runtime.stacks[5].remote_cache


def test_broadcast_reaches_every_other_stack(cfg):
    runtime = NdpRuntime(cfg)
    block = runtime.alloc_shared(payload(), UnitRef.ndp(0, 0))
    runtime.broadcast(block.block_id)
    assert runtime.comm.inter_stack_messages == cfg.total_stacks - 1 == 15
    bytes_first = runtime.comm.inter_stack_bytes
    runtime.broadcast(block.block_id)  # idempotent on caches
    assert runtime.comm.inter_stack_bytes == bytes_first


def test_broadcast_single_stack_config_sends_nothing():
    import dataclasses
    base = MachineConfig()
    one = dataclasses.replace(
        base, ndp=dataclasses.replace(base.ndp, stacks_x=1, stacks_y=1))
    runtime = NdpRuntime(one)
    block = runtime.alloc_shared(payload(), UnitRef.ndp(0, 0))
    runtime.broadcast(block.block_id)
    assert runtime.comm.inter_stack_messages == 0


def small_stacks(stacks_x=4, stacks_y=4, units_per_stack=8,
                 stack_bytes=300_000) -> MachineConfig:
    """A machine whose stacks hold ``stack_bytes`` each (300,000: three
    blocks of m=100)."""
    base = MachineConfig()
    ndp = dataclasses.replace(base.ndp, stacks_x=stacks_x, stacks_y=stacks_y,
                              units_per_stack=units_per_stack,
                              capacity_per_unit=stack_bytes // units_per_stack)
    return dataclasses.replace(base, ndp=ndp).validated()


def test_failed_remote_read_leaves_the_stack_unchanged():
    runtime = NdpRuntime(small_stacks())
    blocks = [runtime.alloc_shared(payload(m=100, nr=10 ** 4, seed=i),
                                   UnitRef.ndp(1 + i, 0)) for i in range(4)]
    assert blocks[0].length == 80_432
    for block in blocks[:3]:
        runtime.read_remote(block.block_id, 0, block.owner_stack)
    before = copy.deepcopy((runtime.stacks[0], runtime.comm))
    with pytest.raises(CapacityError):
        runtime.read_remote(blocks[3].block_id, 0, blocks[3].owner_stack)
    assert (runtime.stacks[0], runtime.comm) == before
    assert runtime.stacks[0].next_address == 241_296
    assert runtime.stacks[0].shared_region_used == 241_296


def test_broadcast_past_the_shared_region_is_capacity_error():
    runtime = NdpRuntime(small_stacks())
    blocks = [runtime.alloc_shared(payload(m=100, nr=10 ** 4, seed=i),
                                   UnitRef.ndp(1 + i, 0)) for i in range(15)]
    for block in blocks[:3]:
        runtime.broadcast(block.block_id)
    before = copy.deepcopy(runtime.stacks[0])
    with pytest.raises(CapacityError):
        runtime.broadcast(blocks[3].block_id)
    assert runtime.stacks[0] == before
    assert runtime.stacks[0].shared_region_used == 241_296
    for stack in runtime.stacks:
        assert stack.shared_region_used <= stack.spill_capacity


@pytest.mark.parametrize("times", [0, -1])
def test_times_below_one_is_domain_error(cfg, times):
    runtime = NdpRuntime(cfg)
    block = runtime.alloc_shared(payload(), UnitRef.ndp(0, 0))
    with pytest.raises(DomainError):
        runtime.read_local(block, 0, 4, times=times)
    with pytest.raises(DomainError):
        runtime.read_remote(block.block_id, 3, 0, times=times)
    assert runtime.comm == CommStats()


def outcome(call):
    try:
        return call()
    except NdftError as exc:  # compared by type across the two runtimes
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([4, 100]), min_size=1, max_size=6),
       st.lists(st.tuples(st.booleans(), st.integers(0, 5),
                          st.integers(0, 15), st.integers(1, 6)),
                min_size=1, max_size=30))
def test_times_counts_like_repeated_calls(sizes, reads):
    """read_remote/read_local with times=n leave the same statistics, cache
    and stack state as n back-to-back calls, failures included."""
    cfg = small_stacks()
    batched, single = NdpRuntime(cfg), NdpRuntime(cfg)
    blocks = []
    for i, m in enumerate(sizes):
        owner = UnitRef.ndp((5 * i) % 16, 0)
        for runtime in (batched, single):
            block = runtime.alloc_shared(payload(m=m, nr=10 ** 4, seed=i), owner)
        blocks.append(block.block_id)
    for remote, b, stack, n in reads:
        block_id = blocks[b % len(blocks)]
        if remote:
            def call(runtime, times):
                owner = runtime.blocks[block_id].owner_stack
                return runtime.read_remote(block_id, stack, owner, times=times)
        else:
            def call(runtime, times):
                return runtime.read_local(runtime.blocks[block_id], 0, 64,
                                          caller_stack=stack, times=times)
        got = outcome(lambda: call(batched, n))
        want = [outcome(lambda: call(single, 1)) for _ in range(n)]
        assert want[0] == got
        assert batched.comm == single.comm
        assert batched.stacks == single.stacks


# -- the executable kernel ---------------------------------------------------------

def desk_spec(atoms=4, wf=8, nr=256, procs=8):
    return SystemSpec(n_atoms=atoms, n_valence=wf // 2, n_conduction=wf - wf // 2,
                      n_grid=nr, n_processes=procs)


def test_modes_agree_elementwise(cfg):
    spec = desk_spec()
    wa, _, _ = run_pseudopotential(spec, PseudoMode.PER_PROCESS_COPY, 42, cfg)
    wb, _, _ = run_pseudopotential(spec, PseudoMode.SHARED_BLOCK, 42, cfg)
    assert np.allclose(wa, wb, rtol=1e-12, atol=0.0)


def test_update_actually_changes_wavefunctions(cfg):
    spec = desk_spec()
    rng = np.random.default_rng(42)
    wa, _, _ = run_pseudopotential(spec, PseudoMode.PER_PROCESS_COPY, 42, cfg)
    # regenerating the inputs shows the update moved them
    from ndftsim.runtime import _generate_inputs
    _, wf0 = _generate_inputs(spec, 42, 8)
    assert not np.allclose(wa, wf0)


def test_owned_atom_needs_no_remote_read(cfg):
    # one process, one stack: every atom is local, so zero remote traffic
    spec = desk_spec(atoms=4, wf=2, procs=1)
    _, _, comm = run_pseudopotential(spec, PseudoMode.SHARED_BLOCK, 7, cfg)
    assert comm.inter_stack_messages == 0
    assert comm.requests_served_from_cache == 0


def test_shared_mode_uses_less_memory(cfg):
    spec = desk_spec(procs=8)
    _, ma, _ = run_pseudopotential(spec, PseudoMode.PER_PROCESS_COPY, 1, cfg)
    _, mb, _ = run_pseudopotential(spec, PseudoMode.SHARED_BLOCK, 1, cfg)
    assert mb.footprint_bytes < ma.footprint_bytes


def test_projector_index_outside_grid_is_data_error(cfg):
    from ndftsim.runtime import _apply_block
    wf = np.zeros(8)
    with pytest.raises(DataError):
        _apply_block(wf, np.array([9], dtype=np.int32), np.ones((1, 1)))


def test_exec_rejects_oversized_systems(cfg):
    spec = SystemSpec(n_atoms=65, n_valence=4, n_conduction=4, n_grid=256,
                      n_processes=4)
    with pytest.raises(DomainError):
        run_pseudopotential(spec, PseudoMode.SHARED_BLOCK, 1, cfg)


def test_trace_counts_match_executable_kernel(cfg):
    """Cost-mode statistics replay the executable kernel exactly when the
    payload scale matches."""
    import dataclasses
    spec = desk_spec(atoms=8, wf=12, procs=10)
    m = 8
    _, _, comm = run_pseudopotential(spec, PseudoMode.SHARED_BLOCK, 3, cfg,
                                     m_projectors=m)
    calibrated = CalibrationFixture.calibrated()
    fixture = dataclasses.replace(calibrated, pseudo=dataclasses.replace(
        calibrated.pseudo, projectors_per_atom=m))
    trace = pseudo_cost_trace(spec, PseudoMode.SHARED_BLOCK, fixture, cfg)
    assert trace.comm.inter_stack_messages == comm.inter_stack_messages
    assert trace.comm.inter_stack_bytes == comm.inter_stack_bytes
    assert trace.comm.requests_served_from_cache == comm.requests_served_from_cache
    assert trace.comm.intra_stack_bytes == comm.intra_stack_bytes


# SHA-256 of both modes' wavefunction bytes plus repr((MemStats, CommStats))
# for the four perfbench pseudo_exec shapes (64 atoms, n_grid 2048, seed
# 20261018), recorded on the one-wavefunction-at-a-time kernel.
PSEUDO_SHA256 = {
    (8, 16): "5913f5993eecbd38f96e37439bc6e9d30f2fbaaaeaec3a25379c923af156d64f",
    (8, 128): "52128fc4a46996904a00b3c02985235031d920b9fe6d67fb555c5f702a7e62ff",
    (226, 16): "559c9fdaaaec55d6d558b0e521144bc714d5cb6ccbcb002a03b2c937092eea4d",
    (226, 128): "7b3e01d4ebad6b175ef34bdb02c36f517366747bfe471c62d0c4e38f12d569ad",
}


@pytest.mark.parametrize("m, procs", list(PSEUDO_SHA256),
                         ids=[f"m{m}-p{p}" for m, p in PSEUDO_SHA256])
def test_kernel_outputs_are_pinned(cfg, m, procs):
    half = 128 if m == 8 else 8
    spec = SystemSpec(n_atoms=64, n_valence=half, n_conduction=half,
                      n_grid=2048, n_processes=procs)
    h = hashlib.sha256()
    for mode in (PseudoMode.PER_PROCESS_COPY, PseudoMode.SHARED_BLOCK):
        wfs, mem, comm = run_pseudopotential(spec, mode, 20261018, cfg,
                                             m_projectors=m)
        h.update(np.ascontiguousarray(wfs).tobytes())
        h.update(repr((mem, comm)).encode())
    assert h.hexdigest() == PSEUDO_SHA256[(m, procs)]


KERNEL_MACHINES = {(x, y, u): small_stacks(x, y, u, stack_bytes=512 * 1024 ** 2)
                   for x, y, u in ((1, 1, 1), (1, 1, 8), (1, 5, 2), (4, 4, 8),
                                   (2, 3, 1))}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(list(KERNEL_MACHINES)), st.sampled_from(list(PseudoMode)),
       st.integers(1, 12), st.integers(1, 5), st.integers(1, 5),
       st.integers(1, 40), st.one_of(st.integers(1, 8), st.just(33)),
       st.integers(0, 64), st.integers(0, 2 ** 31 - 1))
@example((1, 1, 1), PseudoMode.SHARED_BLOCK, 5, 2, 1, 9, 1, 0, 7)
@example((4, 4, 8), PseudoMode.SHARED_BLOCK, 12, 1, 1, 40, 8, 0, 11)
@example((2, 3, 1), PseudoMode.PER_PROCESS_COPY, 3, 3, 2, 2, 1, 0, 5)
def test_batched_kernel_matches_per_step_reference(
        machine, mode, atoms, n_val, n_cond, procs, m, extra_grid, seed):
    """Bit-identical wavefunctions and equal statistics against the kernel
    that reads, decodes and applies one block per (process, wavefunction,
    atom), including more processes than wavefunctions, m=1 and a single
    stack."""
    cfg = KERNEL_MACHINES[machine]
    spec = SystemSpec(n_atoms=atoms, n_valence=n_val, n_conduction=n_cond,
                      n_grid=m + extra_grid, n_processes=procs)
    wa, ma, ca = run_pseudopotential(spec, mode, seed, cfg, m_projectors=m)
    wb, mb, cb = run_pseudopotential_reference(spec, mode, seed, cfg,
                                               m_projectors=m)
    assert np.array_equal(wa, wb)
    assert (ma, ca) == (mb, cb)


def test_kernel_too_big_for_the_stacks_is_capacity_error():
    """Both access orders run out of room; the first stack to overflow may
    differ, since the batched kernel reads atom by atom."""
    cfg = small_stacks(2, 2, 2, stack_bytes=600_000)
    spec = SystemSpec(n_atoms=11, n_valence=1, n_conduction=1, n_grid=200,
                      n_processes=3)
    for kernel in (run_pseudopotential, run_pseudopotential_reference):
        with pytest.raises(CapacityError):
            kernel(spec, PseudoMode.SHARED_BLOCK, 1, cfg, m_projectors=100)


# -- footprint model -----------------------------------------------------------------

TABLE = {
    (SystemSize.SMALL, Arch.NDP): (4.43, 6.92),
    (SystemSize.SMALL, Arch.CPU): (1.84, 2.88),
    (SystemSize.LARGE, Arch.NDP): (35.3, 55.15),
    (SystemSize.LARGE, Arch.CPU): (13.8, 21.56),
}


def test_per_process_copy_reproduces_reference_cells(cfg, calibrated):
    for (system, arch), (gib, pct) in TABLE.items():
        got = footprint_model(system, arch, PseudoMode.PER_PROCESS_COPY, calibrated)
        assert got == pytest.approx(gib * GIB, rel=0.02)
        assert footprint_percentage(got, cfg) == pytest.approx(pct, abs=0.1)


def test_calibration_linear_solve(calibrated):
    fp = calibrated.footprint
    ppc = (35.3 - 13.8) / (128 - 24)
    assert fp.per_process_large == pytest.approx(ppc * GIB, rel=1e-3)
    assert fp.per_process_large / GIB == pytest.approx(0.2067, abs=0.001)
    base = 13.8 - 24 * ppc
    assert fp.base_large == pytest.approx(base * GIB, rel=1e-3)
    assert fp.base_large / GIB == pytest.approx(8.84, abs=0.01)


def test_shared_block_reduction_and_cpu_ratio(calibrated):
    ndp_large = footprint_model(SystemSize.LARGE, Arch.NDP,
                                PseudoMode.PER_PROCESS_COPY, calibrated)
    shared = footprint_model(SystemSize.LARGE, Arch.NDP,
                             PseudoMode.SHARED_BLOCK, calibrated)
    reduction = 1.0 - shared / ndp_large
    assert reduction == pytest.approx(0.578, abs=0.002)
    cpu_large = footprint_model(SystemSize.LARGE, Arch.CPU,
                                PseudoMode.PER_PROCESS_COPY, calibrated)
    assert shared / cpu_large == pytest.approx(1.08, abs=0.01)


def test_footprint_interpolation_hits_anchors(calibrated):
    small = footprint_for_atoms(64, Arch.NDP, PseudoMode.PER_PROCESS_COPY,
                                calibrated)
    large = footprint_for_atoms(1024, Arch.NDP, PseudoMode.PER_PROCESS_COPY,
                                calibrated)
    assert small == pytest.approx(4.43 * GIB, rel=0.02)
    assert large == pytest.approx(35.3 * GIB, rel=0.02)
    mid = footprint_for_atoms(256, Arch.NDP, PseudoMode.PER_PROCESS_COPY,
                              calibrated)
    assert small < mid < large


def test_log_lines_use_interface_names(cfg, caplog):
    import logging
    with caplog.at_level(logging.DEBUG, logger="ndftsim.runtime"):
        runtime = NdpRuntime(cfg)
        idx, mat = payload()
        block = runtime.alloc_shared((idx, mat), UnitRef.ndp(0, 0))
        raw = pack_block(idx, mat, 0)
        runtime.write_local(block, 0, raw)
        runtime.read_local(block, 0, 8)
        runtime.read_remote(block.block_id, 1, 0)
        runtime.write_remote(block.block_id, raw[:8], 0, 2, 0)
        runtime.broadcast(block.block_id)
    text = caplog.text
    for name in ("NDFT_Alloc_Shared", "NDFT_Read", "NDFT_Write",
                 "NDFT_Read_Remote", "NDFT_Write_Remote", "NDFT_Broadcast"):
        assert name in text


def test_spm_usage_never_exceeds_capacity(cfg):
    runtime = NdpRuntime(cfg)
    owner = UnitRef.ndp(0, 0)
    for i in range(40):  # ~10 KB each; forces spills past 256 KB
        runtime.alloc_shared(payload(m=35, nr=10 ** 4, seed=i), owner)
        assert runtime.stacks[0].spm_used <= cfg.ndp.spm_per_stack
    assert runtime.stacks[0].shared_region_used > 0


def test_directory_resolves_every_atom_once(cfg):
    spec = desk_spec(atoms=6, wf=4, procs=4)
    from ndftsim.runtime import _worker_units, _generate_inputs, NdpRuntime
    from ndftsim.runtime import DirectoryEntry
    runtime = NdpRuntime(cfg)
    atoms, _ = _generate_inputs(spec, 9, 4)
    workers = _worker_units(cfg, spec.n_processes)
    for a, (idx, mat) in enumerate(atoms):
        block = runtime.alloc_shared((idx, mat), workers[a % spec.n_processes])
        runtime.directory.register(a, DirectoryEntry(
            owner_stack=block.owner_stack, address=block.address,
            length=block.length))
    assert len(runtime.directory) == spec.n_atoms
    seen = set()
    for a, entry in runtime.directory.items():
        assert (entry.owner_stack, entry.address) not in seen
        seen.add((entry.owner_stack, entry.address))
        assert entry.length > 0
    import pytest as _pytest
    with _pytest.raises(Exception):
        runtime.directory.register(0, DirectoryEntry(0, 0, 8))
