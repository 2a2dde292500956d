"""Independent reference implementations used as test oracles.

These stay deliberately naive: operation counts come from actually executing
the arithmetic, not from the closed forms under test.
"""

from __future__ import annotations

import cmath
import csv
import io
import itertools

from ndftsim.errors import DomainError
from ndftsim.machine import (CPU_LIKE, HOST, Location, MachineConfig, UnitRef,
                             bandwidth, mesh_hops)
from ndftsim.runtime import (CommStats, DirectoryEntry, MemStats, NdpRuntime,
                             PseudoMode, PseudoTrace, SharedBlock,
                             _generate_inputs, _worker_units, pack_block,
                             unpack_block)
from ndftsim.scheduler import schedule_from_placements
from ndftsim.simulator import simulate
from ndftsim.workload import CalibrationFixture, SystemSpec, TaskGraph


class FlopCounter:
    def __init__(self):
        self.mults = 0
        self.adds = 0

    @property
    def total(self) -> int:
        return self.mults + self.adds


def gemm_flops_by_execution(m: int, n: int, k: int) -> int:
    """Count real operations of a naive triple-loop matrix product."""
    counter = FlopCounter()
    a = [[1.0] * k for _ in range(m)]
    b = [[1.0] * n for _ in range(k)]
    c = [[0.0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            for p in range(k):
                c[i][j] += a[i][p] * b[p][j]
                counter.mults += 1
                counter.adds += 1
    return counter.total


def fft_flops_by_execution(values: list[complex]) -> tuple[list[complex], int]:
    """Iterative radix-2 DIT transform counting real operations.

    Complex multiply = 4 mults + 2 adds, complex add/sub = 2 adds; every
    twiddle multiply is counted (no trivial-twiddle shortcuts), which is the
    counting convention behind the 5*N*log2(N) estimate.
    """
    n = len(values)
    if n & (n - 1):
        raise ValueError("radix-2 reference needs a power-of-two size")
    counter = FlopCounter()
    data = list(values)
    # bit reversal permutation
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            data[i], data[j] = data[j], data[i]
    size = 2
    while size <= n:
        half = size // 2
        step = cmath.exp(-2j * cmath.pi / size)
        for start in range(0, n, size):
            w = 1.0 + 0j
            for off in range(half):
                a = data[start + off]
                b = data[start + off + half] * w
                counter.mults += 4
                counter.adds += 2
                data[start + off] = a + b
                data[start + off + half] = a - b
                counter.adds += 4
                w *= step
        size *= 2
    return data, counter.total


def face_split_flops_by_execution(xs: list[complex], ys: list[complex],
                                  ) -> tuple[list[complex], int]:
    """Pointwise complex products, counting 4 mults + 2 adds per element."""
    counter = FlopCounter()
    out = []
    for x, y in zip(xs, ys):
        re = x.real * y.real - x.imag * y.imag
        im = x.real * y.imag + x.imag * y.real
        counter.mults += 4
        counter.adds += 2
        out.append(complex(re, im))
    return out, counter.total


def best_placement_by_enumeration(graph: TaskGraph, cfg: MachineConfig,
                                  fixture: CalibrationFixture,
                                  units: list[UnitRef],
                                  ) -> tuple[float, dict[str, UnitRef]]:
    """Exhaustive brute force over every task-to-unit assignment."""
    ids = [t.id for t in graph.tasks]
    best = None
    best_map = None
    for combo in itertools.product(units, repeat=len(ids)):
        mapping = dict(zip(ids, combo))
        schedule = schedule_from_placements(graph, cfg, mapping)
        report = simulate(schedule, graph, cfg, fixture)
        if best is None or report.makespan < best:
            best = report.makespan
            best_map = mapping
    return best, best_map


# -- link and trace references ---------------------------------------------
# Written out move by move, as the simulator and planner did before they
# shared one link model; the link model must reproduce them float for float.


def transfer_cost_reference(n_bytes: float, src: int, dst: int,
                            cfg: MachineConfig) -> float:
    """Uncontended seconds of a move: n / bw + hops * hop."""
    if n_bytes < 0:
        raise DomainError("transfer bytes must be >= 0")
    for loc in (src, dst):
        if loc < HOST:
            raise DomainError(f"unknown location {loc}")
    if src == dst or (src in CPU_LIKE and dst in CPU_LIKE):
        return 0.0
    hop = cfg.interconnect.hop_latency_s
    if src in CPU_LIKE or dst in CPU_LIKE:
        return n_bytes / bandwidth(Location.CPU_LINK, cfg) + 1 * hop
    hops = mesh_hops(src, dst, cfg)
    return n_bytes / bandwidth(Location.MESH_HOP, cfg) + hops * hop


class LinksReference:
    """Link FIFOs keyed by link name: the CPU link plus every directed mesh
    edge, each serializing the moves that cross it."""

    def __init__(self, cfg: MachineConfig):
        self.cfg = cfg
        self.cpu_bw = bandwidth(Location.CPU_LINK, cfg)
        self.mesh_bw = bandwidth(Location.MESH_HOP, cfg)
        self.hop = cfg.interconnect.hop_latency_s
        self.free: dict[str, float] = {}

    def mesh_route(self, src: int, dst: int) -> list[str]:
        """X-then-Y Manhattan route as a list of directed link names."""
        cfg = self.cfg
        sx, sy = src % cfg.ndp.stacks_x, src // cfg.ndp.stacks_x
        dx, dy = dst % cfg.ndp.stacks_x, dst // cfg.ndp.stacks_x
        links = []
        x, y = sx, sy
        while x != dx:
            nx = x + (1 if dx > x else -1)
            links.append(f"mesh:{x},{y}-{nx},{y}")
            x = nx
        while y != dy:
            ny = y + (1 if dy > y else -1)
            links.append(f"mesh:{x},{y}-{x},{ny}")
            y = ny
        return links

    def occupy(self, src: int, dst: int, n_bytes: float, ready: float,
               ) -> tuple[float, float, str]:
        """Serialize one transfer over its path; returns (start, end, path name)."""
        if src == dst or (src in CPU_LIKE and dst in CPU_LIKE):
            return ready, ready, "local"
        if src in CPU_LIKE or dst in CPU_LIKE:
            dur = n_bytes / self.cpu_bw + self.hop
            start = max(ready, self.free.get("cpu_link", 0.0))
            self.free["cpu_link"] = start + dur
            return start, start + dur, "cpu_link"
        links = self.mesh_route(src, dst)
        per_link = n_bytes / self.mesh_bw + self.hop
        t = ready
        first = links[0] if links else "local"
        for name in links:
            start = max(t, self.free.get(name, 0.0))
            self.free[name] = start + per_link
            t = start + per_link
        return ready, t, first


def timeline_csv_reference(report) -> str:
    """The timeline CSV as one csv.writer row per event, in the report's
    sorted_events() order, with both times written as repr."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["t_start", "t_end", "kind", "unit", "task_or_object",
                     "bytes"])
    for t_start, t_end, kind, unit, label, n_bytes in report.sorted_events():
        writer.writerow([repr(t_start), repr(t_end), kind, unit, label, n_bytes])
    return out.getvalue()


def pseudo_cost_trace_reference(spec: SystemSpec, fixture: CalibrationFixture,
                                cfg: MachineConfig) -> PseudoTrace:
    """Shared-block access pattern replayed atom by atom, stack by stack."""
    block_bytes = fixture.pseudo.block_bytes
    procs = spec.n_processes
    comm = CommStats()
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
    fetches = []
    for a in range(spec.n_atoms):
        owner_stack = workers[a % procs].location()
        for s in sorted(accesses_per_stack):
            n_acc = accesses_per_stack[s]
            if n_acc == 0:
                continue
            comm.intra_stack_bytes += n_acc * block_bytes  # local reads
            if s == owner_stack:
                continue
            comm.inter_stack_messages += 1
            comm.inter_stack_bytes += block_bytes
            comm.requests_served_from_cache += n_acc - 1
            fetches.append((owner_stack, s, block_bytes))
    return PseudoTrace(comm=comm, fetches=tuple(fetches))


# -- pseudopotential kernel reference ----------------------------------------


def run_pseudopotential_reference(spec: SystemSpec, mode: PseudoMode, seed: int,
                                  cfg: MachineConfig, m_projectors: int = 8,
                                  ) -> tuple:
    """The kernel one (process, wavefunction, atom) step at a time.

    Every step reads its block through the runtime primitives, decodes it
    and applies it to a single wavefunction; the batched kernel must return
    the same arrays bit for bit and the same statistics.
    """
    atoms, wfs = _generate_inputs(spec, seed, m_projectors)
    procs = spec.n_processes
    workers = _worker_units(cfg, procs)
    block_bytes = SharedBlock.length_of(m_projectors, m_projectors)

    def apply(wf, idx, mat):
        gathered = wf[idx]
        wf[idx] += mat @ gathered

    if mode is PseudoMode.PER_PROCESS_COPY:
        for w in range(wfs.shape[0]):
            for idx, mat in atoms:
                apply(wfs[w], idx, mat)
        footprint = procs * spec.n_atoms * block_bytes + wfs.nbytes
        return wfs, MemStats(footprint_bytes=footprint), CommStats()

    runtime = NdpRuntime(cfg)
    blocks = []
    for a, (idx, mat) in enumerate(atoms):
        block = runtime.alloc_shared((idx, mat), workers[a % procs])
        runtime.write_local(block, 0, pack_block(idx, mat, a))
        runtime.directory.register(a, DirectoryEntry(
            block.owner_stack, block.address, block.length))
        blocks.append(block)
    for p in range(procs):
        my_stack = workers[p].location()
        for w in range(p, wfs.shape[0], procs):
            for block in blocks:
                if block.owner_stack != my_stack:
                    runtime.read_remote(block.block_id, my_stack,
                                        block.owner_stack)
                payload = runtime.read_local(block, 0, block.length,
                                             caller_stack=my_stack)
                _, idx, mat = unpack_block(payload)
                apply(wfs[w], idx, mat)
    footprint = (spec.n_atoms * block_bytes
                 + 24 * spec.n_atoms * cfg.total_stacks + wfs.nbytes)
    mem = MemStats(footprint_bytes=footprint,
                   spm_spills=sum(b.spilled for b in blocks))
    return wfs, mem, runtime.comm
