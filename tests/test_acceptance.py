"""Acceptance suite: every shipped claim checked at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
on a green run).  The scenario matrix used by the calibration criteria is
the shipped default configuration, executed once per session.
"""

import csv
import dataclasses
import hashlib
import io
import itertools
import random

import numpy as np
import pytest

from ndftsim.cli import default_config, run_experiment
from ndftsim.machine import GIB, MachineConfig, UnitClass, UnitRef
from ndftsim.runtime import (Arch, NdpRuntime, PseudoMode, SystemSize,
                             footprint_model, footprint_percentage,
                             run_pseudopotential)
from ndftsim.scheduler import (Schedule, Transfer, plan,
                               schedule_from_placements, scheduling_overhead,
                               transfer_cost)
from ndftsim.simulator import simulate
from ndftsim.workload import (KernelFamily, SystemSpec, build_taskgraph,
                              derive_system)
from ndftsim.analyzer import Boundedness, classify
from graphs import make_graph


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# -- hard properties -----------------------------------------------------------


def test_criterion_1_overhead_algebra(cfg, calibrated):
    """Single-class schedules carry zero overhead; overhead is additive over
    cross edges; the transfer term is linear in bytes with slope 1/bandwidth."""
    zeros = []
    for policy, ctx, mode in (("cpu_only", "cpu", "per_process_copy"),
                              ("ndp_only", "ndp", "shared_block")):
        graph = build_taskgraph(derive_system(16, calibrated, context=ctx),
                                calibrated, pseudo_mode=mode)
        schedule = plan(graph, cfg, policy=policy)
        zeros.append(schedule.overhead.total == 0.0
                     and schedule.overhead.cxt_count == 0)

    flat = dataclasses.replace(
        cfg, interconnect=dataclasses.replace(cfg.interconnect,
                                              hop_latency_s=0.0))
    one = Transfer(object_id="o", bytes=8_000_000, src=0, dst=-1,
                   cause_task="b")
    single = scheduling_overhead(
        Schedule("manual", {}, [one], [("a", "b", "o")]), flat)
    k = 9
    many = scheduling_overhead(
        Schedule("manual", {}, [one] * k,
                 [("a", f"b{i}", "o") for i in range(k)]), flat)
    additive = (many.dt_total == pytest.approx(k * single.dt_total)
                and many.cxt_total == pytest.approx(k * single.cxt_total))

    linear = True
    for nb in (1e3, 1e6, 1e9):
        lhs = transfer_cost(2 * nb, -1, 3, cfg) - transfer_cost(nb, -1, 3, cfg)
        linear &= lhs == pytest.approx(nb / 64e9, rel=1e-12)
        lhs = transfer_cost(2 * nb, 0, 5, cfg) - transfer_cost(nb, 0, 5, cfg)
        linear &= lhs == pytest.approx(nb / 32e9, rel=1e-12)

    report("criterion 1: overhead algebra",
           all(zeros) and additive and linear,
           f"single-class zero={all(zeros)} additive={additive} linear={linear}")


def test_criterion_2_pseudopotential_oracle_equivalence(cfg):
    """200 randomized desk-scale systems: shared-block output must match the
    per-process-copy oracle to 1e-12 relative, element by element."""
    rng = random.Random(20240)
    worst = 0.0
    for trial in range(200):
        atoms = rng.randint(1, 16)
        procs = rng.randint(1, 16)
        nv = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        nr = rng.choice([64, 128, 256, 512])
        m = rng.randint(1, min(8, nr))
        seed = rng.randint(0, 2 ** 31)
        spec = SystemSpec(n_atoms=atoms, n_valence=nv, n_conduction=nc,
                          n_grid=nr, n_processes=procs)
        wa, _, _ = run_pseudopotential(spec, PseudoMode.PER_PROCESS_COPY,
                                       seed, cfg, m_projectors=m)
        wb, _, _ = run_pseudopotential(spec, PseudoMode.SHARED_BLOCK,
                                       seed, cfg, m_projectors=m)
        denom = np.maximum(np.abs(wa), 1e-300)
        worst = max(worst, float(np.max(np.abs(wa - wb) / denom)))
    report("criterion 2: shared-block equals per-process oracle (200 runs)",
           worst <= 1e-12, f"worst relative mismatch {worst:.3e}")


def test_criterion_3_arbiter_filter_bound(cfg):
    """Random access traces: at most one inter-stack transfer per
    (block, requesting stack), and total traffic never exceeds the
    flat fetch-it-yourself baseline."""
    rng = random.Random(555)
    ok_dedup = True
    ok_bound = True
    for trial in range(100):
        runtime = NdpRuntime(cfg)
        n_blocks = rng.randint(1, 12)
        blocks = []
        for b in range(n_blocks):
            m = rng.randint(1, 16)
            idx = np.arange(m, dtype=np.int32)
            mat = np.ones((m, m))
            owner_stack = rng.randrange(cfg.total_stacks)
            blocks.append(runtime.alloc_shared((idx, mat),
                                               UnitRef.ndp(owner_stack, 0)))
        flat_bytes = 0
        seen: dict[tuple[int, int], int] = {}
        for _ in range(rng.randint(1, 200)):
            block = rng.choice(blocks)
            requester = rng.randrange(cfg.total_stacks)
            if requester == block.owner_stack:
                continue
            before = runtime.comm.inter_stack_messages
            runtime.read_remote(block.block_id, requester, block.owner_stack)
            moved = runtime.comm.inter_stack_messages - before
            key = (block.block_id, requester)
            seen[key] = seen.get(key, 0) + moved
            flat_bytes += block.length  # every request fetches in a flat scheme
        ok_dedup &= all(v <= 1 for v in seen.values())
        ok_bound &= runtime.comm.inter_stack_bytes <= flat_bytes
    report("criterion 3: arbiter filter bound (100 traces)",
           ok_dedup and ok_bound,
           f"per-pair<=1 {ok_dedup}, total<=flat {ok_bound}")


def test_criterion_4_greedy_within_oracle_bound(calibrated):
    """Greedy plans stay within 1.3x of the exhaustive optimum on a corpus
    of small random graphs over a reduced machine."""
    base = MachineConfig()
    tiny = dataclasses.replace(
        base,
        ndp=dataclasses.replace(base.ndp, stacks_x=2, stacks_y=1,
                                units_per_stack=1,
                                capacity_per_unit=2 * GIB),
        cxt_s=5e-6)
    assert tiny.validate() == []
    units = [UnitRef.cpu(), UnitRef.ndp(0, 0), UnitRef.ndp(1, 0)]
    fams = [KernelFamily.FFT, KernelFamily.GEMM, KernelFamily.FACE_SPLIT,
            KernelFamily.SYEVD, KernelFamily.OTHER]

    def random_graph(rng):
        n = rng.randint(2, 8)
        tasks, objects = [], {}
        for i in range(n):
            objects[f"o{i}"] = int(10 ** rng.uniform(3, 8))
            n_in = rng.randint(0, min(i, 3))
            ins = tuple(f"o{j}" for j in sorted(rng.sample(range(i), n_in)))
            total = 10 ** rng.uniform(5, 9.5)
            tasks.append({"id": f"t{i:02d}", "family": rng.choice(fams),
                          "flops": 10 ** rng.uniform(6, 11.5),
                          "br": total * 0.7, "bw": total * 0.3,
                          "inputs": ins, "outputs": (f"o{i}",)})
        return make_graph(tasks, objects)

    worst = 0.0
    for seed in range(30):
        rng = random.Random(1000 + seed)
        graph = random_graph(rng)
        greedy = simulate(plan(graph, tiny, policy="hybrid"), graph, tiny,
                          calibrated).makespan
        best = None
        ids = [t.id for t in graph.tasks]
        for combo in itertools.product(units, repeat=len(ids)):
            mapping = dict(zip(ids, combo))
            s = schedule_from_placements(graph, tiny, mapping)
            best_candidate = simulate(s, graph, tiny, calibrated).makespan
            if best is None or best_candidate < best:
                best = best_candidate
        worst = max(worst, greedy / best)
    report("criterion 4: greedy within 1.3x of exhaustive optimum",
           worst <= 1.3, f"worst ratio {worst:.4f} over 30 graphs")


def test_criterion_5_matrix_is_deterministic(matrix_run, tmp_path):
    """Two full runs of the shipped scenario matrix produce byte-identical
    summary files."""
    config = default_config(output_dir=tmp_path / "again")
    run_experiment(config)
    second = (tmp_path / "again" / "summary.csv").read_bytes()
    report("criterion 5: byte-identical summary.csv across runs",
           second == matrix_run["summary"],
           f"{len(second)} bytes compared")


def test_criterion_6_footprint_percentage_identity(cfg, calibrated):
    """Model bytes over total memory reproduce the reference percentage
    column within 0.1 points for all four cells."""
    cells = {
        (SystemSize.SMALL, Arch.NDP): 6.92,
        (SystemSize.SMALL, Arch.CPU): 2.88,
        (SystemSize.LARGE, Arch.NDP): 55.15,
        (SystemSize.LARGE, Arch.CPU): 21.56,
    }
    worst = 0.0
    for (system, arch), expect in cells.items():
        got = footprint_percentage(
            footprint_model(system, arch, PseudoMode.PER_PROCESS_COPY,
                            calibrated), cfg)
        worst = max(worst, abs(got - expect))
    report("criterion 6: footprint percentage identity (4 cells)",
           worst <= 0.1, f"worst deviation {worst:.4f} points")


# -- calibration targets ---------------------------------------------------------


def _summary_rows(matrix_run):
    text = matrix_run["summary"].decode()
    return list(csv.DictReader(io.StringIO(text)))


def test_criterion_7_classification_matches_observations(cfg, calibrated):
    """On the CPU roofline under the shipped fixture: FFT memory-bound at
    both reference sizes, GEMM compute-bound at both, SYEVD flips from
    memory- to compute-bound, face-splitting memory-bound.  Categorical."""
    expected = {
        (KernelFamily.FFT, 64): Boundedness.MEMORY_BOUND,
        (KernelFamily.FFT, 1024): Boundedness.MEMORY_BOUND,
        (KernelFamily.GEMM, 64): Boundedness.COMPUTE_BOUND,
        (KernelFamily.GEMM, 1024): Boundedness.COMPUTE_BOUND,
        (KernelFamily.SYEVD, 64): Boundedness.MEMORY_BOUND,
        (KernelFamily.SYEVD, 1024): Boundedness.COMPUTE_BOUND,
        (KernelFamily.FACE_SPLIT, 64): Boundedness.MEMORY_BOUND,
        (KernelFamily.FACE_SPLIT, 1024): Boundedness.MEMORY_BOUND,
    }
    failures = []
    for atoms in (64, 1024):
        graph = build_taskgraph(derive_system(atoms, calibrated), calibrated)
        for fam in (KernelFamily.FFT, KernelFamily.GEMM, KernelFamily.SYEVD,
                    KernelFamily.FACE_SPLIT):
            k = next(t for t in graph.tasks if t.family is fam)
            got = classify(k, UnitClass.CPU, cfg).bound
            if got is not expected[(fam, atoms)]:
                failures.append(f"{fam.value}@{atoms}: {got.value}")
    report("criterion 7: roofline classification table",
           not failures, "; ".join(failures) or "8/8 categorical matches")


def test_criterion_8_footprint_calibration(cfg, calibrated):
    """Per-process-copy bytes within 2% of all four reference cells;
    shared-block cuts the large-system near-memory footprint by 57.8 +/- 3
    points and lands within 1.00-1.15x of the large CPU footprint."""
    cells = {
        (SystemSize.SMALL, Arch.NDP): 4.43,
        (SystemSize.SMALL, Arch.CPU): 1.84,
        (SystemSize.LARGE, Arch.NDP): 35.3,
        (SystemSize.LARGE, Arch.CPU): 13.8,
    }
    byte_ok = all(
        footprint_model(system, arch, PseudoMode.PER_PROCESS_COPY, calibrated)
        == pytest.approx(gib * GIB, rel=0.02)
        for (system, arch), gib in cells.items())
    ndp_large = footprint_model(SystemSize.LARGE, Arch.NDP,
                                PseudoMode.PER_PROCESS_COPY, calibrated)
    shared = footprint_model(SystemSize.LARGE, Arch.NDP,
                             PseudoMode.SHARED_BLOCK, calibrated)
    cpu_large = footprint_model(SystemSize.LARGE, Arch.CPU,
                                PseudoMode.PER_PROCESS_COPY, calibrated)
    reduction = 100.0 * (1.0 - shared / ndp_large)
    ratio = shared / cpu_large
    report("criterion 8: footprint calibration",
           byte_ok and abs(reduction - 57.8) <= 3.0 and 1.00 <= ratio <= 1.15,
           f"cells<=2% {byte_ok}, reduction {reduction:.2f}%, "
           f"cpu ratio {ratio:.3f}")


def test_criterion_9_speedup_trend(matrix_run):
    """Hybrid-over-cpu speedup nondecreasing across the seven systems, with
    the small reference at 1.9x +/- 25% and the large at 5.2x +/- 25%."""
    rows = [r for r in _summary_rows(matrix_run) if r["policy"] == "hybrid"]
    rows.sort(key=lambda r: int(r["n_atoms"]))
    speedups = {int(r["n_atoms"]): float(r["speedup_vs_cpu_only"])
                for r in rows}
    chain = [speedups[a] for a in (16, 32, 64, 128, 256, 1024, 2048)]
    nondecreasing = all(b >= a - 1e-12 for a, b in zip(chain, chain[1:]))
    s64, s1024 = speedups[64], speedups[1024]
    in_64 = 1.9 * 0.75 <= s64 <= 1.9 * 1.25
    in_1024 = 5.2 * 0.75 <= s1024 <= 5.2 * 1.25
    report("criterion 9: speedup trend",
           nondecreasing and in_64 and in_1024,
           f"chain={[round(s, 3) for s in chain]}, s64={s64:.3f}, "
           f"s1024={s1024:.3f}")


def test_criterion_10_overhead_fraction(matrix_run):
    """Hybrid scheduling overhead stays within 6% of makespan at both
    reference sizes."""
    rows = {int(r["n_atoms"]): float(r["overhead_frac"])
            for r in _summary_rows(matrix_run) if r["policy"] == "hybrid"}
    ok = rows[64] <= 0.06 and rows[1024] <= 0.06
    report("criterion 10: overhead fraction <= 6%",
           ok, f"si64 {100 * rows[64]:.2f}%, si1024 {100 * rows[1024]:.2f}%")


def test_hybrid_never_loses_to_either_baseline_on_shipped_matrix(matrix_run):
    """Regression property of the shipped fixture: the greedy hybrid plan is
    never slower than the better of the two forced-class baselines."""
    rows = _summary_rows(matrix_run)
    by_size: dict[int, dict[str, float]] = {}
    for r in rows:
        by_size.setdefault(int(r["n_atoms"]), {})[r["policy"]] = \
            float(r["makespan_s"])
    bad = [a for a, t in by_size.items()
           if t["hybrid"] > min(t["cpu_only"], t["ndp_only"]) + 1e-9]
    report("shipped-matrix property: hybrid <= min(cpu_only, ndp_only)",
           not bad, f"violations at {bad}" if bad else "7/7 sizes")


SHIPPED_SUMMARY_SHA256 = \
    "e098b7f589d28a14c1c572959978394ea5172ad17945e3cc436ee7817cf56573"


def test_shipped_summary_is_pinned(matrix_run):
    """The shipped matrix's summary.csv is a fixed byte string: speed work
    must not move a single digit of it."""
    digest = hashlib.sha256(matrix_run["summary"]).hexdigest()
    assert digest == SHIPPED_SUMMARY_SHA256, (
        f"summary.csv SHA-256 is {digest}.  A deliberate model change must "
        "update SHIPPED_SUMMARY_SHA256 and explain why in CHANGES.md.")
