"""Benchmark worker: runs one workload in a closed loop in a fresh process.

One caller issues operations back to back; each starts only after the
previous one returned.  Passes over the workload repeat until ``--seconds``
have been measured, and never fewer than two, so every operation's output
digest can be compared across passes.  Untraced passes also time a fixed
reference computation (``reference.py``) between operations, and
``wall_ref`` expresses the pass in its units.  With ``--trace 1`` untraced
and traced passes alternate; the traced ones give the per-layer numbers,
and the difference of the two kinds' ``wall_ref`` is the tracing overhead.

Prints one JSON object as its last line; ``run.py`` formats it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ndftsim import cli, runtime, scheduler, simulator, workload
from ndftsim.machine import MachineConfig
from ndftsim.runtime import PseudoMode
from ndftsim.workload import CalibrationFixture, SystemSpec

from reference import Reference
from spans import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_SPAN = "reference.sample"   # layer "reference": not in the table


@dataclass
class OpResult:
    name: str
    seconds: float
    digest: str | None          # None: the operation failed; "": not checked
    error: str = ""


@dataclass
class PassResult:
    seconds: float
    ops: list[OpResult]
    items: int                   # tasks, or block applications
    digest: str                  # model outputs of the whole pass
    problems: list[str] = field(default_factory=list)
    traced: bool = False
    wall_ref: float = 0.0        # pass time in reference units

    def normalise(self, samples: list[float]) -> None:
        """Divide each operation by the mean of the reference samples taken
        just before and just after it; time outside the operations (report
        writing) by the mean of all the pass's samples."""
        if len(samples) != len(self.ops) + 1:
            self.wall_ref = self.seconds / statistics.fmean(samples)
            return
        in_ops = sum(op.seconds for op in self.ops)
        self.wall_ref = (sum(op.seconds * 2 / (a + b) for op, a, b
                             in zip(self.ops, samples, samples[1:]))
                         + (self.seconds - in_ops) / statistics.fmean(samples))


def report_digest(report) -> str:
    """SHA-256 over the public fields of a SimulationReport."""
    h = hashlib.sha256()
    head = (repr(report.makespan),
            sorted((f.value, repr(t)) for f, t in report.per_family_time.items()),
            repr(report.overhead), repr(report.comm),
            sorted((k, repr(v)) for k, v in report.footprints.items()),
            report.policy, report.transferred_bytes)
    h.update(repr(head).encode())
    h.update(report.timeline_csv().encode())
    return h.hexdigest()


def _start(name: str, tracer: Tracer | None, ref: Reference) -> float:
    """Label the spans, sample the reference, and start the operation's
    clock.  In a traced pass the sample is a span of its own, so no layer's
    self time includes it (on matrix it runs inside run_experiment)."""
    if tracer is None:
        ref.sample()
    else:
        tracer.op = name
        tracer.span(REFERENCE_SPAN, ref.sample)()
    return time.perf_counter()


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _tasks(report) -> int:
    """Tasks in the scenario's graph: one "task" event each, one unit each."""
    return sum(1 for ev in report.timeline if ev.kind == "task")


def _bad_makespan(name: str, report) -> list[str]:
    if math.isfinite(report.makespan) and report.makespan > 0:
        return []
    return [f"{name}: makespan {report.makespan!r}"]


# -- workloads ----------------------------------------------------------------


class Matrix:
    """The shipped 21-scenario matrix through cli.run_experiment."""

    item_name = "tasks_per_s"

    def __init__(self, seed: int, work: Path):
        self.work = work            # cost-mode scenarios do not use the seed
        self.tasks: dict[str, int] = {}
        self.speedup_err_pct = float("nan")

    def run_pass(self, tracer: Tracer | None,
                 ref: Reference) -> PassResult:
        timings: list[tuple[str, float, bool]] = []
        inner = cli.run_scenario
        first_ref = len(ref.samples)

        def timed(scenario, config):
            t0 = _start(scenario.name, tracer, ref)
            ok = False
            try:
                out = inner(scenario, config)
                ok = True
                return out
            finally:
                timings.append((scenario.name, time.perf_counter() - t0, ok))

        cli.run_scenario = timed
        try:
            with tempfile.TemporaryDirectory(dir=self.work) as tmp:
                config = cli.default_config(tmp)
                if tracer is not None:
                    tracer.op = "report"
                t0 = time.perf_counter()
                try:
                    reports = cli.run_experiment(config)
                except Exception as exc:  # counted as a failed operation
                    seconds = time.perf_counter() - t0
                    ops = [OpResult(n, t, "" if ok else None,
                                    "" if ok else _error(exc))
                           for n, t, ok in timings]
                    if all(op.digest == "" for op in ops):
                        ops.append(OpResult("report", seconds, None, _error(exc)))
                    return PassResult(seconds, ops, 0, "")
                # the reference samples taken between scenarios are not the pass
                seconds = time.perf_counter() - t0 - sum(ref.samples[first_ref:])
                summary = (Path(tmp) / "summary.csv").read_bytes()
        finally:
            cli.run_scenario = inner

        ops, problems = [], []
        for name, t, _ in timings:
            rep = reports[name]
            self.tasks.setdefault(name, _tasks(rep))
            problems += _bad_makespan(name, rep)
            ops.append(OpResult(name, t, report_digest(rep)))
        if len(reports) != 21:
            problems.append(f"expected 21 scenario reports, got {len(reports)}")
        self._speedup_error(summary, config.fixture.targets, problems)
        return PassResult(seconds, ops, sum(self.tasks.values()),
                          hashlib.sha256(summary).hexdigest(), problems)

    def _speedup_error(self, summary: bytes, targets: dict, problems) -> None:
        """Largest deviation of the si64 / si1024 hybrid speedups from the
        fixture's targets, in percent."""
        rows = [line.split(",") for line in summary.decode().splitlines()[1:]]
        speedup = {int(r[0]): float(r[4]) for r in rows if r[1] == "hybrid"}
        errs = [abs(speedup[n] / targets[f"speedup_si_{n}"] - 1.0) * 100.0
                for n in (64, 1024) if n in speedup]
        if len(errs) != 2:
            problems.append("summary.csv lacks the si64/si1024 hybrid rows")
            return
        self.speedup_err_pct = max(errs)

    def extra_info(self) -> dict:
        return {"speedup_err_pct": (self.speedup_err_pct, "%")}


class FetchHeavy:
    """Few tasks, many pseudopotential fetches through the link FIFOs.

    Shared-block ndp_only and hybrid at 1024 and 2048 atoms with 16 orbital
    groups; the per-process-copy ndp_only run at 2048 atoms is the contrast
    that runs the same simulate code with no fetch traffic.
    """

    item_name = "tasks_per_s"

    def __init__(self, seed: int, work: Path):
        fixture = replace(CalibrationFixture.calibrated(), orbital_groups_max=16)
        self.config = cli.ExperimentConfig(machine=MachineConfig(),
                                           fixture=fixture, scenarios=[],
                                           output_dir=work)
        shared, copy = PseudoMode.SHARED_BLOCK, PseudoMode.PER_PROCESS_COPY
        self.scenarios = [cli.Scenario(n, policy, shared, seed=42)
                          for n in (1024, 2048) for policy in ("ndp_only", "hybrid")]
        self.scenarios.append(cli.Scenario(2048, "ndp_only", copy, seed=42))
        self.tasks: dict[str, int] = {}

    def run_pass(self, tracer: Tracer | None,
                 ref: Reference) -> PassResult:
        ops, problems, seconds = [], [], 0.0
        for sc in self.scenarios:
            name = f"{sc.name}_{sc.pseudo_mode.value}"
            t0 = _start(name, tracer, ref)
            try:
                rep = cli.run_scenario(sc, self.config)
            except Exception as exc:  # counted as a failed operation
                dt = time.perf_counter() - t0
                ops.append(OpResult(name, dt, None, _error(exc)))
                seconds += dt
                continue
            dt = time.perf_counter() - t0
            seconds += dt
            self.tasks.setdefault(name, _tasks(rep))
            fetching = sc.pseudo_mode is PseudoMode.SHARED_BLOCK
            if (rep.comm.requests_served_from_cache > 0) != fetching:
                problems.append(f"{name}: cache hits "
                                f"{rep.comm.requests_served_from_cache}")
            problems += _bad_makespan(name, rep)
            ops.append(OpResult(name, dt, report_digest(rep)))
            del rep  # freed here, not inside the next operation's timing
        return PassResult(seconds, ops, sum(self.tasks.values()),
                          _combined(ops), problems)

    def extra_info(self) -> dict:
        return {}


class PseudoExec:
    """The numeric run_pseudopotential kernel at desk scale, both modes.

    Projector count 8 fits the 256 KiB scratchpad, 226 spills every block;
    16 processes share 3 stacks, 128 use all 16.  The m=8 systems carry 16x
    the wavefunctions so every operation costs about the same.  The seed
    draws the matrices, projector indices and wavefunctions.
    """

    item_name = "block_applies_per_s"
    N_ATOMS = 64

    def __init__(self, seed: int, work: Path):
        self.machine = MachineConfig()
        seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=4)
        self.systems = []
        for i, (m, procs) in enumerate(((8, 16), (8, 128), (226, 16), (226, 128))):
            half_wf = 128 if m == 8 else 8
            spec = SystemSpec(n_atoms=self.N_ATOMS, n_valence=half_wf,
                              n_conduction=half_wf, n_grid=2048,
                              n_processes=procs)
            self.systems.append((f"m{m}_p{procs}", spec, m, int(seeds[i])))

    def run_pass(self, tracer: Tracer | None,
                 ref: Reference) -> PassResult:
        ops, problems, seconds, items = [], [], 0.0, 0
        for name, spec, m, seed in self.systems:
            t0 = _start(name, tracer, ref)
            try:
                copy = runtime.run_pseudopotential(
                    spec, PseudoMode.PER_PROCESS_COPY, seed, self.machine,
                    m_projectors=m)
                shared = runtime.run_pseudopotential(
                    spec, PseudoMode.SHARED_BLOCK, seed, self.machine,
                    m_projectors=m)
            except Exception as exc:  # counted as a failed operation
                dt = time.perf_counter() - t0
                ops.append(OpResult(name, dt, None, _error(exc)))
                seconds += dt
                continue
            dt = time.perf_counter() - t0
            seconds += dt
            items += 2 * (spec.n_valence + spec.n_conduction) * spec.n_atoms
            if np.allclose(copy[0], shared[0], rtol=1e-12, atol=0.0):
                h = hashlib.sha256()
                for wfs, mem, comm in (copy, shared):
                    h.update(np.ascontiguousarray(wfs).tobytes())
                    h.update(repr((mem, comm)).encode())
                ops.append(OpResult(name, dt, h.hexdigest()))
            else:
                ops.append(OpResult(name, dt, None, "pseudopotential modes diverge"))
            del copy, shared  # freed here, not inside the next timing
        return PassResult(seconds, ops, items, _combined(ops), problems)

    def extra_info(self) -> dict:
        return {}


WORKLOADS = {"matrix": Matrix, "fetch_heavy": FetchHeavy,
             "pseudo_exec": PseudoExec}


def _combined(ops: list[OpResult]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.name}:{op.digest}\n".encode())
    return h.hexdigest()


# -- tracing ------------------------------------------------------------------


def _policy(args, kwargs) -> str:
    return kwargs.get("policy", args[2] if len(args) > 2 else "hybrid")


def _mode(args, kwargs) -> str:
    return (kwargs["mode"] if "mode" in kwargs else args[1]).value


def _graph_counts(counts, args, graph):
    counts["workload.tasks"] += len(graph.tasks)
    counts["workload.edges"] += len(graph.edges)


def _plan_counts(counts, args, schedule):
    counts["scheduler.tasks"] += len(schedule.placements)
    counts["scheduler.transfers"] += len(schedule.transfers)
    counts["scheduler.crossing_edges"] += len(schedule.crossing_edges)


def _sim_counts(counts, args, report):
    counts["simulator.events"] += len(report.timeline)


def _comm_counts(counts, comm):
    counts["runtime.cache_hits"] += comm.requests_served_from_cache
    counts["runtime.inter_stack_messages"] += comm.inter_stack_messages


def _trace_counts(counts, args, trace):
    counts["runtime.fetches"] += len(trace.fetches)
    _comm_counts(counts, trace.comm)


def _exec_counts(counts, args, out):
    _, mem, comm = out
    counts["runtime.spm_spills"] += mem.spm_spills
    _comm_counts(counts, comm)


def install(tracer: Tracer) -> None:
    """Wrap the names each layer's callers look up.

    estimate_time and topo_order run hundreds of thousands of times, so they
    are only counted; their time stays inside the scheduler's and the
    simulator's self time.
    """
    t = tracer
    t.patch(cli, "run_experiment", t.span("cli.run_experiment", cli.run_experiment))
    t.patch(cli, "run_scenario", t.span("cli.run_scenario", cli.run_scenario))
    t.patch(cli, "derive_system",
            t.span("workload.derive_system", cli.derive_system))
    t.patch(cli, "build_taskgraph", t.span("workload.build_taskgraph",
                                           cli.build_taskgraph,
                                           on_result=_graph_counts))
    t.patch(cli, "plan", t.span("scheduler.plan", cli.plan, tag=_policy,
                                on_result=_plan_counts))
    t.patch(cli, "simulate", t.span("simulator.simulate", cli.simulate,
                                    on_result=_sim_counts))
    t.patch(simulator, "pseudo_cost_trace",
            t.span("runtime.pseudo_cost_trace", simulator.pseudo_cost_trace,
                   tag=lambda a, k: a[1].value, on_result=_trace_counts))
    t.patch(runtime, "run_pseudopotential",
            t.span("runtime.run_pseudopotential", runtime.run_pseudopotential,
                   tag=_mode, on_result=_exec_counts))
    for module in (scheduler, simulator):
        t.patch(module, "estimate_time",
                t.counter("analyzer.estimate_calls", module.estimate_time))
    t.patch(workload.TaskGraph, "topo_order",
            t.counter("workload.topo_order_calls", workload.TaskGraph.topo_order))


def traced_setup(config_path: Path, repeats: int = 5) -> float:
    """Median traced load_config time on the shipped YAML."""
    tracer = Tracer()
    load = tracer.span("cli.load_config", cli.load_config)
    for _ in range(repeats):
        bad = load(config_path).validate()
        if bad:
            raise SystemExit(f"shipped config does not validate: {bad[0]}")
    return statistics.median(s.end - s.start for s in tracer.closed())


def layer_metrics(tracer: Tracer, traced: list[PassResult],
                  untraced: list[PassResult]) -> tuple[dict, dict]:
    """Per-layer metrics per traced pass, and the layer table
    {layer: [self seconds, spans]} that accounts for the traced pass.

    The overhead compares the passes in reference units, so host drift
    between a traced pass and its untraced neighbour does not count as
    overhead.  On matrix a run holds one pair, so it is one sample."""
    n = len(traced)
    c = tracer.counts
    total = tracer.total

    def per(x):
        return x / n

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    m["cli.report_write_s"] = (per(total("cli.run_experiment", self_only=True)), "s")
    m["workload.build_s"] = (per(total("workload.build_taskgraph")
                                 + total("workload.derive_system")), "s")
    for key in ("workload.tasks", "workload.edges", "workload.topo_order_calls",
                "scheduler.transfers", "scheduler.crossing_edges",
                "analyzer.estimate_calls", "simulator.events",
                "runtime.fetches", "runtime.spm_spills"):
        m[key] = (per(c[key]), "count")
    plan_s = total("scheduler.plan")
    m["scheduler.plan_s"] = (per(plan_s), "s")
    for policy in scheduler.POLICIES:
        m[f"scheduler.plan_s.{policy}"] = (per(total("scheduler.plan", policy)), "s")
    m["scheduler.plan_us_per_task"] = (ratio(plan_s, c["scheduler.tasks"]) * 1e6, "us")
    sim_s = total("simulator.simulate")
    m["simulator.simulate_s"] = (per(sim_s), "s")
    m["simulator.self_s"] = (per(total("simulator.simulate", self_only=True)), "s")
    m["simulator.us_per_event"] = (ratio(sim_s, c["simulator.events"]) * 1e6, "us")
    m["runtime.trace_s"] = (per(total("runtime.pseudo_cost_trace")), "s")
    shared = total("runtime.run_pseudopotential", "shared_block")
    copy = total("runtime.run_pseudopotential", "per_process_copy")
    m["runtime.exec_s.shared_block"] = (per(shared), "s")
    m["runtime.exec_s.per_process_copy"] = (per(copy), "s")
    m["runtime.shared_over_copy"] = (ratio(shared, copy), "ratio")
    hits = c["runtime.cache_hits"]
    m["runtime.cache_hit_ratio"] = (
        ratio(hits, hits + c["runtime.inter_stack_messages"]), "ratio")

    table = {layer: [per(t), per(calls)]
             for layer, (t, calls) in tracer.layer_table().items()
             if layer != "reference"}
    table["unattributed"] = [per(sum(p.seconds for p in traced))
                             - sum(t for t, _ in table.values()), 0]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (table[layer][0], "s")
    m["trace.wall_s"] = (statistics.median(p.seconds for p in traced), "s")
    m["trace.untraced_wall_s"] = (statistics.median(p.seconds for p in untraced), "s")
    tr = statistics.median(p.wall_ref for p in traced)
    ur = statistics.median(p.wall_ref for p in untraced)
    m["trace.wall_ref"] = (tr, "ref")
    m["trace.untraced_wall_ref"] = (ur, "ref")
    m["trace.overhead_pct"] = ((tr - ur) / ur * 100.0, "%")
    m["trace.unattributed_s"] = (table["unattributed"][0], "s")
    return m, table


# -- the closed loop ------------------------------------------------------------


def measure(wl, seconds: float, traced_mode: bool, tracer: Tracer,
            ref: Reference) -> list[PassResult]:
    """Passes back to back until `seconds` are measured (at least two).

    In traced mode even passes run untraced and odd passes traced.  Every
    pass samples the reference before each operation and after the last.
    """
    passes: list[PassResult] = []
    measured = 0.0
    while measured < seconds or len(passes) < 2:
        trace = traced_mode and len(passes) % 2 == 1
        first_ref = len(ref.samples)
        if trace:
            install(tracer)
        try:
            res = wl.run_pass(tracer if trace else None, ref)
        finally:
            tracer.remove()
        ref.sample()
        res.normalise(ref.samples[first_ref:])
        res.traced = trace
        passes.append(res)
        measured += res.seconds
    return passes


def account(passes: list[PassResult]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): an operation fails when it raised,
    when its modes diverged, or when its digest differs from its first pass."""
    attempted = failed = 0
    first: dict[str, str] = {}
    problems: list[str] = []
    for i, p in enumerate(passes):
        problems.extend(f"pass {i}: {msg}" for msg in p.problems)
        for op in p.ops:
            attempted += 1
            if op.digest is None:
                failed += 1
                problems.append(f"pass {i}: {op.name}: {op.error}")
                continue
            if op.digest and first.setdefault(op.name, op.digest) != op.digest:
                failed += 1
                problems.append(f"pass {i}: {op.name}: output digest changed")
    return attempted, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--config", type=Path, required=True,
                    help="shipped YAML for the traced load_config span")
    ap.add_argument("--work", type=Path, required=True,
                    help="scratch directory inside the checkout")
    args = ap.parse_args(argv)

    if ROOT not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"ndftsim imported from {cli.__file__}, not from {ROOT}")
    wl = WORKLOADS[args.workload](args.seed, args.work)
    tracer, ref = Tracer(), Reference()
    passes = measure(wl, args.seconds, bool(args.trace), tracer, ref)
    attempted, failed, problems = account(passes)
    digests = sorted({p.digest for p in passes if p.digest})

    plain = [p for p in passes if not p.traced]
    walls = [p.seconds for p in plain]
    op_times = [op.seconds for p in plain for op in p.ops]
    q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "wall_s.q1": (q1, "s"),
        "wall_s.q3": (q3, "s"),
        "wall_ref": (statistics.median(p.wall_ref for p in plain), "ref"),
        "ref_s": (statistics.median(ref.samples), "s"),
        "op_p50_s": (statistics.median(op_times), "s"),
        "op_p90_s": (statistics.quantiles(op_times, n=10)[8], "s"),
        wl.item_name: (statistics.median(p.items / p.seconds for p in plain), "1/s"),
        "error_rate": (failed / attempted, "fraction"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                         "MiB"),
    }
    metrics.update(wl.extra_info())
    info = {"numpy": np.__version__, "passes": len(plain),
            "pass_s": [round(w, 4) for w in walls], "op_samples": len(op_times),
            "output_sha256": digests[0] if len(digests) == 1 else digests}
    if args.trace:
        layer_m, info["layers"] = layer_metrics(
            tracer, [p for p in passes if p.traced], plain)
        metrics.update(layer_m)
        metrics["cli.load_config_s"] = (traced_setup(args.config), "s")
        info["trace_file"] = str(args.work / f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write_chrome(info["trace_file"])
        info["traced_passes"] = len(passes) - len(plain)
    correct = failed == 0 and not problems and len(digests) == 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "problems": problems[:20], "info": info,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
