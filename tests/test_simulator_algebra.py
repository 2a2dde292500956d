"""The simulator's algebra: with the placements fixed, every start is a max
over sums of durations taken in a fixed order per unit and per link, a
max-plus linear system.  These properties hold for any correct engine, so
a failure names the property that broke rather than a changed digest.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ndftsim.machine import MachineConfig
from ndftsim.scheduler import plan
from ndftsim.simulator import simulate
from ndftsim.workload import (KernelFamily, SystemSpec, TaskGraph,
                              build_taskgraph)
from test_scheduler import random_stage_graph, small_cxt_config
from test_simulator import scenario_report

# the CalibrationFixture field of each costed family
COSTED = [fam.value for fam in KernelFamily if fam is not KernelFamily.OTHER]


def doubled_time(cfg: MachineConfig) -> MachineConfig:
    """Every time constant doubled: rates halved, latencies doubled.  A
    power of two keeps every float exact."""
    return replace(
        cfg,
        cpu=replace(cfg.cpu, freq_hz=cfg.cpu.freq_hz / 2,
                    link_bandwidth=cfg.cpu.link_bandwidth / 2,
                    launch_latency_s=2 * cfg.cpu.launch_latency_s),
        ndp=replace(cfg.ndp, freq_hz=cfg.ndp.freq_hz / 2,
                    launch_latency_s=2 * cfg.ndp.launch_latency_s),
        hbm=replace(cfg.hbm, rate_hz=cfg.hbm.rate_hz / 2),
        interconnect=replace(
            cfg.interconnect,
            mesh_link_bandwidth=cfg.interconnect.mesh_link_bandwidth / 2,
            hop_latency_s=2 * cfg.interconnect.hop_latency_s),
        cxt_s=2 * cfg.cxt_s).validated()


def task_ends(report) -> dict[str, float]:
    return {ev.task_or_object: ev.t_end for ev in report.timeline
            if ev.kind == "task"}


@pytest.mark.parametrize("atoms, policy", [
    (16, "hybrid"), (64, "hybrid"), (64, "ndp_only"), (256, "cpu_only")])
def test_doubling_every_time_constant_doubles_every_time(
        cfg, calibrated, atoms, policy):
    base, schedule, graph = scenario_report(cfg, calibrated, atoms, policy)
    slow = doubled_time(cfg)
    slow_schedule = plan(graph, slow, policy=policy)
    assert slow_schedule.placements == schedule.placements
    report = simulate(slow_schedule, graph, slow, calibrated)
    assert len(report.timeline) == len(base.timeline)
    for ev, ref in zip(report.timeline, base.timeline):
        assert ev == ref._replace(t_start=2 * ref.t_start, t_end=2 * ref.t_end)
    assert report.makespan == 2 * base.makespan
    assert report.overhead.total == 2 * base.overhead.total


@pytest.mark.parametrize("atoms, policy", [
    (16, "hybrid"), (64, "hybrid"), (64, "ndp_only")])
def test_every_start_dominates_the_terms_of_its_max(
        cfg, calibrated, atoms, policy):
    """A move starts once its data is ready, a task once its moves have
    arrived, and a unit or the CPU link serves one interval at a time."""
    report, _, graph = scenario_report(cfg, calibrated, atoms, policy)
    starts = {ev.task_or_object: ev.t_start for ev in report.timeline
              if ev.kind == "task"}
    ends = task_ends(report)
    busy: dict[str, float] = {}
    for ev in report.timeline:  # sorted by start
        assert ev.t_end >= ev.t_start, ev
        if ev.kind == "transfer":
            oid, consumer = ev.task_or_object.rsplit("->", 1)
            producer = graph.producers.get(oid)
            assert ev.t_start >= (ends[producer] if producer else 0.0), ev
            assert starts[consumer] >= ev.t_end, ev
        if ev.kind in ("task", "cxt") or ev.unit == "cpu_link":
            assert ev.t_start >= busy.get(ev.unit, 0.0), ev
            busy[ev.unit] = ev.t_end


def raised_terms(cfg: MachineConfig, factor: float):
    """(name, config) with one cost term raised by ``factor``."""
    yield "cxt_s", replace(cfg, cxt_s=factor * cfg.cxt_s)
    mesh = cfg.interconnect
    yield "hop_latency", replace(cfg, interconnect=replace(
        mesh, hop_latency_s=factor * mesh.hop_latency_s))
    yield "ndp_launch_latency", replace(cfg, ndp=replace(
        cfg.ndp, launch_latency_s=factor * cfg.ndp.launch_latency_s))
    yield "1/cpu_link_bandwidth", replace(cfg, cpu=replace(
        cfg.cpu, link_bandwidth=cfg.cpu.link_bandwidth / factor))
    yield "1/mesh_bandwidth", replace(cfg, interconnect=replace(
        mesh, mesh_link_bandwidth=mesh.mesh_link_bandwidth / factor))


@pytest.mark.parametrize("atoms, policy", [
    (16, "hybrid"), (64, "hybrid"), (64, "ndp_only")])
def test_raising_a_cost_term_never_ends_a_task_earlier(
        cfg, calibrated, atoms, policy):
    """Monotonicity under the parent plan's placements; re-planned schedules
    may move either way (list-scheduling anomalies)."""
    base, schedule, graph = scenario_report(cfg, calibrated, atoms, policy)
    base_ends = task_ends(base)
    runs = [(name, graph, hot, calibrated)
            for name, hot in raised_terms(cfg, 1.5)]
    for fam in COSTED:
        coefs = getattr(calibrated, fam)
        fixture = replace(calibrated, **{
            fam: replace(coefs, byte_coef=1.5 * coefs.byte_coef)})
        hot_graph = build_taskgraph(graph.system, fixture,
                                    pseudo_mode=graph.pseudo_mode)
        runs.append((f"{fam}.byte_coef", hot_graph, cfg, fixture))
    for name, hot_graph, hot_cfg, fixture in runs:
        report = simulate(schedule, hot_graph, hot_cfg, fixture)
        assert report.makespan >= base.makespan, name
        ends = task_ends(report)
        assert ends.keys() == base_ends.keys(), name
        earlier = [t for t, end in ends.items() if end < base_ends[t]]
        assert not earlier, (name, earlier[:3])


STAGE_FAMILIES = [KernelFamily.OTHER, KernelFamily.PSEUDO,
                  KernelFamily.ALLTOALL]


def raised_traffic(graph: TaskGraph, family: KernelFamily,
                   factor: float) -> TaskGraph:
    """The graph with the family's task traffic raised, as its byte_coef
    would raise it; the task ids do not change."""
    tasks = [replace(t, bytes_read=factor * t.bytes_read,
                     bytes_written=factor * t.bytes_written)
             if t.family is family else t for t in graph.tasks]
    return TaskGraph(tasks, graph.data_objects, graph.system)


@st.composite
def stage_graphs(draw) -> TaskGraph:
    """A random stage graph whose stages each run one drawn family, over a
    drawn system size, so pseudopotential fetches and the all-to-all
    exchange are in reach too."""
    graph = random_stage_graph(draw(st.randoms(use_true_random=False)))
    families = draw(st.lists(st.sampled_from(STAGE_FAMILIES),
                             min_size=6, max_size=6))
    tasks = [replace(t, family=families[int(t.stage[1:])])
             for t in graph.tasks]
    count = st.integers(min_value=1, max_value=24)
    system = SystemSpec(n_atoms=draw(count), n_valence=draw(count),
                        n_conduction=draw(count), n_grid=16,
                        n_processes=draw(count))
    return TaskGraph(tasks, graph.data_objects, system)


TERMS = [name for name, _ in raised_terms(MachineConfig(), 1.0)] + STAGE_FAMILIES


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=stage_graphs(), term=st.sampled_from(TERMS),
       factor=st.floats(min_value=1.0, max_value=16.0),
       cxt=st.sampled_from([0.0, 5e-6, 1e-3]),
       policy=st.sampled_from(["hybrid", "ndp_only"]))
def test_raising_a_drawn_cost_term_never_ends_a_task_earlier(
        calibrated, graph, term, factor, cxt, policy):
    """Monotonicity under fixed placements, for a drawn term, factor and
    graph; a family term raises the traffic of that family's tasks."""
    cfg = small_cxt_config(cxt)
    schedule = plan(graph, cfg, policy=policy)
    base = simulate(schedule, graph, cfg, calibrated)
    if isinstance(term, KernelFamily):
        hot_graph, hot_cfg = raised_traffic(graph, term, factor), cfg
    else:
        hot_graph, hot_cfg = graph, dict(raised_terms(cfg, factor))[term]
    report = simulate(schedule, hot_graph, hot_cfg, calibrated)
    assert report.makespan >= base.makespan
    base_ends = task_ends(base)
    ends = task_ends(report)
    assert ends.keys() == base_ends.keys()
    assert not [t for t, end in ends.items() if end < base_ends[t]]
