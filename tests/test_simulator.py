import dataclasses
import hashlib
import itertools
import random
from collections import Counter

import pytest

from ndftsim import simulator
from ndftsim.cli import SHIPPED_SIZES, Scenario, default_config, run_scenario
from ndftsim.costmodel import CommStats
from ndftsim.errors import DomainError, ScheduleError
from ndftsim.machine import UnitRef
from ndftsim.runtime import PseudoMode
from ndftsim.scheduler import (POLICIES, PlanContext, Schedule, plan,
                               schedule_from_placements)
from ndftsim.simulator import compare, simulate
from ndftsim.workload import (DataObject, KernelFamily, build_taskgraph,
                              derive_system)
from graphs import make_graph
from test_scheduler import random_stage_graph, small_cxt_config


def test_empty_schedule_empty_graph(cfg, calibrated):
    graph = make_graph([], {})
    schedule = schedule_from_placements(graph, cfg, {})
    report = simulate(schedule, graph, cfg, calibrated)
    assert report.makespan == 0.0
    assert report.timeline == []


def test_single_task_pays_transfer_plus_estimate(cfg, calibrated):
    graph = make_graph(
        [{"id": "t0", "flops": 0.0, "br": 1e6, "bw": 0.0,
          "inputs": ("x",), "outputs": ("y",)}],
        {"x": 10 ** 6, "y": 8})
    unit = UnitRef.ndp(0, 0)
    schedule = schedule_from_placements(graph, cfg, {"t0": unit})
    report = simulate(schedule, graph, cfg, calibrated)
    expect = (1e6 / 64e9 + 100e-9) + (1e6 / 32e9 + 1e-6)
    assert report.makespan == pytest.approx(expect)


def test_two_independent_tasks_run_in_parallel(cfg, calibrated):
    tasks = [{"id": f"t{i}", "flops": 4e9, "br": 8.0, "bw": 8.0,
              "inputs": (), "outputs": (f"o{i}",)} for i in range(2)]
    graph = make_graph(tasks, {"o0": 8, "o1": 8})
    both = schedule_from_placements(
        graph, cfg, {"t0": UnitRef.ndp(0, 0), "t1": UnitRef.ndp(0, 1)})
    r_par = simulate(both, graph, cfg, calibrated)
    single = 4e9 / 4e9 + 1e-6
    assert r_par.makespan == pytest.approx(single)
    same = schedule_from_placements(
        graph, cfg, {"t0": UnitRef.ndp(0, 0), "t1": UnitRef.ndp(0, 0)})
    r_ser = simulate(same, graph, cfg, calibrated)
    assert r_ser.makespan == pytest.approx(2 * single)


def test_unplaced_task_is_schedule_error(cfg, calibrated):
    """A missing placement, or one in the old list shape, names the task."""
    graph = make_graph([{"id": "t0", "flops": 1.0, "br": 8.0, "bw": 0.0,
                         "inputs": (), "outputs": ("o",)}], {"o": 8})
    for placements in ({}, {"t0": [UnitRef.ndp(0, 0)]}):
        with pytest.raises(ScheduleError, match="t0"):
            schedule_from_placements(graph, cfg, placements)
        with pytest.raises(ScheduleError, match="t0"):
            simulate(Schedule("manual", placements, []), graph, cfg,
                     calibrated)


@pytest.mark.parametrize("unit", [UnitRef.ndp(0, 99), UnitRef.ndp(99, 0)],
                         ids=["unit", "stack"])
def test_placement_outside_the_machine_is_domain_error(cfg, calibrated, unit):
    graph = make_graph([{"id": "t0", "flops": 1.0, "br": 8.0, "bw": 0.0,
                         "inputs": (), "outputs": ("o",)}], {"o": 8})
    with pytest.raises(DomainError):
        simulate(Schedule("manual", {"t0": unit}, []), graph, cfg, calibrated)


def test_alltoall_partitions_on_stacks_exchange_over_the_mesh(cfg, calibrated):
    """A partition homed on stack 0 is a stack-0 partition, not a CPU-side one."""
    graph = make_graph(
        [{"id": "x", "family": KernelFamily.ALLTOALL, "br": 4e6, "bw": 4e6,
          "inputs": ("p0", "p5"), "outputs": ("y",)}],
        {"p0": 10 ** 6, "p5": 10 ** 6, "y": 8})
    graph.data_objects["p0"] = DataObject("p0", 10 ** 6, 0)
    graph.data_objects["p5"] = DataObject("p5", 10 ** 6, 5)
    schedule = schedule_from_placements(graph, cfg, {"x": UnitRef.ndp(0, 0)})
    report = simulate(schedule, graph, cfg, calibrated)
    exchanges = sorted((ev.task_or_object, ev.unit, ev.bytes)
                       for ev in report.timeline if ev.kind == "comm")
    assert exchanges == [("x:0->5", "mesh:0,0-1,0", 10 ** 6),
                         ("x:5->0", "mesh:1,1-0,1", 10 ** 6)]
    assert report.comm.inter_stack_messages == 2
    assert report.comm.inter_stack_bytes == 2 * 10 ** 6


def scenario_report(cfg, fixture, atoms, policy):
    ctx = "cpu" if policy == "cpu_only" else "ndp"
    mode = (PseudoMode.PER_PROCESS_COPY if policy == "cpu_only"
            else PseudoMode.SHARED_BLOCK)
    spec = derive_system(atoms, fixture, context=ctx)
    graph = build_taskgraph(spec, fixture, pseudo_mode=mode.value)
    schedule = plan(graph, cfg, policy=policy)
    return simulate(schedule, graph, cfg, fixture), schedule, graph


def test_reports_are_deterministic(cfg, calibrated):
    # the CSV holds every field of every event, floats as repr; comparing
    # digests keeps a failure's diff short
    def digest(report):
        return (report.makespan,
                hashlib.sha256(report.timeline_csv().encode()).hexdigest())

    a, _, _ = scenario_report(cfg, calibrated, 16, "hybrid")
    b, _, _ = scenario_report(cfg, calibrated, 16, "hybrid")
    assert digest(a) == digest(b)


def test_causality_no_task_starts_before_inputs(cfg, calibrated):
    report, schedule, graph = scenario_report(cfg, calibrated, 16, "hybrid")
    task_events = {ev.task_or_object: ev for ev in report.timeline
                   if ev.kind == "task"}
    for prod, cons, _obj in graph.edges:
        assert task_events[cons].t_start >= task_events[prod].t_end - 1e-12


def test_conservation_of_transferred_bytes(cfg, calibrated):
    from ndftsim.runtime import pseudo_cost_trace
    report, schedule, graph = scenario_report(cfg, calibrated, 16, "hybrid")
    timeline_bytes = sum(ev.bytes for ev in report.timeline
                         if ev.kind in ("transfer", "comm"))
    schedule_bytes = sum(t.bytes for t in schedule.transfers)
    trace = pseudo_cost_trace(graph.system, PseudoMode.SHARED_BLOCK,
                              calibrated, cfg)
    trace_bytes = sum(b for _, _, b in trace.fetches)
    exchange_bytes = sum(ev.bytes for ev in report.timeline
                         if ev.kind == "comm" and ev.task_or_object.startswith("s6_"))
    assert timeline_bytes == schedule_bytes + trace_bytes + exchange_bytes
    assert report.transferred_bytes == timeline_bytes


def test_simulated_moves_equal_the_schedules_transfers(cfg, calibrated):
    """simulate moves exactly what schedule_from_placements lists."""
    report, schedule, graph = scenario_report(cfg, calibrated, 16, "hybrid")
    moved = Counter((ev.task_or_object, ev.unit, ev.bytes)
                    for ev in report.timeline if ev.kind == "transfer")
    listed = Counter((f"{t.object_id}->{t.cause_task}",
                      cfg.links.path(t.src, t.dst).name, t.bytes)
                     for t in schedule.transfers)
    assert listed and moved == listed


def test_simulate_derives_the_moves_from_the_placements(cfg, calibrated):
    """A schedule's transfer lists cannot drop or add a move the placements imply."""
    spec = derive_system(64, calibrated)
    graph = build_taskgraph(spec, calibrated)
    schedule = plan(graph, cfg, policy="hybrid")
    other = plan(graph, cfg, policy="ndp_only")
    assert schedule.crossing_edges and other.transfers != schedule.transfers
    planned = simulate(schedule, graph, cfg, calibrated)
    assert planned.overhead == schedule.overhead and planned.overhead.total > 0

    def digest(report):  # a failing == on two timelines would diff them in full
        return hashlib.sha256(report.timeline_csv().encode()).hexdigest()

    for transfers, crossings in (([], []),
                                 (other.transfers, other.crossing_edges)):
        run = simulate(dataclasses.replace(schedule, transfers=transfers,
                                           crossing_edges=crossings),
                       graph, cfg, calibrated)
        assert digest(run) == digest(planned)
        assert run.overhead == planned.overhead
        assert run.comm == planned.comm


@pytest.mark.parametrize("n_atoms", [16, 32, 64])
def test_overhead_sums_equal_on_random_placements(cfg, calibrated, n_atoms):
    """The schedule and the simulation add the same handoff terms in the
    same order, so their sums are equal, not only close: from Python 3.12
    on, sum() of floats rounds differently from a plain loop."""
    graph = build_taskgraph(derive_system(n_atoms, calibrated), calibrated)
    units = [UnitRef.cpu()] + [UnitRef.ndp(s, u)
                               for s in range(cfg.total_stacks)
                               for u in range(cfg.ndp.units_per_stack)]
    for seed in range(5):
        rng = random.Random(seed)
        placements = {t.id: rng.choice(units) for t in graph.tasks}
        schedule = schedule_from_placements(graph, cfg, placements, "hybrid")
        report = simulate(schedule, graph, cfg, calibrated)
        assert report.overhead == schedule.overhead, seed


def test_alltoall_input_without_producer_or_home_is_schedule_error(
        cfg, calibrated):
    graph = make_graph(
        [{"id": "x", "family": KernelFamily.ALLTOALL, "br": 8.0, "bw": 8.0,
          "inputs": ("p",), "outputs": ("y",)}], {"p": 8, "y": 8})
    graph.data_objects["p"] = DataObject("p", 8, None)
    placements = {"x": UnitRef.ndp(0, 0)}
    with pytest.raises(ScheduleError, match="p has no producer or home"):
        schedule_from_placements(graph, cfg, placements)
    with pytest.raises(ScheduleError, match="p has no producer or home"):
        simulate(Schedule("manual", placements, []), graph, cfg, calibrated)
    with pytest.raises(ScheduleError, match="p has no producer or home"):
        plan(graph, cfg, "hybrid")


@pytest.mark.parametrize("x_home", [set(), {"x"}], ids=["no_home", "host"])
def test_plan_names_a_read_of_an_output_of_the_same_stage_group(
        cfg, calibrated, x_home):
    # a produced object comes from its producer, whatever its home
    graph = make_graph(
        [{"id": "s1_a", "flops": 1.0, "br": 8.0, "bw": 8.0,
          "inputs": ("i",), "outputs": ("x",)},
         {"id": "s1_b", "flops": 1.0, "br": 8.0, "bw": 8.0,
          "inputs": ("x",), "outputs": ("y",)}],
        {"i": 8, "x": 8, "y": 8}, host_objects=x_home)
    # a valid graph: the walk runs it under any placement
    placements = {"s1_a": UnitRef.ndp(0, 0), "s1_b": UnitRef.ndp(0, 0)}
    simulate(Schedule("manual", placements, []), graph, cfg, calibrated)
    for policy in ("hybrid", "cpu_only", "ndp_only"):
        with pytest.raises(ScheduleError,
                           match="task s1_b reads x, which s1_a produces "
                                 "in the same stage group"):
            plan(graph, cfg, policy)


def test_makespan_monotone_in_cxt(cfg, calibrated):
    _, schedule, graph = scenario_report(cfg, calibrated, 64, "hybrid")
    makespans = []
    for cxt in (0.0, 1.0, 8.0, 20.0):
        hot = cfg.with_cxt(cxt)
        rep = simulate(schedule, graph, hot, calibrated)
        makespans.append(rep.makespan)
    assert makespans == sorted(makespans)


def test_pseudo_traffic_counts_only_with_an_update_task_on_ndp():
    """A shared-block graph planned cpu_only replays no fetch, and its
    distribution traffic is not counted either."""
    report = run_scenario(Scenario(16, "cpu_only", PseudoMode.SHARED_BLOCK,
                                   seed=1), default_config())
    assert report.comm == CommStats()
    assert not [ev for ev in report.timeline if ev.kind == "comm"]


def test_per_family_times_bounded_by_makespan(cfg, calibrated):
    report, _, _ = scenario_report(cfg, calibrated, 32, "hybrid")
    for fam, t in report.per_family_time.items():
        assert 0 < t <= report.makespan + 1e-12
    assert report.overhead.total <= report.makespan


def test_compare_identical_reports_gives_unit_ratios(cfg, calibrated):
    report, _, _ = scenario_report(cfg, calibrated, 16, "cpu_only")
    table = compare([("base", report), ("same", report)])
    lines = table.strip().split("\n")
    assert "speedup_vs_base" in lines[0]
    cells = lines[2].split(",")
    assert float(cells[2]) == 1.0


def test_compare_needs_two_reports(cfg, calibrated):
    report, _, _ = scenario_report(cfg, calibrated, 16, "cpu_only")
    with pytest.raises(DomainError):
        compare([("only", report)])


def test_timeline_csv_header(cfg, calibrated):
    report, _, _ = scenario_report(cfg, calibrated, 16, "ndp_only")
    header = report.timeline_csv().split("\n", 1)[0]
    assert header == "t_start,t_end,kind,unit,task_or_object,bytes"


# SHA-256 of timeline_csv() + repr(per_family_time) + repr(comm) for three
# scenarios, graphs built as run_scenario builds them.  si1024 ndp_only with
# 16 orbital groups is the fetch-heavy path (thousands of pseudopotential
# fetches through the link FIFOs); si2048 hybrid runs on a 2x8 mesh (still
# 64 GiB), so its fetches take X-then-Y routes on a non-square mesh.  A
# change here is a change of simulated behaviour and must be explained in
# CHANGES.md.
TIMELINE_SHA256 = {
    (64, "hybrid", None, (4, 4)):
        "4c88d40feeeed5b9fcf2107d8d285cb582491a35ee8fe05a72e37250ba359876",
    (1024, "ndp_only", 16, (4, 4)):
        "a0584574a6b345edddb56c9990e3d315e8aeb7a0738b033ff0022796fc80ae21",
    (2048, "hybrid", 16, (2, 8)):
        "cf41e389b228863da0ca1f5c38658128647a7e08ed29ab355c0d9270a4402f39",
}


def timeline_id(case) -> str:
    atoms, policy, groups, (stacks_x, stacks_y) = case
    mesh = "" if (stacks_x, stacks_y) == (4, 4) else f"-{stacks_x}x{stacks_y}"
    return f"{atoms}-{policy}-{groups}{mesh}"


@pytest.mark.parametrize("atoms, policy, groups, mesh", list(TIMELINE_SHA256),
                         ids=[timeline_id(case) for case in TIMELINE_SHA256])
def test_timelines_are_pinned(cfg, calibrated, atoms, policy, groups, mesh):
    stacks_x, stacks_y = mesh
    cfg = dataclasses.replace(cfg, ndp=dataclasses.replace(
        cfg.ndp, stacks_x=stacks_x, stacks_y=stacks_y)).validated()
    fixture = (calibrated if groups is None
               else dataclasses.replace(calibrated, orbital_groups_max=groups))
    graph = build_taskgraph(derive_system(atoms, fixture, context="ndp"),
                            fixture, pseudo_mode="shared_block")
    schedule = plan(graph, cfg, policy=policy)
    report = simulate(schedule, graph, cfg, fixture)
    text = (report.timeline_csv() + repr(report.per_family_time)
            + repr(report.comm))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == TIMELINE_SHA256[(atoms, policy, groups, mesh)]


# -- resuming from a kept run on the plan context ------------------------------

def exact(report) -> tuple:
    """Every output field, floats as repr, so equal means byte-identical."""
    return (report.timeline_csv(), repr(report.makespan),
            repr(report.per_family_time), repr(report.overhead),
            repr(report.comm), repr(report.footprints),
            report.transferred_bytes)


def ndp_graph(fixture, atoms):
    """The graph run_scenario builds for ndp_only and hybrid."""
    return build_taskgraph(derive_system(atoms, fixture, context="ndp"),
                           fixture, pseudo_mode="shared_block")


def record_starts(monkeypatch) -> list[int]:
    """The task index each later simulate's walk starts at."""
    starts: list[int] = []
    inner = simulator.placed_moves

    def recorded(graph, cfg, placements, start=0):
        starts.append(start)
        return inner(graph, cfg, placements, start)

    monkeypatch.setattr(simulator, "placed_moves", recorded)
    return starts


def test_simulate_refuses_a_context_of_another_graph_or_machine(cfg,
                                                                calibrated):
    graph = ndp_graph(calibrated, 16)
    other = ndp_graph(calibrated, 16)
    context = PlanContext(graph, cfg)
    schedule = plan(graph, cfg, "hybrid", context=context)
    with pytest.raises(DomainError, match="^plan context was built for "
                       "another graph$"):
        simulate(schedule, other, cfg, calibrated, context=context)
    with pytest.raises(DomainError, match="^plan context was built for "
                       "another machine$"):
        simulate(schedule, graph, cfg.with_cxt(1.0), calibrated,
                 context=context)


@pytest.mark.parametrize("atoms", SHIPPED_SIZES)
def test_resumed_runs_equal_fresh_runs_on_the_shipped_sizes(
        monkeypatch, cfg, calibrated, atoms):
    """The three policies, simulated on one context in all six orders."""
    graph = ndp_graph(calibrated, atoms)
    context = PlanContext(graph, cfg)
    schedules = {p: plan(graph, cfg, p, context=context) for p in POLICIES}
    fresh = {p: exact(simulate(s, graph, cfg, calibrated))
             for p, s in schedules.items()}
    starts = record_starts(monkeypatch)
    for order in itertools.permutations(POLICIES):
        context.last_run = None
        for policy in order:
            report = simulate(schedules[policy], graph, cfg, calibrated,
                              context=context)
            assert exact(report) == fresh[policy], (order, policy)
    # ndp_only and hybrid differ in the last group at most, so each resumes
    # from the other past the first task
    assert max(starts) > 0


@pytest.mark.parametrize("cxt", [0.0, 5e-6, 1e-3, 100.0])
def test_resumed_runs_equal_fresh_runs_on_random_graphs(monkeypatch,
                                                        calibrated, cxt):
    cfg = small_cxt_config(cxt)
    starts = record_starts(monkeypatch)
    for seed in range(40):
        graph = random_stage_graph(random.Random(seed))
        context = PlanContext(graph, cfg)
        schedules = {p: plan(graph, cfg, p, context=context) for p in POLICIES}
        fresh = {p: exact(simulate(s, graph, cfg, calibrated))
                 for p, s in schedules.items()}
        for order in itertools.permutations(POLICIES):
            context.last_run = None
            for policy in order:
                report = simulate(schedules[policy], graph, cfg, calibrated,
                                  context=context)
                assert exact(report) == fresh[policy], (seed, order, policy)
    assert any(0 < start for start in starts)


@pytest.fixture(scope="module")
def kept_si64(cfg, calibrated):
    """si64's graph, its context and its ndp_only schedule."""
    graph = ndp_graph(calibrated, 64)
    context = PlanContext(graph, cfg)
    return graph, context, plan(graph, cfg, "ndp_only", context=context)


def after_ndp_only(kept_si64, cfg, calibrated, schedule, fixture=None):
    """``schedule`` simulated on the context right after ndp_only, and on
    its own."""
    graph, context, ndp_only = kept_si64
    fixture = fixture or calibrated
    context.last_run = None
    simulate(ndp_only, graph, cfg, calibrated, context=context)
    return (simulate(schedule, graph, cfg, fixture, context=context),
            simulate(schedule, graph, cfg, fixture))


def test_moving_every_update_task_to_the_cpu_replays_from_the_start(
        kept_si64, cfg, calibrated):
    graph, _, ndp_only = kept_si64
    placements = {tid: UnitRef.cpu() if graph.task(tid).family
                  is KernelFamily.PSEUDO else u
                  for tid, u in ndp_only.placements.items()}
    resumed, fresh = after_ndp_only(kept_si64, cfg, calibrated,
                                    Schedule("manual", placements, []))
    assert fresh.comm.requests_served_from_cache == 0
    assert exact(resumed) == exact(fresh)


def test_a_fixture_that_changes_the_fetches_replays_from_the_start(
        kept_si64, cfg, calibrated):
    _, _, ndp_only = kept_si64
    pseudo = dataclasses.replace(calibrated.pseudo, projectors_per_atom=100)
    fixture = dataclasses.replace(calibrated, pseudo=pseudo)
    resumed, fresh = after_ndp_only(kept_si64, cfg, calibrated, ndp_only,
                                    fixture)
    base = simulate(ndp_only, kept_si64[0], cfg, calibrated)
    assert fresh.comm != base.comm  # the fetch replay does change
    assert exact(resumed) == exact(fresh)


def test_a_schedule_changed_after_its_first_run_resumes_from_its_change(
        monkeypatch, kept_si64, cfg, calibrated):
    graph, context, ndp_only = kept_si64
    schedule = Schedule("manual", dict(ndp_only.placements), [])
    first, _ = after_ndp_only(kept_si64, cfg, calibrated, schedule)
    # move the first task of the middle stage group to another stack
    task = context.groups[len(context.groups) // 2][1][0]
    unit = schedule.placements[task.id]
    schedule.placements[task.id] = UnitRef.ndp(
        (unit.stack_id + 1) % cfg.total_stacks, unit.unit_id)
    starts = record_starts(monkeypatch)
    resumed = simulate(schedule, graph, cfg, calibrated, context=context)
    fresh = simulate(schedule, graph, cfg, calibrated)
    assert starts[0] == graph.tasks.index(task) > 0
    assert exact(resumed) == exact(fresh) != exact(first)


def test_clearing_a_returned_timeline_leaves_the_kept_run(kept_si64, cfg,
                                                          calibrated):
    graph, context, ndp_only = kept_si64
    hybrid = plan(graph, cfg, "hybrid", context=context)
    context.last_run = None
    simulate(ndp_only, graph, cfg, calibrated, context=context).timeline.clear()
    resumed = simulate(hybrid, graph, cfg, calibrated, context=context)
    assert exact(resumed) == exact(simulate(hybrid, graph, cfg, calibrated))


def test_the_pair_computes_the_trace_once(monkeypatch, kept_si64, cfg,
                                          calibrated):
    """A resumed run restores the fetch replay and computes no trace."""
    graph, context, ndp_only = kept_si64
    hybrid = plan(graph, cfg, "hybrid", context=context)
    calls = Counter()
    inner = simulator.pseudo_cost_trace

    def counted(*args):
        calls["trace"] += 1
        return inner(*args)

    monkeypatch.setattr(simulator, "pseudo_cost_trace", counted)
    context.last_run = None
    for schedule in (ndp_only, hybrid, ndp_only):
        simulate(schedule, graph, cfg, calibrated, context=context)
    assert calls["trace"] == 1
