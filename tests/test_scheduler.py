import dataclasses
import hashlib
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from ndftsim import scheduler
from ndftsim.cli import SHIPPED_SIZES, default_config
from ndftsim.errors import CapacityError, DomainError
from ndftsim.machine import (CPU_SIDE, HOST, MachineConfig, UnitClass, UnitRef)
from ndftsim.scheduler import (PlanContext, Schedule, Transfer, _PlanState,
                               plan, schedule_from_placements,
                               scheduling_overhead, transfer_cost)
from ndftsim.simulator import simulate
from ndftsim.workload import (DataObject, KernelFamily, build_taskgraph,
                              derive_system)
from graphs import make_graph


def small_cxt_config(cxt=5e-6, hop=100e-9) -> MachineConfig:
    base = MachineConfig()
    return dataclasses.replace(
        base, cxt_s=cxt,
        interconnect=dataclasses.replace(base.interconnect, hop_latency_s=hop))


# -- transfer cost -------------------------------------------------------------

def test_same_endpoint_is_free(cfg):
    assert transfer_cost(1e9, 3, 3, cfg) == 0.0
    assert transfer_cost(1e9, HOST, CPU_SIDE, cfg) == 0.0


def test_cpu_to_stack_example(cfg):
    assert transfer_cost(1e6, CPU_SIDE, 0, cfg) == pytest.approx(15.725e-6)


def test_mesh_uses_manhattan_hops(cfg):
    one = transfer_cost(1e6, 0, 1, cfg)
    far = transfer_cost(1e6, 0, 15, cfg)
    assert one == pytest.approx(1e6 / 32e9 + 1 * 100e-9)
    assert far == pytest.approx(1e6 / 32e9 + 6 * 100e-9)


@given(st.floats(min_value=1.0, max_value=1e12))
def test_transfer_linear_in_bytes(n_bytes):
    cfg = MachineConfig()
    delta = transfer_cost(2 * n_bytes, CPU_SIDE, 2, cfg) \
        - transfer_cost(n_bytes, CPU_SIDE, 2, cfg)
    assert delta == pytest.approx(n_bytes / 64e9, rel=1e-12)


def test_unknown_location_rejected(cfg):
    with pytest.raises(DomainError):
        transfer_cost(10, -7, 0, cfg)
    with pytest.raises(DomainError):
        transfer_cost(-1, 0, 1, cfg)


# -- overhead algebra -----------------------------------------------------------

def overhead_of(transfers, crossings, cfg):
    s = Schedule(policy="manual", placements={}, transfers=transfers,
                 crossing_edges=crossings)
    return scheduling_overhead(s, cfg)


def test_all_cpu_schedule_has_zero_overhead(cfg, calibrated):
    graph = build_taskgraph(derive_system(16, calibrated, context="cpu"),
                            calibrated, pseudo_mode="per_process_copy")
    schedule = plan(graph, cfg, policy="cpu_only")
    assert schedule.overhead.total == 0.0
    assert schedule.overhead.cxt_count == 0


def test_all_ndp_schedule_has_zero_overhead(cfg, calibrated):
    graph = build_taskgraph(derive_system(16, calibrated), calibrated)
    schedule = plan(graph, cfg, policy="ndp_only")
    assert schedule.overhead.total == 0.0


def test_single_crossing_edge_matches_hand_value():
    cfg = dataclasses.replace(small_cxt_config(cxt=5e-6, hop=0.0))
    t = Transfer(object_id="o", bytes=8_000_000, src=0, dst=CPU_SIDE,
                 cause_task="b")
    ovh = overhead_of([t], [("a", "b", "o")], cfg)
    assert ovh.dt_total == pytest.approx(8e6 / 64e9)
    assert ovh.total == pytest.approx(130e-6)


def test_overhead_additivity_over_cross_edges():
    cfg = small_cxt_config(cxt=5e-6, hop=0.0)
    t = Transfer(object_id="o", bytes=8_000_000, src=0, dst=CPU_SIDE,
                 cause_task="b")
    one = overhead_of([t], [("a", "b", "o")], cfg)
    k = 7
    many = overhead_of([t] * k, [("a", f"b{i}", "o") for i in range(k)], cfg)
    assert many.dt_total == pytest.approx(k * one.dt_total)
    assert many.cxt_total == pytest.approx(k * one.cxt_total)
    assert many.cxt_count == k * one.cxt_count


def test_host_staging_is_not_overhead(cfg):
    t = Transfer(object_id="o", bytes=1e9, src=HOST, dst=3, cause_task="x")
    assert not t.crosses_boundary
    assert overhead_of([t], [], cfg).total == 0.0


def test_cxt_total_is_count_times_constant(cfg):
    crossings = [("a", "b", "o1"), ("a", "c", "o1"), ("d", "e", "o2")]
    ovh = overhead_of([], crossings, cfg)
    assert ovh.cxt_count == 3
    assert ovh.cxt_total == 3 * cfg.cxt_s


# -- plan ------------------------------------------------------------------------

def test_empty_graph_gives_empty_schedule(cfg):
    graph = make_graph([], {})
    schedule = plan(graph, cfg)
    assert schedule.placements == {}
    assert schedule.overhead.total == 0.0


def test_single_small_memory_bound_task_goes_to_ndp():
    """Launch latency dominates, so the near-memory unit finishes first."""
    cfg = small_cxt_config()
    graph = make_graph(
        [{"id": "t0", "flops": 0.0, "br": 1000.0, "bw": 0.0,
          "inputs": ("x",), "outputs": ("y",)}],
        {"x": 1000, "y": 1000})
    schedule = plan(graph, cfg, policy="hybrid")
    unit = schedule.placements["t0"]
    assert unit.cls is UnitClass.NDP_UNIT


def test_chain_placement_matches_brute_force():
    """Memory stage feeds a compute task; the intermediate size decides
    whether the boundary is worth crossing.  Brute force over both class
    assignments of the two stages is the oracle.  Stage kernels re-read
    their working set, so their traffic exceeds the object sizes."""
    cfg = small_cxt_config()

    def chain(intermediate_bytes: int):
        tasks = []
        outs = []
        n = 16
        for i in range(n):  # stage a: tiled, strongly memory-bound
            tasks.append({"id": f"a_{i:02d}", "family": KernelFamily.FFT,
                          "flops": 1e6, "br": 1e8,
                          "bw": float(intermediate_bytes),
                          "inputs": (f"in_{i}",), "outputs": (f"mid_{i}",)})
            outs.append(f"mid_{i}")
        tasks.append({"id": "b", "family": KernelFamily.GEMM,
                      "flops": 2e12, "br": float(n * intermediate_bytes),
                      "bw": 1e6, "inputs": tuple(outs), "outputs": ("out",)})
        objects = {f"in_{i}": int(1e7) for i in range(n)}
        objects.update({f"mid_{i}": intermediate_bytes for i in range(n)})
        objects["out"] = 10 ** 6
        return make_graph(tasks, objects)

    from ndftsim.workload import CalibrationFixture
    fixture = CalibrationFixture.calibrated()

    for size, expect_split in ((1024, True), (2 * 10 ** 9, False)):
        graph = chain(size)
        best = None
        for a_cls in (UnitClass.CPU, UnitClass.NDP_UNIT):
            for b_cls in (UnitClass.CPU, UnitClass.NDP_UNIT):
                mapping = {}
                for i, t in enumerate(graph.tasks[:-1]):
                    mapping[t.id] = (UnitRef.cpu() if a_cls is UnitClass.CPU
                                     else UnitRef.ndp(i % 16, i % 8))
                mapping["b"] = (UnitRef.cpu() if b_cls is UnitClass.CPU
                                else UnitRef.ndp(0, 0))
                s = schedule_from_placements(graph, cfg, mapping)
                r = simulate(s, graph, cfg, fixture)
                if best is None or r.makespan < best[0]:
                    best = (r.makespan, a_cls, b_cls)
        _, a_best, b_best = best
        if expect_split:
            assert (a_best, b_best) == (UnitClass.NDP_UNIT, UnitClass.CPU)
        else:
            assert a_best == b_best  # colocated on the cheaper class

        schedule = plan(graph, cfg, policy="hybrid")
        a_classes = {schedule.placements[t.id].cls for t in graph.tasks[:-1]}
        assert a_classes == {a_best}
        assert schedule.placements["b"].cls is b_best


def test_a_tied_score_goes_to_the_class_holding_more_input_bytes(cfg):
    """plan ranks classes by (score, -resident input bytes, CPU first).
    Stage a reads 1 MB homed on stack 0; stage b's four tiles each read 8
    bytes homed on stacks 1-4 and dominate the run, so both of a's classes
    score exactly b's completion.  The resident bytes then keep a_0 on
    stack 0, where CPU first alone would move it to the CPU."""
    tasks = [{"id": "a_0", "br": 1e6, "inputs": ("pa",), "outputs": ("ya",)}]
    tasks += [{"id": f"b_{i}", "br": 1e11, "inputs": (f"pb{i}",),
               "outputs": (f"yb{i}",)} for i in range(4)]
    objects = {"pa": 10 ** 6, "ya": 8}
    objects.update({f"{name}{i}": 8 for name in ("pb", "yb") for i in range(4)})
    graph = make_graph(tasks, objects)
    graph.data_objects["pa"] = DataObject("pa", 10 ** 6, 0)
    for i in range(4):
        graph.data_objects[f"pb{i}"] = DataObject(f"pb{i}", 8, i + 1)
    state = _PlanState(PlanContext(graph, cfg),
                       [UnitClass.CPU, UnitClass.NDP_UNIT])
    (_, a_members), (_, b_members) = state.context.groups
    scores = []
    for a in state.evaluate_all(a_members).values():
        follow = state.snapshot(a_members, a).evaluate_all(b_members)
        scores.append(min(max(a.completion, f.completion) + f.overhead
                          for f in follow.values()) + a.overhead)
    assert len(scores) == 2 and scores[0] == scores[1]
    assert plan(graph, cfg, "hybrid").placements["a_0"] == UnitRef.ndp(0, 0)


def unpruned_hybrid_plan(graph, cfg) -> Schedule:
    """Reference for plan(policy="hybrid"): every class of every group runs
    its full lookahead, and every group is evaluated afresh, past the memo."""
    def evaluate_all(state, members):
        return {cls: state.evaluate_group(members, cls)
                for cls in state.class_options(members)}

    state = _PlanState(PlanContext(graph, cfg),
                       [UnitClass.CPU, UnitClass.NDP_UNIT])
    placements = {}
    groups: dict[str, list] = {}
    for tid in graph.topo_order():
        groups.setdefault(graph.task(tid).stage, []).append(graph.task(tid))
    groups = list(groups.values())
    for gi, members in enumerate(groups):
        best = None
        for cls, a in evaluate_all(state, members).items():
            if a is None:
                continue
            after = state.snapshot(members, a)
            score = a.completion + a.overhead
            if gi + 1 < len(groups):
                follow = evaluate_all(after, groups[gi + 1])
                finishes = [max(a.completion, f.completion) + f.overhead
                            for f in follow.values() if f is not None]
                if finishes:
                    score = min(finishes) + a.overhead
            rank = (score, -a.input_bytes_resident,
                    0 if cls is UnitClass.CPU else 1)
            if best is None or rank < best[0]:
                best = (rank, a, after)
        _, chosen, state = best
        placements.update(chosen.units)
    return schedule_from_placements(graph, cfg, placements, "hybrid")


def random_stage_graph(rng: random.Random):
    """Stages of 1-4 tiles; each tile reads host data or earlier outputs."""
    tasks, objects, produced = [], {}, []
    for stage in range(rng.randint(2, 6)):
        outs = []
        for i in range(rng.randint(1, 4)):
            host = f"in_{stage}_{i}"
            objects[host] = int(10 ** rng.uniform(3, 9))
            ins = [host] + rng.sample(produced, min(len(produced),
                                                    rng.randint(0, 2)))
            out = f"o{stage}_{i}"
            objects[out] = int(10 ** rng.uniform(3, 9.5))
            total = 10 ** rng.uniform(5, 10)
            tasks.append({"id": f"s{stage}_{i}", "family": KernelFamily.OTHER,
                          "flops": 10 ** rng.uniform(6, 12),
                          "br": total * 0.7, "bw": total * 0.3,
                          "inputs": tuple(ins), "outputs": (out,)})
            outs.append(out)
        produced += outs
    return make_graph(tasks, objects)


@pytest.mark.parametrize("cxt", [0.0, 5e-6, 1e-3, 100.0])
def test_lookahead_pruning_matches_full_lookahead(cxt):
    cfg = small_cxt_config(cxt)
    for seed in range(40):
        graph = random_stage_graph(random.Random(seed))
        assert plan(graph, cfg, "hybrid").placements == \
            unpruned_hybrid_plan(graph, cfg).placements, seed


def test_plan_is_deterministic(cfg, calibrated):
    graph = build_taskgraph(derive_system(16, calibrated), calibrated)
    a = plan(graph, cfg, policy="hybrid")
    b = plan(graph, cfg, policy="hybrid")
    assert a.placements == b.placements
    assert a.transfers == b.transfers


def test_unknown_policy_rejected(cfg, calibrated):
    graph = build_taskgraph(derive_system(16, calibrated), calibrated)
    with pytest.raises(DomainError):
        plan(graph, cfg, policy="everything_everywhere")


def test_oversize_task_raises_capacity_error_under_ndp_only(cfg):
    too_big = 2 * cfg.total_capacity
    graph = make_graph(
        [{"id": "t0", "flops": 1.0, "br": 8.0, "bw": 8.0,
          "inputs": ("x",), "outputs": ("y",)}],
        {"x": too_big, "y": 8})
    with pytest.raises(CapacityError):
        plan(graph, cfg, policy="ndp_only")
    # hybrid falls back to the CPU side
    schedule = plan(graph, cfg, policy="hybrid")
    assert schedule.placements["t0"].cls is UnitClass.CPU


def test_hybrid_never_loses_to_both_baselines(cfg, calibrated):
    for atoms in (16, 32):
        spec = derive_system(atoms, calibrated)
        graph = build_taskgraph(spec, calibrated)
        times = {}
        for policy in ("hybrid", "cpu_only", "ndp_only"):
            s = plan(graph, cfg, policy=policy)
            times[policy] = simulate(s, graph, cfg, calibrated).makespan
        assert times["hybrid"] <= min(times["cpu_only"], times["ndp_only"]) + 1e-9


def test_schedule_csv_shape(cfg, calibrated):
    graph = build_taskgraph(derive_system(16, calibrated), calibrated)
    schedule = plan(graph, cfg, policy="hybrid")
    text = schedule.to_csv(graph)
    header, *rows = text.strip().split("\n")
    assert header == "task_id,family,unit_class,stack_id,unit_id,start_estimate_s"
    assert len(rows) == len(graph.tasks)


def test_overhead_zero_iff_no_crossing_edges(cfg, calibrated):
    for atoms, policy in ((16, "hybrid"), (64, "hybrid"), (64, "cpu_only")):
        ctx = "cpu" if policy == "cpu_only" else "ndp"
        graph = build_taskgraph(derive_system(atoms, calibrated, context=ctx),
                                calibrated)
        schedule = plan(graph, cfg, policy=policy)
        crossing = bool(schedule.crossing_edges)
        assert (schedule.overhead.total > 0) == crossing


# SHA-256 of Schedule.to_csv(graph) + repr(schedule.overhead) for shipped
# scenarios, graphs built as run_scenario builds them.  A change here is a
# change of placement decisions and must be explained in CHANGES.md.
PLACEMENT_SHA256 = {
    "si16_cpu_only": "703bac2b5813d697ef72078b934a66d9c0e3012f72a0a487e81561bf0b89567b",
    "si16_ndp_only": "78231c4230b1e50692a09c8b8eeb7108cf6679fc78eaffa3f8164f745f4362f4",
    "si16_hybrid": "78231c4230b1e50692a09c8b8eeb7108cf6679fc78eaffa3f8164f745f4362f4",
    "si64_cpu_only": "16cb98a4fabe7dd7acdc8e9c085bf0804f3b87a2bdaa27dba434c677e117864b",
    "si64_ndp_only": "1773c783ade265bd43977bd0be833553b96fed53a74a5aeab0693dc0ac359aa6",
    "si64_hybrid": "20ffd3bc8b1c760c8939891b6e32fe5500afc07467072a9ba188254f9e32f6fb",
    "si256_cpu_only": "16cb98a4fabe7dd7acdc8e9c085bf0804f3b87a2bdaa27dba434c677e117864b",
    "si256_ndp_only": "b76720562e742afea71c6a7d429b17b81e86045091b086cbb9632e858c4124fe",
    "si256_hybrid": "a2a1d9466454f4ef3b79f11509e504afa2e3caaf1ba3e3264e8b1ddaf659d70f",
    # "@cxt<seconds>": the same scenario on a machine with that cxt_s; the
    # handoff constant moves which class the lookahead can still rank first
    "si64_hybrid@cxt0": "299640de4cbb18a184900e74babe4673a3aa1ca6574b9e91dff3131fc95653a9",
    "si64_hybrid@cxt100": "eea47dd39d8ed51991b7f991fbe6a6c2ccf37a34b27ff713c9caf1b7ef7fd85f",
    "si256_hybrid@cxt0": "0a7f01152b11fdd787f388f95ef2f3fdc605bb1d03bcc2e512804d1089b77e56",
    "si256_hybrid@cxt100": "185f9bf33eb3d280257e6473a9792af1f900bb0afca0c8c49609b46a2c672341",
}


@pytest.mark.parametrize("name", sorted(PLACEMENT_SHA256))
def test_shipped_placements_are_pinned(name):
    config = default_config()
    scenario_name, _, cxt = name.partition("@cxt")
    machine = config.machine.with_cxt(float(cxt)) if cxt else config.machine
    scenario = next(sc for sc in config.scenarios if sc.name == scenario_name)
    context = "cpu" if scenario.policy == "cpu_only" else "ndp"
    graph = build_taskgraph(
        derive_system(scenario.n_atoms, config.fixture, context=context),
        config.fixture, pseudo_mode=scenario.pseudo_mode.value)
    schedule = plan(graph, machine, policy=scenario.policy)
    text = schedule.to_csv(graph) + repr(schedule.overhead)
    assert hashlib.sha256(text.encode()).hexdigest() == PLACEMENT_SHA256[name]


def shipped_graph(scenario, fixture):
    """The graph run_scenario builds for a shipped scenario."""
    context = "cpu" if scenario.policy == "cpu_only" else "ndp"
    return build_taskgraph(
        derive_system(scenario.n_atoms, fixture, context=context),
        fixture, pseudo_mode=scenario.pseudo_mode)


SHIPPED = default_config().scenarios


@pytest.mark.parametrize("scenario", SHIPPED, ids=[sc.name for sc in SHIPPED])
def test_planned_lists_equal_schedule_from_placements(cfg, calibrated, scenario):
    graph = shipped_graph(scenario, calibrated)
    schedule = plan(graph, cfg, policy=scenario.policy)
    full = schedule_from_placements(graph, cfg, schedule.placements,
                                    scenario.policy)
    assert schedule.transfers == full.transfers
    assert schedule.crossing_edges == full.crossing_edges
    assert repr(schedule.overhead) == repr(full.overhead)


@pytest.mark.parametrize("scenario", SHIPPED, ids=[sc.name for sc in SHIPPED])
def test_plan_and_simulate_leave_the_graph_unchanged(cfg, calibrated, scenario):
    """run_scenario hands one graph to both ndp_only and hybrid."""
    graph = shipped_graph(scenario, calibrated)
    before = (graph.dump_lines(), list(graph.edges), dict(graph.producers),
              dict(graph.data_objects))
    schedule = plan(graph, cfg, policy=scenario.policy)
    simulate(schedule, graph, cfg, calibrated)
    schedule.transfers  # the derived lists walk the graph too
    assert (graph.dump_lines(), graph.edges, graph.producers,
            graph.data_objects) == before


def test_plan_lists_its_moves_on_first_read_only(monkeypatch, cfg, calibrated):
    """plan() does not walk the placements; simulate() reads no list."""
    calls = []
    original = scheduler.schedule_from_placements

    def counted(*args, **kwargs):
        calls.append(args[3])
        return original(*args, **kwargs)

    monkeypatch.setattr(scheduler, "schedule_from_placements", counted)
    graph = build_taskgraph(derive_system(64, calibrated), calibrated)
    schedule = plan(graph, cfg, policy="hybrid")
    simulate(schedule, graph, cfg, calibrated)
    assert calls == []
    assert schedule.crossing_edges and schedule.overhead.total > 0
    assert schedule.transfers and calls == ["hybrid"]
    # a derived field assigned before the first read keeps its value
    other = plan(graph, cfg, policy="ndp_only")
    other.transfers = []
    assert other.overhead.cxt_count == 0 and other.transfers == []
    assert calls == ["hybrid", "ndp_only"]
    with pytest.raises(AttributeError):
        schedule.no_such_field


# -- one plan context shared by several plans ----------------------------------

ORDERS = list(itertools.permutations(scheduler.POLICIES))


def placements_or_error(graph, cfg, policy, context=None):
    try:
        return plan(graph, cfg, policy, context=context).placements
    except CapacityError as exc:
        return repr(exc)


def assert_shared_plans_match_fresh(graph, cfg, label):
    fresh = {p: placements_or_error(graph, cfg, p) for p in scheduler.POLICIES}
    for order in ORDERS:
        context = PlanContext(graph, cfg)
        for policy in order:
            assert placements_or_error(graph, cfg, policy, context) == \
                fresh[policy], (label, order, policy)


@pytest.mark.parametrize("n_atoms", SHIPPED_SIZES)
def test_shared_context_plans_equal_fresh_plans_on_shipped_sizes(n_atoms):
    config = default_config()
    graph = build_taskgraph(derive_system(n_atoms, config.fixture),
                            config.fixture)
    assert_shared_plans_match_fresh(graph, config.machine, n_atoms)


@pytest.mark.parametrize("cxt", [0.0, 5e-6, 1e-3, 100.0])
def test_shared_context_plans_equal_fresh_plans_on_random_graphs(cxt):
    cfg = small_cxt_config(cxt)
    for seed in range(40):
        graph = random_stage_graph(random.Random(seed))
        assert_shared_plans_match_fresh(graph, cfg, seed)


def test_shared_context_repeats_a_capacity_error(cfg):
    # ndp_only memoizes "does not fit" for the first stage; the CPU still
    # takes it under hybrid
    graph = make_graph(
        [{"id": "a_0", "flops": 1.0, "br": 8.0, "bw": 8.0,
          "inputs": ("x",), "outputs": ("y",)},
         {"id": "b_0", "flops": 1e9, "br": 8.0, "bw": 8.0,
          "inputs": ("y",), "outputs": ("z",)}],
        {"x": 2 * cfg.total_capacity, "y": 8, "z": 8})
    assert isinstance(placements_or_error(graph, cfg, "ndp_only"), str)
    assert_shared_plans_match_fresh(graph, cfg, "too big")


def test_plan_refuses_a_context_of_another_graph_or_machine(cfg, calibrated):
    graph = build_taskgraph(derive_system(16, calibrated), calibrated)
    context = PlanContext(graph, cfg)
    twin = build_taskgraph(derive_system(16, calibrated), calibrated)
    with pytest.raises(DomainError, match="another graph"):
        plan(twin, cfg, "hybrid", context=context)
    with pytest.raises(DomainError, match="another machine"):
        plan(graph, cfg.with_cxt(1.0), "hybrid", context=context)
    assert context.memo == {}  # refused before planning
    # an equal machine is accepted
    assert plan(graph, dataclasses.replace(cfg), "hybrid",
                context=context).placements == plan(graph, cfg).placements


def test_ndp_pair_evaluates_each_prefix_and_class_once(monkeypatch,
                                                       calibrated):
    machine = default_config().machine
    graph = build_taskgraph(derive_system(1024, calibrated), calibrated)
    keys = []
    original = _PlanState.evaluate_group

    def recorded(self, members, cls):
        keys.append((self.prefix, cls))
        return original(self, members, cls)

    monkeypatch.setattr(_PlanState, "evaluate_group", recorded)
    for policy in ("ndp_only", "hybrid"):
        plan(graph, machine, policy)
    fresh = len(keys)
    keys.clear()
    context = PlanContext(graph, machine)
    for policy in ("ndp_only", "hybrid"):
        plan(graph, machine, policy, context=context)
    assert len(keys) == len(set(keys))
    assert len(keys) < fresh
