"""The module-level names perfbench's tracer wraps must stay in place.

perfbench/bench.py swaps these attributes for timing or counting wrappers
while a traced pass runs.  A refactor that renames one, or stops calling it
through the module that owns the name, makes `--trace 1` under-report
without any error.
"""

from collections import Counter

import pytest

from ndftsim import cli, runtime, scheduler, simulator, workload

TRACED = [
    (cli, "run_experiment"), (cli, "run_scenario"), (cli, "derive_system"),
    (cli, "build_taskgraph"), (cli, "plan"), (cli, "simulate"),
    (simulator, "pseudo_cost_trace"), (runtime, "run_pseudopotential"),
    (scheduler, "estimate_time"), (simulator, "estimate_time"),
    (workload.TaskGraph, "topo_order"),
]


@pytest.mark.parametrize("owner, name", TRACED,
                         ids=[f"{o.__name__}.{n}" for o, n in TRACED])
def test_traced_name_exists(owner, name):
    assert callable(getattr(owner, name))


def count_calls(monkeypatch, owner, name: str, calls: Counter) -> None:
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[f"{owner.__name__}.{name}"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_estimate_time_is_called_through_both_modules(monkeypatch, cfg,
                                                      calibrated):
    calls: Counter = Counter()
    for module in (scheduler, simulator):
        count_calls(monkeypatch, module, "estimate_time", calls)
    graph = workload.build_taskgraph(workload.derive_system(16, calibrated),
                                     calibrated)
    schedule = scheduler.plan(graph, cfg, policy="hybrid")
    simulator.simulate(schedule, graph, cfg, calibrated)
    assert calls["ndftsim.scheduler.estimate_time"] >= 1
    assert calls["ndftsim.simulator.estimate_time"] >= 1


def test_simulate_walks_the_graph_through_topo_order(monkeypatch, cfg,
                                                     calibrated):
    graph = workload.build_taskgraph(workload.derive_system(16, calibrated),
                                     calibrated)
    schedule = scheduler.plan(graph, cfg, policy="hybrid")
    calls: Counter = Counter()
    count_calls(monkeypatch, workload.TaskGraph, "topo_order", calls)
    simulator.simulate(schedule, graph, cfg, calibrated)
    assert calls["TaskGraph.topo_order"] == 1


def test_run_scenario_goes_through_the_traced_names(monkeypatch):
    calls: Counter = Counter()
    for owner, name in ((cli, "derive_system"), (cli, "build_taskgraph"),
                        (cli, "plan"), (cli, "simulate"),
                        (simulator, "pseudo_cost_trace")):
        count_calls(monkeypatch, owner, name, calls)
    config = cli.default_config()
    scenario = next(sc for sc in config.scenarios if sc.name == "si16_hybrid")
    cli.run_scenario(scenario, config)
    assert set(calls) == {
        "ndftsim.cli.derive_system", "ndftsim.cli.build_taskgraph",
        "ndftsim.cli.plan", "ndftsim.cli.simulate",
        "ndftsim.simulator.pseudo_cost_trace"}


def test_exec_pseudo_goes_through_runtime_run_pseudopotential(monkeypatch,
                                                             tmp_path):
    calls: Counter = Counter()
    count_calls(monkeypatch, runtime, "run_pseudopotential", calls)
    config = cli.default_config(tmp_path / "out")
    cli.run_experiment(config, scenario_filter="si16_hybrid", exec_pseudo=True)
    assert calls["ndftsim.runtime.run_pseudopotential"] == 2  # both modes


def test_simulate_passes_the_graphs_mode_to_the_trace(monkeypatch, cfg,
                                                      calibrated):
    """perfbench tags runtime.trace_s by the trace's second positional
    argument, so simulate passes graph.pseudo_mode there."""
    modes = []
    original = simulator.pseudo_cost_trace

    def recorded(*args, **kwargs):
        modes.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(simulator, "pseudo_cost_trace", recorded)
    for mode, context, policy in (
            (workload.PseudoMode.SHARED_BLOCK, "ndp", "hybrid"),
            (workload.PseudoMode.PER_PROCESS_COPY, "ndp", "ndp_only")):
        spec = workload.derive_system(16, calibrated, context=context)
        graph = workload.build_taskgraph(spec, calibrated, pseudo_mode=mode)
        simulator.simulate(scheduler.plan(graph, cfg, policy=policy), graph,
                           cfg, calibrated)
        assert modes.pop() is graph.pseudo_mode is mode


def test_a_run_with_no_update_task_on_ndp_computes_no_trace(monkeypatch, cfg,
                                                            calibrated):
    calls: Counter = Counter()
    count_calls(monkeypatch, simulator, "pseudo_cost_trace", calls)
    spec = workload.derive_system(16, calibrated, context="ndp")
    graph = workload.build_taskgraph(
        spec, calibrated, pseudo_mode=workload.PseudoMode.SHARED_BLOCK)
    simulator.simulate(scheduler.plan(graph, cfg, policy="cpu_only"), graph,
                       cfg, calibrated)
    assert not calls
