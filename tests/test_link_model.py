"""The one link model against move-by-move references.

tests/oracles.py keeps the link FIFOs, the transfer price and the
pseudopotential trace as they were written before the planner and the
simulator shared LinkModel; everything here asserts exact float equality
against them.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from ndftsim.errors import DomainError
from ndftsim.machine import (CPU_SIDE, HOST, MIB, MachineConfig, PathKind,
                             UnitRef)
from ndftsim.runtime import PseudoMode, pseudo_cost_trace
from ndftsim.scheduler import plan, schedule_from_placements, transfer_cost
from ndftsim.simulator import _occupy, simulate
from ndftsim.workload import (CalibrationFixture, SystemSpec, build_taskgraph,
                              derive_system)
from graphs import make_graph
from oracles import (LinksReference, pseudo_cost_trace_reference,
                     transfer_cost_reference)

MESHES = [(1, 1), (1, 5), (2, 8), (4, 4), (5, 3)]


def mesh_config(stacks_x: int, stacks_y: int) -> MachineConfig:
    base = MachineConfig()
    ndp = dataclasses.replace(base.ndp, stacks_x=stacks_x, stacks_y=stacks_y)
    return dataclasses.replace(base, ndp=ndp).validated()


CONFIGS = {mesh: mesh_config(*mesh) for mesh in MESHES}


@st.composite
def moves(draw):
    """A mesh and a sequence of (src, dst, bytes, ready) moves on it."""
    mesh = draw(st.sampled_from(MESHES))
    ends = st.sampled_from([HOST, CPU_SIDE] + list(range(mesh[0] * mesh[1])))
    size = st.one_of(st.integers(0, 10 ** 10),
                     st.floats(0.0, 1e10, allow_nan=False))
    ready = st.floats(0.0, 1e-2, allow_nan=False)
    return mesh, draw(st.lists(st.tuples(ends, ends, size, ready),
                               min_size=1, max_size=40))


@settings(max_examples=200, deadline=None)
@given(moves())
def test_fifo_replay_and_price_match_reference(case):
    mesh, sequence = case
    cfg = CONFIGS[mesh]
    links = cfg.links
    free = [0.0] * links.n_links
    reference = LinksReference(cfg)
    for src, dst, n_bytes, ready in sequence:
        path = links.path(src, dst)
        start, end = _occupy(free, path, n_bytes, ready, links.hop)
        assert (start, end, path.name) == reference.occupy(src, dst, n_bytes,
                                                           ready)
        price = transfer_cost_reference(n_bytes, src, dst, cfg)
        assert path.seconds(n_bytes) == price
        assert transfer_cost(n_bytes, src, dst, cfg) == price


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(MESHES), st.integers(1, 300), st.integers(1, 300),
       st.integers(1, 40))
def test_pseudo_trace_matches_reference(mesh, n_atoms, n_processes, n_orbitals):
    cfg = CONFIGS[mesh]
    fixture = CalibrationFixture.calibrated()
    spec = SystemSpec(n_atoms=n_atoms, n_valence=n_orbitals,
                      n_conduction=n_orbitals, n_grid=64,
                      n_processes=n_processes)
    assert pseudo_cost_trace(spec, PseudoMode.SHARED_BLOCK, fixture, cfg) == \
        pseudo_cost_trace_reference(spec, fixture, cfg)


@pytest.mark.parametrize("mesh", [(2, 8), (5, 3)], ids=["2x8", "5x3"])
def test_fetch_replay_matches_reference(mesh, calibrated):
    """Fetches run first, from empty FIFOs, so the simulated timeline's
    fetch events are the reference FIFOs' replay of the trace."""
    cfg = CONFIGS[mesh]
    fixture = dataclasses.replace(calibrated, orbital_groups_max=16)
    graph = build_taskgraph(derive_system(1024, fixture, context="ndp"),
                            fixture, pseudo_mode="shared_block")
    report = simulate(plan(graph, cfg, policy="ndp_only"), graph, cfg,
                      fixture, pseudo_mode=PseudoMode.SHARED_BLOCK)
    reference = LinksReference(cfg)
    expected = []
    for src, dst, n_bytes in pseudo_cost_trace(
            graph.system, PseudoMode.SHARED_BLOCK, fixture, cfg).fetches:
        start, end, name = reference.occupy(src, dst, n_bytes, 0.0)
        expected.append((start, end, "comm", name,
                         f"pseudo_block:{src}->{dst}", n_bytes))
    fetched = [tuple(ev) for ev in report.timeline
               if ev.task_or_object.startswith("pseudo_block:")]
    assert expected
    assert fetched == sorted(expected, key=lambda ev: (ev[0], ev[1], ev[3],
                                                       ev[4]))


def test_cut_through_price_vs_store_and_forward_replay(cfg):
    """The planner prices a move cut-through (n / bw + hops * hop); the
    simulator's FIFOs replay it store-and-forward (hops * (n / bw + hop)).
    Unifying the two is a model change and must move these numbers on
    purpose."""
    path = cfg.links.path(0, 3)  # three hops along the first row of 4x4
    assert path.kind is PathKind.MESH and len(path.route) == 3
    assert transfer_cost(1e6, 0, 3, cfg) == pytest.approx(31.55e-6, rel=1e-12)
    free = [0.0] * cfg.links.n_links
    start, end = _occupy(free, path, 1e6, 0.0, cfg.links.hop)
    assert (start, end) == (0.0, pytest.approx(94.05e-6, rel=1e-12))


def test_routes_go_x_then_y_over_distinct_links():
    cfg = CONFIGS[(5, 3)]
    links = cfg.links
    path = links.path(0, 14)  # (0, 0) -> (4, 2)
    assert path.name == "mesh:0,0-1,0"
    assert len(path.route) == 6
    assert path.route[:4] == tuple(links.path(0, 4).route)
    assert path.route[4:] == tuple(links.path(4, 14).route)
    ids = {link for s in range(15) for d in range(15)
           for link in links.path(s, d).route}
    assert len(ids) == 2 * (4 * 3 + 5 * 2)  # every directed mesh edge once
    assert max(ids) < links.n_links
    assert links.path(HOST, CPU_SIDE).kind is PathKind.LOCAL
    assert links.path(CPU_SIDE, 7).route == (links.CPU_LINK_ID,)


@pytest.mark.parametrize("src, dst", [(0, 16), (99, 0), (HOST - 1, 0),
                                      (CPU_SIDE, 16)])
def test_endpoints_outside_the_machine_are_rejected(cfg, src, dst):
    with pytest.raises(DomainError):
        transfer_cost(1e6, src, dst, cfg)
    with pytest.raises(DomainError):
        cfg.links.path(src, dst)


@pytest.mark.parametrize("unit", [UnitRef.ndp(99, 0), UnitRef.ndp(0, 99)])
def test_placement_outside_the_machine_is_rejected(cfg, unit):
    graph = make_graph(
        [{"id": "a", "flops": 1.0, "br": 8.0, "bw": 8.0,
          "inputs": ("x",), "outputs": ("y",)},
         {"id": "b", "flops": 1.0, "br": 8.0, "bw": 8.0,
          "inputs": ("y",), "outputs": ("z",)}],
        {"x": MIB, "y": MIB, "z": 8})
    with pytest.raises(DomainError):
        schedule_from_placements(graph, cfg,
                                 {"a": UnitRef.ndp(0, 0), "b": unit})
