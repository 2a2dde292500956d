import cmath

import pytest

import ndftsim
from ndftsim import costmodel, runtime
from ndftsim.errors import DomainError
from ndftsim.workload import (KernelFamily, PseudoMode, build_taskgraph,
                              ceil_log2, derive_system, kernel_cost)
from graphs import make_graph
from oracles import (face_split_flops_by_execution, fft_flops_by_execution,
                     gemm_flops_by_execution)


# -- system derivation --------------------------------------------------------

def test_derive_si64(calibrated):
    spec = derive_system(64, calibrated)
    assert (spec.n_valence, spec.n_conduction, spec.n_grid) == (128, 128, 262144)


def test_derive_si16(calibrated):
    spec = derive_system(16, calibrated)
    assert (spec.n_valence, spec.n_conduction, spec.n_grid) == (32, 32, 65536)


def test_derive_process_contexts(calibrated):
    assert derive_system(64, calibrated, context="ndp").n_processes == 128
    assert derive_system(64, calibrated, context="cpu").n_processes == 8


def test_derive_rejects_empty_system(calibrated):
    with pytest.raises(DomainError):
        derive_system(0, calibrated)


# -- kernel cost formulas against executed references -------------------------

def test_gemm_cost_matches_naive_triple_loop(textbook):
    flops, _, _ = kernel_cost(KernelFamily.GEMM, textbook, m=4, n=4, k=4)
    assert flops == 128 == gemm_flops_by_execution(4, 4, 4)


def test_gemm_cost_matches_execution_at_other_sizes(textbook):
    for m, n, k in ((2, 3, 5), (8, 8, 8), (1, 7, 2)):
        flops, _, _ = kernel_cost(KernelFamily.GEMM, textbook, m=m, n=n, k=k)
        assert flops == gemm_flops_by_execution(m, n, k)


def test_fft_cost_matches_instrumented_radix2(textbook):
    flops, _, _ = kernel_cost(KernelFamily.FFT, textbook, n=8)
    assert flops == 5 * 8 * 3 == 120
    spectrum, counted = fft_flops_by_execution([complex(i, -i) for i in range(8)])
    assert counted == 120
    # the counting reference must still be a real transform
    expect = [sum(complex(i, -i) * cmath.exp(-2j * cmath.pi * i * k / 8)
                  for i in range(8)) for k in range(8)]
    assert all(abs(a - b) < 1e-9 for a, b in zip(spectrum, expect))


def test_face_split_cost_matches_execution(textbook):
    flops, _, _ = kernel_cost(KernelFamily.FACE_SPLIT, textbook, n=1000)
    xs = [complex(1, 2)] * 1000
    _, counted = face_split_flops_by_execution(xs, xs)
    assert flops == 6000 == counted


def test_fft_non_power_of_two_rounds_up(textbook):
    flops, _, _ = kernel_cost(KernelFamily.FFT, textbook, n=1000)
    assert flops == 5 * 1000 * 10  # log2 rounded up to 10
    assert ceil_log2(1024) == 10
    assert ceil_log2(1025) == 11


def test_alltoall_and_syevd_forms(textbook):
    flops, br, bw = kernel_cost(KernelFamily.ALLTOALL, textbook, payload_bytes=100)
    assert (flops, br + bw) == (0.0, 200.0)
    flops, br, bw = kernel_cost(KernelFamily.SYEVD, textbook, n=16)
    assert flops == 9 * 16 ** 3
    assert br + bw == 4000.0 * 16 ** 2 * 4


def test_other_family_has_no_cost_formula(textbook):
    with pytest.raises(DomainError, match="no cost formula"):
        kernel_cost(KernelFamily.OTHER, textbook, n=4)


# -- task graph construction ---------------------------------------------------

def test_si16_fft_task_count_is_1088(calibrated):
    graph = build_taskgraph(derive_system(16, calibrated), calibrated)
    ffts = [t for t in graph.tasks if t.family is KernelFamily.FFT]
    orbital = [t for t in ffts if "orb" in t.id]
    product = [t for t in ffts if "prod" in t.id]
    assert len(orbital) == 64 and len(product) == 1024
    assert len(ffts) == 1088


def test_si64_has_one_syevd_of_dimension_16384(calibrated):
    spec = derive_system(64, calibrated)
    graph = build_taskgraph(spec, calibrated)
    syevds = [t for t in graph.tasks if t.family is KernelFamily.SYEVD]
    assert len(syevds) == 1
    d = calibrated.response_dim(spec.n_valence, spec.n_conduction, 64)
    assert d == 16384
    assert graph.data_objects["response"].size == 8 * d * d


def test_graph_is_acyclic_and_alltoall_sees_all_partitions(calibrated):
    spec = derive_system(16, calibrated)
    graph = build_taskgraph(spec, calibrated)
    a2a = [t for t in graph.tasks if t.family is KernelFamily.ALLTOALL]
    assert len(a2a) == 1
    assert len(a2a[0].inputs) == spec.n_processes


def test_topo_order_returns_a_fresh_list(calibrated):
    graph = build_taskgraph(derive_system(16, calibrated), calibrated)
    first = graph.topo_order()
    expected = list(first)
    first.reverse()
    first.append("not_a_task")
    assert graph.topo_order() == expected


@pytest.mark.parametrize("tasks, named", [
    # consumer listed before its producer
    ([{"id": "b", "inputs": ("x",), "outputs": ("y",)},
      {"id": "a", "inputs": (), "outputs": ("x",)}], ("b", "x", "a")),
    # two-task cycle
    ([{"id": "a", "inputs": ("y",), "outputs": ("x",)},
      {"id": "b", "inputs": ("x",), "outputs": ("y",)}], ("a", "y", "b")),
    # self-loop
    ([{"id": "a", "inputs": ("x",), "outputs": ("x",)}], ("a", "x")),
], ids=["consumer-first", "cycle", "self-loop"])
def test_graph_rejects_a_producer_listed_after_its_consumer(tasks, named):
    objects = {o: 8 for t in tasks for o in t["inputs"] + t["outputs"]}
    with pytest.raises(DomainError) as err:
        make_graph(tasks, objects)
    for name in named:
        assert f" {name} " in f" {err.value} "


def test_task_list_is_the_execution_order(calibrated):
    """Edges and order are read off the builder's list, stage by stage."""
    graph = build_taskgraph(derive_system(16, calibrated), calibrated)
    ids = [t.id for t in graph.tasks]
    assert graph.topo_order() == ids
    position = {tid: i for i, tid in enumerate(ids)}
    producers = {o: t.id for t in graph.tasks for o in t.outputs}
    pairs = [(producers[o], t.id, o)
             for t in graph.tasks for o in t.inputs if o in producers]
    assert graph.edges == pairs
    assert all(position[p] < position[c] for p, c, _ in graph.edges)
    stages = [t.stage for t in graph.tasks]
    runs = [s for i, s in enumerate(stages) if i == 0 or s != stages[i - 1]]
    assert runs == ["s1_fft_orb_c", "s1_fft_orb_v", "s2_face", "s3_fft_prod",
                    "s4_pseudo", "s5_gemm", "s6", "s7"]


def test_every_object_is_consumed_or_terminal(calibrated):
    graph = build_taskgraph(derive_system(32, calibrated), calibrated)
    consumed = {o for t in graph.tasks for o in t.inputs}
    terminal = {"spectrum"}
    for t in graph.tasks:
        for o in t.outputs:
            assert o in consumed or o in terminal, o


def test_totals_monotone_in_system_size(calibrated):
    prev_f = prev_b = 0.0
    for atoms in (16, 32, 64, 128, 256, 1024, 2048):
        graph = build_taskgraph(derive_system(atoms, calibrated), calibrated)
        f, b = graph.total_flops(), graph.total_bytes()
        assert f >= prev_f and b >= prev_b
        prev_f, prev_b = f, b


def test_generation_is_deterministic(calibrated):
    a = build_taskgraph(derive_system(64, calibrated), calibrated)
    b = build_taskgraph(derive_system(64, calibrated), calibrated)
    assert a.dump_lines() == b.dump_lines()
    assert [t.id for t in a.tasks] == [t.id for t in b.tasks]


def test_dump_has_one_line_per_task(calibrated):
    graph = build_taskgraph(derive_system(16, calibrated), calibrated)
    lines = graph.dump_lines()
    assert len(lines) == len(graph.tasks)
    first = lines[0].split("\t")
    assert len(first) == 7


def test_per_process_copy_mode_adds_write_traffic(calibrated):
    spec = derive_system(16, calibrated)
    shared = build_taskgraph(spec, calibrated, pseudo_mode="shared_block")
    private = build_taskgraph(spec, calibrated, pseudo_mode="per_process_copy")
    b_shared = sum(t.total_bytes for t in shared.tasks
                   if t.family is KernelFamily.PSEUDO)
    b_private = sum(t.total_bytes for t in private.tasks
                    if t.family is KernelFamily.PSEUDO)
    assert b_private > b_shared


def test_graph_carries_its_pseudo_mode(calibrated):
    """The member and its value build the same graph; anything else raises."""
    spec = derive_system(16, calibrated)
    for mode in PseudoMode:
        by_member = build_taskgraph(spec, calibrated, pseudo_mode=mode)
        by_value = build_taskgraph(spec, calibrated, pseudo_mode=mode.value)
        assert by_member.dump_lines() == by_value.dump_lines()
        assert by_member.pseudo_mode is by_value.pseudo_mode is mode
    assert build_taskgraph(spec, calibrated).pseudo_mode is PseudoMode.SHARED_BLOCK
    with pytest.raises(ValueError):
        build_taskgraph(spec, calibrated, pseudo_mode="per-process-copy")


def test_pseudo_mode_is_one_object():
    assert (costmodel.PseudoMode is runtime.PseudoMode is ndftsim.PseudoMode
            is PseudoMode)


def test_every_kernel_declares_memory_traffic(calibrated):
    """Even wavefunction-less processes walk the directory."""
    for atoms in (16, 64):
        graph = build_taskgraph(derive_system(atoms, calibrated), calibrated)
        for t in graph.tasks:
            assert t.flops >= 0
            assert t.bytes_read + t.bytes_written > 0, t.id
