import cmath
import hashlib
from dataclasses import replace

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


def test_alltoall_flop_coef_reaches_the_exchange_task(calibrated):
    fixture = replace(calibrated, alltoall=replace(calibrated.alltoall,
                                                   flop_coef=2.0))
    graph = build_taskgraph(derive_system(16, fixture), fixture)
    payload = graph.data_objects["response"].size
    assert graph.task("s6_alltoall").flops == 2.0 * payload > 0


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


# -- graph pins ----------------------------------------------------------------
#
# One SHA-256 per graph over its task lines, its objects (id, size, home) and
# its pseudopotential mode, so an object size or a cost that no report moves
# still shows.  The shipped matrix builds the 14 keys below: the cpu context
# with private copies (cpu_only) and the ndp context with shared blocks
# (ndp_only and hybrid).

def graph_digest(graph) -> str:
    h = hashlib.sha256()
    for line in graph.dump_lines():
        h.update(line.encode() + b"\n")
    for obj in sorted((o.id, o.size, o.initial_location)
                      for o in graph.data_objects.values()):
        h.update(repr(obj).encode() + b"\n")
    h.update(graph.pseudo_mode.value.encode())
    return h.hexdigest()


CONTEXT_MODE = {"cpu": PseudoMode.PER_PROCESS_COPY, "ndp": PseudoMode.SHARED_BLOCK}

SHIPPED_GRAPH_PINS = {
    (16, "cpu"): "542c93ee138ba250d8ced83e16f6c5c60c8fc00fc0fd658b132cad53383574ac",
    (16, "ndp"): "201a4141b24c1a623e7341384872b6a7caaedecf61c93b9d6dcfdadb1510fe22",
    (32, "cpu"): "820ec820fe09e4f14c74c67299d67fdd7c7e1bb264407c30b57d16cb46ee7770",
    (32, "ndp"): "c009a111c2b81cc6ef6da0f62726257860225a85040c65e7738a4a5456c250df",
    (64, "cpu"): "94722bbd285f747419a04b374710f7103d720366ef3e6e11611b6c236ff38247",
    (64, "ndp"): "d3de2928d1d374d64f1330ce37a276ff8b766bb9c335891fe7c440efddb75d48",
    (128, "cpu"): "e7e196b0a5efa8d509869485e5de18eb1feacfcfce3e23d73913054258c60474",
    (128, "ndp"): "15fd7417818606c804009cb4540da0d2b0dceecbd7e49e934e36e2dee1a4cbbd",
    (256, "cpu"): "1125807a86ebff03e6f768dc2c4c04a3cd11591805810e67bdaf7d198ef32b5c",
    (256, "ndp"): "0654938c53592e977c09448a6e74150c3823834a93892e94092f04acbc532337",
    (1024, "cpu"): "8ad7304d80af795d0cf0003f10640614c605cec7d36427790b4d71bd02af90cd",
    (1024, "ndp"): "b2a292829541a833988dd86c79a2b72feb52a75d79a530bb9c292fb083df6f76",
    (2048, "cpu"): "fe150a1ccf58e23dd7633379d6fbff93f65810255c03eb398008ed43d973aff0",
    (2048, "ndp"): "27c90680d955079773dbfc23af7eb0b4d33e806f5c902801310c56498601e0a8",
}


@pytest.mark.parametrize("n_atoms, context", sorted(SHIPPED_GRAPH_PINS))
def test_shipped_graph_is_pinned(calibrated, n_atoms, context):
    graph = build_taskgraph(derive_system(n_atoms, calibrated, context),
                            calibrated, CONTEXT_MODE[context])
    assert graph_digest(graph) == SHIPPED_GRAPH_PINS[n_atoms, context]


def test_graph_with_idle_processes_is_pinned(calibrated):
    """si2's 16 cells over 128 processes leave 112 processes with no cell."""
    graph = build_taskgraph(derive_system(2, calibrated, "ndp"), calibrated,
                            PseudoMode.SHARED_BLOCK)
    assert sum(o.startswith("pstate_x") for o in graph.data_objects) == 112
    assert graph_digest(graph) == (
        "fc4ea258d41dccc5d8a3276138ea68fe27594e24ad3de008f553d108f03694de")


def test_graph_with_empty_cells_is_pinned(calibrated):
    """D = 3 over si2's 16 cells: 13 cells have no pair and get no s2 task."""
    fixture = replace(calibrated, response_dim_base=3, response_dim_per_atom=0)
    graph = build_taskgraph(derive_system(2, fixture, "cpu"), fixture,
                            PseudoMode.PER_PROCESS_COPY)
    assert sum(t.id.startswith("s2_") for t in graph.tasks) == 3
    assert graph_digest(graph) == (
        "a89418f803fd1f7234636604d6b2bbee5cb3139aa15a2331d04338e437b70171")
