import os
import subprocess
import sys
from dataclasses import replace

import pytest
import yaml

from ndftsim import cli as cli_module, runtime
from ndftsim.cli import (EXIT_BAD_CONFIG, EXIT_CAPACITY, Scenario,
                         config_to_doc, default_config, load_config,
                         run_experiment, validate_config, write_default_config)
from ndftsim.errors import ConfigurationError, NdftError
from ndftsim.workload import CalibrationFixture, PseudoMode


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "experiment.yaml"
    write_default_config(path)
    return path


def small_matrix_doc(tmp_path, out_name="out"):
    doc = config_to_doc(default_config(tmp_path / out_name))
    doc["scenarios"] = [s for s in doc["scenarios"] if s["n_atoms"] == 16]
    return doc


def test_default_config_validates(config_file):
    assert validate_config(config_file) == []


def test_config_round_trips_losslessly(config_file):
    config = load_config(config_file)
    doc_a = config_to_doc(config)
    doc_b = config_to_doc(load_config(config_file))
    assert doc_a == doc_b
    assert yaml.safe_load(config_file.read_text()) == doc_a


def test_zero_bus_width_names_the_key(tmp_path, config_file):
    doc = yaml.safe_load(config_file.read_text())
    doc["machine"]["hbm"]["bus_width_bits"] = 0
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    diags = validate_config(bad)
    assert any(d.startswith("machine.hbm.bus_width_bits") for d in diags)


def test_partial_family_record_keeps_the_shipped_coefficient(config_file):
    """A family record is read onto the shipped one, like every other node."""
    doc = yaml.safe_load(config_file.read_text())
    del doc["workload"]["syevd"]["byte_coef"]
    doc["workload"]["syevd"]["flop_coef"] = 7.0
    config_file.write_text(yaml.safe_dump(doc))
    shipped = CalibrationFixture.calibrated().syevd
    assert load_config(config_file).fixture.syevd == replace(shipped,
                                                             flop_coef=7.0)
    assert validate_config(config_file) == []


def test_empty_scenarios_is_invalid(tmp_path, config_file):
    doc = yaml.safe_load(config_file.read_text())
    doc["scenarios"] = []
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    assert any("scenarios" in d for d in validate_config(bad))


def test_missing_seed_is_rejected(tmp_path, config_file):
    doc = yaml.safe_load(config_file.read_text())
    del doc["scenarios"][0]["seed"]
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigurationError) as err:
        load_config(bad)
    assert "seed" in str(err.value)


def test_run_writes_reports_and_summary(tmp_path):
    doc = small_matrix_doc(tmp_path)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc))
    config = load_config(path)
    reports = run_experiment(config)
    out = config.output_dir
    assert (out / "summary.csv").exists()
    for name in reports:
        assert (out / f"report_{name}.csv").exists()
    assert not list(out.glob("*.tmp"))  # atomic writes leave no temp files
    header = (out / "summary.csv").read_text().split("\n", 1)[0]
    assert header == ("n_atoms,policy,pseudo_mode,makespan_s,"
                      "speedup_vs_cpu_only,overhead_frac,footprint_bytes,"
                      "inter_stack_bytes")


def test_scenario_filter(tmp_path):
    doc = small_matrix_doc(tmp_path)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc))
    config = load_config(path)
    reports = run_experiment(config, scenario_filter="hybrid")
    assert list(reports) == ["si16_hybrid"]


def test_exec_pseudo_runs_numeric_check(tmp_path):
    config = default_config(tmp_path / "out")
    # raises if the modes diverge
    run_experiment(config, scenario_filter="si16_cpu_only", exec_pseudo=True)


def test_exec_pseudo_names_the_scenario_whose_modes_diverge(tmp_path,
                                                            monkeypatch):
    original = runtime.run_pseudopotential

    def skewed(spec, mode, *args, **kwargs):
        wf, mem, comm = original(spec, mode, *args, **kwargs)
        return (wf * (1 + 1e-9) if mode is PseudoMode.SHARED_BLOCK else wf,
                mem, comm)

    monkeypatch.setattr(runtime, "run_pseudopotential", skewed)
    config = default_config(tmp_path / "out")
    with pytest.raises(NdftError, match="modes diverge in si16_hybrid$"):
        run_experiment(config, scenario_filter="si16_hybrid", exec_pseudo=True)


def cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "ndftsim.cli", *args],
                          capture_output=True, text=True, env=full_env)


def test_document_with_an_exec_pseudo_key_exits_2(tmp_path, config_file):
    assert "exec_pseudo" not in config_file.read_text()
    doc = yaml.safe_load(config_file.read_text())
    doc["scenarios"][3]["exec_pseudo"] = False
    old = tmp_path / "old.yaml"
    old.write_text(yaml.safe_dump(doc))
    proc = cli("validate", str(old))
    assert proc.returncode == EXIT_BAD_CONFIG
    assert proc.stdout == "scenarios[3].exec_pseudo: unknown field\n"


def test_cli_validate_ok(config_file):
    proc = cli("validate", str(config_file))
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_cli_invalid_config_exits_2(tmp_path, config_file):
    doc = yaml.safe_load(config_file.read_text())
    doc["machine"]["hbm"]["bus_width_bits"] = 0
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    assert cli("validate", str(bad)).returncode == EXIT_BAD_CONFIG
    assert cli("run", str(bad)).returncode == EXIT_BAD_CONFIG


@pytest.mark.parametrize("path, value, key", [
    (("machine", "cxt_s"), "fast", "machine.cxt_s"),
    (("workload", "footprint", "bogus"), 1, "workload.footprint.bogus"),
    (("workload", "pseudo"), 3, "workload.pseudo"),
    (("workload", "fft"), 5, "workload.fft"),
    (("scenarios", 0, "n_atoms"), "abc", "scenarios[0].n_atoms"),
    (("output_dir",), 3, "output_dir"),
    (("workload", "targets"), 3, "workload.targets"),
    # a key of older documents: the fit's targets are a constant now
    (("workload", "targets"), {"speedup_si_64": 1.9},
     "workload.targets: unknown field"),
    # a key of older documents: run --exec-pseudo replaced it
    (("scenarios", 0, "exec_pseudo"), "nope", "scenarios[0].exec_pseudo"),
    (("workload", "nv_per_atm"), 2, "workload.nv_per_atm"),
    (("machin",), {}, "machin: unknown field"),
    (("scenarios", 0, "polcy"), "hybrid", "scenarios[0].polcy"),
    (("workload", "gemm", "flop_coeff"), 1.0, "workload.gemm.flop_coeff"),
    (("machine", "cpu", "l1_bytes"), 32768, "machine.cpu.l1_bytes"),
    (("workload", "footprint", "small_atoms"), 1024,
     "workload.footprint.small_atoms"),
    (("workload", "footprint", "small_atoms"), 0,
     "workload.footprint.small_atoms"),
    (("workload", "footprint", "large_atoms"), -5,
     "workload.footprint.large_atoms"),
    (("workload", "footprint", "processes_cpu"), 0,
     "workload.footprint.processes_cpu"),
    (("workload", "footprint", "processes_ndp"), -3,
     "workload.footprint.processes_ndp"),
    (("workload", "footprint", "base_small"), 0, "workload.footprint.base_small"),
    # D = min(Nv*Nc, base + per_atom*N) must stay >= 1 for every N >= 1
    (("workload", "response_dim_base"), -100000, "workload.response_dim_base"),
    (("workload", "response_dim_per_atom"), -1000000,
     "workload.response_dim_per_atom"),
    # derived from the mesh geometry, and read by nothing, respectively
    (("machine", "hbm", "total_capacity"), 64 * 1024 ** 3,
     "machine.hbm.total_capacity: unknown field"),
    (("machine", "ndp", "spm_per_core"), 16384,
     "machine.ndp.spm_per_core: unknown field"),
    # numpy seeds only from non-negative integers (--exec-pseudo)
    (("scenarios", 0, "seed"), -1, "scenarios[0].seed"),
])
def test_cli_malformed_value_exits_2_with_key(tmp_path, config_file, path,
                                              value, key):
    doc = yaml.safe_load(config_file.read_text())
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    proc = cli("validate", str(bad))
    assert proc.returncode == EXIT_BAD_CONFIG, proc.stderr
    assert key in proc.stdout
    assert "Traceback" not in proc.stderr


def test_cli_a_document_setting_the_targets_exits_2(tmp_path, config_file):
    # older documents carried the fit's targets; they are a constant now
    doc = yaml.safe_load(config_file.read_text())
    assert "targets" not in doc["workload"]
    doc["workload"]["targets"] = dict(CalibrationFixture.targets)
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    proc = cli("validate", str(bad))
    assert (proc.returncode, proc.stdout) == (
        EXIT_BAD_CONFIG, "workload.targets: unknown field\n")
    proc = cli("run", str(bad), "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_BAD_CONFIG
    assert proc.stderr == "invalid config: workload.targets: unknown field\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, value", [("speedup_si_64", ".nan"),
                                         ("max_overhead_fraction", "-5.0")])
def test_cli_target_outside_its_domain_exits_2(tmp_path, config_file, name,
                                               value):
    # no document sets a target, so one outside its domain is refused
    # as the unknown field before its value is read
    doc = yaml.safe_load(config_file.read_text())
    doc["workload"]["targets"] = {name: yaml.safe_load(value)}
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    assert f"{name}: {value}" in bad.read_text()
    proc = cli("validate", str(bad))
    assert proc.returncode == EXIT_BAD_CONFIG, proc.stdout
    assert proc.stdout == "workload.targets: unknown field\n"


def test_cli_run_prints_no_runtime_warning(config_file):
    # python -m ndftsim.cli must find ndftsim.cli not yet imported by the
    # package, or runpy warns on every invocation
    proc = cli("validate", str(config_file))
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr, proc.stderr


def test_cli_run_output_dir_on_a_file_exits_2(tmp_path):
    doc = small_matrix_doc(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc))
    proc = cli("run", str(path), "--out", str(taken))
    assert proc.returncode == EXIT_BAD_CONFIG
    assert proc.stderr.startswith("invalid config: output_dir: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    doc["output_dir"] = str(taken)
    path.write_text(yaml.safe_dump(doc))
    proc = cli("run", str(path))
    assert proc.returncode == EXIT_BAD_CONFIG
    assert proc.stderr.startswith("invalid config: output_dir: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


@pytest.mark.parametrize("report", ["summary.csv", "report_si16_hybrid.csv"])
def test_cli_run_unwritable_report_exits_2(tmp_path, report):
    """A report path taken by a directory names output_dir and the file,
    and leaves no .tmp file behind."""
    doc = small_matrix_doc(tmp_path)
    out = tmp_path / "out"
    (out / report).mkdir(parents=True)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc))
    proc = cli("run", str(path), "--scenario", "si16_hybrid")
    assert proc.returncode == EXIT_BAD_CONFIG
    assert proc.stderr.startswith(
        f"invalid config: output_dir: cannot write {out / report}: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert not list(out.glob("*.tmp"))


@pytest.mark.parametrize("target", ["missing/x.yaml", "."])
def test_cli_init_unwritable_path_exits_2(tmp_path, target):
    path = tmp_path / target
    proc = cli("init", str(path))
    assert proc.returncode == EXIT_BAD_CONFIG
    assert proc.stderr.startswith(f"cannot write {path}: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_cli_capacity_error_exits_3(tmp_path):
    doc = small_matrix_doc(tmp_path)
    doc["scenarios"] = [{"n_atoms": 8192, "policy": "ndp_only",
                         "pseudo_mode": "shared_block", "seed": 1}]
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc))
    proc = cli("run", str(path))
    assert proc.returncode == EXIT_CAPACITY


def test_cli_run_small_matrix(tmp_path):
    doc = small_matrix_doc(tmp_path, "cli_out")
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc))
    proc = cli("run", str(path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cli_out" / "summary.csv").exists()


def test_rerun_is_byte_identical(tmp_path):
    doc = small_matrix_doc(tmp_path)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc))
    config = load_config(path)
    run_experiment(config)
    first = (config.output_dir / "summary.csv").read_bytes()
    run_experiment(config)
    assert (config.output_dir / "summary.csv").read_bytes() == first


def test_scenario_report_rows(tmp_path):
    doc = small_matrix_doc(tmp_path)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc))
    config = load_config(path)
    run_experiment(config)
    text = (config.output_dir / "report_si16_hybrid.csv").read_text()
    rows = {line.split(",")[0] for line in text.strip().split("\n")[1:]}
    for required in ("fft", "face_split", "gemm", "alltoall", "syevd",
                     "pseudo", "scheduling", "global_comm", "makespan",
                     "intra_stack_bytes", "inter_stack_bytes",
                     "inter_stack_messages", "cache_hits", "footprint_bytes",
                     "footprint_pct"):
        assert required in rows, required


def test_cli_duplicate_scenario_name_exits_2(tmp_path):
    """Two scenarios named si16_hybrid would share one report file and one
    summary row."""
    doc = small_matrix_doc(tmp_path)
    doc["scenarios"] = [
        {"n_atoms": 16, "policy": "hybrid", "pseudo_mode": mode, "seed": 1}
        for mode in ("shared_block", "per_process_copy")]
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc))
    proc = cli("validate", str(path))
    assert proc.returncode == EXIT_BAD_CONFIG
    assert proc.stdout == "scenarios[1]: duplicate scenario name si16_hybrid\n"
    proc = cli("run", str(path))
    assert proc.returncode == EXIT_BAD_CONFIG
    assert proc.stderr == ("invalid config: scenarios[1]: duplicate scenario "
                           "name si16_hybrid\n")
    assert not (tmp_path / "out").exists()


def test_cli_infinite_context_switch_exits_2(tmp_path):
    """cxt_s: .inf used to pass validate, and run wrote nan overhead
    fractions, for cpu_only too (0 handoffs x inf)."""
    doc = small_matrix_doc(tmp_path)
    doc["machine"]["cxt_s"] = float("inf")
    doc["scenarios"] = [
        {"n_atoms": 16, "policy": "cpu_only", "pseudo_mode": "per_process_copy",
         "seed": 1},
        {"n_atoms": 16, "policy": "hybrid", "seed": 2}]
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert "cxt_s: .inf" in path.read_text()
    proc = cli("validate", str(path))
    assert proc.returncode == EXIT_BAD_CONFIG
    assert proc.stdout == "machine.cxt_s: must be >= 0\n"
    proc = cli("run", str(path))
    assert proc.returncode == EXIT_BAD_CONFIG
    assert proc.stderr == "invalid config: machine.cxt_s: must be >= 0\n"
    assert not (tmp_path / "out").exists()


def count_calls(monkeypatch, name: str) -> list:
    calls = []
    original = getattr(cli_module, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli_module, name, counted)
    return calls


def test_shipped_matrix_builds_one_graph_per_ndp_pair(tmp_path, monkeypatch):
    builds = count_calls(monkeypatch, "build_taskgraph")
    runs = count_calls(monkeypatch, "run_scenario")
    config = default_config(tmp_path)
    run_experiment(config)
    assert len(builds) == 14  # ndp_only and hybrid share a graph
    assert runs == [((sc, config), {}) for sc in config.scenarios]


def test_run_experiment_keeps_no_graph_after_it_ends(tmp_path):
    config = default_config(tmp_path / "out")
    run_experiment(config, scenario_filter="si16_")
    assert cli_module._last_graph is None
    # the last scenario's report cannot be written: the run raises
    (tmp_path / "out" / "report_si16_hybrid.csv").unlink()
    (tmp_path / "out" / "report_si16_hybrid.csv").mkdir()
    with pytest.raises(ConfigurationError, match="report_si16_hybrid"):
        run_experiment(config, scenario_filter="si16_")
    assert cli_module._last_graph is None


def test_run_scenario_rebuilds_for_a_changed_mode_or_fixture(monkeypatch):
    builds = count_calls(monkeypatch, "build_taskgraph")
    config = default_config()
    shared = Scenario(16, "hybrid", PseudoMode.SHARED_BLOCK, seed=1)
    copy = replace(shared, pseudo_mode=PseudoMode.PER_PROCESS_COPY)
    fewer_groups = replace(config, fixture=replace(config.fixture,
                                                   orbital_groups_max=8))
    equal_fixture = replace(config, fixture=CalibrationFixture.calibrated())
    for scenario, cfg, n_builds in ((shared, config, 1),
                                    (replace(shared, policy="ndp_only"), config, 1),
                                    (copy, config, 2), (copy, equal_fixture, 2),
                                    (copy, fewer_groups, 3), (shared, fewer_groups, 4)):
        cli_module.run_scenario(scenario, cfg)
        assert len(builds) == n_builds, (scenario, n_builds)


def test_run_scenario_keeps_the_plan_context_while_the_machine_is_equal(
        monkeypatch):
    builds = count_calls(monkeypatch, "build_taskgraph")
    plans = count_calls(monkeypatch, "plan")
    config = default_config()
    ndp_only = Scenario(16, "ndp_only", seed=1)
    hybrid = replace(ndp_only, policy="hybrid")
    other_cxt = replace(config, machine=config.machine.with_cxt(1.0))
    equal = replace(other_cxt, machine=replace(other_cxt.machine))
    for scenario, cfg in ((ndp_only, config), (hybrid, config),
                          (hybrid, other_cxt), (ndp_only, equal)):
        cli_module.run_scenario(scenario, cfg)
    assert len(builds) == 2  # a changed machine rebuilds the graph
    contexts = [kwargs["context"] for _, kwargs in plans]
    assert contexts[1] is contexts[0]
    assert contexts[2] is not contexts[1]  # a changed cxt_s
    assert contexts[2].cfg == other_cxt.machine
    assert contexts[3] is contexts[2]
