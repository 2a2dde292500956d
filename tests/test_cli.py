import os
import subprocess
import sys

import pytest
import yaml

from ndftsim.cli import (EXIT_BAD_CONFIG, EXIT_CAPACITY, config_to_doc,
                         default_config, load_config, run_experiment,
                         validate_config, write_default_config)
from ndftsim.errors import ConfigurationError


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


def test_partial_family_record_names_missing_key(tmp_path, config_file):
    doc = yaml.safe_load(config_file.read_text())
    del doc["workload"]["syevd"]["byte_coef"]
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    diags = validate_config(bad)
    assert any("workload.syevd.byte_coef" in d for d in diags)


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


def test_seed_env_var_overrides_all_seeds(tmp_path, config_file, monkeypatch):
    monkeypatch.setenv("NDFT_SIM_SEED", "7")
    config = load_config(config_file)
    assert {sc.seed for sc in config.scenarios} == {7}


def test_exec_pseudo_runs_numeric_check(tmp_path):
    doc = small_matrix_doc(tmp_path)
    doc["scenarios"] = [dict(doc["scenarios"][0], exec_pseudo=True)]
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc))
    run_experiment(load_config(path))  # raises if the modes diverge


def cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "ndftsim.cli", *args],
                          capture_output=True, text=True, env=full_env)


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
    (("workload", "targets"), {"speedup_si_64": "x"},
     "workload.targets.speedup_si_64"),
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


def test_cli_run_prints_no_runtime_warning(config_file):
    # python -m ndftsim.cli must find ndftsim.cli not yet imported by the
    # package, or runpy warns on every invocation
    proc = cli("validate", str(config_file))
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr, proc.stderr


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
