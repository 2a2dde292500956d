"""The cost model is split from the numeric kernel: validating a config and
running in cost mode never import numpy, and every old import path works.

The numpy checks each start a fresh interpreter, since this process has
numpy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ndftsim
from ndftsim import costmodel, runtime
from ndftsim.cli import write_default_config

MOVED = ["PseudoMode", "SystemSize", "Arch", "CommStats", "PseudoTrace",
         "pseudo_cost_trace", "_worker_units", "footprint_model",
         "footprint_percentage", "footprint_for_atoms"]


@pytest.fixture()
def shipped(tmp_path):
    path = tmp_path / "experiment.yaml"
    write_default_config(path)
    return path


def python(*args, cwd=None):
    env = dict(os.environ)
    src = str(Path(ndftsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc


def numpy_loaded_after(code: str) -> bool:
    proc = python("-c", f"{code}\nimport sys\nprint('numpy' in sys.modules)")
    return proc.stdout.split()[-1] == "True"


def imported_modules(*cli_args, cwd=None) -> set[str]:
    """Every module `python -m ndftsim.cli ...` imports (-X importtime)."""
    proc = python("-X", "importtime", "-m", "ndftsim.cli", *cli_args, cwd=cwd)
    return {line.rsplit("|", 1)[-1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_importing_the_cli_leaves_numpy_out():
    assert not numpy_loaded_after("import ndftsim.cli")


def test_validate_leaves_numpy_out(shipped):
    assert not numpy_loaded_after(
        "from ndftsim.cli import load_config\n"
        f"assert load_config({str(shipped)!r}).validate() == []")


def test_cli_validate_leaves_numpy_out(shipped):
    modules = imported_modules("validate", str(shipped))
    assert "ndftsim.costmodel" in modules
    assert "numpy" not in modules and "ndftsim.runtime" not in modules


def test_cost_mode_run_leaves_numpy_out(tmp_path):
    assert not numpy_loaded_after(
        "from ndftsim.cli import default_config, run_experiment\n"
        f"config = default_config({str(tmp_path / 'out')!r})\n"
        "assert len(run_experiment(config, scenario_filter='si16')) == 3")


def test_exec_pseudo_run_loads_the_kernel(shipped, tmp_path):
    modules = imported_modules("run", str(shipped), "--scenario", "si16_hybrid",
                               "--exec-pseudo", "--out", str(tmp_path / "out"))
    assert {"numpy", "ndftsim.runtime"} <= modules


@pytest.mark.parametrize("name", MOVED)
def test_runtime_reexports_the_same_object(name):
    assert getattr(runtime, name) is getattr(costmodel, name)


def test_every_package_export_resolves():
    for name in ndftsim.__all__:
        assert getattr(ndftsim, name) is not None, name
    namespace: dict = {}
    exec("from ndftsim import *", namespace)
    assert set(ndftsim.__all__) <= set(namespace)
    assert ndftsim.NdpRuntime is runtime.NdpRuntime
    assert ndftsim.PseudoMode is costmodel.PseudoMode


def test_kernel_names_load_runtime_on_first_access():
    assert numpy_loaded_after(
        "import sys, ndftsim\n"
        "assert 'ndftsim.runtime' not in sys.modules\n"
        "ndftsim.NdpRuntime\n"
        "assert 'ndftsim.runtime' in sys.modules")
