import pytest

from ndftsim import cli
from ndftsim.cli import default_config, run_experiment
from ndftsim.machine import MachineConfig
from ndftsim.workload import CalibrationFixture


@pytest.fixture(autouse=True)
def no_reused_graph(monkeypatch):
    """Each test starts with run_scenario's graph slot empty, so whether its
    first run_scenario builds a graph does not depend on the tests before it."""
    monkeypatch.setattr(cli, "_last_graph", None)


@pytest.fixture(scope="session")
def cfg() -> MachineConfig:
    return MachineConfig().validated()


@pytest.fixture(scope="session")
def textbook() -> CalibrationFixture:
    return CalibrationFixture.textbook()


@pytest.fixture(scope="session")
def calibrated() -> CalibrationFixture:
    return CalibrationFixture.calibrated()


@pytest.fixture(scope="session")
def matrix_run(tmp_path_factory):
    """One full run of the shipped scenario matrix, shared by the acceptance
    checks (reports plus the summary.csv bytes)."""
    out = tmp_path_factory.mktemp("matrix")
    config = default_config(output_dir=out)
    reports = run_experiment(config)
    summary = (out / "summary.csv").read_bytes()
    return {"config": config, "reports": reports, "summary": summary,
            "out_dir": out}
