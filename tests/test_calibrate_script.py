"""scripts/calibrate.py: the config it reads is the one its table runs."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from ndftsim.cli import config_to_doc, default_config
from ndftsim.workload import FamilyCoefficients

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "calibrate.py"
spec = importlib.util.spec_from_file_location("calibrate", SCRIPT)
calibrate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(calibrate)


def test_no_flag_gives_the_shipped_config():
    assert calibrate.config_from_args([]) == default_config()


def test_a_config_file_reaches_the_config(tmp_path):
    doc = config_to_doc(default_config())
    doc["workload"]["gemm"] = {"flop_coef": 1.0, "byte_coef": 0.5}
    path = tmp_path / "trial.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    config = calibrate.config_from_args([str(path)])
    shipped = default_config()
    assert config.fixture == replace(shipped.fixture,
                                     gemm=FamilyCoefficients(1.0, 0.5))
    assert config.machine == shipped.machine
    assert config.scenarios == shipped.scenarios


def no_si64(doc):
    doc["scenarios"] = [sc for sc in doc["scenarios"] if sc["n_atoms"] != 64]


def infinite_cxt(doc):
    doc["machine"]["cxt_s"] = float("inf")


@pytest.mark.parametrize("edit, message", [
    (infinite_cxt, "machine.cxt_s: must be >= 0"),
    (no_si64, "scenarios: no si64_hybrid"),
], ids=["infinite-cxt", "no-si64"])
def test_a_bad_config_file_exits_2_naming_the_key(tmp_path, capsys, edit,
                                                   message):
    doc = config_to_doc(default_config())
    edit(doc)
    path = tmp_path / "trial.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    with pytest.raises(SystemExit) as err:
        calibrate.config_from_args([str(path)])
    assert err.value.code == 2
    assert message in capsys.readouterr().err
