"""scripts/calibrate.py: its overrides land on the shipped config's fields."""

import importlib.util
from dataclasses import replace
from pathlib import Path

from ndftsim.cli import default_config
from ndftsim.workload import FamilyCoefficients

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "calibrate.py"
spec = importlib.util.spec_from_file_location("calibrate", SCRIPT)
calibrate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(calibrate)


def test_no_flag_gives_the_shipped_config():
    assert calibrate.config_from_args([]) == default_config()


def test_flags_replace_only_their_coefficients():
    config = calibrate.config_from_args(
        ["--gemm-scale", "0.5", "--fft-byte-coef", "60"])
    shipped = default_config()
    assert config.fixture == replace(
        shipped.fixture, gemm=FamilyCoefficients(1.0, 0.5),
        fft=replace(shipped.fixture.fft, byte_coef=60.0))
    assert config.machine == shipped.machine
