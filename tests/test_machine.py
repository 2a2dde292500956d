import dataclasses

import pytest
from hypothesis import given, strategies as st

from ndftsim.errors import DomainError
from ndftsim.machine import (GIB, Location, MachineConfig, UnitClass, UnitRef,
                             attainable_perf, bandwidth, mesh_hops, peak_flops,
                             ridge_point, unit_bandwidth)

CPU = UnitClass.CPU
NDP = UnitClass.NDP_UNIT


def test_default_config_is_valid(cfg):
    assert cfg.validate() == []


def test_cpu_peak_is_product_of_table_parameters(cfg):
    assert peak_flops(CPU, cfg) == 8 * 3e9 * 4 * 2 == 192e9


def test_ndp_unit_peak_is_scalar_in_order(cfg):
    assert peak_flops(NDP, cfg) == 2 * 2e9 * 1 * 1 == 4e9
    per_stack = peak_flops(NDP, cfg) * cfg.ndp.units_per_stack
    assert per_stack == 32e9


def test_unit_peak_identity_case():
    tiny = dataclasses.replace(
        MachineConfig(),
        cpu=dataclasses.replace(MachineConfig().cpu, cores=1, freq_hz=1.0,
                                issue_width=1, fma_factor=1))
    assert peak_flops(CPU, tiny) == 1.0


def test_stack_local_bandwidth(cfg):
    assert bandwidth(Location.STACK_LOCAL, cfg) == 8 * 16 * 1e9 * 2 == 256e9


def test_link_bandwidths_pass_through(cfg):
    assert bandwidth(Location.CPU_LINK, cfg) == 64e9
    assert bandwidth(Location.MESH_HOP, cfg) == 32e9


def test_bandwidth_identity_case():
    tiny = dataclasses.replace(
        MachineConfig(),
        hbm=dataclasses.replace(MachineConfig().hbm, channels_per_stack=1,
                                bus_width_bits=8, rate_hz=1.0, ddr_factor=1))
    assert bandwidth(Location.STACK_LOCAL, tiny) == 1.0


def test_ridge_points(cfg):
    assert ridge_point(CPU, cfg) == 192e9 / 64e9 == 3.0
    assert ridge_point(NDP, cfg) == 4e9 / 32e9 == 0.125


def test_ridge_zero_peak_gives_zero():
    cfg = MachineConfig()
    zero = dataclasses.replace(
        cfg, cpu=dataclasses.replace(cfg.cpu, cores=0))
    assert ridge_point(CPU, zero) == 0.0


def test_ridge_identity_exact(cfg):
    for cls in (CPU, NDP):
        assert ridge_point(cls, cfg) * unit_bandwidth(cls, cfg) == peak_flops(cls, cfg)


def test_attainable_at_ridge_is_peak(cfg):
    for cls in (CPU, NDP):
        assert attainable_perf(cls, ridge_point(cls, cfg), cfg) == peak_flops(cls, cfg)


def test_attainable_below_ridge(cfg):
    assert attainable_perf(CPU, 1.875, cfg) == 1.875 * 64e9 == 120e9


def test_attainable_saturates(cfg):
    assert attainable_perf(CPU, 1e9, cfg) == peak_flops(CPU, cfg)


def test_attainable_rejects_negative_ai(cfg):
    with pytest.raises(DomainError):
        attainable_perf(CPU, -1.0, cfg)


@given(st.floats(min_value=0, max_value=1e6, allow_nan=False),
       st.floats(min_value=0, max_value=1e6, allow_nan=False))
def test_attainable_monotone_and_capped(a, b):
    cfg = MachineConfig()
    lo, hi = sorted((a, b))
    for cls in (CPU, NDP):
        assert attainable_perf(cls, lo, cfg) <= attainable_perf(cls, hi, cfg)
        assert attainable_perf(cls, hi, cfg) <= peak_flops(cls, cfg)


def test_default_totals(cfg):
    assert cfg.total_stacks == 16
    assert cfg.total_units == 128
    assert cfg.total_units * cfg.ndp.cores_per_unit == 256
    assert cfg.total_capacity == 64 * GIB
    assert cfg.total_stacks * bandwidth(Location.STACK_LOCAL, cfg) == 4.096e12


def test_validation_key_paths():
    cfg = MachineConfig()
    broken = dataclasses.replace(
        cfg, hbm=dataclasses.replace(cfg.hbm, bus_width_bits=0))
    diags = broken.validate()
    assert any(d.startswith("machine.hbm.bus_width_bits") for d in diags)


def test_unitref_contract():
    u = UnitRef.ndp(3, 5)
    assert u.location() == 3
    assert UnitRef.cpu().location() == -1
    with pytest.raises(DomainError):
        UnitRef(UnitClass.CPU, stack_id=1, unit_id=0)
    with pytest.raises(DomainError):
        UnitRef(UnitClass.NDP_UNIT)
    with pytest.raises(DomainError):
        UnitRef.ndp(99, 0).check_against(MachineConfig())


def test_mesh_hops_manhattan(cfg):
    assert mesh_hops(0, 0, cfg) == 0
    assert mesh_hops(0, 3, cfg) == 3       # same row
    assert mesh_hops(0, 15, cfg) == 6      # corner to corner on 4x4
    assert mesh_hops(5, 6, cfg) == 1
