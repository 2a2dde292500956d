import pytest
from hypothesis import given, strategies as st

from ndftsim.analyzer import (Boundedness, arithmetic_intensity,
                              classification_table, classify, estimate_time)
from ndftsim.errors import DomainError
from ndftsim.machine import (MachineConfig, UnitClass, launch_latency,
                             peak_flops, ridge_point, unit_bandwidth)
from ndftsim.workload import KernelDescriptor, KernelFamily


def kd(flops, br, bw, family=KernelFamily.OTHER, tid="k"):
    return KernelDescriptor(id=tid, family=family, flops=flops, bytes_read=br,
                            bytes_written=bw, inputs=(), outputs=())


def test_gemm_256_intensity():
    k = kd(2 * 256 ** 3, 2 * 256 * 256 * 8, 256 * 256 * 8)
    assert arithmetic_intensity(k) == 33_554_432 / 1_572_864
    assert abs(arithmetic_intensity(k) - 21.33) < 0.01


def test_fft_4096_intensity():
    k = kd(5 * 4096 * 12, 16 * 4096, 16 * 4096)
    assert arithmetic_intensity(k) == 245_760 / 131_072 == 1.875


def test_zero_flops_intensity_is_zero():
    assert arithmetic_intensity(kd(0, 100, 28)) == 0.0


def test_zero_bytes_is_domain_error():
    with pytest.raises(DomainError):
        arithmetic_intensity(kd(10, 0, 0))


def test_fft_memory_bound_on_cpu(cfg):
    k = kd(5 * 4096 * 12, 16 * 4096, 16 * 4096, family=KernelFamily.FFT)
    c = classify(k, UnitClass.CPU, cfg)
    assert c.bound is Boundedness.MEMORY_BOUND
    assert c.ridge_used == 3.0


def test_gemm_compute_bound_on_cpu(cfg):
    k = kd(2 * 256 ** 3, 2 * 256 * 256 * 8, 256 * 256 * 8,
           family=KernelFamily.GEMM)
    assert classify(k, UnitClass.CPU, cfg).bound is Boundedness.COMPUTE_BOUND


def test_tie_at_ridge_classifies_compute_bound(cfg):
    ridge = ridge_point(UnitClass.CPU, cfg)
    k = kd(ridge * 1000, 600, 400)
    assert arithmetic_intensity(k) == ridge
    assert classify(k, UnitClass.CPU, cfg).bound is Boundedness.COMPUTE_BOUND


def test_estimate_memory_only_kernel(cfg):
    k = kd(0, 1000, 0)
    assert estimate_time(k, UnitClass.CPU, cfg) == 1000 / 64e9 + 2e-6


def test_estimate_fft4096_on_one_ndp_unit(cfg):
    k = kd(245760, 65536, 65536)
    est = estimate_time(k, UnitClass.NDP_UNIT, cfg)
    assert est == pytest.approx(max(245760 / 4e9, 131072 / 32e9) + 1e-6)
    assert est == pytest.approx(62.44e-6)


def test_estimate_fft4096_on_cpu(cfg):
    k = kd(245760, 65536, 65536)
    est = estimate_time(k, UnitClass.CPU, cfg)
    assert est == pytest.approx(max(245760 / 192e9, 131072 / 64e9) + 2e-6)
    assert est == pytest.approx(4.048e-6)


@given(st.floats(min_value=1.0, max_value=1e15),
       st.floats(min_value=1.0, max_value=1e12),
       st.booleans())
def test_classification_matches_limiting_term(flops, total_bytes, on_cpu):
    """The estimate is the roofline term the classification names, plus
    the launch latency: the same ridge inequality decides both."""
    cfg = MachineConfig()
    k = kd(flops, total_bytes / 2, total_bytes / 2)
    cls = UnitClass.CPU if on_cpu else UnitClass.NDP_UNIT
    term = (k.flops / peak_flops(cls, cfg)
            if classify(k, cls, cfg).bound is Boundedness.COMPUTE_BOUND
            else k.total_bytes / unit_bandwidth(cls, cfg))
    assert estimate_time(k, cls, cfg) == term + launch_latency(cls, cfg)


@given(st.floats(min_value=1.0, max_value=1e12),
       st.floats(min_value=1.0, max_value=1e10),
       st.integers(min_value=1, max_value=1000))
def test_estimate_scales_linearly_above_latency(flops, total_bytes, c):
    cfg = MachineConfig()
    cls = UnitClass.NDP_UNIT
    lat = launch_latency(cls, cfg)
    base = estimate_time(kd(flops, total_bytes, 0), cls, cfg) - lat
    scaled = estimate_time(kd(c * flops, c * total_bytes, 0), cls, cfg) - lat
    assert scaled == pytest.approx(c * base, rel=1e-12)


def test_classification_table_csv(cfg):
    k = kd(5 * 4096 * 12, 16 * 4096, 16 * 4096, family=KernelFamily.FFT)
    csv_text = classification_table([("fft", "si_64", k)], cfg)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "kernel_family,system,unit_class,ai,ridge,bound"
    assert len(lines) == 3  # both unit classes
    assert "memory_bound" in lines[1]
