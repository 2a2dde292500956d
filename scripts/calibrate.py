#!/usr/bin/env python3
"""Print the shipped scenario matrix against the fixture's regression targets.

Maintenance tool: run after touching fixture coefficients or the machine
defaults to see where the speedup chain and overhead fractions land.

    python scripts/calibrate.py            # shipped fixture
    python scripts/calibrate.py --fft-byte-coef 60 --gemm-scale 0.15
"""

import argparse
from dataclasses import replace

from ndftsim.cli import ExperimentConfig, default_config, run_scenario
from ndftsim.workload import FamilyCoefficients


def config_from_args(argv: list[str] | None = None) -> ExperimentConfig:
    """The shipped config with the command line's overrides applied."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fft-byte-coef", type=float, default=None)
    ap.add_argument("--face-byte-coef", type=float, default=None)
    ap.add_argument("--gemm-scale", type=float, default=None,
                    help="scale gemm flop and byte coefficients together "
                         "(keeps its intensity, moves its time)")
    ap.add_argument("--syevd-byte-coef", type=float, default=None)
    ap.add_argument("--cxt", type=float, default=None)
    args = ap.parse_args(argv)

    config = default_config()
    fixture = config.fixture
    if args.fft_byte_coef is not None:
        fixture = replace(fixture, fft=replace(fixture.fft,
                                               byte_coef=args.fft_byte_coef))
    if args.face_byte_coef is not None:
        fixture = replace(fixture, face_split=replace(
            fixture.face_split, byte_coef=args.face_byte_coef))
    if args.gemm_scale is not None:
        fixture = replace(fixture, gemm=FamilyCoefficients(
            2.0 * args.gemm_scale, 1.0 * args.gemm_scale))
    if args.syevd_byte_coef is not None:
        fixture = replace(fixture, syevd=replace(
            fixture.syevd, byte_coef=args.syevd_byte_coef))
    config.fixture = fixture
    if args.cxt is not None:
        config.machine = config.machine.with_cxt(args.cxt)
    return config


def main() -> None:
    config = config_from_args()
    makespans: dict[tuple[int, str], float] = {}
    overheads: dict[tuple[int, str], float] = {}
    for sc in config.scenarios:
        report = run_scenario(sc, config)
        makespans[(sc.n_atoms, sc.policy)] = report.makespan
        overheads[(sc.n_atoms, sc.policy)] = report.overhead.total

    sizes = sorted({a for a, _ in makespans})
    targets = config.fixture.targets
    print(f"{'atoms':>6} {'cpu_only':>12} {'ndp_only':>12} {'hybrid':>12} "
          f"{'speedup':>8} {'ovh%':>6}")
    prev = None
    monotone = True
    for a in sizes:
        cpu = makespans[(a, "cpu_only")]
        ndp = makespans[(a, "ndp_only")]
        hyb = makespans[(a, "hybrid")]
        s = cpu / hyb
        ovh = 100.0 * overheads[(a, "hybrid")] / hyb
        flag = ""
        if prev is not None and s < prev:
            flag = "  <-- trend violation"
            monotone = False
        print(f"{a:>6} {cpu:>12.3f} {ndp:>12.3f} {hyb:>12.3f} {s:>8.3f} "
              f"{ovh:>6.2f}{flag}")
        prev = s
    s64 = makespans[(64, 'cpu_only')] / makespans[(64, 'hybrid')]
    s1024 = makespans[(1024, 'cpu_only')] / makespans[(1024, 'hybrid')]
    print(f"\ntargets: si_64 {targets.get('speedup_si_64')}x +/-25% -> {s64:.3f},"
          f" si_1024 {targets.get('speedup_si_1024')}x +/-25% -> {s1024:.3f},"
          f" monotone={monotone}")


if __name__ == "__main__":
    main()
