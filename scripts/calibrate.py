#!/usr/bin/env python3
"""Print the shipped scenario matrix against the fixture's regression targets.

Maintenance tool: run after touching fixture coefficients or the machine
defaults to see where the speedup chain and overhead fractions land.

    python scripts/calibrate.py              # shipped config
    python scripts/calibrate.py trial.yaml   # e.g. `ndft-sim init`, then edit

The config's scenarios must hold cpu_only, ndp_only and hybrid at each size,
si64 and si1024 among them; the script names any that are missing.
"""

import argparse

from ndftsim.cli import (ExperimentConfig, default_config, load_config,
                         run_scenario)
from ndftsim.errors import ConfigurationError
from ndftsim.scheduler import POLICIES


def config_from_args(argv: list[str] | None = None) -> ExperimentConfig:
    """The config the optional YAML path names, or the shipped one."""
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("config", nargs="?", help="YAML config (default: shipped)")
    args = ap.parse_args(argv)
    if args.config is None:
        return default_config()
    try:
        config = load_config(args.config)
    except ConfigurationError as exc:
        ap.error(str(exc))
    bad = config.validate()
    runs = {(sc.n_atoms, sc.policy) for sc in config.scenarios}
    sizes = sorted({n for n, _ in runs} | {64, 1024})
    bad += [f"scenarios: no si{n}_{p}" for n in sizes for p in POLICIES
            if (n, p) not in runs]
    if bad:
        ap.error("\n".join(bad))
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
