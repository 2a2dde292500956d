"""Experiment front door: config parsing, scenario matrices, CSV reports.

The CLI is a thin shell over the library; every number in the emitted files
comes from the same calls a library user would make.
"""

from __future__ import annotations

import csv
import io
import os
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import click
import yaml

from .errors import CapacityError, ConfigurationError, NdftError
from .machine import (CpuSpec, HbmSpec, MachineConfig, MeshSpec, NdpSpec)
from .runtime import PseudoMode, run_pseudopotential
from .scheduler import POLICIES, plan
from .simulator import SimulationReport, simulate
from .workload import (CalibrationFixture, FamilyCoefficients, FootprintParams,
                       KernelFamily, PseudoParams, build_taskgraph,
                       derive_system)

SEED_ENV = "NDFT_SIM_SEED"
EXIT_BAD_CONFIG = 2
EXIT_CAPACITY = 3

SHIPPED_SIZES = (16, 32, 64, 128, 256, 1024, 2048)


@dataclass(frozen=True)
class Scenario:
    n_atoms: int
    policy: str
    pseudo_mode: PseudoMode
    seed: int
    exec_pseudo: bool = False

    @property
    def name(self) -> str:
        return f"si{self.n_atoms}_{self.policy}"


@dataclass
class ExperimentConfig:
    machine: MachineConfig
    fixture: CalibrationFixture
    scenarios: list[Scenario]
    output_dir: Path
    extra_diagnostics: list[str] = field(default_factory=list)

    def validate(self) -> list[str]:
        bad = list(self.extra_diagnostics)
        bad.extend(self.machine.validate())
        bad.extend(self.fixture.validate())
        if not self.scenarios:
            bad.append("scenarios: at least one scenario is required")
        for i, sc in enumerate(self.scenarios):
            if sc.n_atoms < 1:
                bad.append(f"scenarios[{i}].n_atoms: must be >= 1")
            if sc.policy not in POLICIES:
                bad.append(f"scenarios[{i}].policy: unknown policy {sc.policy!r}")
        return bad


def default_config(output_dir: str | Path = "out") -> ExperimentConfig:
    """The shipped scenario matrix: all sizes x all policies, fixed seeds."""
    scenarios = []
    seed = 42
    for n_atoms in SHIPPED_SIZES:
        for policy in ("cpu_only", "ndp_only", "hybrid"):
            mode = (PseudoMode.PER_PROCESS_COPY if policy == "cpu_only"
                    else PseudoMode.SHARED_BLOCK)
            scenarios.append(Scenario(n_atoms=n_atoms, policy=policy,
                                      pseudo_mode=mode, seed=seed))
            seed += 1
    return ExperimentConfig(machine=MachineConfig(),
                            fixture=CalibrationFixture.calibrated(),
                            scenarios=scenarios, output_dir=Path(output_dir))


# -- config document mapping --------------------------------------------------


def _mapping(node, key: str) -> dict:
    """A document node that must be a mapping; absent or null reads as empty."""
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigurationError("must be a mapping", key=key)
    return node


def _number(value, key: str) -> int | float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"must be a number, got {value!r}", key=key)
    return value


def _numeric_fields(cls, node: dict, key: str) -> dict:
    """Keyword arguments for a dataclass of numbers, each field checked."""
    names = {f.name for f in fields(cls)}
    for k in node:
        if k not in names:
            raise ConfigurationError("unknown field", key=f"{key}.{k}")
    return {k: _number(v, f"{key}.{k}") for k, v in node.items()}


def _integer(value, key: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"must be an integer, got {value!r}",
                                 key=key) from None


def _machine_from_doc(doc: dict) -> MachineConfig:
    def sub(cls, key):
        node = _mapping(doc.get(key), f"machine.{key}")
        return cls(**_numeric_fields(cls, node, f"machine.{key}"))

    return MachineConfig(
        cpu=sub(CpuSpec, "cpu"),
        ndp=sub(NdpSpec, "ndp"),
        hbm=sub(HbmSpec, "hbm"),
        interconnect=sub(MeshSpec, "interconnect"),
        cxt_s=_number(doc.get("cxt_s", MachineConfig().cxt_s), "machine.cxt_s"),
    )


def _fixture_from_doc(doc: dict, diagnostics: list[str]) -> CalibrationFixture:
    base = CalibrationFixture.calibrated()

    def scalar(name: str, optional: bool = False):
        value = doc.get(name, getattr(base, name))
        if value is None and optional:
            return None
        return _number(value, f"workload.{name}")

    families = dict(base.families)
    for fam in ("fft", "face_split", "gemm", "alltoall", "syevd", "pseudo"):
        if doc.get(fam) is None:
            continue
        node = _mapping(doc[fam], f"workload.{fam}")
        # an explicit family record must be complete
        for coef in ("flop_coef", "byte_coef") if fam != "pseudo" else ():
            if coef not in node:
                diagnostics.append(f"workload.{fam}.{coef}: missing from "
                                   "explicit family record")
        prev = families[fam]
        families[fam] = FamilyCoefficients(
            flop_coef=_number(node.get("flop_coef", prev.flop_coef),
                              f"workload.{fam}.flop_coef"),
            byte_coef=_number(node.get("byte_coef", prev.byte_coef),
                              f"workload.{fam}.byte_coef"))
    pseudo = PseudoParams(projectors_per_atom=_number(
        _mapping(doc.get("pseudo"), "workload.pseudo").get(
            "projectors_per_atom", base.pseudo.projectors_per_atom),
        "workload.pseudo.projectors_per_atom"))
    fp_doc = _mapping(doc.get("footprint"), "workload.footprint")
    fp = (FootprintParams(**_numeric_fields(FootprintParams, fp_doc,
                                            "workload.footprint"))
          if fp_doc else base.footprint)
    return replace(
        base,
        nv_per_atom=scalar("nv_per_atom"),
        nc_per_atom=scalar("nc_per_atom"),
        nr_per_atom=scalar("nr_per_atom"),
        processes_cpu=scalar("processes_cpu"),
        processes_ndp=scalar("processes_ndp"),
        orbital_groups_max=scalar("orbital_groups_max"),
        response_dim_base=scalar("response_dim_base", optional=True),
        response_dim_per_atom=scalar("response_dim_per_atom", optional=True),
        families=families, pseudo=pseudo, footprint=fp,
        targets=doc.get("targets", base.targets),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and structurally check a config file; raises ConfigurationError."""
    try:
        doc = yaml.safe_load(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}", key=str(path))
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"malformed document: {exc}", key=str(path))
    if not isinstance(doc, dict):
        raise ConfigurationError("config must be a mapping", key=str(path))
    diagnostics: list[str] = []
    machine = _machine_from_doc(_mapping(doc.get("machine"), "machine"))
    fixture = _fixture_from_doc(_mapping(doc.get("workload"), "workload"),
                                diagnostics)
    scenarios = []
    env_seed = os.environ.get(SEED_ENV)
    nodes = doc.get("scenarios") or []
    if not isinstance(nodes, list):
        raise ConfigurationError("must be a list", key="scenarios")
    for i, node in enumerate(nodes):
        if not isinstance(node, dict):
            raise ConfigurationError("must be a mapping", key=f"scenarios[{i}]")
        try:
            mode = PseudoMode(node.get("pseudo_mode", "shared_block"))
        except ValueError:
            raise ConfigurationError(
                f"unknown pseudo_mode {node.get('pseudo_mode')!r}",
                key=f"scenarios[{i}].pseudo_mode") from None
        if "seed" not in node:
            raise ConfigurationError("seed is required (no wall-clock defaults)",
                                     key=f"scenarios[{i}].seed")
        seed = (_integer(env_seed, SEED_ENV) if env_seed is not None
                else _integer(node["seed"], f"scenarios[{i}].seed"))
        scenarios.append(Scenario(
            n_atoms=_integer(node.get("n_atoms", 0), f"scenarios[{i}].n_atoms"),
            policy=str(node.get("policy", "hybrid")),
            pseudo_mode=mode, seed=seed,
            exec_pseudo=bool(node.get("exec_pseudo", False))))
    output_dir = doc.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigurationError("must be a path string", key="output_dir")
    return ExperimentConfig(machine=machine, fixture=fixture,
                            scenarios=scenarios, output_dir=Path(output_dir),
                            extra_diagnostics=diagnostics)


def config_to_doc(config: ExperimentConfig) -> dict:
    """Round-trippable plain-dict form of a config."""
    m = config.machine
    f = config.fixture
    return {
        "machine": {
            "cpu": {"cores": m.cpu.cores, "freq_hz": m.cpu.freq_hz,
                    "issue_width": m.cpu.issue_width,
                    "fma_factor": m.cpu.fma_factor,
                    "link_bandwidth": m.cpu.link_bandwidth,
                    "launch_latency_s": m.cpu.launch_latency_s},
            "ndp": {"stacks_x": m.ndp.stacks_x, "stacks_y": m.ndp.stacks_y,
                    "units_per_stack": m.ndp.units_per_stack,
                    "cores_per_unit": m.ndp.cores_per_unit,
                    "freq_hz": m.ndp.freq_hz,
                    "capacity_per_unit": m.ndp.capacity_per_unit,
                    "spm_per_core": m.ndp.spm_per_core,
                    "spm_per_stack": m.ndp.spm_per_stack,
                    "launch_latency_s": m.ndp.launch_latency_s},
            "hbm": {"channels_per_stack": m.hbm.channels_per_stack,
                    "bus_width_bits": m.hbm.bus_width_bits,
                    "rate_hz": m.hbm.rate_hz, "ddr_factor": m.hbm.ddr_factor,
                    "total_capacity": m.hbm.total_capacity},
            "interconnect": {
                "mesh_link_bandwidth": m.interconnect.mesh_link_bandwidth,
                "hop_latency_s": m.interconnect.hop_latency_s},
            "cxt_s": m.cxt_s,
        },
        "workload": {
            "nv_per_atom": f.nv_per_atom, "nc_per_atom": f.nc_per_atom,
            "nr_per_atom": f.nr_per_atom,
            "processes_cpu": f.processes_cpu, "processes_ndp": f.processes_ndp,
            "orbital_groups_max": f.orbital_groups_max,
            "response_dim_base": f.response_dim_base,
            "response_dim_per_atom": f.response_dim_per_atom,
            **{fam: {"flop_coef": co.flop_coef, "byte_coef": co.byte_coef}
               for fam, co in sorted(f.families.items())},
            "pseudo": {"flop_coef": f.families["pseudo"].flop_coef,
                       "byte_coef": f.families["pseudo"].byte_coef,
                       "projectors_per_atom": f.pseudo.projectors_per_atom},
            "footprint": {
                "base_small": f.footprint.base_small,
                "per_process_small": f.footprint.per_process_small,
                "base_large": f.footprint.base_large,
                "per_process_large": f.footprint.per_process_large,
                "shared_mode_overhead_factor":
                    f.footprint.shared_mode_overhead_factor,
                "processes_cpu": f.footprint.processes_cpu,
                "processes_ndp": f.footprint.processes_ndp,
                "small_atoms": f.footprint.small_atoms,
                "large_atoms": f.footprint.large_atoms},
            "targets": dict(f.targets),
        },
        "scenarios": [
            {"n_atoms": sc.n_atoms, "policy": sc.policy,
             "pseudo_mode": sc.pseudo_mode.value, "seed": sc.seed,
             "exec_pseudo": sc.exec_pseudo}
            for sc in config.scenarios
        ],
        "output_dir": str(config.output_dir),
    }


def write_default_config(path: str | Path) -> None:
    doc = config_to_doc(default_config())
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=False))


# -- experiment execution -----------------------------------------------------


def run_scenario(scenario: Scenario, config: ExperimentConfig) -> SimulationReport:
    """Build, plan, and simulate one scenario."""
    context = "cpu" if scenario.policy == "cpu_only" else "ndp"
    spec = derive_system(scenario.n_atoms, config.fixture, context=context)
    graph = build_taskgraph(spec, config.fixture,
                            pseudo_mode=scenario.pseudo_mode.value)
    schedule = plan(graph, config.machine, policy=scenario.policy)
    report = simulate(schedule, graph, config.machine, config.fixture,
                      pseudo_mode=scenario.pseudo_mode)
    if scenario.exec_pseudo:
        # Numeric verification on a desk-scale replica of the scenario.
        from .workload import SystemSpec
        mini = SystemSpec(n_atoms=min(scenario.n_atoms, 16),
                          n_valence=8, n_conduction=8, n_grid=2048,
                          n_processes=min(spec.n_processes, 16))
        import numpy as np
        wf_a, _, _ = run_pseudopotential(mini, PseudoMode.PER_PROCESS_COPY,
                                         scenario.seed, config.machine)
        wf_b, _, _ = run_pseudopotential(mini, PseudoMode.SHARED_BLOCK,
                                         scenario.seed, config.machine)
        if not np.allclose(wf_a, wf_b, rtol=1e-12, atol=0.0):
            raise NdftError(f"pseudopotential modes diverge in {scenario.name}")
    return report


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def _scenario_report_csv(scenario: Scenario, report: SimulationReport,
                         machine: MachineConfig) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["row", "seconds", "bytes"])
    for fam in KernelFamily:
        t = report.per_family_time.get(fam)
        if t is not None:
            writer.writerow([fam.value, repr(t), ""])
    writer.writerow(["scheduling", repr(report.overhead.total), ""])
    # busy time of the most loaded link, same convention as the family rows
    link_busy: dict[str, float] = {}
    for ev in report.timeline:
        if ev.kind in ("transfer", "comm"):
            link_busy[ev.unit] = link_busy.get(ev.unit, 0.0) + (ev.t_end - ev.t_start)
    writer.writerow(["global_comm", repr(max(link_busy.values(), default=0.0)),
                     report.transferred_bytes])
    writer.writerow(["makespan", repr(report.makespan), ""])
    footprint = report.footprints[scenario.pseudo_mode.value]
    writer.writerow(["intra_stack_bytes", "", report.comm.intra_stack_bytes])
    writer.writerow(["inter_stack_bytes", "", report.comm.inter_stack_bytes])
    writer.writerow(["inter_stack_messages", "", report.comm.inter_stack_messages])
    writer.writerow(["cache_hits", "", report.comm.requests_served_from_cache])
    writer.writerow(["footprint_bytes", "", int(footprint)])
    writer.writerow(["footprint_pct",
                     repr(100.0 * footprint / machine.hbm.total_capacity), ""])
    return out.getvalue()


def run_experiment(config: ExperimentConfig,
                   scenario_filter: str | None = None,
                   exec_pseudo: bool = False) -> dict[str, SimulationReport]:
    """Run the scenario matrix and write report_<scenario>.csv plus summary.csv."""
    bad = config.validate()
    if bad:
        raise ConfigurationError.from_diagnostic(bad[0])
    out_dir = config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    scenarios = [sc for sc in config.scenarios
                 if scenario_filter is None or scenario_filter in sc.name]
    if not scenarios:
        raise ConfigurationError("scenario filter matched nothing",
                                 key="scenarios")
    reports: dict[str, SimulationReport] = {}
    for sc in scenarios:
        if exec_pseudo:
            sc = replace(sc, exec_pseudo=True)
        report = run_scenario(sc, config)
        reports[sc.name] = report
        _atomic_write(out_dir / f"report_{sc.name}.csv",
                      _scenario_report_csv(sc, report, config.machine))

    # summary rows, cpu_only baselines first within each size
    cpu_makespans = {sc.n_atoms: reports[sc.name].makespan
                     for sc in scenarios if sc.policy == "cpu_only"}
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["n_atoms", "policy", "pseudo_mode", "makespan_s",
                     "speedup_vs_cpu_only", "overhead_frac", "footprint_bytes",
                     "inter_stack_bytes"])
    for sc in sorted(scenarios, key=lambda s: (s.n_atoms, s.policy)):
        rep = reports[sc.name]
        base = cpu_makespans.get(sc.n_atoms)
        speedup = repr(base / rep.makespan) if base else ""
        writer.writerow([
            sc.n_atoms, sc.policy, sc.pseudo_mode.value, repr(rep.makespan),
            speedup, repr(rep.overhead.total / rep.makespan) if rep.makespan else "0",
            int(rep.footprints[sc.pseudo_mode.value]),
            rep.comm.inter_stack_bytes,
        ])
    _atomic_write(out_dir / "summary.csv", out.getvalue())
    return reports


def validate_config(path: str | Path) -> list[str]:
    """Every invariant violation with its key path; empty list means valid."""
    try:
        config = load_config(path)
    except ConfigurationError as exc:
        return [str(exc)]
    return config.validate()


# -- command line -------------------------------------------------------------


@click.group()
def main() -> None:
    """Deterministic CPU-NDP co-design simulator."""


@main.command("run")
@click.argument("config_path", type=click.Path())
@click.option("--scenario", "scenario_filter", default=None,
              help="Only run scenarios whose name contains this string.")
@click.option("--exec-pseudo", is_flag=True,
              help="Also execute the numeric pseudopotential kernel "
                   "(desk-scale replica) for every scenario.")
@click.option("--out", "out_dir", default=None, type=click.Path(),
              help="Override the configured output directory.")
def cmd_run(config_path: str, scenario_filter: str | None,
            exec_pseudo: bool, out_dir: str | None) -> None:
    """Run the scenario matrix from CONFIG_PATH and emit CSV reports."""
    try:
        config = load_config(config_path)
        bad = config.validate()
        if bad:
            click.echo(f"invalid config: {bad[0]}", err=True)
            sys.exit(EXIT_BAD_CONFIG)
        if out_dir is not None:
            config.output_dir = Path(out_dir)
        reports = run_experiment(config, scenario_filter=scenario_filter,
                                 exec_pseudo=exec_pseudo)
    except ConfigurationError as exc:
        click.echo(f"invalid config: {exc}", err=True)
        sys.exit(EXIT_BAD_CONFIG)
    except CapacityError as exc:
        click.echo(f"capacity error: {exc}", err=True)
        sys.exit(EXIT_CAPACITY)
    click.echo(f"wrote {len(reports)} scenario reports and summary.csv "
               f"to {config.output_dir}")


@main.command("validate")
@click.argument("config_path", type=click.Path())
def cmd_validate(config_path: str) -> None:
    """List every config violation with its key path."""
    diagnostics = validate_config(config_path)
    for line in diagnostics:
        click.echo(line)
    if diagnostics:
        sys.exit(EXIT_BAD_CONFIG)
    click.echo("ok")


@main.command("init")
@click.argument("config_path", type=click.Path())
def cmd_init(config_path: str) -> None:
    """Write the shipped default experiment config to CONFIG_PATH."""
    write_default_config(config_path)
    click.echo(f"wrote {config_path}")


if __name__ == "__main__":
    main()
