"""Experiment front door: config parsing, scenario matrices, CSV reports.

The CLI is a thin shell over the library; every number in the emitted files
comes from the same calls a library user would make.
"""

from __future__ import annotations

import csv
import io
import sys
from dataclasses import KW_ONLY, MISSING, dataclass, field, is_dataclass
from enum import Enum
from pathlib import Path
from types import NoneType, UnionType
from typing import Annotated, Union, get_args, get_origin

import click
import yaml

from .costmodel import PseudoMode, footprint_percentage
from .errors import (CapacityError, ConfigurationError, NdftError, NonNegInt,
                     PosInt, config_errors, doc_fields)
from .machine import MachineConfig
from .scheduler import POLICIES, PlanContext, plan
from .simulator import SimulationReport, simulate
from .workload import (CalibrationFixture, KernelFamily, SystemSpec,
                       build_taskgraph, derive_system)

EXIT_BAD_CONFIG = 2
EXIT_CAPACITY = 3

SHIPPED_SIZES = (16, 32, 64, 128, 256, 1024, 2048)


@dataclass(frozen=True)
class Scenario:
    n_atoms: PosInt
    policy: str = "hybrid"
    pseudo_mode: PseudoMode = PseudoMode.SHARED_BLOCK
    _: KW_ONLY
    seed: NonNegInt  # required: no wall-clock defaults

    @property
    def name(self) -> str:
        return f"si{self.n_atoms}_{self.policy}"

    def relation_errors(self, key: str) -> list[str]:
        return ([] if self.policy in POLICIES
                else [f"{key}.policy: unknown policy {self.policy!r}"])


@dataclass
class ExperimentConfig:
    machine: MachineConfig = field(default_factory=MachineConfig)
    fixture: CalibrationFixture = field(
        default_factory=CalibrationFixture.calibrated,
        metadata={"doc_key": "workload"})
    scenarios: list[Scenario] = field(default_factory=list)
    output_dir: Path = Path("out")

    def validate(self) -> list[str]:
        return config_errors(self, "")

    def relation_errors(self, key: str) -> list[str]:
        if not self.scenarios:
            return ["scenarios: at least one scenario is required"]
        # a scenario's name keys its report file and its summary row
        names = [sc.name for sc in self.scenarios]
        return [f"scenarios[{i}]: duplicate scenario name {name}"
                for i, name in enumerate(names) if name in names[:i]]


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
    return ExperimentConfig(scenarios=scenarios, output_dir=Path(output_dir))


# -- config document mapping --------------------------------------------------
#
# The document is derived from the dataclasses: each field is one key, as
# errors.doc_fields names it, checked against the field's type hint.
# A key left out, or a nested node given as null, keeps the value of the base
# the node is read onto: ExperimentConfig() at the top, the class defaults
# inside a list.  A null leaf is an error unless its hint is ``T | None``.

# leaf type -> (the Python types it accepts, what the error says it must be);
# no leaf is a bool, so a bool is refused though it is an int subclass
_LEAVES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
           str: ((str,), "a string"), Path: ((str,), "a path string")}


def _path(key: str, name) -> str:
    return f"{key}.{name}" if key else str(name)


def _from_doc(hint, node, key: str, base=None):
    """The value of type ``hint`` that the document node describes.

    ``base`` supplies what a dataclass node leaves out; with no base, a
    field without a default is required.  Errors name the key path.
    """
    if get_origin(hint) is Annotated:  # the domain is config_errors' to check
        hint = get_args(hint)[0]
    origin, args = get_origin(hint), get_args(hint)
    if origin in (UnionType, Union):  # T | None, a Union if T was Annotated
        inner, = (a for a in args if a is not NoneType)
        return None if node is None else _from_doc(inner, node, key)
    if hint in _LEAVES:
        types, kind = _LEAVES[hint]
        if not isinstance(node, types) or isinstance(node, bool):
            raise ConfigurationError(f"must be {kind}, got {node!r}", key=key)
        return Path(node) if hint is Path else node
    if isinstance(hint, type) and issubclass(hint, Enum):
        try:
            return hint(node)
        except ValueError:
            raise ConfigurationError(
                f"must be one of {[m.value for m in hint]}, got {node!r}",
                key=key) from None
    if node is None and base is not None:
        return base
    if is_dataclass(hint):
        if not isinstance(node, dict):
            raise ConfigurationError("must be a mapping", key=key)
        return _dataclass_from_doc(hint, node, key, base)
    if not isinstance(node, list):
        raise ConfigurationError("must be a list", key=key)
    return [_from_doc(args[0], item, f"{key}[{i}]")
            for i, item in enumerate(node)]


def _dataclass_from_doc(cls, node: dict, key: str, base):
    known = doc_fields(cls)
    for name in node:
        if name not in known:
            raise ConfigurationError("unknown field", key=_path(key, name))
    values = {}
    for name, (f, hint, _) in known.items():
        inherited = None if base is None else getattr(base, f.name)
        if name in node:
            values[f.name] = _from_doc(hint, node[name], _path(key, name),
                                       inherited)
        elif base is not None:
            values[f.name] = inherited
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigurationError("required field is missing",
                                     key=_path(key, name))
    return cls(**values)


def config_from_doc(doc: dict) -> ExperimentConfig:
    """The config a parsed document describes; raises ConfigurationError."""
    return _from_doc(ExperimentConfig, doc, "", ExperimentConfig())


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
    return config_from_doc(doc)


def config_to_doc(value):
    """Round-trippable plain-data form of a config (or of any part of it)."""
    if is_dataclass(value):
        return {name: config_to_doc(getattr(value, f.name))
                for name, (f, _, _) in doc_fields(type(value)).items()}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, list):
        return [config_to_doc(v) for v in value]
    return value


def write_default_config(path: str | Path) -> None:
    doc = config_to_doc(default_config())
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=False))


# -- experiment execution -----------------------------------------------------


# The plan context of the last graph run_scenario built, keyed by what both
# were built from: the system, the pseudopotential mode, the fixture and the
# machine.  ndp_only and hybrid at one size share a key, so the shipped
# matrix builds 14 graphs, not 21, and the pair shares the planner's tables,
# its group evaluations and the simulated prefix where its placements agree.
# run_experiment empties it when it ends.
_last_graph: tuple | None = None


def run_scenario(scenario: Scenario, config: ExperimentConfig) -> SimulationReport:
    """Build, plan, and simulate one scenario.

    The graph and its plan context are reused when the previous call built
    them from an equal system, mode, fixture and machine; plan() and
    simulate() leave a graph unchanged.  simulate() runs on the context
    too, so it resumes from the previous call's run where the placements
    agree.
    """
    global _last_graph
    context = "cpu" if scenario.policy == "cpu_only" else "ndp"
    spec = derive_system(scenario.n_atoms, config.fixture, context=context)
    key = (spec, scenario.pseudo_mode, config.fixture, config.machine)
    if _last_graph is None or _last_graph[0] != key:
        _last_graph = None  # freed before the next graph is built
        graph = build_taskgraph(spec, config.fixture,
                                pseudo_mode=scenario.pseudo_mode)
        _last_graph = (key, PlanContext(graph, config.machine))
    plan_context = _last_graph[1]
    graph = plan_context.graph
    schedule = plan(graph, config.machine, policy=scenario.policy,
                    context=plan_context)
    return simulate(schedule, graph, config.machine, config.fixture,
                    context=plan_context)


def _check_pseudo_modes(scenario: Scenario, config: ExperimentConfig) -> None:
    """Execute the numeric pseudopotential kernel in both modes on a
    desk-scale replica of the scenario; NdftError if the outputs diverge."""
    import numpy as np
    from . import runtime
    context = "cpu" if scenario.policy == "cpu_only" else "ndp"
    spec = derive_system(scenario.n_atoms, config.fixture, context=context)
    mini = SystemSpec(n_atoms=min(scenario.n_atoms, 16),
                      n_valence=8, n_conduction=8, n_grid=2048,
                      n_processes=min(spec.n_processes, 16))
    wf_a, _, _ = runtime.run_pseudopotential(
        mini, PseudoMode.PER_PROCESS_COPY, scenario.seed, config.machine)
    wf_b, _, _ = runtime.run_pseudopotential(
        mini, PseudoMode.SHARED_BLOCK, scenario.seed, config.machine)
    if not np.allclose(wf_a, wf_b, rtol=1e-12, atol=0.0):
        raise NdftError(f"pseudopotential modes diverge in {scenario.name}")


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_text(text)
        tmp.replace(path)
    except OSError as exc:
        if tmp.is_file():
            tmp.unlink()
        raise ConfigurationError(f"cannot write {path}: {exc.strerror}",
                                 key="output_dir") from None


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
                     repr(footprint_percentage(footprint, machine)), ""])
    return out.getvalue()


def run_experiment(config: ExperimentConfig,
                   scenario_filter: str | None = None,
                   exec_pseudo: bool = False) -> dict[str, SimulationReport]:
    """Run the scenario matrix and write report_<scenario>.csv plus summary.csv;
    run_scenario's graph slot is empty when this returns or raises."""
    global _last_graph
    bad = config.validate()
    if bad:
        raise ConfigurationError.from_diagnostic(bad[0])
    out_dir = config.output_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create {out_dir}: {exc.strerror}",
                                 key="output_dir") from None
    scenarios = [sc for sc in config.scenarios
                 if scenario_filter is None or scenario_filter in sc.name]
    if not scenarios:
        raise ConfigurationError("scenario filter matched nothing",
                                 key="scenarios")
    reports: dict[str, SimulationReport] = {}
    try:
        for sc in scenarios:
            report = run_scenario(sc, config)
            if exec_pseudo:
                _check_pseudo_modes(sc, config)
            reports[sc.name] = report
            _atomic_write(out_dir / f"report_{sc.name}.csv",
                          _scenario_report_csv(sc, report, config.machine))
    finally:
        _last_graph = None

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
    try:
        write_default_config(config_path)
    except OSError as exc:
        click.echo(f"cannot write {config_path}: {exc.strerror}", err=True)
        sys.exit(EXIT_BAD_CONFIG)
    click.echo(f"wrote {config_path}")


if __name__ == "__main__":
    main()
