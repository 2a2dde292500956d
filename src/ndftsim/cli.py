"""Experiment front door: config parsing, scenario matrices, CSV reports.

The CLI is a thin shell over the library; every number in the emitted files
comes from the same calls a library user would make.
"""

from __future__ import annotations

import csv
import io
import os
import sys
from dataclasses import (KW_ONLY, MISSING, dataclass, field, fields,
                         is_dataclass, replace)
from enum import Enum
from functools import cache
from pathlib import Path
from types import NoneType, UnionType
from typing import Union, get_args, get_origin, get_type_hints

import click
import yaml

from .errors import (CapacityError, ConfigurationError, NdftError, NonNegInt,
                     PosInt, config_errors)
from .machine import MachineConfig
from .runtime import PseudoMode, footprint_percentage, run_pseudopotential
from .scheduler import POLICIES, plan
from .simulator import SimulationReport, simulate
from .workload import (FAMILY_KEYS, CalibrationFixture, FamilyCoefficients,
                       KernelFamily, PseudoParams, build_taskgraph,
                       derive_system)

SEED_ENV = "NDFT_SIM_SEED"
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
    exec_pseudo: bool = False

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
        return [] if self.scenarios else [
            "scenarios: at least one scenario is required"]


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
# The document is derived from the dataclasses: each field is one key (its
# name, or its "doc_key" metadata), checked against the field's type hint.
# A key left out, or a nested node given as null, keeps the value of the base
# the node is read onto: ExperimentConfig() at the top, the class defaults
# inside a list.  A null leaf is an error unless its hint is ``T | None``.
# The one shape of the document's own is the family table.

# leaf type -> (the Python types it accepts, what the error says it must be);
# bool is an int subclass, so only a bool leaf accepts a bool
_LEAVES = {bool: ((bool,), "a boolean"), int: ((int,), "an integer"),
           float: ((int, float), "a number"), str: ((str,), "a string"),
           Path: ((str,), "a path string")}


@cache
def _doc_fields(cls) -> dict:
    """Document key -> (field, type hint) for each field of a dataclass."""
    hints = get_type_hints(cls)
    return {f.metadata.get("doc_key", f.name): (f, hints[f.name])
            for f in fields(cls)}


def _path(key: str, name) -> str:
    return f"{key}.{name}" if key else str(name)


def _mapping(node, key: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigurationError("must be a mapping", key=key)
    return node


def _from_doc(hint, node, key: str, base=None):
    """The value of type ``hint`` that the document node describes.

    ``base`` supplies what a dataclass node leaves out; with no base, a
    field without a default is required.  Errors name the key path.
    """
    origin, args = get_origin(hint), get_args(hint)
    if origin in (UnionType, Union):  # T | None, a Union if T was Annotated
        inner, = (a for a in args if a is not NoneType)
        return None if node is None else _from_doc(inner, node, key)
    if hint in _LEAVES:
        types, kind = _LEAVES[hint]
        if not isinstance(node, types) or (isinstance(node, bool)
                                           and hint is not bool):
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
    if hint is CalibrationFixture:
        return _fixture_from_doc(node, key, base)
    if is_dataclass(hint):
        return _dataclass_from_doc(hint, _mapping(node, key), key, base)
    if origin is dict:
        return {_from_doc(str, k, _path(key, k)):
                _from_doc(args[1], v, _path(key, k))
                for k, v in _mapping(node, key).items()}
    if not isinstance(node, list):
        raise ConfigurationError("must be a list", key=key)
    return [_from_doc(args[0], item, f"{key}[{i}]")
            for i, item in enumerate(node)]


def _dataclass_from_doc(cls, node: dict, key: str, base):
    known = _doc_fields(cls)
    for name in node:
        if name not in known:
            raise ConfigurationError("unknown field", key=_path(key, name))
    values = {}
    for name, (f, hint) in known.items():
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


def _fixture_from_doc(node, key: str,
                      base: CalibrationFixture) -> CalibrationFixture:
    """The workload node: ``workload.<family>`` is ``families[<family>]``,
    and ``workload.pseudo`` also carries the PseudoParams fields."""
    node = dict(_mapping(node, key))
    records = {fam: node.pop(fam) for fam in FAMILY_KEYS if fam in node}
    if "families" in node:
        raise ConfigurationError("unknown field", key=_path(key, "families"))
    fixture = _dataclass_from_doc(CalibrationFixture, node, key, base)
    families, pseudo = dict(fixture.families), fixture.pseudo
    for fam, record in records.items():
        if record is None:
            continue
        record = dict(_mapping(record, _path(key, fam)))
        if fam == "pseudo":
            params = {k: record.pop(k) for k in _doc_fields(PseudoParams)
                      if k in record}
            pseudo = _from_doc(PseudoParams, params, _path(key, fam), pseudo)
        # an explicit record must be complete; pseudo's may give only its
        # PseudoParams and keep the coefficients
        coefs = families.get(fam) if fam == "pseudo" else None
        families[fam] = _from_doc(FamilyCoefficients, record, _path(key, fam),
                                  coefs)
    return replace(fixture, families=families, pseudo=pseudo)


def config_from_doc(doc: dict) -> ExperimentConfig:
    """The config a parsed document describes; raises ConfigurationError."""
    config = _from_doc(ExperimentConfig, doc, "", ExperimentConfig())
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigurationError(f"must be an integer, got {env_seed!r}",
                                     key=SEED_ENV) from None
        config.scenarios = [replace(sc, seed=seed) for sc in config.scenarios]
    return config


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
        doc = {name: config_to_doc(getattr(value, f.name))
               for name, (f, _) in _doc_fields(type(value)).items()}
        if not isinstance(value, CalibrationFixture):
            return doc
        # the family table is spelled out per family, pseudo params merged in
        out: dict = {}
        for name, node in doc.items():
            if name == "families":
                out.update(sorted(node.items()))
            elif name == "pseudo":
                out.setdefault(name, {}).update(node)
            else:
                out[name] = node
        return out
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, dict):
        return {k: config_to_doc(v) for k, v in value.items()}
    if isinstance(value, list):
        return [config_to_doc(v) for v in value]
    return value


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
                     repr(footprint_percentage(footprint, machine)), ""])
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
