"""The config document is derived from the dataclasses: every leaf is checked
against its field's type hint, and every field survives a load/dump cycle.
The expected types come from the dataclasses, not from a hand list."""

import copy
import dataclasses
import os
import subprocess
import sys
from typing import get_args, get_type_hints

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from ndftsim.cli import (EXIT_BAD_CONFIG, ExperimentConfig, config_from_doc,
                         config_to_doc, default_config, main, run_experiment)
from ndftsim.errors import CapacityError, ConfigurationError
from ndftsim.workload import KernelFamily


def doc_hints(cls) -> dict:
    hints = get_type_hints(cls)
    return {f.metadata.get("doc_key", f.name): hints[f.name]
            for f in dataclasses.fields(cls)}


def leaves(node, hint=ExperimentConfig, path=()):
    """(path, value, field hint) of every leaf of a document node."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, doc_hints(hint)[key], path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, get_args(hint)[0], path + (i,))
    else:
        yield path, node, hint


def key_path(path) -> str:
    text = "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in path)
    return text[1:] if text.startswith(".") else text  # a key may start with "."


def set_at(doc, path, value):
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value


def object_leaves(value, path=()):
    """(path, value) of every leaf of a config object, walked by its fields."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from object_leaves(getattr(value, f.name), path + (f.name,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from object_leaves(item, path + (i,))
    else:
        yield path, value


def one_scenario_doc(output_dir="out") -> dict:
    doc = config_to_doc(default_config(output_dir))
    doc["scenarios"] = doc["scenarios"][:1]
    return doc


@pytest.fixture()
def small_doc(tmp_path):
    return one_scenario_doc(tmp_path / "out")


INT_LEAVES = [(path, value) for path, value, hint in leaves(one_scenario_doc())
              if hint in (int, int | None) and value is not None]


def test_the_default_document_has_integer_leaves_everywhere():
    sections = {key_path(path[:2]) for path, _ in INT_LEAVES}
    assert {"machine.cpu", "machine.ndp", "machine.hbm", "workload.nv_per_atom",
            "workload.pseudo", "workload.footprint",
            "scenarios[0]"} <= sections


@pytest.mark.parametrize("path, value", INT_LEAVES,
                         ids=[key_path(p) for p, _ in INT_LEAVES])
def test_integer_field_takes_integers_only(tmp_path, small_doc, path, value):
    runner = CliRunner()
    for bad in (float(value), True, str(value)):
        doc = copy.deepcopy(small_doc)
        set_at(doc, path, bad)
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        result = runner.invoke(main, ["validate", str(cfg)])
        assert result.exit_code == EXIT_BAD_CONFIG, (bad, result.output)
        assert result.output.startswith(f"{key_path(path)}: must be an integer")


def test_cli_run_with_float_unit_count_exits_2(tmp_path, small_doc):
    # used to pass validate and then crash run with a TypeError traceback
    small_doc["machine"]["ndp"]["units_per_stack"] = 8.0
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(small_doc))
    proc = subprocess.run([sys.executable, "-m", "ndftsim.cli", "run", str(cfg)],
                          capture_output=True, text=True, env=dict(os.environ))
    assert proc.returncode == EXIT_BAD_CONFIG, proc.stderr
    assert "machine.ndp.units_per_stack" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_optional_field_with_a_domain_takes_null(small_doc):
    # Annotated[int, ...] | None resolves to typing.Union, not types.UnionType
    small_doc["workload"]["response_dim_base"] = None
    assert config_from_doc(small_doc).fixture.response_dim_base is None


def test_validate_lists_every_violation_in_field_order(small_doc):
    small_doc["scenarios"][0]["n_atoms"] = 0
    small_doc["workload"]["footprint"]["base_small"] = -1.0
    small_doc["workload"]["footprint"]["large_atoms"] = 8
    small_doc["machine"]["hbm"]["bus_width_bits"] = 4
    assert config_from_doc(small_doc).validate() == [
        "machine.hbm.bus_width_bits: must be >= 8",
        "workload.footprint.base_small: must be > 0",
        "workload.footprint.large_atoms: must be > workload.footprint.small_atoms",
        "scenarios[0].n_atoms: must be >= 1"]


def float_fields(cls, path=()):
    """Key paths of every float field of a config dataclass, nested ones
    included."""
    for key, hint in doc_hints(cls).items():
        if hint is float:
            yield path + (key,)
        elif dataclasses.is_dataclass(hint):
            yield from float_fields(hint, path + (key,))


FLOAT_FIELDS = list(float_fields(ExperimentConfig))


def test_every_float_field_is_found():
    # 9 under machine, 12 in the six family records, 5 under footprint
    assert len(FLOAT_FIELDS) == 26


@pytest.mark.parametrize("path", FLOAT_FIELDS,
                         ids=[key_path(p) for p in FLOAT_FIELDS])
def test_infinite_value_is_named(small_doc, path):
    """Each float domain is a lower bound, which inf clears as a comparison;
    validate still names the key, as for any value outside the domain."""
    set_at(small_doc, path, float("inf"))
    bad = config_from_doc(small_doc).validate()
    assert any(line.startswith(f"{key_path(path)}: must be ") for line in bad), bad


def si16_hybrid_doc(output_dir) -> dict:
    doc = config_to_doc(default_config(output_dir))
    doc["scenarios"] = [sc for sc in doc["scenarios"]
                        if (sc["n_atoms"], sc["policy"]) == (16, "hybrid")]
    return doc


NUMERIC_LEAVES = [path for path, value, _ in leaves(si16_hybrid_doc("out"))
                  if isinstance(value, (int, float))]


def test_the_walker_finds_every_numeric_leaf():
    # 21 under machine, 2 under scenarios and 30 under workload, 13 of
    # them in the six family records
    assert len(NUMERIC_LEAVES) == 53
    families = {key_path(p[:2]) for p in NUMERIC_LEAVES
                if p[0] == "workload" and p[-1] == "byte_coef"}
    assert families == {f"workload.{fam.value}" for fam in KernelFamily
                        if fam is not KernelFamily.OTHER}


@pytest.mark.parametrize("path", NUMERIC_LEAVES,
                         ids=[key_path(p) for p in NUMERIC_LEAVES])
def test_out_of_domain_value_is_named_or_runs(tmp_path, path):
    """validate names the key, or the run finishes or reports that it does
    not fit: never an ok followed by some other error."""
    for value in (0, -1, -10 ** 6):
        doc = si16_hybrid_doc(tmp_path / "out")
        set_at(doc, path, value)
        config = config_from_doc(doc)
        bad = config.validate()
        if bad:
            assert key_path(path) in {line.partition(": ")[0] for line in bad}, (
                value, bad)
            continue
        try:
            run_experiment(config)
        except CapacityError:
            pass


def test_every_field_round_trips_with_non_default_values(tmp_path):
    """A field dropped by both the loader and the dumper stays at its default,
    which this catches; a doc-to-doc comparison alone cannot."""
    default = default_config(tmp_path)
    doc = config_to_doc(default)
    for path, value, _ in leaves(doc):
        if isinstance(value, int):
            set_at(doc, path, value + 1)
        elif isinstance(value, float):
            set_at(doc, path, value * 1.5 + 1.0)
    loaded = config_from_doc(copy.deepcopy(doc))
    assert config_to_doc(loaded) == doc
    old = dict(object_leaves(default))
    new = dict(object_leaves(loaded))
    assert old.keys() == new.keys()
    changed = [p for p, v in old.items() if isinstance(v, (int, float))]
    assert changed
    for p in changed:
        assert new[p] != old[p], p


# -- fuzzing the default document -----------------------------------------------

# three scenarios, so the list is not most of the paths drawn
FUZZ_DOC = config_to_doc(default_config())
FUZZ_DOC["scenarios"] = FUZZ_DOC["scenarios"][:3]


def children(node):
    if isinstance(node, dict):
        return node.items()
    return enumerate(node) if isinstance(node, list) else ()


def entries(node, path=()):
    """Path of every mapping entry and list item below node."""
    for key, value in children(node):
        yield path + (key,)
        yield from entries(value, path + (key,))


def mappings(node, path=()):
    """Path of every mapping in node, the root included."""
    if isinstance(node, dict):
        yield path
    for key, value in children(node):
        yield from mappings(value, path + (key,))


ENTRIES = list(entries(FUZZ_DOC))
MAPPINGS = list(mappings(FUZZ_DOC))
values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def mutate(doc, op, path, value, name):
    """Apply op at path; return the paths an error may name."""
    if op == "insert":  # path is a mapping here
        set_at(doc, path + (name,), value)
        return [path + (name,)]
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if op == "retype":
        parent[path[-1]] = value
        return [path]
    if isinstance(parent, list):
        del parent[path[-1]]
        return [path[:-1]]
    moved = parent.pop(path[-1])
    if op == "delete":
        return [path]
    parent[name] = moved
    return [path, path[:-1] + (name,)]


@st.composite
def mutations(draw):
    op = draw(st.sampled_from(["delete", "retype", "rename", "insert"]))
    path = draw(st.sampled_from(MAPPINGS if op == "insert" else ENTRIES))
    return op, path, draw(values), draw(st.text(min_size=1, max_size=8))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutations())
# one container of each kind retyped, whatever the draws reach
@example(("retype", ("scenarios",), {"a": 1}, "x"))
@example(("retype", ("scenarios", 0), [1], "x"))
@example(("retype", ("machine",), [1], "x"))
@example(("retype", ("workload",), "x", "x"))
@example(("retype", ("workload", "fft"), 3, "x"))
@example(("retype", ("workload", "pseudo"), [], "x"))
@example(("retype", ("scenarios", 0, "pseudo_mode"), [1], "x"))
def test_mutated_document_loads_or_names_the_key(mutation):
    doc = copy.deepcopy(FUZZ_DOC)
    touched = mutate(doc, *mutation)
    try:
        config_from_doc(doc)
    except ConfigurationError as exc:
        assert exc.key and str(exc).startswith(f"{exc.key}: ")
        prefixes = [key_path(p) for p in touched]
        assert any(exc.key == p or exc.key.startswith((p + ".", p + "["))
                   for p in prefixes), (exc.key, prefixes)
