import re
from pathlib import Path
from typing import get_args, get_origin

from ndftsim.cli import ExperimentConfig, config_to_doc, default_config
from ndftsim.workload import KernelFamily
from test_config_doc import doc_hints

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    table = capsys.readouterr().out.splitlines()
    assert table[1].startswith("label,makespan_s,speedup_vs_cpu,")
    # the 64-atom hybrid run is the shipped ~1.9x point
    assert 1.8 < float(table[3].split(",")[2]) < 2.0


def test_config_table_lists_each_section_field():
    """Each `<section>.*` row and the `scenarios[]` row of the config table
    name exactly the fields of that section's dataclass, each in backticks;
    values a field takes are written without them."""
    rows = re.findall(r"^\| `([\w.]+)(?:\.\*|\[\])` \| (.*) \|$",
                      README.read_text(), re.M)
    assert {key for key, _ in rows} == {
        "machine.cpu", "machine.ndp", "machine.hbm", "machine.interconnect",
        "workload.footprint", "scenarios"}
    for key, meaning in rows:
        cls = ExperimentConfig
        for name in key.split("."):
            cls = doc_hints(cls)[name]
        if get_origin(cls) is list:
            cls, = get_args(cls)
        assert set(re.findall(r"`(\w+)`", meaning)) == set(doc_hints(cls)), key


def test_config_table_names_only_keys_of_the_document():
    """The first key of each `machine.` and `workload.` row other than the
    `.*` rows is a key of the shipped document; `<family>` stands for each
    costed family."""
    doc = config_to_doc(default_config())
    keys = re.findall(r"^\| `((?:machine|workload)\.[\w.<>]+)`",
                      README.read_text(), re.M)
    assert "machine.cxt_s" in keys and "workload.<family>.flop_coef" in keys
    families = [fam.value for fam in KernelFamily if fam is not KernelFamily.OTHER]
    for key in keys:
        for path in {key.replace("<family>", fam) for fam in families}:
            node = doc
            for name in path.split("."):
                assert isinstance(node, dict) and name in node, (key, path)
                node = node[name]
