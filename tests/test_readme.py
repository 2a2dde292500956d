import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    table = capsys.readouterr().out.splitlines()
    assert table[1].startswith("label,makespan_s,speedup_vs_cpu,")
    # the 64-atom hybrid run is the shipped ~1.9x point
    assert 1.8 < float(table[3].split(",")[2]) < 2.0
