"""Smoke test of the benchmark itself, each workload at minimal length.

    python3 -m pytest perfbench/test_smoke.py -q     # about three minutes

Checks that every metric is printed with its unit, that no operation
fails, and that the output digests repeat across runs and trace modes.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LINE = re.compile(r"^  (\S+) = (\S+) (\S+)$")

END_TO_END = ["wall_s", "wall_ref", "ref_s", "op_p50_s", "op_p90_s",
              "peak_rss_mib", "setup_s", "setup_host_s", "error_rate"]
EXTRA = {"matrix": ["tasks_per_s", "speedup_err_pct"],
         "fetch_heavy": ["tasks_per_s"],
         "pseudo_exec": ["block_applies_per_s"]}
LAYER = {
    "matrix": ["cli.report_write_s", "scheduler.plan_s.cpu_only",
               "scheduler.plan_s.hybrid", "workload.topo_order_calls",
               "trace.wall_ref", "trace.untraced_wall_ref"],
    "fetch_heavy": ["runtime.trace_s", "runtime.fetches",
                    "simulator.us_per_event"],
    "pseudo_exec": ["runtime.exec_s.shared_block",
                    "runtime.exec_s.per_process_copy",
                    "runtime.shared_over_copy", "runtime.spm_spills"],
}


def bench(workload: str, trace: int) -> tuple[dict, dict, dict]:
    """(printed metrics, final JSON line, other printed key: value lines)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    printed, info = {}, {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            printed[m[1]] = (float(m[2]), m[3])
        elif ": " in line and not line.startswith(" "):
            key, value = line.split(": ", 1)
            info[key] = value
    return printed, json.loads(lines[-1]), info


@pytest.mark.parametrize("workload", ["matrix", "fetch_heavy", "pseudo_exec"])
def test_workload(workload):
    digests = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        printed, final, info = bench(workload, trace)
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["correct"] is True
        assert final["failed"] == 0 and final["attempted"] >= 2
        assert {m["name"]: m["unit"] for m in SPEC[section]} == \
            {k: v["unit"] for k, v in final["metrics"].items()}
        assert printed["error_rate"] == (0.0, "fraction")
        names = END_TO_END + EXTRA[workload] if trace == 0 else LAYER[workload]
        for name in names:
            assert name in printed, name
        if trace == 0:
            assert all(printed[n][0] > 0 for n in END_TO_END if n != "error_rate")
        else:
            assert all(printed[n][0] > 0 for n in LAYER[workload])
            assert Path(info["trace_file"]).is_file()
        digests.append(info["output_sha256"])
    assert len(set(digests)) == 1 and re.fullmatch(r"[0-9a-f]{64}", digests[0])
    if workload == "matrix":
        assert digests[0] == shipped_summary_sha256()


def shipped_summary_sha256() -> str:
    """SHA-256 of summary.csv written by `ndft-sim run` on the shipped YAML."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        cfg = Path(tmp) / "experiment.yaml"
        for argv in (["init", str(cfg)], ["run", str(cfg), "--out", tmp]):
            subprocess.run([sys.executable, "-m", "ndftsim.cli", *argv],
                           cwd=ROOT, env=env, check=True, capture_output=True,
                           timeout=300)
        return hashlib.sha256((Path(tmp) / "summary.csv").read_bytes()).hexdigest()
