"""Host-time benchmark of ndftsim: one workload, one run.

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The script writes the shipped YAML,
times the set-up in several fresh processes (in reference units, see
``reference.py``), then runs the workload in a
fresh worker process (``bench.py``) with the BLAS thread pools pinned to
one thread.  It prints a human-readable report and, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, the
``per_layer`` ones with ``--trace 1``.  Scratch files, the Chrome trace
and a full result file go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("matrix", "fetch_heavy", "pseudo_exec")
SETUP_PROBES = 9
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def fail(msg: str, code: int = 1) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(argv: list[str], deadline: float) -> str:
    """Run a child to completion (killed at the deadline); return its stdout."""
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{Path(argv[0]).name} did not finish in time")
    if proc.returncode != 0:
        fail(f"{Path(argv[0]).name} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return " ".join(f"{x:.2f}" for x in os.getloadavg())


def git_commit() -> str:
    """HEAD of the checkout itself; "unknown" when it is not a git tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main() -> int:
    ap = argparse.ArgumentParser(description="ndftsim host-time benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "ndftsim" / "__init__.py").is_file():
        fail(f"no ndftsim sources under {ROOT / 'src'}", 2)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}", 2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    WORK.mkdir(exist_ok=True)
    env_stamp = {"python": platform.python_version(), "nproc": os.cpu_count(),
                 "affinity": len(os.sched_getaffinity(0)),
                 "loadavg_start": loadavg(), "commit": git_commit(),
                 "blas_threads": 1}

    # The first probe writes the shipped YAML and compiles the byte code;
    # only the later ones are timed.
    config = WORK / "experiment.yaml"
    probe = str(HERE / "setup_probe.py")
    run_child([probe, "--init", str(config)], deadline)
    setup: list[float] = []      # host seconds
    setup_ref: list[float] = []  # reference units

    def probe_setup(n: int) -> None:
        for _ in range(0 if args.trace else n):
            out = json.loads(run_child([probe, str(config)], deadline)
                             .splitlines()[-1])
            setup.append(out["setup_s"])
            setup_ref.append(out["setup_ref"])

    # Half the set-up probes run before the workload and half after, so their
    # median spans the run rather than one moment of a drifting host.
    probe_setup(SETUP_PROBES // 2)
    out = run_child([str(HERE / "bench.py"), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--config", str(config),
                     "--work", str(WORK)], deadline)
    probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    result = json.loads(out.splitlines()[-1])
    metrics = result["metrics"]
    if setup:
        # Seconds on a host whose reference sample takes NOMINAL_S: the
        # host's drift cancels, as it does for wall_ref.
        metrics["setup_s"] = {"value": statistics.median(setup_ref) * NOMINAL_S,
                              "unit": "s"}
        metrics["setup_host_s"] = {"value": statistics.median(setup), "unit": "s"}
    env_stamp["loadavg_end"] = loadavg()
    env_stamp["numpy"] = result["info"].pop("numpy")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env: " + json.dumps(env_stamp))
    layers = result["info"].pop("layers", None)
    for key, value in result["info"].items():
        print(f"{key}: {value if isinstance(value, str) else json.dumps(value)}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    if setup:
        print(f"setup probes: {SETUP_PROBES}, host seconds "
              f"min {min(setup):.4f} s, max {max(setup):.4f} s; reference units "
              f"min {min(setup_ref):.3f}, max {max(setup_ref):.3f}")
    print("metrics:")
    for name, m in sorted(metrics.items()):
        print(f"  {name} = {fmt(m['value'])} {m['unit']}")
    if layers:
        print_layer_table(layers, metrics, result["info"]["traced_passes"],
                          result["info"]["passes"])

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"worker did not produce {missing}")
    final = {"correct": result["correct"], "attempted": result["attempted"],
             "failed": result["failed"],
             "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                     "unit": m["unit"]} for m in wanted}}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"env": env_stamp, **result}, indent=1))
    print(json.dumps(final))
    return 0


def print_layer_table(layers: dict, metrics: dict, traced: int,
                      untraced: int) -> None:
    """Self time and spans per traced pass for each layer, with its share."""
    wall = sum(t for t, _ in layers.values())  # the mean traced pass
    print("layer self time per traced pass:")
    print(f"  {'layer':<14}{'self_s':>10}{'share':>8}{'spans':>8}")
    for layer, (t, spans) in layers.items():
        print(f"  {layer:<14}{t:>10.4f}{100 * t / wall:>7.1f}%{spans:>8.0f}")
    print(f"  {'total':<14}{wall:>10.4f}   median traced pass "
          f"{metrics['trace.wall_s']['value']:.4f} s, untraced "
          f"{metrics['trace.untraced_wall_s']['value']:.4f} s")
    print(f"  tracing overhead {metrics['trace.overhead_pct']['value']:.2f} % "
          f"(median of {traced} traced passes {metrics['trace.wall_ref']['value']:.2f}"
          f" ref against median of {untraced} untraced "
          f"{metrics['trace.untraced_wall_ref']['value']:.2f} ref)")
    print("  analyzer is counted, not timed: its "
          f"{metrics['analyzer.estimate_calls']['value']:.0f} estimate_time "
          "calls sit in scheduler and simulator self time")


if __name__ == "__main__":
    sys.exit(main())
