"""The wregret benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload axiom_matrix --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke          # every workload, tiny sizes

Run it from anywhere; it works on the checkout it lives in, whose `src/`
must hold the program.  Each workload runs in its own worker process
(`bench.py`), so peak RSS is kept apart per workload.  Set-up (interpreter
start, imports, input generation, one warm-up op) is done in SETUP_REPEATS
fresh workers that stop after it, and `setup_s` is the median of their CPU
times; another worker then sets up and runs the ops.
Op latencies are CPU times too (user+sys of each CLI child, or of the
worker for in-process ops): on a shared virtual machine, wall time also
counts the time the host gives the vCPU to other tenants.  Both are divided
by the host's slowdown, measured around each op and each set-up with fixed
probes (`bench.slowdown`), so they read as CPU time on the reference
machine at its fast speed.

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
same ops run once untraced and once with per-layer wrappers, and the
metrics are the per-layer ones plus the tracing overhead.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the line before it holds details (failures, the percentile behind
op_tail_ms, the machine).  Without `--workload`, every workload runs in
turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3

sys.path.insert(0, str(HERE))
from bench import WORKLOADS, slowdown  # noqa: E402


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def start_worker(config: dict) -> tuple[float, str, int]:
    """Run one worker; returns (set-up CPU seconds, its result line, its peak RSS in kB)."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(HERE / "bench.py"), json.dumps(config)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    try:
        ready = proc.stdout.readline().split()
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or ready[:1] != ["ready"]:
        raise RuntimeError(f"{config['workload']} worker exited with code {proc.returncode}")
    return float(ready[1]), rest.strip(), usage.ru_maxrss


def setup_seconds(config: dict) -> float:
    """Set-up CPU time of one fresh worker at the reference machine's fast speed
    (set-up is mostly interpreter start and imports, as the start probe is)."""
    before = slowdown(0.0)
    cpu_s = start_worker(config)[0]
    return cpu_s / ((before + slowdown(0.0)) / 2)


def run_workload(name: str, seed: int, seconds: int, trace: bool, smoke: bool) -> tuple[dict, dict]:
    config = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "smoke": smoke, "setup_only": True}
    setups = [setup_seconds(config) for _ in range(SETUP_REPEATS)]
    _, line, worker_rss_kb = start_worker({**config, "setup_only": False})
    result = json.loads(line)
    failed = len(result["failures"])
    details = {"workload": name, "seed": seed, "failed_ratio": failed / result["attempted"],
               "failures": result["failures"][:20], "machine": machine()}
    if trace:
        metrics = result["per_layer"]
        details["traced_s"] = result["traced_s"]
        details["untraced_s"] = result["untraced_s"]
        details["import_share"] = result.get("import_share")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": result["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": result["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": result["op_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": max(worker_rss_kb, result["child_rss_kb"]) / 1024, "unit": "MB"},
        }
        details["op_tail"] = {"percentile": result["op_tail_percentile"], "samples": result["attempted"]}
        details["setup_s_samples"] = setups
        for key in ("cpu_ops_per_s", "wall_ops_per_s", "slowdown"):
            details[key] = result[key]
    summary = {"correct": failed == 0, "attempted": result["attempted"], "failed": failed, "metrics": metrics}
    return details, summary


def main() -> int:
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args()
    if not (ROOT / "src" / "wregret" / "cli.py").is_file():
        print(f"error: no program under {ROOT / 'src'}; run the benchmark from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            details, summary = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(details))
        print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
