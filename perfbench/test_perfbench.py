"""The benchmark's own tests, on tiny (`--smoke`) sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import cProfile
import json
import pstats
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result(workload: str, trace: int) -> tuple[dict, dict]:
    proc = run("--workload", workload, "--seed", "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    details, summary = (json.loads(line) for line in proc.stdout.strip().split("\n")[-2:])
    return details, summary


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted(workload):
    details, summary = result(workload, 0)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0, details["failures"]
    assert list(summary["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert summary["metrics"][m["name"]]["unit"] == m["unit"]
        assert summary["metrics"][m["name"]]["value"] > 0
    assert details["failed_ratio"] == 0
    assert details["op_tail"]["samples"] == summary["attempted"] >= 11


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_exactly(workload):
    first = result(workload, 1)[1]["metrics"]
    second = result(workload, 1)[1]["metrics"]
    assert list(first) == [m["name"] for m in SPEC["per_layer"]]
    assert all(first[name]["unit"] == m["unit"] for name, m in zip(first, SPEC["per_layer"]))
    counts = [name for name in first if name.endswith(".calls")]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert first["rational.fraction_new.calls"]["value"] > 0
    assert first["trace_overhead_ratio"]["value"] > 0


def test_a_corrupted_digest_counts_as_a_failure():
    workload = bench.CliCold(0, 1, smoke=True)
    workload.setup()
    expected = bench.load_digests(smoke=True)
    assert bench.measure(workload, expected)["failures"] == []
    corrupted = {key: "0" * 40 for key in expected}
    failures = bench.measure(workload, corrupted)["failures"]
    assert failures and all("digest" in f for f in failures)


def test_pinned_roadmap_simulate_digest():
    op = bench.CliOp(["simulate", str(bench.FIXTURES / "learning.dp"), "--truth", "mostly_good",
                      "--rounds", "500", "--seeds", "100"], bench._exit_ok)
    outcome = bench.run_cli(op)
    assert outcome.output.code == 0
    assert outcome.sha1.startswith("d621ea4d61")


def test_tracing_rebinds_every_imported_name():
    code = f"""
import sys
sys.path[:0] = [{str(HERE)!r}, {str(ROOT / "src")!r}]
import tracing, wregret.cli
originals = {{id(getattr(sys.modules["wregret." + layer], name))
             for layer, names in tracing.TARGETS.items() for name in names if "." not in name}}
tracing.install(tracing.Tracer())
print([(n, k) for n, m in list(sys.modules.items()) if n.startswith("wregret")
       for k, v in vars(m).items() if id(v) in originals])
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_fraction_count_equals_cprofile_count():
    from wregret import decisions

    def op():
        problem = bench.gen.problem(bench.random.Random(3), 4, 6, 3)
        wset = bench._wset(problem)
        return decisions.rank("mwer", bench._menu(problem), bench._utility(problem), wset)

    profiler = cProfile.Profile()
    profiler.runcall(op)
    stats = pstats.Stats(profiler).stats
    by_cprofile = sum(v[1] for k, v in stats.items() if k[0].endswith("fractions.py") and k[2] == "__new__")

    tracer = tracing.Tracer()
    original = bench.Fraction.__new__
    try:
        tracer.count_fractions()
        op()
    finally:
        bench.Fraction.__new__ = staticmethod(original)
    assert tracer.counts["fraction_new"] == by_cprofile > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "cli_cold", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_digest_table_covers_seed_zero():
    table = json.loads(bench.DIGESTS.read_text())
    assert table["bundled"] and table["default"] and table["smoke"]
    assert all(re.fullmatch("[0-9a-f]{40}", v) for part in table.values() for v in part.values())
