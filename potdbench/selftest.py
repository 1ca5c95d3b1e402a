"""Self-test of the benchmark at tiny sizes.

    python3 potdbench/selftest.py

Runs every workload of BENCHMARK.json twice untraced and twice traced with
the same seed and asserts that:

- each run exits 0 with ``"correct": true`` and whole-number counts;
- the result names exactly the metrics of BENCHMARK.json, each with its unit;
- the same seed gives identical quality metrics and identical counts;
- in a directory holding only BENCHMARK.json and the benchmark's files,
  the command exits non-zero without printing a result.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
SECONDS = "1"
QUALITY = ("potd_dist_mean", "potd_acc_mean")


def run(bench, workload, trace, cwd=ROOT):
    cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
           "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)]
    if cwd == ROOT:
        cmd += ["--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc, label):
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(last)}"
    assert last["correct"] is True, f"{label}: not correct\n{proc.stderr}"
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1, label
    assert isinstance(last["failed"], int) and 0 <= last["failed"] <= last["attempted"], label
    return last


def check_metrics(last, declared, label):
    metrics = last["metrics"]
    assert set(metrics) == {m["name"] for m in declared}, (
        f"{label}: metric names differ: {sorted(set(metrics) ^ {m['name'] for m in declared})}"
    )
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (
            f"{label}: {m['name']} = {got['value']!r}"
        )


def check_bare_directory(bench):
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out"))
        for workload in (w["name"] for w in bench["workloads"]):
            proc = run(bench, workload, 0, cwd=bare)
            lines = proc.stdout.strip().splitlines()
            assert proc.returncode != 0, f"bare {workload}: exit 0"
            assert not lines or not lines[-1].startswith("{"), f"bare {workload}: printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in bench["workloads"]):
        first, second = (result_of(run(bench, workload, 0), f"{workload} trace 0")
                         for _ in range(2))
        check_metrics(first, bench["end_to_end"], f"{workload} trace 0")
        for name in QUALITY:
            assert first["metrics"][name] == second["metrics"][name], (
                f"{workload}: {name} differs between runs with the same seed"
            )
        first, second = (result_of(run(bench, workload, 1), f"{workload} trace 1")
                         for _ in range(2))
        check_metrics(first, bench["per_layer"], f"{workload} trace 1")
        for m in bench["per_layer"]:
            if m["unit"] in ("count", "B"):
                assert first["metrics"][m["name"]] == second["metrics"][m["name"]], (
                    f"{workload}: count {m['name']} differs between runs with the same seed"
                )
        print(f"{workload}: ok")
    check_bare_directory(bench)
    print("bare directory: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
