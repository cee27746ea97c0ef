#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

For each workload it runs ``run.py`` untraced and traced on a few hundred
rows and checks that the last line has exactly the contract's keys, that the
metrics are exactly those ``BENCHMARK.json`` lists, with the same units, and
that no action failed (``error_rate`` 0).
It also checks that the benchmark refuses to run, without printing a result,
where the sources are missing.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROWS = 400

sys.path.insert(0, str(HERE))
from run import WORKLOAD_NAMES  # noqa: E402


def fail(message: str):
    raise SystemExit(f"selftest: {message}")


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--rows", str(ROWS)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(workload: str, trace: int, expected: dict) -> None:
    proc = bench(ROOT, workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result, record = json.loads(lines[-1]), json.loads(lines[-2])["run_record"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != expected:
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(units.items()) ^ set(expected.items()))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail(f"{workload}: {name} is not a number")
    if result["failed"] or not result["correct"] or record["error_rate"]["value"] != 0:
        fail(f"{workload}: failed actions: {record['errors']}")
    if record["rows"] != ROWS or record["seed"] != 7:
        fail(f"{workload}: run record does not match the arguments")
    print(f"ok {workload} trace={trace}: {len(units)} metrics, "
          f"{result['attempted']} actions checked")


def check_refuses_without_sources(spec: dict) -> None:
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("a checkout without sources must exit non-zero and print nothing")
    print("ok refuses to run without sources")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check_refuses_without_sources(spec)
    for name in WORKLOAD_NAMES:
        check_run(name, 0, end_to_end)
        check_run(name, 1, per_layer)


if __name__ == "__main__":
    main()
