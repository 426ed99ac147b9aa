#!/usr/bin/env python3
"""Smoke run of the benchmark at tiny sizes, for every workload.

    python3 bench/smoke.py

Runs ``bench/run.py --smoke --seconds 1`` on every workload of
``BENCHMARK.json``, untraced and traced, and fails unless each run exits 0,
prints every declared metric with its declared unit and nothing else, ran
its output checks and found no failure.  It also checks that the benchmark
refuses to run, without printing a result, in a directory that holds only
``BENCHMARK.json`` and ``bench/``.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
ENV_KEYS = {"python", "cpu", "nproc", "git_revision", "seed"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if printed != declared:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(printed.items()) ^ set(declared.items()))}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: checks failed\n{proc.stderr}")
    if info["checks"] != result["attempted"] or set(info["environment"]) != ENV_KEYS:
        problems.append(f"{where}: info line {info}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or value < 0 or (not trace and value == 0):
            problems.append(f"{where}: {name} = {value!r}")
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, "sampling-honest", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    if proc.returncode == 0 or "correct" in proc.stdout:
        return [f"without src/ the benchmark exited {proc.returncode}: {proc.stdout}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_refuses_without_sources()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'FAIL' if problems else 'ok'}", flush=True)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
