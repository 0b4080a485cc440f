"""Smoke test of the benchmark, kept out of the unit-test suite.

    python3 bench/smoke.py

Runs every workload, untraced and traced, with a tiny op count, and checks
that the result line names every metric of BENCHMARK.json with its unit and
that no op failed.  It then checks that the benchmark refuses to run, without
printing a result, in a copy holding only BENCHMARK.json and bench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--max-ops", "4")
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{tag}: metrics {got} != {expected[trace]}")
            for name, unit in expected[trace].items():
                if not any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                           for line in lines[:-1]):
                    problems.append(f"{tag}: no report line for {name} in {unit}")
            if "failed_frac 0 ratio" not in lines:
                problems.append(f"{tag}: failed_frac is not 0")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: result {result['correct']}, "
                                f"{result['failed']} of {result['attempted']} failed")
            print(f"ok {tag}: {result['attempted']} ops")

    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "7",
                   "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare copy: exit {proc.returncode}, stdout {proc.stdout!r}")
        else:
            print(f"ok bare copy: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
