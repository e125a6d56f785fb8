"""Self-test of the benchmark at the smallest sizes.

    python3 perfbench/smoke.py

Checks that BENCHMARK.json names exactly the metrics run.py emits, that
every workload emits every end-to-end and per-layer metric with its unit
and passes its gate at one trial, that tracing leaves the reports
byte-identical, that the traced layers fit inside `verify_theorem1`, that
a wrong expected digest fails every operation, that the atom-shape guard
refuses a shape whose functional draw never ends, and that run.py exits
non-zero without a result where there are no sources.  Exits 1 on any
failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads
from run import END_TO_END, PER_LAYER
from suite import run_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMALLEST = ("--trials", "1")

problems = []


def expect(ok: bool, message: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'}  {message}")
    if not ok:
        problems.append(message)


def check_spec() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(declared == END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(declared == PER_LAYER, "BENCHMARK.json per_layer matches run.py")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")


def check_emitted(workload: str, run: dict, units: dict) -> None:
    result = run["result"]
    if result is None:
        expect(False, f"{workload}: run.py exited {run['returncode']}: {run['stderr'][-500:]}")
        return
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload}: gate passed ({result['attempted']} operations)")
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(emitted == units, f"{workload}: all {len(units)} metrics emitted with units")


def check_workloads() -> None:
    for workload in workloads.WORKLOADS:
        untraced = run_workload(workload, 1, 0, 0, *SMALLEST)
        check_emitted(workload, untraced, END_TO_END)
        if untraced["result"] is not None:
            metrics = untraced["result"]["metrics"]
            expect(all(m["value"] > 0 for m in metrics.values()),
                   f"{workload}: end-to-end metrics are nonzero")
        traced = run_workload(workload, 1, 0, 1, *SMALLEST)
        check_emitted(workload, traced, PER_LAYER)
        if untraced["meta"] and traced["meta"]:
            expect(untraced["meta"]["stdout_sha256"] == traced["meta"]["stdout_sha256"],
                   f"{workload}: traced reports are byte-identical to the CLI's")
        if workload in ("atom-sweep", "series-sweep") and traced["meta"]:
            key = "atom" if workload == "atom-sweep" else "series"
            share = traced["meta"][f"accounting_{key}_share_of_identity.verify_theorem1"]
            expect(0 < share <= 1, f"{workload}: {key} layers cover {share:.2f} of "
                                   "verify_theorem1 busy time")


def check_bad_digest() -> None:
    run = run_workload("atom-sweep", 1, 0, 0, *SMALLEST, "--expect-sha256", "0" * 64)
    result = run["result"]
    expect(result is not None and not result["correct"]
           and result["failed"] == result["attempted"] >= 1,
           "a wrong expected digest fails every operation")


def check_shape_guard() -> None:
    try:
        workloads.check_atom_shape(8, 2)
    except ValueError:
        refused = True
    else:
        refused = False
    expect(refused, "atom shape max_n=8, max_m=2 is refused before launch")
    workloads.check_atom_shape(workloads.ATOM_SHAPE["max_n"], workloads.ATOM_SHAPE["max_m"])


def check_no_sources() -> None:
    bare = ROOT / ".bench_smoke"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "atom-sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without sources run.py exits non-zero and prints no result")


def main() -> int:
    check_spec()
    check_shape_guard()
    check_bad_digest()
    check_no_sources()
    check_workloads()
    print("PASS" if not problems else f"FAIL: {len(problems)} checks failed")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
