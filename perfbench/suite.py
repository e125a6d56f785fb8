"""Run every workload, untraced then traced, and print every metric.

    python3 perfbench/suite.py --seed 1 --seconds 20 [--out results.json]

Prints each workload's end-to-end metrics with their units, then each
workload's per-layer metrics from its traced run.  `--out` also writes all
results, with each run's metadata and stdout digest, as one JSON file.
Exits 1 if any correctness gate failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_workload(workload: str, seed: int, seconds: float, trace: int, *extra: str) -> dict:
    """One run of run.py; returns its exit code, metadata and result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    meta = next((json.loads(line[len("meta "):]) for line in lines if line.startswith("meta ")),
                None)
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {"returncode": proc.returncode, "meta": meta, "result": result,
            "stderr": proc.stderr}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    results = {}
    ok = True
    for trace, title in ((0, "end-to-end"), (1, "per-layer (traced run)")):
        print(f"== {title}")
        for workload in WORKLOADS:
            run = run_workload(workload, args.seed, args.seconds, trace)
            results.setdefault(workload, {})["trace" if trace else "untraced"] = run
            result = run["result"]
            if result is None:
                ok = False
                print(f"{workload}: run.py exited {run['returncode']}\n{run['stderr']}")
                continue
            if not result["correct"]:
                ok = False
                sys.stdout.write(run["stderr"])
            print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} sha256={run['meta']['stdout_sha256']}")
            for name, metric in result["metrics"].items():
                print(f"  {workload:13s} {name:45s} {metric['value']!r} {metric['unit']}")
    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print("PASS: every correctness gate held" if ok else "FAIL: a correctness gate failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
