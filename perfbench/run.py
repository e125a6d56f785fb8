"""opident benchmark: one workload, timed end to end or layer by layer.

    python3 perfbench/run.py --workload atom-sweep --seed 1 --seconds 35 --trace 0

Run from a checkout of the repository; the program is imported from its
`src/` directory.  With `--trace 0` the workload's operations run through
the real `opident` CLI, each step in a fresh process, and the end-to-end
metrics are reported.  With `--trace 1` operations run in-process in fresh
child processes, alternately untraced and traced (see tracer.py), followed
by the fixed layer cases (see cases.py), and the per-layer metrics are
reported.  End-to-end times are scaled to a reference host speed (see
calibration.py); per-layer times are raw.  Every operation passes a
correctness gate: exit code 0, a passing report with the expected instance
count and echoed config, and the same stdout SHA-256 as every other
operation with the same seed (or as `--expect-sha256`, to pin a parent
commit's reports).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The lines before it give
the digest, the run metadata and each metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {"instances_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.setup_s": "s",
    "cli.main.busy_s": "s",
    **{f"{name}.{kind}": unit for name in tracer.LAYERS
       for kind, unit in (("calls", "count"), ("busy_s", "s"))},
    "ring.det_rational.max_bits": "bit",
    "identity.verify_theorem1.instance_ms.p50": "ms",
    "identity.verify_theorem1.instance_ms.p95": "ms",
    "ring.det_rational.n8.ms": "ms",
    "ring.det_rational.n8.bits": "bit",
    "ring.det_rational.n16.ms": "ms",
    "ring.det_rational.n16.bits": "bit",
    "ring.det_rational.n32.ms": "ms",
    "ring.det_rational.n32.bits": "bit",
    "ring.det_berkowitz.n8.ms": "ms",
    "ring.det_berkowitz.n16.ms": "ms",
    "ring.series_mul.k1.ms": "ms",
    "ring.series_mul.k1.terms_out": "count",
    "ring.series_mul.k2.ms": "ms",
    "ring.series_mul.k2.terms_out": "count",
    "ring.series_mul.k3.ms": "ms",
    "ring.series_mul.k3.terms_out": "count",
}

# Each step normally takes a few seconds; a hung draw is cut off here and
# counted as a failed operation.
STEP_TIMEOUT_S = 60
SETUP_IMPORTS = 11


class Failure(Exception):
    """One operation failed; the run goes on and counts it."""


class Timeout(Failure):
    """A step overran STEP_TIMEOUT_S; the run stops after counting it."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # Imports read compiled bytecode, as an installed package would.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list, env: dict) -> subprocess.CompletedProcess:
    try:
        return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                              text=True, timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise Timeout(f"timeout after {STEP_TIMEOUT_S} s: {' '.join(argv)}")


def measure_setup(env: dict, speed: calibration.Speed) -> float:
    """Median wall time of a fresh `import opident.cli`, after one warm-up,
    with a calibration sample before each timed import."""
    argv = ["-c", "import opident.cli"]
    times = []
    for i in range(SETUP_IMPORTS + 1):
        if i:
            speed.sample()
        t0 = time.perf_counter()
        proc = run_child(argv, env)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise Failure(f"import opident.cli failed: {proc.stderr.strip()}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


class DigestGate:
    """Every operation with the same seed must print the same bytes."""

    def __init__(self, expected: str | None):
        self.reference = expected

    def check(self, digest: str) -> None:
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            raise Failure(f"stdout sha256 {digest} differs from {self.reference}")


def gate(steps: list, outputs: list, digests: DigestGate) -> int:
    """Check one operation's outputs; returns the instances it verified."""
    sha = hashlib.sha256()
    instances = 0
    for step, (returncode, stdout) in zip(steps, outputs):
        sha.update(stdout.encode())
        try:
            instances += workloads.check_step(step, returncode, stdout)
        except workloads.GateError as exc:
            raise Failure(str(exc))
    digests.check(sha.hexdigest())
    return instances


def last_json_line(proc: subprocess.CompletedProcess, what: str) -> dict:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise Failure(f"{what} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise Failure(f"{what} printed no JSON result: {exc}")


class Loop:
    """Runs operations until the next one would overrun the measured time,
    with a calibration sample before each operation and after the last."""

    def __init__(self, seconds: float, min_ops: int):
        self.seconds = seconds
        self.min_ops = min_ops
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.speed = calibration.Speed()

    def run(self, operation) -> None:
        start = time.perf_counter()
        while True:
            self.speed.sample()
            t0 = time.perf_counter()
            self.attempted += 1
            try:
                operation()
            except Failure as exc:
                self.failed += 1
                self.errors.append(str(exc))
                if isinstance(exc, Timeout):
                    break
            now = time.perf_counter()
            if self.attempted >= self.min_ops and now - start + (now - t0) > self.seconds:
                break
        self.speed.sample()


def untraced_run(args, env: dict, digests: DigestGate, loop: Loop, meta: dict) -> dict:
    steps = workloads.steps(args.workload, args.seed, args.trials)
    instances = []
    walls = []

    def operation():
        outputs = []
        t0 = time.perf_counter()
        for step in steps:
            proc = run_child(["-m", "opident", *step.argv], env)
            outputs.append((proc.returncode, proc.stdout))
        wall = time.perf_counter() - t0
        instances.append(gate(steps, outputs, digests))
        walls.append(wall)

    setup_speed = calibration.Speed()
    setup_s = measure_setup(env, setup_speed)
    loop.run(operation)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # All passing operations pooled: their instances over their wall time.
    rate = sum(instances) / sum(walls) if walls else 0.0
    meta["operation_wall_s"] = walls
    meta["raw"] = {"instances_per_s": rate, "setup_s": setup_s}
    meta["speed_scale"] = {"operations": loop.speed.scale(), "setup": setup_speed.scale()}
    return {
        "instances_per_s": rate / loop.speed.scale(),
        "setup_s": setup_s * setup_speed.scale(),
        "peak_rss_mb": peak_kb / 1024,
    }


def _median_of(dicts: list, key: str) -> float:
    # median_low reports a value as measured; counts stay whole numbers.
    return statistics.median_low(d[key] for d in dicts)


def traced_run(args, env: dict, digests: DigestGate, loop: Loop, meta: dict) -> dict:
    steps = workloads.steps(args.workload, args.seed, args.trials)
    walls = {0: [], 1: []}
    summaries = []
    instances = []

    def operation():
        for traced in (0, 1):
            proc = run_child([str(HERE / "tracer.py"), "--workload", args.workload,
                              "--seed", str(args.seed), "--trials", str(args.trials),
                              "--traced", str(traced)], env)
            result = last_json_line(proc, "tracer")
            outputs = [(s["rc"], s["stdout"]) for s in result["steps"]]
            instances.append(gate(steps, outputs, digests))
            walls[traced].append(result["main_s"])
            if traced:
                layers = result["layers"]
                for key, (parent, members) in tracer.ACCOUNTING.items():
                    covered = layers[f"accounting.{key}.covered_s"]
                    if covered > layers[f"{parent}.busy_s"] * (1 + 1e-9):
                        raise Failure(f"{'+'.join(members)} busy {covered} s exceeds "
                                      f"{parent} busy {layers[f'{parent}.busy_s']} s")
                summaries.append(layers)

    setup_speed = calibration.Speed()
    setup_s = measure_setup(env, setup_speed)
    loop.run(operation)
    meta["speed_scale"] = {"operations": loop.speed.scale(), "setup": setup_speed.scale()}
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics["cli.setup_s"] = setup_s * setup_speed.scale()
    if summaries:
        metrics.update({name: _median_of(summaries, name)
                        for name in PER_LAYER if name in summaries[0]})
        metrics["cli.main.busy_s"] = statistics.median_low(walls[1])
        untraced = statistics.median(instances) / statistics.median(walls[0])
        traced = statistics.median(instances) / statistics.median(walls[1])
        meta["trace_overhead"] = {"untraced_instances_per_s": untraced,
                                  "traced_instances_per_s": traced,
                                  "traced_over_untraced": traced / untraced}
        for key, (parent, _) in tracer.ACCOUNTING.items():
            busy = _median_of(summaries, f"{parent}.busy_s")
            covered = _median_of(summaries, f"accounting.{key}.covered_s")
            meta[f"accounting_{key}_share_of_{parent}"] = covered / busy if busy else 0.0

    loop.attempted += 1
    try:
        cases = last_json_line(run_child([str(HERE / "cases.py"), "--seed", str(args.seed)],
                                         env), "cases")
        if "error" in cases:
            raise Failure(cases["error"])
        metrics.update(cases)
    except Failure as exc:
        loop.failed += 1
        loop.errors.append(str(exc))
    return metrics


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per operation (default: the workload's own)")
    parser.add_argument("--expect-sha256", default=None,
                        help="stdout digest every operation must match, e.g. the parent's")
    args = parser.parse_args()
    if not (SRC / "opident" / "cli.py").is_file():
        print(f"error: no opident sources under {SRC}", file=sys.stderr)
        return 2
    if args.trials is None:
        args.trials = workloads.DEFAULT_TRIALS[args.workload]
    try:
        workloads.steps(args.workload, args.seed, args.trials)
    except ValueError as exc:
        parser.error(str(exc))

    env = child_env()
    nproc = len(os.sched_getaffinity(0))
    cpu = calibration.pin_to_one_cpu()
    digests = DigestGate(args.expect_sha256)
    loop = Loop(args.seconds, min_ops=1 if args.trace else 2)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trials": args.trials,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
    }
    try:
        if args.trace:
            metrics, units = traced_run(args, env, digests, loop, meta), PER_LAYER
        else:
            metrics, units = untraced_run(args, env, digests, loop, meta), END_TO_END
    except Failure as exc:  # set-up itself failed: there is nothing to report
        print(f"error: {exc}", file=sys.stderr)
        return 1
    meta["stdout_sha256"] = digests.reference
    for error in loop.errors:
        print(f"FAILED  {error}", file=sys.stderr)
    print(f"operations {loop.attempted}  failed {loop.failed}  sha256 {digests.reference}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
