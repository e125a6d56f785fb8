"""Per-layer tracing from outside the program.

The tracer replaces the public functions of each `opident` module with
timing wrappers, in every module namespace that imported them, so that one
in-process run of a workload operation reports calls and busy time per
layer.  Nothing under `src/` changes.

Run as a child process, one operation per process so that every run starts
as cold as the real CLI:

    python3 perfbench/tracer.py --workload W --seed S --trials T --traced 0|1

The last line of its standard output is a JSON object with each step's exit
code and report, the wall time of `cli.main` over all steps and, when
traced, the per-layer statistics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import statistics
import sys
import time

import workloads

# Layer name -> the functions it times, as (module, attribute path).
LAYERS = {
    "moments.hankel_det": [("opident.moments", "MomentFunctional.hankel_det")],
    "moments.modified_hankel_det": [("opident.moments", "MomentFunctional.modified_hankel_det")],
    "moments.modified_hankel_det_series": [
        ("opident.moments", "MomentFunctional.modified_hankel_det_series")],
    "moments.random_functional": [("opident.moments", "random_atom_functional"),
                                  ("opident.moments", "random_sequence_functional")],
    "orthopoly.build_ortho_system": [("opident.orthopoly", "build_ortho_system")],
    "orthopoly.q_exact": [("opident.orthopoly", "q_exact")],
    "orthopoly.q_series": [("opident.orthopoly", "q_series")],
    "ring.det_rational": [("opident.ring", "det_rational")],
    "ring.det_generic": [("opident.ring", "det_generic")],
    "ring.series_mul": [("opident.ring", "InverseSeries.__mul__")],
    "identity.verify_theorem1": [("opident.identity", "verify_theorem1")],
    "identity.lhs_theorem1": [("opident.identity", "lhs_theorem1")],
    "identity.rhs_theorem1": [("opident.identity", "rhs_theorem1")],
    "identity.lemma8_check": [("opident.identity", "lemma8_check")],
    "identity.lemma9_check": [("opident.identity", "lemma9_check")],
    "identity.jacobi_check": [("opident.identity", "jacobi_check")],
    "chebyshev.theorem14_eval": [("opident.chebyshev", "theorem14_eval")],
    "chebyshev.theorem15_eval": [("opident.chebyshev", "theorem15_eval")],
    "chebyshev.closed_form_suite": [("opident.chebyshev", "closed_form_suite")],
    "chebyshev.conjecture16_table": [("opident.chebyshev", "conjecture16_table")],
}

# Layer sets whose union of busy time inside the parent layer must fit in the
# parent's busy time: the hot layers of the atom and of the series sweep.
ACCOUNTING = {
    "atom": ("identity.verify_theorem1",
             ("moments.modified_hankel_det", "orthopoly.q_exact", "ring.det_rational")),
    "series": ("identity.verify_theorem1",
               ("moments.modified_hankel_det_series", "orthopoly.q_series",
                "ring.det_generic")),
}


class _Layer:
    __slots__ = ("calls", "busy", "depth", "max_bits", "samples")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.depth = 0
        self.max_bits = 0
        self.samples = []


class _Group:
    """Time during which any member layer runs inside the parent layer."""

    def __init__(self, parent: _Layer):
        self.parent = parent
        self.active = 0
        self.start = None
        self.covered = 0.0

    def enter(self, t: float) -> None:
        if self.active == 0 and self.parent.depth:
            self.start = t
        self.active += 1

    def leave(self, t: float) -> None:
        self.active -= 1
        if self.active == 0 and self.start is not None:
            self.covered += t - self.start
            self.start = None


class Tracer:
    """Times every layer in LAYERS once installed into the loaded modules."""

    def __init__(self):
        self.layers = {name: _Layer() for name in LAYERS}
        self.groups = {key: _Group(self.layers[parent]) for key, (parent, _) in ACCOUNTING.items()}
        self._group_of = {member: self.groups[key]
                          for key, (_, members) in ACCOUNTING.items() for member in members}

    def _wrap(self, name: str, fn):
        layer = self.layers[name]
        group = self._group_of.get(name)
        clock = time.perf_counter
        bits = name == "ring.det_rational"
        durations = name == "identity.verify_theorem1"

        def wrapper(*args, **kwargs):
            layer.calls += 1
            if layer.depth:  # re-entrant call: the outer call already counts its time
                return fn(*args, **kwargs)
            layer.depth = 1
            t0 = clock()
            if group is not None:
                group.enter(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                layer.depth = 0
                layer.busy += t1 - t0
                if group is not None:
                    group.leave(t1)
            if bits:
                layer.max_bits = max(layer.max_bits, result.numerator.bit_length(),
                                     result.denominator.bit_length())
            if durations:
                layer.samples.append(t1 - t0)
            return result

        return wrapper

    def install(self) -> None:
        """Replace each traced function wherever an opident module holds it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "opident" or key.startswith("opident.")]
        for name, targets in LAYERS.items():
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                if outer:  # a method: patch the class it is defined on
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapper)

    def summary(self) -> dict:
        out = {}
        for name, layer in self.layers.items():
            out[f"{name}.calls"] = layer.calls
            out[f"{name}.busy_s"] = layer.busy
        out["ring.det_rational.max_bits"] = self.layers["ring.det_rational"].max_bits
        samples = [s * 1e3 for s in self.layers["identity.verify_theorem1"].samples]
        if len(samples) >= 2:
            cuts = statistics.quantiles(samples, n=20)
            p50, p95 = statistics.median(samples), cuts[18]
        else:
            p50 = p95 = samples[0] if samples else 0.0
        out["identity.verify_theorem1.instance_ms.p50"] = p50
        out["identity.verify_theorem1.instance_ms.p95"] = p95
        for key, group in self.groups.items():
            out[f"accounting.{key}.covered_s"] = group.covered
        return out


def run_operation(workload: str, seed: int, trials: int, traced: bool) -> dict:
    """One operation of `workload`, in this process, through `cli.main`."""
    import opident.cli as cli

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    steps = []
    main_s = 0.0
    for step in workloads.steps(workload, seed, trials):
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(list(step.argv))
            except SystemExit as exc:  # argparse rejects the flags
                rc = exc.code if isinstance(exc.code, int) else 2
        main_s += time.perf_counter() - t0
        steps.append({"rc": rc, "stdout": buf.getvalue()})
    return {"steps": steps, "main_s": main_s,
            "layers": tracer.summary() if tracer is not None else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    result = run_operation(args.workload, args.seed, args.trials, bool(args.traced))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
