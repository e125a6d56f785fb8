"""The benchmark's workloads: which `opident` commands one operation runs,
and the gate that decides whether that operation's output is correct.

An operation is one or more CLI steps.  Each step is the argument list
after `opident` and a check that reads the step's JSON report and returns
the number of instances it verified, or raises GateError.  The shapes stay
inside the ranges the CLI honours, so the `config` each report echoes is
what actually ran.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

# random_atom_functional's default atom count.  It redraws until H(1)..H(depth)
# are nonzero, which never happens when depth exceeds the number of atoms.
ATOM_COUNT = 8

# Defaults of `opident verify theorem1` in atom mode.
ATOM_SHAPE = {"max_n": 6, "max_k": 3, "max_m": 3}
# Largest series shape `verify theorem1 --series` runs as given: it clamps
# max_n to 4, max_m to 2 and k to at most 2.
SERIES_SHAPE = {"max_n": 4, "max_k": 2, "max_m": 2}
SERIES_TRUNCATION = 25
# `chebyshev` evaluates the closed-form table up to max(max_n, 12), so 12 is
# the smallest max_n whose echoed value describes the whole run.
CHEBYSHEV_MAX_N = 12
# `verify lemmas` clamps max_n to 6; the default is 6.
LEMMAS_MAX_N = 6
# sweep_jacobi's default sizes (5, 6): C(5,2)^2 + C(6,2)^2 index choices.
JACOBI_INSTANCES = 10 * 10 + 15 * 15

DEFAULT_TRIALS = {"atom-sweep": 20, "series-sweep": 4, "closed-forms": 10}
WORKLOADS = tuple(DEFAULT_TRIALS)


class GateError(Exception):
    """An operation's output failed the correctness gate."""


@dataclass(frozen=True)
class Step:
    argv: tuple
    check: Callable[[dict], int]


def check_atom_shape(max_n: int, max_m: int) -> None:
    """Refuse an atom shape whose functional draw cannot terminate."""
    depth = max_n + max_m - 1
    if depth > ATOM_COUNT:
        raise ValueError(
            f"atom shape max_n={max_n}, max_m={max_m} needs H(1)..H({depth}) "
            f"nonzero, impossible with {ATOM_COUNT} atoms: the draw never ends"
        )


def _flags(shape: dict) -> list:
    return [a for key, v in shape.items() for a in (f"--{key.replace('_', '-')}", str(v))]


def _sweep_check(command: str, config: dict, instances: int) -> Callable[[dict], int]:
    def check(report: dict) -> int:
        if report.get("command") != command:
            raise GateError(f"expected command {command!r}, got {report.get('command')!r}")
        if report.get("config") != config:
            raise GateError(f"echoed config {report.get('config')} != {config}")
        if report.get("all_equal") is not True or report.get("failures") != 0:
            raise GateError(f"{command}: {report.get('failures')} failures")
        if report.get("instances") != instances:
            raise GateError(
                f"{command}: {report.get('instances')} instances, expected {instances}"
            )
        return instances

    return check


def _chebyshev_check(max_n: int) -> Callable[[dict], int]:
    rows = {"theorem14": 4 * max_n, "theorem15": 20 * max_n,
            "closed_forms": 6 * max_n, "conjectures": 2 * max_n}

    def check(report: dict) -> int:
        if report.get("command") != "chebyshev" or report.get("max_n") != max_n:
            raise GateError(f"chebyshev report does not echo max_n={max_n}")
        if report.get("all_theorems_hold") is not True:
            raise GateError("chebyshev: a non-conjectural evaluation failed")
        for key, expected in rows.items():
            if len(report.get(key, ())) != expected:
                raise GateError(f"chebyshev: {len(report.get(key, ()))} {key} rows, "
                                f"expected {expected}")
        if not all(r["equal"] for r in report["theorem14"] + report["theorem15"]):
            raise GateError("chebyshev: a theorem grid row is unequal")
        # Conjecture rows are informational and never asserted.
        return rows["theorem14"] + rows["theorem15"] + rows["closed_forms"]

    return check


def steps(workload: str, seed: int, trials: int) -> list:
    """The CLI steps of one operation of `workload`."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if workload == "atom-sweep":
        check_atom_shape(ATOM_SHAPE["max_n"], ATOM_SHAPE["max_m"])
        config = {"seed": seed, **ATOM_SHAPE, "trials": trials,
                  "series": False, "truncation": SERIES_TRUNCATION}
        grid = (ATOM_SHAPE["max_n"] + 1) * (ATOM_SHAPE["max_k"] + 1) * (ATOM_SHAPE["max_m"] + 1)
        argv = ("verify", "theorem1", "--json", "--seed", str(seed), "--trials", str(trials))
        return [Step(argv, _sweep_check("verify theorem1", config, grid * trials))]
    if workload == "series-sweep":
        config = {"seed": seed, **SERIES_SHAPE, "trials": trials,
                  "series": True, "truncation": SERIES_TRUNCATION}
        grid = SERIES_SHAPE["max_k"] * (SERIES_SHAPE["max_m"] + 1) * (SERIES_SHAPE["max_n"] + 1)
        argv = ("verify", "theorem1", "--series", "--json", "--seed", str(seed),
                "--trials", str(trials), "--truncation", str(SERIES_TRUNCATION),
                *_flags(SERIES_SHAPE))
        return [Step(argv, _sweep_check("verify theorem1", config, grid * trials))]
    if workload == "closed-forms":
        lemmas_config = {"seed": seed, "max_n": LEMMAS_MAX_N, "trials": trials}
        lemmas = trials * LEMMAS_MAX_N * 2 + JACOBI_INSTANCES
        return [
            Step(("chebyshev", "--json", "--max-n", str(CHEBYSHEV_MAX_N)),
                 _chebyshev_check(CHEBYSHEV_MAX_N)),
            Step(("verify", "lemmas", "--json", "--seed", str(seed), "--trials", str(trials)),
                 _sweep_check("verify lemmas", lemmas_config, lemmas)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def check_step(step: Step, returncode: int, stdout: str) -> int:
    """Gate one step: exit code 0 and a report that passes the step's check."""
    if returncode != 0:
        raise GateError(f"opident {' '.join(step.argv)} exited {returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise GateError(f"opident {' '.join(step.argv)} printed nothing")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise GateError(f"opident {' '.join(step.argv)}: report is not JSON: {exc}")
    return step.check(report)
