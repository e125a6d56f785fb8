"""Byte-for-byte gates on CLI stdout and on every computed value.

Each ``tests/golden/NAME.out`` holds the stdout of one command below, run
from ``tests/golden`` with the default seed.  A refactor must leave every
file unchanged.  Regenerate one only when a change of output is intended:

    cd tests/golden && PYTHONPATH=../../src python -m opident.cli ARGS > NAME.out

A passing sweep prints only a summary, so each ``tests/golden/NAME.jsonl``
also pins the ``params``, ``lhs`` and ``rhs`` of every report of one sweep,
one JSON object a line.  ``theorem1-series-values.jsonl`` pins the series
coefficients below ``compared_order``, with the verdict and the note;
``uvarov-values.jsonl`` pins the polynomials, degree flags and Gram
diagonal of one ``uvarov_system`` result a line.
``atoms8-fractional.json`` has non-integer nodes and weights (and one node,
-1/3, that the y pool can hit).  Regenerate with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import importlib
import json
import random
import sys
from pathlib import Path

import pytest

from opident.cli import main
from opident.identity import (
    sweep_prop13,
    sweep_theorem1_atom,
    sweep_theorem1_series,
    uvarov_system,
)
from opident.moments import FiniteAtomFunctional, MomentFunctional, functional_from_json
from opident.ring import format_rational

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "chebyshev": ["chebyshev", "--max-n", "12", "--json"],
    "lemmas": ["verify", "lemmas", "--trials", "10", "--json"],
    "prop13": ["verify", "prop13", "--trials", "3", "--json"],
    "theorem1": ["verify", "theorem1", "--trials", "2", "--json"],
    "theorem1-series": [
        "verify", "theorem1", "--series", "--trials", "1", "--truncation", "15",
        "--max-n", "3", "--json",
    ],
    "uvarov": [
        "uvarov", "--functional", "atoms7.json", "--ys", "11/2", "--xs-fixed", "1/3",
        "--max-n", "4", "--json",
    ],
    "hankel": [
        "hankel", "--n", "5", "--functional", "atoms7.json", "--xs", "1/2", "--ys", "3",
        "--json",
    ],
    "selftest": ["selftest"],
}


def _golden_functional(name):
    if name == "degree-drop":
        # a signed measure whose k = 1 modification at y = 1/2 has H'(2) = 0
        return FiniteAtomFunctional([(3, -1), (1, -2), (0, -2), (4, 2), (-3, 2)])
    return functional_from_json((GOLDEN / name).read_text())


# (functional, ys, xs_fixed, upto): unmodified, one and two poles, fixed
# zeros, k > m with n < k, non-integer nodes, and a dropped degree.
UVAROV_CASES = (
    ("atoms7.json", (), (), 5),
    ("atoms7.json", ("11/2",), (), 5),
    ("atoms7.json", ("11/2", "-5/3"), (), 5),
    ("atoms7.json", ("-7/2",), ("1/3", "5/2"), 4),
    ("atoms7.json", ("1/2", "3/2", "-5/2"), (), 4),
    ("atoms8-fractional.json", ("1/2",), ("3/4",), 4),
    ("atoms8-fractional.json", ("5", "-1/2"), (), 4),
    ("degree-drop", ("1/2",), (), 3),
)


def _report_rows(reports):
    for report in reports:
        d = report.to_json_dict()
        yield {"params": d["params"], "lhs": d["lhs"], "rhs": d["rhs"]}


def _series_terms(side, order):
    if side is None:
        return None
    return sorted(
        [list(e), format_rational(c)] for e, c in side.terms.items() if sum(e) < order
    )


def _series_report_rows(reports):
    # The coefficients below compared_order, not the raw series: the
    # knowledge horizon (trunc) of a side is bookkeeping, not a value.
    for report in reports:
        order = report.compared_order
        yield {
            "params": report.params,
            "compared_order": order,
            "equal": report.equal,
            "note": report.note,
            "lhs": _series_terms(report.lhs, order),
            "rhs": _series_terms(report.rhs, order),
        }


def _uvarov_rows():
    for name, ys, xs_fixed, upto in UVAROV_CASES:
        res = uvarov_system(_golden_functional(name), ys=ys, upto=upto, xs_fixed=xs_fixed)
        yield {
            "functional": name,
            "ys": list(ys),
            "xs_fixed": list(xs_fixed),
            "polys": [[format_rational(c) for c in p.coeffs] for p in res.polys],
            "degree_ok": list(res.degree_ok),
            "gram_diagonal": [format_rational(res.gram.get(i, i)) for i in range(upto + 1)],
        }


VALUE_CASES = {
    "theorem1-values": lambda: _report_rows(sweep_theorem1_atom(42, trials=2)),
    "prop13-values": lambda: _report_rows(sweep_prop13(42, trials=2)),
    "theorem1-fractional-values": lambda: _report_rows(sweep_theorem1_atom(
        42, trials=2, functional=_golden_functional("atoms8-fractional.json"),
    )),
    "uvarov-values": _uvarov_rows,
    "theorem1-series-values": lambda: _series_report_rows(sweep_theorem1_series(
        42, trials=1, truncation=12, max_n=3,
    )),
}


def value_lines(name):
    return [
        json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
        for row in VALUE_CASES[name]()
    ]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("OPIDENT_SEED", raising=False)
    monkeypatch.chdir(GOLDEN)
    code = main(CASES[name])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


# The stdout SHA-256 of the benchmark's atom-sweep operation (perfbench,
# workload "atom-sweep"): 2,240 instances at seed 1.  Its stdout is one JSON
# line, so the digest is kept instead of a golden file.
ATOM_SWEEP = ["verify", "theorem1", "--json", "--seed", "1", "--trials", "20"]
ATOM_SWEEP_SHA256 = "6c4e54b3e0b3c75b2c232bdc3d0a839e0bb3783d85561336d6e3c3984b924dd2"


# The other two workloads' operations at seed 1: "series-sweep" is one
# step, "closed-forms" two.
BENCHMARK_OPERATIONS = {
    "series-sweep": (
        ["verify", "theorem1", "--series", "--json", "--seed", "1", "--trials", "4",
         "--truncation", "25", "--max-n", "4", "--max-k", "2", "--max-m", "2"],
        "00cea55f96db28e7329b2624ac2c46eeb346a28ea8f0f10ce1c056dc03673b8b",
    ),
    "closed-forms-chebyshev": (
        ["chebyshev", "--json", "--max-n", "12"],
        "cf050bf59af933dfc15671b615116e6a5b1fe76be5eb4182d66dd84d73bfed30",
    ),
    "closed-forms-lemmas": (
        ["verify", "lemmas", "--json", "--seed", "1", "--trials", "10"],
        "a3a4e493a312a31e52f94d046a61722eb0b528807752a467f15dae1c3b1760f1",
    ),
}


# One series trial at every k the CLI accepts (k <= 7, 105 instances): the
# sides at n < k, where the p/q matrix has power columns, up to k - n = 7.
SERIES_MAX_K = ["verify", "theorem1", "--series", "--json", "--trials", "1", "--max-k", "7",
                "--truncation", "25"]
SERIES_MAX_K_SHA256 = "d322768d464f7fe5dfd8e613f92ce36424756059db5ca289bf0cd72214c84cf8"

# Series instances at n = 0 with up to 16 xs: the lhs is 1 and the rhs the
# det of the m p-rows alone (schur_minors at levels == 0).
SERIES_N0 = ["verify", "theorem1", "--series", "--json", "--trials", "1", "--max-n", "0",
             "--max-m", "16", "--max-k", "1", "--truncation", "15"]
SERIES_N0_SHA256 = "6048a6a994f7e752adea2490a02cefb1dfc06c5473062043534bf9b98facff13"


def _stdout_sha256(argv, capsys, monkeypatch) -> str:
    monkeypatch.delenv("OPIDENT_SEED", raising=False)
    code = main(argv)
    out, _ = capsys.readouterr()
    assert code == 0
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def test_atom_sweep_operation_stdout_digest(capsys, monkeypatch):
    assert _stdout_sha256(ATOM_SWEEP, capsys, monkeypatch) == ATOM_SWEEP_SHA256


def test_series_max_k_stdout_digest(capsys, monkeypatch):
    assert _stdout_sha256(SERIES_MAX_K, capsys, monkeypatch) == SERIES_MAX_K_SHA256


def test_series_n0_stdout_digest(capsys, monkeypatch):
    assert _stdout_sha256(SERIES_N0, capsys, monkeypatch) == SERIES_N0_SHA256


@pytest.mark.parametrize("name", sorted(BENCHMARK_OPERATIONS))
def test_benchmark_operation_stdout_digest(name, capsys, monkeypatch):
    argv, digest = BENCHMARK_OPERATIONS[name]
    assert _stdout_sha256(argv, capsys, monkeypatch) == digest


PERFBENCH = Path(__file__).parent.parent / "perfbench"


def test_benchmark_names_resolve(monkeypatch):
    # The tracer patches every (module, attribute path) of its LAYERS and
    # cases.py imports and calls opident names: a rename would otherwise
    # fail only a benchmark run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        tracer = importlib.import_module("tracer")
        importlib.import_module("cases")
        for targets in tracer.LAYERS.values():
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                for part in path.split("."):
                    owner = getattr(owner, part)
                assert callable(owner), (module_name, path)
        assert callable(MomentFunctional.modified_moment_series)  # called by cases.py
    finally:
        for name in ("workloads", "tracer", "cases"):
            sys.modules.pop(name, None)


def test_benchmark_cases_run(monkeypatch):
    # The layer cases of perfbench/cases.py are the only callers of
    # q_series and modified_moment_series outside the tests: run each once,
    # with one timed call per case, and check their exact counts.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        cases = importlib.import_module("cases")
        timed = []
        monkeypatch.setattr(cases, "_median_ms", lambda fn: timed.append(fn()) or 0.0)
        rng = random.Random(1)
        metrics = {**cases.det_cases(rng), **cases.series_cases(rng)}
    finally:
        for name in ("workloads", "tracer", "cases"):
            sys.modules.pop(name, None)
    assert len(timed) == 8
    for n in cases.DET_RATIONAL_SIZES:
        assert metrics[f"ring.det_rational.n{n}.bits"] > 0
    for k, _ in cases.SERIES_CASES:
        assert metrics[f"ring.series_mul.k{k}.terms_out"] > 0


@pytest.mark.parametrize("name", sorted(VALUE_CASES))
def test_report_values_match_golden(name):
    with open(GOLDEN / f"{name}.jsonl", encoding="utf-8") as fh:
        expected = fh.readlines()
    got = value_lines(name)
    assert len(got) == len(expected)
    for i, (g, e) in enumerate(zip(got, expected)):
        assert g == e, f"{name} line {i + 1}"


if __name__ == "__main__":
    for case in VALUE_CASES:
        with open(GOLDEN / f"{case}.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(value_lines(case))
