"""Byte-for-byte gates on CLI stdout and on every computed value.

Each ``tests/golden/NAME.out`` holds the stdout of one command below, run
from ``tests/golden`` with the default seed.  A refactor must leave every
file unchanged.  Regenerate one only when a change of output is intended:

    cd tests/golden && PYTHONPATH=../../src python -m opident.cli ARGS > NAME.out

A passing sweep prints only a summary, so each ``tests/golden/NAME.jsonl``
also pins the ``params``, ``lhs`` and ``rhs`` of every report of one sweep,
one JSON object a line.  ``atoms8-fractional.json`` has non-integer nodes
and weights (and one node, -1/3, that the y pool can hit).  Regenerate with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from opident.cli import main
from opident.identity import sweep_prop13, sweep_theorem1_atom
from opident.moments import functional_from_json

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

VALUE_CASES = {
    "theorem1-values": lambda: sweep_theorem1_atom(42, trials=2),
    "prop13-values": lambda: sweep_prop13(42, trials=2),
    "theorem1-fractional-values": lambda: sweep_theorem1_atom(
        42, trials=2,
        functional=functional_from_json((GOLDEN / "atoms8-fractional.json").read_text()),
    ),
}


def value_lines(name):
    lines = []
    for report in VALUE_CASES[name]():
        d = report.to_json_dict()
        row = {"params": d["params"], "lhs": d["lhs"], "rhs": d["rhs"]}
        lines.append(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")
    return lines


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("OPIDENT_SEED", raising=False)
    monkeypatch.chdir(GOLDEN)
    code = main(CASES[name])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


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
