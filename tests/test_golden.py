"""Byte-for-byte gate on CLI stdout.

Each ``tests/golden/NAME.out`` holds the stdout of one command below, run
from ``tests/golden`` with the default seed.  A refactor must leave every
file unchanged.  Regenerate one only when a change of output is intended:

    cd tests/golden && PYTHONPATH=../../src python -m opident.cli ARGS > NAME.out
"""

from pathlib import Path

import pytest

from opident.cli import main

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("OPIDENT_SEED", raising=False)
    monkeypatch.chdir(GOLDEN)
    code = main(CASES[name])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()
