import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import opident.identity as identity
from opident.cli import main
from opident.identity import VerificationReport


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_verify_theorem1_small_run(capsys):
    code, out, _ = run_cli(
        ["verify", "theorem1", "--max-n", "3", "--max-k", "2", "--max-m", "2",
         "--trials", "2", "--seed", "42"],
        capsys,
    )
    assert code == 0
    assert "PASS" in out


def test_verify_theorem1_trivial_n0(capsys):
    code, out, _ = run_cli(
        ["verify", "theorem1", "--max-n", "0", "--max-k", "1", "--max-m", "1",
         "--trials", "1", "--seed", "1"],
        capsys,
    )
    assert code == 0


def test_verify_theorem1_series_small(capsys):
    code, out, _ = run_cli(
        ["verify", "theorem1", "--series", "--max-n", "2", "--max-k", "2",
         "--max-m", "1", "--trials", "1", "--truncation", "12", "--seed", "3",
         "--json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_equal"] is True
    assert payload["first_counterexample"] is None


def test_malformed_functional_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(
        ["verify", "theorem1", "--functional", str(bad), "--trials", "1"], capsys
    )
    assert code == 2
    assert "malformed" in err or "error" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(["hankel", "--n", "2", "--functional", "/nope.json"], capsys)
    assert code == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # missing target
    assert exc.value.code == 2


def test_hankel_chebyshev(capsys):
    code, out, _ = run_cli(["hankel", "--n", "5"], capsys)
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run_cli(["hankel", "--n", "0"], capsys)
    assert code == 0
    assert out.strip() == "1"


def test_hankel_pole_exits_1(tmp_path, capsys):
    path = tmp_path / "atoms.json"
    path.write_text('{"type":"atoms","atoms":[["0","1"],["2","1/2"]]}')
    code, _, err = run_cli(
        ["hankel", "--n", "1", "--functional", str(path), "--ys", "2"], capsys
    )
    assert code == 1
    assert "atom" in err


def test_hankel_horizon_exits_1(tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text('{"type":"sequence","moments":["1","0","1/2"]}')
    code, _, err = run_cli(["hankel", "--n", "4", "--functional", str(path)], capsys)
    assert code == 1
    assert "horizon" in err


@pytest.mark.parametrize("n", ["0", "3"])
def test_hankel_ys_without_atoms_exits_2(tmp_path, capsys, n):
    # rational ys need a finite-atom functional: bad input, not a mismatch,
    # refused before anything is computed (n = 0 used to print 1)
    path = tmp_path / "seq.json"
    path.write_text('{"type":"sequence","moments":["1","0","1/2","0","3/8"]}')
    for functional in ([], ["--functional", str(path)]):
        code, out, err = run_cli(["hankel", "--n", n, "--ys", "3", *functional], capsys)
        assert (code, out) == (2, "")
        assert "finite-atom functional" in err
    code, out, _ = run_cli(["hankel", "--n", "2", "--xs", "3"], capsys)
    assert code == 0 and out.strip() == "8"


def test_hankel_modified(tmp_path, capsys):
    path = tmp_path / "atoms.json"
    path.write_text('{"type":"atoms","atoms":[["0","1"]]}')
    code, out, _ = run_cli(
        ["hankel", "--n", "1", "--functional", str(path), "--xs", "3", "--ys", "2"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "3/2"


UVAROV_ATOMS = json.dumps(
    {
        "type": "atoms",
        "atoms": [[str(u), str(w)] for u, w in
                  [(0, 2), (1, 1), (-1, 1), (3, -1), (-3, 2), (5, 1), (-5, 1),
                   (7, 1), (-7, 2), (2, 3)]],
    }
)


def test_uvarov_json_schema(tmp_path, capsys):
    path = tmp_path / "atoms.json"
    path.write_text(UVAROV_ATOMS)
    code, out, _ = run_cli(
        ["uvarov", "--functional", str(path), "--ys", "1/3", "--max-n", "3", "--json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["orthogonal"] is True
    assert [row["n"] for row in payload["polynomials"]] == [0, 1, 2, 3]
    assert all(isinstance(row["degree_ok"], bool) for row in payload["polynomials"])
    gram = payload["gram"]
    assert all(gram[i][j] == "0" for i in range(4) for j in range(4) if i != j)


def test_uvarov_unmodified(tmp_path, capsys):
    path = tmp_path / "atoms.json"
    path.write_text(UVAROV_ATOMS)
    code, out, _ = run_cli(
        ["uvarov", "--functional", str(path), "--max-n", "2", "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["orthogonal"] is True


def test_degenerate_functional_exits_1(tmp_path, capsys):
    # two atoms cannot support the depth an (n,k,m) <= (3,2,2) sweep needs
    path = tmp_path / "two.json"
    path.write_text('{"type":"atoms","atoms":[["1","1/2"],["-1","1/2"]]}')
    code, _, err = run_cli(
        ["verify", "theorem1", "--functional", str(path), "--trials", "1",
         "--max-n", "3", "--max-k", "2", "--max-m", "2"],
        capsys,
    )
    assert code == 1
    assert "H(" in err


def test_series_rejects_functional_flag(tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text('{"type":"sequence","moments":["1","0","1/2"]}')
    code, _, err = run_cli(
        ["verify", "theorem1", "--series", "--functional", str(path)], capsys
    )
    assert code == 2


@pytest.mark.parametrize(
    "flag,values,value",
    [("--ys", "2/3,2/3", "2/3"), ("--xs-fixed", "1/2,1/2", "1/2")],
    ids=["ys", "xs-fixed"],
)
def test_uvarov_repeated_parameter_exits_2(tmp_path, capsys, flag, values, value):
    # A repeated pole or fixed zero makes a Vandermonde vanish: bad input,
    # refused with the parameter named, not a failed division.
    path = tmp_path / "atoms.json"
    path.write_text(UVAROV_ATOMS)
    code, out, err = run_cli(["uvarov", "--functional", str(path), flag, values], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "repeated" in err and value in err
    assert "Traceback" not in err


def test_uvarov_fixed_x_on_atom_node_exits_2(capsys):
    # x_2 = 1 is a node of atoms7.json: the modified density loses that atom
    path = Path(__file__).parent / "golden" / "atoms7.json"
    code, out, err = run_cli(
        ["uvarov", "--functional", str(path), "--xs-fixed", "1", "--max-n", "2"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "kills the atom" in err
    assert "Traceback" not in err


def test_uvarov_text_mode_matches_json(capsys):
    path = str(Path(__file__).parent / "golden" / "atoms7.json")
    argv = ["uvarov", "--functional", path, "--ys", "1/3", "--max-n", "2"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    code, js, _ = run_cli(argv + ["--json"], capsys)
    assert code == 0
    payload = json.loads(js)
    lines = out.splitlines()
    assert lines[:3] == [
        f"P_{row['n']}: {row['coefficients']}" for row in payload["polynomials"]
    ]
    assert [ast.literal_eval(line.split(": ", 1)[1]) for line in lines[:3]] == [
        row["coefficients"] for row in payload["polynomials"]
    ]
    assert lines[3] == "gram:"
    assert [line.split() for line in lines[4:7]] == payload["gram"]
    assert lines[7:] == ["orthogonal: yes"]


_NON_STRING_ATOMS = '{"type":"atoms","atoms":[[0,1]]}'


@pytest.mark.parametrize(
    "document, argv, named",
    [
        (_NON_STRING_ATOMS, ["hankel", "--n", "1"], "atoms"),
        (_NON_STRING_ATOMS, ["uvarov"], "atoms"),
        (_NON_STRING_ATOMS, ["verify", "theorem1", "--trials", "1"], "atoms"),
        ('{"type":"atoms","atoms":[["0",null]]}', ["hankel", "--n", "1"], "atoms"),
        ('{"type":"atoms","atoms":[[true,"1"]]}', ["hankel", "--n", "1"], "atoms"),
        ('{"type":"sequence","moments":[1,2,3]}', ["hankel", "--n", "1"], "moments"),
    ],
    ids=["number-hankel", "number-uvarov", "number-theorem1", "null", "boolean", "moments"],
)
def test_non_string_rational_exits_2(tmp_path, capsys, document, argv, named):
    # Rationals travel as strings "p/q"; a JSON number, null or boolean is
    # refused with the field named instead of ending in a traceback.
    path = tmp_path / "f.json"
    path.write_text(document)
    code, out, err = run_cli(argv + ["--functional", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed functional JSON") and named in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "document, named",
    [
        ('{"type":"atoms","atoms":["12","34"]}', "atoms"),
        ('{"type":"atoms","atoms":{"1":"2"}}', "atoms"),
        ('{"type":"atoms","atoms":[["1","2","3"]]}', "atoms"),
        ('{"type":"atoms","atoms":"12"}', "atoms"),
        ('{"type":"sequence","moments":"123"}', "moments"),
        ('{"type":"sequence","moments":{"0":"1"}}', "moments"),
    ],
    ids=["atoms-strings", "atoms-object", "atoms-triple", "atoms-string",
         "moments-string", "moments-object"],
)
def test_malformed_functional_containers_exit_2(tmp_path, capsys, document, named):
    # `atoms` is a list of [node, weight] pairs and `moments` a list; a string
    # or an object there used to be unpacked character by character.
    path = tmp_path / "f.json"
    path.write_text(document)
    code, out, err = run_cli(["hankel", "--n", "2", "--functional", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: malformed functional JSON: {named}:")
    assert err.count("\n") == 1


def test_deeply_nested_functional_exits_2(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text("[" * 100_000)
    code, out, err = run_cli(["hankel", "--n", "1", "--functional", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed functional JSON: ") and err.count("\n") == 1


def test_uvarov_vanishing_hankel_exits_1(capsys):
    # a 7-atom functional has H(8) = 0, so p_8 does not exist
    path = str(Path(__file__).parent / "golden" / "atoms7.json")
    code, out, err = run_cli(["uvarov", "--functional", path, "--max-n", "8"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: Hankel determinant H(8) vanishes\n"


def test_non_utf8_functional_exits_2(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_bytes(b"\xff\xfe{")
    code, out, err = run_cli(["hankel", "--n", "1", "--functional", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read functional file") and err.count("\n") == 1


# Fuzzing the input boundary: wire rationals "p/q" with small ints mixed
# with junk.  Strings stay at most 4 characters, so no value nears Python's
# int-to-str digit limit.
def _mostly(common, rare):
    """`common` nine times in ten, else `rare`."""
    return st.integers(0, 9).flatmap(lambda i: rare if i == 0 else common)


_junk = st.one_of(
    st.integers(-9, 9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
    st.booleans(),
    st.lists(st.integers(-9, 9), max_size=2),
    st.text(max_size=4),
)
_wire = st.builds(
    "{}/{}".format, st.integers(-9, 9), _mostly(st.integers(1, 3), st.integers(-3, 0))
)
_value = _mostly(_wire, _junk)
_document = _mostly(
    st.one_of(
        st.fixed_dictionaries(
            {"type": st.just("atoms"),
             "atoms": st.lists(_mostly(st.tuples(_value, _value), _junk), max_size=4)}
        ),
        st.fixed_dictionaries(
            {"type": st.just("sequence"), "moments": st.lists(_value, max_size=8)}
        ),
        st.fixed_dictionaries({"type": st.sampled_from(["chebyshev", "bogus"])}),
    ),
    _junk,
)
_flag_list = st.lists(_mostly(_wire, st.text(max_size=4)), max_size=3).map(",".join)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    document=_document,
    command=st.sampled_from(["hankel", "uvarov", "theorem1"]),
    n=st.integers(0, 3),
    xs=_flag_list,
    ys=_flag_list,
)
def test_fuzzed_input_exits_cleanly(tmp_path, capsys, document, command, n, xs, ys):
    # Whatever the functional file and the rational-list flags hold, main()
    # returns 0, 1 or 2 and never raises; exit 2 prints one line.  The file is
    # rewritten for every example.
    path = tmp_path / "f.json"
    path.write_text(json.dumps(document))
    functional = ["--functional", str(path)]
    argv = {
        "hankel": ["hankel", "--n", str(n), *functional, f"--xs={xs}", f"--ys={ys}"],
        "uvarov": ["uvarov", *functional, "--max-n", str(n % 2), f"--ys={ys}",
                   f"--xs-fixed={xs}"],
        "theorem1": ["verify", "theorem1", *functional, "--trials", "1", "--max-n", "1",
                     "--max-k", "1", "--max-m", "1"],
    }[command]
    code, _, err = run_cli(argv, capsys)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["hankel", "--n", "-1"],
        ["verify", "theorem1", "--series", "--truncation", "0"],
        ["verify", "theorem1", "--trials", "-1", "--json"],
        ["verify", "theorem1", "--max-n", "-1", "--json"],
        ["verify", "theorem1", "--max-k", "-2", "--json"],
        ["verify", "theorem1", "--max-m", "-1", "--json"],
        ["verify", "prop13", "--max-n", "-1", "--json"],
        ["verify", "lemmas", "--max-n", "-1", "--json"],
        ["uvarov", "--functional", "unused.json", "--max-n", "-1"],
        ["chebyshev", "--max-n", "0", "--json"],
        ["chebyshev", "--max-n", "-1", "--json"],
    ],
)
def test_out_of_range_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    _, err = capsys.readouterr()
    assert exc.value.code == 2
    assert "must be >=" in err


def test_atom_sweep_deeper_than_atom_count_exits_2(capsys):
    # depth max_n + max(max_m, 1) - 1 = 9 > 8 atoms: H(9) always vanishes, so
    # no random draw could succeed.  With max_m = 0 the k = 0 instance at
    # n = max_n still divides by H(max_n), so the depth stays max_n.
    for shape in (["--max-n", "8", "--max-m", "2"], ["--max-n", "9", "--max-m", "0"]):
        code, out, err = run_cli(
            ["verify", "theorem1", *shape, "--max-k", "1", "--trials", "1", "--json"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "= 9 not supported" in err and "H(9)" in err
        assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, instances",
    [
        (["verify", "prop13", "--max-n", "6"], 35),  # 7 n's x 5 shapes
        (["verify", "lemmas", "--max-n", "7"], 14 + 325),  # lemmas 8, 9 per n + Jacobi
    ],
)
def test_sweep_runs_the_max_n_it_echoes(argv, instances, capsys):
    code, out, _ = run_cli(argv + ["--trials", "1", "--json"], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["all_equal"] is True
    assert payload["config"]["max_n"] == int(argv[3])
    assert payload["instances"] == instances


def test_prop13_deeper_than_atom_count_exits_2(capsys):
    # depth max_n + 2 = 9 > 8 atoms
    argv = ["verify", "prop13", "--max-n", "7", "--trials", "1", "--json"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "max_n <= 6" in err


def test_series_max_k_zero_exits_2(capsys):
    # series mode has no k = 0 instance; it used to echo "max_k":0 and run k = 1
    argv = ["verify", "theorem1", "--series", "--max-k", "0", "--trials", "1",
            "--truncation", "8", "--json"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "k >= 1" in err


def test_series_default_shape_is_what_runs(capsys):
    argv = ["verify", "theorem1", "--series", "--trials", "1", "--truncation", "8", "--json"]
    code, out, _ = run_cli(argv, capsys)
    payload = json.loads(out)
    assert code == 0 and payload["all_equal"] is True
    config = payload["config"]
    assert (config["max_n"], config["max_k"], config["max_m"]) == (4, 2, 2)
    assert payload["instances"] == 2 * 3 * 5  # k in 1..2, m in 0..2, n in 0..4


@pytest.mark.parametrize("truncation", ["1", "7"])
def test_series_truncation_that_compares_nothing_exits_2(truncation, capsys):
    # The cleared lhs of n = 4, k = 2 starts at total degree 4 * 2 - C(2, 2) = 7,
    # so below T = 8 it has no coefficient to compare; the default shape at
    # T = 8 runs in test_series_default_shape_is_what_runs.
    argv = ["verify", "theorem1", "--series", "--trials", "1", "--truncation", truncation,
            "--json"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--truncation at least 8" in err


def test_series_truncation_that_draws_no_moment_exits_2(capsys):
    # At max_n = max_m = 0 and k = 1 the moment draw runs to mu_(T - 2), so
    # T = 1 draws no moment at all: the refusal names the truncation, not the
    # sweep depth, and T = 2 runs the one instance
    argv = ["verify", "theorem1", "--series", "--max-n", "0", "--max-m", "0", "--max-k", "1",
            "--trials", "1", "--json"]
    code, out, err = run_cli(argv + ["--truncation", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --truncation 1 ") and "--truncation at least 2" in err
    assert "sweep depth" not in err
    code, out, _ = run_cli(argv + ["--truncation", "2"], capsys)
    assert code == 0 and json.loads(out)["instances"] == 1


@pytest.mark.parametrize("max_n, max_m, least", [(0, 19, 18), (1, 6, 5)])
def test_series_truncation_short_of_the_ortho_build_exits_2(max_n, max_m, least, capsys,
                                                            monkeypatch):
    # At k = 1 the moment draw runs to mu_h, h = 2 max_n - 2 + max_m + T, and
    # build_ortho_system reads on to mu_(2 depth - 1), depth = max_n + max_m - 1:
    # one T short the run exits 2 naming the least T, not 1 on a horizon
    # error.  At the least T the draw and the build run, and every instance
    # is handed to verify_theorem1, stubbed here: at m = 19 the p-row minors
    # alone take seconds.
    argv = ["verify", "theorem1", "--series", "--max-n", str(max_n), "--max-m", str(max_m),
            "--max-k", "1", "--trials", "1", "--json", "--truncation"]
    code, out, err = run_cli(argv + [str(least - 1)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --truncation {least - 1} draws too few moments")
    assert f"--truncation at least {least}" in err
    depths = []
    monkeypatch.setattr(identity, "verify_theorem1", lambda sys, inst: depths.append(sys.depth)
                        or VerificationReport("theorem1", inst.params(), None, None, True))
    code, out, _ = run_cli(argv + [str(least)], capsys)
    assert code == 0 and json.loads(out)["instances"] == (max_n + 1) * (max_m + 1)
    assert set(depths) == {max_n + max_m - 1}


@pytest.mark.parametrize("argv, refused, pool", [
    (["--max-n", "1", "--max-k", "40", "--max-m", "0"], "--max-k 40 needs 40 distinct ys", 22),
    (["--max-n", "0", "--max-k", "23", "--max-m", "0"], "--max-k 23 needs 23 distinct ys", 22),
    (["--max-n", "0", "--max-k", "0", "--max-m", "32"], "--max-m 32 needs 32 distinct xs", 31),
    (["--series", "--max-m", "25"], "--max-m 25 needs 25 distinct xs", 19),
    (["--series", "--max-n", "0", "--max-k", "1", "--max-m", "20", "--truncation", "40"],
     "--max-m 20 needs 20 distinct xs", 19),
])
def test_theorem1_draw_beyond_the_pool_exits_2(argv, refused, pool, capsys):
    # The sweep draws distinct ys from 22 thirds (atom mode) and distinct xs
    # from 31 halves (atom mode) or 19 integers (series mode): a larger
    # --max-k or --max-m is refused up front, naming the pool
    code, out, err = run_cli(["verify", "theorem1", *argv, "--trials", "1", "--json"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {refused}; the sweep draws them from a pool of {pool}\n"


@pytest.mark.parametrize("argv, instances", [
    (["--max-n", "0", "--max-k", "22", "--max-m", "0"], 23),
    (["--series", "--max-n", "0", "--max-k", "1", "--max-m", "19", "--truncation", "40"], 20),
])
def test_theorem1_draw_of_the_whole_pool_runs(argv, instances, capsys):
    code, out, _ = run_cli(["verify", "theorem1", *argv, "--trials", "1", "--json"], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["all_equal"] is True and payload["instances"] == instances


@pytest.mark.parametrize("max_k", ["8"])
def test_series_max_k_above_limit_exits_2(max_k, capsys):
    argv = ["verify", "theorem1", "--series", "--max-k", max_k, "--trials", "1",
            "--truncation", "25", "--json"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "k <= 7" in err


def test_max_k_help_states_the_series_limit(capsys):
    # the --max-k help names the k that series mode refuses beyond
    from opident.cli import _SERIES_MAX_K

    with pytest.raises(SystemExit) as exc:
        main(["verify", "theorem1", "--help"])
    assert exc.value.code == 0
    shown = " ".join(capsys.readouterr().out.split())
    assert f"--max-k MAX_K default 3; with --series default 2, at most {_SERIES_MAX_K}" in shown
    argv = ["verify", "theorem1", "--series", "--max-k", str(_SERIES_MAX_K + 1), "--trials", "1"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2 and f"k <= {_SERIES_MAX_K} " in err


def test_series_max_k_4_passes(capsys):
    # the default series shape with k up to 4 at the default truncation 25
    argv = ["verify", "theorem1", "--series", "--max-k", "4", "--trials", "1", "--json"]
    code, out, _ = run_cli(argv, capsys)
    payload = json.loads(out)
    assert code == 0 and payload["all_equal"] is True and payload["failures"] == 0
    assert payload["config"]["max_k"] == 4
    assert payload["instances"] == 4 * 3 * 5  # k in 1..4, m in 0..2, n in 0..4


def test_series_max_k_3_runs_and_echoes_it(capsys):
    argv = ["verify", "theorem1", "--series", "--max-n", "2", "--max-k", "3", "--max-m", "1",
            "--trials", "1", "--truncation", "8", "--json"]
    code, out, _ = run_cli(argv, capsys)
    payload = json.loads(out)
    assert code == 0 and payload["all_equal"] is True
    assert payload["config"]["max_k"] == 3
    assert payload["instances"] == 3 * 2 * 3  # k in 1..3, m in 0..1, n in 0..2


def test_series_runs_the_max_n_and_max_m_it_echoes(capsys):
    # n and m run as given: clamped to n <= 4 and m <= 2 this would be 15
    # instances under an echo of 5 and 3
    argv = ["verify", "theorem1", "--series", "--max-n", "5", "--max-k", "1",
            "--max-m", "3", "--trials", "1", "--truncation", "8", "--json"]
    code, out, _ = run_cli(argv, capsys)
    payload = json.loads(out)
    assert code == 0 and payload["all_equal"] is True
    assert (payload["config"]["max_n"], payload["config"]["max_m"]) == (5, 3)
    assert payload["instances"] == 1 * 4 * 6


@pytest.mark.parametrize("series", [False, True])
def test_verify_theorem1_depth_zero(series, capsys):
    # max_n = max_m = 0 leaves only the power-column instances (n = 0, m = 0).
    argv = ["verify", "theorem1", "--max-n", "0", "--max-m", "0", "--max-k", "2",
            "--trials", "1", "--json"]
    code, out, _ = run_cli(argv + (["--series", "--truncation", "8"] if series else []), capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["all_equal"] is True
    assert payload["instances"] == (2 if series else 3)


def test_uvarov_requires_atoms(tmp_path, capsys):
    path = tmp_path / "cheb.json"
    path.write_text('{"type":"chebyshev"}')
    code, _, err = run_cli(["uvarov", "--functional", str(path)], capsys)
    assert code == 2


def test_zero_denominator_inputs_exit_2(tmp_path, capsys):
    code, _, err = run_cli(["hankel", "--n", "1", "--xs", "1/0"], capsys)
    assert code == 2
    path = tmp_path / "bad.json"
    path.write_text('{"type":"atoms","atoms":[["1","1/0"]]}')
    code, _, err = run_cli(["hankel", "--n", "1", "--functional", str(path)], capsys)
    assert code == 2


def test_uvarov_degenerate_degree_is_warning_not_failure(tmp_path, capsys):
    # dropped degree is a documented scenario: exit 0, degree_ok carries it
    path = tmp_path / "atoms.json"
    path.write_text(
        '{"type":"atoms","atoms":[["3","-1"],["1","-2"],["0","-2"],["4","2"],["-3","2"]]}'
    )
    code, out, _ = run_cli(
        ["uvarov", "--functional", str(path), "--ys", "1/2", "--max-n", "3", "--json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    flags = [row["degree_ok"] for row in payload["polynomials"]]
    assert flags == [True, True, False, True]
    assert payload["orthogonal"] is True


def test_report_sweep_serializes_first_counterexample(capsys):
    from opident.cli import _report_sweep
    from opident.identity import VerificationReport
    import argparse

    rep_ok = VerificationReport("theorem1", {"n": 1}, 1, 1, True)
    rep_bad = VerificationReport("theorem1", {"n": 2}, 1, 2, False)
    args = argparse.Namespace(json=True)
    code = _report_sweep([rep_ok, rep_bad], args, "verify theorem1", {"seed": 0})
    out, _ = capsys.readouterr()
    assert code == 1
    payload = json.loads(out)
    assert payload["failures"] == 1
    assert payload["first_counterexample"]["params"] == {"n": 2}


def test_series_counterexample_json_holds_both_series(capsys, monkeypatch):
    from opident import identity

    sign = identity.theorem1_sign
    monkeypatch.setattr(identity, "theorem1_sign",
                        lambda n, k, m: -sign(n, k, m) if n else sign(n, k, m))
    argv = ["verify", "theorem1", "--series", "--max-n", "1", "--max-k", "1", "--max-m", "0",
            "--trials", "1", "--truncation", "3", "--seed", "1", "--json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    payload = json.loads(out)
    assert (payload["instances"], payload["failures"]) == (2, 1)
    assert payload["first_counterexample"] == {
        "identity": "theorem1",
        "params": {"n": 1, "k": 1, "m": 0, "xs": [], "ys": ["y1"], "mode": "series"},
        "lhs": "2*y1^-1 + 3*y1^-2 + O(deg 3)",
        "rhs": "-2*y1^-1 - 3*y1^-2 + O(deg 3)",
        "equal": False,
        "compared_order": 3,
        "note": "denominator-cleared comparison; first differing coefficient at exponents (1,)",
    }


def test_text_counterexample_line_matches_json(capsys, monkeypatch):
    from opident import identity

    sign = identity.theorem1_sign
    monkeypatch.setattr(identity, "theorem1_sign",
                        lambda n, k, m: -sign(n, k, m) if n else sign(n, k, m))
    argv = ["verify", "theorem1", "--max-n", "2", "--max-k", "1", "--max-m", "1",
            "--trials", "1", "--seed", "1"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    code, js, _ = run_cli(argv + ["--json"], capsys)
    assert code == 1
    payload = json.loads(js)
    lines = out.splitlines()
    prefix = "FAIL  first counterexample: "
    assert lines[0] == f"verify theorem1: {payload['instances']} instances checked"
    assert len(lines) == 2 and lines[1].startswith(prefix)
    assert json.loads(lines[1][len(prefix):]) == payload["first_counterexample"]


def test_chebyshev_json_schema(capsys):
    code, out, _ = run_cli(["chebyshev", "--max-n", "3", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_theorems_hold"] is True
    for row in payload["closed_forms"]:
        assert set(row) == {"id", "n", "lhs", "rhs", "equal", "note"}
    row_7_11 = [r for r in payload["closed_forms"] if r["id"] == "7.11" and r["n"] == 2]
    assert row_7_11[0]["lhs"] == "1/4"
    conj17 = [r for r in payload["conjectures"] if r["id"] == "7.17" and r["n"] == 1]
    assert conj17[0]["equal"] is False  # reported, not suppressed


def test_chebyshev_max_n_bounds_closed_forms(capsys):
    code, out, _ = run_cli(["chebyshev", "--max-n", "3", "--json"], capsys)
    assert code == 0
    rows = json.loads(out)["closed_forms"]
    assert len(rows) == 18
    assert all(r["n"] <= 3 for r in rows)


def test_chebyshev_conjectures_do_not_affect_exit_code(capsys):
    code, out, _ = run_cli(["chebyshev", "--max-n", "2"], capsys)
    assert code == 0
    assert out.splitlines()[:9] == [
        "7.9  (n <= 2, a grid): all equal",
        "7.13 (n <= 2, a,b grid): all equal",
        "7.10: all equal",
        "7.11: all equal",
        "7.12: all equal",
        "7.15: all equal",
        "7.16: stated case labels FAIL (rotated by one)",
        "7.16-corrected: all equal",
        "conjectures:",
    ]
    assert "  7.17 n=1: fails  lhs=Y + 1  rhs=2*Y - 1" in out  # printed, not suppressed


def test_json_determinism_same_config():
    cmd = [
        sys.executable, "-m", "opident.cli", "verify", "theorem1",
        "--max-n", "2", "--max-k", "1", "--max-m", "1", "--trials", "2",
        "--seed", "77", "--json",
    ]
    a = subprocess.run(cmd, capture_output=True, check=True).stdout
    b = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert a == b


def test_cli_import_leaves_out_dataclasses():
    # each CLI run is a fresh process: the package's records are plain
    # classes, so importing the CLI skips dataclasses and what it pulls in
    heavy = ("dataclasses", "inspect", "ast", "dis")
    code = f"import sys, opident.cli; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True).stdout
    assert out.decode().strip() == "[]"


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("OPIDENT_SEED", "123")
    code, out1, _ = run_cli(
        ["verify", "theorem1", "--max-n", "2", "--max-k", "1", "--max-m", "1",
         "--trials", "1", "--json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out1)["config"]["seed"] == 123


def test_selftest(capsys):
    code, out, _ = run_cli(["selftest", "--seed", "5"], capsys)
    assert code == 0
    assert out.count("PASS") >= 5
    assert "FAIL" not in out
