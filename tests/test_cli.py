"""End-to-end command-line behaviour: verbs, exit codes, file formats."""

from __future__ import annotations

import json

import pytest

from hydrobrackets.cli import main
from hydrobrackets.expr import Zeroness, parse

TWO_PI = 6.283185307179586


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def scalar_file(tmp_path):
    return _write(
        tmp_path,
        "scalar.json",
        {
            "N": 1,
            "eta": [[1]],
            "K": 0,
            "H": ["u1^2/2"],
            "simulation": {
                "grid_M": 256,
                "L": TWO_PI,
                "dt": 0.001,
                "t_end": 0.2,
                "init": ["0.1*sin(x)"],
                "snapshots": [0.0, 0.2],
            },
        },
    )


@pytest.fixture
def canonical_file(tmp_path):
    return _write(
        tmp_path,
        "canonical.json",
        {"N": 2, "eta": [[1, 0], [0, 1]], "K": 2, "canonical": {"a": ["1", "3"]}},
    )


@pytest.fixture
def linear_file(tmp_path):
    return _write(
        tmp_path,
        "linear.json",
        {"N": 2, "eta": [[1, 0], [0, 1]], "K": 1, "H": ["2*u1 - u2", "u1 + 3*u2"]},
    )


def test_check_poisson_pass(canonical_file, capsys):
    assert main(["check-poisson", canonical_file]) == 0
    out = capsys.readouterr().out
    assert "verdict: POISSON" in out
    for name in ("s1", "s2", "s3", "s4", "s5"):
        assert f"{name}: PASS" in out


def test_check_poisson_failure_witness(tmp_path, capsys):
    path = _write(
        tmp_path,
        "bad.json",
        {
            "N": 2,
            "K": 1,
            "g": [["1", "0"], ["0", "1"]],
            "b": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
        },
    )
    assert main(["check-poisson", path]) == 1
    out = capsys.readouterr().out
    assert "s4: FAIL" in out and "witness" in out


def test_check_compat_and_pencil(linear_file, capsys):
    assert main(["check-compat", linear_file]) == 0
    assert "verdict: COMPATIBLE" in capsys.readouterr().out
    assert main(["check-pencil", linear_file]) == 0
    out = capsys.readouterr().out
    assert "POISSON PENCIL" in out and "local member" in out


def test_check_pencil_second_block(tmp_path, capsys):
    path = _write(
        tmp_path,
        "pencil.json",
        {
            "N": 2,
            "eta": [[1, 0], [0, 1]],
            "K": 1,
            "canonical": {"a": [1, 1]},
            "second": {"K": 1, "canonical": {"a": [2, 1]}},
        },
    )
    assert main(["check-pencil", path]) == 0


def test_check_canonical_exit_codes(linear_file, tmp_path, capsys):
    assert main(["check-canonical", linear_file]) == 0
    bad = _write(
        tmp_path,
        "sep.json",
        {"N": 2, "eta": [[1, 0], [0, 1]], "K": 1, "H": ["u1^2/2", "0"]},
    )
    assert main(["check-canonical", bad]) == 1
    out = capsys.readouterr().out
    assert "ass2: FAIL" in out


def test_schema_violations_exit_2(tmp_path, capsys):
    empty_h = _write(
        tmp_path, "emptyH.json", {"N": 2, "eta": [[1, 0], [0, 1]], "K": 1, "H": []}
    )
    assert main(["check-canonical", empty_h]) == 2
    asym = _write(
        tmp_path,
        "asym.json",
        {"N": 2, "eta": [[1, 2], [0, 1]], "K": 1, "H": ["u1", "u2"]},
    )
    assert main(["check-canonical", asym]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["check-poisson", missing]) == 2
    notjson = tmp_path / "bad.json"
    notjson.write_text("{")
    assert main(["check-poisson", str(notjson)]) == 2
    badexpr = _write(
        tmp_path,
        "badexpr.json",
        {"N": 1, "eta": [[1]], "K": 0, "H": ["u1 +* 2"]},
    )
    assert main(["check-canonical", badexpr]) == 2


def test_build_canonical_output(linear_file, capsys):
    assert main(["build-canonical", linear_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["g"][0][0] == "-u1^2 + 4"  # 2 c11 - K u1 u1 with eta = identity
    assert doc["b"][0][0][0] == "-u1"  # -K u^1


def test_liouville_verdicts(linear_file, tmp_path, capsys):
    assert main(["liouville", linear_file]) == 0
    assert "SPECIAL LIOUVILLE" in capsys.readouterr().out
    notliu = _write(
        tmp_path,
        "notliu.json",
        {
            "N": 2,
            "eta": [[1, 0], [0, 1]],
            "K": 0,
            "g": [["0", "0"], ["0", "0"]],
            "b": [[["u2", "-u1"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
        },
    )
    assert main(["liouville", notliu]) == 1
    assert "NOT LIOUVILLE" in capsys.readouterr().out


def test_hierarchy_values_and_round_trip(scalar_file, capsys):
    assert main(["hierarchy", scalar_file, "--levels", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    lv = {entry["level"]: entry for entry in doc["levels"]}
    assert parse(lv[1]["F"][0], ("v1",)).equals(
        parse("3/2*v1^2", ("v1",))
    ) is Zeroness.ZERO
    assert parse(lv[2]["V"][0][0], ("v1",)).equals(
        parse("15/2*v1^2", ("v1",))
    ) is Zeroness.ZERO
    # every emitted expression re-parses to an equal expression
    for entry in doc["levels"]:
        for text in entry["F"] + [entry["S"]] + [x for row in entry["V"] for x in row]:
            e = parse(text, ("v1",))
            assert parse(str(e), ("v1",)).equals(e) is Zeroness.ZERO
    assert doc["verdict"] == "PASS"


def test_hierarchy_rejects_bad_pair(tmp_path, capsys):
    bad = _write(
        tmp_path,
        "sep2.json",
        {"N": 2, "eta": [[1, 0], [0, 1]], "K": 1, "H": ["u1^2/2", "0"]},
    )
    assert main(["hierarchy", bad, "--levels", "2"]) == 1


@pytest.mark.parametrize(
    "command,option,value",
    [
        ("hierarchy", "--levels", "-2"),
        ("commute", "--levels", "-1"),
        ("simulate", "--level", "-1"),
    ],
)
def test_negative_level_is_input_error(
    scalar_file, tmp_path, monkeypatch, capsys, command, option, value
):
    monkeypatch.chdir(tmp_path)
    assert main([command, scalar_file, option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {option}: must be a non-negative integer\n"
    assert not list(tmp_path.glob("*.csv"))


def test_simulate_pass_and_outputs(scalar_file, tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(["simulate", scalar_file, "--out", str(outdir)]) == 0
    text = capsys.readouterr().out
    assert "verdict: PASS" in text
    diag = (outdir / "diag.csv").read_text().strip().split("\n")
    assert diag[0] == "t,U_1,momentum,H1,H2,max_vx,tail"
    assert len(diag) == 202  # header + initial row + 200 steps
    assert (outdir / "snap_0.csv").exists()
    assert (outdir / "snap_0.2.csv").exists()


def test_simulate_breaking_exit_3(tmp_path, capsys):
    doc = {
        "N": 1,
        "eta": [[1]],
        "K": 0,
        "H": ["u1^2/2"],
        "simulation": {
            "grid_M": 256,
            "L": TWO_PI,
            "dt": 0.001,
            "t_end": 10.0,
            "init": ["0.1*sin(x)"],
        },
    }
    path = _write(tmp_path, "breaking.json", doc)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["simulate", path, "--out", str(tmp_path / "o")]) == 3
    assert "BREAKING" in capsys.readouterr().out


def test_simulate_cfl_warning_reported(tmp_path, capsys):
    doc = {
        "N": 1,
        "eta": [[1]],
        "K": 0,
        "H": ["u1^2/2"],
        "simulation": {
            "grid_M": 256,
            "L": TWO_PI,
            "dt": 0.5,
            "t_end": 1.0,
            "init": ["0.1*sin(x)"],
        },
    }
    path = _write(tmp_path, "cfl.json", doc)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        main(["simulate", path, "--out", str(tmp_path / "o2")])
    assert "CFL" in capsys.readouterr().out


def test_commute_command(scalar_file, capsys):
    assert main(["commute", scalar_file, "--levels", "2"]) == 0
    out = capsys.readouterr().out
    assert "numeric t1 vs t2" in out and "verdict: PASS" in out


def test_reports_are_deterministic(canonical_file, capsys):
    main(["check-poisson", canonical_file, "--json"])
    first = capsys.readouterr().out
    main(["check-poisson", canonical_file, "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_rationals_in_json_are_exact(tmp_path):
    # 0.1 in a problem file must become exactly 1/10
    path = _write(
        tmp_path,
        "exact.json",
        {"N": 1, "eta": [[0.1]], "K": 0, "H": ["u1"]},
    )
    from hydrobrackets.cli import load_problem
    from fractions import Fraction

    prob = load_problem(path)
    assert prob.eta.up[0][0] == Fraction(1, 10)
