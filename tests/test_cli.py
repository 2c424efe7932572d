"""End-to-end command-line behaviour: verbs, exit codes, file formats."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from hydrobrackets.cli import main
from hydrobrackets.expr import Zeroness, is_zero, parse

TWO_PI = 6.283185307179586


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _strict_json(text):
    """``json.loads`` that refuses NaN, Infinity and -Infinity, which are
    not JSON (RFC 8259)."""

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


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


def test_liouville_computes_phi_once(monkeypatch, capsys):
    from hydrobrackets import bracket, cli

    calls = []

    def counted(B):
        calls.append(B)
        return liouville_function(B)

    # counted wherever it is looked up: in the command and in the library
    liouville_function = bracket.liouville_function
    for module in (bracket, cli):
        monkeypatch.setattr(module, "liouville_function", counted)
    path = Path(__file__).resolve().parent / "golden" / "failing_liouville_n2.json"
    assert main(["liouville", str(path)]) == 1
    assert "LIOUVILLE, NOT SPECIAL" in capsys.readouterr().out
    assert len(calls) == 1


def test_hierarchy_values_and_round_trip(scalar_file, capsys):
    assert main(["hierarchy", scalar_file, "--levels", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    lv = {entry["level"]: entry for entry in doc["levels"]}
    F1, V2 = parse(lv[1]["F"][0], ("v1",)), parse(lv[2]["V"][0][0], ("v1",))
    assert is_zero(F1 - parse("3/2*v1^2", ("v1",))) is Zeroness.ZERO
    assert is_zero(V2 - parse("15/2*v1^2", ("v1",))) is Zeroness.ZERO
    # every emitted expression re-parses to an equal expression
    for entry in doc["levels"]:
        for text in entry["F"] + [entry["S"]] + [x for row in entry["V"] for x in row]:
            e = parse(text, ("v1",))
            assert is_zero(parse(str(e), ("v1",)) - e) is Zeroness.ZERO
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


@pytest.mark.parametrize(
    "args",
    [
        ("hierarchy", "--levels"),
        ("hierarchy", "--gauge", "zero", "--levels"),
        ("commute", "--levels"),
        ("simulate", "--level"),
    ],
    ids=lambda args: "-".join(args),
)
def test_a_level_above_the_bound_is_input_error(scalar_file, tmp_path, monkeypatch, capsys, args):
    # a level past the index range; one that fits an index would allocate
    # a list of that many entries before the bound existed
    monkeypatch.chdir(tmp_path)
    command, *options = args
    assert main([command, scalar_file, *options, str(10**20)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the bound is cli.MAX_LEVELS, as the README documents it
    assert captured.err == f"input error: {options[-1]}: must be at most 100\n"
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


def test_simulate_dealias_changes_the_run(tmp_path, capsys):
    # the mode-8 component at M = 32 makes v v_x alias past the 2/3 cut
    doc = {
        "N": 1,
        "eta": [[1]],
        "K": 0,
        "H": ["u1^2/2"],
        "simulation": {
            "grid_M": 32,
            "L": TWO_PI,
            "dt": 0.01,
            "t_end": 0.1,
            "init": ["0.1*sin(x) + 0.05*sin(8*x)"],
        },
    }
    path = _write(tmp_path, "rough.json", doc)
    assert main(["simulate", path, "--out", str(tmp_path / "plain")]) == 1
    assert main(["simulate", path, "--dealias", "--out", str(tmp_path / "dealiased")]) == 0
    assert "verdict: PASS" in capsys.readouterr().out
    plain = (tmp_path / "plain" / "diag.csv").read_text()
    dealiased = (tmp_path / "dealiased" / "diag.csv").read_text()
    assert plain.split("\n")[0] == dealiased.split("\n")[0]
    assert plain != dealiased


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
    assert main(["simulate", path, "--out", str(tmp_path / "o")]) == 3
    assert "BREAKING" in capsys.readouterr().out
    # the JSON report carries the verdict word too
    assert main(["simulate", path, "--out", str(tmp_path / "o"), "--json"]) == 3
    obj = _strict_json(capsys.readouterr().out)
    assert obj["verdict"] == "BREAKING"
    assert obj["status"] == "breaking"


@pytest.mark.parametrize(
    "args",
    [
        ["hierarchy", "{file}", "--levels", "abc"],
        ["simulate", "{file}", "--tol", "x"],
        ["hierarchy", "{file}", "--gauge", "maybe"],
        ["check-poisson", "{file}", "--bogus"],
        [],
        ["hierarchy"],
        ["frobnicate", "{file}"],
    ],
    ids=[
        "bad-int", "bad-float", "bad-choice", "unknown-option", "no-command", "no-file",
        "unknown-command",
    ],
)
def test_a_malformed_command_line_is_one_input_error_line(scalar_file, args, capsys):
    with pytest.raises(SystemExit) as exc:
        main([a.format(file=scalar_file) for a in args])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 18: the 50x detector reads Hadamard's instability of a flow "
    "that is not hyperbolic as a gradient catastrophe, prints BREAKING at t=0.03 "
    "(187.4x) and exits 3 (CHANGES.md, FOUND line on the indefinite pair)",
)
def test_a_flow_that_is_not_hyperbolic_is_not_reported_as_breaking(tmp_path, capsys):
    # eta = [[0,1],[1,0]], K = 0, H = (2u1 - u2, u1 + 3u2) passes check-canonical;
    # its level-2 flow is linear, V = [[21,-20],[20,21]] with speeds 21 +- 20i,
    # and a constant-coefficient flow has no gradient catastrophe
    problem = Path(__file__).resolve().parent.parent / "problems" / "linear_pair_n2.json"
    doc = dict(json.loads(problem.read_text()), eta=[[0, 1], [1, 0]], K=0)
    path = _write(tmp_path, "indefinite.json", doc)
    assert main(["check-canonical", path]) == 0
    capsys.readouterr()
    code = main(["simulate", path, "--level", "2", "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert code != 3
    assert "BREAKING" not in out


def test_simulate_cfl_violation_is_input_error(tmp_path, capsys):
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
    assert main(["simulate", path, "--out", str(tmp_path / "o2")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error: simulation.dt: CFL number ") and _single_line(err)
    assert not (tmp_path / "o2").exists()


def test_simulate_nan_drift_fails(tmp_path, capsys):
    # the integrals overflow at t = 0, so three drifts are NaN: the run
    # fails the tolerance and numpy prints no overflow warning
    doc = {
        "N": 1,
        "eta": [[1]],
        "K": 0,
        "H": ["2*u1"],
        "simulation": {
            "grid_M": 16,
            "L": TWO_PI,
            "dt": 0.01,
            "t_end": 0,
            "init": ["1" + "0" * 155 + "*sin(x)"],
        },
    }
    path = _write(tmp_path, "nan.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", path, "--out", str(tmp_path / "o")]) == 1
    out, err = capsys.readouterr()
    assert "  drift momentum: nan (initial inf)\n" in out
    assert out.endswith("verdict: FAIL (worst relative drift nan, tolerance 1e-08)\n")
    assert err == ""
    # --json writes the non-finite numbers as null
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", path, "--out", str(tmp_path / "o2"), "--json"]) == 1
    out, err = capsys.readouterr()
    obj = _strict_json(out)
    assert [(d["name"], d["initial"], d["relative_drift"]) for d in obj["drifts"][1:]] == [
        ("momentum", None, None), ("H1", None, None), ("H2", None, None),
    ]
    assert obj["drifts"][0]["relative_drift"] == 0.0
    assert obj["verdict"] == "FAIL" and err == ""


@pytest.mark.parametrize(
    "dt,t_end",
    [("1/1000000000000", "1/100000000000"), ("1/100000000000000", "1/10000000000000")],
    ids=["dt1e-12", "dt1e-14"],
)
def test_simulate_tiny_steps_reach_t_end(tmp_path, capsys, dt, t_end):
    doc = {
        "N": 1,
        "eta": [[1]],
        "K": 0,
        "H": ["u1^2/2"],
        "simulation": {
            "grid_M": 16,
            "L": TWO_PI,
            "dt": dt,
            "t_end": t_end,
            "init": ["0.1*sin(x)"],
            "snapshots": [t_end],
        },
    }
    outdir = tmp_path / "out"
    assert main(["simulate", _write(tmp_path, "tiny.json", doc), "--out", str(outdir)]) == 0
    assert "verdict: PASS" in capsys.readouterr().out
    diag = (outdir / "diag.csv").read_text().strip().split("\n")
    assert len(diag) == 12  # header + initial row + 10 steps
    assert (outdir / f"snap_{float(Fraction(t_end)):g}.csv").exists()


def test_commute_command(scalar_file, capsys):
    assert main(["commute", scalar_file, "--levels", "2"]) == 0
    out = capsys.readouterr().out
    assert "numeric t1 vs t2" in out and "verdict: PASS" in out


def test_commute_of_constant_flows_has_an_infinite_ratio(tmp_path, capsys):
    # constant flows commute exactly: the defect is round-off and its
    # halving ratio is infinite, which --json writes as null
    doc = {
        "N": 2,
        "eta": [[1, 0], [0, 1]],
        "K": 0,
        "H": ["u1", "3*u2/2"],
        "simulation": {
            "grid_M": 64,
            "L": TWO_PI,
            "dt": 0.001,
            "t_end": 0.01,
            "init": ["0.1*sin(x)", "0.05*cos(x)"],
        },
    }
    path = _write(tmp_path, "constant.json", doc)
    assert main(["commute", path, "--levels", "3"]) == 0
    assert "halving ratio=inf -> commuting\n" in capsys.readouterr().out
    assert main(["commute", path, "--levels", "3", "--json"]) == 0
    obj = _strict_json(capsys.readouterr().out)
    assert obj["numeric"]["ratio"] is None and obj["numeric"]["commuting"] is True
    assert obj["verdict"] == "PASS"


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


def _single_line(err: str) -> bool:
    return err.endswith("\n") and err.count("\n") == 1


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("grid_M", 100, "must be a power of two, at least 8"),
        ("grid_M", 4, "must be a power of two, at least 8"),
        ("dt", 0, "must be positive"),
        ("dt", "-1/100", "must be positive"),
        ("init", ["1/sin(x)"], "initial datum 1 is not finite on the grid"),
        ("grid_M", 1 << 17, "must be at most 65536"),
        ("grid_M", 1 << 40, "must be at most 65536"),
    ],
)
def test_bad_simulation_input_is_input_error(tmp_path, capsys, key, value, message):
    doc = {
        "N": 1,
        "eta": [[1]],
        "K": 0,
        "H": ["u1^2/2"],
        "simulation": {
            "grid_M": 64,
            "L": TWO_PI,
            "dt": 0.001,
            "t_end": 0.01,
            "init": ["0.1*sin(x)"],
        },
    }
    doc["simulation"][key] = value
    path = _write(tmp_path, "badsim.json", doc)
    assert main(["simulate", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: simulation.{key}: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["hierarchy", "simulate", "commute"])
def test_unsupported_potential_is_input_error(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    doc = {
        "N": 1,
        "eta": [[1]],
        "K": 0,
        "H": ["1/(1+u1)"],
        "simulation": {
            "grid_M": 64,
            "L": TWO_PI,
            "dt": 0.001,
            "t_end": 0.01,
            "init": ["0.1*sin(x)"],
        },
    }
    assert main([command, _write(tmp_path, "rational.json", doc)]) == 2
    err = capsys.readouterr().err
    assert _single_line(err) and err.startswith("input error: ")
    assert "outside the rational closure" in err


def test_two_zero_canonical_constants_is_input_error(tmp_path, capsys):
    path = _write(
        tmp_path,
        "zeros.json",
        {"N": 2, "eta": [[1, 0], [0, 1]], "K": 0, "canonical": {"a": [0, 1]}},
    )
    assert main(["check-poisson", path]) == 2
    err = capsys.readouterr().err
    assert _single_line(err) and err.startswith("input error: canonical.a: ")


def test_check_canonical_builds_the_bracket_once(monkeypatch, capsys):
    from pathlib import Path

    from hydrobrackets import bracket

    calls = []
    original = bracket.build_canonical

    def counting(P):
        calls.append(P)
        return original(P)

    monkeypatch.setattr(bracket, "build_canonical", counting)
    problem = Path(__file__).resolve().parent.parent / "problems" / "linear_pair_n2.json"
    assert main(["check-canonical", str(problem)]) == 0
    assert "equivalence audit: consistent" in capsys.readouterr().out
    assert len(calls) == 1


@pytest.mark.parametrize(
    "second,message",
    [
        (
            {"K": 0, "canonical": {"a": [0, 1]}},
            "second.canonical.a: at most one of the constants a^1..a^N, K may be zero",
        ),
        ({"g": [["1"]], "b": []}, "second.g: expected 2x2 entries"),
        ({"K": "x", "canonical": {"a": [2, 1]}}, "second.K: bad rational 'x'"),
        ({"N": 3}, "second.N: dimension mismatch with primary"),
        ([1, 2], "second: expected an object"),
    ],
    ids=["canonical.a", "g", "K", "N", "not-an-object"],
)
def test_second_block_errors_are_located(tmp_path, capsys, second, message):
    doc = {
        "N": 2,
        "eta": [[1, 0], [0, 1]],
        "K": 1,
        "canonical": {"a": [1, 1]},
        "second": second,
    }
    assert main(["check-pencil", _write(tmp_path, "pencil.json", doc)]) == 2
    err = capsys.readouterr().err
    assert _single_line(err) and err.startswith(f"input error: {message}")


def test_second_block_inherits_eta_and_K(tmp_path):
    from hydrobrackets.cli import load_problem

    doc = {
        "N": 2,
        "eta": [[2, 1], [1, 1]],
        "K": 1,
        "H": ["u1", "u2"],
        "second": {"H": ["u1^2/2", "u2"]},
    }
    prob = load_problem(_write(tmp_path, "inherit.json", doc))
    B2 = prob.second_bracket()
    assert B2.K is prob.K
    # g^{11} = 2 eta^{1s} dH^1/du^s - K u1^2 with eta^{11} = 2
    assert is_zero(B2.g[0][0] - parse("4*u1 - u1^2", ("u1", "u2"))) is Zeroness.ZERO


@pytest.mark.parametrize("command", ["hierarchy", "simulate", "commute"])
def test_non_poisson_pair_exits_1(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    doc = {
        "N": 2,
        "eta": [[1, 0], [0, 1]],
        "K": 1,
        "H": ["u1^2/2", "0"],
        "simulation": {
            "grid_M": 64,
            "L": TWO_PI,
            "dt": 0.001,
            "t_end": 0.01,
            "init": ["0.1*sin(x)", "0.1*cos(x)"],
        },
    }
    assert main([command, _write(tmp_path, "sep.json", doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{command}: canonical pair fails ass2\n"


def test_check_canonical_judges_the_equations_once(monkeypatch, capsys):
    from pathlib import Path

    from hydrobrackets import bracket

    calls = []
    original = bracket.check_canonical_equations

    def counting(P, rng=None):
        calls.append(P)
        return original(P, rng=rng)

    monkeypatch.setattr(bracket, "check_canonical_equations", counting)
    problem = Path(__file__).resolve().parent.parent / "problems" / "linear_pair_n2.json"
    assert main(["check-canonical", str(problem)]) == 0
    assert "equivalence audit: consistent" in capsys.readouterr().out
    assert len(calls) == 1


def test_check_canonical_failure_report(tmp_path, capsys):
    path = _write(
        tmp_path,
        "fail.json",
        {"N": 2, "eta": [[1, 0], [0, 1]], "K": 1, "H": ["u1^2/2", "u1*u2^2"]},
    )
    assert main(["check-canonical", path]) == 1
    assert capsys.readouterr().out == (
        "check-canonical: N=2\n"
        "  ass1: FAIL  witness indices=(1, 2, 1, 2) point=(u2=770881/1000000) "
        "value=770881/500000\n"
        "  ass2: FAIL  witness indices=(1, 2, 1) "
        "point=(u1=-96041/500000, u2=294773/500000) value=-57600707611/125000000000\n"
        "equivalence audit: consistent\n"
        "verdict: NOT POISSON\n"
    )


def test_simulate_reports_the_cfl_guard_once(tmp_path, capsys):
    path = _write(
        tmp_path,
        "cfl.json",
        {
            "N": 2,
            "eta": [[1, 0], [0, 1]],
            "K": 1,
            "H": ["2*u1 - u2", "u1 + 3*u2"],
            "simulation": {
                "grid_M": 128,
                "L": TWO_PI,
                "dt": 0.05,
                "t_end": 0.1,
                "init": ["0.05*sin(x)", "0.05*cos(x) + 0.02*sin(2*x)"],
            },
        },
    )
    assert main(["simulate", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr() == (
        "",
        "input error: simulation.dt: CFL number 6.111 at t=0 exceeds 1 "
        "(dt*|V|*M/L); reduce dt\n",
    )


def test_unstable_step_is_rejected_not_reported_as_breaking(tmp_path, capsys):
    # the committed linear pair at M = 512: its level-2 flow has a CFL
    # number of 2.933 at dt = 0.001; RK4 is unstable there, and a run that
    # took those steps grew max|v_x| 50-fold by t = 0.007
    problem = Path(__file__).resolve().parent.parent / "problems" / "linear_pair_n2.json"
    doc = json.loads(problem.read_text())
    doc["simulation"]["grid_M"] = 512
    path = _write(tmp_path, "m512.json", doc)
    assert main(["simulate", path, "--level", "2", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr() == (
        "",
        "input error: simulation.dt: CFL number 2.933 at t=0 exceeds 1 "
        "(dt*|V|*M/L); reduce dt\n",
    )


def test_step_count_cap_rejects_before_running(tmp_path, capsys):
    doc = {
        "N": 1,
        "eta": [[1]],
        "K": 0,
        "H": ["u1^2/2"],
        "simulation": {
            "grid_M": 8,
            "L": TWO_PI,
            "dt": "1/1000000000",
            "t_end": 1,
            "init": ["0.1*sin(x)"],
        },
    }
    path = _write(tmp_path, "steps.json", doc)
    start = time.perf_counter()
    assert main(["simulate", path, "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "input error: simulation.dt: t_end/dt = 1e+09 exceeds 1048576 steps\n"
    )


SMALL_RUN = {"grid_M": 16, "L": TWO_PI, "dt": 0.01, "t_end": 0.02}


@pytest.mark.parametrize(
    "command,doc,message",
    [
        (
            "check-poisson",
            {"N": True, "eta": [[1]], "K": 0, "H": ["u1^2"]},
            "N: a positive integer N is required",
        ),
        (
            "check-poisson",
            {"N": 1, "eta": [[1]], "K": 0, "H": ["u1/(u1-u1)"]},
            "H[0]: identically zero denominator (at offset 2)",
        ),
        (
            "check-pencil",
            {
                "N": 1,
                "eta": [[1]],
                "K": 0,
                "H": ["u1^2"],
                "second": {"H": ["u1/(u1-u1)"]},
            },
            "second.H[0]: identically zero denominator (at offset 2)",
        ),
        (
            "simulate",
            {
                "N": 1,
                "eta": [[1]],
                "K": 0,
                "H": ["u1^2/2"],
                "simulation": dict(SMALL_RUN, init=["1/(x-x)"]),
            },
            "simulation.init[0]: identically zero denominator (at offset 1)",
        ),
        (
            "liouville",
            {"N": 1, "eta": [[1]], "K": 1, "g": [["1/u1"]], "b": [[["u1"]]]},
            "path integral outside the rational closure "
            "(g[1][1] is singular at the origin)",
        ),
    ]
    + [
        (
            command,
            {
                "N": 1,
                "eta": [[1]],
                "K": 0,
                "H": ["1/u1"],
                "simulation": dict(SMALL_RUN, init=["0.1*sin(x)"]),
            },
            "path integral outside the rational closure (H[1] is singular at the origin)",
        )
        for command in ("hierarchy", "simulate", "commute")
    ],
)
def test_degenerate_input_is_input_error(
    tmp_path, monkeypatch, capsys, command, doc, message
):
    monkeypatch.chdir(tmp_path)
    assert main([command, _write(tmp_path, "bad.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"input error: {message}\n"
    assert captured.out == ""


def test_only_simulate_takes_tol_and_only_checks_take_seed():
    from hydrobrackets.cli import build_parser

    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    options = {
        name: {opt for action in sub._actions for opt in action.option_strings}
        for name, sub in commands.items()
    }
    assert {name for name, opts in options.items() if "--tol" in opts} == {"simulate"}
    assert {name for name, opts in options.items() if "--seed" in opts} == {
        "check-poisson",
        "check-compat",
        "check-pencil",
        "check-canonical",
    }


@pytest.mark.parametrize(
    "command,doc,location",
    [
        ("build-canonical", {"N": 1, "eta": [[1]], "K": 0, "H": [True]}, "H[0]"),
        (
            "check-poisson",
            {"N": 1, "eta": [[1]], "K": 0, "g": [[False]], "b": [[["u1"]]]},
            "g[0][0]",
        ),
        (
            "check-poisson",
            {"N": 1, "eta": [[1]], "K": 0, "g": [["u1"]], "b": [[[True]]]},
            "b[0][0][0]",
        ),
        (
            "simulate",
            {
                "N": 1,
                "eta": [[1]],
                "K": 0,
                "H": ["u1^2/2"],
                "simulation": dict(SMALL_RUN, init=[True]),
            },
            "simulation.init[0]",
        ),
    ],
)
def test_boolean_expression_entry_is_input_error(
    tmp_path, monkeypatch, capsys, command, doc, location
):
    monkeypatch.chdir(tmp_path)
    assert main([command, _write(tmp_path, "bool.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"input error: {location}: expected an expression string\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "h,message",
    [
        # written in v-variables with a second defect: the retry's error
        ("v1/(v1-v1)", "identically zero denominator (at offset 2)"),
        # the same defects in u-variables keep the first parse's error
        ("u1/(u1-u1)", "identically zero denominator (at offset 2)"),
        ("u1 +", "expected a number, variable or '(' (at offset 4)"),
        ("w1", "unknown variable 'w1' (at offset 0)"),
        ("u1^1.5", "exponent must be an integer (at offset 3)"),
        ("sin(u1)", "'sin' is only allowed in initial-data expressions (at offset 0)"),
    ],
)
def test_v_variable_retry_reports_the_right_error(tmp_path, capsys, h, message):
    path = _write(tmp_path, "v.json", {"N": 1, "eta": [[1]], "K": 0, "H": [h]})
    assert main(["build-canonical", path]) == 2
    assert capsys.readouterr().err == f"input error: H[0]: {message}\n"


@pytest.mark.parametrize(
    "h,message",
    [
        (["u1 + w", "u2"], "unknown variable 'w' (at offset 5)"),
        # each spelling stops at its first unknown name; the later of the
        # two is reported, so a valid v-name never is
        (["v1 + w", "v2"], "unknown variable 'w' (at offset 5)"),
        (["u1 + v2", "u2"], "unknown variable 'v2' (at offset 5)"),
    ],
)
def test_flow_commands_report_an_unknown_name_as_the_symbolic_ones_do(
    tmp_path, monkeypatch, capsys, h, message
):
    # the flow commands load the file in v1..vN and the symbolic ones in
    # u1..uN; both read an entry written in u or in v, in that order
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, "h.json", {"N": 2, "eta": [[1, 0], [0, 1]], "K": 1, "H": h})
    for command in ("check-canonical", "hierarchy", "commute", "simulate"):
        assert main([command, path]) == 2, command
        assert capsys.readouterr().err == f"input error: H[0]: {message}\n", command


def test_closed_stdout_ends_without_a_traceback():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        problem = str(root / "problems" / "linear_pair_n2.json")
        proc = subprocess.run(
            [sys.executable, "-m", "hydrobrackets", "hierarchy", problem, "--json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr.decode()
    assert len(proc.stderr.splitlines()) <= 1
    assert proc.returncode == 3


_NUMPY_PROBE = """
import contextlib, io, json, sys
from hydrobrackets.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""


def test_only_simulations_import_numpy(tmp_path):
    root = Path(__file__).resolve().parents[1]
    problems = root / "problems"
    doc = json.loads((problems / "linear_pair_n2.json").read_text())
    with_sim = str(problems / "linear_pair_n2.json")
    del doc["simulation"]
    no_sim = _write(tmp_path, "no_sim.json", doc)
    symbolic = [
        ["check-poisson", str(problems / "canonical_metric_n2.json")],
        ["check-compat", with_sim],
        ["check-pencil", str(problems / "scalar_shallow.json")],
        ["check-canonical", with_sim],
        ["build-canonical", with_sim],
        ["liouville", with_sim],
        ["hierarchy", with_sim],
        ["commute", no_sim],
    ]
    simulate = ["simulate", with_sim, "--out", str(tmp_path / "out")]

    def loaded(*argvs):
        proc = subprocess.run(
            [sys.executable, "-c", _NUMPY_PROBE, json.dumps(argvs)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    # numpy stays loaded once imported, so the numeric commands come last
    # and `simulate` gets an interpreter of its own
    assert loaded(*symbolic, ["commute", with_sim]) == [False] * 8 + [True]
    assert loaded(simulate) == [True]


def test_cli_import_loads_no_introspection_modules():
    """dataclasses would bring inspect, ast, dis and tokenize into every
    command's start-up; the set is compared with a bare interpreter's, so a
    site setup that imports one of them does not count."""
    root = Path(__file__).resolve().parents[1]

    def modules(statement):
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    added = modules("import hydrobrackets.cli") - modules("pass")
    assert "hydrobrackets.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


@pytest.mark.parametrize(
    "key,text,message",
    [
        ("t_end", "1e400", "t_end: exceeds the float range"),
        ("L", "-1e400", "L: exceeds the float range"),
        ("dt", '"1e400"', "dt: exceeds the float range"),
        # positive, but below the smallest float
        ("L", "1e-400", "L: exceeds the float range"),
        ("dt", '"1e-400"', "dt: exceeds the float range"),
        ("dt", "-1e-400", "dt: must be positive"),
        ("t_end", "-1", "t_end: must not be negative"),
        ("snapshots", "[5]", "snapshots[0]: must lie in [0, t_end] = [0, 0.01]"),
        ("snapshots", '[0, "-1/1000"]', "snapshots[1]: must lie in [0, t_end] = [0, 0.01]"),
        ("snapshots", "[1e400]", "snapshots[0]: must lie in [0, t_end] = [0, 0.01]"),
        ("t_end", "1e-400", "t_end: exceeds the float range"),
    ],
)
def test_out_of_range_simulation_times_are_input_errors(tmp_path, capsys, key, text, message):
    sim = {"grid_M": 64, "L": TWO_PI, "dt": 0.001, "t_end": 0.01, "init": ["0.1*sin(x)"]}
    doc = {"N": 1, "eta": [[1]], "K": 0, "H": ["u1^2/2"], "simulation": dict(sim, **{key: "@"})}
    # JSON numbers are read as exact rationals, so 1e400 is a valid number
    # that json.dumps cannot write
    path = tmp_path / "times.json"
    path.write_text(json.dumps(doc).replace('"@"', text))
    assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"input error: simulation.{message}\n"
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "h,message",
    [
        # (u1+u2+1)^64 already needs more term pairs than the product budget
        ("(u1+u2+1)^2000", "product exceeds monomial budget"),
        # an exponent must fit its packed field; it never wraps
        ("u1^3000000000", "an exponent exceeds 2147483647"),
    ],
)
def test_expression_size_limit_exits_3(tmp_path, capsys, h, message):
    doc = {"N": 2, "eta": [[1, 0], [0, 1]], "K": 0, "H": [h, "u2"]}
    assert main(["build-canonical", _write(tmp_path, "big.json", doc)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"build-canonical: expression size limit: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "h,code",
    [
        ("3^300000000*u1^2", 3),
        ("1/3^300000000 + u1^2/2", 3),
        # the exponent is past EXP_LIMIT, but only a coefficient takes it
        ("2^3000000000*u1^2/2", 3),
        ("(2*u1)^300000000", 3),
        # 2^15000 has 4516 digits, 2^14000 has 4215: within the default 4300
        ("2^15000*u1^2/2", 3),
        ("2^14000*u1^2/2", 0),
    ],
)
def test_a_one_term_power_past_the_digit_limit_exits_3(tmp_path, capsys, h, code):
    path = _write(tmp_path, "p.json", {"N": 1, "eta": [[1]], "K": 0, "H": [h]})
    start = time.perf_counter()
    assert main(["check-poisson", path]) == code
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    if code == 3:
        assert captured.err == (
            "check-poisson: expression size limit: a coefficient has more than "
            f"{sys.get_int_max_str_digits()} digits\n"
        )
        assert captured.out == ""
    else:
        assert captured.err == ""
        assert captured.out.endswith("verdict: POISSON\n")


@pytest.mark.parametrize(
    "h,init,top",
    [
        # the level-1 flow's density, of degree 20001: 512 x 20002 doubles
        ("u1^20000", "0.1*sin(x)", 20001),
    ],
)
def test_simulation_power_table_limit_exits_3(tmp_path, capsys, h, init, top):
    doc = {
        "N": 1,
        "eta": [[1]],
        "K": 0,
        "H": [h],
        "simulation": {"grid_M": 512, "L": TWO_PI, "dt": 0.001, "t_end": 0.002, "init": [init]},
    }
    path = _write(tmp_path, "p.json", doc)
    assert main(["simulate", path, "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        f"simulate: expression size limit: a table of powers up to {top} "
        "at 512 samples exceeds 8388608 values\n"
    )
    assert captured.out == ""


def test_coefficient_matrix_limit_exits_3(tmp_path, monkeypatch, capsys):
    from hydrobrackets import numsim

    # the level-2 flow of the linear pair compiles to 4 V rows and S over 13
    # monomials: 65 coefficients, one above the lowered limit
    monkeypatch.setattr(numsim, "POWER_TABLE_LIMIT", 64)
    problem = str(Path(__file__).resolve().parents[1] / "problems" / "linear_pair_n2.json")
    assert main(["simulate", problem, "--level", "2", "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "simulate: expression size limit: a coefficient matrix of 5 x 13 "
        "(rows x monomials) exceeds 64 values\n"
    )
    assert captured.out == ""


def test_high_exponents_keep_working(tmp_path, capsys):
    path = _write(tmp_path, "p.json", {"N": 1, "eta": [[1]], "K": 0, "H": ["u1^70000"]})
    assert main(["build-canonical", path]) == 0
    assert capsys.readouterr().out == (
        "build-canonical: N=1\n"
        "  g[1][1] = 140000*u1^69999\n"
        "  b[1][1][1] = 4899930000*u1^69998\n"
    )
    assert main(["check-poisson", path]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verdict: POISSON"


@pytest.mark.parametrize(
    "doc,degree",
    [
        # an explicit g entry
        ({"N": 1, "K": 0, "g": [["u1^2000000"]], "b": [[["0"]]]}, 2000000),
        # a divisor factor: it stays factored until a sum expands it
        ({"N": 1, "eta": [[1]], "K": 0, "H": ["u1^2/2 + 1/(u1-2)^3000000000"]}, 3000000000),
        ({"N": 1, "eta": [[1]], "K": 0, "H": ["u1^131073"]}, 131073),
        ({"N": 1, "eta": [[1]], "K": 0, "H": ["u1^131072"]}, None),
    ],
    ids=["explicit-power", "divisor-power", "past-the-bound", "at-the-bound"],
)
def test_a_power_past_the_degree_bound_exits_3_at_once(tmp_path, capsys, doc, degree):
    path = _write(tmp_path, "p.json", doc)
    start = time.perf_counter()
    code = main(["check-poisson", path])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    if degree is None:
        assert code == 0
        assert captured.out.endswith("verdict: POISSON\n")
    else:
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"check-poisson: expression size limit: a power of degree {degree} exceeds 131072\n"


# -- the process entry -----------------------------------------------------------


def test_every_entry_names_the_same_entry_function():
    import ast

    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: pytest's own TOML dependency
        import tomli as tomllib

    import hydrobrackets.cli as cli

    root = Path(__file__).resolve().parents[1]
    scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, name = scripts["hydrobrackets"].partition(":")
    assert module == "hydrobrackets.cli" and callable(getattr(cli, name))

    def called(statements):
        return [s.value.func.id for s in statements if isinstance(s, ast.Expr)]

    package = root / "src" / "hydrobrackets"
    main_module = ast.parse((package / "__main__.py").read_text()).body
    imports = [(s.module, [a.name for a in s.names]) for s in main_module if isinstance(s, ast.ImportFrom)]
    assert imports == [("cli", [name])]
    assert called(main_module) == [name]
    guard = ast.parse((package / "cli.py").read_text()).body[-1]  # if __name__ == "__main__"
    assert isinstance(guard, ast.If) and called(guard.body) == [name]


def _outputs(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def test_the_process_entry_keeps_exit_codes_output_and_files(tmp_path, capsys, scalar_file):
    """python -m hydrobrackets against cli.main in-process: the same exit
    code, stdout, stderr and simulate CSV files for exit codes 0 to 3."""
    root = Path(__file__).resolve().parents[1]
    doc = json.loads(Path(scalar_file).read_text())
    doc["simulation"].update({"init": ["0.5*sin(x)"], "t_end": 2.0, "snapshots": [0.1]})
    breaking = _write(tmp_path, "breaking.json", doc)
    cases = [
        (["simulate", scalar_file], 0),
        (["simulate", scalar_file, "--tol", "0"], 1),
        (["check-poisson", str(tmp_path / "missing.json")], 2),
        (["simulate", breaking], 3),
    ]
    for k, (argv, code) in enumerate(cases):
        inproc, child = tmp_path / f"in{k}", tmp_path / f"child{k}"
        out = ["--out", str(inproc)] if argv[0] == "simulate" else []
        assert main(argv + out) == code
        captured = capsys.readouterr()
        out = ["--out", str(child)] if argv[0] == "simulate" else []
        proc = subprocess.run(
            [sys.executable, "-m", "hydrobrackets", *argv, *out],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            timeout=120,
        )
        assert proc.returncode == code
        assert proc.stdout.replace(str(child), str(inproc)) == captured.out
        assert proc.stderr == captured.err
        if argv[0] == "simulate":
            assert _outputs(child) == _outputs(inproc) != {}


def test_an_n_that_no_block_lists_allocates_nothing(tmp_path):
    """{"N": 30000000} alone must not build thirty million variable names.
    The child runs under a 2 GB address-space limit, so building them fails
    fast with a MemoryError there instead of allocating them."""
    import resource

    root = Path(__file__).resolve().parents[1]
    path = _write(tmp_path, "big_n.json", {"N": 30_000_000})

    def limit():
        cap = 2_000_000 * 1024
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        if hard != resource.RLIM_INFINITY:
            cap = min(cap, hard)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

    proc = subprocess.run(
        [sys.executable, "-m", "hydrobrackets", "check-poisson", path],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=120,
        preexec_fn=limit,
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        'input error: H: no bracket specified: provide "H", or "g"+"b", or "canonical"\n'
    )


def test_flow_commands_apply_the_operator_once_per_level(monkeypatch, capsys):
    # the pairwise verdicts follow from the construction of the levels, so
    # nothing re-applies an operator to a level once it is built
    import importlib

    module = importlib.import_module("hydrobrackets.hierarchy")
    operator_matrix = module.operator_matrix
    calls = []

    def counted(*args):
        calls.append(args)
        return operator_matrix(*args)

    monkeypatch.setattr(module, "operator_matrix", counted)
    problem = str(Path(__file__).resolve().parents[1] / "problems" / "linear_pair_n2.json")
    # ten pairs, each once (commute) or twice (hierarchy), and the verdict
    for command, passes in (("hierarchy", 21), ("commute", 11)):
        calls.clear()
        assert main([command, problem, "--levels", "4"]) == 0
        assert len(calls) == 4, command
        assert capsys.readouterr().out.count("PASS\n") == passes, command


# -- malformed files that used to end in a traceback ------------------------------

_SCALAR = {"N": 1, "eta": [[1]], "K": 1}
_SIM = {"grid_M": 8, "L": 1, "dt": "1/10", "t_end": "1/10"}
_LIMIT = sys.get_int_max_str_digits()


def _numeric_k(literal: str) -> bytes:
    """A scalar problem whose K is written as ``literal``, verbatim."""
    return ('{"N": 1, "eta": [[1]], "K": ' + literal + ', "H": ["u1^2/2"]}').encode()


@pytest.mark.parametrize(
    "command,content,message",
    [
        ("check-poisson", b"\xff\xfe{", "{path}: not UTF-8: invalid start byte at byte 0"),
        (
            "check-poisson",
            ('{"N": 1, "H": ' + "[" * 100_000 + "]" * 100_000 + "}").encode(),
            "{path}: JSON nested too deeply to decode",
        ),
        (
            "check-poisson",
            json.dumps({**_SCALAR, "H": ["(" * 200 + "u1^2/2" + ")" * 200]}).encode(),
            "H[0]: expression nests deeper than 150 levels (at offset 150)",
        ),
        (
            "simulate",
            json.dumps(
                {**_SCALAR, "H": ["u1^2/2"], "simulation": {**_SIM, "init": ["sin(" * 200 + "x" + ")" * 200]}}
            ).encode(),
            "simulation.init[0]: expression nests deeper than 150 levels (at offset 600)",
        ),
        # JSON numbers and rational strings follow the tokenizer's digit rule,
        # exponent included, and are refused before anything expands them
        (
            "check-poisson",
            _numeric_k("1" * 5000),
            f"{{path}}: number has more than {_LIMIT} digits",
        ),
        (
            "check-poisson",
            _numeric_k("1e999999999"),
            f"{{path}}: number has more than {_LIMIT} digits",
        ),
        (
            "check-poisson",
            _numeric_k('"1e999999999"'),
            f"K: bad rational '1e999999999': number has more than {_LIMIT} digits",
        ),
        (
            "check-poisson",
            _numeric_k("0." + "0" * 4999 + "1"),
            f"{{path}}: number has more than {_LIMIT} digits",
        ),
        # a rational string is ASCII with no `_`, though Fraction reads both
        *(
            (
                "check-poisson",
                _numeric_k(json.dumps(k)),
                f"K: bad rational {k!r}: Invalid literal for Fraction: {k!r}",
            )
            for k in ("\u0663", "3/\u0664", "1_0")
        ),
    ],
    ids=[
        "not-utf8", "deep-json", "deep-parentheses", "deep-calls",
        "long-integer", "json-exponent", "string-exponent", "long-decimal",
        "arabic-indic-digit", "arabic-indic-denominator", "digit-separator",
    ],
)
def test_malformed_files_end_in_one_input_error_line(tmp_path, capsys, command, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    argv = [command, str(path)] + (["--out", str(tmp_path / "out")] if command == "simulate" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message.format(path=path)}\n"


def test_deep_json_exits_2_through_the_module_entry(tmp_path):
    root = Path(__file__).resolve().parents[1]
    path = tmp_path / "deep.json"
    path.write_text('{"N": 1, "H": ' + "[" * 100_000 + "]" * 100_000 + "}")
    proc = subprocess.run(
        [sys.executable, "-m", "hydrobrackets", "check-poisson", str(path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"input error: {path}: JSON nested too deeply to decode\n"


def test_a_huge_json_exponent_exits_2_through_the_module_entry(tmp_path):
    # 10^999999999 would be a 415 MB integer; the reader refuses it first
    root = Path(__file__).resolve().parents[1]
    path = tmp_path / "huge.json"
    path.write_bytes(_numeric_k("1e999999999"))
    proc = subprocess.run(
        [sys.executable, "-m", "hydrobrackets", "check-poisson", str(path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"input error: {path}: number has more than {_LIMIT} digits\n"


def test_expressions_at_the_nesting_limit_still_run(tmp_path, capsys):
    doc = {
        **_SCALAR,
        "H": ["(" * 150 + "0.5*u1^2" + "*u1/u1" * 3000 + ")" * 150],
        "simulation": {**_SIM, "init": ["sin(" * 150 + "x" + "/2" * 3000 + ")" * 150]},
    }
    path = _write(tmp_path, "deep.json", doc)
    assert main(["check-poisson", path]) == 0
    assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 0
    assert "verdict: PASS" in capsys.readouterr().out


# -- the import contract of perfbench/run.py --trace ------------------------------


def test_importing_the_cli_loads_every_layer_and_no_numpy():
    """``perfbench/run.py --trace 1`` imports ``hydrobrackets.cli`` and then
    patches the seven layer modules it finds in ``sys.modules``, so that
    import must load all of them; numpy stays a simulation-only import."""
    root = Path(__file__).resolve().parents[1]
    layers = ("cli", "expr", "poly", "geometry", "bracket", "hierarchy", "numsim")
    probe = (
        "import sys, json\nimport hydrobrackets.cli\n"
        f"print(json.dumps([f'hydrobrackets.{{m}}' in sys.modules for m in {layers!r}]"
        " + ['numpy' in sys.modules]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [True] * len(layers) + [False]


def test_the_public_names_are_the_package_all():
    """``hydrobrackets.__all__`` is the one list of public names: a star
    import binds exactly its names, and the module paths that the tests and
    the README import from keep working."""
    import hydrobrackets

    namespace = {}
    exec("from hydrobrackets import *", namespace)
    del namespace["__builtins__"]
    assert len(hydrobrackets.__all__) == 26
    assert sorted(namespace) == sorted(hydrobrackets.__all__)
    assert all(namespace[name] is getattr(hydrobrackets, name) for name in namespace)
    # the function, not the submodule of the same name
    assert hydrobrackets.hierarchy is sys.modules["hydrobrackets.hierarchy"].hierarchy
    from hydrobrackets.bracket import ConditionResult, NotSpecialError, Witness, operator_matrix
    from hydrobrackets.expr import UnknownVariableError

    assert issubclass(UnknownVariableError, hydrobrackets.ParseError)
    assert issubclass(NotSpecialError, ValueError)
    assert ConditionResult._fields == ("name", "status", "witness")
    assert Witness._fields == ("indices", "point", "value")
    assert operator_matrix.__module__ == "hydrobrackets.bracket"


# -- a canonical block is the canonical pair of eta, H^j = a^j eta_{js} u^s / 2 ----


def _canonical_cases():
    import random
    from fractions import Fraction

    rng = random.Random(1990)

    def rational(nonzero=True):
        while True:
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            if q or not nonzero:
                return q

    cases = [([2, 5, 7, 3], Fraction(-1, 3))]
    for n in range(2, 8):
        a = [rational() for _ in range(n)]
        cases.append((a, rational()))
        cases.append(([abs(x) for x in a], -abs(rational())))  # K < 0
        zero = list(a)
        zero[rng.randrange(n)] = 0
        cases.append((zero, rational()))
    return cases


@pytest.mark.parametrize("a,K", _canonical_cases())
def test_canonical_block_equals_the_christoffel_oracle(a, K):
    from hydrobrackets import geometry
    from hydrobrackets.cli import Problem

    n = len(a)
    doc = {"N": n, "K": str(K), "canonical": {"a": [str(x) for x in a]}}
    if n % 2:  # the problem's own eta gives the same bracket
        doc["eta"] = [[2 * int(i == j) + int(abs(i - j) == 1) for j in range(n)] for i in range(n)]
    B = Problem(doc, "canonical").bracket()
    up, down, _ = geometry.canonical_metric(a, K)
    b = geometry.christoffel(geometry.field_vars(n), up, down)
    pairs = [(B.g[i][j], up[i][j]) for i in range(n) for j in range(n)]
    pairs += [(B.b[i][j][k], b[i][j][k]) for i in range(n) for j in range(n) for k in range(n)]
    for got, want in pairs:
        assert str(got) == str(want)
        assert (got - want).is_zero()
    assert str(B.K) == str(K)


_REDUCTION_CASES = [
    # (eta or None for I, a, K); the N = 3 case with a non-diagonal eta has a^2 = 0
    (None, [1, 3], 2),
    ([[2, 1], [1, 1]], [1, 3], 2),
    (None, [1, 2, 5], "-1/3"),
    ([[1, 0, 2], [0, -1, 0], [2, 0, 1]], [2, 0, 5], 1),
    (None, [2, 5, 7, 3], "1/2"),
    ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1], [0, 0, 1, 3]], [1, -2, 3, "1/2"], -1),
]


@pytest.mark.parametrize(
    "eta,a,K",
    _REDUCTION_CASES,
    ids=[f"n{len(a)}-{'eta' if eta else 'I'}" for eta, a, _ in _REDUCTION_CASES],
)
def test_the_pair_of_a_canonical_block_is_its_liouville_reduction(eta, a, K):
    from hydrobrackets import liouville_function, special_liouville
    from hydrobrackets.cli import Problem

    n = len(a)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    doc = {"N": n, "K": K, "canonical": {"a": a}}
    prob = Problem(dict(doc, eta=eta or identity), "c.json")
    P = prob.canonical_pair()
    B = prob.bracket()
    H = special_liouville(liouville_function(B), P.eta, prob.vars)
    assert [(got - want).is_zero() for got, want in zip(P.H, H)] == [True] * n
    ref = Problem(dict(doc, eta=identity), "c.json").bracket()
    got = [x for row in B.g for x in row] + [x for t in B.b for row in t for x in row]
    want = [x for row in ref.g for x in row] + [x for t in ref.b for row in t for x in row]
    assert [(x - y).is_zero() for x, y in zip(got, want)] == [True] * (n * n + n**3)
    assert (B.K - ref.K).is_zero()


def test_a_canonical_file_without_eta_pairs_against_the_identity():
    from hydrobrackets.cli import Problem

    P = Problem({"N": 2, "K": 2, "canonical": {"a": [1, 3]}}, "c.json").canonical_pair()
    assert P.eta.up == ((1, 0), (0, 1))
    assert [str(h) for h in P.H] == ["1/2*u1", "3/2*u2"]


def test_a_canonical_file_has_the_hierarchy_of_its_h_file(tmp_path, capsys):
    root = Path(__file__).resolve().parents[1]
    h_file = _write(
        tmp_path,
        "h.json",
        {"N": 2, "eta": [[1, 0], [0, 1]], "K": 2, "H": ["u1/2", "3*u2/2"]},
    )
    reports = []
    for path in (str(root / "problems" / "canonical_metric_n2.json"), h_file):
        assert main(["hierarchy", path, "--levels", "3"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


_TWO_BLOCKS = {
    "H+canonical": {"H": ["2*u1 - u2", "u1 + 3*u2"], "canonical": {"a": [1, 3]}},
    "H+g/b": {
        "H": ["2*u1 - u2", "u1 + 3*u2"],
        "g": [["1", "0"], ["0", "1"]],
        "b": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
    },
}
_COMMANDS = (
    "check-poisson",
    "check-compat",
    "check-pencil",
    "check-canonical",
    "build-canonical",
    "liouville",
    "hierarchy",
    "commute",
    "simulate",
)


@pytest.mark.parametrize("blocks", sorted(_TWO_BLOCKS))
@pytest.mark.parametrize("command", _COMMANDS)
def test_every_command_refuses_two_bracket_blocks(
    tmp_path, monkeypatch, capsys, command, blocks
):
    monkeypatch.chdir(tmp_path)
    doc = {"N": 2, "eta": [[1, 0], [0, 1]], "K": 1, **_TWO_BLOCKS[blocks]}
    assert main([command, _write(tmp_path, "two.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == 'input error: H: give exactly one of "H", "g"+"b", "canonical"\n'
    assert list(tmp_path.iterdir()) == [tmp_path / "two.json"]


@pytest.mark.parametrize(
    "command", ("check-canonical", "build-canonical", "hierarchy", "commute", "simulate")
)
def test_pair_commands_still_refuse_an_explicit_bracket(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    doc = {"N": 2, "eta": [[1, 0], [0, 1]], "K": 1, **_TWO_BLOCKS["H+g/b"]}
    del doc["H"]
    doc["simulation"] = {"grid_M": 8, "L": 1, "dt": "1/10", "t_end": 1, "init": ["0", "0"]}
    assert main([command, _write(tmp_path, "gb.json", doc)]) == 2
    assert capsys.readouterr().err == "input error: H: this command needs the potentials H\n"


@pytest.mark.parametrize(
    "a,H",
    [([1, 2, 3, 4], ["1/2*u1", "u2", "3/2*u3", "2*u4"]), ([2, "5/3", 0], ["u1", "5/6*u2", "0"])],
)
def test_liouville_recovers_the_canonical_potentials(tmp_path, capsys, a, H):
    n = len(a)
    eta = [[int(i == j) for j in range(n)] for i in range(n)]
    path = _write(tmp_path, "c.json", {"N": n, "eta": eta, "K": "-1/3", "canonical": {"a": a}})
    assert main(["liouville", path, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["special"] is True and out["H"] == H


@pytest.mark.parametrize(
    "doc,code,expected",
    [
        (
            {
                "N": 3,
                "eta": [[2, 1, 0], [1, 1, 0], [0, 0, 1]],
                "K": "1/2",
                "H": ["u1^2/2 - u2", "2*u2 + u3", "u3"],
                "second": {"canonical": {"a": [1, "2/3", 3]}},
            },
            1,
            "check-pencil: N=3 (parameter lam)\n"
            "  s1: PASS\n  s2: PASS\n"
            "  s3: FAIL  witness indices=(1, 2, 1) point=(lam=-62619/125000, "
            "u1=242859/1000000, u2=35333/250000) value=-200641092543471881/50000000000000000\n"
            "  s4: PASS\n  s5: PASS\n"
            "local member: lam0=1, lam1=-1\nverdict: NOT A POISSON PENCIL\n",
        ),
        (
            {
                "N": 3,
                "eta": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                "K": "-1/3",
                "canonical": {"a": [1, 2, 3]},
                "second": {"canonical": {"a": [2, "-1", 0]}},
            },
            0,
            "check-pencil: N=3 (parameter lam)\n"
            "  s1: PASS\n  s2: PASS\n  s3: PASS\n  s4: PASS\n  s5: PASS\n"
            "local member: lam0=1, lam1=-1\nverdict: POISSON PENCIL\n",
        ),
    ],
    ids=["second-canonical", "both-canonical"],
)
def test_pencil_with_a_canonical_second_block(tmp_path, capsys, doc, code, expected):
    """The reports printed when the bracket went through Christoffel symbols."""
    assert main(["check-pencil", _write(tmp_path, "pencil.json", doc), "--seed", "3"]) == code
    assert capsys.readouterr().out == expected


# -- loading: one parse per distinct string --------------------------------------


def _counting_parser(monkeypatch):
    """Record the text of every parser the expression layer builds."""
    from hydrobrackets import expr as _ex

    built = []

    class Counting(_ex._Parser):
        def __init__(self, text, *args):
            built.append(text)
            super().__init__(text, *args)

    monkeypatch.setattr(_ex, "_Parser", Counting)
    return built


def test_a_problem_file_parses_each_distinct_string_once(tmp_path, monkeypatch):
    from hydrobrackets.cli import load_problem

    n = 4
    g = [[("3/2" if i == j else "0") + f" - (1/2)*u{i + 1}*u{j + 1}" for j in range(n)] for i in range(n)]
    b = [[[f"-(1/2)*u{j + 1}" if i == k else "0" for k in range(n)] for j in range(n)] for i in range(n)]
    texts = [x for row in g for x in row] + [x for plane in b for row in plane for x in row]
    assert (len(texts), len(set(texts))) == (80, 21)
    path = _write(tmp_path, "explicit.json", {"N": n, "K": "1/2", "g": g, "b": b})
    built = _counting_parser(monkeypatch)
    prob = load_problem(path)
    assert sorted(built) == sorted(set(texts))
    monkeypatch.undo()
    g_loaded, b_loaded = prob.explicit
    entries = [x for row in g_loaded for x in row] + [x for plane in b_loaded for row in plane for x in row]
    first = {}
    for text, e in zip(texts, entries):
        alone = parse(text, prob.vars)
        assert str(e) == str(alone)
        assert (e - alone).is_zero()
        assert e is first.setdefault(text, e)  # equal strings share one Expr


def test_the_v_retry_and_the_second_block_reuse_the_file_parses(tmp_path, monkeypatch):
    from hydrobrackets.cli import load_problem

    h = ["v1^2/2 + v2", "v1^2/2 + v2"]
    doc = {"N": 2, "eta": [[1, 0], [0, 1]], "K": 0, "H": h, "second": {"H": h}}
    path = _write(tmp_path, "v.json", doc)
    built = _counting_parser(monkeypatch)
    prob = load_problem(path)
    assert built == [h[0], h[0]]  # the u-variable attempt, then the v retry
    assert prob.h[0] is prob.h[1]
    assert str(prob.h[0]) == "1/2*u1^2 + u2"
    prob.second_bracket()
    assert built == [h[0], h[0]]


# -- number tokens and long coefficients ---------------------------------------------


@pytest.mark.parametrize(
    "h,message",
    [
        ("²*u1", "unexpected character '²' (at offset 0)"),
        ("u1^²", "unexpected character '²' (at offset 3)"),
        ("٣*u1", "unexpected character '٣' (at offset 0)"),
        ("1" * 5000 + "*u1", f"number has more than {_LIMIT} digits (at offset 0)"),
        ("u1^" + "7" * 5000, f"number has more than {_LIMIT} digits (at offset 3)"),
        ("u2 + 0." + "5" * 5000, f"number has more than {_LIMIT} digits (at offset 5)"),
    ],
    ids=["superscript-literal", "superscript-exponent", "arabic-indic-digit", "long-literal", "long-exponent", "long-decimal"],
)
def test_a_number_is_ascii_digits_within_the_int_limit(tmp_path, capsys, h, message):
    doc = {"N": 2, "eta": [[1, 0], [0, 1]], "K": 1, "H": ["u1", h]}
    assert main(["check-canonical", _write(tmp_path, "p.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: H[1]: {message}\n"


def test_a_non_ascii_digit_exits_2_through_the_module_entry(tmp_path):
    root = Path(__file__).resolve().parents[1]
    path = _write(tmp_path, "p.json", {"N": 1, "eta": [[1]], "K": 1, "H": ["٣*u1"]})
    proc = subprocess.run(
        [sys.executable, "-m", "hydrobrackets", "check-poisson", path],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "input error: H[0]: unexpected character '٣' (at offset 0)\n"


@pytest.mark.parametrize(
    "command,doc",
    [
        # the reader accepts exponents up to _LIMIT, and 10^_LIMIT has _LIMIT + 1 digits:
        # K itself, and H[1] = a/2 u1 of the canonical family
        ("build-canonical", {"N": 1, "eta": [[1]], "K": f"1e{_LIMIT}", "H": ["u1"]}),
        ("liouville", {"N": 2, "eta": [[1, 0], [0, 1]], "K": 1, "canonical": {"a": [f"2e{_LIMIT}", "2"]}}),
    ],
    ids=["build-canonical", "liouville"],
)
def test_a_coefficient_too_long_to_print_exits_3(tmp_path, capsys, command, doc):
    assert main([command, _write(tmp_path, "p.json", doc)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{command}: expression size limit: a coefficient has more than {_LIMIT} digits\n"


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "command,doc",
    [
        # g = I, b = 0 is flat, so s4 fails with a witness value near 10^_LIMIT
        (
            "check-poisson",
            {"N": 2, "K": f"1e{_LIMIT}", "g": [["1", "0"], ["0", "1"]], "b": [[["0"] * 2] * 2] * 2},
        ),
        # a Poisson pencil whose local member lam1 = -10^_LIMIT/3 is too long to print
        (
            "check-pencil",
            {
                "N": 1, "eta": [[1]], "K": f"1e{_LIMIT}", "g": [["1"]], "b": [[["0"]]],
                "second": {"K": 3, "g": [["1"]], "b": [[["0"]]]},
            },
        ),
    ],
    ids=["witness", "local-member"],
)
def test_a_report_number_too_long_to_print_exits_3(tmp_path, capsys, command, doc, fmt):
    assert main([command, _write(tmp_path, "p.json", doc), *fmt]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{command}: expression size limit: a coefficient has more than {_LIMIT} digits\n"


_HUGE = "1" + "0" * 400  # beyond the float range


def _scalar_simulation(h=("u1^2/2",), K=0, init=("0.1*sin(x)",)):
    return {
        "N": 1,
        "eta": [[1]],
        "K": K,
        "H": list(h),
        "simulation": {"grid_M": 64, "L": TWO_PI, "dt": 0.001, "t_end": 0.01, "init": list(init)},
    }


@pytest.mark.parametrize(
    "init", [f"{_HUGE}*sin(x)", f"{_HUGE}*x"], ids=["initial-data-tree", "initial-data-expr"]
)
def test_initial_data_beyond_the_float_range_is_input_error(tmp_path, capsys, init):
    path = _write(tmp_path, "p.json", _scalar_simulation(init=[init]))
    assert main(["simulate", path, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: simulation.init[0]: a constant exceeds the float range\n"
    assert not (tmp_path / "o").exists()


def test_the_float_range_check_reads_the_constants_that_sampling_converts(tmp_path):
    from hydrobrackets.cli import load_problem

    # initial data keeps its division, and sampling converts both constants,
    # with a call or without
    for k, init in enumerate([f"{_HUGE}*x/{_HUGE}", f"{_HUGE}*sin(x)/{_HUGE}"]):
        path = _write(tmp_path, f"p{k}.json", _scalar_simulation(init=[init]))
        with pytest.raises(ValueError, match=r"^simulation.init\[0\]: a constant exceeds"):
            load_problem(path)


@pytest.mark.parametrize(
    "init,message",
    [
        # expanded, the datum held coefficients beyond the float range
        ("(x+1)^3000", "simulation.init: initial datum 1 is not finite on the grid"),
        # as written, the power overflows on the grid; no table of powers is built
        ("x^100000000", "simulation.init: initial datum 1 is not finite on the grid"),
        # 0/0 at x = 0: the datum is not reduced to 1/(x+9)
        ("x/(x*(x+9))", "simulation.init: initial datum 1 is not finite on the grid"),
        # a call in the numerator does not keep the divisor from being made exact
        ("sin(x)/(x-x)", "simulation.init[0]: identically zero denominator (at offset 6)"),
    ],
    ids=["power-of-a-sum", "huge-power", "zero-over-zero", "zero-divisor-beside-a-call"],
)
def test_initial_data_is_sampled_as_written(tmp_path, capsys, init, message):
    path = _write(tmp_path, "p.json", _scalar_simulation(init=[init]))
    assert main(["simulate", path, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_a_high_power_of_a_sum_loads_at_once(tmp_path):
    """Expanded, (1 + x/100000)^2000 took over a minute to load; sampled as
    written it takes milliseconds.  A child process bounds the wait."""
    path = _write(tmp_path, "p.json", _scalar_simulation(init=["(1+x/100000)^2000"]))
    code = (
        "import sys, time\n"
        "from hydrobrackets.cli import load_initial_state, load_problem\n"
        "start = time.perf_counter()\n"
        "load_initial_state(load_problem(sys.argv[1]))\n"
        "print(time.perf_counter() - start)\n"
    )
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code, path],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 1.0


_MERSENNE = str(2**61 - 1)  # the modulus of the divisor residues


@pytest.mark.parametrize(
    "init,offset",
    [
        ("1/(x-x)", 1),
        ("1/((x+1)^2 - x^2 - 2*x - 1)", 1),
        ("sin(x)/(x-x)", 6),
        # the residue is undecided, so the factor is made exact
        (f"1/(1/{_MERSENNE} - 1/{_MERSENNE})", 1),
        ("sin(x) + x/((1+x)^3 - (1+x)*(1+x)^2)", 10),
    ],
    ids=["difference", "expanded-square", "beside-a-call", "residue-undecided", "powers"],
)
def test_a_zero_divisor_factor_is_rejected_exactly(tmp_path, capsys, init, offset):
    path = _write(tmp_path, "p.json", _scalar_simulation(init=[init]))
    assert main(["simulate", path, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: simulation.init[0]: identically zero denominator (at offset {offset})\n"
    assert not (tmp_path / "o").exists()


def test_a_divisor_factor_holding_a_high_power_parses_at_once():
    """Made exact, the sum (1 + x/100000)^1000 + 1 took 5.6 s to expand; its
    nonzero residue shows at once that it is not zero.  A child process
    bounds the wait."""
    code = (
        "import time\n"
        "from hydrobrackets.expr import parse\n"
        "start = time.perf_counter()\n"
        "parse('1/((1+x/100000)^1000 + 1)', ('x',), initial_data=True)\n"
        "print(time.perf_counter() - start)\n"
    )
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 0.5


@pytest.mark.parametrize(
    "doc",
    [_scalar_simulation(h=[f"{_HUGE}*u1^2/2"]), _scalar_simulation(K=_HUGE)],
    ids=["potential", "nonlocal-constant"],
)
@pytest.mark.parametrize("command", ["simulate", "commute"])
def test_flow_coefficients_beyond_the_float_range_exit_3(tmp_path, capsys, doc, command):
    path = _write(tmp_path, "p.json", doc)
    extra = ["--out", str(tmp_path / "o")] if command == "simulate" else ["--levels", "2"]
    assert main([command, path, *extra]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{command}: expression size limit: a coefficient exceeds the float range\n"


@pytest.mark.parametrize("value", ["nan", "-1e-8", "-inf"])
def test_tol_must_be_a_non_negative_number(scalar_file, tmp_path, capsys, value):
    assert main(["simulate", scalar_file, f"--tol={value}", "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: --tol: must be a non-negative number\n"
    assert not (tmp_path / "o").exists()


def _out_error(capsys, scalar_file, out):
    assert main(["simulate", scalar_file, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error: --out: ")
    assert _single_line(captured.err)
    return captured.err


def test_out_that_is_a_file_or_under_one_is_refused_before_the_run(
    scalar_file, tmp_path, capsys, monkeypatch
):
    from hydrobrackets import numsim

    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    runs = []
    monkeypatch.setattr(numsim, "run", lambda *a: runs.append(a))
    for out in (afile, afile / "sub"):
        err = _out_error(capsys, scalar_file, out)
        assert err == f"input error: --out: not a directory: {str(afile)!r}\n"
    assert runs == [] and afile.read_text() == "kept\n"


def test_out_that_cannot_be_made_or_written_is_input_error(scalar_file, tmp_path, capsys):
    # a dangling link passes the check before the run; making it fails
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "missing" / "target")
    err = _out_error(capsys, scalar_file, link)
    assert "File exists" in err
    # a directory where diag.csv goes fails the first write
    (tmp_path / "o" / "diag.csv").mkdir(parents=True)
    err = _out_error(capsys, scalar_file, tmp_path / "o")
    assert "Is a directory" in err


def test_a_step_that_serves_two_snapshot_times_writes_one_file(tmp_path, capsys):
    doc = _scalar_simulation()
    # dt = 0.001: 0.005 twice and 0.0049 all land on the step at t = 0.005
    doc["simulation"]["snapshots"] = [0.005, 0.005, "49/10000", 0.01]
    path = _write(tmp_path, "snaps.json", doc)
    assert main(["simulate", path, "--json", "--out", str(tmp_path / "o")]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["snapshots"] == ["snap_0.005.csv", "snap_0.01.csv"]
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [
        "diag.csv", "snap_0.005.csv", "snap_0.01.csv"
    ]


def test_steps_that_g_prints_alike_write_one_file_each(tmp_path, capsys, monkeypatch):
    # the steps at t = 123456 and 123456.5 both print as 123456 under :g.
    # Reaching them takes 246914 steps, so the run takes two steps and
    # stamps its two snapshots with the requested times
    from hydrobrackets import numsim

    doc = {
        "N": 2,
        "eta": [[1, 0], [0, 1]],
        "K": 1,
        "H": ["2*u1 - u2", "u1 + 3*u2"],
        "simulation": {
            "grid_M": 8,
            "L": 1000,
            "dt": 0.5,
            "t_end": 123457,
            "snapshots": [123456, 123456.5],
            "init": ["0.001*sin(2*3.14159265358979*x/1000)", "0"],
        },
    }
    path = _write(tmp_path, "collide.json", doc)
    run = numsim.run

    def two_steps(cflow, v0, grid, dt, t_end, times):
        result = run(cflow, v0, grid, dt, 2 * dt, [dt, 2 * dt])
        return result._replace(snapshots=[(t, v) for t, (_, v) in zip(times, result.snapshots)])

    monkeypatch.setattr(numsim, "run", two_steps)
    assert main(["simulate", path, "--json", "--out", str(tmp_path / "o")]) == 0
    names = ["snap_123456.0.csv", "snap_123456.5.csv"]
    assert json.loads(capsys.readouterr().out)["snapshots"] == names
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["diag.csv", *names]
