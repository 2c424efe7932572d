"""Byte-identical CLI reports on the committed problem files.

The captures under ``golden/`` hold the stdout of every symbolic command,
in text and ``--json`` form, on each ``problems/*.json``; ``exit_codes.json``
holds the matching exit codes.  Three fixtures here pin the failing reports
with their witness lines: ``failing_explicit_n2.json`` (an explicit bracket
that fails check-poisson, check-compat and check-pencil),
``failing_canonical_n2.json`` (a pair that fails check-canonical) and
``failing_liouville_n2.json`` (a Liouville bracket that is not special).
A fourth, ``rational_h_n2.json``, pins build-canonical and check-canonical
on a rational potential, the one input that reaches the gcd of the exact
core.  A fifth, ``rational_cancel_n2.json``, pins the same two commands on
potentials whose denominators have several factors: the only input that
cancels a factor in ``Expr._make``, meets a nonconstant gcd in
``normal_form`` and sorts factors by ``Poly.sort_key``; it fails ass1 and
ass2 with witnesses.
A sixth, ``canonical_eta_n2.json``, pins ``hierarchy --levels 3`` on a
``canonical`` block against an eta that is not I: the bracket is the
family's, and the flows are those of its pair with that eta.
A seventh, ``canonical_pencil_n2.json``, pins ``check-pencil`` on a file
with a ``second`` block: two canonical families, a = (1, 3) and a = (2, 1),
the second inheriting K = 2, whose pencil has the flat member lam = (1, -1).
An eighth, ``gauge_n2.json``, pins ``hierarchy --levels 3`` under both
``--gauge auto`` and ``--gauge zero`` on a quadratic K = 1 pair with
H(0) != 0, the one input on which the two gauges differ: in F and S at
level 1, and in V, F and S at levels 2 and 3.
Reports are deterministic, so any change in a byte is a change in behaviour.  To record a deliberate change, rerun
``python -m hydrobrackets <command> <problem file> [args]`` and store its
stdout under the case's name.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from hydrobrackets.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
PROBLEMS = sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.json"))
COMMANDS = {
    "check-poisson": ["check-poisson"],
    "check-compat": ["check-compat"],
    "check-pencil": ["check-pencil"],
    "check-canonical": ["check-canonical"],
    "build-canonical": ["build-canonical"],
    "liouville": ["liouville"],
    "hierarchy": ["hierarchy", "--levels", "3"],
    "commute": ["commute", "--levels", "1"],  # symbolic only: no numeric t1 vs t2 line
    "commute-levels3": ["commute", "--levels", "3"],
    "commute-levels5": ["commute", "--levels", "5"],
}
# run on a fixture only: on the committed problems H(0) = 0, and the two gauges agree
FIXTURE_COMMANDS = {
    **COMMANDS,
    "hierarchy-gauge-zero": ["hierarchy", "--levels", "3", "--gauge", "zero"],
}
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())

CASES = [
    pytest.param(
        problem,
        command + fmt,
        id=f"{problem.stem}__{name}" + ("__json" if fmt else ""),
    )
    for problem in PROBLEMS
    for name, command in COMMANDS.items()
    for fmt in ([], ["--json"])
]
FIXTURES = {
    "failing_explicit_n2": ["check-poisson", "check-compat", "check-pencil"],
    "failing_canonical_n2": ["check-canonical"],
    "failing_liouville_n2": ["liouville"],
    "rational_h_n2": ["build-canonical", "check-canonical"],
    "rational_cancel_n2": ["build-canonical", "check-canonical"],
    "canonical_eta_n2": ["hierarchy"],
    "canonical_pencil_n2": ["check-pencil"],
    "gauge_n2": ["hierarchy", "hierarchy-gauge-zero"],
}
CASES += [
    pytest.param(
        GOLDEN / f"{stem}.json",
        FIXTURE_COMMANDS[name] + fmt,
        id=f"{stem}__{name}" + ("__json" if fmt else ""),
    )
    for stem, names in FIXTURES.items()
    for name in names
    for fmt in ([], ["--json"])
]


def test_every_capture_has_a_case():
    names = {p.id for p in CASES}
    assert names == set(EXIT_CODES)
    assert names == {p.stem for p in GOLDEN.glob("*.txt")}


@pytest.mark.parametrize("problem,args", CASES)
def test_report_is_byte_identical(problem, args, request, capsys):
    name = request.node.callspec.id
    code = main([args[0], str(problem), *args[1:]])
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()
    assert code == EXIT_CODES[name]
