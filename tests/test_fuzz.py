"""Every problem file, however malformed, ends in a documented exit code
(0 pass, 1 check failed, 2 malformed input, 3 runtime event) with at most
one line on stderr, never a traceback.

Problem files are drawn with N in {1, 2}: entries are rationals,
polynomials and quotients in u1..uN (zero denominators included), mixed
with wrong shapes, booleans, wrong types and missing keys.  Half of them
carry a ``simulation`` block of a few time steps on a small grid, with
rational, transcendental and junk initial data, ``grid_M`` values above
the cap, and times that are negative, beyond the float range or (snapshots)
past ``t_end``.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hydrobrackets.cli import main

COMMANDS = [
    ["check-poisson"],
    ["check-compat"],
    ["check-pencil"],
    ["check-canonical"],
    ["build-canonical"],
    ["liouville"],
    ["hierarchy", "--levels", "1"],
    ["commute", "--levels", "1"],
    ["simulate", "--level", "1"],
]

JUNK = st.sampled_from([True, False, None, "", "x", "1/0", "u9", "2^u1", [], {}, [[1]]])
RATIONALS = st.sampled_from([1, -2, 3, "1/2", "-3/4", "2/3", 0])


@st.composite
def expressions(draw, n: int):
    """An entry: mostly a rational, polynomial or quotient, now and then junk."""
    if draw(st.integers(0, 19)) == 0:
        return draw(JUNK)
    names = [f"u{i + 1}" for i in range(n)]
    atoms = st.one_of(
        RATIONALS.map(str),
        st.sampled_from(names),
        st.tuples(st.sampled_from(names), st.sampled_from([2, 3, -1])).map(
            lambda t: f"{t[0]}^({t[1]})"
        ),
    )
    monomials = st.lists(atoms, min_size=1, max_size=3).map("*".join)
    polys = st.lists(monomials, min_size=1, max_size=3).map(" + ".join)
    zero = st.sampled_from(["0", "u1 - u1", f"{names[-1]}*0"])
    quotients = st.tuples(polys, st.one_of(polys, zero)).map(
        lambda t: f"({t[0]})/({t[1]})"
    )
    return draw(st.one_of(polys, quotients, RATIONALS))


# the rational data come first, where the draws fall most often; their
# denominators are positive on every grid drawn (x >= 0)
INITS = st.sampled_from(
    ["1/(2 + x^2)", "x/(3 + x)^2 - 1/(5 + x^3)",
     "0.1*sin(x)", "0.05*cos(x) + 0.02*sin(2*x)", "exp(x)/100", "x/10 - x^2/50",
     "1/sin(x)", "1/(2 + sin(x))", "x^(-1)", "sin(u1)", "u1", "sin(x", True, None, "1/4"]
)


@st.composite
def simulations(draw, n: int):
    """A simulation block of one to three steps, now and then too large or
    junk; times may be negative, beyond the float range, or snapshots past
    t_end."""
    dt = draw(st.sampled_from([Fraction(1, 1000), Fraction(1, 10), Fraction(2)]))
    steps = draw(st.sampled_from([1, 2, 3, Fraction(5, 2), -1, None]))
    return {
        "grid_M": draw(st.sampled_from([8, 16, 64, 1 << 17, 1 << 40, 12, True])),
        "L": draw(st.sampled_from([6.283185307179586, 1, "1/2", 0, "1e400"])),
        "dt": str(dt),
        "t_end": "1e400" if steps is None else str(dt * steps),
        "init": draw(st.lists(INITS, min_size=n, max_size=n)),
        "snapshots": draw(st.sampled_from([[], ["0", str(dt)], [str(4 * dt)]])),
    }


def square(entries, n: int):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def blocks(draw, n: int):
    """A well-shaped bracket block: eta, K and one of H, g+b, canonical."""
    e = expressions(n)
    entries = draw(st.lists(RATIONALS, min_size=n * n, max_size=n * n))
    eta = [[entries[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    doc = {"eta": eta, "K": draw(RATIONALS)}
    kind = draw(st.sampled_from(["H", "H", "explicit", "canonical"]))
    if kind == "H":
        doc["H"] = draw(st.lists(e, min_size=n, max_size=n))
    elif kind == "explicit":
        doc["g"] = draw(square(e, n))
        doc["b"] = draw(st.lists(square(e, n), min_size=n, max_size=n))
    else:
        doc["canonical"] = {"a": draw(st.lists(RATIONALS, min_size=n, max_size=n))}
    return doc


@st.composite
def problems(draw):
    """A problem file; one time in three one of its keys (N, a bracket key,
    the second block, or a key inside it) is junk, misshapen or missing."""
    n = draw(st.sampled_from([1, 2]))
    doc = {"N": n, **draw(blocks(n))}
    if draw(st.booleans()):
        doc["second"] = draw(blocks(n))
    if draw(st.booleans()):
        doc["simulation"] = draw(simulations(n))
    if draw(st.integers(0, 2)) == 0:
        target = doc
        if "second" in doc and draw(st.booleans()):
            target = doc["second"]
        key = draw(st.sampled_from(sorted(target)))
        bad = st.one_of(JUNK, st.lists(st.lists(RATIONALS, max_size=3), max_size=3))
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(bad)
    return doc


def _ends_in_a_documented_exit_code(base, doc, command):
    path = base / "fuzz.json"
    path.write_text(json.dumps(doc))
    if command[0] == "simulate":
        command = [*command, "--out", str(base / "out")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], str(path), *command[1:]])
    assert code in (0, 1, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(doc=problems(), command=st.sampled_from(COMMANDS))
def test_any_problem_file_ends_in_a_documented_exit_code(
    tmp_path_factory, doc, command
):
    _ends_in_a_documented_exit_code(tmp_path_factory.getbasetemp(), doc, command)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(sim=simulations(1))
def test_any_simulation_block_of_a_valid_pair_ends_in_a_documented_exit_code(
    tmp_path_factory, sim
):
    # most of the files above fail before their simulation block is read
    doc = {"N": 1, "eta": [[1]], "K": 0, "H": ["u1^2/2"], "simulation": sim}
    _ends_in_a_documented_exit_code(tmp_path_factory.getbasetemp(), doc, ["simulate"])
