"""Parser, differentiation, zero-decision and evaluation of the exact kernel."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrobrackets import expr as _ex
from hydrobrackets import poly as _poly
from hydrobrackets.expr import (
    Expr,
    ParseError,
    UnknownVariableError,
    Zeroness,
    is_zero,
    parse,
)
from hydrobrackets.numsim import _sample_tree

import oracles

UV = ("u1", "u2")


def test_parse_polynomial_two_monomials():
    e = parse("u1^2*u2 - 1/2", UV)
    num, den = e.normal_form()
    assert len(num.terms) == 2
    assert den.const_value() == 2  # canonical integer-coefficient form


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariableError) as exc:
        parse("u3", UV)
    assert exc.value.offset == 0


def test_parse_reads_names_through_a_mapping():
    # each written name stands for the variable it maps to; only the
    # mapping's keys are names the text may use
    spelled = {"u1": "v1", "u2": "v2"}
    assert str(parse("u1^2*u2 - u2", spelled)) == "v1^2*v2 - v2"
    assert str(parse("u1^2*u2 - u2", spelled)) == str(parse("v1^2*v2 - v2", ("v1", "v2")))
    with pytest.raises(UnknownVariableError, match=r"^unknown variable 'v1' \(at offset 0\)$"):
        parse("v1 + u2", spelled)


def test_parse_decimal_becomes_exact_rational():
    from hydrobrackets.numsim import Grid, sample_initial_data

    assert str(parse("0.1*u1 + 2.50", UV)) == "1/10*u1 + 5/2"
    e = parse("0.1*sin(x)", ("x",), initial_data=True)
    # oracle: sample at x = pi/2, where the sine factor is exactly 1
    assert sample_initial_data(Grid(8, 2 * math.pi), [e])[0][2] == 0.1


def test_parse_decimal_in_rational_context():
    e = parse("0.25*u1", UV)
    assert e.evaluate({"u1": Fraction(4), "u2": 0}) == Fraction(1)


def test_transcendental_rejected_outside_initial_data():
    with pytest.raises(ParseError, match="'sin' is only allowed in initial-data expressions"):
        parse("sin(u1)", UV)


def test_non_integer_exponent():
    with pytest.raises(ParseError, match="exponent must be an integer"):
        parse("u1^1.5", UV)
    with pytest.raises(ParseError, match="exponent must be an integer"):
        parse("u1^u2", UV)


def test_negative_integer_exponent():
    e = parse("u1^(-2)", UV)
    assert e.evaluate({"u1": Fraction(2), "u2": 0}) == Fraction(1, 4)


def test_syntax_error_carries_offset():
    with pytest.raises(ParseError) as exc:
        parse("u1 + * u2", UV)
    assert exc.value.offset == 5


def test_whitespace_insensitive():
    a = parse(" u1 ^ 2\t* u2", UV)
    b = parse("u1^2*u2", UV)
    assert is_zero(a - b) is Zeroness.ZERO


def test_differentiate_basic():
    e = parse("u1^2*u2", UV)
    d = e.diff("u1")
    assert is_zero(d - parse("2*u1*u2", UV)) is Zeroness.ZERO
    assert is_zero(Expr.const(7).diff("u1")) is Zeroness.ZERO


def test_differentiate_power_matches_finite_differences():
    # oracle: central finite difference with step 1e-6
    e = parse("(u1+u2)^3", UV)
    d = e.diff("u2")
    assert d.evaluate({"u1": 1, "u2": 1}) == 12
    h = 1e-6
    fd = (
        e.evaluate({"u1": 1.0, "u2": 1.0 + h}) - e.evaluate({"u1": 1.0, "u2": 1.0 - h})
    ) / (2 * h)
    assert abs(fd - 12) < 1e-5


def _depth(table) -> int:
    return 0 if isinstance(table, Expr) else 1 + _depth(table[0])


def _entries(table, at=()):
    """(index tuple, Expr) of every entry of a nested table, row-major."""
    if isinstance(table, Expr):
        yield at, table
        return
    for k, t in enumerate(table):
        yield from _entries(t, at + (k,))


@pytest.mark.parametrize(
    "table",
    [
        parse("u1^2*u2 - 3*u2", UV),
        (parse("u1*u2", UV), parse("u2^3", UV), Expr.const(5)),
        ((parse("u1^2", UV), parse("u1/(u1 + u2)", UV)), (parse("u1*u2", UV), parse("7", UV))),
        (
            ((parse("u1", UV), parse("u2^2", UV)), (parse("1/(1 - u1*u2)", UV), parse("0", UV))),
            ((parse("u1^3*u2", UV), parse("u1 - u2", UV)), (parse("2", UV), parse("u2/u1^2", UV))),
        ),
    ],
    ids=["expr", "tuple", "2-level", "3-level"],
)
def test_grad_is_the_table_one_level_deeper_with_the_variable_last(table):
    d = _ex.grad(table, UV)
    assert _depth(d) == _depth(table) + 1
    entries = list(_entries(table))
    derivs = list(_entries(d))
    assert len(derivs) == len(entries) * len(UV)
    # row-major: the derivatives of one entry are adjacent, by variable
    for k, (where, got) in enumerate(derivs):
        (at, e), v = entries[k // len(UV)], k % len(UV)
        assert where == at + (v,)
        assert is_zero(got - e.diff(UV[v])) is Zeroness.ZERO


def test_grad_of_a_bare_expr_is_a_flat_list():
    # operator_matrix reads grad(S) as a vector and grad(grad(S)) as a matrix
    S = parse("u1^2*u2 + u2^3/3", UV)
    Sj = _ex.grad(S, UV)
    assert isinstance(Sj, list) and all(isinstance(d, Expr) for d in Sj)
    assert [str(d) for d in Sj] == ["2*u1*u2", "u1^2 + u2^2"]
    assert [[str(d) for d in row] for row in _ex.grad(Sj, UV)] == [["2*u2", "2*u1"], ["2*u1", "2*u2"]]


def test_is_zero_binomial_identity():
    e = parse("(u1+u2)^2 - u1^2 - 2*u1*u2 - u2^2", UV)
    assert is_zero(e) is Zeroness.ZERO


def test_is_zero_commutativity():
    assert is_zero(parse("u1*u2 - u2*u1", UV)) is Zeroness.ZERO


def test_is_zero_nonzero():
    e = parse("u1^2 - u2", UV)
    assert is_zero(e) is Zeroness.NONZERO
    assert e.evaluate({"u1": 1, "u2": 0}) == 1


def test_evaluate_examples():
    e = parse("u1^2 + u2", UV)
    assert e.evaluate({"u1": 2, "u2": 3}) == 7
    with pytest.raises(ZeroDivisionError):
        parse("1/u1", UV).evaluate({"u1": 0, "u2": 1})
    with pytest.raises(ValueError, match="is not assigned"):
        e.evaluate({"u1": 2})
    with pytest.raises(ValueError, match="is not assigned"):
        parse("1/u2", UV).evaluate({"u1": 2})


def test_rational_arithmetic_stays_exact():
    e = parse("1/3*u1 + 1/6", UV)
    assert e.evaluate({"u1": Fraction(1, 2), "u2": 0}) == Fraction(1, 3)


# -- randomized invariants ---------------------------------------------------


def _random_poly(rng, nvars=3, degree=4, terms=6) -> Expr:
    vars = [f"u{i + 1}" for i in range(nvars)]
    e = Expr.const(0)
    for _ in range(terms):
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        mono = Expr.const(c)
        budget = rng.randint(0, degree)
        for _ in range(budget):
            mono = mono * Expr.var(rng.choice(vars))
        e = e + mono
    return e


def test_product_commutativity_normal_forms():
    rng = random.Random(101)
    for _ in range(25):
        p, q = _random_poly(rng), _random_poly(rng)
        assert (p * q).normal_form() == (q * p).normal_form()


def test_product_rule_normal_forms():
    rng = random.Random(202)
    for _ in range(25):
        p, q = _random_poly(rng), _random_poly(rng)
        lhs = (p * q).diff("u1")
        rhs = q * p.diff("u1") + p * q.diff("u1")
        assert lhs.normal_form() == rhs.normal_form()


def test_self_difference_is_zero():
    rng = random.Random(303)
    for _ in range(25):
        p = _random_poly(rng)
        assert is_zero(p - p) is Zeroness.ZERO


def test_derivative_matches_finite_differences_randomized():
    rng = random.Random(404)
    for _ in range(10):
        p = _random_poly(rng)
        d = p.diff("u2")
        point = {v: rng.uniform(0.2, 0.8) for v in ("u1", "u2", "u3")}
        h = 1e-6
        up = dict(point, u2=point["u2"] + h)
        dn = dict(point, u2=point["u2"] - h)
        fd = (p.evaluate(up) - p.evaluate(dn)) / (2 * h)
        exact = d.evaluate(point)
        scale = max(1.0, abs(exact))
        assert abs(fd - exact) / scale < 1e-5


def test_quotient_normalization_and_equality():
    a = parse("(u1^2 - u2^2)/(u1 - u2)", UV)
    b = parse("u1 + u2", UV)
    assert is_zero(a - b) is Zeroness.ZERO
    assert a.normal_form() == b.normal_form()


def test_the_factor_that_cancels_does_not_depend_on_the_order_names_were_first_seen():
    # 1/((a^2 + a)(a*b + a)) times a*(a + 1)*(b + 1): either factor divides
    # the product, and _make cancels the one it lists first.  That order is
    # sort_key's (var_key order), never the order in which the process first
    # saw a and b, which key() follows; so both pairs give one result.
    for a, b, seen_first in (("zqa1", "zqa2", "zqa1"), ("zqb1", "zqb2", "zqb2")):
        assert not {a, b} & set(_poly._SHIFT)
        Expr.var(seen_first)
        A, B = Expr.var(a), Expr.var(b)
        e = Expr.const(1) / (A * A + A) / (A * B + A) * (A * (A + 1) * (B + 1))
        assert [(str(f), k) for f, k in e.den] == [(f"{a}^2 + {a}", 1)]
        assert str(e.num) == f"{a} + 1"
        assert e.free_vars() == {a}


def test_render_round_trip():
    rng = random.Random(505)
    for _ in range(20):
        p = _random_poly(rng)
        q = _random_poly(rng)
        e = p / (q + Expr.const(1)) if not (q + Expr.const(1)).is_zero() else p
        back = parse(str(e), ("u1", "u2", "u3"))
        assert is_zero(back - e) is Zeroness.ZERO


def test_zero_operands_return_the_other_operand():
    x = parse("u1^2 - u2/3", UV)
    zero = Expr.const(0)
    assert x + zero is x and zero + x is x and x - zero is x
    assert x * zero is zero and zero * x is zero and -zero is zero
    assert str(x + 0) == str(x) and str(0 * x) == "0"


# -- transcendental expressions are initial data only --------------------------


def test_transcendental_initial_data_takes_no_part_in_arithmetic():
    import numpy as np

    from hydrobrackets.numsim import Grid, sample_initial_data

    # a datum with a call stays a parse tree, which only the sampler reads
    e = parse("0.1*sin(x)", ("x",), initial_data=True)
    assert not isinstance(e, Expr)
    for op in (lambda: e + 1, lambda: 0 * e, lambda: -e):
        with pytest.raises(TypeError):
            op()
    grid = Grid(16, 2 * math.pi)
    v = sample_initial_data(grid, [e])
    assert np.max(np.abs(v[0] - 0.1 * np.sin(grid.nodes))) < 1e-15
    # rational initial data is a parse tree too, sampled as written
    r = parse("x^2/2 - 1/3", ("x",), initial_data=True)
    assert not isinstance(r, Expr)
    x, c = grid.nodes, lambda value: np.full(grid.m, value)
    want = x**2 / c(2.0) + c(-1.0) * (c(1.0) / c(3.0))
    assert sample_initial_data(grid, [r])[0].tobytes() == want.tobytes()


def test_is_zero_takes_only_the_expression():
    import inspect

    assert list(inspect.signature(is_zero).parameters) == ["e"]


@pytest.mark.parametrize(
    "text,offset",
    [
        ("u1/(u1-u1)", 2),
        ("(u1 - u1)^-2", 9),
        ("0^(-1)", 1),
        ("u2 + 1/(2*u1 - u1 - u1)", 6),
        # a divisor taken apart into its factors keeps the offsets of a whole one
        ("1/((u1-u1)^2*u2)", 1),
        ("1/((u1-u1)*(1/(u2-u2)))", 13),
    ],
)
def test_identically_zero_denominator_is_a_parse_error(text, offset):
    with pytest.raises(ParseError) as exc:
        parse(text, UV)
    assert exc.value.offset == offset
    assert str(exc.value) == f"identically zero denominator (at offset {offset})"


# -- the tree walks -------------------------------------------------------------


def _ref_divisor_factors(node, k=1):
    """A divisor as (factor, exponent) pairs, products and positive powers
    taken apart."""
    if isinstance(node, _ex._Mul):
        return [fk for a in node.args for fk in _ref_divisor_factors(a, k)]
    if isinstance(node, _ex._Pow) and node.exp > 0:
        return _ref_divisor_factors(node.base, k * node.exp)
    return [(node, k)]


def _ref_tree_to_expr(node):
    """A recursive walk with the fold's order: operands left to right, each
    check after its operands; a division divides by each factor of its
    divisor in turn."""
    if isinstance(node, _ex._Add):
        acc = Expr.const(0)
        for a in node.args:
            acc = acc + _ref_tree_to_expr(a)
        return acc
    if isinstance(node, _ex._Mul):
        acc = Expr.const(1)
        for a in node.args:
            acc = acc * _ref_tree_to_expr(a)
        return acc
    if isinstance(node, _ex._Pow):
        base = _ref_tree_to_expr(node.base)
        if node.exp < 0 and base.is_zero():
            raise _ex.ParseError("identically zero denominator", node.at)
        return base**node.exp
    if isinstance(node, _ex._Div):
        num = _ref_tree_to_expr(node.num)
        dens = [(_ref_tree_to_expr(f), k) for f, k in _ref_divisor_factors(node.den)]
        if any(d.is_zero() for d, _ in dens):
            raise _ex.ParseError("identically zero denominator", node.at)
        for d, k in dens:
            num = num / d if k == 1 else num * d**-k
        return num
    if isinstance(node, _ex._Const):
        return Expr.const(node.value)
    return Expr.var(node.name)


def _ref_has_call(node):
    if isinstance(node, _ex._Call):
        return True
    if isinstance(node, (_ex._Add, _ex._Mul)):
        return any(_ref_has_call(a) for a in node.args)
    if isinstance(node, _ex._Pow):
        return _ref_has_call(node.base)
    if isinstance(node, _ex._Div):
        return _ref_has_call(node.num) or _ref_has_call(node.den)
    return False


def _ref_sample(node, x):
    """The recursive sampler of transcendental initial data."""
    if isinstance(node, _ex._Const):
        return np.full(x.shape, float(node.value))
    if isinstance(node, _ex._Var):
        if node.name != "x":
            raise ValueError(node.name)
        return x
    if isinstance(node, _ex._Add):
        return sum(_ref_sample(a, x) for a in node.args)
    if isinstance(node, _ex._Mul):
        out = _ref_sample(node.args[0], x)
        for a in node.args[1:]:
            out = out * _ref_sample(a, x)
        return out
    if isinstance(node, _ex._Pow):
        return _ref_sample(node.base, x) ** node.exp
    if isinstance(node, _ex._Div):
        return _ref_sample(node.num, x) / _ref_sample(node.den, x)
    return getattr(np, node.fn)(_ref_sample(node.arg, x))


def _layout(e: Expr):
    """An Expr as its representation: numerator terms in dict order and the
    denominator factors."""
    return (
        list(e.num.terms.items()),
        e.num.den,
        [(list(f.terms.items()), f.den, k) for f, k in e.den],
    )


_ATOMS = st.sampled_from(["u1", "u2", "x", "0", "1", "2", "3", "0.5", "1/3", "u1^2", "u2^-1"])


def _compound(children):
    joined = st.tuples(st.sampled_from([" + ", " - ", "*", "/", " - -"]), st.lists(children, min_size=2, max_size=6))
    return st.one_of(
        joined.map(lambda t: t[0].join(t[1])),
        children.map(lambda c: f"({c})"),
        children.map(lambda c: f"-({c})"),
        st.tuples(children, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        children.map(lambda c: f"sin({c})"),
    )


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.recursive(_ATOMS, _compound, max_leaves=24))
def test_the_tree_fold_matches_a_recursive_walk(text):
    tree = _ex._Parser(text, ("u1", "u2", "x"), True).parse()
    if _ref_has_call(tree):
        x = np.linspace(-1.0, 1.0, 7)

        def sample(walk):
            try:
                with np.errstate(all="ignore"):
                    return walk(tree, x).tobytes()
            except ValueError:  # u1 or u2 in initial data
                return None

        assert sample(_sample_tree) == sample(_ref_sample)
        return
    try:
        want = _ref_tree_to_expr(tree)
    except _ex.ParseError as err:
        assert str(err).startswith("identically zero denominator")
        with pytest.raises(_ex.ParseError, match="^identically zero denominator") as exc:
            _ex._tree_to_expr(tree)
        assert exc.value.offset == err.offset
        return
    assert _layout(_ex._tree_to_expr(tree)) == _layout(want)


_CALL_FREE = st.recursive(
    _ATOMS,
    lambda children: st.one_of(
        st.tuples(st.sampled_from([" + ", " - ", "*", "/"]), st.lists(children, min_size=2, max_size=5)).map(
            lambda t: t[0].join(t[1])
        ),
        children.map(lambda c: f"({c})"),
        st.tuples(children, st.integers(-2, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(children, children).map(lambda t: f"({t[0]} - {t[1]} + ({t[1]}) - ({t[0]}))"),
    ),
    max_leaves=12,
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_CALL_FREE)
def test_a_residue_is_the_exact_value_modulo_the_prime(text):
    """Where it is decided, the residue of a call-free tree is its Expr at
    u1 = u2 = x = _AT, reduced modulo _P; so a nonzero residue is never that
    of an identically zero factor."""
    tree = _ex._Parser(text, ("u1", "u2", "x"), True).parse()
    r = _ex._fold_tree(tree, _ex._residue)
    try:
        e = _ref_tree_to_expr(tree)
    except _ex.ParseError as exc:
        assert str(exc).startswith("identically zero denominator")
        return
    assert r is not None
    if r == -1:
        return
    value = Fraction(e.evaluate({v: Fraction(_ex._AT) for v in ("u1", "u2", "x")}))
    assert value.numerator % _ex._P == r * value.denominator % _ex._P
    if e.is_zero():
        assert r == 0


def test_a_call_leaves_the_residue_undecided():
    tree = _ex._Parser("(x - x)*sin(x) + 1", ("x",), True).parse()
    assert _ex._fold_tree(tree, _ex._residue) is None
    tree = _ex._Parser("x/(x - x) + 2", ("x",), True).parse()
    assert _ex._fold_tree(tree, _ex._residue) == -1


def test_a_cancelled_term_comes_back_at_the_end():
    e = parse("u1 + u2 + u1^2 - u1 + u1", UV)
    assert [str(Expr(type(e.num)({m: 1}))) for m in e.num.terms] == ["u2", "u1^2", "u1"]


@pytest.mark.parametrize(
    "text,same_as",
    [
        ("u1" + "/u2" * 150, "u1/u2^150"),
        ("u1" + "/u2" * 3000, "u1/u2^3000"),
        ("u1" + "*u1/u2" * 2000, "u1^2001/u2^2000"),
        ("(" * 150 + "u1" + ("/u2" * 20 + ")") * 150, "u1/u2^3000"),
    ],
    ids=["150-divisions", "3000-divisions", "alternating", "nested-chains"],
)
def test_chains_of_any_length_parse(text, same_as):
    assert str(parse(text, UV)) == str(parse(same_as, UV))


def test_a_long_chain_in_initial_data_samples_left_to_right():
    x = np.linspace(0.0, 3.0, 9)
    want = np.sin(x)
    for _ in range(3000):
        want = want / np.full(x.shape, 1.001)
    tree = parse("sin(x)" + "/1.001" * 3000, ("x",), initial_data=True)
    assert _sample_tree(tree, x).tobytes() == want.tobytes()


# -- printing --------------------------------------------------------------------


def _normal_form_str(e: Expr) -> str:
    """``str`` through the reduced normal form, as rational functions print."""
    num, den = e.normal_form()
    if den.is_const():
        c = den.const_value()
        if c != 1:
            num = num * (Fraction(1) / c)
        return str(num)
    return f"({num})/({den})"


def test_polynomials_print_as_their_normal_form():
    rng = random.Random(1717)
    cases = [Expr.const(0), parse("-u1^3 + 2*u2", UV), parse("-3/7*u1*u2 - 5/2", UV)]
    for nvars in (1, 2, 3, 4):
        cases += [_random_poly(rng, nvars=nvars, degree=5, terms=8) for _ in range(25)]
    cases += [-c for c in cases] + [c * Fraction(-4, 9) for c in cases]
    assert any(str(c).startswith("-") for c in cases)
    for c in cases:
        assert c.is_poly()
        assert str(c) == _normal_form_str(c)


@pytest.mark.parametrize(
    "open_,atom,close,offset",
    [("(", "u1", ")", 150), ("sin(", "x", ")", 600), ("(u1/", "u1", ")", 600)],
    ids=["parentheses", "calls", "divisors"],
)
def test_nesting_limit(open_, atom, close, offset):
    from hydrobrackets.expr import MAX_NESTING

    assert MAX_NESTING == 150
    vars = ("u1", "x")
    deepest = open_ * 150 + atom + close * 150
    parse(deepest, vars, initial_data=True)
    with pytest.raises(ParseError) as exc:
        parse(open_ * 151 + atom + close * 151, vars, initial_data=True)
    assert exc.value.offset == offset
    assert str(exc.value) == f"expression nests deeper than 150 levels (at offset {offset})"


# -- constants in the parser -------------------------------------------------------


def _div_free(node) -> bool:
    return _ex._fold_tree(node, lambda n, values: not isinstance(n, _ex._Div) and all(values))


def test_integer_tokens_stay_ints_and_decimals_become_fractions():
    tree = _ex._Parser("3*u1 + 0.5*u2 - 2", UV, False).parse()
    consts = _ex._fold_tree(
        tree, lambda n, values: sum(values, [n.value] if isinstance(n, _ex._Const) else [])
    )
    assert sorted(map(type, consts), key=lambda t: t.__name__) == [Fraction, int, int]
    assert str(parse("3*u1 + 0.5*u2 - 2", UV)) == "3*u1 + 1/2*u2 - 2"


def test_a_quotient_of_nonzero_constants_folds_outside_initial_data():
    for text in ("1/2*u1", "u1 + 2/3/5", "-(1/2) + 2/(3/4)*u2", "(1/2)^2*u1"):
        assert _div_free(_ex._Parser(text, UV, False).parse()), text
        assert not _div_free(_ex._Parser(text, UV, True).parse()), text
    # a product keeps its shape: a sum around it adds it as one term, as it
    # does with the division in place
    for text in ("2*(1/2)*(u1 + u2)", "u1 + 1/2*2*(u1 + u2)"):
        folded, unfolded = (_ex._Parser(text, UV, mode).parse() for mode in (False, True))
        assert type(folded) is type(unfolded), text
        if type(folded) is _ex._Add:
            assert len(folded.args) == len(unfolded.args), text
    # a zero dividend or divisor stays a division, with its checks
    assert not _div_free(_ex._Parser("0/2*u1", UV, False).parse())
    with pytest.raises(_ex.ParseError, match="^identically zero denominator") as exc:
        parse("u1 + 1/(2 - 2)", UV)
    assert exc.value.offset == 6


def test_initial_data_keeps_its_divisions():
    x = np.linspace(-1.0, 3.0, 11)
    tree = parse("1/3*sin(x)", ("x",), initial_data=True)
    div, call = tree.args
    assert isinstance(div, _ex._Div) and isinstance(call, _ex._Call)
    assert isinstance(div.num, _ex._Const) and isinstance(div.den, _ex._Const)
    want = (np.full(x.shape, 1.0) / np.full(x.shape, 3.0)) * np.sin(x)
    assert _sample_tree(tree, x).tobytes() == want.tobytes()
    # (1/3)/11 in floats is not the double nearest 1/33: a fold would show
    tree = parse("1/3/11*sin(x)", ("x",), initial_data=True)
    want = (np.full(x.shape, 1.0) / np.full(x.shape, 3.0) / np.full(x.shape, 11.0)) * np.sin(x)
    assert _sample_tree(tree, x).tobytes() == want.tobytes()
    assert 1 / 3 / 11 != float(Fraction(1, 33))


_QUOTIENT_ATOMS = st.sampled_from(
    ["u1", "u2", "0", "1", "2", "3", "0.5", "1/3", "2/3/5", "(1/2)", "0/2", "7/0", "u1^2", "u2^-1"]
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    st.recursive(
        _QUOTIENT_ATOMS,
        lambda children: st.one_of(
            st.tuples(st.sampled_from([" + ", " - ", "*", "/"]), st.lists(children, min_size=2, max_size=6)).map(
                lambda t: t[0].join(t[1])
            ),
            children.map(lambda c: f"({c})"),
            children.map(lambda c: f"-({c})"),
            st.tuples(children, st.integers(-1, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        ),
        max_leaves=20,
    )
)
def test_folded_quotients_leave_every_expr_as_it_was(text):
    """Initial-data mode folds no quotient, so on call-free text it gives the
    unfolded tree: both trees must make the same Expr, term for term, or
    fail at the same offset.  Parsed as initial data, the text is rejected
    at that same offset, or not at all."""

    def convert(initial_data):
        tree = _ex._Parser(text, UV, initial_data).parse()
        try:
            return _layout(_ex._tree_to_expr(tree))
        except _ex.ParseError as exc:
            assert str(exc).startswith("identically zero denominator")
            return exc.offset

    want = convert(False)
    assert want == convert(True)
    try:
        parse(text, UV, initial_data=True)
    except _ex.ParseError as exc:
        assert str(exc).startswith("identically zero denominator")
        assert exc.offset == want
    else:
        assert not isinstance(want, int)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.recursive(_ATOMS, _compound, max_leaves=16))
def test_the_parser_records_its_calls(text):
    """Initial data is a parse tree whatever it holds, and a tree holds a
    call only where the text does (a zero factor drops one)."""
    try:
        tree = parse(text, ("u1", "u2", "x"), initial_data=True)
    except _ex.ParseError as exc:
        assert str(exc).startswith("identically zero denominator")
        tree = _ex._Parser(text, ("u1", "u2", "x"), True).parse()
    assert isinstance(tree, _ex._Node)
    assert _ref_has_call(tree) <= ("sin(" in text)


def test_a_call_under_a_zero_factor_leaves_an_expr():
    tree = parse("sin(x)*0 + x", ("x",), initial_data=True)
    assert isinstance(tree, _ex._Var) and tree.name == "x"


# -- the token pattern against the character scanner --------------------------------

# Unicode letters, digits that are not ASCII ('²' and '½' are not decimal, '٣'
# is), the decimal point, Unicode whitespace, operators and other characters
_CHARS = st.sampled_from(list("aZé_ßΩж中x1u09²٣½. \t\n\u00a0\u2003+-*/^()§,!$"))
# numbers at and beyond the default digit limit of 4300
_LONG_NUMBERS = st.sampled_from(["9" * 4300, "9" * 4301, "1." + "0" * 4299, "." + "0" * 4301, "12.5" * 1100])


def _token_stream(tokenizer, text):
    """Every token of ``text`` up to the end, or up to the error, whose
    message and offset end the list."""
    out = []
    try:
        toks = tokenizer(text)
        while not out or out[-1][0] != "end":
            out.append(toks.take())
    except ParseError as exc:
        out.append(("error", str(exc), exc.offset))
    return out


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(
    st.tuples(st.lists(_CHARS, max_size=30), st.integers(0, 30), st.one_of(st.just(""), _LONG_NUMBERS)).map(
        lambda t: "".join(t[0][: t[1]]) + t[2] + "".join(t[0][t[1] :])
    )
)
def test_the_token_pattern_matches_the_character_scanner(text):
    assert _token_stream(_ex._Tokenizer, text) == _token_stream(oracles.ScannerTokenizer, text)
