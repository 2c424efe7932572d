"""Symbolic expressions: parsing, exact arithmetic, differentiation,
zero-testing and evaluation.

Grammar (whitespace-insensitive)::

    expr    :=  term  (('+' | '-') term)*
    term    :=  factor (('*' | '/') factor)*
    factor  :=  ('+' | '-')* power
    power   :=  atom ('^' exponent)?
    exponent:=  ['-'] INTEGER  |  '(' ['-'] INTEGER ')'
    atom    :=  NUMBER  |  NAME  |  NAME '(' expr ')'  |  '(' expr ')'

Numbers are integers or terminating decimals; decimals are converted to
exact rationals (``0.1`` becomes ``1/10``).  Fractions like ``1/2`` come
out of the division operator.  The only admissible calls are ``sin``,
``cos`` and ``exp``, and only when the caller enables initial-data mode.

Expressions built purely from rationals are held in a canonical
rational-function form, so equality with zero is decided exactly.
Expressions containing transcendental calls are initial data only: they
keep their parse tree, which can be evaluated, sampled and zero-tested by
random rational probing (a distinct verdict), but they take no part in
arithmetic, differentiation, substitution or renaming, which raise
``ExprError``.
"""

from __future__ import annotations

import enum
import math
import random
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .poly import RationalFn, var_key

TRANSCENDENTALS = ("sin", "cos", "exp")

_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}


class ExprError(ValueError):
    """Base class for expression-layer errors."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariableError(ParseError):
    pass


class NonIntegerExponentError(ParseError):
    pass


class TranscendentalNotAllowedError(ParseError):
    pass


class ZeroDenominatorError(ParseError):
    pass


class UnassignedVariableError(ExprError):
    pass


class EvaluationSingularityError(ExprError):
    pass


class Zeroness(enum.Enum):
    ZERO = "Zero"
    NONZERO = "NonZero"
    NUMERICALLY_ZERO = "NumericallyZero"


# ---------------------------------------------------------------------------
# parse trees (only retained for expressions with transcendental leaves)
# ---------------------------------------------------------------------------


class _Node:
    __slots__ = ()


class _Const(_Node):
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        self.value = value


class _Var(_Node):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class _Add(_Node):
    __slots__ = ("args",)

    def __init__(self, args: tuple):
        self.args = args


class _Mul(_Node):
    __slots__ = ("args",)

    def __init__(self, args: tuple):
        self.args = args


class _Pow(_Node):
    __slots__ = ("base", "exp", "at")  # at: offset of the '^'

    def __init__(self, base: _Node, exp: int, at: int):
        self.base = base
        self.exp = exp
        self.at = at


class _Div(_Node):
    __slots__ = ("num", "den", "at")  # at: offset of the '/'

    def __init__(self, num: _Node, den: _Node, at: int):
        self.num = num
        self.den = den
        self.at = at


class _Call(_Node):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: str, arg: _Node):
        self.fn = fn
        self.arg = arg


def _tadd(args) -> _Node:
    flat = []
    const = Fraction(0)
    for a in args:
        if isinstance(a, _Add):
            flat.extend(a.args)
        elif isinstance(a, _Const):
            const += a.value
        else:
            flat.append(a)
    if const:
        flat.append(_Const(const))
    if not flat:
        return _Const(Fraction(0))
    if len(flat) == 1:
        return flat[0]
    return _Add(tuple(flat))


def _tmul(args) -> _Node:
    flat = []
    const = Fraction(1)
    for a in args:
        if isinstance(a, _Mul):
            flat.extend(a.args)
        elif isinstance(a, _Const):
            const *= a.value
        else:
            flat.append(a)
    if const == 0:
        return _Const(Fraction(0))
    if const != 1:
        flat.insert(0, _Const(const))
    if not flat:
        return _Const(Fraction(1))
    if len(flat) == 1:
        return flat[0]
    return _Mul(tuple(flat))


def _tree_has_call(node: _Node) -> bool:
    if isinstance(node, _Call):
        return True
    if isinstance(node, _Add) or isinstance(node, _Mul):
        return any(_tree_has_call(a) for a in node.args)
    if isinstance(node, _Pow):
        return _tree_has_call(node.base)
    if isinstance(node, _Div):
        return _tree_has_call(node.num) or _tree_has_call(node.den)
    return False


def _tree_vars(node: _Node, out: set) -> None:
    if isinstance(node, _Var):
        out.add(node.name)
    elif isinstance(node, (_Add, _Mul)):
        for a in node.args:
            _tree_vars(a, out)
    elif isinstance(node, _Pow):
        _tree_vars(node.base, out)
    elif isinstance(node, _Div):
        _tree_vars(node.num, out)
        _tree_vars(node.den, out)
    elif isinstance(node, _Call):
        _tree_vars(node.arg, out)


def _tree_to_rf(node: _Node) -> RationalFn:
    if isinstance(node, _Const):
        return RationalFn.const(node.value)
    if isinstance(node, _Var):
        return RationalFn.var(node.name)
    if isinstance(node, _Add):
        acc = RationalFn.const(0)
        for a in node.args:
            acc = acc + _tree_to_rf(a)
        return acc
    if isinstance(node, _Mul):
        acc = RationalFn.const(1)
        for a in node.args:
            acc = acc * _tree_to_rf(a)
        return acc
    if isinstance(node, _Pow):
        base = _tree_to_rf(node.base)
        if node.exp < 0 and base.is_zero():
            raise ZeroDenominatorError("identically zero denominator", node.at)
        return base**node.exp
    if isinstance(node, _Div):
        den = _tree_to_rf(node.den)
        if den.is_zero():
            raise ZeroDenominatorError("identically zero denominator", node.at)
        return _tree_to_rf(node.num) / den
    raise ExprError("transcendental expression has no rational form")


def _tree_eval(node: _Node, point: Mapping[str, object]):
    if isinstance(node, _Const):
        return node.value
    if isinstance(node, _Var):
        if node.name not in point:
            raise UnassignedVariableError(f"variable '{node.name}' is not assigned")
        return point[node.name]
    if isinstance(node, _Add):
        acc = Fraction(0)
        for a in node.args:
            acc = acc + _tree_eval(a, point)
        return acc
    if isinstance(node, _Mul):
        acc = Fraction(1)
        for a in node.args:
            acc = acc * _tree_eval(a, point)
        return acc
    if isinstance(node, _Pow):
        base = _tree_eval(node.base, point)
        if node.exp < 0 and base == 0:
            raise ZeroDivisionError("zero raised to a negative power")
        return base**node.exp
    if isinstance(node, _Div):
        den = _tree_eval(node.den, point)
        if den == 0:
            raise ZeroDivisionError("division by zero during evaluation")
        return _tree_eval(node.num, point) / den
    if isinstance(node, _Call):
        return _FUNCS[node.fn](float(_tree_eval(node.arg, point)))
    raise TypeError(node)


def _tree_str(node: _Node, prec: int = 0) -> str:
    if isinstance(node, _Const):
        s = str(node.value)
        if node.value < 0 and prec > 0:
            return f"({s})"
        return s
    if isinstance(node, _Var):
        return node.name
    if isinstance(node, _Add):
        s = " + ".join(_tree_str(a, 1) for a in node.args).replace("+ -", "- ")
        return f"({s})" if prec > 1 else s
    if isinstance(node, _Mul):
        s = "*".join(_tree_str(a, 2) for a in node.args)
        return f"({s})" if prec > 2 else s
    if isinstance(node, _Div):
        return f"({_tree_str(node.num, 0)})/({_tree_str(node.den, 0)})"
    if isinstance(node, _Pow):
        e = node.exp if node.exp >= 0 else f"({node.exp})"
        return f"{_tree_str(node.base, 3)}^{e}"
    if isinstance(node, _Call):
        return f"{node.fn}({_tree_str(node.arg, 0)})"
    raise TypeError(node)


# ---------------------------------------------------------------------------
# the public expression type
# ---------------------------------------------------------------------------


class Expr:
    """Immutable exact symbolic expression.

    Holds either a canonical rational-function form (rational-only
    expressions) or the parse tree of initial data with sin/cos/exp leaves,
    which supports only :meth:`evaluate`, :meth:`free_vars`, ``str`` and
    :func:`is_zero`.  All operations are pure; instances are safe to share.
    """

    __slots__ = ("_rf", "_tree")

    def __init__(self, rf: RationalFn | None = None, tree: _Node | None = None):
        self._rf = rf
        self._tree = tree

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(c) -> "Expr":
        return Expr(rf=RationalFn.const(Fraction(c)))

    @staticmethod
    def var(name: str) -> "Expr":
        return Expr(rf=RationalFn.var(name))

    @staticmethod
    def from_rational(rf: RationalFn) -> "Expr":
        return Expr(rf=rf)

    @staticmethod
    def _from_tree(tree: _Node) -> "Expr":
        if _tree_has_call(tree):
            return Expr(tree=tree)
        return Expr(rf=_tree_to_rf(tree))

    # -- structure --------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._rf is not None

    @property
    def rational(self) -> RationalFn:
        if self._rf is None:
            raise ExprError("expression contains transcendental calls")
        return self._rf

    def free_vars(self) -> set:
        if self._rf is not None:
            return self._rf.vars()
        out: set = set()
        _tree_vars(self._tree, out)
        return out

    def is_const(self) -> bool:
        return self._rf is not None and self._rf.is_const()

    def const_value(self) -> Fraction:
        return self.rational.const_value()

    def normal_form(self):
        """Canonical (numerator, denominator) pair of expanded polynomials."""
        return self.rational.normal_form()

    # -- arithmetic (rational expressions only) ------------------------------

    # A zero operand returns at once (x + 0 is x, x * 0 is the zero): both
    # types are immutable.  ``rational`` is read first, so transcendental
    # operands still raise.

    def __add__(self, other):
        other = _coerce_expr(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.rational, other.rational
        if b.is_zero():
            return self
        if a.is_zero():
            return other
        return Expr(rf=a + b)

    __radd__ = __add__

    def __neg__(self):
        a = self.rational
        return self if a.is_zero() else Expr(rf=-a)

    def __sub__(self, other):
        other = _coerce_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce_expr(other) + (-self)

    def __mul__(self, other):
        other = _coerce_expr(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.rational, other.rational
        if a.is_zero():
            return self
        if b.is_zero():
            return other
        return Expr(rf=a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return Expr(rf=self.rational / other.rational)

    def __rtruediv__(self, other):
        return _coerce_expr(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("exponents must be integers")
        return Expr(rf=self.rational**n)

    # -- operations --------------------------------------------------------------

    def diff(self, var: str) -> "Expr":
        return Expr(rf=self.rational.diff(var))

    def evaluate(self, point: Mapping[str, object]):
        if self._rf is not None:
            try:
                return self._rf.evaluate(point)
            except KeyError as exc:
                raise UnassignedVariableError(
                    f"variable '{exc.args[0]}' is not assigned"
                ) from None
        return _tree_eval(self._tree, point)

    def substitute(self, assign: Mapping[str, Fraction]) -> "Expr":
        """Replace a subset of variables by exact rational constants."""
        assign = {k: Fraction(v) for k, v in assign.items()}
        return Expr(rf=self.rational.substitute(assign))

    def rename(self, mapping: Mapping[str, str]) -> "Expr":
        return Expr(rf=self.rational.rename(mapping))

    def equals(self, other) -> Zeroness:
        return is_zero(self - _coerce_expr(other))

    def __str__(self):
        if self._rf is not None:
            return str(self._rf)
        return _tree_str(self._tree)

    def __repr__(self):
        return f"Expr({self})"


ZERO = Expr.const(0)
ONE = Expr.const(1)


def _coerce_expr(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Expr.const(x)
    return NotImplemented


def as_expr(x) -> Expr:
    e = _coerce_expr(x)
    if e is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as an expression")
    return e


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._advance()

    def _advance(self):
        text, n = self.text, len(self.text)
        i = self.pos
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            self.kind, self.value, self.start = "end", "", i
            self.pos = i
            return
        c = text[i]
        start = i
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            self.kind, self.value = "number", text[i:j]
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            self.kind, self.value = "name", text[i:j]
            i = j
        elif c in "+-*/^()":
            self.kind, self.value = c, c
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
        self.start = start
        self.pos = i

    def take(self):
        kind, value, start = self.kind, self.value, self.start
        self._advance()
        return kind, value, start


class _Parser:
    def __init__(self, text: str, allowed_vars, initial_data: bool):
        self.toks = _Tokenizer(text)
        self.allowed = set(allowed_vars)
        self.initial_data = initial_data

    def parse(self) -> _Node:
        node = self.expr()
        if self.toks.kind != "end":
            raise ParseError(f"unexpected {self.toks.value!r}", self.toks.start)
        return node

    def expr(self) -> _Node:
        node = self.term()
        while self.toks.kind in "+-":
            op, _, _ = self.toks.take()
            rhs = self.term()
            if op == "-":
                rhs = _tmul([_Const(Fraction(-1)), rhs])
            node = _tadd([node, rhs])
        return node

    def term(self) -> _Node:
        node = self.factor()
        while self.toks.kind in "*/":
            op, _, at = self.toks.take()
            rhs = self.factor()
            node = _tmul([node, rhs]) if op == "*" else _Div(node, rhs, at)
        return node

    def factor(self) -> _Node:
        sign = 1
        while self.toks.kind in "+-":
            op, _, _ = self.toks.take()
            if op == "-":
                sign = -sign
        node = self.power()
        if sign < 0:
            node = _tmul([_Const(Fraction(-1)), node])
        return node

    def power(self) -> _Node:
        node = self.atom()
        if self.toks.kind == "^":
            _, _, at = self.toks.take()
            node = _Pow(node, self.exponent(), at)
        return node

    def exponent(self) -> int:
        paren = False
        if self.toks.kind == "(":
            self.toks.take()
            paren = True
        sign = 1
        if self.toks.kind == "-":
            self.toks.take()
            sign = -1
        kind, value, start = self.toks.take()
        if kind != "number" or "." in value:
            raise NonIntegerExponentError("exponent must be an integer", start)
        if paren:
            k, _, s = self.toks.take()
            if k != ")":
                raise ParseError("expected ')'", s)
        return sign * int(value)

    def atom(self) -> _Node:
        kind, value, start = self.toks.take()
        if kind == "number":
            return _Const(Fraction(value))
        if kind == "name":
            if self.toks.kind == "(" and value in _FUNCS:
                if not self.initial_data:
                    raise TranscendentalNotAllowedError(
                        f"'{value}' is only allowed in initial-data expressions", start
                    )
                self.toks.take()
                arg = self.expr()
                k, _, s = self.toks.take()
                if k != ")":
                    raise ParseError("expected ')'", s)
                return _Call(value, arg)
            if value not in self.allowed:
                raise UnknownVariableError(f"unknown variable '{value}'", start)
            return _Var(value)
        if kind == "(":
            node = self.expr()
            k, _, s = self.toks.take()
            if k != ")":
                raise ParseError("expected ')'", s)
            return node
        raise ParseError(
            "expected a number, variable or '('" if kind == "end" else f"unexpected {value!r}",
            start,
        )


def parse(text: str, allowed_vars: Iterable[str], initial_data: bool = False) -> Expr:
    """Parse ``text`` over the given variable names.

    ``initial_data=True`` additionally admits ``sin``/``cos``/``exp`` calls;
    such expressions are initial data only (see :class:`Expr`).  A rational
    divisor or negative-power base that is identically zero raises
    :class:`ZeroDenominatorError` at the offset of its operator.
    """
    tree = _Parser(text, allowed_vars, initial_data).parse()
    return Expr._from_tree(tree)


# ---------------------------------------------------------------------------
# the three judgement operations
# ---------------------------------------------------------------------------


def differentiate(e: Expr, var: str) -> Expr:
    return e.diff(var)


def evaluate(e: Expr, point: Mapping[str, object]):
    return e.evaluate(point)


def random_rational_point(vars: Sequence[str], rng: random.Random) -> dict:
    """A random exact rational point in (-1, 1)^n."""
    return {v: Fraction(rng.randint(-999999, 999999), 10**6) for v in vars}


# probing of transcendental initial data: points and threshold
PROBE_SAMPLES = 20
PROBE_TOL = 1e-10


def is_zero(e: Expr) -> Zeroness:
    """Decide whether ``e`` vanishes identically.

    Rational expressions are decided exactly through the canonical form.
    Transcendental initial data is probed at ``PROBE_SAMPLES`` random
    rational points in (-1,1)^n from a fixed seed; the affirmative verdict
    is the distinct ``NUMERICALLY_ZERO``.  Probe points that hit a
    singularity are resampled, giving up after 100 attempts.
    """
    if e.is_rational:
        return Zeroness.ZERO if e.rational.is_zero() else Zeroness.NONZERO
    vars = sorted(e.free_vars(), key=var_key)
    rng = random.Random(0)
    done = 0
    attempts = 0
    while done < PROBE_SAMPLES:
        if attempts >= 100:
            raise EvaluationSingularityError(
                "could not find enough nonsingular probe points"
            )
        attempts += 1
        point = random_rational_point(vars, rng)
        try:
            val = e.evaluate(point)
        except (ZeroDivisionError, OverflowError):
            continue
        if abs(float(val)) >= PROBE_TOL:
            return Zeroness.NONZERO
        done += 1
    return Zeroness.NUMERICALLY_ZERO
