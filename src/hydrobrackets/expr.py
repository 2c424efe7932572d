"""Exact symbolic expressions: the rational-function type :class:`Expr`,
the parser and the exact zero test.

Grammar (whitespace-insensitive)::

    expr    :=  term  (('+' | '-') term)*
    term    :=  factor (('*' | '/') factor)*
    factor  :=  ('+' | '-')* power
    power   :=  atom ('^' exponent)?
    exponent:=  ['-'] INTEGER  |  '(' ['-'] INTEGER ')'
    atom    :=  NUMBER  |  NAME  |  NAME '(' expr ')'  |  '(' expr ')'

Numbers are integers or terminating decimals written in the ASCII digits
0-9; decimals are converted to exact rationals (``0.1`` becomes ``1/10``).
A number of more than ``sys.get_int_max_str_digits()`` digits is a
:class:`ParseError`.  Fractions like ``1/2`` come out of the division
operator.  The only admissible calls are ``sin``,
``cos`` and ``exp``, and only when the caller enables initial-data mode.

Every :class:`Expr` is a rational function over Q in canonical factored
form, so equality with zero is decided exactly.  Initial data never becomes
an ``Expr``: :func:`parse` returns its bare parse tree, which only the
simulator's initial-data sampler reads.
"""

from __future__ import annotations

import enum
import random
import re
import sys
from fractions import Fraction
from functools import reduce
from typing import Iterable, Mapping, Sequence

from .poly import Poly, poly_gcd

TRANSCENDENTALS = ("sin", "cos", "exp")

# The parser recurses once per open parenthesis or call; nesting them deeper
# is a ParseError, so no parse exhausts the stack.  The tree walks keep their
# own stack, so a chain ``a/b*c/d...`` of any length parses.
MAX_NESTING = 150


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


# ---------------------------------------------------------------------------
# the expression type
# ---------------------------------------------------------------------------


class Expr:
    """Immutable exact rational function over Q: a numerator polynomial over
    a denominator held as a product of monic non-constant factors with
    positive integer exponents.  All operations are pure; instances are safe
    to share.

    Every denominator factor enters through an actual division, so the
    common cancellations (pivot quotients of an elimination, quotient-rule
    derivatives) are recovered by exact trial division without running a
    full gcd; ``poly_gcd`` runs only for the reduced :meth:`normal_form`.
    A zero operand of ``+``, ``-`` or ``*`` returns at once.  Variables are
    substituted only by 0, through :meth:`at_origin`.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: tuple = ()):
        self.num = num
        self.den = den  # tuple[(Poly, int)], factors monic, sorted by key

    # -- construction ------------------------------------------------------

    @staticmethod
    def const(c: int | Fraction) -> "Expr":
        return Expr(Poly.const(c), ())

    @staticmethod
    def var(name: str) -> "Expr":
        return Expr(Poly.var(name), ())

    @staticmethod
    def _make(num: Poly, factors: Iterable[tuple]) -> "Expr":
        acc: dict = {}
        scale = Fraction(1)
        for f, e in factors:
            if e == 0:
                continue
            if f.is_zero():
                raise ZeroDivisionError("zero polynomial in denominator")
            if f.is_const():
                scale = scale * f.const_value() ** e
                continue
            _, lc = f.leading()
            if lc != 1:
                f = f * (Fraction(1) / lc)
                scale = scale * lc**e
            k = f.key()
            if k in acc:
                acc[k] = (f, acc[k][1] + e)
            else:
                acc[k] = (f, e)
        if scale != 1:
            num = num * (Fraction(1) / scale)
        if num.is_zero():
            return Expr(num, ())
        # cancel factors that divide the numerator exactly, in sort_key order:
        # where two share a divisor the first cancels, and key() order would
        # follow the order in which the process first saw each variable
        kept = []
        factors = acc.values()
        if len(acc) > 1:
            factors = sorted(factors, key=lambda fe: fe[0].sort_key())
        for f, e in factors:
            while e > 0:
                q = num.exact_div(f)
                if q is None:
                    break
                num = q
                e -= 1
            if e:
                kept.append((f, e))
        return Expr(num, tuple(kept))

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return not self.den

    def is_const(self) -> bool:
        return not self.den and self.num.is_const()

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("not a constant")
        return self.num.const_value()

    def free_vars(self) -> set:
        out = self.num.vars()
        for f, _ in self.den:
            out |= f.vars()
        return out

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if not self.den and not other.den:
            return Expr(self.num + other.num, ())
        if self.den == other.den:
            return Expr._make(self.num + other.num, self.den)
        # each factor once, in the order the sides list it, with both exponents
        exps = {}
        for i, (f, e) in enumerate(self.den + other.den):
            exps.setdefault(f.key(), [f, 0, 0])[1 if i < len(self.den) else 2] = e
        lcm, cof1, cof2 = [], Poly.const(1), Poly.const(1)
        for f, e1, e2 in exps.values():
            lcm.append((f, max(e1, e2)))
            if e2 > e1:
                cof1 = cof1 * f ** (e2 - e1)
            elif e1 > e2:
                cof2 = cof2 * f ** (e1 - e2)
        return Expr._make(self.num * cof1 + other.num * cof2, lcm)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero():
            return self
        return Expr(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return self
        if other.is_zero():
            return other
        if not self.den and not other.den:
            return Expr(self.num * other.num, ())
        return Expr._make(self.num * other.num, self.den + other.den)

    __rmul__ = __mul__

    def reciprocal(self) -> "Expr":
        if self.num.is_zero():
            raise ZeroDivisionError("division by zero expression")
        num = Poly.const(1)
        for f, e in self.den:
            num = num * f**e
        return Expr._make(num, [(self.num, 1)])

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return _coerce(other) * self.reciprocal()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("exponents must be integers")
        if n < 0:
            return self.reciprocal() ** (-n)
        if not self.den:
            return Expr(self.num**n, ())
        return Expr._make(self.num**n, [(f, e * n) for f, e in self.den])

    # -- calculus ---------------------------------------------------------------

    def diff(self, var: str) -> "Expr":
        if not self.den:
            return Expr(self.num.diff(var), ())
        # d(n/prod f^e) = (n' P - n sum_i e_i f_i' P/f_i) / (prod f^(e+1) ... )
        distinct = [f for f, _ in self.den]
        p_all = Poly.const(1)
        for f in distinct:
            p_all = p_all * f
        top = self.num.diff(var) * p_all
        for i, (f, e) in enumerate(self.den):
            cof = Poly.const(e)
            for j, g in enumerate(distinct):
                if j != i:
                    cof = cof * g
            top = top - self.num * f.diff(var) * cof
        new_den = [(f, e + 1) for f, e in self.den]
        return Expr._make(top, new_den)

    def evaluate(self, point: Mapping[str, object]):
        try:
            num = self.num.evaluate(point)
            den = 1
            for f, e in self.den:
                v = f.evaluate(point)
                if v == 0:
                    raise ZeroDivisionError("denominator vanishes at evaluation point")
                den = den * v**e
        except KeyError as exc:
            raise UnassignedVariableError(
                f"variable '{exc.args[0]}' is not assigned"
            ) from None
        return num / den

    def at_origin(self, names) -> "Expr":
        """The expression with every variable of ``names`` set to 0; raises
        ZeroDivisionError when a denominator factor vanishes there."""
        return Expr._make(self.num.at_origin(names), [(f.at_origin(names), e) for f, e in self.den])

    # -- presentation ------------------------------------------------------------

    def normal_form(self):
        """Fully reduced canonical (numerator, denominator): coprime, integer
        coefficients with coprime contents, positive leading denominator.

        The numerator meets one copy of one denominator factor per gcd: for
        each prime p these gcds take min(v_p(num), v_p(den)) copies of p out
        of both, as one gcd with the whole product would, while each gcd
        keeps the degree of a single factor (the heuristic gcd's integers
        grow with the product of the degrees)."""
        num, den = self.num, Poly.const(1)
        if num.is_zero():
            return Poly(), Poly.const(1)
        for f, e in self.den:
            for k in range(e):
                g = poly_gcd(num, f)
                if g.is_const():
                    den = den * f ** (e - k)
                    break
                num, den = num.exact_div(g), den * f.exact_div(g)
        cn = num.content()
        cd = den.content()
        num = num * (Fraction(1) / cn)
        den = den * (Fraction(1) / cd)
        ratio = cn / cd
        num = num * Fraction(ratio.numerator)
        den = den * Fraction(ratio.denominator)
        _, lc = den.leading()
        if lc < 0:
            num = -num
            den = -den
        return num, den

    def __str__(self):
        if not self.den:
            return str(self.num)  # Poly.__str__ orders the terms itself
        num, den = self.normal_form()
        if den.is_const():
            c = den.const_value()
            if c != 1:
                num = num * (Fraction(1) / c)
            return str(num)
        return f"({num})/({den})"

    def __repr__(self):
        return f"Expr({self})"


def _coerce(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Expr.const(x)
    return NotImplemented


def as_expr(x) -> Expr:
    e = _coerce(x)
    if e is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as an expression")
    return e


# ---------------------------------------------------------------------------
# parse trees (the one form of initial data)
# ---------------------------------------------------------------------------


class _Node:
    __slots__ = ()


class _Const(_Node):
    __slots__ = ("value",)

    def __init__(self, value: int | Fraction):
        self.value = value


class _Quot(_Const):
    """A quotient of two nonzero constants, folded when the tree only becomes
    an ``Expr``.  A sum keeps it in the place of the division it replaces
    (bare constants move to the end), so the terms of the sum's ``Expr``
    come in the order they would without the fold."""

    __slots__ = ()


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
    const = 0
    for a in args:
        if isinstance(a, _Add):
            flat.extend(a.args)
        elif type(a) is _Const:
            const += a.value
        else:
            flat.append(a)
    if const:
        flat.append(_Const(const))
    if not flat:
        return _Const(0)
    if len(flat) == 1:
        return flat[0]
    return _Add(tuple(flat))


def _tmul(args) -> _Node:
    """The product of ``args``, nested products flattened and bare constants
    folded into one leading constant.  A quotient folds into it too, but
    the product keeps the shape it has with the division in its place: a
    ``_Quot`` when nothing else is left, a ``_Mul`` otherwise."""
    flat = []
    const = 1
    quot = False
    for a in args:
        if isinstance(a, _Mul):
            flat.extend(a.args)
        elif isinstance(a, _Const):
            const *= a.value
            quot = quot or type(a) is _Quot
        else:
            flat.append(a)
    if const == 0:
        return _Const(0)
    if quot and not flat:
        return _Quot(const)
    if const != 1 or (quot and len(flat) == 1):
        flat.insert(0, _Const(const))
    if not flat:
        return _Const(1)
    if len(flat) == 1:
        return flat[0]
    return _Mul(tuple(flat))


def _operands(node: _Node) -> tuple:
    if isinstance(node, (_Add, _Mul)):
        return node.args
    if isinstance(node, _Pow):
        return (node.base,)
    if isinstance(node, _Div):
        return (node.num, node.den)
    if isinstance(node, _Call):
        return (node.arg,)
    return ()


def _divisor_factors(den: _Node) -> list:
    """A divisor as (factor, exponent) pairs, left to right: a product or a
    positive power is taken apart, down to factors that are neither."""
    out, todo = [], [(den, 1)]
    while todo:
        node, k = todo.pop()
        if isinstance(node, _Mul):
            todo += [(a, k) for a in reversed(node.args)]
        elif isinstance(node, _Pow) and node.exp > 0:
            todo.append((node.base, k * node.exp))
        else:
            out.append((node, k))
    return out


def _expr_operands(node: _Node) -> tuple:
    """The operands of ``_to_expr``: a division takes the numerator and then
    each factor of its divisor, so that no divisor is expanded."""
    if isinstance(node, _Div):
        return (node.num, *(f for f, _ in _divisor_factors(node.den)))
    return _operands(node)


def _fold_tree(root: _Node, combine, operands=_operands):
    """``combine(node, values)`` at every node of a parse tree, operands
    first and left to right; ``values`` holds the results at the node's
    ``operands``.  The walk keeps its own stack, so no tree is too deep for
    it; a chain ``a/b*c/d...`` nests one node per operator."""
    values, todo = [], [(root, None)]
    while todo:
        node, ops = todo.pop()  # ops: None until the node is expanded
        if ops is None:
            ops = operands(node)
            if ops:
                todo.append((node, ops))
                todo.extend([(op, None) for op in reversed(ops)])
                continue
        k = len(values) - len(ops)
        values[k:] = [combine(node, values[k:])]
    return values[0]


def _to_expr(node: _Node, values) -> Expr:
    """One node of a call-free tree as an ``Expr``, from its operands'."""
    if isinstance(node, _Const):
        return Expr.const(node.value)
    if isinstance(node, _Add):
        acc = values[0]
        for v in values[1:]:
            acc = acc + v
        return acc
    if isinstance(node, _Mul):
        acc = values[0]
        for v in values[1:]:
            acc = acc * v
        return acc
    if isinstance(node, _Pow):
        (base,) = values
        if node.exp < 0 and base.is_zero():
            raise ZeroDenominatorError("identically zero denominator", node.at)
        return base**node.exp
    if isinstance(node, _Div):
        # divided by each factor to its exponent: an expanded divisor such as
        # (x-7)^30 loses its root to cancellation when it is sampled
        num, *dens = values
        if any(d.is_zero() for d in dens):
            raise ZeroDenominatorError("identically zero denominator", node.at)
        for d, (_, k) in zip(dens, _divisor_factors(node.den)):
            num = num / d if k == 1 else num * d**-k
        return num
    return Expr.var(node.name)


def _tree_to_expr(node: _Node) -> Expr:
    return _fold_tree(node, _to_expr, _expr_operands)


# a divisor factor is certified nonzero by its residue modulo the prime _P
# with every variable at _AT, a fixed residue
_P = (1 << 61) - 1
_AT = 1_000_003


def _residue(node: _Node, values):
    """One node of a tree modulo _P, every variable at _AT, from its
    operands' residues: None once a call is met, -1 once a divisor is a
    multiple of _P (undecided)."""
    if isinstance(node, _Call) or None in values:
        return None
    if -1 in values:
        return -1
    if isinstance(node, _Const):
        num, den = node.value.numerator, node.value.denominator
        return num * pow(den, -1, _P) % _P if den % _P else -1
    if isinstance(node, _Var):
        return _AT
    if isinstance(node, _Add):
        return sum(values) % _P
    if isinstance(node, _Mul):
        return reduce(lambda a, b: a * b % _P, values)
    if isinstance(node, _Pow):
        (base,) = values
        return pow(base, node.exp, _P) if base or node.exp >= 0 else -1
    num, den = values
    return num * pow(den, -1, _P) % _P if den else -1


def _reject_zero_divisor(node: _Node, values) -> None:
    """Raise ZeroDenominatorError at a division or negative power whose
    divisor has an identically zero factor.  A factor that holds a call is
    left to the sampler, and one with a nonzero residue is nonzero (the
    residue is a ring homomorphism's image), so only a factor whose residue
    is 0 or undecided is made exact: no numerator is expanded."""
    if isinstance(node, _Div):
        divisor = node.den
    elif isinstance(node, _Pow) and node.exp < 0:
        divisor = node.base
    else:
        return
    for f, _ in _divisor_factors(divisor):
        if _fold_tree(f, _residue) in (0, -1) and _tree_to_expr(f).is_zero():
            raise ZeroDenominatorError("identically zero denominator", node.at)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# One token after optional whitespace: a number in the ASCII digits 0-9 with
# at most one decimal point (``str.isdigit`` would also admit digits such as
# '²' or '٣'), a name, an operator, the end, or any other character.  A
# name must start with a letter or '_', which ``\w`` does not check.
_TOKEN = re.compile(
    r"\s*(?:(?P<number>[0-9]+(?:\.[0-9]*)?|\.[0-9]+)|(?P<name>\w+)"
    r"|(?P<op>[-+*/^()])|(?P<end>\Z)|(?P<other>.))",
    re.DOTALL,
)


class _Tokenizer:
    """The tokens of ``text``, read one ahead: ``kind``, ``value`` and
    ``start`` describe the next one."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._advance()

    def _advance(self):
        m = _TOKEN.match(self.text, self.pos)
        kind = m.lastgroup
        value, start = m.group(kind), m.start(kind)
        if kind == "number":
            limit = sys.get_int_max_str_digits()
            if limit and len(value) - ("." in value) > limit:
                raise ParseError(f"number has more than {limit} digits", start)
        elif kind == "op":
            kind = value
        elif kind != "end" and not (value[0].isalpha() or value[0] == "_"):
            # any other character, or a name that starts with one like '²'
            raise ParseError(f"unexpected character {value[0]!r}", start)
        self.kind, self.value, self.start, self.pos = kind, value, start, m.end()

    def take(self):
        kind, value, start = self.kind, self.value, self.start
        self._advance()
        return kind, value, start


class _Parser:
    def __init__(self, text: str, names, initial_data: bool):
        self.toks = _Tokenizer(text)
        self.allowed = names if isinstance(names, Mapping) else {v: v for v in names}
        self.initial_data = initial_data
        self.depth = 0  # open parentheses and calls

    def _nest(self, at: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", at)

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
                rhs = _tmul([_Const(-1), rhs])
            node = _tadd([node, rhs])
        return node

    def term(self) -> _Node:
        node = self.factor()
        while self.toks.kind in "*/":
            op, _, at = self.toks.take()
            rhs = self.factor()
            if op == "*":
                node = _tmul([node, rhs])
            elif (
                not self.initial_data
                and isinstance(node, _Const)
                and isinstance(rhs, _Const)
                and node.value
                and rhs.value
            ):
                # initial data keeps its divisions: they fix the float order
                # in which the simulator samples it
                node = _Quot(Fraction(node.value, rhs.value))
            else:
                node = _Div(node, rhs, at)
        return node

    def factor(self) -> _Node:
        sign = 1
        while self.toks.kind in "+-":
            op, _, _ = self.toks.take()
            if op == "-":
                sign = -sign
        node = self.power()
        if sign < 0:
            node = _tmul([_Const(-1), node])
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
            return _Const(Fraction(value) if "." in value else int(value))
        if kind == "name":
            if self.toks.kind == "(" and value in TRANSCENDENTALS:
                if not self.initial_data:
                    raise TranscendentalNotAllowedError(
                        f"'{value}' is only allowed in initial-data expressions", start
                    )
                self._nest(start)
                self.toks.take()
                arg = self.expr()
                k, _, s = self.toks.take()
                if k != ")":
                    raise ParseError("expected ')'", s)
                self.depth -= 1
                return _Call(value, arg)
            if value not in self.allowed:
                raise UnknownVariableError(f"unknown variable '{value}'", start)
            return _Var(self.allowed[value])
        if kind == "(":
            self._nest(start)
            node = self.expr()
            k, _, s = self.toks.take()
            if k != ")":
                raise ParseError("expected ')'", s)
            self.depth -= 1
            return node
        raise ParseError(
            "expected a number, variable or '('" if kind == "end" else f"unexpected {value!r}",
            start,
        )


def parse(
    text: str, allowed_vars: Iterable[str] | Mapping[str, str], initial_data: bool = False
) -> Expr | _Node:
    """Parse ``text`` over the given variable names into an :class:`Expr`;
    a mapping takes each name the text may use to the variable it stands for.

    The text is read one token ahead with one compiled pattern, so an error
    is raised at the first token the grammar cannot take.
    ``initial_data=True`` additionally admits ``sin``/``cos``/``exp`` calls
    and returns the bare parse tree (a ``_Node``) of any datum, which only
    ``numsim.sample_initial_data`` reads.  A divisor or negative-power base
    that is identically zero raises :class:`ZeroDenominatorError` at the
    offset of its operator.  In initial data, a factor of it that holds a
    call is left to the sampler, and a call-free factor whose value modulo
    a 61-bit prime at a fixed point is nonzero is not made exact: only a
    factor that this residue cannot tell from zero is expanded.
    """
    tree = _Parser(text, allowed_vars, initial_data).parse()
    if not initial_data:
        return _tree_to_expr(tree)
    _fold_tree(tree, _reject_zero_divisor)
    return tree


# ---------------------------------------------------------------------------
# judgement
# ---------------------------------------------------------------------------


def random_rational_point(vars: Sequence[str], rng: random.Random) -> dict:
    """A random exact rational point in (-1, 1)^n."""
    return {v: Fraction(rng.randint(-999999, 999999), 10**6) for v in vars}


def is_zero(e: Expr) -> Zeroness:
    """Decide exactly whether ``e`` vanishes identically."""
    return Zeroness.ZERO if e.is_zero() else Zeroness.NONZERO
