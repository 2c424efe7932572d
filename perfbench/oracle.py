"""Known answers for the benchmark, computed without the package under test.

Everything here follows from closed forms: the constant-curvature family
g^{ij} = a^i delta^{ij} - K u^i u^j with b^{ij}_k = -K delta^i_k u^j
(Mokhov and Ferapontov, 1990), the canonical pair generated by potentials
H^i, the Hopf hierarchy and its characteristics solution.  Expression
strings printed by the program are evaluated by a small exact evaluator of
our own, so a check never parses output with the code it is checking.
"""

from __future__ import annotations

import ast
from fractions import Fraction

import numpy as np

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: Fraction(a) / b,
}


def evaluate(text: str, point: dict) -> Fraction:
    """Exact value of a polynomial/rational expression string at a point.

    The grammar is the one the problem files and reports use: integers,
    names, ``+ - * /`` and ``^`` with an integer exponent, parentheses.
    """
    tree = ast.parse(text.replace("^", "**"), mode="eval")

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return Fraction(node.value)
        if isinstance(node, ast.Name):
            return Fraction(point[node.id])
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exp = ev(node.right)
            if exp.denominator != 1:
                raise ValueError(f"non-integer exponent in {text!r}")
            return ev(node.left) ** int(exp)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](ev(node.left), ev(node.right))
        raise ValueError(f"unsupported syntax in {text!r}")

    return ev(tree)


def field_point(n: int, rng, prefix: str = "u") -> dict:
    """A random exact point with small-denominator rational coordinates."""
    return {f"{prefix}{i + 1}": Fraction(rng.randint(-97, 97), rng.randint(1, 13)) for i in range(n)}


# -- potentials of degree <= 2: central differences are exact -------------

_H = Fraction(1, 3)


def _shift(point: dict, moves) -> dict:
    out = dict(point)
    for name, h in moves:
        out[name] = out[name] + h
    return out


def grad(text: str, point: dict, names) -> list:
    """dH/du^s at the point; exact for polynomials of degree <= 2."""
    return [
        (evaluate(text, _shift(point, [(s, _H)])) - evaluate(text, _shift(point, [(s, -_H)])))
        / (2 * _H)
        for s in names
    ]


def hessian(text: str, point: dict, names) -> list:
    """d2H/du^s du^k at the point; exact for polynomials of degree <= 2."""
    out = []
    for s in names:
        row = []
        for k in names:
            acc = Fraction(0)
            for hs, hk, sign in ((_H, _H, 1), (_H, -_H, -1), (-_H, _H, -1), (-_H, -_H, 1)):
                moves = [(s, hs), (k, hk)]
                acc += sign * evaluate(text, _shift(point, moves))
            row.append(acc / (4 * _H * _H))
        out.append(row)
    return out


def canonical_bracket(H: list, eta, K: Fraction, point: dict):
    """g1 and b1 of the canonical pair at a point:
    g1^{ij} = eta^{is} dH^j/du^s + eta^{js} dH^i/du^s - K u^i u^j,
    b1^{ij}_k = eta^{is} d2H^j/du^s du^k - K delta^i_k u^j."""
    n = len(H)
    names = [f"u{i + 1}" for i in range(n)]
    u = [point[x] for x in names]
    dH = [grad(h, point, names) for h in H]
    d2H = [hessian(h, point, names) for h in H]
    g = [
        [
            sum(eta[i][s] * dH[j][s] + eta[j][s] * dH[i][s] for s in range(n)) - K * u[i] * u[j]
            for j in range(n)
        ]
        for i in range(n)
    ]
    b = [
        [
            [
                sum(eta[i][s] * d2H[j][s][k] for s in range(n)) - (K * u[j] if i == k else 0)
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return g, b


def special_liouville_potentials(H: list, point: dict) -> list:
    """Potentials recovered from the canonical bracket of H against eta = I
    when the Liouville function is normalized to Phi(0) = g(0)/2 and
    H(0) = 0: H^j - H^j(0) minus the antisymmetric part of dH(0), which the
    bracket cannot see."""
    n = len(H)
    names = [f"u{i + 1}" for i in range(n)]
    origin = {x: Fraction(0) for x in names}
    d0 = [grad(h, origin, names) for h in H]  # d0[j][k] = dH^j/du^k (0)
    return [
        evaluate(H[j], point)
        - evaluate(H[j], origin)
        - sum((d0[j][k] - d0[k][j]) * point[names[k]] for k in range(n)) / 2
        for j in range(n)
    ]


# -- the constant-curvature family ------------------------------------------


def family_metric(a: list, Kg: Fraction, point: dict) -> list:
    """g^{ij} = a^i delta^{ij} - K_g u^i u^j at a point."""
    n = len(a)
    # a witness point names only the residual's variables; the others do not
    # enter its value
    u = [point.get(f"u{i + 1}", 0) for i in range(n)]
    return [[(a[i] if i == j else 0) - Kg * u[i] * u[j] for j in range(n)] for i in range(n)]


def s4_defect(a: list, Kg: Fraction, K: Fraction, indices, point: dict) -> Fraction:
    """The s4 residual of the family metric and connection with tail K:
    (K_g - K)(delta_{jk} g^{ir} - delta_{rk} g^{ij}), indices 1-based."""
    i, j, r, k = (x - 1 for x in indices)
    g = family_metric(a, Kg, point)
    return (Kg - K) * ((g[i][r] if j == k else 0) - (g[i][j] if r == k else 0))


# -- the Hopf hierarchy -------------------------------------------------------

# V of the Hopf flows v_t = V(v) v_x at levels 1..3 (README closed forms)
HOPF_V = {1: (Fraction(3), 1), 2: (Fraction(15, 2), 2), 3: (Fraction(35, 2), 3)}


def hopf_characteristics(x: np.ndarray, amplitude: float, level: int, t: float) -> np.ndarray:
    """Solution of v_t = c v^l v_x, v(x, 0) = A sin(x), before breaking:
    v = v0(x + c v^l t), solved by fixed-point iteration.  The map contracts
    with factor at most t * max|c l v^(l-1) v0'| < 1 on the chosen data."""
    coef, power = HOPF_V[level]
    c = float(coef)
    v = amplitude * np.sin(x)
    for _ in range(200):
        nxt = amplitude * np.sin(x + c * v**power * t)
        if np.max(np.abs(nxt - v)) < 1e-16 * (1.0 + amplitude):
            return nxt
        v = nxt
    return v
