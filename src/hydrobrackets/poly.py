"""Exact sparse multivariate polynomials, their gcd and the ray integral.

A polynomial is a dict of integer numerators over one positive integer
denominator ``den``, with the content reduced (the numerators and ``den``
have no common factor), so equal polynomials have equal representations.
Each monomial is one ``int`` of packed exponents: every variable owns a
fixed field of ``_FIELD`` bits, placed at the position the process gave it
the first time it saw the name, and a product of monomials is one integer
addition.  Exponents must stay below ``EXP_LIMIT`` (2^31); an operation that
would reach it raises :class:`ExpressionSizeError` instead of wrapping.
Presentation (``str``, ``leading``) orders monomials graded-
lexicographically, with variables compared by (alphabetic prefix, numeric
suffix), so ``u2`` precedes ``u10``.  The multivariate gcd (the heuristic
gcd GCDHEU: integer evaluation, exact-division check) serves the reduced
normal form of ``expr.Expr``.
"""

from __future__ import annotations

import heapq
import re
import sys
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd as _int_gcd, isqrt, lcm as _int_lcm
from operator import or_
from typing import Mapping, Sequence, Union

Scalar = Union[int, Fraction]

# Hard ceiling on the number of monomials in any intermediate product;
# exceeding it aborts instead of hanging on runaway expansions.
MAX_TERMS = 10**6


class ExpressionSizeError(RuntimeError):
    """Raised when an expansion exceeds the monomial budget or an exponent
    reaches ``EXP_LIMIT``."""


_VAR_RE = re.compile(r"^(.*?)(\d*)$")


@lru_cache(maxsize=None)
def var_key(name: str):
    """Sort key for variable names: alphabetic prefix, then numeric suffix."""
    m = _VAR_RE.match(name)
    suffix = m.group(2)
    if suffix:
        return (m.group(1), int(suffix))
    return (name, -1)


# -- packed monomials ---------------------------------------------------------
# The top bit of every field is a guard: exponents stay below EXP_LIMIT, so
# adding two monomials never carries from one field into the next, and a set
# guard bit after an addition means an exponent became too wide.  The
# variable index only grows, by one field per distinct variable name.

_FIELD = 32
EXP_LIMIT = 1 << (_FIELD - 1)
_MASK = (1 << _FIELD) - 1
_SHIFT: dict[str, int] = {}  # variable name -> bit offset of its field
_GUARD = 0  # the guard bit of every field in use


def _shift(name: str) -> int:
    """Bit offset of the variable's exponent field (assigned on first use)."""
    global _GUARD
    s = _SHIFT.get(name)
    if s is None:
        s = _SHIFT[name] = _FIELD * len(_SHIFT)
        _GUARD |= EXP_LIMIT << s
    return s


def _check_width(monomials) -> None:
    if reduce(or_, monomials, 0) & _GUARD:
        raise ExpressionSizeError(f"an exponent exceeds {EXP_LIMIT - 1}")


def _ordered_shifts(names) -> list:
    return [(v, _SHIFT[v]) for v in sorted(names, key=var_key)]


def _grlex_key(shifts):
    """Graded-lex sort key of a monomial over ``shifts`` (var_key order),
    as one int: the total degree above the exponents, first variable highest."""

    def key(m):
        deg = k = 0
        for _, s in shifts:
            e = (m >> s) & _MASK
            deg += e
            k = (k << _FIELD) | e
        return (deg << (_FIELD * len(shifts))) | k

    return key


def _reduced(terms: dict, den: int) -> "Poly":
    """Poly of nonzero integer numerators over den > 0, content reduced."""
    if den != 1:
        g = _int_gcd(den, *terms.values())
        if g != 1:
            terms = {m: c // g for m, c in terms.items()}
            den //= g
    return Poly(terms, den)


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients:
    ``terms`` maps packed monomials to nonzero integer numerators over the
    positive integer ``den``, with the content reduced.  The only exact
    substitution is :meth:`at_origin`, which sets variables to 0 (the
    basepoint of every path integral)."""

    __slots__ = ("terms", "den", "_key", "_leading")

    def __init__(self, terms: dict | None = None, den: int = 1):
        self.terms = {} if terms is None else terms
        self.den = den if self.terms else 1
        self._key = self._leading = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c: Scalar) -> "Poly":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        return Poly({0: c.numerator}, c.denominator) if c else Poly()

    @staticmethod
    def var(name: str) -> "Poly":
        return Poly({1 << _shift(name): 1})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("polynomial is not constant")
        return Fraction(self.terms.get(0, 0), self.den)

    def vars(self) -> set:
        support = reduce(or_, self.terms, 0)
        return {v for v, s in _SHIFT.items() if (support >> s) & _MASK}

    def key(self):
        """Hashable canonical form (used for factor identity)."""
        if self._key is None:
            self._key = (self.den, tuple(sorted(self.terms.items())))
        return self._key

    def sort_key(self):
        """The order in which denominator factors are listed and cancelled:
        the sorted (monomial, coefficient) pairs, each monomial as its
        ((variable, exponent), ...) pairs in var_key order, so unlike key()
        it does not depend on the order in which variables were first seen."""
        shifts = _ordered_shifts(self.vars())
        return tuple(
            sorted(
                (_pairs(m, shifts), Fraction(c, self.den))
                for m, c in self.terms.items()
            )
        )

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.den == other.den
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(self.key())

    # -- ordering helpers ----------------------------------------------

    def sorted_terms(self):
        """Terms in descending graded-lexicographic order, as
        (((variable, exponent), ...), coefficient) pairs."""
        shifts = _ordered_shifts(self.vars())
        key = _grlex_key(shifts)
        return [
            (_pairs(m, shifts), Fraction(self.terms[m], self.den))
            for m in sorted(self.terms, key=key, reverse=True)
        ]

    def leading(self):
        """Leading (monomial, coefficient) in graded-lex order, found once."""
        if self._leading is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            m = max(self.terms, key=_grlex_key(_ordered_shifts(self.vars())))
            self._leading = (m, Fraction(self.terms[m], self.den))
        return self._leading

    def exponent_rows(self, var_order: Sequence[str]):
        """(exponents over ``var_order``, coefficient) of each term, in the
        order the terms were formed; ``var_order`` must cover every variable."""
        shifts = [_SHIFT.get(v) for v in var_order]
        return [
            (
                tuple(0 if s is None else (m >> s) & _MASK for s in shifts),
                Fraction(c, self.den),
            )
            for m, c in self.terms.items()
        ]

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self.den, other.den
        den = d1 if d1 == d2 else _int_lcm(d1, d2)
        k1, k2 = den // d1, den // d2
        out = dict(self.terms) if k1 == 1 else {m: c * k1 for m, c in self.terms.items()}
        items = other.terms.items()
        if k2 != 1:
            items = [(m, c * k2) for m, c in items]
        for m, c in items:
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return _reduced(out, den)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce_poly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly()
            p = other.numerator
            return _reduced(
                {m: c * p for m, c in self.terms.items()},
                self.den * other.denominator,
            )
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) * len(b) > 4 * MAX_TERMS:
            raise ExpressionSizeError("product exceeds monomial budget")
        out = {}
        get = out.get
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m1 + m2
                s = get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:  # s == 0 only when m was already in out
                    del out[m]
        if len(out) > MAX_TERMS:
            raise ExpressionSizeError("expansion exceeds monomial budget")
        _check_width(out)
        return _reduced(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus / evaluation -------------------------------------------

    def diff(self, var: str) -> "Poly":
        s = _SHIFT.get(var)
        if s is None:
            return Poly()
        one = 1 << s
        out = {}
        for m, c in self.terms.items():
            e = (m >> s) & _MASK
            if e:
                out[m - one] = c * e
        return _reduced(out, self.den)

    def evaluate(self, point: Mapping[str, object]):
        """Evaluate at a full assignment; accumulation follows the canonical
        term order so float evaluation is reproducible."""
        acc = 0
        for pairs, c in self.sorted_terms():
            val = c
            for v, e in pairs:
                if v not in point:
                    raise KeyError(v)
                val = val * point[v] ** e
            acc = acc + val
        return acc

    def at_origin(self, names) -> "Poly":
        """The polynomial with every variable of ``names`` set to 0."""
        mask = reduce(or_, (_MASK << _SHIFT[v] for v in names if v in _SHIFT), 0)
        return _reduced({m: c for m, c in self.terms.items() if not m & mask}, self.den)

    # -- division -----------------------------------------------------------

    def exact_div(self, d: "Poly"):
        """Exact quotient self/d, or None if d does not divide self."""
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if d.is_const():
            return self * (Fraction(1) / d.const_value())
        if self.is_zero():
            return Poly()
        names = self.vars()
        if not d.vars() <= names:  # d has a variable self lacks
            return None
        shifts = _ordered_shifts(names)
        key = _grlex_key(shifts)
        top = _FIELD * len(shifts)  # key >> top is the total degree
        # divide by the primitive part of d: by Gauss's lemma the quotient of
        # the integer numerators is then integral whenever it exists
        content = _int_gcd(*d.terms.values())
        dterms = {m: c // content for m, c in d.terms.items()}
        ltd_m = max(dterms, key=key)
        ltd_c = dterms[ltd_m]
        r = dict(self.terms)
        heap = [(-key(m), m) for m in r]
        heapq.heapify(heap)
        # graded order: no term of a multiple of d has a lower degree than d
        if key(ltd_m) >> top > -heap[0][0] >> top:
            return None
        q = {}
        while r:
            ltr_m = heapq.heappop(heap)[1]
            ltr_c = r.get(ltr_m)
            if ltr_c is None:  # cancelled since it was pushed
                continue
            qm = (ltr_m | _GUARD) - ltd_m
            if qm & _GUARD != _GUARD:  # some exponent of ltd exceeds ltr's
                return None
            qm ^= _GUARD
            qc, rem = divmod(ltr_c, ltd_c)
            if rem:
                return None
            q[qm] = qc
            for dm, dc in dterms.items():
                mm = qm + dm
                old = r.get(mm)
                if old is None:
                    _check_width((mm,))
                    r[mm] = -qc * dc
                    heapq.heappush(heap, (-key(mm), mm))
                else:
                    s = old - qc * dc
                    if s:
                        r[mm] = s
                    else:
                        del r[mm]
        return _reduced({m: c * d.den for m, c in q.items()}, self.den * content)

    # -- presentation ------------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer coefficients."""
        if self.is_zero():
            return Fraction(1)
        return Fraction(_int_gcd(*self.terms.values()), self.den)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for pairs, c in self.sorted_terms():
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in pairs)
            if not mono:
                body = _frac_str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{_frac_str(abs(c))}*{mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    __repr__ = __str__


def _pairs(m: int, shifts) -> tuple:
    """The monomial as ((variable, exponent), ...) over ``shifts``."""
    return tuple((v, e) for v, s in shifts if (e := (m >> s) & _MASK))


def _frac_str(c: Fraction) -> str:
    try:
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    except ValueError:  # more digits than int -> str converts
        raise ExpressionSizeError(
            f"a coefficient has more than {sys.get_int_max_str_digits()} digits"
        ) from None


def _coerce_poly(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# multivariate gcd (the heuristic gcd GCDHEU)
# ---------------------------------------------------------------------------


def _gcd_normalize(p: Poly) -> Poly:
    """The primitive integer polynomial p/content(p), leading coefficient > 0."""
    if p.is_zero():
        return p
    g = _int_gcd(*p.terms.values())
    if p.leading()[1] < 0:
        g = -g
    return Poly({m: c // g for m, c in p.terms.items()})


def _evaluate_at(terms: dict, s: int, xi: int) -> dict:
    """The integer polynomial ``terms`` with the variable at bit offset s set to xi."""
    out = {}
    for m, c in terms.items():
        e = (m >> s) & _MASK
        m -= e << s
        out[m] = out.get(m, 0) + c * xi**e
    return {m: c for m, c in out.items() if c}


def _xi_adic(terms: dict, s: int, xi: int) -> dict:
    """The polynomial whose x^e coefficient (x at bit offset s) holds the
    e-th symmetric xi-adic digit, in (-xi/2, xi/2], of each of ``terms``."""
    out, e = {}, 0
    while terms:
        rest = {}
        for m, c in terms.items():
            d = c % xi
            if d > xi // 2:
                d -= xi
            if d:
                out[m + (e << s)] = d
            if c != d:
                rest[m] = (c - d) // xi
        terms, e = rest, e + 1
    return out


def _heu_gcd(f: dict, g: dict, shifts: list) -> dict:
    """Gcd of the integer polynomials f and g, content included, up to sign:
    the heuristic gcd GCDHEU (Char, Geddes & Gonnet 1989) over the variables
    at ``shifts``, in var_key order.

    Let f, g be the primitive parts, x the first variable of either, y the
    rest.  For an integer xi the inner call gives h(y) = gcd(f(xi, y), g(xi,
    y)) (exact, by induction), whose symmetric xi-adic digits give G; once
    pp(G) divides f and g, it times the gcd of the contents is the result.

    Why an accepted pp(G) is gcd(f, g) = d.  With |.| the largest
    coefficient, xi never falls below 2 |f| + 29 (taking |f| <= |g|), so a
    polynomial in Z[x] whose coefficients are among f's has its roots below
    1 + |f| <= xi/2 in modulus (Cauchy); so f(xi, y) != 0.  pp(G) divides
    d, and d(xi, y) divides h = G(xi, y), so c = d / pp(G) has c(xi, y)
    dividing cont(G), a nonzero integer of at most xi/2.  c's y-leading
    coefficient divides f's, so it does not vanish at xi: c(xi, y) constant
    forces c = c(x).  Then c divides f's y-leading coefficient, and a
    nonconstant c would have |c(xi)| > (xi - 1 - |f|)^deg c >= xi/2.  So
    c = +-1, d being primitive.

    Why the loop ends.  With f = d f', g = d g', h = d(xi, y) gcd(f'(xi, y),
    g'(xi, y)).  The second gcd has a factor in some y_j only when xi is a
    root of a nonzero polynomial in Z[x]: a y_j-leading coefficient of f'
    or g', or a coefficient of their y_j-resultant.  Otherwise it is an
    integer dividing a fixed D != 0 (clear the denominators of a Bezout
    identity over Q[x] among the coprime x-coefficients of f' and g'), and
    once xi > 2 |D| |d| the digits of h are that integer times d, so the
    candidate is d.  Only finitely many xi miss, and xi grows without bound.
    """
    if not f or not g:
        return f or g
    cf, cg = _int_gcd(*f.values()), _int_gcd(*g.values())
    content = _int_gcd(cf, cg)
    support = reduce(or_, f) | reduce(or_, g)
    shifts = [s for s in shifts if (support >> s) & _MASK]
    if not shifts:
        return {0: content}
    f, g = Poly({m: c // cf for m, c in f.items()}), Poly({m: c // cg for m, c in g.items()})
    xi = 2 * min(max(map(abs, f.terms.values())), max(map(abs, g.terms.values()))) + 29
    while True:
        fx, gx = _evaluate_at(f.terms, shifts[0], xi), _evaluate_at(g.terms, shifts[0], xi)
        cand = _gcd_normalize(Poly(_xi_adic(_heu_gcd(fx, gx, shifts[1:]), shifts[0], xi)))
        if f.exact_div(cand) is not None and g.exact_div(cand) is not None:
            return {m: c * content for m, c in cand.terms.items()}
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Gcd of multivariate polynomials, primitive with positive leading
    coefficient (rational scalar factors are units and are dropped)."""
    shifts = [s for _, s in _ordered_shifts(p.vars() | q.vars())]
    return _gcd_normalize(Poly(_heu_gcd(p.terms, q.terms, shifts)))


# ---------------------------------------------------------------------------
# the ray integral
# ---------------------------------------------------------------------------


def ray_integral(omegas: Sequence[Poly], field_vars: Sequence[str]) -> Poly:
    """Potential of a closed polynomial 1-form, integrated along the straight
    ray from the origin of the field variables (other variables are treated
    as constants): F(u) = sum_k int_0^1 omega_k(t u) u^k dt, F(0) = 0."""
    shifts = [_shift(v) for v in field_vars]
    out = Poly()
    for var, omega in zip(field_vars, omegas):
        one = 1 << _shift(var)
        # each term c*m gains the factor var/(deg m + 1), deg over field_vars
        degs = {m: 1 + sum((m >> s) & _MASK for s in shifts) for m in omega.terms}
        den = _int_lcm(*degs.values())
        bump = {m + one: c * (den // degs[m]) for m, c in omega.terms.items()}
        _check_width(bump)
        out = out + _reduced(bump, omega.den * den)
    return out
