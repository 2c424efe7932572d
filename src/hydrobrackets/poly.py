"""Exact sparse multivariate polynomials and factored rational functions.

Coefficients are ``fractions.Fraction`` throughout.  Monomials are stored
sparsely and ordered graded-lexicographically; variables are compared by
(alphabetic prefix, numeric suffix), so ``u2`` precedes ``u10``.

Rational functions keep the denominator in factored form.  Every
denominator factor enters through an actual division, so the common
cancellations (adjugate/determinant inverses, quotient-rule derivatives)
are recovered by exact trial division without running a full gcd.  A
complete multivariate gcd (primitive polynomial remainder sequences) is
used only when presenting a fully reduced normal form.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import Iterable, Mapping, Sequence, Union

Monomial = tuple  # tuple[tuple[str, int], ...], sorted by variable key
Scalar = Union[int, Fraction]

# Hard ceiling on the number of monomials in any intermediate product;
# exceeding it aborts instead of hanging on runaway expansions.
MAX_TERMS = 10**6


class ExpressionSizeError(RuntimeError):
    """Raised when an expansion exceeds the monomial budget."""


_VAR_RE = re.compile(r"^(.*?)(\d*)$")


@lru_cache(maxsize=None)
def var_key(name: str):
    """Sort key for variable names: alphabetic prefix, then numeric suffix."""
    m = _VAR_RE.match(name)
    suffix = m.group(2)
    if suffix:
        return (m.group(1), int(suffix))
    return (name, -1)


def _canon_mono(items: Iterable[tuple]) -> Monomial:
    pairs = [(v, e) for v, e in items if e != 0]
    pairs.sort(key=lambda ve: var_key(ve[0]))
    return tuple(pairs)


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return _canon_mono(d.items())


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mono_divides(m1: Monomial, m2: Monomial) -> bool:
    d2 = dict(m2)
    return all(d2.get(v, 0) >= e for v, e in m1)


def _mono_quot(m2: Monomial, m1: Monomial) -> Monomial:
    d = dict(m2)
    for v, e in m1:
        d[v] -= e
    return _canon_mono(d.items())


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("terms", "_frozen")

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}
        self._frozen = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(c: Scalar) -> "Poly":
        c = Fraction(c)
        return Poly({(): c}) if c else Poly()

    @staticmethod
    def var(name: str) -> "Poly":
        return Poly({((name, 1),): Fraction(1)})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("polynomial is not constant")
        return self.terms.get((), Fraction(0))

    def vars(self) -> set:
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def key(self):
        """Hashable canonical form (used for factor identity)."""
        if self._frozen is None:
            self._frozen = tuple(sorted(self.terms.items()))
        return self._frozen

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    # -- ordering helpers ----------------------------------------------

    def _ordered_vars(self, extra=()) -> tuple:
        vs = self.vars()
        for v in extra:
            vs.add(v)
        return tuple(sorted(vs, key=var_key))

    def sorted_terms(self):
        """Terms in descending graded-lexicographic order."""
        ordered = self._ordered_vars()

        def keyf(item):
            d = dict(item[0])
            return (_mono_degree(item[0]), tuple(d.get(v, 0) for v in ordered))

        return sorted(self.terms.items(), key=keyf, reverse=True)

    def leading(self, ordered_vars=None):
        """Leading (monomial, coefficient) in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        ordered = ordered_vars or self._ordered_vars()

        def keyf(m):
            d = dict(m)
            return (_mono_degree(m), tuple(d.get(v, 0) for v in ordered))

        m = max(self.terms, key=keyf)
        return m, self.terms[m]

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce_poly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Poly()
            return Poly({m: cc * c for m, cc in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        if len(self.terms) * len(other.terms) > 4 * MAX_TERMS:
            raise ExpressionSizeError("product exceeds monomial budget")
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        if len(out) > MAX_TERMS:
            raise ExpressionSizeError("expansion exceeds monomial budget")
        return Poly(out)

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
        out = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.get(var, 0)
            if not e:
                continue
            d[var] = e - 1
            mm = _canon_mono(d.items())
            s = out.get(mm, 0) + c * e
            if s:
                out[mm] = s
            elif mm in out:
                del out[mm]
        return Poly(out)

    def evaluate(self, point: Mapping[str, object]):
        """Evaluate at a full assignment; accumulation follows the canonical
        term order so float evaluation is reproducible."""
        acc = 0
        for m, c in self.sorted_terms():
            val = c
            for v, e in m:
                if v not in point:
                    raise KeyError(v)
                val = val * point[v] ** e
            acc = acc + val
        return acc

    def substitute(self, assign: Mapping[str, Scalar]) -> "Poly":
        """Replace some variables by exact constants."""
        out = {}
        for m, c in self.terms.items():
            rest = []
            for v, e in m:
                if v in assign:
                    c = c * Fraction(assign[v]) ** e
                else:
                    rest.append((v, e))
            if not c:
                continue
            mm = _canon_mono(rest)
            s = out.get(mm, 0) + c
            if s:
                out[mm] = s
            elif mm in out:
                del out[mm]
        return Poly(out)

    def rename(self, mapping: Mapping[str, str]) -> "Poly":
        out = {}
        for m, c in self.terms.items():
            mm = _canon_mono((mapping.get(v, v), e) for v, e in m)
            out[mm] = out.get(mm, 0) + c
        return Poly(out)

    # -- division -----------------------------------------------------------

    def exact_div(self, d: "Poly"):
        """Exact quotient self/d, or None if d does not divide self."""
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if d.is_const():
            return self * (Fraction(1) / d.const_value())
        if self.is_zero():
            return Poly()
        ordered = tuple(sorted(self.vars() | d.vars(), key=var_key))
        ltd_m, ltd_c = d.leading(ordered)

        def keyf(m):
            dd = dict(m)
            return (_mono_degree(m), tuple(dd.get(v, 0) for v in ordered))

        r = dict(self.terms)
        q = {}
        while r:
            ltr_m = max(r, key=keyf)
            ltr_c = r[ltr_m]
            if not _mono_divides(ltd_m, ltr_m):
                return None
            qm = _mono_quot(ltr_m, ltd_m)
            qc = ltr_c / ltd_c
            q[qm] = q.get(qm, 0) + qc
            for dm, dc in d.terms.items():
                mm = _mono_mul(qm, dm)
                s = r.get(mm, 0) - qc * dc
                if s:
                    r[mm] = s
                elif mm in r:
                    del r[mm]
        return Poly(q)

    # -- presentation ------------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer coefficients."""
        if self.is_zero():
            return Fraction(1)
        num = 0
        den = 1
        for c in self.terms.values():
            num = _int_gcd(num, abs(c.numerator))
            den = _int_lcm(den, c.denominator)
        return Fraction(num, den)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)
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


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _coerce_poly(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# multivariate gcd (primitive polynomial remainder sequences)
# ---------------------------------------------------------------------------


def _uv_view(p: Poly, x: str):
    """View p as univariate in x with Poly coefficients."""
    coeffs: dict[int, dict] = {}
    for m, c in p.terms.items():
        d = dict(m)
        e = d.pop(x, 0)
        mm = _canon_mono(d.items())
        bucket = coeffs.setdefault(e, {})
        s = bucket.get(mm, 0) + c
        if s:
            bucket[mm] = s
        elif mm in bucket:
            del bucket[mm]
    return {e: Poly(t) for e, t in coeffs.items() if t}


def _uv_build(coeffs: Mapping[int, Poly], x: str) -> Poly:
    out = {}
    for e, p in coeffs.items():
        for m, c in p.terms.items():
            mm = _mono_mul(m, ((x, e),)) if e else m
            out[mm] = out.get(mm, 0) + c
    return Poly(out)


def _uv_content(coeffs: Mapping[int, Poly]) -> Poly:
    g = Poly()
    for p in coeffs.values():
        g = poly_gcd(g, p)
        if g.is_const() and not g.is_zero():
            return Poly.const(1)
    return g


def _uv_primitive(coeffs: Mapping[int, Poly], x: str):
    cont = _uv_content(coeffs)
    if cont.is_const():
        return cont, dict(coeffs)
    out = {e: p.exact_div(cont) for e, p in coeffs.items()}
    return cont, out


def _uv_pseudo_rem(a: Mapping[int, Poly], b: Mapping[int, Poly]):
    """Pseudo-remainder of univariate views (coefficients need not be a field)."""
    db = max(b)
    lb = b[db]
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        shift = dr - db
        new = {}
        for e, p in r.items():
            q = p * lb
            if not q.is_zero():
                new[e] = q
        for e, p in b.items():
            ee = e + shift
            q = new.get(ee, Poly()) - p * lr
            if q.is_zero():
                new.pop(ee, None)
            else:
                new[ee] = q
        new.pop(dr, None)
        r = new
    return r


def _gcd_normalize(p: Poly) -> Poly:
    if p.is_zero():
        return p
    c = p.content()
    out = p * (Fraction(1) / c)
    _, lc = out.leading()
    if lc < 0:
        out = -out
    return out


def _common_monomial(p: Poly) -> Monomial:
    """Largest monomial dividing every term."""
    common = None
    for m in p.terms:
        d = dict(m)
        if common is None:
            common = d
        else:
            common = {v: min(e, d.get(v, 0)) for v, e in common.items() if v in d}
        if not common:
            return ()
    return _canon_mono(common.items())


def _subresultant_gcd(a, b, x):
    """Gcd of the x-primitive univariate views a, b (subresultant remainder
    sequence; exact divisions keep coefficient growth polynomial)."""
    if max(a) < max(b):
        a, b = b, a
    g = Poly.const(1)
    h = Poly.const(1)
    while True:
        if max(b) == 0:
            # x-free and coprime to the x-primitive a beyond units
            return {0: Poly.const(1)}
        delta = max(a) - max(b)
        r = _uv_pseudo_rem(a, b)
        if not r:
            return b
        denom = g * h**delta
        reduced = {}
        for e, p in r.items():
            q = p.exact_div(denom)
            if q is None:  # defensive: fall back to content removal
                _, reduced = _uv_primitive(r, x)
                break
            reduced[e] = q
        a, b = b, reduced
        g = a[max(a)]
        if delta == 1:
            h = g
        elif delta > 1:
            hh = (g**delta).exact_div(h ** (delta - 1))
            h = hh if hh is not None else _gcd_normalize(g**delta)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Gcd of multivariate polynomials, primitive with positive leading
    coefficient (rational scalar factors are units and are dropped)."""
    if p.is_zero():
        return _gcd_normalize(q)
    if q.is_zero():
        return _gcd_normalize(p)
    if p.is_const() or q.is_const():
        return Poly.const(1)
    if p.terms == q.terms:
        return _gcd_normalize(p)
    # pull out the shared monomial factor first (cheap and common)
    mp, mq = _common_monomial(p), _common_monomial(q)
    dp, dq = dict(mp), dict(mq)
    shared = _canon_mono(
        (v, min(e, dq.get(v, 0))) for v, e in dp.items() if v in dq
    )
    if mp:
        p = Poly({_mono_quot(m, mp): c for m, c in p.terms.items()})
    if mq:
        q = Poly({_mono_quot(m, mq): c for m, c in q.terms.items()})
    unit = Poly({shared: Fraction(1)}) if shared else Poly.const(1)
    if p.is_const() or q.is_const():
        return _gcd_normalize(unit)
    vs = p.vars() | q.vars()
    x = max(vs, key=var_key)
    a = _uv_view(p, x)
    b = _uv_view(q, x)
    cont_a, a = _uv_primitive(a, x)
    cont_b, b = _uv_primitive(b, x)
    cont = poly_gcd(cont_a, cont_b)
    res = _subresultant_gcd(a, b, x)
    _, res = _uv_primitive(res, x)
    g = _uv_build(res, x)
    if not cont.is_const():
        g = g * cont
    return _gcd_normalize(g * unit)


# ---------------------------------------------------------------------------
# rational functions with factored denominators
# ---------------------------------------------------------------------------


class RationalFn:
    """Quotient of polynomials; the denominator is a product of monic
    non-constant factors with positive integer exponents."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: tuple = ()):
        self.num = num
        self.den = den  # tuple[(Poly, int)], factors monic, sorted by key

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_poly(p: Poly) -> "RationalFn":
        return RationalFn(p, ())

    @staticmethod
    def const(c: Scalar) -> "RationalFn":
        return RationalFn(Poly.const(c), ())

    @staticmethod
    def var(name: str) -> "RationalFn":
        return RationalFn(Poly.var(name), ())

    @staticmethod
    def _make(num: Poly, factors: Iterable[tuple]) -> "RationalFn":
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
            return RationalFn(num, ())
        # cancel factors that divide the numerator exactly
        kept = []
        for k in sorted(acc):
            f, e = acc[k]
            while e > 0:
                q = num.exact_div(f)
                if q is None:
                    break
                num = q
                e -= 1
            if e:
                kept.append((f, e))
        return RationalFn(num, tuple(kept))

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

    def vars(self) -> set:
        out = self.num.vars()
        for f, _ in self.den:
            out |= f.vars()
        return out

    def __eq__(self, other):
        return (
            isinstance(other, RationalFn)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num.key(), tuple((f.key(), e) for f, e in self.den)))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RationalFn._make(self.num + other.num, self.den)
        d1 = {f.key(): (f, e) for f, e in self.den}
        d2 = {f.key(): (f, e) for f, e in other.den}
        merged = {}
        for k in set(d1) | set(d2):
            f = (d1.get(k) or d2.get(k))[0]
            merged[k] = (f, max(d1.get(k, (f, 0))[1], d2.get(k, (f, 0))[1]))
        cof1 = Poly.const(1)
        cof2 = Poly.const(1)
        for k, (f, e) in merged.items():
            e1 = d1.get(k, (f, 0))[1]
            e2 = d2.get(k, (f, 0))[1]
            if e > e1:
                cof1 = cof1 * f ** (e - e1)
            if e > e2:
                cof2 = cof2 * f ** (e - e2)
        return RationalFn._make(
            self.num * cof1 + other.num * cof2, merged.values()
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce_rf(other) + (-self)

    def __mul__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        factors = {}
        for f, e in self.den + other.den:
            k = f.key()
            if k in factors:
                factors[k] = (f, factors[k][1] + e)
            else:
                factors[k] = (f, e)
        return RationalFn._make(self.num * other.num, factors.values())

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalFn":
        if self.num.is_zero():
            raise ZeroDivisionError("division by zero expression")
        num = Poly.const(1)
        for f, e in self.den:
            num = num * f**e
        return RationalFn._make(num, [(self.num, 1)])

    def __truediv__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return _coerce_rf(other) * self.reciprocal()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("exponents must be integers")
        if n < 0:
            return self.reciprocal() ** (-n)
        result = RationalFn.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus ---------------------------------------------------------------

    def diff(self, var: str) -> "RationalFn":
        if not self.den:
            return RationalFn(self.num.diff(var), ())
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
        return RationalFn._make(top, new_den)

    def evaluate(self, point: Mapping[str, object]):
        num = self.num.evaluate(point)
        den = 1
        for f, e in self.den:
            v = f.evaluate(point)
            if v == 0:
                raise ZeroDivisionError("denominator vanishes at evaluation point")
            den = den * v**e
        return num / den

    def substitute(self, assign: Mapping[str, Scalar]) -> "RationalFn":
        num = self.num.substitute(assign)
        factors = []
        for f, e in self.den:
            g = f.substitute(assign)
            if g.is_zero():
                raise ZeroDivisionError("substitution makes a denominator vanish")
            factors.append((g, e))
        return RationalFn._make(num, factors)

    def rename(self, mapping: Mapping[str, str]) -> "RationalFn":
        return RationalFn._make(
            self.num.rename(mapping), [(f.rename(mapping), e) for f, e in self.den]
        )

    # -- presentation ------------------------------------------------------------

    def expand(self):
        """Return (numerator, denominator) as plain expanded polynomials."""
        den = Poly.const(1)
        for f, e in self.den:
            den = den * f**e
        return self.num, den

    def normal_form(self):
        """Fully reduced canonical (numerator, denominator): coprime, integer
        coefficients with coprime contents, positive leading denominator."""
        num, den = self.expand()
        if num.is_zero():
            return Poly(), Poly.const(1)
        g = poly_gcd(num, den)
        if not g.is_const():
            num = num.exact_div(g)
            den = den.exact_div(g)
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
        num, den = self.normal_form()
        if den.is_const():
            c = den.const_value()
            if c != 1:
                num = num * (Fraction(1) / c)
            return str(num)
        return f"({num})/({den})"

    __repr__ = __str__


def _coerce_rf(x):
    if isinstance(x, RationalFn):
        return x
    if isinstance(x, Poly):
        return RationalFn(x, ())
    if isinstance(x, (int, Fraction)):
        return RationalFn.const(x)
    return NotImplemented


def ray_integral(omegas: Sequence[Poly], field_vars: Sequence[str]) -> Poly:
    """Potential of a closed polynomial 1-form, integrated along the straight
    ray from the origin of the field variables (other variables are treated
    as constants): F(u) = sum_k int_0^1 omega_k(t u) u^k dt, F(0) = 0."""
    fv = set(field_vars)
    out = Poly()
    for var, omega in zip(field_vars, omegas):
        bump = {}
        for m, c in omega.terms.items():
            deg = sum(e for v, e in m if v in fv)
            mm = _mono_mul(m, ((var, 1),))
            bump[mm] = bump.get(mm, 0) + c / (deg + 1)
        out = out + Poly(bump)
    return out
