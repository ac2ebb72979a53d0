"""Multivariate polynomials with exact coefficients.

Coefficients are normally ``fractions.Fraction``; any value supporting
``+ - * ==`` and truthiness (e.g. a cyclotomic field element) works for the
ring operations.  Monomials are sorted tuples of ``(variable, exponent)``
pairs with positive exponents; the empty tuple is the constant monomial.

Term iteration, leading terms and canonical printing use graded
lexicographic order on a fixed variable order (alphabetical by default;
callers with a program context pass their own order).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

Mono = tuple  # tuple[tuple[str, int], ...]

MONO_ONE: Mono = ()


class NotDivisible(Exception):
    """Exact polynomial division failed."""


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def mono_div(a: Mono, b: Mono) -> Optional[Mono]:
    """a / b, or None when b does not divide a."""
    exps = dict(a)
    for v, e in b:
        have = exps.get(v, 0)
        if have < e:
            return None
        if have == e:
            del exps[v]
        else:
            exps[v] = have - e
    return tuple(sorted(exps.items()))


def mono_gcd(a: Mono, b: Mono) -> Mono:
    da, db = dict(a), dict(b)
    out = []
    for v, e in da.items():
        f = db.get(v, 0)
        if f and e:
            out.append((v, min(e, f)))
    return tuple(sorted(out))


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def mono_degree_in(m: Mono, var: str) -> int:
    for v, e in m:
        if v == var:
            return e
    return 0


def mono_key(m: Mono, order: Optional[Sequence[str]] = None):
    """Graded-lex sort key (ascending)."""
    if order is None:
        return (mono_degree(m), tuple(sorted(m)))
    exps = dict(m)
    return (mono_degree(m), tuple(exps.get(v, 0) for v in order))


def _coerce(c):
    if isinstance(c, int):
        return Fraction(c)
    return c


class Polynomial:
    """Immutable-by-convention sparse multivariate polynomial."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def _of(cls, terms: dict) -> "Polynomial":
        """Wrap ``terms`` as is: the caller guarantees that it stores no zero
        coefficient, the invariant every other method relies on."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def const(c) -> "Polynomial":
        c = _coerce(c)
        return Polynomial({MONO_ONE: c}) if c else Polynomial()

    @staticmethod
    def var(name: str, exp: int = 1) -> "Polynomial":
        if exp == 0:
            return Polynomial.const(1)
        return Polynomial({((name, exp),): Fraction(1)})

    @staticmethod
    def monomial(m: Mono, c=Fraction(1)) -> "Polynomial":
        c = _coerce(c)
        return Polynomial({m: c}) if c else Polynomial()

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and MONO_ONE in self.terms)

    def constant_term(self):
        return self.terms.get(MONO_ONE, Fraction(0))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        # A new key takes ``c`` itself, so an int never meets a Fraction here
        # (``0 + Fraction`` goes through Fraction's slow reflected path).
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Polynomial._of(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            if not c:
                return Polynomial()
            return Polynomial._of({m: v * c for m, v in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                p = c1 * c2
                if not p:
                    continue
                m = mono_mul(m1, m2)
                s = out.get(m)
                if s is None:
                    out[m] = p
                else:
                    s = s + p
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return Polynomial._of(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structure ---------------------------------------------------------

    def vars(self) -> set:
        out: set = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def total_degree(self) -> int:
        return max((mono_degree(m) for m in self.terms), default=0)

    def degree_in(self, var: str) -> int:
        return max((mono_degree_in(m, var) for m in self.terms), default=0)

    def coeff_of(self, m: Mono):
        return self.terms.get(m, Fraction(0))

    def sorted_terms(self, order: Optional[Sequence[str]] = None):
        return sorted(self.terms.items(), key=lambda t: mono_key(t[0], order))

    def leading(self, order: Optional[Sequence[str]] = None):
        """(monomial, coeff) maximal in graded-lex order."""
        m = max(self.terms, key=lambda t: mono_key(t, order))
        return m, self.terms[m]

    def map_coeffs(self, fn: Callable) -> "Polynomial":
        return Polynomial({m: fn(c) for m, c in self.terms.items()})

    # -- substitution and evaluation ----------------------------------------

    def subs_var(self, var: str, value: Union["Polynomial", Fraction, int]) -> "Polynomial":
        """Substitute ``value`` for ``var`` (Horner over the var's powers)."""
        if isinstance(value, (int, Fraction)):
            value = Polynomial.const(value)
        by_exp: dict = {}
        for m, c in self.terms.items():
            e = mono_degree_in(m, var)
            rest = tuple(p for p in m if p[0] != var)
            slot = by_exp.setdefault(e, {})
            slot[rest] = slot.get(rest, 0) + c
        if not by_exp:
            return Polynomial()
        top = max(by_exp)
        acc = Polynomial()
        for e in range(top, -1, -1):
            acc = acc * value
            layer = by_exp.get(e)
            if layer:
                acc = acc + Polynomial(layer)
        return acc

    def subs_one(self, var: str) -> "Polynomial":
        """Fast path for substituting 1."""
        out: dict = {}
        for m, c in self.terms.items():
            rest = tuple(p for p in m if p[0] != var)
            s = out.get(rest, 0) + c
            if s:
                out[rest] = s
            else:
                out.pop(rest, None)
        return Polynomial(out)

    def scale_var(self, var: str, factor) -> "Polynomial":
        """X_var -> factor * X_var: multiply each term by factor**exp."""
        out: dict = {}
        for m, c in self.terms.items():
            e = mono_degree_in(m, var)
            if e:
                c = c * (factor ** e)
            if c:
                out[m] = out.get(m, 0) + c
        return Polynomial({m: c for m, c in out.items() if c})

    def eval_ones(self):
        """Value at all variables = 1 (the coefficient sum)."""
        total = Fraction(0)
        for c in self.terms.values():
            total = total + c
        return total

    def derivative(self, var: str) -> "Polynomial":
        out: dict = {}
        for m, c in self.terms.items():
            e = mono_degree_in(m, var)
            if not e:
                continue
            rest = [(v, x) for v, x in m if v != var]
            if e > 1:
                rest.append((var, e - 1))
            mm = tuple(sorted(rest))
            s = out.get(mm, 0) + c * e
            if s:
                out[mm] = s
            else:
                out.pop(mm, None)
        return Polynomial(out)

    # -- rational content ----------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-primitive (0 for zero)."""
        if not self.terms:
            return Fraction(0)
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = math.gcd(num_gcd, c.numerator)
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        return Fraction(num_gcd, den_lcm)

    def primitive(self, order: Optional[Sequence[str]] = None):
        """(signed content, primitive part) with positive leading coefficient."""
        if not self.terms:
            return Fraction(0), Polynomial()
        cont = self.content()
        _, lead = self.leading(order)
        if lead < 0:
            cont = -cont
        return cont, self * (1 / cont)

    def __repr__(self) -> str:
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for m, c in self.sorted_terms():
            mono = "*".join(f"{v}^{e}" if e > 1 else v for v, e in m) or "1"
            bits.append(f"{c}*{mono}")
        return "Polynomial(" + " + ".join(bits) + ")"


# -- exact division and gcd --------------------------------------------------

def poly_div_exact(p: Polynomial, d: Polynomial) -> Polynomial:
    """Exact quotient p/d; raises NotDivisible when the division is not exact."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if d.is_const():
        return p * (1 / d.constant_term())
    # leading terms need a shared variable universe for a true monomial order
    order = sorted(p.vars() | d.vars())
    q: dict = {}
    r = p
    dm, dc = d.leading(order)
    while not r.is_zero():
        rm, rc = r.leading(order)
        m = mono_div(rm, dm)
        if m is None:
            raise NotDivisible(f"{d!r} does not divide {p!r}")
        c = rc / dc
        q[m] = q.get(m, 0) + c
        r = r - Polynomial.monomial(m, c) * d
    return Polynomial(q)


# Full multivariate gcd is abandoned in favour of monomial/content gcd when
# the operand term-count product exceeds this budget; partial reduction keeps
# every consumer (equality, series expansion) correct, only less canceled.
GCD_TERM_BUDGET = 4000


def _as_univar(p: Polynomial, v: str) -> list:
    """Dense coefficient list in v; entries are polynomials in the other vars."""
    deg = p.degree_in(v)
    coeffs = [dict() for _ in range(deg + 1)]
    for m, c in p.terms.items():
        e = mono_degree_in(m, v)
        rest = tuple(pair for pair in m if pair[0] != v)
        coeffs[e][rest] = coeffs[e].get(rest, 0) + c
    return [Polynomial(d) for d in coeffs]


def _from_univar(coeffs: list, v: str) -> Polynomial:
    out: dict = {}
    for e, poly in enumerate(coeffs):
        for m, c in poly.terms.items():
            mm = mono_mul(m, ((v, e),)) if e else m
            out[mm] = out.get(mm, 0) + c
    return Polynomial(out)


def _univar_deg(coeffs: list) -> int:
    d = len(coeffs) - 1
    while d >= 0 and coeffs[d].is_zero():
        d -= 1
    return d


def _pseudo_rem(a: list, b: list) -> list:
    """Pseudo-remainder of dense polynomial lists (coefficients Polynomial)."""
    da, db = _univar_deg(a), _univar_deg(b)
    lb = b[db]
    r = list(a)
    while True:
        dr = _univar_deg(r)
        if dr < db or dr < 0:
            return r[: max(dr + 1, 0)]
        lead = r[dr]
        shift = dr - db
        r = [c * lb for c in r]
        for i in range(db + 1):
            r[shift + i] = r[shift + i] - lead * b[i]
        r = r[: _univar_deg(r) + 1]
        if not r:
            return []


def _multi_content(coeffs: list) -> Polynomial:
    g = Polynomial()
    for c in coeffs:
        if c.is_zero():
            continue
        g = poly_gcd(g, c)
        if g.is_const() and not g.is_zero():
            break
    return g if not g.is_zero() else Polynomial.const(1)


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """gcd over Q[vars], integer-primitive with positive leading coefficient.

    Falls back to a monomial-only gcd past the term budget; because the budget
    can also degrade recursive content computations (leaving spurious factors
    from pseudo-remainders), the non-trivial candidate is verified by exact
    division before being returned.
    """
    if p.is_zero():
        return q.primitive()[1] if not q.is_zero() else Polynomial()
    if q.is_zero():
        return p.primitive()[1]
    mg = MONO_ONE
    if p.terms and q.terms:
        pm = None
        for m in p.terms:
            pm = m if pm is None else mono_gcd(pm, m)
            if not pm:
                break
        qm = None
        for m in q.terms:
            qm = m if qm is None else mono_gcd(qm, m)
            if not qm:
                break
        mg = mono_gcd(pm or MONO_ONE, qm or MONO_ONE)
    if mg:
        shift = Polynomial.monomial(mg)
        p = poly_div_exact(p, shift)
        q = poly_div_exact(q, shift)
    base = Polynomial.monomial(mg)
    if p.is_const() or q.is_const():
        return base
    if len(p.terms) * len(q.terms) > GCD_TERM_BUDGET:
        return base
    pvars = p.vars() & q.vars()
    if not pvars:
        return base
    cand = _gcd_prs(p, q, pvars)
    if not cand.is_const():
        try:
            poly_div_exact(p, cand)
            poly_div_exact(q, cand)
        except NotDivisible:
            return base
        return (base * cand).primitive()[1]
    return base


def _gcd_prs(p: Polynomial, q: Polynomial, pvars: set) -> Polynomial:
    """Primitive pseudo-remainder sequence gcd candidate."""
    # Ties go by name, never by string-hash order.  The last name was chosen
    # when normalize still reduced parametric forms, whose ties were between
    # template parameters; it now reduces only parameter-free forms, so the
    # synthesis benchmark no longer meets such ties.
    v = min(sorted(pvars, reverse=True), key=lambda w: max(p.degree_in(w), q.degree_in(w)))
    pu, qu = _as_univar(p, v), _as_univar(q, v)
    cont_p, cont_q = _multi_content(pu), _multi_content(qu)
    cont = poly_gcd(cont_p, cont_q)
    a = [poly_div_exact(c, cont_p) for c in pu]
    b = [poly_div_exact(c, cont_q) for c in qu]
    if _univar_deg(a) < _univar_deg(b):
        a, b = b, a
    while True:
        r = _pseudo_rem(a, b)
        if not any(not c.is_zero() for c in r):
            break
        rc = _multi_content(r)
        a, b = b, [poly_div_exact(c, rc) for c in r]
        if _univar_deg(b) == 0:
            b = [Polynomial.const(1)]
            break
    gcd_pp = _from_univar(b, v)
    return (cont * gcd_pp).primitive()[1]
