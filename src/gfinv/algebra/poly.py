"""Multivariate polynomials with exact rational coefficients.

Coefficients are ``fractions.Fraction``, and a stored coefficient is never
zero.  Monomials are sorted tuples of ``(variable, exponent)`` pairs with
positive exponents; the empty tuple is the constant monomial.

Term iteration, leading terms and canonical printing use graded
lexicographic order on a fixed variable order (alphabetical by default;
callers with a program context pass their own order).

``poly_gcd`` is the exception to ``Fraction`` coefficients: its kernel
works on integer polynomials, ``{exponent tuple: int}`` dicts, and only its
operands and its result are converted.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Optional, Sequence, Union

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
            n >>= 1
            if n:
                base = base * base
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

    def sorted_terms(self, order: Optional[Sequence[str]] = None):
        return sorted(self.terms.items(), key=lambda t: mono_key(t[0], order))

    def leading(self, order: Optional[Sequence[str]] = None):
        """(monomial, coeff) maximal in graded-lex order."""
        m = max(self.terms, key=lambda t: mono_key(t, order))
        return m, self.terms[m]

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

    def eval_ones(self):
        """Value at all variables = 1 (the coefficient sum)."""
        total = Fraction(0)
        for c in self.terms.values():
            total = total + c
        return total

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


def _as_univar(p: Polynomial, v: str) -> list:
    """Dense coefficient list in v; entries are polynomials in the other vars."""
    deg = p.degree_in(v)
    coeffs = [dict() for _ in range(deg + 1)]
    for m, c in p.terms.items():
        e = mono_degree_in(m, v)
        rest = tuple(pair for pair in m if pair[0] != v)
        coeffs[e][rest] = coeffs[e].get(rest, 0) + c
    return [Polynomial(d) for d in coeffs]


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """gcd over Q[vars], integer-primitive with positive leading coefficient.

    Heuristic integer GCD (GCDHEU; Char, Geddes & Gonnet 1989): evaluate one
    variable at a large integer, take the gcd of the images, and read the
    candidate back from its integer coefficients' symmetric digits in that
    base.  A candidate is kept only when it divides both operands exactly,
    which makes it the gcd.  When every evaluation point fails, the gcd is
    given up as 1: callers then cancel less, but stay exact.

    The kernel runs on plain ints: both operands are made integer-primitive
    once, as ``{exponent tuple: int}`` dicts over the sorted variables, and
    only the result becomes a ``Polynomial`` again.
    """
    if p.is_zero():
        return q.primitive()[1] if not q.is_zero() else Polynomial()
    if q.is_zero():
        return p.primitive()[1]
    vars = sorted(p.vars() | q.vars())
    h = _heu_gcd(_int_primitive(p, vars), _int_primitive(q, vars), vars)
    if h is None:
        return Polynomial.const(1)
    return Polynomial._of({tuple((v, e) for v, e in zip(vars, exps) if e): Fraction(a)
                           for exps, a in h.items()}).primitive()[1]


def _int_primitive(p: Polynomial, vars: list) -> dict:
    """p divided by its rational content, as ``{exponent tuple over vars: int}``."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    ints = {tuple(dict(m).get(v, 0) for v in vars): c.numerator * (den // c.denominator)
            for m, c in p.terms.items()}
    cont = math.gcd(*ints.values())
    return {e: a // cont for e, a in ints.items()}


def _heu_gcd(f: dict, g: dict, vars: list) -> Optional[dict]:
    """gcd of nonzero integer polynomials in ``vars``, or None on give-up.

    A polynomial is a ``{exponent tuple: int}`` dict, one exponent per
    variable of ``vars``; the last variable is evaluated away.  The result is
    primitive up to the gcd of the operands' integer contents and its sign is
    not normalized.
    """
    cf, cg = math.gcd(*f.values()), math.gcd(*g.values())
    c = math.gcd(cf, cg)
    one = (0,) * len(vars)
    if f.keys() == {one} or g.keys() == {one}:
        return {one: c}
    f = {e: a // cf for e, a in f.items()}
    g = {e: a // cg for e, a in g.items()}
    xi = 2 * min(max(abs(a) for a in r.values()) for r in (f, g)) + 29
    for _ in range(6):
        ff, gg = _eval_last(f, xi), _eval_last(g, xi)
        h = _heu_gcd(ff, gg, vars[:-1]) if ff and gg else None
        if h is not None:
            cand: dict = {}
            for e, a in h.items():
                n, k = a, 0
                while n:
                    digit = n % xi
                    if digit > xi // 2:
                        digit -= xi
                    if digit:
                        cand[e + (k,)] = digit
                    n, k = (n - digit) // xi, k + 1
            cont = math.gcd(*cand.values())
            cand = {e: a // cont for e, a in cand.items()}
            if _divides(cand, f) and _divides(cand, g):
                return {e: a * c for e, a in cand.items()}
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _eval_last(f: dict, xi: int) -> dict:
    """f with its last variable set to xi, zero terms dropped."""
    powers: dict = {}
    out: dict = {}
    for e, a in f.items():
        k = e[-1]
        if k not in powers:
            powers[k] = xi ** k
        rest = e[:-1]
        out[rest] = out.get(rest, 0) + a * powers[k]
    return {e: a for e, a in out.items() if a}


def _divides(d: dict, f: dict) -> bool:
    """Whether the integer-primitive d divides the integer polynomial f.

    Sparse division along lex order of the exponent tuples.  By Gauss's lemma
    a primitive divisor of f over Q leaves an integral quotient, so a
    coefficient that does not divide exactly proves that d does not divide f.
    """
    dm = max(d)
    dc = d[dm]
    r = dict(f)
    while r:
        rm = max(r)
        qm = tuple(a - b for a, b in zip(rm, dm))
        if any(k < 0 for k in qm):
            return False
        qc, rem = divmod(r[rm], dc)
        if rem:
            return False
        for e, a in d.items():
            t = tuple(x + y for x, y in zip(qm, e))
            x = r.get(t, 0) - qc * a
            if x:
                r[t] = x
            else:
                del r[t]
    return True


# -- sparse exact elimination ------------------------------------------------

def row_reduce(rows: list, deadline: float = math.inf) -> list:
    """Reduced row echelon form of sparse rows over Q (exact Gauss-Jordan).

    A row is a ``{column: Fraction}`` dict over integer columns and stores no
    zero: a row is a pivot candidate for a column exactly when it holds that
    key.  Columns are pivoted in increasing order and each pivot is scaled to
    1.  The nonzero rows come back in elimination order, row i holding the
    i-th pivot, each with its columns in increasing order.  The rows passed
    in are reduced in place.  Raises TimeoutError once ``time.monotonic()``
    passes the deadline, checked at every column.
    """
    pivot_row = 0
    for col in sorted({j for row in rows for j in row}):
        if time.monotonic() > deadline:
            raise TimeoutError("deadline reached while solving")
        piv = next((r for r in range(pivot_row, len(rows)) if col in rows[r]), None)
        if piv is None:
            continue
        rows[pivot_row], rows[piv] = rows[piv], rows[pivot_row]
        inv = 1 / rows[pivot_row][col]
        prow = {j: x * inv for j, x in rows[pivot_row].items()}
        rows[pivot_row] = prow
        for r, row in enumerate(rows):
            f = row.get(col)
            if f is None or r == pivot_row:
                continue
            for j, y in prow.items():
                x = row[j] - f * y if j in row else -f * y
                if x:
                    row[j] = x
                else:
                    del row[j]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return [dict(sorted(row.items())) for row in rows if row]
