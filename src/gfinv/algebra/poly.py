"""Multivariate polynomials with exact rational coefficients.

Coefficients are ``fractions.Fraction``, and a stored coefficient is never
zero.  Monomials are sorted tuples of ``(variable, exponent)`` pairs with
positive exponents; the empty tuple is the constant monomial.

Term iteration, leading terms and canonical printing use graded
lexicographic order on a fixed variable order (alphabetical by default;
callers with a program context pass their own order).

``poly_gcd`` is the exception to ``Fraction`` coefficients: its kernel
works on integer polynomials, ``{exponent tuple: int}`` dicts, and only its
operands and its results, the gcd and both cofactors, are converted.  A gcd
of 1 converts nothing back: the operands are its cofactors.

Each job has one helper: ``_layers`` splits by the powers of a variable,
``Polynomial.subs_var`` substitutes, ``_quotient`` divides exactly (inside
the gcd, which hands its cofactors to callers, and under ``exact_quotient``,
which takes and returns ``Polynomial``s), and ``_int_primitive`` converts to
integer coefficients.  ``_quotient`` stops as soon as a quotient monomial
leaves the degree box that a true quotient keeps to, and finds each next
leading monomial on a heap of the remainder's keys.

The loops that one call can keep running for seconds poll the time limit
(``check_deadline``): each row of a product (``_mul_into``, under ``*``,
``**`` and ``subs_var``), each group and each split of an evaluation
(``_eval_last``, under ``poly_gcd``), and each step of an exact division
(``_quotient``, under ``poly_gcd`` and ``exact_quotient``).
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from operator import add, lt, neg, sub
from typing import Optional, Sequence, Union

from .. import check_deadline

Mono = tuple  # tuple[tuple[str, int], ...]

MONO_ONE: Mono = ()


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


def _add_into(acc: dict, terms: dict) -> dict:
    """acc += terms, on sparse dicts of nonzero values (terms, rows, integer
    polynomials); a sum that cancels drops its key.  A new key takes ``c``
    itself, so ``0 + Fraction`` never takes Fraction's slow reflected path."""
    for m, c in terms.items():
        s = acc.get(m)
        if s is None:
            acc[m] = c
        else:
            s = s + c
            if s:
                acc[m] = s
            else:
                del acc[m]
    return acc


def _mul_into(acc: dict, a: dict, b: dict, where="while multiplying polynomials") -> dict:
    """acc += a * b, on term dicts that store no zero (so no product is).
    A factor 1 or -1, most of those the template solver meets, costs no
    Fraction product.  Polls ``check_deadline(where)`` before each row: one
    product of two large factors alone can take seconds."""
    for m1, c1 in a.items():
        check_deadline(where)
        if c1 == 1:
            row = {mono_mul(m1, m2): c2 for m2, c2 in b.items()}
        elif c1 == -1:
            row = {mono_mul(m1, m2): -c2 for m2, c2 in b.items()}
        else:
            row = {mono_mul(m1, m2): c1 if c2 == 1 else -c1 if c2 == -1 else c1 * c2
                   for m2, c2 in b.items()}
        _add_into(acc, row)
    return acc


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
        return Polynomial._of(_add_into(dict(self.terms), other.terms))

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
            if c == 1:
                return Polynomial._of(dict(self.terms))
            return Polynomial._of({m: v * c for m, v in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial._of(_mul_into({}, self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        """By repeated squaring; each product polls as ``_mul_into`` does."""
        if n < 0:
            raise ValueError("negative polynomial power")
        where = f"while raising a polynomial to the power {n}"
        result, base = {MONO_ONE: Fraction(1)}, self.terms
        while n:
            if n & 1:
                result = _mul_into({}, result, base, where)
            n >>= 1
            if n:
                base = _mul_into({}, base, base, where)
        return Polynomial._of(result)

    # -- structure ---------------------------------------------------------

    def vars(self) -> set:
        out: set = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def total_degree(self) -> int:
        return max(map(mono_degree, self.terms), default=0)

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
        """Substitute ``value`` for ``var``.

        The terms are split by their power of ``var`` (``_layers``).  A
        number, or a constant polynomial, then scales each layer by its power
        (0 keeps the terms free of ``var``); any other polynomial goes by
        Horner over the layers.  Both work on term dicts.
        """
        layers = _layers(self, var)
        if isinstance(value, Polynomial):
            if not value.is_const():
                acc: dict = {}
                for e in range(max(layers, default=0), -1, -1):
                    acc = _add_into(_mul_into({}, acc, value.terms), layers.get(e, {}))
                return Polynomial._of(acc)
            value = value.constant_term()
        out = layers.pop(0, {})
        if value:
            for e, layer in layers.items():
                x = value ** e
                _add_into(out, layer if x == 1 else {m: c * x for m, c in layer.items()})
        return Polynomial._of(out)

    # -- rational content ----------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-primitive (0 for zero)."""
        if not self.terms:
            return Fraction(0)
        cs = self.terms.values()
        return Fraction(math.gcd(*(c.numerator for c in cs)),
                        math.lcm(*(c.denominator for c in cs)))

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


# -- univariate layers and gcd ----------------------------------------------

def _layers(p: Polynomial, v: str) -> dict:
    """{e: the terms of p in v^e, with v^e taken out} over the powers e of v."""
    layers: dict = {}
    for m, c in p.terms.items():
        i = 0
        for w, e in m:
            if w == v:
                layers.setdefault(e, {})[m[:i] + m[i + 1:]] = c
                break
            i += 1
        else:
            layers.setdefault(0, {})[m] = c
    return layers


def poly_gcd(p: Polynomial, q: Polynomial) -> tuple:
    """(g, p/g, q/g): g the gcd over Q[vars], integer-primitive with positive
    leading coefficient, and the two cofactors.

    Heuristic integer GCD (GCDHEU; Char, Geddes & Gonnet 1989): evaluate one
    variable at a large integer, take the gcd of the images, and read the
    candidate back from its integer coefficients' symmetric digits in that
    base.  A candidate is kept only when it divides both operands exactly,
    which makes it the gcd, and that division yields the cofactors.  A
    constant candidate divides everything, so coprime operands come back as
    they are, (1, p, q), and nothing is divided.  When every evaluation point
    fails, the gcd is given up as 1 and the result is also (1, p, q):
    callers then cancel less, but stay exact.  With one zero
    operand the gcd is the other one's primitive part; gcd(0, 0) is
    (0, 0, 0).

    The kernel runs on plain ints: both operands are made integer-primitive
    once, as ``{exponent tuple: int}`` dicts over the sorted variables, and
    only its results become ``Polynomial``s again.
    """
    if q.is_zero():
        cont, g = p.primitive()
        return g, Polynomial.const(cont), Polynomial()
    if p.is_zero():
        cont, g = q.primitive()
        return g, Polynomial(), Polynomial.const(cont)
    vars = sorted(p.vars() | q.vars())
    cp, f = _int_primitive(p, vars)
    cq, g = _int_primitive(q, vars)
    found = _heu_gcd(f, g, vars)
    if found is None or found[0] == {(0,) * len(vars): 1}:
        return Polynomial.const(1), p, q
    h, fbar, gbar = found
    sign, h = _from_ints(h, vars, Fraction(1)).primitive()
    return h, _from_ints(fbar, vars, sign * cp), _from_ints(gbar, vars, sign * cq)


def _int_primitive(p: Polynomial, vars: list) -> tuple:
    """(c, p/c): the positive rational content c of p, and p/c as
    ``{exponent tuple over vars: int}``."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    ints = {tuple(dict(m).get(v, 0) for v in vars): c.numerator * (den // c.denominator)
            for m, c in p.terms.items()}
    cont = math.gcd(*ints.values())
    return Fraction(cont, den), {e: a // cont for e, a in ints.items()}


def _from_ints(f: dict, vars: list, scale: Fraction) -> Polynomial:
    """The integer polynomial f over vars, times scale, as a ``Polynomial``."""
    return Polynomial._of({tuple((v, e) for v, e in zip(vars, exps) if e): a * scale
                           for exps, a in f.items()})


def _heu_gcd(f: dict, g: dict, vars: list) -> Optional[tuple]:
    """(h, f/h, g/h) with h the gcd of nonzero integer polynomials in
    ``vars``, or None on give-up.

    A polynomial is a ``{exponent tuple: int}`` dict, one exponent per
    variable of ``vars``; the last variable is evaluated away.  h is
    primitive up to the gcd of the operands' integer contents and its sign is
    not normalized; the cofactors are integer polynomials.  A candidate that
    is a constant divides both operands, so the gcd is then that content gcd
    alone, and no division runs.
    """
    cf, cg = math.gcd(*f.values()), math.gcd(*g.values())
    c = math.gcd(cf, cg)
    one = (0,) * len(vars)
    if f.keys() != {one} and g.keys() != {one}:
        fp = {e: a // cf for e, a in f.items()}
        gp = {e: a // cg for e, a in g.items()}
        xi = 2 * min(max(abs(a) for a in r.values()) for r in (fp, gp)) + 29
        for _ in range(6):
            ff, gg = _eval_last(fp, xi), _eval_last(gp, xi)
            found = _heu_gcd(ff, gg, vars[:-1]) if ff and gg else None
            if found is not None:
                cand: dict = {}
                for e, a in found[0].items():
                    n, k = a, 0
                    while n:
                        digit = n % xi
                        if digit > xi // 2:
                            digit -= xi
                        if digit:
                            cand[e + (k,)] = digit
                        n, k = (n - digit) // xi, k + 1
                if cand.keys() == {one}:
                    break
                cont = math.gcd(*cand.values())
                cand = {e: a // cont for e, a in cand.items()}
                fbar = _quotient(cand, fp)
                gbar = None if fbar is None else _quotient(cand, gp)
                if gbar is not None:
                    return ({e: a * c for e, a in cand.items()},
                            {e: a * (cf // c) for e, a in fbar.items()},
                            {e: a * (cg // c) for e, a in gbar.items()})
            xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
        else:
            return None
    if c == 1:
        return {one: 1}, f, g
    return {one: c}, {e: a // c for e, a in f.items()}, {e: a // c for e, a in g.items()}


def _eval_last(f: dict, xi: int) -> dict:
    """f with its last variable set to xi, zero terms dropped.

    The terms that share all exponents but the last form one group, summed
    by ``_eval_group``; the groups keep the order of their first terms.
    Polls ``check_deadline`` at every group.
    """
    groups: dict = {}
    for e, a in f.items():
        groups.setdefault(e[:-1], []).append((e[-1], a))
    out: dict = {}
    for rest, terms in groups.items():
        check_deadline("while taking a polynomial gcd")
        terms.sort()
        acc = _eval_group(terms, xi, 0)
        if acc:
            out[rest] = acc
    return out


def _eval_group(terms: list, xi: int, low: int) -> int:
    """The sum of a * xi^(j - low) over the (j, a) of terms, which are sorted
    by j, none below low.

    Up to 64 terms go by Horner, highest first.  A wider group is summed as
    its low half plus xi^k times its high half, where k is the high half's
    least exponent, recursively: Horner over n terms multiplies a growing
    integer n times, quadratic in n, where the halves multiply two integers
    of about equal size once per split.  Polls ``check_deadline`` at every
    split.
    """
    if len(terms) > 64:
        check_deadline("while taking a polynomial gcd")
        mid = len(terms) // 2
        k = terms[mid][0]
        return (_eval_group(terms[:mid], xi, low)
                + xi ** (k - low) * _eval_group(terms[mid:], xi, k))
    acc, k = 0, terms[-1][0]
    for j, a in reversed(terms):
        acc = acc * xi ** (k - j) + a
        k = j
    return acc * xi ** (k - low)


def exact_quotient(f: Polynomial, d: Polynomial) -> Optional[Polynomial]:
    """f/d when the nonzero d divides f over Q[vars], else None.  Both
    operands are made integer-primitive over their joint variables, and
    ``_quotient`` divides them, polling as "while dividing polynomials"."""
    vars = sorted(f.vars() | d.vars())
    cf, fi = _int_primitive(f, vars)
    cd, di = _int_primitive(d, vars)
    q = _quotient(di, fi, "while dividing polynomials")
    return None if q is None else _from_ints(q, vars, cf / cd)


def _quotient(d: dict, f: dict, where="while taking a polynomial gcd") -> Optional[dict]:
    """f/d for the integer-primitive d and the integer polynomial f, or None
    when d does not divide f.

    Sparse division along lex order of the exponent tuples.  By Gauss's lemma
    a primitive divisor of f over Q leaves an integral quotient, so a
    coefficient that does not divide exactly proves that d does not divide f.
    A quotient has deg_v(f) - deg_v(d) in each variable v, so a quotient
    monomial outside that degree box proves it too.

    The remainder is kept over negated exponents, with a heap of its keys:
    the heap's least key is the remainder's lex-greatest monomial, and keys
    whose terms have cancelled are skipped when they surface.  Polls
    ``check_deadline(where)`` at each step.
    """
    if not f:
        return {}
    # the degree box over negated exponents: deg_v(d) - deg_v(f) <= -deg_v(q)
    low = tuple(map(sub, map(max, zip(*d)), map(max, zip(*f))))
    if any(lo > 0 for lo in low):
        return None
    dn = {tuple(map(neg, e)): a for e, a in d.items()}
    dm = min(dn)
    dc = dn.pop(dm)                 # dn keeps d's other terms
    r = {tuple(map(neg, e)): a for e, a in f.items()}
    heap = list(r)
    heapq.heapify(heap)
    q: dict = {}
    while r:
        check_deadline(where)
        rm = heapq.heappop(heap)
        c = r.pop(rm, None)
        if c is None:
            continue
        qm = tuple(map(sub, rm, dm))
        if max(qm, default=0) > 0 or any(map(lt, qm, low)):
            return None
        qc, rem = divmod(c, dc)
        if rem:
            return None
        q[tuple(map(neg, qm))] = qc
        for e, a in dn.items():
            m = tuple(map(add, qm, e))
            s = r.get(m)
            if s is None:
                r[m] = -qc * a
                heapq.heappush(heap, m)
            else:
                s -= qc * a
                if s:
                    r[m] = s
                else:
                    del r[m]
    return q

