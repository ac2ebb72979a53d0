"""Rational closed forms of formal power series.

A closed form is a fraction num/den of polynomials whose denominator has a
nonzero constant term, hence is invertible in the power-series ring.  Every
form is scaled to an integer-primitive denominator whose constant term
(leading coefficient, for parametric denominators) is positive.  Forms with
``$``-parameters (the templates of synthesis) are only scaled; see
``normalize``.

Forms without parameters are also GCD-reduced, so structurally equal series
have identical representations.  Their arithmetic relies on that invariant
and takes a gcd only where a common factor can arise (reduced-fraction
arithmetic: Henrici, *A subroutine for computations with rational numbers*,
JACM 3, 1956; Knuth, TAOCP Vol. 2, 4.5.1).  For reduced a/b and c/d:

- p*(a/b) = (p*a)/b for a nonzero rational p, with no gcd;
- a/b + c/d with g = gcd(b, d): t = a*(d/g) + c*(b/g) is coprime to b/g and
  to d/g, so t/(b*d/g) is reduced by gcd(t, g) alone, and is reduced as it
  is when g = 1 (always so when b or d is a constant);
- (a/b)*(c/d) = ((a/gcd(a,d))*(c/gcd(c,b))) / ((b/gcd(c,b))*(d/gcd(a,d))),
  and (a/b)/(c/d) likewise with the roles of c and d swapped; a gcd is
  skipped where one side is a constant, or a monomial against a polynomial
  with a nonzero constant term, as every denominator is;
- (a/b)^n = a^n/b^n is reduced, and b^n stays integer-primitive (Gauss's
  lemma) with a positive constant term.

A sum over one shared denominator keeps its gcd: b may share a factor with
a + c.  Every other combination with a parametric operand goes through
``normalize`` as a whole.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .. import Frozen, _set_field, check_deadline
from .poly import (
    MONO_ONE,
    Mono,
    Polynomial,
    mono_key,
    poly_gcd,
)


class AlgebraError(Exception):
    pass


class InvalidDenominator(AlgebraError):
    """Denominator has zero constant term: not invertible as a power series."""


class UnknownSign(AlgebraError):
    """A mass/positivity question could not be answered soundly."""


class ExtendedMass(Frozen):
    """Total mass of a series: a nonnegative rational or infinity."""

    finite: bool
    value: Optional[Fraction] = None

    @staticmethod
    def of(q) -> "ExtendedMass":
        return ExtendedMass(True, Fraction(q))

    def __repr__(self):
        return f"Mass({self.value})" if self.finite else "Mass(oo)"

    def __str__(self):
        return str(self.value) if self.finite else "oo"


INFINITE_MASS = ExtendedMass(False, None)


class ClosedForm(Frozen):
    __slots__ = ("num", "den")
    num: Polynomial
    den: Polynomial

    # written out, not inherited: forms are built and compared on every path
    def __init__(self, num: Polynomial, den: Polynomial):
        _set_field(self, "num", num)
        _set_field(self, "den", den)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.num, self.den) == (other.num, other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.terms == {MONO_ONE: 1}

    def vars(self) -> set:
        return self.num.vars() | self.den.vars()

    def __add__(self, other: "ClosedForm") -> "ClosedForm":
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            return normalize(a + c, b)
        if has_parameters(self) or has_parameters(other):
            return normalize(a * d + c * b, b * d)
        if b.is_const() or d.is_const():        # the constant denominator is 1
            return _scaled(a * d + c * b, b * d)
        g, b, d = poly_gcd(b, d)
        t, g = _cancel(a * d + c * b, g)
        return _scaled(t, b * d * g)

    def __neg__(self) -> "ClosedForm":
        return ClosedForm(-self.num, self.den)

    def __sub__(self, other: "ClosedForm") -> "ClosedForm":
        return self + (-other)

    def __mul__(self, other) -> "ClosedForm":
        if isinstance(other, (int, Fraction)):     # Choice scales by a probability
            if has_parameters(self):
                return normalize(self.num * other, self.den)
            return ClosedForm(self.num * other, self.den) if other else ZERO
        a, b, c, d = self.num, self.den, other.num, other.den
        if has_parameters(self) or has_parameters(other):
            return normalize(a * c, b * d)
        if not (a and c):
            return ZERO
        a, d = _cancel(a, d)
        c, b = _cancel(c, b)
        return _scaled(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other: "ClosedForm") -> "ClosedForm":
        a, b, c, d = self.num, self.den, other.num, other.den
        if has_parameters(self) or has_parameters(other) or not (a and c):
            return normalize(a * d, b * c)
        a, c = _cancel(a, c)
        d, b = _cancel(d, b)
        return _scaled(a * d, b * c)

    def __pow__(self, n: int) -> "ClosedForm":
        if has_parameters(self):
            return normalize(self.num ** n, self.den ** n)
        return ClosedForm(self.num ** n, self.den ** n)


def from_poly(p: Polynomial) -> ClosedForm:
    return normalize(p, Polynomial.const(1))


def const(c) -> ClosedForm:
    return from_poly(Polynomial.const(c))


ZERO = ClosedForm(Polynomial(), Polynomial.const(1))
ONE = ClosedForm(Polynomial.const(1), Polynomial.const(1))


def normalize(num: Polynomial, den: Polynomial) -> ClosedForm:
    """The canonical form of num/den: GCD-reduced when it has no parameters
    (``_cancel``), then scaled (``_scaled``).  This establishes the invariant
    that the arithmetic of ``ClosedForm`` keeps (see the module docstring):
    every form without parameters is reduced, so two of them are the same
    series exactly when their num and den term dicts are equal.

    A form with ``$``-parameters is not reduced: it is only scaled.  Its
    unreduced common factors vanish only where a denominator would be
    identically zero, and synthesis filters such valuations as invalid, so
    they never change the series a valuation encodes.  The synthesis systems
    built from unreduced forms are also smaller (thirds_geometric at degree
    3: 87 terms against 2,702), and ``ClosedForm.__add__`` keeps their
    denominators from compounding.

    Raises InvalidDenominator when the (reduced) denominator has zero constant
    term (for parametric denominators: when it is identically zero).
    """
    if den.is_zero():
        raise InvalidDenominator("denominator is identically zero")
    if num and not _parametric(num) and not _parametric(den):
        num, den = _cancel(num, den)
    return _scaled(num, den)


def _cancel(p: Polynomial, q: Polynomial) -> tuple:
    """(p/g, q/g) for g = gcd(p, q) of nonzero p and q.  No gcd is taken where
    g is a constant: when p or q is one, or when one is a monomial and the
    other has a nonzero constant term, which no variable divides."""
    if len(p.terms) == 1 and (MONO_ONE in p.terms or MONO_ONE in q.terms) \
            or len(q.terms) == 1 and (MONO_ONE in q.terms or MONO_ONE in p.terms):
        return p, q
    return poly_gcd(p, q)[1:]


def _scaled(num: Polynomial, den: Polynomial) -> ClosedForm:
    """num/den scaled so that den is integer-primitive with a positive
    constant term (leading coefficient, when the constant term is
    parametric); a zero num gives den 1.  Raises InvalidDenominator as
    ``normalize`` does."""
    _require_invertible(den)
    if not num:
        return ZERO
    scale = den.content()
    # a parametric constant term: canonicalize by the leading coefficient
    if (den.constant_term() or den.leading()[1]) < 0:
        scale = -scale
    if scale == 1:
        return ClosedForm(num, den)
    inv = 1 / scale
    return ClosedForm(num * inv, den * inv)


def _require_invertible(den: Polynomial) -> None:
    # A parametric constant term (a polynomial in parameters) is accepted
    # as long as it is not identically zero; instantiation re-checks.
    if den.constant_term() == 0 and not _constant_section(den):
        raise InvalidDenominator("denominator constant term is zero")


def _constant_section(p: Polynomial) -> bool:
    """Whether p has a term free of program indeterminates (a constant, or
    a monomial in ``$``-parameters only)."""
    return any(all(v.startswith("$") for v, _ in m) for m in p.terms)


def equal(f: ClosedForm, g: ClosedForm) -> bool:
    """Same power series, decided by cross-multiplication."""
    return f.num * g.den == g.num * f.den


def series_expand(f: ClosedForm, degree: int,
                  order: Optional[Sequence[str]] = None) -> Dict[Mono, Fraction]:
    """The nonzero coefficients of total degree <= degree, layer by layer
    (see ``_series_layers``).

    Parameters are not indeterminates, so a form with parameters is refused.
    """
    return {m: c for layer in _series_layers(f, degree, order) for m, c in layer}


def _series_layers(f: ClosedForm, degree: int,
                   order: Optional[Sequence[str]] = None) -> Iterator[List[Tuple[Mono, Fraction]]]:
    """The nonzero series coefficients, one total-degree layer at a time.

    Yields, for d = 0..degree, the list of (monomial, coefficient) of total
    degree d in graded-lex order.  Solves c0*a_s = n_s - sum_{0<t<=s} d_t*a_{s-t},
    which needs only lower layers, so a consumer may stop after any layer.
    Polls ``check_deadline`` before each layer.
    """
    params = sorted(v[1:] for v in f.vars() if v.startswith("$"))
    if params:
        raise AlgebraError(
            f"series expansion needs a form without parameters, got {', '.join(params)}")
    c0 = f.den.constant_term()
    if c0 == 0:
        raise InvalidDenominator("series expansion needs a concrete invertible denominator")
    vs = sorted(f.vars(), key=lambda v: (order.index(v) if order and v in order else 10**9, v)) \
        if order else sorted(f.vars())
    # the recurrence runs on exponent tuples over vs; a (name, exponent)
    # monomial is built only for a coefficient that is yielded
    num = {tuple(dict(m).get(v, 0) for v in vs): c for m, c in f.num.terms.items()}
    den_rest = [(tuple(dict(m).get(v, 0) for v in vs), -c)
                for m, c in f.den.terms.items() if m != MONO_ONE]
    coeffs: Dict[tuple, Fraction] = {}
    for d in range(degree + 1):
        check_deadline(f"while expanding the series at degree {d}")
        layer = []
        for exps in _compositions(d, len(vs)):
            acc = num.get(exps)
            for t, dt in den_rest:
                rest = tuple(map(sub, exps, t))
                if min(rest) < 0:
                    continue
                prev = coeffs.get(rest)
                if prev is not None:
                    acc = dt * prev if acc is None else acc + dt * prev
            if acc:
                val = acc / c0
                coeffs[exps] = val
                layer.append((tuple(sorted((v, e) for v, e in zip(vs, exps) if e)), val))
        yield layer


def _monomials_of_degree(vs: List[str], d: int) -> Iterable[Mono]:
    """All monomials over vs of total degree d, graded-lex ascending."""
    for exps in _compositions(d, len(vs)):
        yield tuple(sorted((v, e) for v, e in zip(vs, exps) if e))


def _compositions(total: int, parts: int):
    """The tuples of ``parts`` nonnegative integers that sum to total, in lex
    order; none for ``parts == 0`` except the empty tuple at total 0."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# -- nonnegativity shape heuristic and mass -----------------------------------

def shape_nonneg(f: ClosedForm) -> bool:
    """Sound structural test that every series coefficient is >= 0.

    Accepts numerators with only nonnegative coefficients over denominators
    with positive constant term and no positive non-constant coefficient
    (generalized geometric shape), or the negated pair.  Parametric forms are
    never certified.
    """
    if has_parameters(f):
        return False
    return _shape_pair(f.num, f.den) or _shape_pair(-f.num, -f.den)


def _shape_pair(num: Polynomial, den: Polynomial) -> bool:
    return geometric_den(den) and all(c >= 0 for c in num.terms.values())


def geometric_den(den: Polynomial) -> bool:
    """Positive constant term and no positive non-constant coefficient: the
    generalized geometric shape, whose series 1/den is nonnegative."""
    return den.constant_term() > 0 and all(
        c <= 0 for m, c in den.terms.items() if m != MONO_ONE)


def mass(f: ClosedForm) -> ExtendedMass:
    """Total mass: the coefficient sum of the series.

    Only sound for series certified nonnegative; a denominator of geometric
    shape is monotonically nonincreasing on [0,1]^n, so den(1) > 0 implies
    convergence with value num(1)/den(1) and den(1) <= 0 implies divergence.
    """
    if not shape_nonneg(f):
        raise UnknownSign("mass is only evaluated on shape-certified nonnegative forms")
    d1 = sum(f.den.terms.values(), Fraction(0))  # den with every variable at 1
    if d1 <= 0:
        return INFINITE_MASS
    return ExtendedMass.of(sum(f.num.terms.values(), Fraction(0)) / d1)


def find_negative_coefficient(f: ClosedForm, degree: int,
                              order: Optional[Sequence[str]] = None):
    """The ``mono_key``-least (monomial, coefficient) with coefficient < 0 up
    to the degree, or None.

    ``mono_key`` orders by total degree first, so the scan expands one layer
    at a time and stops at the first layer that holds a negative coefficient.
    Raises TimeoutError as ``_series_layers`` does.
    """
    for layer in _series_layers(f, degree, order):
        negative = [t for t in layer if t[1] < 0]
        if negative:
            return min(negative, key=lambda t: mono_key(t[0], order))
    return None


def _parametric(p: Polynomial) -> bool:
    """Whether a ``$``-parameter occurs in p.  A monomial's pairs are sorted
    by name and "$" sorts before every letter, so its first pair decides."""
    return any(m and m[0][0][0] == "$" for m in p.terms)


def has_parameters(f: ClosedForm) -> bool:
    return _parametric(f.num) or _parametric(f.den)


def instantiate(f: ClosedForm, valuation: Dict[str, Fraction]) -> ClosedForm:
    """Substitute rational values for parameters ($-prefixed variables)."""
    num, den = f.num, f.den
    for p, val in valuation.items():
        key = p if p.startswith("$") else "$" + p
        num = num.subs_var(key, Fraction(val))
        den = den.subs_var(key, Fraction(val))
    return normalize(num, den)
