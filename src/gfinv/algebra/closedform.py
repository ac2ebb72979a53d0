"""Rational closed forms of formal power series.

A closed form is a fraction num/den of polynomials whose denominator has a
nonzero constant term, hence is invertible in the power-series ring.  Every
form is scaled to an integer-primitive denominator whose constant term
(leading coefficient, for parametric denominators) is positive.  Forms
without parameters are also GCD-reduced, so structurally equal series
normalize to identical representations.  Forms with ``$``-parameters (the
templates of synthesis) are only scaled; see ``normalize``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .poly import (
    MONO_ONE,
    Mono,
    Polynomial,
    mono_degree,
    mono_div,
    mono_key,
    mono_mul,
    poly_div_exact,
    poly_gcd,
)


class AlgebraError(Exception):
    pass


class InvalidDenominator(AlgebraError):
    """Denominator has zero constant term: not invertible as a power series."""


class UnknownSign(AlgebraError):
    """A mass/positivity question could not be answered soundly."""


@dataclass(frozen=True)
class ExtendedMass:
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


@dataclass(frozen=True)
class ClosedForm:
    num: Polynomial
    den: Polynomial

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == Polynomial.const(1)

    def vars(self) -> set:
        return self.num.vars() | self.den.vars()

    def __add__(self, other: "ClosedForm") -> "ClosedForm":
        other = _lift(other)
        if self.den == other.den:
            return normalize(self.num + other.num, self.den)
        return normalize(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "ClosedForm":
        return ClosedForm(-self.num, self.den)

    def __sub__(self, other) -> "ClosedForm":
        return self + (-_lift(other))

    def __rsub__(self, other):
        return (-self) + _lift(other)

    def __mul__(self, other) -> "ClosedForm":
        if isinstance(other, (int, Fraction)):
            return normalize(self.num * other, self.den)
        return normalize(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ClosedForm":
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError
            return normalize(self.num, self.den * other)
        return normalize(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> "ClosedForm":
        return normalize(self.num ** n, self.den ** n)


def _lift(v) -> ClosedForm:
    if isinstance(v, ClosedForm):
        return v
    if isinstance(v, Polynomial):
        return normalize(v, Polynomial.const(1))
    return normalize(Polynomial.const(v), Polynomial.const(1))


def from_poly(p: Polynomial) -> ClosedForm:
    return normalize(p, Polynomial.const(1))


def const(c) -> ClosedForm:
    return from_poly(Polynomial.const(c))


def var(name: str, exp: int = 1) -> ClosedForm:
    return from_poly(Polynomial.var(name, exp))


ZERO = ClosedForm(Polynomial(), Polynomial.const(1))
ONE = ClosedForm(Polynomial.const(1), Polynomial.const(1))


def normalize(num: Polynomial, den: Polynomial) -> ClosedForm:
    """Scale-canonicalize num/den, and GCD-reduce it when it has no parameters.

    A form with ``$``-parameters is not reduced: it is only scaled.  Its
    unreduced common factors vanish only where a denominator would be
    identically zero, and synthesis filters such valuations as invalid, so
    they never change the series a valuation encodes.

    Raises InvalidDenominator when the (reduced) denominator has zero constant
    term (for parametric denominators: when it is identically zero).
    """
    if den.is_zero():
        raise InvalidDenominator("denominator is identically zero")
    if num.is_zero():
        _require_invertible(den)
        return ClosedForm(Polynomial(), Polynomial.const(1))
    # Parametric pseudo-remainder sequences blow up quickly, so parametric
    # pairs are never GCD-reduced; ClosedForm.__add__ keeps their
    # denominators from compounding instead.
    if not den.is_const() and not num.is_const() \
            and not any(v.startswith("$") for v in num.vars() | den.vars()):
        g = poly_gcd(num, den)
        if not g.is_const() or g.constant_term() != 1:
            num = poly_div_exact(num, g)
            den = poly_div_exact(den, g)
    _require_invertible(den)
    c0 = den.constant_term()
    if c0:
        scale = den.content()
        if c0 < 0:
            scale = -scale
    else:
        # parametric constant term: canonicalize by leading coefficient
        scale = den.content()
        if den.leading()[1] < 0:
            scale = -scale
    inv = 1 / scale
    return ClosedForm(num * inv, den * inv)


def _require_invertible(den: Polynomial) -> None:
    c0 = den.constant_term()
    if isinstance(c0, Fraction) and c0 == 0:
        # A parametric constant term (a polynomial in parameters) is accepted
        # as long as it is not identically zero; instantiation re-checks.
        if not any(all(v.startswith("$") for v, _ in m) for m in den.terms):
            raise InvalidDenominator("denominator constant term is zero")


def equal(f: ClosedForm, g: ClosedForm) -> bool:
    """Same power series, decided by cross-multiplication."""
    return f.num * g.den == g.num * f.den


def series_expand(f: ClosedForm, degree: int,
                  order: Optional[Sequence[str]] = None) -> Dict[Mono, Fraction]:
    """All coefficients of total degree <= degree.

    Solves c0*a_s = n_s - sum_{0<t<=s} d_t*a_{s-t} along graded-lex order.
    Parameters are not indeterminates, so a form with parameters is refused.
    """
    params = sorted(v[1:] for v in f.vars() if v.startswith("$"))
    if params:
        raise AlgebraError(
            f"series expansion needs a form without parameters, got {', '.join(params)}")
    c0 = f.den.constant_term()
    if not isinstance(c0, Fraction) or c0 == 0:
        raise InvalidDenominator("series expansion needs a concrete invertible denominator")
    vs = sorted(f.vars(), key=lambda v: (order.index(v) if order and v in order else 10**9, v)) \
        if order else sorted(f.vars())
    den_rest = [(m, c) for m, c in f.den.terms.items() if m != MONO_ONE]
    coeffs: Dict[Mono, Fraction] = {}
    for m in _monomials_upto(vs, degree):
        acc = f.num.terms.get(m, Fraction(0))
        for t, d in den_rest:
            rest = mono_div(m, t)
            if rest is None:
                continue
            prev = coeffs.get(rest)
            if prev:
                acc = acc - d * prev
        val = acc / c0
        if val:
            coeffs[m] = val
    return coeffs


def _monomials_upto(vs: List[str], degree: int) -> Iterable[Mono]:
    """All monomials over vs with total degree <= degree, graded-lex ascending."""
    if not vs:
        yield MONO_ONE
        return
    for d in range(degree + 1):
        for exps in _compositions(d, len(vs)):
            yield tuple(sorted((v, e) for v, e in zip(vs, exps) if e))


def _compositions(total: int, parts: int):
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
    c0 = den.constant_term()
    if not isinstance(c0, Fraction) or c0 <= 0:
        return False
    for m, c in den.terms.items():
        if m != MONO_ONE and (not isinstance(c, Fraction) or c > 0):
            return False
    for c in num.terms.values():
        if not isinstance(c, Fraction) or c < 0:
            return False
    return True


def mass(f: ClosedForm) -> ExtendedMass:
    """Total mass: the coefficient sum of the series.

    Only sound for series certified nonnegative; a denominator of geometric
    shape is monotonically nonincreasing on [0,1]^n, so den(1) > 0 implies
    convergence with value num(1)/den(1) and den(1) <= 0 implies divergence.
    """
    if f.is_zero():
        return ExtendedMass.of(0)
    if not shape_nonneg(f):
        raise UnknownSign("mass is only evaluated on shape-certified nonnegative forms")
    d1 = f.den.eval_ones()
    if d1 <= 0:
        return INFINITE_MASS
    return ExtendedMass.of(f.num.eval_ones() / d1)


def find_negative_coefficient(f: ClosedForm, degree: int,
                              order: Optional[Sequence[str]] = None):
    """First (monomial, coefficient) with coefficient < 0 up to the degree, or None."""
    for m, c in sorted(series_expand(f, degree, order).items(), key=lambda t: mono_key(t[0], order)):
        if c < 0:
            return m, c
    return None


def has_parameters(f: ClosedForm) -> bool:
    return any(v.startswith("$") for v in f.vars())


def instantiate(f: ClosedForm, valuation: Dict[str, Fraction]) -> ClosedForm:
    """Substitute rational values for parameters ($-prefixed variables)."""
    num, den = f.num, f.den
    for p, val in valuation.items():
        key = p if p.startswith("$") else "$" + p
        num = num.subs_var(key, Fraction(val))
        den = den.subs_var(key, Fraction(val))
    return normalize(num, den)
