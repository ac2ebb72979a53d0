"""Arithmetic in the cyclotomic field Q(zeta_d) = Q[z]/(Phi_d(z)).

Supports the roots-of-unity filter for modulo guards: only addition,
multiplication and rational scaling are needed, never field inversion.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional


@lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> tuple:
    """Dense integer coefficients of Phi_d, low degree first, monic."""
    if d < 1:
        raise ValueError("order must be positive")
    # x^d - 1 divided by the product of Phi_e over proper divisors e of d.
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e:
            continue
        phi_e = cyclotomic_poly(e)
        poly = _div_exact_int(poly, list(phi_e))
    return tuple(poly)


def _div_exact_int(a: list, b: list) -> list:
    out = [0] * (len(a) - len(b) + 1)
    r = list(a)
    for i in range(len(out) - 1, -1, -1):
        c = r[i + len(b) - 1] // b[-1]
        out[i] = c
        if c:
            for j, bj in enumerate(b):
                r[i + j] -= c * bj
    if any(r):
        raise ArithmeticError("inexact cyclotomic division")
    return out


class CyclotomicElement:
    """Element of Q[z]/(Phi_d), stored on the power basis 1, z, ..., z^(phi(d)-1)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        self.order = order
        deg = len(cyclotomic_poly(order)) - 1
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > deg:
            cs = _reduce(cs, order)
        cs += [Fraction(0)] * (deg - len(cs))
        self.coeffs = tuple(cs[:deg])

    @staticmethod
    def from_rational(order: int, value) -> "CyclotomicElement":
        return CyclotomicElement(order, [Fraction(value)])

    @staticmethod
    def zeta(order: int, power: int = 1) -> "CyclotomicElement":
        power %= order
        coeffs = [Fraction(0)] * (power + 1)
        coeffs[power] = Fraction(1)
        return CyclotomicElement(order, coeffs)

    def _lift(self, other) -> "CyclotomicElement":
        if isinstance(other, CyclotomicElement):
            if other.order != self.order:
                raise ValueError("mixed cyclotomic orders")
            return other
        return CyclotomicElement.from_rational(self.order, other)

    def __add__(self, other):
        o = self._lift(other)
        return CyclotomicElement(self.order, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicElement(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CyclotomicElement(self.order, [a * other for a in self.coeffs])
        o = self._lift(other)
        n = len(self.coeffs)
        prod = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    prod[i + j] += a * b
        return CyclotomicElement(self.order, prod)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = CyclotomicElement.from_rational(self.order, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._lift(other)
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def to_rational(self) -> Optional[Fraction]:
        """The value as a rational, or None if it genuinely involves zeta."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def __repr__(self):
        return f"Cyclo({self.order}, {list(self.coeffs)})"


def _reduce(coeffs: list, order: int) -> list:
    phi = list(cyclotomic_poly(order))
    deg = len(phi) - 1
    cs = list(coeffs)
    for i in range(len(cs) - 1, deg - 1, -1):
        c = cs[i]
        if not c:
            continue
        # monic modulus: subtract c * z^(i-deg) * Phi_d
        for j, pj in enumerate(phi):
            cs[i - deg + j] -= c * pj
    return cs[:deg]
