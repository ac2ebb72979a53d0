"""Exact arithmetic foundation: rationals, polynomials, closed forms."""

from .closedform import (
    ClosedForm,
    ExtendedMass,
    AlgebraError,
    InvalidDenominator,
    UnknownSign,
    ZERO,
    ONE,
    const,
    equal,
    find_negative_coefficient,
    from_poly,
    has_parameters,
    instantiate,
    mass,
    normalize,
    series_expand,
    shape_nonneg,
)
from .gfexpr import (
    GfSyntaxError,
    format_closed_form,
    format_monomial,
    indet_symbol,
    parse_closed_form,
    parse_closed_form_with_params,
)
from .poly import (
    MONO_ONE,
    Mono,
    Polynomial,
    mono_key,
    poly_gcd,
)

__all__ = [name for name in dir() if not name.startswith("_")]
