"""Exact arithmetic foundation: rationals, polynomials, closed forms."""

from .closedform import (
    ClosedForm,
    ExtendedMass,
    INFINITE_MASS,
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
    mono_degree,
    mono_degree_in,
    mono_key,
    mono_mul,
    poly_gcd,
    row_reduce,
)

__all__ = [name for name in dir() if not name.startswith("_")]
