"""Verification of occupation invariants and the exact-posterior proof rule.

A candidate measure I is an occupation superinvariant of a loop w.r.t. an
initial measure g when Phi(I) <= I for the loop's characteristic functional
Phi(I) = g + body([guard]*I); equality makes it an invariant.  A finite-mass
superinvariant whose guard-violating restriction I - [guard]*I has the same
mass as g certifies the exact posterior (and positive almost-sure
termination).  ``certify`` computes [guard]*I once: it serves both Phi(I)
and the posterior bound I - [guard]*I.

Verdicts are three-valued: Refuted only ever comes from an exact series
witness, never from a failed heuristic.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Optional

from .algebra import (
    ClosedForm,
    ExtendedMass,
    UnknownSign,
    find_negative_coefficient,
    mass,
    shape_nonneg,
)
from . import Frozen, program as P
from .semantics import apply_statement, restrict_guard

DEFAULT_REFUTE_DEGREE = 25


class Verdict(enum.Enum):
    EXACT = "exact"
    SUPER = "super"
    UNKNOWN = "unknown"
    REFUTED = "refuted"


class CertificateKind(enum.Enum):
    EXACT_INVARIANT = "ExactInvariant"
    SUPERINVARIANT = "Superinvariant"
    EXACT_POSTERIOR = "ExactPosterior"
    PAST_WITNESS = "PastWitness"
    UPPER_BOUND_ONLY = "UpperBoundOnly"


class Certificate(Frozen):
    kind: CertificateKind
    invariant: ClosedForm
    verdict: Verdict
    posterior: Optional[ClosedForm] = None
    mass_invariant: Optional[ExtendedMass] = None
    mass_initial: Optional[Fraction] = None
    mass_posterior: Optional[Fraction] = None
    past: bool = False

    @property
    def is_full(self) -> bool:
        return self.kind == CertificateKind.EXACT_POSTERIOR

    @property
    def ert_upper_bound(self) -> Optional[ExtendedMass]:
        """|I| bounds the expected number of guard evaluations (equals it for
        exact invariants)."""
        return self.mass_invariant


def verify(loop: P.While, g: ClosedForm, candidate: ClosedForm, inside: ClosedForm,
           refute_degree: int = DEFAULT_REFUTE_DEGREE) -> Verdict:
    """Classify a fully instantiated candidate I, given inside = [guard]*I,
    against the fixed point equation Phi(I) = g + body(inside).

    Exact when the difference I - Phi(I) is zero; Super when it passes the
    nonnegativity shape check; Refuted when some series coefficient of the
    difference up to refute_degree is negative; otherwise Unknown.  The
    series search raises TimeoutError past the deadline.
    """
    diff = candidate - (g + apply_statement(loop.body, inside))
    if diff.is_zero():
        return Verdict.EXACT
    if shape_nonneg(diff):
        return Verdict.SUPER
    if find_negative_coefficient(diff, refute_degree) is not None:
        return Verdict.REFUTED
    return Verdict.UNKNOWN


def exact_posterior(loop: P.While, g: ClosedForm, invariant: ClosedForm,
                    inside: ClosedForm, verdict: Verdict) -> Certificate:
    """Build the strongest certificate the mass checks support.

    Requires a prior verify() verdict of EXACT or SUPER.  [not guard]*I =
    I - inside, inside = [guard]*I, bounds the posterior.  The exact-posterior
    rule needs |I| finite and |[not guard]*I| = |g|; a finite-mass mismatch
    still witnesses PAST, and infinite mass leaves an upper bound only.  So
    does a ``diverge`` in the body: both rules assume a body that loses no
    mass, and the mass that diverges never terminates.  When |I|, |g| or
    |[not guard]*I| cannot be decided (UnknownSign), or |g| is infinite, no
    mass claim is sound: the certificate is a plain ExactInvariant or
    Superinvariant, without posterior or masses.
    """
    if verdict not in (Verdict.EXACT, Verdict.SUPER):
        raise ValueError("exact_posterior needs a verified (super)invariant")
    bound = invariant - inside
    try:
        mass_i, mass_g = mass(invariant), mass(g)
        exact_rule = (mass_g.finite and mass_i.finite
                      and not any(isinstance(s, P.Diverge) for s in P._stmts(loop.body)))
        mass_b = mass(bound) if exact_rule else None
    except UnknownSign:
        mass_g = None
    if mass_g is None or not mass_g.finite:
        return Certificate(CertificateKind.EXACT_INVARIANT if verdict == Verdict.EXACT
                           else CertificateKind.SUPERINVARIANT, invariant, verdict)
    given = dict(invariant=invariant, verdict=verdict,
                 mass_invariant=mass_i, mass_initial=mass_g.value)
    if mass_b is None:
        return Certificate(CertificateKind.UPPER_BOUND_ONLY, posterior=bound, **given)
    if mass_b.finite and mass_b.value == mass_g.value:
        return Certificate(CertificateKind.EXACT_POSTERIOR, posterior=bound,
                           mass_posterior=mass_b.value, past=True, **given)
    return Certificate(CertificateKind.PAST_WITNESS,
                       mass_posterior=mass_b.value if mass_b.finite else None,
                       past=True, **given)


def certify(loop: P.While, g: ClosedForm, candidate: ClosedForm,
            refute_degree: int = DEFAULT_REFUTE_DEGREE):
    """The shape test, verify and exact_posterior in one step.

    [guard]*I is computed once and serves both Phi(I) in verify and the
    posterior bound in exact_posterior.  Returns (verdict, certificate or
    None).  A candidate that fails the nonnegativity shape check is never
    certified: Refuted by a negative series coefficient up to refute_degree,
    else Unknown.  Every layer raises TimeoutError past the deadline of the
    innermost ``time_limit``.
    """
    if not shape_nonneg(candidate):
        neg = find_negative_coefficient(candidate, refute_degree)
        return (Verdict.REFUTED if neg is not None else Verdict.UNKNOWN), None
    inside = restrict_guard(candidate, loop.guard)
    verdict = verify(loop, g, candidate, inside, refute_degree)
    if verdict not in (Verdict.EXACT, Verdict.SUPER):
        return verdict, None
    return verdict, exact_posterior(loop, g, candidate, inside, verdict)
