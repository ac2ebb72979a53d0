from fractions import Fraction as F

import pytest

from gfinv.algebra import (
    Polynomial,
    UnknownSign,
    const,
    equal,
    format_closed_form,
    from_poly,
    mass,
    normalize,
)
from gfinv.invariant import (
    Certificate,
    CertificateKind,
    Verdict,
    certify,
    exact_posterior,
    posterior_upper_bound,
    verify,
)
from gfinv.program import parse

ONE = Polynomial.const(1)
X = Polynomial.var("x")
C = Polynomial.var("c")

GEO = parse("nat x; nat c;\nwhile (x = 1) { { c := c + 1 } [1/2] { x := 0 } }").body
WALK = parse("nat x;\nwhile (x > 0) { { x := x - 1 } [1/2] { x := x + 1 } }").body
OCC = normalize(ONE + 2 * X, 2 - C)
G = from_poly(X)


class TestVerify:
    def test_exact(self):
        assert verify(GEO, G, OCC) == Verdict.EXACT

    def test_super_by_added_constant(self):
        # the added constant has no section at x = 1, so Phi is unchanged
        assert verify(GEO, G, OCC + const(1)) == Verdict.SUPER

    def test_refuted_by_series_witness(self):
        assert verify(GEO, G, from_poly(X)) == Verdict.REFUTED

    def test_walk_invariant_exact(self):
        assert verify(WALK, G, normalize(ONE + X, ONE - X)) == Verdict.EXACT


class TestPosteriorBound:
    def test_geometric(self):
        bound = posterior_upper_bound(GEO, OCC)
        assert equal(bound, normalize(ONE, 2 - C))

    def test_walk_bound_is_one(self):
        bound = posterior_upper_bound(WALK, normalize(ONE + X, ONE - X))
        assert equal(bound, const(1))

    def test_zero(self):
        from gfinv.algebra import ZERO
        assert posterior_upper_bound(GEO, ZERO).is_zero()


class TestErt:
    def test_geometric_expected_guard_evaluations(self):
        m = mass(OCC)
        assert m.finite and m.value == 3

    def test_infinite_for_random_walk(self):
        assert not mass(normalize(ONE + X, ONE - X)).finite

    def test_unsatisfiable_guard_counts_one_evaluation_per_unit_mass(self):
        loop = parse("nat x;\nwhile (x < 0) { skip }").body
        g = from_poly(X)
        assert verify(loop, g, g) == Verdict.EXACT
        assert mass(g).value == 1


class TestExactPosterior:
    def test_geometric_certificate(self):
        cert = exact_posterior(GEO, G, OCC, Verdict.EXACT)
        assert cert.kind == CertificateKind.EXACT_POSTERIOR
        assert equal(cert.posterior, normalize(ONE, 2 - C))
        assert cert.mass_invariant.value == 3
        assert cert.mass_posterior == cert.mass_initial == 1
        assert cert.past

    def test_walk_upper_bound_only(self):
        cert = exact_posterior(WALK, G, normalize(ONE + X, ONE - X), Verdict.EXACT)
        assert cert.kind == CertificateKind.UPPER_BOUND_ONLY
        assert not cert.past
        assert not cert.mass_invariant.finite

    def test_past_witness_on_mass_mismatch(self):
        # inflated superinvariant: finite mass but the posterior bound is loose
        inflated = OCC + normalize(ONE, 2 - C)
        assert verify(GEO, G, inflated) == Verdict.SUPER
        cert = exact_posterior(GEO, G, inflated, Verdict.SUPER)
        assert cert.kind == CertificateKind.PAST_WITNESS
        assert cert.past and cert.posterior is None

    def test_requires_verified_candidate(self):
        with pytest.raises(ValueError):
            exact_posterior(GEO, G, OCC, Verdict.REFUTED)


class TestCertify:
    def test_full_pipeline(self):
        verdict, cert = certify(GEO, G, OCC)
        assert verdict == Verdict.EXACT and cert.is_full

    def test_shape_unknown_candidate_never_certified(self):
        mixed = normalize(2 * C, C * C - 3 * C + 2) + const(1)
        verdict, cert = certify(GEO, G, mixed)
        assert cert is None
        assert verdict in (Verdict.UNKNOWN, Verdict.REFUTED)

    def test_negative_candidate_refuted(self):
        verdict, cert = certify(GEO, G, from_poly(X) - const(1))
        assert verdict == Verdict.REFUTED and cert is None


class TestInfiniteInitialMass:
    """From X/(1-C) the initial measure has infinite mass, so no mass claim
    is sound: a verified candidate certifies a plain (super)invariant.  So
    does a mass that the shape test cannot decide."""

    LOOP = parse("nat x; nat c;\nwhile (x = 1) { x := 0 }").body
    INIT = normalize(X, ONE - C)

    @pytest.mark.parametrize("num, verdict, kind", [
        (ONE + X, Verdict.EXACT, CertificateKind.EXACT_INVARIANT),
        (2 + X, Verdict.SUPER, CertificateKind.SUPERINVARIANT),
    ], ids=["exact", "super"])
    def test_certifies_no_posterior(self, num, verdict, kind):
        got, cert = certify(self.LOOP, self.INIT, normalize(num, ONE - C))
        assert got == cert.verdict == verdict and cert.kind == kind
        assert cert.posterior is None and not cert.past and not cert.is_full
        assert cert.mass_initial is cert.mass_invariant is cert.mass_posterior is None

    def test_an_undecided_posterior_mass_certifies_no_posterior(self):
        # |I| = 9/2 is finite, but the shape test cannot decide the sign of
        # [not guard]*I = (6 - 2X + 5X^2/3)/(3 - X), so its mass is unknown
        loop = parse("nat x;\nwhile (x = 1) { x := 0 }").body
        verdict, cert = certify(loop, G, normalize(6 + 3 * X, 3 - X))
        assert verdict == cert.verdict == Verdict.SUPER
        assert cert.kind == CertificateKind.SUPERINVARIANT and cert.posterior is None
        assert cert.mass_initial is cert.mass_invariant is cert.mass_posterior is None


class TestDivergingBody:
    # terminates with probability 1/2: the other half of the mass diverges
    LOOP = parse("nat x;\nwhile (x < 1) { {x := x + 1} [1/2] {diverge} }").body

    def test_a_superinvariant_whose_mass_matches_bounds_the_posterior_only(self):
        # |[not guard]I| = |X| = 1 = |g|, yet the true posterior is X/2
        verdict, cert = certify(self.LOOP, const(1), from_poly(ONE + X))
        assert verdict == Verdict.SUPER
        assert cert.kind == CertificateKind.UPPER_BOUND_ONLY and not cert.past
        assert equal(cert.posterior, from_poly(X))

    def test_the_exact_invariant_gives_no_termination_claim(self):
        verdict, cert = certify(self.LOOP, const(1), from_poly(ONE + X * F(1, 2)))
        assert verdict == Verdict.EXACT
        assert cert.kind == CertificateKind.UPPER_BOUND_ONLY and not cert.past
        assert equal(cert.posterior, from_poly(X * F(1, 2)))
