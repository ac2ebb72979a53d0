from fractions import Fraction as F

import pytest

import gfinv.invariant
import gfinv.semantics
from gfinv.algebra import (
    Polynomial,
    UnknownSign,
    ZERO,
    const,
    equal,
    format_closed_form,
    from_poly,
    mass,
    normalize,
    parse_closed_form,
    shape_nonneg,
)
from gfinv.invariant import (
    Certificate,
    CertificateKind,
    Verdict,
    certify,
    exact_posterior,
    verify,
)
from gfinv.program import While, classify, parse, top_level_segments
from gfinv.semantics import restrict_guard

ONE = Polynomial.const(1)
X = Polynomial.var("x")
C = Polynomial.var("c")

GEO = parse("nat x; nat c;\nwhile (x = 1) { { c := c + 1 } [1/2] { x := 0 } }").body
WALK = parse("nat x;\nwhile (x > 0) { { x := x - 1 } [1/2] { x := x + 1 } }").body
OCC = normalize(ONE + 2 * X, 2 - C)
G = from_poly(X)


def _verify(loop, g, candidate):
    return verify(loop, g, candidate, restrict_guard(candidate, loop.guard))


def _exact_posterior(loop, g, invariant, verdict):
    return exact_posterior(loop, g, invariant, restrict_guard(invariant, loop.guard), verdict)


def _bound(loop, invariant):
    """[not guard] * I, the posterior bound exact_posterior reports."""
    return invariant - restrict_guard(invariant, loop.guard)


class TestVerify:
    def test_exact(self):
        assert _verify(GEO, G, OCC) == Verdict.EXACT

    def test_super_by_added_constant(self):
        # the added constant has no section at x = 1, so Phi is unchanged
        assert _verify(GEO, G, OCC + const(1)) == Verdict.SUPER

    def test_refuted_by_series_witness(self):
        assert _verify(GEO, G, from_poly(X)) == Verdict.REFUTED

    def test_walk_invariant_exact(self):
        assert _verify(WALK, G, normalize(ONE + X, ONE - X)) == Verdict.EXACT


class TestPosteriorBound:
    def test_geometric(self):
        bound = _bound(GEO, OCC)
        assert equal(bound, normalize(ONE, 2 - C))

    def test_walk_bound_is_one(self):
        bound = _bound(WALK, normalize(ONE + X, ONE - X))
        assert equal(bound, const(1))

    def test_zero(self):
        assert _bound(GEO, ZERO).is_zero()


class TestErt:
    def test_geometric_expected_guard_evaluations(self):
        m = mass(OCC)
        assert m.finite and m.value == 3

    def test_infinite_for_random_walk(self):
        assert not mass(normalize(ONE + X, ONE - X)).finite

    def test_unsatisfiable_guard_counts_one_evaluation_per_unit_mass(self):
        loop = parse("nat x;\nwhile (x < 0) { skip }").body
        g = from_poly(X)
        assert _verify(loop, g, g) == Verdict.EXACT
        assert mass(g).value == 1


class TestExactPosterior:
    def test_geometric_certificate(self):
        cert = _exact_posterior(GEO, G, OCC, Verdict.EXACT)
        assert cert.kind == CertificateKind.EXACT_POSTERIOR
        assert equal(cert.posterior, normalize(ONE, 2 - C))
        assert cert.mass_invariant.value == 3
        assert cert.mass_posterior == cert.mass_initial == 1
        assert cert.past

    def test_walk_upper_bound_only(self):
        cert = _exact_posterior(WALK, G, normalize(ONE + X, ONE - X), Verdict.EXACT)
        assert cert.kind == CertificateKind.UPPER_BOUND_ONLY
        assert not cert.past
        assert not cert.mass_invariant.finite

    def test_past_witness_on_mass_mismatch(self):
        # inflated superinvariant: finite mass but the posterior bound is loose
        inflated = OCC + normalize(ONE, 2 - C)
        assert _verify(GEO, G, inflated) == Verdict.SUPER
        cert = _exact_posterior(GEO, G, inflated, Verdict.SUPER)
        assert cert.kind == CertificateKind.PAST_WITNESS
        assert cert.past and cert.posterior is None

    def test_requires_verified_candidate(self):
        with pytest.raises(ValueError):
            _exact_posterior(GEO, G, OCC, Verdict.REFUTED)


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


# certify on each corpus invariant and on the invariant plus 1, as verify
# followed by exact_posterior returned them when each restricted the candidate
# itself: (verdict, kind, posterior, |I|, |g|, |posterior|, past)
PINNED = {
    ("cond_and", "known"): ("exact", "ExactPosterior", "1", "Mass(1)", 1, 1, True),
    ("cond_and", "plus1"): ("super", "PastWitness", None, "Mass(2)", 1, 2, True),
    ("cond_and_corrected", "known"):
        ("exact", "ExactPosterior", "1/2*Y + 1/2*X", "Mass(2)", 1, 1, True),
    ("cond_and_corrected", "plus1"): ("super", "PastWitness", None, "Mass(3)", 1, 2, True),
    ("fast_dice_roller", "known"):
        ("exact", "ExactPosterior", "1/6*F*V^8 + 1/6*C*F*V^8 + 1/6*C^2*F*V^8 + 1/6*C^3*F*V^8"
         " + 1/6*C^4*F*V^8 + 1/6*C^5*F*V^8", "Mass(14/3)", 1, 1, True),
    ("fast_dice_roller", "plus1"): ("refuted",),
    ("faulty_decrement", "known"): ("exact", "ExactPosterior", "1", "Mass(3)", 1, 1, True),
    ("faulty_decrement", "plus1"): ("super", "PastWitness", None, "Mass(4)", 1, 2, True),
    ("geometric", "known"): ("exact", "ExactPosterior", "1/(2 - C)", "Mass(3)", 1, 1, True),
    ("geometric", "plus1"): ("unknown",),
    ("geometric_counter", "known"):
        ("exact", "ExactPosterior", "C/(2 - C)", "Mass(3)", 1, 1, True),
    ("geometric_counter", "plus1"): ("super", "PastWitness", None, "Mass(4)", 1, 2, True),
    ("modulo_geometric", "known"):
        ("exact", "ExactPosterior", "X^2/(2 - X^2)", "Mass(3)", 1, 1, True),
    ("modulo_geometric", "plus1"): ("super", "PastWitness", None, "Mass(4)", 1, 2, True),
    ("random_walk", "known"): ("exact", "UpperBoundOnly", "1", "Mass(oo)", 1, None, False),
    ("random_walk", "plus1"): ("super", "UpperBoundOnly", "2", "Mass(oo)", 1, None, False),
    ("random_walk_counter", "known"):
        ("exact", "ExactPosterior", "(C^2 + 2*C*X^3)/(4 - C^2)", "Mass(3)", 1, 1, True),
    ("random_walk_counter", "plus1"): ("super", "PastWitness", None, "Mass(4)", 1, 2, True),
    ("subdist_enter", "known"):
        ("exact", "ExactPosterior", "1/2/(2 - C)", "Mass(3/2)", F(1, 2), F(1, 2), True),
    ("subdist_enter", "plus1"): ("unknown",),
    ("thirds_geometric", "known"):
        ("exact", "ExactPosterior", "(X^2 + X^3)/(3 - X^3)", "Mass(5/2)", 1, 1, True),
    ("thirds_geometric", "plus1"): ("super", "PastWitness", None, "Mass(7/2)", 1, 2, True),
}


class TestOneRestrictionPerVerdict:
    """certify restricts the candidate to the loop guard once, for both Phi(I)
    and the posterior bound, and keeps nothing from one call to the next."""

    @staticmethod
    def _cases(corpus):
        for name, (ast, init, expected, d) in sorted(corpus.items()):
            if "invariant_file" in expected:
                text = (d / expected["invariant_file"]).read_text().strip()
            else:
                text = expected.get("invariant")
            if text is None or not classify(ast).is_single_loop:
                continue
            loop = next(s for s in top_level_segments(ast) if isinstance(s, While))
            for how, cand in (("known", text), ("plus1", f"({text}) + 1")):
                yield (name, how), ast, loop, init, parse_closed_form(cand, ast.variables)

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        for module in (gfinv.invariant, gfinv.semantics):
            def spy(f, g, inner=module.restrict_guard):
                calls.append((f, g))
                return inner(f, g)
            monkeypatch.setattr(module, "restrict_guard", spy)
        return calls

    def test_certify_restricts_the_candidate_once(self, corpus, monkeypatch):
        cases = list(self._cases(corpus))
        assert sorted(key for key, *_ in cases) == sorted(PINNED)
        calls = self._spy(monkeypatch)
        for key, ast, loop, init, cand in cases:
            calls.clear()
            verdict, cert = certify(loop, init, cand)
            # a candidate that fails the shape test is never restricted
            on_candidate = [c for c in calls if c == (cand, loop.guard)]
            assert len(on_candidate) == shape_nonneg(cand), key
            pinned = PINNED[key]
            assert verdict.value == pinned[0], key
            if cert is None:
                assert len(pinned) == 1, key
                continue
            assert cert.verdict == verdict and cert.invariant == cand, key
            posterior = None if cert.posterior is None \
                else format_closed_form(cert.posterior, ast.variables)
            assert (cert.kind.value, posterior, repr(cert.mass_invariant), cert.mass_initial,
                    cert.mass_posterior, cert.past) == pinned[1:], key

    def test_successive_calls_restrict_again(self, monkeypatch):
        calls = self._spy(monkeypatch)
        first, second = certify(GEO, G, OCC), certify(GEO, G, OCC)
        assert first == second and first[1].is_full
        assert [c for c in calls if c == (OCC, GEO.guard)] == [(OCC, GEO.guard)] * 2


@pytest.mark.parametrize("source, candidate, inside", [
    ("nat x; nat c;\nwhile (x = 1) { { c := c + 1 } [1/2] { x := 0 } }", "(1+2*X)/(2-C)",
     "2*X/(2 - C)"),
    ("nat x;\nwhile (x = 1 mod 3) { {x := x + 3} [1/2] {x := x + 1} }", "(2*X+X^2)/(2-X^3)",
     "2*X/(2 - X^3)"),
], ids=["eq", "mod"])
def test_a_denominator_blind_to_the_guard_restricts_by_filtering(monkeypatch, source, candidate,
                                                                 inside):
    # 2 - C reads no x, and 2 - X^3 reads x only to powers of x^3: the
    # restriction keeps the numerator's terms in the guard over the same
    # denominator, with no Taylor section and no norm
    calls = []
    for name in ("_taylor", "mod_filter"):
        real = getattr(gfinv.semantics, name)
        monkeypatch.setattr(gfinv.semantics, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    ast = parse(source)
    cand = parse_closed_form(candidate, ast.variables)
    assert format_closed_form(restrict_guard(cand, ast.body.guard), ast.variables) == inside
    verdict, cert = certify(ast.body, G, cand)
    assert verdict == Verdict.EXACT and cert.kind == CertificateKind.EXACT_POSTERIOR
    assert calls == []
