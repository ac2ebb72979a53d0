from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfinv.algebra import (
    AlgebraError,
    ClosedForm,
    CyclotomicElement,
    InvalidDenominator,
    Polynomial,
    UnknownSign,
    const,
    equal,
    find_negative_coefficient,
    GfSyntaxError,
    format_closed_form,
    from_poly,
    mass,
    normalize,
    parse_closed_form,
    poly_div_exact,
    poly_gcd,
    series_expand,
    shape_nonneg,
)
from gfinv.algebra import closedform
from gfinv.algebra.poly import mono_mul

ONE = Polynomial.const(1)
X = Polynomial.var("x")
C = Polynomial.var("c")


def coeffs(f, k, order=("c", "x")):
    return {m: c for m, c in series_expand(f, k, order=list(order)).items()}


def mono(*pairs):
    return tuple(sorted(pairs))


class TestNormalize:
    def test_common_scalar_factor(self):
        f = normalize(2 * X, Polynomial.const(2) - 2 * X)
        assert f.num == X and f.den == ONE - X

    def test_polynomial_gcd_cancels(self):
        f = normalize(X - X * X, ONE - X)
        assert f.num == X and f.den == ONE

    def test_zero_constant_term_rejected(self):
        with pytest.raises(InvalidDenominator):
            normalize(ONE, X)

    def test_idempotent(self):
        f = normalize(2 * X + 4 * X * C, Polynomial.const(6) - 3 * C)
        again = normalize(f.num, f.den)
        assert f.num == again.num and f.den == again.den

    def test_denominator_constant_positive(self):
        f = normalize(ONE, Polynomial.const(-2) + C)
        assert f.den.constant_term() > 0

    def test_parametric_pairs_are_not_gcd_reduced(self, monkeypatch):
        calls = []

        def counting(p, q):
            calls.append((p, q))
            return poly_gcd(p, q)

        monkeypatch.setattr(closedform, "poly_gcd", counting)
        a = Polynomial.var("$a")
        f = normalize((ONE - X) * a * 2, (ONE - X) * (ONE + a * X) * 2)
        assert calls == []
        # the common factor stays; only the content is scaled out
        assert f.num == (ONE - X) * a and f.den == (ONE - X) * (ONE + a * X)
        normalize((ONE - X) * 2, (ONE - X) * (2 - C))
        assert len(calls) == 1

    def test_parametric_invalid_denominators_rejected(self):
        a = Polynomial.var("$a")
        with pytest.raises(InvalidDenominator):
            normalize(a * X, Polynomial.zero())
        with pytest.raises(InvalidDenominator):
            normalize(a, a * X)


class TestEqual:
    def test_cancel_common_factor(self):
        f = normalize(ONE, 2 - C)
        g = normalize(2 + C, (2 - C) * (2 + C))
        assert equal(f, g)

    def test_invariant_vs_its_filtered_part(self):
        f = normalize(ONE + 2 * X, 2 - C)
        g = normalize(ONE, 2 - C)
        assert not equal(f, g)

    def test_zero_forms(self):
        assert equal(normalize(Polynomial.zero(), ONE),
                     normalize(Polynomial.zero(), 5 - C))


class TestSeriesExpand:
    def test_geometric_half(self):
        got = coeffs(normalize(ONE, 2 - C), 2)
        assert got == {(): F(1, 2), mono(("c", 1)): F(1, 4), mono(("c", 2)): F(1, 8)}

    def test_plain_monomial(self):
        assert coeffs(from_poly(X), 3) == {mono(("x", 1)): F(1)}

    def test_occupation_values(self):
        got = coeffs(normalize(ONE + 2 * X, 2 - C), 1)
        assert got == {(): F(1, 2), mono(("c", 1)): F(1, 4), mono(("x", 1)): F(1)}

    def test_matches_normalized_form(self):
        raw_num = 2 * X + 4 * X * C
        raw_den = Polynomial.const(6) - 3 * C
        f = ClosedForm(raw_num, raw_den)
        g = normalize(raw_num, raw_den)
        for k in range(9):
            assert series_expand(f, k) == series_expand(g, k)

    def test_parameters_are_refused(self):
        # a parameter is not an indeterminate: expanding in it would invent
        # coefficients (and negative-coefficient witnesses) at monomials like q*X
        f = normalize(ONE, ONE - Polynomial.var("$q") * X)
        with pytest.raises(AlgebraError, match="parameters, got q"):
            series_expand(f, 2)
        with pytest.raises(AlgebraError):
            find_negative_coefficient(-f, 2)


class TestMass:
    def test_occupation_mass_three(self):
        m = mass(normalize(ONE + 2 * X, 2 - C))
        assert m.finite and m.value == 3

    def test_distribution_mass_one(self):
        m = mass(normalize(ONE, 2 - C))
        assert m.finite and m.value == 1

    def test_divergent(self):
        assert not mass(normalize(ONE, ONE - 2 * X)).finite

    def test_unknown_sign_raises(self):
        f = ClosedForm(ONE - 2 * C, ONE)  # mixed-sign polynomial numerator
        assert not shape_nonneg(f)
        with pytest.raises(UnknownSign):
            mass(f)

    def test_partial_sums_bounded_by_mass(self):
        f = normalize(ONE + 2 * X, 2 - C)
        m = mass(f).value
        prev = F(0)
        for k in range(9):
            total = sum(series_expand(f, k).values(), F(0))
            assert prev <= total <= m
            prev = total


# ring laws on random small polynomials

def polys(max_terms=4, max_exp=3):
    monomial = st.lists(
        st.tuples(st.sampled_from(["x", "c", "y"]), st.integers(1, max_exp)),
        max_size=2).map(lambda ps: tuple(sorted(dict(ps).items())))
    term = st.tuples(monomial, st.fractions(min_value=-4, max_value=4,
                                            max_denominator=4))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: Polynomial({m: c for m, c in ts if c}))


@given(polys(), polys(), polys())
@settings(max_examples=200, deadline=None)
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(polys(), polys())
@settings(max_examples=100, deadline=None)
def test_gcd_divides_both(p, q):
    g = poly_gcd(p, q)
    if g.is_zero():
        assert p.is_zero() and q.is_zero()
        return
    poly_div_exact(p, g)
    poly_div_exact(q, g)


@given(polys(3, 2), polys(3, 2), polys(3, 2), polys(2, 2))
@settings(deadline=None, derandomize=True)
def test_sum_over_one_denominator_matches_cross_multiplication(p, q, d, h):
    # constant term 2; the factor h*x + 1 is shared with f's numerator, so
    # both sides have a common factor to cancel (exponents stay at 2: the
    # cross-multiplied side's GCD is slow on larger inputs)
    den = (d * X + 2) * (h * X + 1)
    f, g = ClosedForm(p * (h * X + 1), den), ClosedForm(q, den)
    got = f + g
    want = normalize(f.num * g.den + g.num * f.den, f.den * g.den)
    assert got.num.terms == want.num.terms and got.den.terms == want.den.terms


def reference_add(p, q):
    """Polynomial sum as a dict: accumulate from 0, drop zeros."""
    out = dict(p.terms)
    for m, c in q.terms.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def reference_mul(p, q):
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = mono_mul(m1, m2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


@given(polys(), polys())
@settings(deadline=None, derandomize=True)
def test_sum_and_product_match_the_reference(p, q):
    for got, want in ((p + q, reference_add(p, q)), (p - q, reference_add(p, -q)),
                      (p * q, reference_mul(p, q))):
        assert list(got.terms.items()) == list(want.items())
        assert all(type(c) is F and c for c in got.terms.values())


class TestRingKernels:
    def test_cancellation_drops_terms(self):
        p = (X + 1) * (X - 1)
        assert p.terms == {mono(("x", 2)): F(1), (): F(-1)}
        q = X * X * 3 + C * F(1, 2) - 7
        assert (q + (-q)).terms == {}
        assert (q - q).is_zero()

    def test_cyclotomic_coefficients(self):
        z = CyclotomicElement.zeta(3)
        one = CyclotomicElement.from_rational(3, 1)
        x = mono(("x", 1))
        p = Polynomial({x: z, (): one})
        assert (p * p).terms == {mono(("x", 2)): z * z, x: z + z, (): one}
        assert (p + Polynomial({x: -z})).terms == {(): one}
        # 1 + z + z^2 = 0 in Q(zeta_3)
        assert (Polynomial({x: one}) + Polynomial({x: z}) + Polynomial({x: z * z})).is_zero()


class TestCyclotomic:
    def test_powers_and_filter_sums(self):
        for d in range(1, 13):
            z = CyclotomicElement.zeta(d)
            assert z ** d == CyclotomicElement.from_rational(d, 1)
            for k in range(2 * d + 1):
                total = CyclotomicElement.from_rational(d, 0)
                for j in range(d):
                    total = total + CyclotomicElement.zeta(d, j * k)
                want = d if k % d == 0 else 0
                assert total == CyclotomicElement.from_rational(d, want), (d, k)

    def test_rational_detection(self):
        z = CyclotomicElement.zeta(5)
        assert z.to_rational() is None
        assert (z ** 5).to_rational() == 1


class TestPrintParse:
    def test_deep_nesting_is_a_syntax_error(self):
        for text in ("(" * 3000 + "X" + ")" * 3000, "-" * 3000 + "X"):
            with pytest.raises(GfSyntaxError, match="nesting too deep"):
                parse_closed_form(text)
        assert parse_closed_form("(" * 50 + "X" + ")" * 50) == from_poly(X)

    def test_spec_forms(self):
        f = normalize(ONE + 2 * X, 2 - C)
        assert format_closed_form(f) == "(1 + 2*X)/(2 - C)"
        assert format_closed_form(normalize(ONE, 2 - C)) == "1/(2 - C)"

    def test_round_trip_is_identity(self):
        cases = [
            normalize(ONE + 2 * X, 2 - C),
            normalize(X, ONE - X),
            from_poly(X * C * 3 + ONE),
            const(F(7, 3)),
            normalize(Polynomial.var("x", 2) * 4 + C * 2, 4 - C * C),
        ]
        for f in cases:
            back = parse_closed_form(format_closed_form(f), ["x", "c"])
            assert back.num == f.num and back.den == f.den

    def test_multichar_variable_names(self):
        f = from_poly(Polynomial.var("foo") + ONE)
        text = format_closed_form(f)
        assert "X_foo" in text
        back = parse_closed_form(text, ["foo"])
        assert back.num == f.num
