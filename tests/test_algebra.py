import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfinv import time_limit
from gfinv.algebra import (
    AlgebraError,
    ClosedForm,
    InvalidDenominator,
    Polynomial,
    UnknownSign,
    ZERO,
    const,
    equal,
    find_negative_coefficient,
    GfSyntaxError,
    format_closed_form,
    from_poly,
    mass,
    normalize,
    parse_closed_form,
    poly_gcd,
    series_expand,
    shape_nonneg,
)
from gfinv.algebra import closedform, poly
from gfinv.algebra.poly import exact_quotient, mono_degree, mono_div, mono_key, mono_mul

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

    def test_a_gcd_given_up_still_gives_an_equal_form(self, monkeypatch):
        num, den = (ONE - X) * (2 + C), (ONE - X) * (2 - C)
        reduced = normalize(num, den)
        monkeypatch.setattr(poly, "_heu_gcd", lambda f, g, vars: None)
        f = normalize(num, den)
        # nothing is cancelled, and the form still denotes the same series
        assert f.num == num and f.den == den
        assert equal(f, reduced) and reduced.den == 2 - C

    def test_parametric_invalid_denominators_rejected(self):
        a = Polynomial.var("$a")
        with pytest.raises(InvalidDenominator):
            normalize(a * X, Polynomial())
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
        assert equal(normalize(Polynomial(), ONE),
                     normalize(Polynomial(), 5 - C))


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

    def test_zero_has_mass_zero(self):
        for zero in (closedform.ZERO, normalize(Polynomial(), 2 - C)):
            m = mass(zero)
            assert m.finite and m.value == 0

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

def polys(max_terms=4, max_exp=3, names=("x", "c", "y")):
    monomial = st.lists(
        st.tuples(st.sampled_from(names), st.integers(1, max_exp)),
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


@given(polys(), polys(), polys(3, 2))
# the kernel's gcd of this pair has a negative leading coefficient
@example(X + 2 * X * X - 2 * C * C, (X + 2 * X * X - 2 * C * C) * (3 + C), ONE)
@settings(max_examples=100, deadline=None)
def test_gcd_divides_both(p, q, shared):
    import sympy

    p, q = p * shared, q * shared
    g, pbar, qbar = poly_gcd(p, q)
    if g.is_zero():
        assert p.is_zero() and q.is_zero()
        return
    assert g * pbar == p and g * qbar == q
    # and it is maximal: sympy's gcd is the same up to a rational unit
    assert sympy.cancel(to_sympy(g) / sympy.gcd(to_sympy(p), to_sympy(q))).is_Rational


def test_gcd_with_a_zero_operand():
    zero = Polynomial()
    p = 4 * C - 6 * X
    g = 3 * X - 2 * C  # primitive, with a positive leading coefficient
    assert poly_gcd(zero, zero) == (zero, zero, zero)
    assert poly_gcd(p, zero) == (g, Polynomial.const(-2), zero)
    assert poly_gcd(zero, p) == (g, zero, Polynomial.const(-2))


def test_the_kernel_cofactors_keep_the_contents():
    # the kernel's recursion passes it images with a content; each cofactor
    # keeps the part of its operand's content that the gcd leaves
    f = {(0,): 6, (1,): 6}              # 6 + 6x
    g = {(0,): 8, (1,): 12, (2,): 4}    # 4(x + 1)(x + 2)
    h, fbar, gbar = (poly._from_ints(d, ["x"], F(1)) for d in poly._heu_gcd(f, g, ["x"]))
    assert h in (2 + 2 * X, -2 - 2 * X)
    assert h * fbar == 6 + 6 * X and h * gbar == 4 * (1 + X) * (2 + X)
    # a coprime pair: the gcd is the contents' gcd 2, and no division runs
    k = {(0,): 8, (1,): 4}              # 4(x + 2)
    h, fbar, gbar = (poly._from_ints(d, ["x"], F(1)) for d in poly._heu_gcd(f, k, ["x"]))
    assert h == 2
    assert h * fbar == 6 + 6 * X and h * gbar == 4 * (2 + X)


@pytest.mark.parametrize("p, q", [
    ("6*X + 4*C", "3 + X*C"),                      # p has the content 2
    ("1/2 + X^3", "2/3*X - 5*C^2"),
    ("(1 + X)^2*(2 - C)", "(1 - X)*(3 + C*Y)"),
    ("X^4 - C", "X^4 - 2*C"),
])
def test_coprime_operands_come_back_as_they_are(p, q, monkeypatch):
    calls = []

    def spy(d, f):
        calls.append(d)
        return quotient(d, f)

    quotient = poly._quotient
    monkeypatch.setattr(poly, "_quotient", spy)
    p, q = (parse_closed_form(t, ["c", "x", "y"]).num for t in (p, q))
    g, pbar, qbar = poly_gcd(p, q)
    assert g == ONE and pbar is p and qbar is q
    assert calls == []


def naive_eval_last(f, xi):
    out = {}
    for e, a in f.items():
        out[e[:-1]] = out.get(e[:-1], 0) + a * xi ** e[-1]
    return {e: a for e, a in out.items() if a}


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * (n - 1), st.integers(0, 2000)),
                    st.integers(-10**6, 10**6).filter(bool), max_size=25),
    st.lists(st.tuples(st.tuples(*[st.integers(4, 6)] * (n - 1)), st.integers(0, 1999),
                       st.integers(-50, 50).filter(bool)), max_size=3))),
    st.integers(2, 10**4))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_eval_last_is_the_sum_of_the_evaluated_terms(drawn, xi):
    f, cancelling = drawn
    f = dict(f)
    for rest, k, a in cancelling:
        # a*xi^(k+1) - (a*xi)*xi^k: the group sums to 0 and must be dropped
        if rest + (k,) not in f and rest + (k + 1,) not in f:
            f[rest + (k + 1,)], f[rest + (k,)] = a, -a * xi
    got = poly._eval_last(f, xi)
    want = naive_eval_last(f, xi)
    assert got == want
    # the groups keep the order of their first terms
    assert list(got) == [rest for rest in dict.fromkeys(e[:-1] for e in f) if rest in want]


@given(st.dictionaries(st.integers(0, 5000), st.integers(-10**6, 10**6).filter(bool),
                       min_size=65, max_size=300),
       st.integers(2, 10**4))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_a_wide_group_is_summed_by_halves(terms, xi):
    # group (0,) is wider than 64 terms; group (1,) is 70 terms that cancel
    f = {(0, j): a for j, a in terms.items()}
    for k in range(0, 140, 4):
        f[(1, k + 1)], f[(1, k)] = 5 + k, -(5 + k) * xi
    assert poly._eval_last(f, xi) == naive_eval_last(f, xi)


def test_eval_last_honours_its_deadline():
    with time_limit(0), pytest.raises(TimeoutError, match="polynomial gcd"):
        poly._eval_last({(0, 5): 1, (1, 0): 2}, 31)


def test_eval_last_polls_inside_one_wide_group():
    # this one group spans the exponents 0 to 400,000, and its evaluation
    # runs for about 0.7 s; a poll per group would let it finish past the
    # deadline
    f = {(8 * k,): 1 + k % 7 for k in range(50001)}
    start = time.monotonic()
    with time_limit(0.05), pytest.raises(TimeoutError, match="polynomial gcd"):
        poly._eval_last(f, 37)
    assert time.monotonic() - start < 0.25


def reference_subs(p, var, value):
    """p with the polynomial value for var, by Horner over var's powers."""
    by_exp = {}
    for m, c in p.terms.items():
        rest = tuple(t for t in m if t[0] != var)
        slot = by_exp.setdefault(dict(m).get(var, 0), {})
        slot[rest] = slot.get(rest, 0) + c
    acc = Polynomial()
    for e in range(max(by_exp, default=0), -1, -1):
        acc = acc * value + Polynomial(by_exp.get(e, {}))
    return acc


@given(polys(), st.sampled_from(["x", "c", "y"]),
       st.one_of(st.just(1), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3)),
       polys(3, 2))
@example(X * X * C + 2 * X - C, "x", 1, ONE)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_substitution_matches_the_horner_reference(p, var, value, h):
    want = reference_subs(p, var, Polynomial.const(value))
    assert p.subs_var(var, value) == want
    assert p.subs_var(var, Polynomial.const(value)) == want
    assert p.subs_var(var, h) == reference_subs(p, var, h)
    assert all(type(c) is F for c in p.subs_var(var, value).terms.values())


def to_sympy(p):
    import sympy

    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(sympy.Symbol(v) ** e for v, e in m))
                       for m, c in p.terms.items()))


@given(polys(3, 3), polys(3, 3), polys(3, 3), polys(2, 3))
@settings(deadline=None, derandomize=True)
def test_sum_over_one_denominator_matches_cross_multiplication(p, q, d, h):
    # constant term 2; the factor h*x + 1 is shared with f's numerator, so
    # both sides have a common factor to cancel
    den = (d * X + 2) * (h * X + 1)
    f, g = ClosedForm(p * (h * X + 1), den), ClosedForm(q, den)
    got = f + g
    want = normalize(f.num * g.den + g.num * f.den, f.den * g.den)
    assert got.num.terms == want.num.terms and got.den.terms == want.den.terms


def same_form(got, want):
    return got.num.terms == want.num.terms and got.den.terms == want.den.terms


# (2+x)/((2-x)(1-x)) - 9(2-x)/((2+x)(1-x)) = -8(4-x)/((2-x)(2+x)): the
# shared factor 1 - x of the denominators divides the cross sum
@given(polys(3, 2), polys(3, 2), polys(3, 2), polys(3, 2), polys(2, 2),
       st.fractions(-3, 3, max_denominator=3), st.integers(0, 3))
@example(ONE, -X, -9 * ONE, X, -ONE, F(1, 2), 2)
@example(Polynomial(), ONE, ONE, ONE, Polynomial(), F(0), 0)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_arithmetic_on_reduced_forms_is_normalize_of_the_cross_product(a, b, c, d, h, q, n):
    # bd and dd have the constant term 2 and shared has 1; each numerator
    # shares a factor with the other denominator, and the two denominators
    # share h*x + 1
    shared, bd, dd = h * X + 1, b + 2 - b.constant_term(), d + 2 - d.constant_term()
    f = normalize(a * dd, bd * shared)
    g = normalize(c * bd, dd * shared)
    for got, want in ((f + g, normalize(f.num * g.den + g.num * f.den, f.den * g.den)),
                      (f - g, normalize(f.num * g.den - g.num * f.den, f.den * g.den)),
                      (f * g, normalize(f.num * g.num, f.den * g.den)),
                      (f * q, normalize(f.num * q, f.den)),
                      (q * f, normalize(f.num * q, f.den)),
                      (f ** n, normalize(f.num ** n, f.den ** n))):
        assert same_form(got, want)
    try:
        want = normalize(f.num * g.den, f.den * g.num)
    except InvalidDenominator as e:
        with pytest.raises(InvalidDenominator, match=str(e)):
            f / g
    else:
        assert same_form(f / g, want)


def test_scaling_and_adding_a_polynomial_take_no_gcd(monkeypatch):
    f = normalize(ONE + X, 2 - X - C)
    p = X * C - 3
    scaled = normalize((ONE + X) * F(1, 3), 2 - X - C)
    summed = normalize(ONE + X + p * (2 - X - C), 2 - X - C)
    calls = []

    def counting(p, q):
        calls.append((p, q))
        return poly_gcd(p, q)

    monkeypatch.setattr(closedform, "poly_gcd", counting)
    assert same_form(f * F(1, 3), scaled) and same_form(F(1, 3) * f, scaled)
    assert same_form(f + from_poly(p), summed) and same_form(from_poly(p) + f, summed)
    assert calls == []


def test_no_gcd_is_given_up_over_the_check_corpus(corpus, monkeypatch):
    # the arithmetic relies on reduced operands: a gcd given up leaves a form
    # that denotes the same series with a different representation
    from gfinv.invariant import certify
    from gfinv.program import classify

    outcomes, depth = [], [0]

    def spy(f, g, vars):
        depth[0] += 1
        try:
            found = heu_gcd(f, g, vars)
        finally:
            depth[0] -= 1
        if not depth[0]:
            outcomes.append(found)
        return found

    heu_gcd = poly._heu_gcd
    monkeypatch.setattr(poly, "_heu_gcd", spy)
    checked = 0
    for ast, init, expected, d in corpus.values():
        text = expected.get("invariant")
        if "invariant_file" in expected:
            text = (d / expected["invariant_file"]).read_text()
        if not text or not classify(ast).is_single_loop:
            continue
        inv = parse_closed_form(text, ast.variables)
        first = from_poly(Polynomial.var(ast.variables[0]))
        for cand in (inv, inv * F(1, 2), inv + const(1), inv * first):
            certify(ast.body, init, cand)
            checked += 1
    assert checked >= 40 and outcomes
    assert None not in outcomes


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


def reference_gcd(p, q):
    """GCDHEU on Fraction coefficients through the Polynomial API, as
    ``poly_gcd`` computed it before its kernel moved to ints.  Kept to check
    that the integer kernel returns the same gcd, term for term."""
    if p.is_zero():
        return q.primitive()[1] if not q.is_zero() else Polynomial()
    if q.is_zero():
        return p.primitive()[1]
    f, g = p.primitive()[1], q.primitive()[1]
    h = reference_heu_gcd(f, g, sorted(f.vars() | g.vars()))
    return ONE if h is None else h.primitive()[1]


def reference_heu_gcd(f, g, vars):
    cf, cg = f.content(), g.content()
    c = F(math.gcd(cf.numerator, cg.numerator))
    if f.is_const() or g.is_const():
        return Polynomial.const(c)
    f, g = f * (1 / cf), g * (1 / cg)
    v = vars[-1]
    xi = 2 * min(max(abs(a.numerator) for a in r.terms.values()) for r in (f, g)) + 29
    for _ in range(6):
        ff, gg = f.subs_var(v, xi), g.subs_var(v, xi)
        h = reference_heu_gcd(ff, gg, vars[:-1]) if ff and gg else None
        if h is not None:
            cand = {}
            for m, a in h.terms.items():
                n, e = a.numerator, 0
                while n:
                    digit = n % xi
                    if digit > xi // 2:
                        digit -= xi
                    if digit:
                        cand[mono_mul(m, ((v, e),)) if e else m] = F(digit)
                    n, e = (n - digit) // xi, e + 1
            cand_pp = Polynomial(cand).primitive()[1]
            if reference_quotient(f, cand_pp) is not None \
                    and reference_quotient(g, cand_pp) is not None:
                return cand_pp * c
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def reference_quotient(p, d):
    """p/d by long division on Fractions, or None when d does not divide p."""
    if d.is_const():
        return p * (1 / d.constant_term())
    # leading terms need a shared variable universe for a true monomial order
    order = sorted(p.vars() | d.vars())
    q = {}
    r = p
    dm, dc = d.leading(order)
    while not r.is_zero():
        rm, rc = r.leading(order)
        m = mono_div(rm, dm)
        if m is None:
            return None
        c = rc / dc
        q[m] = q.get(m, 0) + c
        r = r - Polynomial.monomial(m, c) * d
    return Polynomial(q)


def big_polys(vars, max_terms=4, max_exp=3):
    """Polynomials over ``vars`` whose coefficients have up to 15 digits."""
    monomial = st.lists(st.tuples(st.sampled_from(vars), st.integers(1, max_exp)),
                        max_size=len(vars)).map(lambda ps: tuple(sorted(dict(ps).items())))
    coeff = st.builds(F, st.integers(-10**15, 10**15), st.integers(1, 10**4))
    return st.lists(st.tuples(monomial, coeff), max_size=max_terms).map(
        lambda ts: Polynomial({m: c for m, c in ts if c}))


@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(*(big_polys(["x", "c", "y"][:n]) for _ in range(4)))))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_gcd_equals_the_fraction_reference(polys4):
    p, q, shared, extra = polys4
    # a drawn shared factor, and sometimes a second one, so most gcds are not 1
    p, q = p * shared * (extra or ONE), q * shared * (extra or ONE)
    assert list(poly_gcd(p, q)[0].terms.items()) == list(reference_gcd(p, q).terms.items())


@pytest.mark.parametrize("p, q, want", [
    # a candidate divides p but not q
    ("-6*X^3*Y^2 - 4*X^3*Y^3 - 9*X^5*Y^3 - 6*X^5*Y^4",
     "4*X*Y^2 - 6*X*Y^5 + 6*X^3*Y^3 - 9*X^3*Y^6", "2*X*Y^2 + 3*X^3*Y^3"),
    ("-3*X*Y^3", "3*X^2 + Y^3", "1"),
    # the candidates of the first two evaluation points are rejected
    ("3*X^3*Y^2 + 3*Y^5", "6*X*Y^5 - 6*X^3*Y^5", "Y^2"),
    ("2*X^2 + 2*X^2*Y^2 - 4*X^4 - 4*X^4*Y^2", "X^2 - 3*Y^3 - 2*X^4 + 6*X^2*Y^3", "2*X^2 - 1"),
])
def test_gcd_after_a_rejected_candidate(p, q, want):
    p, q, want = (parse_closed_form(t, ["x", "y"]).num for t in (p, q, want))
    assert poly_gcd(p, q)[0].terms == reference_gcd(p, q).terms == want.terms


@pytest.mark.parametrize("order", [None, ["y", "x", "c"], ["x", "y"]])
@given(polys(4, 2), polys(4, 2))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_negative_scan_is_the_first_negative_of_the_full_expansion(order, num, d):
    # the order ["x", "y"] leaves c out, so mono_key ties and the scan must
    # break them as a stable sort of the full expansion does
    f = normalize(num, d + (2 - d.constant_term()))
    full = sorted(series_expand(f, 6, order).items(), key=lambda t: mono_key(t[0], order))
    want = next(((m, c) for m, c in full if c < 0), None)
    assert find_negative_coefficient(f, 6, order) == want


PARAMETRIC = ("$a", "$b", "c", "x")


@given(polys(4, 2, PARAMETRIC), polys(3, 2, PARAMETRIC).filter(bool), polys(3, 2, PARAMETRIC))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_exact_quotient_is_the_reference_division(p, d, f):
    assert exact_quotient(p * d, d) == p
    want = reference_quotient(f, d)
    assert exact_quotient(f, d) == want
    if not d.is_const():
        assert exact_quotient(p * d + 1, d) is None


A, B = Polynomial.var("$a"), Polynomial.var("$b")


@pytest.mark.parametrize("f, d", [
    (X * X + 1, X - 1),
    (X * C, X * X),                 # outside the degree box at once
    (A * X * X + X + 3, 1 + B * X),
    ((1 + A * X) * (1 + B * X) + C, 1 + B * X),
])
def test_a_non_divisor_gives_none(f, d):
    assert exact_quotient(f, d) is None


def test_a_wide_operand_and_a_non_divisor_part_within_seconds():
    # 1 + C + ... + C^50000 by C - 2: a scan of the whole remainder for its
    # leading term at every step takes about a minute
    f = Polynomial({((("c", k),) if k else ()): F(1) for k in range(50001)})
    with time_limit(10):
        assert exact_quotient(f, C - 2) is None


def test_exact_quotient_honours_its_deadline():
    f = (X + 1) * (C - 2)
    with time_limit(0), pytest.raises(TimeoutError,
                                      match="deadline reached while dividing polynomials"):
        exact_quotient(f, C - 2)


@pytest.mark.parametrize("order", [None, ["y", "x", "c"], ["x", "y"]])
@given(polys(4, 2), polys(4, 2))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_the_expansion_times_the_denominator_is_the_numerator(order, num, d):
    # up to the degree, (series of num/den) * den == num; layer k holds the
    # coefficients of total degree k
    den = d + (2 - d.constant_term())
    layers = list(closedform._series_layers(ClosedForm(num, den), 5, order))
    assert all(mono_degree(m) == k for k, layer in enumerate(layers) for m, _ in layer)
    series = Polynomial({m: c for layer in layers for m, c in layer})
    product = series * den
    assert {m: c for m, c in product.terms.items() if mono_degree(m) <= 5} == \
        {m: c for m, c in num.terms.items() if mono_degree(m) <= 5}


def test_a_low_negative_coefficient_is_found_without_the_full_expansion():
    # a full expansion to degree 5000 would solve for about 2.1e10 coefficients
    y, z = Polynomial.var("y"), Polynomial.var("z")
    f = normalize(ONE - 2 * X + y + z, ONE - X - y - z)
    assert find_negative_coefficient(f, 5000) == ((("x", 1),), F(-1))


def test_the_negative_scan_honours_its_deadline():
    # every coefficient is positive, and the full scan takes seconds
    f = normalize(ONE, ONE - X - C)
    with time_limit(0), pytest.raises(TimeoutError, match="at degree 0"):
        find_negative_coefficient(f, 400)


@given(polys(3, 2))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_power_is_repeated_multiplication(p):
    want = ONE
    for n in range(10):
        assert (p ** n).terms == want.terms
        want = want * p


class TestRingKernels:
    def test_cancellation_drops_terms(self):
        p = (X + 1) * (X - 1)
        assert p.terms == {mono(("x", 2)): F(1), (): F(-1)}
        q = X * X * 3 + C * F(1, 2) - 7
        assert (q + (-q)).terms == {}
        assert (q - q).is_zero()


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

    def test_indeterminate_names(self):
        # X_name names a known variable when some are known; with none known,
        # only a name that prints back as X_name
        assert parse_closed_form("X_x + X", ["x"]) == from_poly(2 * X)
        assert parse_closed_form("X_zz") == from_poly(Polynomial.var("zz"))
        for text, known in [("X_", None), ("X_", ["x"]), ("X_zz", ["x", "c"]), ("X_X", None)]:
            with pytest.raises(GfSyntaxError, match=f"1:1: unknown indeterminate {text!r}"):
                parse_closed_form(text, known)

    def test_two_minus_signs_are_not_a_decrement(self):
        assert parse_closed_form("1--X") == parse_closed_form("1 - -X") == from_poly(X + 1)
        assert parse_closed_form("--X") == from_poly(X)

    def test_multichar_variable_names(self):
        f = from_poly(Polynomial.var("foo") + ONE)
        text = format_closed_form(f)
        assert "X_foo" in text
        back = parse_closed_form(text, ["foo"])
        assert back.num == f.num


def test_a_polynomial_form_has_the_denominator_one():
    x = Polynomial.var("x")
    for f, want in ((ZERO, True), (from_poly(x), True), (normalize(x, Polynomial.const(2)), True),
                    (ClosedForm(x, Polynomial.const(2)), False), (normalize(x, 2 - x), False),
                    (ClosedForm(x, x + 1), False)):
        assert f.is_polynomial() is want, f
        assert want == (f.den == Polynomial.const(1)), f
