import math
import random
import time
import typing
import zlib
from fractions import Fraction as F

import pytest

import gfinv.semantics
from gfinv import Record, program as P
from gfinv.algebra import (
    Polynomial,
    ZERO,
    const,
    equal,
    from_poly,
    instantiate,
    mass,
    normalize,
    parse_closed_form,
    series_expand,
    shape_nonneg,
)
from gfinv.oracle import SparseMeasure, eval_guard, exec_loopfree, measure_from_closed_form
from gfinv.program import parse
from gfinv.semantics import (
    ConstantTermNonzero,
    DivergentMarginalization,
    NestedLoop,
    apply_statement,
    char_functional,
    dist_pgf,
    marginalize,
    mod_filter,
    restrict,
    restrict_guard,
    substitute,
)

ONE = Polynomial.const(1)
X = Polynomial.var("x")
C = Polynomial.var("c")
Y = Polynomial.var("y")

GEO_HALF = normalize(ONE, 2 - C)          # 1/(2-C)
OCC = normalize(ONE + 2 * X, 2 - C)       # (1+2X)/(2-C)

geometric_loop = parse(
    "nat x; nat c;\nwhile (x = 1) { { c := c + 1 } [1/2] { x := 0 } }").body


class TestRestrict:
    def test_constant_section(self):
        assert equal(restrict(GEO_HALF, "c", 1), const(F(1, 2)))

    def test_two_taylor_coefficients(self):
        want = const(F(1, 2)) + from_poly(C) * F(1, 4)
        assert equal(restrict(GEO_HALF, "c", 2), want)

    def test_polynomial_below_bound(self):
        assert equal(restrict(from_poly(X), "x", 5), from_poly(X))

    def test_zero_bound(self):
        assert restrict(GEO_HALF, "c", 0).is_zero()


class TestRestrictGuard:
    def test_mod_two_filter(self):
        f = normalize(ONE, ONE - C)
        got = restrict_guard(f, P.ModEq("c", 0, 2))
        assert equal(got, normalize(ONE, ONE - C * C))
        for m, v in series_expand(got, 6).items():
            k = dict(m).get("c", 0)
            assert (v == 1) == (k % 2 == 0)

    def test_mod_three_filter(self):
        f = normalize(ONE, ONE - C)
        got = restrict_guard(f, P.ModEq("c", 1, 3))
        assert equal(got, normalize(C, ONE - Polynomial.var("c", 3)))
        for m, v in series_expand(got, 9).items():
            assert dict(m).get("c", 0) % 3 == 1

    def test_geq_on_polynomial(self):
        assert equal(restrict_guard(from_poly(X), P.Not(P.Lt("x", 1))), from_poly(X))

    def test_partition_on_corpus_guards(self, corpus):
        forms = [OCC, GEO_HALF, from_poly(X * C + ONE),
                 normalize(ONE, 4 - X - C)]
        for name, (ast, _, _, _) in corpus.items():
            for guard in _corpus_guards(ast):
                for f in forms:
                    taken = restrict_guard(f, guard)
                    other = restrict_guard(f, P.Not(guard))
                    assert equal(taken + other, f), (name, guard)

    def test_mod_filter_rationality_with_parameters(self):
        a = Polynomial.var("$a")
        f = normalize(a * X, 2 - X)
        got = mod_filter(f, "x", 1, 2)
        # coefficients stay rational polynomials in the parameter
        for m, v in got.num.terms.items():
            assert isinstance(v, F)
        for m, v in series_expand(
                normalize(got.num.subs_var("$a", F(1)), got.den), 7).items():
            assert dict(m).get("x", 0) % 2 == 1

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 12])
    def test_mod_filter_keeps_the_residue_class_of_the_series(self, d):
        rng = random.Random(d)
        degree = d + 3
        for _ in range(2):
            f = _random_bivariate_form(rng)
            series = series_expand(f, degree, order=["x", "y"])
            for var in ("x", "y"):
                for r in rng.sample(range(d), min(d, 3)):
                    got = series_expand(mod_filter(f, var, r, d), degree, order=["x", "y"])
                    assert got == {m: c for m, c in series.items()
                                   if dict(m).get(var, 0) % d == r}, (d, var, r)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_mod_filter_commutes_with_instantiation(self, d):
        # synthesis filters templates with parameters and instantiates the
        # solution afterwards; certification filters the instantiated form
        rng = random.Random(100 + d)
        for _ in range(4):
            t, params = _random_template(rng)
            r = rng.randrange(d)
            val = {p: F(rng.randrange(-3, 4), rng.randrange(1, 4)) for p in params}
            val["$b0"] = F(rng.randrange(1, 4))
            assert instantiate(mod_filter(t, "x", r, d), val) \
                == mod_filter(instantiate(t, val), "x", r, d), (d, r, val)

    @pytest.mark.parametrize("k", range(4))
    def test_the_eq_section_is_the_difference_of_two_restrictions(self, k):
        # [v = k] * f is read as one Taylor section, [v < k+1] f - [v < k] f
        # as two restrictions and a subtraction; both are reduced forms
        rng = random.Random(200 + k)
        for _ in range(4):
            f = _random_bivariate_form(rng)
            for v in ("x", "y"):
                old = restrict(f, v, k + 1) - restrict(f, v, k)
                for guard, want in ((P.Eq(v, k), old), (P.Not(P.Eq(v, k)), f - old)):
                    got = restrict_guard(f, guard)
                    assert (got.num.terms, got.den.terms) == \
                        (want.num.terms, want.den.terms), (guard, f)

    @pytest.mark.parametrize("k", range(4))
    def test_the_eq_section_commutes_with_instantiation(self, k):
        rng = random.Random(300 + k)
        for _ in range(4):
            t, params = _random_template(rng)
            val = {p: F(rng.randrange(-3, 4), rng.randrange(1, 4)) for p in params}
            val["$b0"] = F(rng.randrange(1, 4))
            for guard in (P.Eq("x", k), P.Not(P.Eq("x", k))):
                assert instantiate(restrict_guard(t, guard), val) \
                    == restrict_guard(instantiate(t, val), guard), (guard, val)

    def test_eq_and_neq_match_their_rectangular_rewrites(self):
        # the oracle and the closed-form semantics both read Eq directly; Eq
        # and its negation must agree with their rewrites over Lt, and the two
        # interpreters with each other
        rng = random.Random(7)
        vars = ["x", "y"]
        for _ in range(20):
            m = _random_sparse_measure(rng, vars)
            f = from_poly(sum((Polynomial.monomial(_mono(vars, s), c)
                               for s, c in m.entries.items()), Polynomial()))
            for guard, rewrite in GUARD_REWRITES:
                for s in m.entries:
                    assert eval_guard(guard, s, vars) == eval_guard(rewrite, s, vars)
                taken = restrict_guard(f, guard)
                assert equal(taken, restrict_guard(f, rewrite)), guard
                want = {_mono(vars, s): c for s, c in m.entries.items()
                        if eval_guard(guard, s, vars)}
                assert series_expand(taken, 10, order=vars) == want, guard


class TestNumeratorFilter:
    """A denominator blind to the guard (no variable of a < or = test occurs
    in it, and the variable of a mod m test only to powers divisible by m)
    restricts by filtering the numerator; every other one takes the Taylor
    sections and the norm filter."""

    VARS = ["x", "y"]
    # the series of f moves x, so the numerator's terms alone do not decide
    NOT_BLIND = [
        (normalize(ONE + Y, ONE - X), P.Lt("x", 2)),
        (normalize(X + Y, ONE - X * X), P.ModEq("x", 1, 3)),
        (normalize(X + Y, ONE - X * X), P.And(P.ModEq("x", 1, 3), P.Lt("y", 1))),
        (normalize(ONE + X * Y, ONE - Y - X * X), P.Not(P.ModEq("x", 0, 3))),
    ]

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        for name in ("_taylor", "mod_filter"):
            real = getattr(gfinv.semantics, name)
            monkeypatch.setattr(gfinv.semantics, name,
                                lambda *a, real=real, name=name: calls.append(name) or real(*a))
        return calls

    def _check(self, f, guard, calls):
        """Check [guard]*f against the general path, the filtered series and
        the partition of f; return the general-path calls it made."""
        calls.clear()
        got = restrict_guard(f, guard)
        made = list(calls)
        want = _general_restriction(f, guard)
        assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms), (f, guard)
        series = series_expand(f, 8, order=self.VARS)
        assert series_expand(got, 8, order=self.VARS) == {
            m: c for m, c in series.items()
            if eval_guard(guard, _state(self.VARS, m), self.VARS)}, (f, guard)
        assert got + restrict_guard(f, P.Not(guard)) == f, (f, guard)
        return made

    @pytest.mark.parametrize("seed", range(4))
    def test_the_filter_agrees_with_the_general_path_and_the_series(self, seed, monkeypatch):
        rng = random.Random(500 + seed)
        calls = self._spy(monkeypatch)
        blind = 0
        for i in range(60):
            guard = _random_guard(rng, 2)
            f = _random_form_in_xy(rng, guard if i % 3 else None)
            made = self._check(f, guard, calls)
            if _blind_to(f.den, guard):
                blind += 1
                assert made == [], (f, guard)
        assert blind >= 30

    @pytest.mark.parametrize("case", range(len(NOT_BLIND)))
    def test_a_denominator_that_sees_the_guard_takes_the_general_path(self, case,
                                                                      monkeypatch):
        f, guard = self.NOT_BLIND[case]
        assert not _blind_to(f.den, guard)
        assert self._check(f, guard, self._spy(monkeypatch))


def _atoms(g):
    if isinstance(g, (P.And, P.Or)):
        return _atoms(g.left) + _atoms(g.right)
    if isinstance(g, P.Not):
        return _atoms(g.inner)
    return [g]


def _blind_to(den, guard):
    """Whether every monomial of den leaves the guard's value unchanged."""
    return all(all(dict(m).get(a.var, 0) % a.modulus == 0 if isinstance(a, P.ModEq)
                   else a.var not in dict(m) for m in den.terms)
               for a in _atoms(guard))


def _general_restriction(f, g):
    """[g]*f by Taylor sections and the norm filter alone, combined as
    ``restrict_guard`` combines them."""
    if isinstance(g, P.Lt):
        return restrict(f, g.var, g.bound)
    if isinstance(g, P.Eq):
        return restrict(f, g.var, g.value + 1) - restrict(f, g.var, g.value)
    if isinstance(g, P.ModEq):
        return mod_filter(f, g.var, g.residue, g.modulus)
    if isinstance(g, P.And):
        return _general_restriction(_general_restriction(f, g.left), g.right)
    if isinstance(g, P.Or):
        left = _general_restriction(f, g.left)
        return left + _general_restriction(f - left, g.right)
    return f - _general_restriction(f, g.inner)


def _random_guard(rng, depth):
    """A guard on x and y of <, =, mod, !, && and || tests."""
    if depth == 0 or rng.random() < 0.35:
        v = rng.choice("xy")
        kind = rng.randrange(3)
        if kind == 0:
            return P.Lt(v, rng.randrange(4))
        if kind == 1:
            return P.Eq(v, rng.randrange(3))
        d = rng.choice((2, 3))
        return P.ModEq(v, rng.randrange(d), d)
    op = rng.randrange(3)
    if op == 0:
        return P.Not(_random_guard(rng, depth - 1))
    return (P.And if op == 1 else P.Or)(_random_guard(rng, depth - 1),
                                        _random_guard(rng, depth - 1))


def _random_form_in_xy(rng, guard=None):
    """num/den in x and y without parameters; with a guard, den is built
    blind to it (before ``normalize``, which may cancel a factor)."""
    atoms = _atoms(guard) if guard is not None else []
    moduli = {v: math.lcm(*(a.modulus for a in atoms if isinstance(a, P.ModEq) and a.var == v))
              for v in "xy"}
    steps = {v: [0] if any(a.var == v and not isinstance(a, P.ModEq) for a in atoms)
             else [0, moduli[v]] if moduli[v] > 1 else [0, 1, 2] for v in "xy"}
    monos = [Polynomial.monomial(tuple((v, e) for v, e in (("x", i), ("y", j)) if e))
             for i in steps["x"] for j in steps["y"] if i or j]
    den = ONE
    for m in rng.sample(monos, min(len(monos), rng.randrange(1, 3))):
        den = den - m * F(rng.choice([-2, -1, 1, 2]), 4)
    num = Polynomial()
    for _ in range(rng.randrange(2, 5)):
        m = tuple((v, e) for v, e in (("x", rng.randrange(4)), ("y", rng.randrange(4))) if e)
        num = num + Polynomial.monomial(m, F(rng.choice([-3, -2, -1, 1, 2, 3]),
                                             rng.randrange(1, 4)))
    return normalize(num if num else ONE, den)


def _state(vars, mono):
    return tuple(dict(mono).get(v, 0) for v in vars)


XY_MONOS = [Polynomial.monomial(m) for m in
            ((), (("x", 1),), (("y", 1),), (("x", 1), ("y", 1)), (("x", 2),), (("y", 2),))]


def _random_bivariate_form(rng):
    """num/den without parameters; den has a constant term, x and y."""
    num = sum((m * F(rng.randrange(-4, 5), rng.randrange(1, 4))
               for m in rng.sample(XY_MONOS, 3)), Polynomial())
    den = ONE + X * F(rng.randrange(1, 4), rng.randrange(2, 5)) \
        - Y * F(rng.randrange(1, 4), rng.randrange(2, 5))
    for m in rng.sample(XY_MONOS[3:], rng.randrange(2)):
        den = den + m * F(rng.randrange(-2, 3), 4)
    return normalize(num if num else ONE, den)


def _random_template(rng):
    """A degree-2 template in x and y over a few monomials, and its parameters."""
    num_monos = rng.sample(XY_MONOS, 3)
    den_monos = rng.sample(XY_MONOS[1:], 2)
    params = [f"$a{i}" for i in range(len(num_monos))] + \
        [f"$b{i + 1}" for i in range(len(den_monos))]
    num = sum((m * Polynomial.var(p) for m, p in zip(num_monos, params)), Polynomial())
    den = Polynomial.var("$b0") + sum(
        (m * Polynomial.var(p) for m, p in zip(den_monos, params[len(num_monos):])),
        Polynomial())
    return normalize(num, den), params


# Eq guards, their negations and their rectangular rewrites, as data
GUARD_REWRITES = [
    rewrite
    for v in ("x", "y") for k in range(4)
    for rewrite in ((P.Eq(v, k), P.And(P.Not(P.Lt(v, k)), P.Lt(v, k + 1))),
                    (P.Not(P.Eq(v, k)), P.Or(P.Lt(v, k), P.Not(P.Lt(v, k + 1)))))
]


def _random_sparse_measure(rng, vars, support=6):
    entries = {}
    for _ in range(support):
        state = tuple(rng.randrange(5) for _ in vars)
        entries[state] = entries.get(state, F(0)) + F(1, rng.randrange(1, 5))
    return SparseMeasure(entries)


def _mono(vars, state):
    return tuple((v, e) for v, e in zip(vars, state) if e)


def _corpus_guards(ast):
    out = []

    def from_guard(g):
        out.append(g)

    def walk(s):
        if isinstance(s, P.While):
            from_guard(s.guard)
            walk(s.body)
        elif isinstance(s, P.IfThenElse):
            from_guard(s.guard)
            walk(s.then)
            walk(s.els)
        elif isinstance(s, P.Seq):
            for t in s.stmts:
                walk(t)
        elif isinstance(s, P.Choice):
            walk(s.left)
            walk(s.right)

    walk(ast.body)
    return out


class TestApplyStatement:
    def test_fig_body_on_point_mass(self):
        body = geometric_loop.body
        got = apply_statement(body, from_poly(X))
        assert equal(got, const(F(1, 2)) + from_poly(X * C) * F(1, 2))

    def test_decrement_splits_and_shifts(self):
        f = normalize(ONE, 2 - X)
        got = apply_statement(P.Decrement("x"), f)
        want = normalize(ONE, (2 - X) * 2) + const(F(1, 2))
        assert equal(got, want)

    def test_iid_increment_bernoulli(self):
        got = apply_statement(P.IidIncrement("x", P.bernoulli(F(1, 2)), "y"),
                              from_poly(Y))
        assert equal(got, normalize(Y * (ONE + X), Polynomial.const(2)))

    def test_nested_loop_rejected(self):
        with pytest.raises(NestedLoop):
            apply_statement(P.While(P.Lt("x", 1), P.Skip()), from_poly(X))

    def test_assigning_zero_sums_a_convergent_series(self):
        f = normalize(ONE, 2 - X)
        assert apply_statement(P.AssignConst("x", 0), f) == const(1)
        # the oracle keeps the series to degree 8 and the cut-off tail as residual
        pushed = exec_loopfree(P.AssignConst("x", 0), measure_from_closed_form(f, 8, ["x"]),
                               ["x"])
        assert list(pushed.entries) == [(0,)]
        assert pushed.entries[(0,)] + pushed.residual == 1 and pushed.residual > 0

    @pytest.mark.parametrize("f, message", [
        (normalize(ONE, ONE - X), "series diverges"),
        # the sum over x converges, but the denominator is not of geometric shape
        (normalize(C, (2 - X) * (3 - C)), "cannot certify convergence"),
    ], ids=["diverges", "not-geometric"])
    def test_assigning_zero_refuses_a_sum_it_cannot_certify(self, f, message):
        with pytest.raises(DivergentMarginalization, match=message):
            apply_statement(P.AssignConst("x", 0), f)

    def test_a_wide_uniform_pgf_is_built_in_linear_time(self):
        # one monomial added at a time copied the growing sum: 2 s at 20,001 terms
        start = time.monotonic()
        f = dist_pgf(P.uniform(0, 100000), "x")
        assert time.monotonic() - start < 5
        assert len(f.num.terms) == 100001 and f.den == ONE


class TestSubstitute:
    def test_marginalization_value(self):
        assert equal(substitute(OCC, "x", const(1)), normalize(3 * ONE, 2 - C))

    def test_zero_constant_term_substitution(self):
        h = normalize(Y * (ONE + X), Polynomial.const(2))
        got = substitute(from_poly(Y), "y", h)
        assert equal(got, h)

    def test_divergent_marginalization(self):
        with pytest.raises(DivergentMarginalization):
            substitute(normalize(ONE, ONE - 2 * X), "x", const(1))

    def test_nonzero_constant_term_rejected(self):
        with pytest.raises(ConstantTermNonzero):
            substitute(from_poly(X), "x", const(1) + from_poly(Y))


class TestCharFunctional:
    def test_fixed_point_of_occupation_form(self):
        phi = char_functional(geometric_loop, from_poly(X), OCC)
        assert equal(phi, OCC)

    def test_symbolic_template_matches_worked_equation(self):
        a0, a1, a2, a3, b0, b1, b2 = [Polynomial.var("$" + n) for n in
                                      ["a0", "a1", "a2", "a3", "b0", "b1", "b2"]]
        tpl = normalize(a0 + a1 * X + a2 * C + a3 * X * X, b0 + b1 * X + b2 * C)
        phi = char_functional(geometric_loop, from_poly(X), tpl)
        p0 = a1 * b0 - a0 * b1
        p1 = a1 * b2 - a2 * b1
        want = from_poly(X) + normalize((ONE + X * C) * (p0 + p1 * C),
                                        (b0 + b2 * C) ** 2 * 2)
        assert equal(phi, want)

    def test_zero(self):
        assert char_functional(geometric_loop, ZERO, ZERO).is_zero()


def _random_nonneg_form(rng, vars, polynomial_only):
    num = Polynomial()
    for _ in range(rng.randrange(1, 4)):
        m = tuple(sorted({v: rng.randrange(0, 3) for v in
                          rng.sample(vars, rng.randrange(1, len(vars) + 1))
                          }.items()))
        m = tuple((v, e) for v, e in m if e)
        num = num + Polynomial.monomial(m, F(rng.randrange(1, 5), rng.randrange(1, 4)))
    if num.is_zero():
        num = ONE
    if polynomial_only or rng.random() < 0.4:
        return from_poly(num)
    den = Polynomial.const(0)
    weights = []
    for v in vars:
        w = F(rng.randrange(0, 3), 4)
        weights.append(w)
        den = den - Polynomial.var(v) * w
    den = den + Polynomial.const(sum(weights, F(0)) + rng.randrange(1, 3))
    return normalize(num, den)


def max_increment(s) -> int:
    """Crude bound on how much one execution can raise any single variable;
    picks the truncation margin of the oracle comparison."""
    if isinstance(s, P.AssignConst):
        return s.value
    if isinstance(s, P.IidIncrement):
        return _dist_span(s.pgf)
    if isinstance(s, P.Choice):
        return max(max_increment(s.left), max_increment(s.right))
    if isinstance(s, P.Seq):
        return sum(max_increment(t) for t in s.stmts)
    if isinstance(s, P.IfThenElse):
        return max(max_increment(s.then), max_increment(s.els))
    if isinstance(s, P.While):
        return max_increment(s.body)
    return 0


def _dist_span(pgf) -> int:
    # a polynomial's support ends at its degree; truncation handles a tail
    degree = pgf.num.total_degree()
    return degree if pgf.is_polynomial() else max(2, degree)


STATEMENTS = [
    ("skip", P.Skip(), False),
    ("assign_const", P.AssignConst("x", 2), True),
    ("decrement", P.Decrement("x"), False),
    ("iid_dirac", P.IidIncrement("x", P.dirac(2), "y"), False),
    ("iid_bernoulli", P.IidIncrement("x", P.bernoulli(F(1, 3)), "y"), False),
    ("iid_geometric", P.IidIncrement("x", P.geometric(F(1, 2)), "y"), False),
    ("iid_once", P.IidIncrement("x", P.dirac(1), None), False),
    ("sample", P.Seq((P.AssignConst("x", 0), P.IidIncrement("x", P.uniform(0, 2), None))),
     True),
    ("choice", P.Choice(F(1, 3), P.Decrement("x"), P.IidIncrement("x", P.dirac(1), None)), False),
    ("seq", P.Seq((P.Decrement("x"), P.IidIncrement("y", P.dirac(1), None))), False),
    ("ite", P.IfThenElse(P.Lt("x", 2), P.IidIncrement("y", P.dirac(1), None),
                         P.Decrement("x")), False),
]

MOD_STATEMENTS = [
    ("ite_mod2", P.IfThenElse(P.ModEq("x", 1, 2), P.IidIncrement("y", P.dirac(1), None),
                              P.Decrement("x")), False),
    ("ite_mod3", P.IfThenElse(P.ModEq("y", 2, 3), P.Decrement("y"),
                              P.IidIncrement("x", P.dirac(1), None)), False),
    ("ite_mod5", P.IfThenElse(P.ModEq("x", 0, 5), P.Skip(),
                              P.IidIncrement("y", P.dirac(2), None)), False),
]


# the core node kinds and draw shapes that no list above holds: drawn only by
# test_statement_matches_oracle, so that the draws of the other tests stay
CORE_STATEMENTS = [
    ("diverge", P.Diverge(), False),
    ("ite_eq", P.IfThenElse(P.Eq("x", 1), P.Decrement("x"),
                            P.IidIncrement("y", P.dirac(1), None)), False),
    ("ite_and", P.IfThenElse(P.And(P.Lt("x", 3), P.Eq("y", 0)),
                             P.IidIncrement("y", P.dirac(2), None), P.Skip()), False),
    ("ite_or", P.IfThenElse(P.Or(P.Eq("x", 0), P.Lt("y", 2)), P.Decrement("y"),
                            P.IidIncrement("x", P.dirac(1), None)), False),
    ("ite_not", P.IfThenElse(P.Not(P.Lt("x", 2)), P.Diverge(), P.Decrement("x")), False),
    ("iid_pgf", P.IidIncrement("x", parse_closed_form("1/3 + 2/3*T^2", ["t"]), "y"),
     False),
    ("iid_geometric_once", P.IidIncrement("y", P.geometric(F(1, 3)), None), False),
]


def _nodes(node):
    """A statement's nodes, its guards' nodes included."""
    yield node
    for name in node._fields:
        value = getattr(node, name)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, Record):
                yield from _nodes(child)


def _draw_shape(pgf) -> str:
    """The pgf shapes that the oracle draws apart: it shifts by a monomial,
    keeps a polynomial's whole pmf and truncates a rational form's tail."""
    if not pgf.is_polynomial():
        return "rational"
    return "monomial" if len(pgf.num.terms) == 1 else "polynomial"


def test_every_core_node_kind_has_an_oracle_case():
    # a node kind or draw shape without a case here is one the two interpreters
    # are never compared on; each shape is drawn once and a variable number of times
    nodes = [n for _, stmt, _ in STATEMENTS + MOD_STATEMENTS + CORE_STATEMENTS
             for n in _nodes(stmt)]
    kinds = (set(typing.get_args(P.Statement)) - {P.While}) | set(typing.get_args(P.Guard))
    covered = {type(n) for n in nodes}
    assert kinds <= covered, kinds - covered
    draws = {(_draw_shape(n.pgf), n.count is None) for n in nodes
             if isinstance(n, P.IidIncrement)}
    shapes = {(shape, once) for shape in ("monomial", "polynomial", "rational")
              for once in (True, False)}
    assert shapes <= draws, shapes - draws


class TestOracleEquivalence:
    """Coefficient soundness: the symbolic transformer and the exact oracle
    agree on every coefficient that truncation cannot disturb (K = 8)."""

    K = 8

    def assert_matches_oracle(self, stmt, f, symbolic, label):
        vars = ["x", "y"]
        truncated = measure_from_closed_form(f, self.K, vars)
        pushed = exec_loopfree(stmt, truncated, vars, support_cap=self.K + 4)
        margin = max_increment(stmt) + 1
        got = series_expand(symbolic, self.K, order=vars)
        for state, value in pushed.entries.items():
            if sum(state) <= self.K - margin:
                m = tuple(sorted((v, e) for v, e in zip(vars, state) if e))
                assert got.get(m, F(0)) == value, (label, state)
        for m, value in got.items():
            deg = sum(e for _, e in m)
            if deg <= self.K - margin:
                state = tuple(dict(m).get(v, 0) for v in vars)
                assert pushed.entries.get(state, F(0)) == value, (label, m)

    @pytest.mark.parametrize("name,stmt,poly_only",
                             STATEMENTS + MOD_STATEMENTS + CORE_STATEMENTS)
    def test_statement_matches_oracle(self, name, stmt, poly_only):
        rng = random.Random(zlib.crc32(name.encode()))
        for trial in range(6):
            f = _random_nonneg_form(rng, ["x", "y"], poly_only)
            try:
                symbolic = apply_statement(stmt, f)
            except DivergentMarginalization:
                continue
            self.assert_matches_oracle(stmt, f, symbolic, (name, trial))

    def test_mod5_filter_of_a_bivariate_form_normalizes_quickly(self):
        # ite_mod5: the else branch normalizes an 18-term numerator over the
        # 7-term norm denominator, one gcd of two dense bivariate polynomials
        stmt = MOD_STATEMENTS[2][1]
        f = normalize(12 + 16 * Y + 4 * X * X, 7 - X - 2 * Y)
        start = time.perf_counter()
        symbolic = apply_statement(stmt, f)
        assert time.perf_counter() - start < 1
        self.assert_matches_oracle(stmt, f, symbolic, "mod5")

    def test_a_linear_assignment_matches_oracle(self):
        stmt = parse("nat x; nat y;\nx := y + 1").body
        # x does not occur on the right: the rewrite starts from x := 0
        assert P.AssignConst("x", 0) in list(P._stmts(stmt))
        rng = random.Random(zlib.crc32(b"linear_assign"))
        for trial in range(6):
            f = _random_nonneg_form(rng, ["x", "y"], True)
            self.assert_matches_oracle(stmt, f, apply_statement(stmt, f), trial)

    def test_linearity(self):
        rng = random.Random(99)
        statements = STATEMENTS + MOD_STATEMENTS
        for _ in range(40):
            name, stmt, poly_only = statements[rng.randrange(len(statements))]
            f = _random_nonneg_form(rng, ["x", "y"], poly_only)
            g = _random_nonneg_form(rng, ["x", "y"], poly_only)
            a, b = F(rng.randrange(0, 4), 3), F(rng.randrange(0, 4), 3)
            try:
                lhs = apply_statement(stmt, f * a + g * b)
                rhs = apply_statement(stmt, f) * a + apply_statement(stmt, g) * b
            except DivergentMarginalization:
                continue
            assert equal(lhs, rhs), name

    def test_mass_feasibility(self):
        rng = random.Random(4)
        statements = STATEMENTS + MOD_STATEMENTS
        for _ in range(30):
            name, stmt, poly_only = statements[rng.randrange(len(statements))]
            f = _random_nonneg_form(rng, ["x", "y"], poly_only)
            try:
                out = apply_statement(stmt, f)
            except DivergentMarginalization:
                continue
            m_in = mass(f)
            if not m_in.finite or not shape_nonneg(out):
                continue
            m_out = mass(out)
            assert m_out.finite and m_out.value <= m_in.value, name
