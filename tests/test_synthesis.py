import hashlib
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfinv import oracle, synthesis, time_limit
from gfinv import program as P
from gfinv.algebra import (
    ClosedForm,
    Polynomial,
    equal,
    format_closed_form,
    from_poly,
    instantiate,
    mono_key,
    normalize,
    parse_closed_form,
    series_expand,
    shape_nonneg,
)
from gfinv.algebra import closedform
from gfinv.algebra.poly import exact_quotient
from gfinv.invariant import CertificateKind
from gfinv.oracle import kleene_iterate, measure_from_closed_form
from gfinv.program import While, parse, top_level_segments
from gfinv.semantics import char_functional
from support import crosscheck
from gfinv.synthesis import (
    Failure,
    PolySystem,
    SynthesisConfig,
    Template,
    analyze_program,
    build_system,
    enumerate_templates,
    parse_template,
    solve_system,
    synthesize,
    _factor_poly,
    _guard_state_count,
    _pivot,
    _rational_roots,
    _row_reduce,
)

ONE = Polynomial.const(1)
X = Polynomial.var("x")
C = Polynomial.var("c")

GEO = parse("nat x; nat c;\nwhile (x = 1) { { c := c + 1 } [1/2] { x := 0 } }")
G_X = from_poly(X)
OCC = normalize(ONE + 2 * X, 2 - C)


class TestEnumerate:
    def test_single_var_stream_shape(self):
        tpls = list(enumerate_templates(["x"], 1))
        assert len(tpls) == 2
        # first: a0 / 1
        assert tpls[0].form.den == ONE and tpls[0].parameters == ("a0",)
        # second: (a0 + a1*X)/(1 + b1*X)
        second = tpls[1]
        assert set(second.parameters) == {"a0", "a1", "b1"}
        assert second.form.den.constant_term() == 1
        assert second.form.den.degree_in("x") == 1
        assert second.form.num.degree_in("x") == 1

    def test_two_var_degree_one_support(self):
        tpl = list(enumerate_templates(["c", "x"], 1))[1]
        num_monos = set(tpl.form.num.terms)
        assert (("c", 1),) in {tuple(p for p in m if not p[0].startswith("$"))
                               for m in num_monos}
        assert len(tpl.parameters) == 5  # 3 numerator + 2 denominator

    def test_degree_zero_polynomial_over_constant(self):
        tpls = list(enumerate_templates(["x", "c"], 0))
        assert len(tpls) == 1 and tpls[0].form.den == ONE

    def test_deterministic(self):
        a = [t.form.num.terms.keys() for t in enumerate_templates(["x", "c"], 2)]
        b = [t.form.num.terms.keys() for t in enumerate_templates(["x", "c"], 2)]
        assert [set(k) for k in a] == [set(k) for k in b]


def first_loop(ast):
    return next(s for s in top_level_segments(ast) if isinstance(s, While))


def bounded_walk(n):
    """Gambler's ruin on 0..n from X: the loop of the walk_n family."""
    return parse(f"nat x; while (x > 0 && x < {n}) {{ {{x := x - 1}} [1/2] {{x := x + 1}} }}").body


def template_vars(loop, init):
    """The variables that ``synthesize`` builds its templates over."""
    return sorted(synthesis._loop_vars(loop) | {v for v in init.vars() if not v.startswith("$")})


def cross_multiplied_system(tpl, loop, init, like):
    """The system read off (Phi(I) - I).num, with ``like``'s parameters and block."""
    eqs = {}
    for m, c in (char_functional(loop, init, tpl.form) - tpl.form).num.terms.items():
        i = sum(1 for v, _ in m if v.startswith("$"))
        eqs.setdefault(m[i:], {})[m[:i]] = c
    return PolySystem(tuple(Polynomial(eqs[k]) for k in sorted(eqs, key=mono_key)),
                      like.parameters, like.numerator)


def evaluate(p, assignment):
    total = F(0)
    for m, coeff in p.terms.items():
        for v, exp in m:
            coeff *= assignment[v[1:]] ** exp
        total += coeff
    return total


class TestBuildAndSolve:
    def test_geometric_system_recovers_scaled_tau(self):
        # the d=1 template recovers the known invariant up to the pinned scale
        tpl = list(enumerate_templates(["c", "x"], 1))[1]
        system = build_system(tpl, GEO.body, G_X)
        vals = solve_system(system)
        assert vals, "geometric system must be solvable"
        forms = [instantiate(tpl.form, v.assignment) for v in vals]
        assert any(equal(f, OCC) for f in forms)

    def test_unpinned_system_contains_published_solution(self):
        tpl = unpinned_geometric_template()
        system = build_system(tpl, GEO.body, G_X)
        tau = {"a0": F(1), "a1": F(2), "a2": F(0), "a3": F(0),
               "b0": F(2), "b1": F(0), "b2": F(-1)}
        for e in system.equations:
            total = F(0)
            for m, coeff in e.terms.items():
                term = coeff
                for v, exp in m:
                    term *= tau[v[1:]] ** exp
                total += term
            assert total == 0

    def test_trivial_fixed_point_system(self):
        loop = parse("nat x;\nwhile (x < 0) { skip }").body
        tpl = Template(from_poly(Polynomial.var("$t") * X), ("t",), "user")
        system = build_system(tpl, loop, G_X)
        vals = solve_system(system)
        assert any(v.assignment["t"] == 1 for v in vals)

    def test_underdegree_template_unsat(self):
        walk = parse("nat x;\nwhile (x > 0) { { x := x - 1 } [1/2] { x := x + 1 } }")
        tpl = list(enumerate_templates(["x"], 0))[0]  # a0 only
        system = build_system(tpl, walk.body, G_X)
        assert solve_system(system) == []

    def test_linear_example(self):
        system = PolySystem((Polynomial.var("$a") - 2 * Polynomial.var("$b"),
                             Polynomial.var("$b") - 3), ("a", "b"))
        vals = solve_system(system)
        assert [dict(v.assignment) for v in vals] == [{"a": F(6), "b": F(3)}]

    def test_no_rational_solution(self):
        system = PolySystem((Polynomial.var("$a") ** 2 + 1,), ("a",))
        assert solve_system(system) == []

    def test_value_branching_reaches_a_product_of_four_parameters(self):
        # nothing factors p0*p1*p2*p3 - 1; stage 5 branches on one parameter
        # per level, so the all-ones assignment is reached within the budget
        ps = [Polynomial.var(f"$p{i}") for i in range(4)]
        system = PolySystem((ps[0] * ps[1] * ps[2] * ps[3] - 1,),
                            ("p0", "p1", "p2", "p3"))
        vals = solve_system(system)
        assert [v.assignment for v in vals] == [{f"p{i}": F(1) for i in range(4)}]

    def test_each_distinct_polynomial_is_factored_once(self, monkeypatch):
        # a*b = 0 branches on a and on b, and both branches then meet
        # (c + 1)(d + 1) = 0
        a, b, c, d = (Polynomial.var("$" + n) for n in "abcd")
        system = PolySystem((a * b, (c + 1) * (d + 1)), ("a", "b", "c", "d"))
        seen = []

        def counting(p):
            seen.append(frozenset(p.terms.items()))
            return _factor_poly(p)

        monkeypatch.setattr(synthesis, "_factor_poly", counting)
        vals = [v.assignment for v in solve_system(system)]
        assert any(v["a"] == 0 and v["c"] == -1 for v in vals)
        assert any(v["b"] == 0 and v["d"] == -1 for v in vals)
        assert seen and len(seen) == len(set(seen))

    def test_a_numerator_parameter_in_one_term_is_eliminated(self):
        a, b, t = (Polynomial.var("$" + n) for n in "abt")
        isolable = 2 * t + a * b - 2
        other = a * b - 2 * b
        assert _pivot([other, isolable], {"$t"}) == (isolable, "$t")
        assert _pivot([other, isolable], set()) is None
        assert _pivot([other, isolable + t * b], {"$t"}) is None
        system = PolySystem((isolable, other), ("a", "b", "t"), ("t",))
        vals = [(dict(v.assignment), v.free) for v in solve_system(system)]
        assert vals == [({"a": 2, "b": 0, "t": 1}, ("b",)), ({"a": 2, "b": 1, "t": 0}, ("b",)),
                        ({"a": 0, "b": 0, "t": 1}, ("a",)), ({"a": 1, "b": 0, "t": 1}, ("a",))]

    def test_the_numerator_block_comes_from_structure(self):
        # parameters are named freely: here the denominator's is called a0
        tpl = parse_template("(b0*X + b1)/(1 - a0*C)", ["x", "c"])
        assert build_system(tpl, GEO.body, G_X).numerator == ("b0", "b1")
        shared = parse_template("(a*X + b)/(1 - a*C)", ["x", "c"])
        assert build_system(shared, GEO.body, G_X).numerator == ("b",)
        # a product of two numerator parameters is not linear in the block
        product = parse_template("(a*b*X + a)/(1 - c*C)", ["x", "c"])
        assert build_system(product, GEO.body, G_X).numerator == ()
        auto = list(enumerate_templates(["c", "x"], 1))[1]
        assert build_system(auto, GEO.body, G_X).numerator == ("a0", "a1", "a2")

    @pytest.mark.parametrize("name, want", [
        ("thirds_geometric", {"a0": 0, "a1": 1, "a2": F(1, 3), "a3": F(1, 3),
                              "b1": 0, "b2": 0, "b3": F(-1, 3)}),
        ("residue_k3", {"a0": 0, "a1": 1, "a2": F(1, 2), "a3": 0,
                        "b1": 0, "b2": 0, "b3": F(-1, 2)}),
    ])
    def test_degree_three_valuations_are_pinned(self, corpus, name, want):
        # the single valuation found when parametric forms were GCD-reduced
        if name == "residue_k3":
            ast = parse("nat x; while (x = 1 mod 3) { {x := x + 3} [1/2] {x := x + 1} }")
        else:
            ast = corpus[name][0]
        loop = next(s for s in top_level_segments(ast) if isinstance(s, While))
        tpl = list(enumerate_templates(["x"], 3))[3]
        vals = solve_system(build_system(tpl, loop, G_X))
        assert [(v.assignment, v.free) for v in vals] == [(want, ())]

    def test_the_walk_of_three_isolates_its_numerator(self, monkeypatch):
        # synthesize solves this walk as a finite chain; its degree-3 system
        # still needs stage 1 to isolate a numerator parameter of degree 2
        tpl = list(enumerate_templates(["x"], 3))[3]
        system = build_system(tpl, bounded_walk(3), G_X)
        assert system.numerator == ("a0", "a1", "a2", "a3")
        picked = []
        real = synthesis._pivot
        monkeypatch.setattr(synthesis, "_pivot",
                            lambda eqs, block: picked.append(real(eqs, block)) or picked[-1])
        vals = solve_system(system)
        assert any(p is not None and p[0].total_degree() == 2 for p in picked)
        want = {"a0": F(2, 3), "a1": F(4, 3), "a2": F(2, 3), "a3": F(1, 3),
                "b1": 0, "b2": 0, "b3": 0}
        assert [(v.assignment, v.free) for v in vals] == [(want, ())]

    def test_past_deadline_raises(self):
        system = PolySystem((Polynomial.var("$a") * Polynomial.var("$b") - 1,), ("a", "b"))
        with time_limit(0), pytest.raises(TimeoutError):
            solve_system(system)
        with time_limit(0), pytest.raises(TimeoutError):
            _row_reduce(list(system.equations))

    def test_rational_roots_honour_the_deadline(self):
        # the constant has some 2.9e10 candidate divisors below its square root
        t = Polynomial.var("$t")
        start = time.monotonic()
        with time_limit(0.5), pytest.raises(TimeoutError):
            _rational_roots(t * t - 818358770033436551431, "$t")
        assert time.monotonic() - start < 1.5

    def test_the_residual_is_read_over_phis_denominator(self):
        ast = parse("nat x; while (x = 1 mod 4) { {x := x + 4} [1/2] {x := x + 1} }")
        tpl = list(enumerate_templates(["x"], 4))[4]
        # cross-multiplied by the template's denominator, the system has 22
        assert len(build_system(tpl, first_loop(ast), G_X).equations) == 18

    def test_a_denominator_that_does_not_divide_gives_none_at_once(self, corpus):
        # without the degree box, this division runs for the whole budget
        ast, init, _, _ = corpus["fast_dice_roller"]
        loop = first_loop(ast)
        tpl = list(enumerate_templates(template_vars(loop, init), 1))[1]
        phi = char_functional(loop, init, tpl.form)
        with time_limit(0.1):
            assert exact_quotient(phi.den, tpl.form.den) is None

    def test_the_residual_has_the_solutions_of_the_cross_multiplied_system(self, corpus):
        cases = [(name, first_loop(ast), init, 2) for name, (ast, init, _, _) in corpus.items()
                 # its degree-1 solve runs out of time; its degree-2 build runs past 20 s
                 if name != "fast_dice_roller"]
        for k in (2, 3, 4):
            ast = parse(f"nat x; while (x = 1 mod {k}) {{ {{x := x + {k}}} [1/2] {{x := x + 1}} }}")
            cases.append((f"residue_k{k}", first_loop(ast), G_X, k))
        differ = []
        for name, loop, init, degree in cases:
            for tpl in enumerate_templates(template_vars(loop, init), degree):
                system = build_system(tpl, loop, init)
                crossed = cross_multiplied_system(tpl, loop, init, system)
                got, want = solve_system(system), solve_system(crossed)
                if [(v.assignment, v.free) for v in got] == [(v.assignment, v.free) for v in want]:
                    continue
                differ.append((name, tpl.provenance))
                # a positive-dimensional family, of which the two solves pick
                # different points: each is a zero of both systems
                for v in got + want:
                    for eqs in (system.equations, crossed.equations):
                        assert all(evaluate(e, v.assignment) == 0 for e in eqs)
        assert differ == [("cond_and", "auto(d=2)")]

    def test_solver_soundness_on_random_systems(self):
        rng = random.Random(11)
        names = ["$a", "$b", "$c"]
        for _ in range(25):
            eqs = []
            for _ in range(rng.randrange(1, 4)):
                p = Polynomial()
                for _ in range(rng.randrange(1, 4)):
                    mono = tuple(sorted({n: rng.randrange(0, 2) for n in
                                         rng.sample(names, rng.randrange(1, 3))}.items()))
                    mono = tuple((v, e) for v, e in mono if e)
                    p = p + Polynomial.monomial(mono, F(rng.randrange(-3, 4)))
                if not p.is_zero():
                    eqs.append(p)
            if not eqs:
                continue
            system = PolySystem(tuple(eqs), ("a", "b", "c"))
            for val in solve_system(system):
                for e in system.equations:
                    total = F(0)
                    for m, coeff in e.terms.items():
                        term = coeff
                        for v, exp in m:
                            term *= val.assignment[v[1:]] ** exp
                        total += term
                    assert total == 0


# -- the exact kernels under the solver, against their dense/Expr references ------

def dense_row_reduce(eqs):
    """Reference: Gaussian elimination over dense lists of Fractions."""
    monos = sorted({m for e in eqs for m in e.terms}, key=mono_key, reverse=True)
    pos = {m: i for i, m in enumerate(monos)}
    rows = []
    for e in eqs:
        row = [F(0)] * len(monos)
        for m, c in e.terms.items():
            row[pos[m]] = c
        rows.append(row)
    pivot_row = 0
    for col in range(len(monos)):
        piv = next((r for r in range(pivot_row, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[pivot_row], rows[piv] = rows[piv], rows[pivot_row]
        inv = 1 / rows[pivot_row][col]
        rows[pivot_row] = [x * inv for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    out = []
    for row in rows:
        terms = {monos[i]: c for i, c in enumerate(row) if c}
        if terms:
            out.append(Polynomial(terms))
    return out


def expr_factor_poly(p):
    """Reference: sympy.factor_list on the expression, read back per factor."""
    import sympy

    vs = sorted(v for v in p.vars() if v.startswith("$"))
    if not vs:
        return []
    symbols = {v: sympy.Symbol(v[1:]) for v in vs}
    names = {s: v for v, s in symbols.items()}
    expr = sympy.Integer(0)
    for m, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in m:
            term *= symbols[v] ** e
        expr += term
    _, factors = sympy.factor_list(expr)
    polys = []
    for f, _ in factors:
        if not f.free_symbols:
            continue
        poly = sympy.Poly(sympy.expand(f), *names)
        out = Polynomial()
        for monom, coeff in poly.terms():
            mono = tuple(sorted(
                (names[s], e) for s, e in zip(poly.gens, monom) if e))
            out = out + Polynomial.monomial(mono, F(str(sympy.Rational(coeff))))
        polys.append(out)
    if not polys:
        return []
    polys.sort(key=lambda q: sorted(q.terms))
    if len(polys) >= 2 or polys[0].total_degree() < p.total_degree():
        return polys
    return []


def param_polys(names, max_exp=2, max_terms=4, min_terms=0):
    monomial = st.lists(st.tuples(st.sampled_from(names), st.integers(1, max_exp)),
                        max_size=2).map(lambda ps: tuple(sorted(dict(ps).items())))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool)
    return st.dictionaries(monomial, coeff, min_size=min_terms,
                           max_size=max_terms).map(Polynomial)


def as_lists(polys):
    return [list(p.terms.items()) for p in polys]


@st.composite
def row_systems(draw):
    """Equations plus linear combinations of them (rank-deficient), zeros too."""
    base = draw(st.lists(param_polys(["$a", "$b", "$c"]), max_size=5))
    eqs = list(base)
    for _ in range(draw(st.integers(0, 3))):
        if not base:
            break
        combo = Polynomial()
        for e in draw(st.lists(st.sampled_from(base), min_size=1, max_size=3)):
            combo = combo + e * draw(st.fractions(-3, 3, max_denominator=2))
        eqs.insert(draw(st.integers(0, len(eqs))), combo)
    return eqs


@given(row_systems())
@settings(deadline=None, derandomize=True)
def test_row_reduce_matches_dense_reference(eqs):
    assert as_lists(_row_reduce(eqs)) == as_lists(dense_row_reduce(eqs))


# names that sympy orders differently from Python: x..z and p..w come first,
# and a2 sorts before a10
FACTOR_NAMES = ["$a2", "$a10", "$b1", "$p", "$x"]


def product(parts, integer=False):
    p = Polynomial.const(1)
    for q in parts:
        p = p * (q * q.content().denominator if integer else q)
    return p


@given(st.lists(param_polys(FACTOR_NAMES, max_terms=3, min_terms=1), min_size=1, max_size=3),
       st.booleans())
@settings(deadline=None, derandomize=True, max_examples=60)
def test_factor_poly_matches_expr_factor_list(parts, integer):
    p = product(parts, integer)
    assert as_lists(_factor_poly(p)) == as_lists(expr_factor_poly(p))


def test_factor_poly_keeps_the_order_of_factors_with_equal_monomials():
    a2, a10, b1, p, x = (Polynomial.var(v) for v in FACTOR_NAMES)
    cases = [
        [x, p, a2 + a10, a2 - a10],
        [b1 * b1, a2 - 2 * a10, a2 + 3 * a10, a2 * F(1, 2) - a10],
        [x - p, x + p, x * 2 - p, a10],
        [a10 * x, a2 * a2 - b1, b1 - a2 * a2 * 3],
    ]
    for parts in cases:
        p = product(parts)
        got = _factor_poly(p)
        assert len({tuple(sorted(q.terms)) for q in got}) < len(got)
        assert as_lists(got) == as_lists(expr_factor_poly(p))


class TestPositivity:
    def test_occupation_form(self):
        assert shape_nonneg(OCC)

    def test_sequential_loops_diagnostic_form(self):
        mixed = normalize(2 * C, C * C - 3 * C + 2) + from_poly(ONE)
        assert not shape_nonneg(mixed)
        # ... even though the series is in fact nonnegative
        assert all(v >= 0 for v in series_expand(mixed, 15).values())

    def test_negation_pattern(self):
        f = ClosedForm(-X, Polynomial.const(-1) + C * F(1, 2))
        assert shape_nonneg(f)

    def test_nonneg_verdict_implies_nonneg_series(self, corpus):
        # internal consistency on every stored closed form in the corpus
        from gfinv.algebra import parse_closed_form
        for name, (ast, init, expected, d) in corpus.items():
            for key in ("invariant", "posterior"):
                text = expected.get(key)
                if not text:
                    continue
                f = parse_closed_form(text, ast.variables)
                if shape_nonneg(f):
                    assert all(v >= 0 for v in series_expand(f, 15).values()), name


def unpinned_geometric_template():
    """Paper-style template with a free denominator constant."""
    names = ["a0", "a1", "a2", "a3", "b0", "b1", "b2"]
    a0, a1, a2, a3, b0, b1, b2 = [Polynomial.var("$" + n) for n in names]
    form = ClosedForm(a0 + a1 * X + a2 * C + a3 * X * X, b0 + b1 * X + b2 * C)
    return Template(form, tuple(names), "user")


class TestScalingQuotient:
    def test_scaling_all_parameters_gives_same_form(self):
        # justifies pinning the denominator constant: valuations that differ
        # by a global scale encode the same series
        rng = random.Random(23)
        tpl = unpinned_geometric_template()
        tau = {"a0": F(1), "a1": F(2), "a2": F(0), "a3": F(0),
               "b0": F(2), "b1": F(0), "b2": F(-1)}
        f0 = instantiate(tpl.form, tau)
        assert equal(f0, OCC)
        for _ in range(100):
            k = F(rng.randrange(1, 9), rng.randrange(1, 9))
            if rng.random() < 0.5:
                k = -k
            scaled = {p: v * k for p, v in tau.items()}
            assert equal(instantiate(tpl.form, scaled), f0)


class TestSynthesize:
    def test_geometric_auto(self):
        res = synthesize(GEO.body, G_X, SynthesisConfig(max_den_degree=1))
        assert res.kind == CertificateKind.EXACT_POSTERIOR
        assert equal(res.invariant, OCC)
        assert equal(res.posterior, normalize(ONE, 2 - C))

    def test_nontermination_fails_with_divergence_hint(self):
        loop = parse("nat x;\nwhile (x = 1) { skip }").body
        g = normalize(X + Polynomial.var("x", 2), Polynomial.const(2))
        res = synthesize(loop, g, SynthesisConfig(max_den_degree=2))
        assert isinstance(res, Failure)
        assert any("infinite coefficient" in d for d in res.diagnostics)

    def test_nontermination_names_the_closed_state_from_an_init_with_unknown_tail(self):
        # the series of (4-X)/(2-X)^2 cut off at any degree leaves a tail of
        # unknown mass; the search needs only its exact low-degree terms
        loop = parse("nat x;\nwhile (x = 1) { skip }").body
        g = normalize(4 - X, (2 - X) * (2 - X))
        res = synthesize(loop, g, SynthesisConfig(max_den_degree=1))
        assert isinstance(res, Failure)
        assert "infinite coefficient at state (x=1)" in res.diagnostics[-1]
        assert "by the path (x=1)," in res.diagnostics[-1]
        assert "recurrent in {(x=1)}" in res.diagnostics[-1]

    def test_a_repeated_candidate_is_reported_once_per_template(self):
        # two valuations of the degree-3 template give the same candidate
        walk = parse("nat x;\nwhile (x > 0) { {x := x - 1} [2/3] {x := x + 2} }")
        res = synthesize(walk.body, G_X, SynthesisConfig(max_den_degree=3))
        found = [d for d in res.diagnostics if "cannot determine positivity" in d]
        assert found == ["template auto(d=3) (a0 + X*a1 + X^2*a2 + X^3*a3)/"
                         "(1 + X*b1 + X^2*b2 + X^3*b3): cannot determine positivity of "
                         "(2 + 2*X - X^2)/(2 - X - X^2) (from 2 valuations)"]

    def test_an_empty_solution_set_is_not_called_unsatisfiable(self):
        # the staged solver is incomplete: finding nothing proves nothing
        loop = parse("nat x;\nwhile (x = 1) { skip }").body
        g = normalize(X + Polynomial.var("x", 2), Polynomial.const(2))
        res = synthesize(loop, g, SynthesisConfig(max_den_degree=2))
        found = [d for d in res.diagnostics if "no solution found by the staged solver" in d]
        assert len(found) == 2
        assert not any("unsatisfiable" in d for d in res.diagnostics)

    def test_random_walk_upper_bound(self):
        walk = parse("nat x;\nwhile (x > 0) { { x := x - 1 } [1/2] { x := x + 1 } }")
        res = synthesize(walk.body, G_X, SynthesisConfig(max_den_degree=1))
        assert res.kind == CertificateKind.UPPER_BOUND_ONLY
        assert equal(res.invariant, normalize(ONE + X, ONE - X))

    def test_enumeration_completeness_denominator_degree_two(self, corpus):
        # every corpus benchmark with a known rational invariant of
        # denominator degree <= 2 is reached by the degree-2 enumeration
        from gfinv.algebra import parse_closed_form
        from gfinv.program import While, top_level_segments
        for name in ("geometric", "faulty_decrement", "geometric_counter",
                      "random_walk", "modulo_geometric", "cond_and_corrected"):
            ast, init, expected, _ = corpus[name]
            known = parse_closed_form(expected["invariant"], ast.variables)
            if known.den.total_degree() > 2:
                continue
            loop = next(s for s in top_level_segments(ast) if isinstance(s, While))
            found = False
            for tpl in enumerate_templates(sorted(known.vars()), 2):
                system = build_system(tpl, loop, init)
                for val in solve_system(system):
                    try:
                        inst = instantiate(tpl.form, val.assignment)
                    except Exception:
                        continue
                    if equal(inst, known):
                        found = True
                        break
                if found:
                    break
            assert found, name

    def test_residue_loop_mod_five(self):
        ast = parse("nat x; while (x = 1 mod 5) { {x := x + 5} [1/2] {x := x + 1} }")
        res = synthesize(ast.body, G_X, SynthesisConfig(max_den_degree=5))
        assert res.kind == CertificateKind.EXACT_POSTERIOR
        assert equal(res.invariant, normalize(2 * X + X * X, 2 - Polynomial.var("x", 5)))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_bounded_walk_certifies(self, n):
        ast = parse(f"nat x; while (x > 0 && x < {n}) {{ {{x := x - 1}} [1/2] {{x := x + 1}} }}")
        res = synthesize(ast.body, G_X, SynthesisConfig(max_den_degree=n))
        assert res.kind == CertificateKind.EXACT_POSTERIOR
        # gambler's ruin from 1: exit at 0 w.p. (N-1)/N, at N w.p. 1/N
        post = Polynomial.const(F(n - 1, n)) + Polynomial.var("x", n) * F(1, n)
        occ = sum((Polynomial.var("x", j) * F(2 * (n - j), n) for j in range(1, n)),
                  Polynomial())
        assert equal(res.invariant, from_poly(occ + post))
        assert equal(res.posterior, from_poly(post))

    def test_solver_honours_the_deadline(self, corpus):
        # solving fast_dice_roller's degree-1 automatic template runs past a
        # 60 s deadline
        ast, init, _, _ = corpus["fast_dice_roller"]
        loop = next(s for s in top_level_segments(ast) if isinstance(s, While))
        start = time.monotonic()
        res = synthesize(loop, init, SynthesisConfig(timeout_s=2.0))
        assert time.monotonic() - start < 2.0 + 2
        assert isinstance(res, Failure) and res.stage == "timeout"
        assert any("timeout reached while solving" in d for d in res.diagnostics)

    @pytest.mark.parametrize("source", [
        # stage 2 meets a constant with some 2.9e10 candidate divisors
        "nat x; nat y; while (x < 2) { { {y := y + 1} [2/3] {y += iid(uniform(0, 2), 1)} }"
        " [2/3] { {y--} [1/2] {x := 2} } }",
        # stage 4 meets one new equation to factor after another
        "nat x; nat y; while (y < 3) { { {x := 0} [1/3] {y--} } [3/4] {x--} }",
    ], ids=["divisors", "factoring"])
    def test_every_stage_honours_the_deadline(self, source):
        ast = parse(source)
        start = time.monotonic()
        res = synthesize(first_loop(ast), from_poly(ONE),
                         SynthesisConfig(max_den_degree=2, timeout_s=3.0))
        assert time.monotonic() - start < 3.0 + 1
        assert isinstance(res, Failure) and res.stage == "timeout"

    SELF_LOOP = "nat x; nat y; while (y < 3) { { {x := 0} [1/3] {y--} } [3/4] {x--} }"

    def test_the_witness_search_has_a_budget_of_its_own(self):
        # y stays 0 < 3 from 1: the stream runs out of time, yet the search
        # that runs after it still proves that no finite invariant exists
        start = time.monotonic()
        res = synthesize(first_loop(parse(self.SELF_LOOP)), from_poly(ONE),
                         SynthesisConfig(max_den_degree=2, timeout_s=3.0))
        assert time.monotonic() - start < 3.0 + 1
        assert isinstance(res, Failure) and res.stage == "timeout"
        assert res.diagnostics[-1].startswith(
            "the occupation measure has an infinite coefficient at state (x=0, y=0)")

    def test_an_outer_limit_still_bounds_the_witness_search(self):
        start = time.monotonic()
        with time_limit(0.5):
            res = synthesize(first_loop(parse(self.SELF_LOOP)), from_poly(ONE),
                             SynthesisConfig(max_den_degree=2, timeout_s=3.0))
        assert time.monotonic() - start < 0.5 + 1
        assert isinstance(res, Failure) and res.stage == "timeout"
        assert "infinite coefficient" not in res.diagnostics[-1]


def oracle_agrees(loop, g, cert, vars, steps, degree):
    """Criterion 4: the certificate's invariant and posterior dominate the
    Kleene lower bounds, the posterior within the oracle's residual."""
    kl = kleene_iterate(loop, measure_from_closed_form(g, degree, vars), vars, steps)
    post = crosscheck(cert.posterior, kl.post_lower, degree, vars)
    occ = crosscheck(cert.invariant, kl.occ_lower, degree, vars)
    return post.ok and post.max_gap <= post.residual and occ.ok


class TestFiniteChain:
    """A loop whose polynomial initial measure reaches finitely many guard
    states is solved as an exact finite chain before any template."""

    PGF_LOOP = "nat x; nat c; while (x = 1) { { c := pgf(1/3 + 2/3*T^2) } [1/2] { x := 0 } }"

    def test_the_bounded_walk_of_200_certifies_in_under_two_seconds(self):
        n = 200
        loop = bounded_walk(n)
        start = time.monotonic()
        res = synthesize(loop, G_X, SynthesisConfig(max_den_degree=3))
        assert time.monotonic() - start < 2.0
        assert res.kind == CertificateKind.EXACT_POSTERIOR
        post = Polynomial.const(F(n - 1, n)) + Polynomial.var("x", n) * F(1, n)
        assert equal(res.posterior, from_poly(post))
        assert oracle_agrees(loop, G_X, res, ["x"], 400, n)

    def test_the_exploration_alone_decides_the_size(self):
        # the gate's box counts x = 0 .. N - 1, one state more than the N - 1
        # guard states that the exploration reaches and caps
        n = oracle.CHAIN_STATES + 1
        loop = bounded_walk(n)
        assert _guard_state_count(loop, G_X, ["x"]) == n
        start = time.monotonic()
        res = synthesize(loop, G_X, SynthesisConfig(max_den_degree=3, timeout_s=5.0))
        assert time.monotonic() - start < 1.0
        assert res.kind == CertificateKind.EXACT_POSTERIOR
        assert oracle_agrees(loop, G_X, res, ["x"], 2 * n, n)

    def test_the_exploration_stops_at_the_cap_and_the_deadline(self, monkeypatch):
        explore = oracle.finite_chain_invariant
        assert explore(bounded_walk(oracle.CHAIN_STATES + 1), G_X, ["x"]) is not None
        assert explore(bounded_walk(oracle.CHAIN_STATES + 2), G_X, ["x"]) is None
        with time_limit(0), pytest.raises(TimeoutError):
            explore(bounded_walk(3), G_X, ["x"])
        polls = []
        monkeypatch.setattr(oracle, "check_deadline", polls.append)
        explore(bounded_walk(3), G_X, ["x"])
        # x = 1 and x = 2, each explored, then solved
        assert polls == ["while exploring guard states"] * 2 + ["while solving"] * 2

    def test_only_an_exact_posterior_is_kept(self):
        # the diverging half of the mass makes the chain's exact invariant
        # X + 1/2 an UpperBoundOnly certificate, which the templates report
        loop = parse("nat x; while (x = 1) { {x := 0} [1/2] {diverge} }").body
        assert oracle.finite_chain_invariant(loop, G_X, ["x"]) == from_poly(X + F(1, 2))
        assert synthesis._finite_chain(loop, G_X, ["x"]) is None

    def test_the_pgf_loop_certifies_its_polynomial_invariant(self):
        ast = parse(self.PGF_LOOP)
        want = parse_closed_form("2/3 + 4/3*X + 1/3*C^2 + 2/3*C^2*X", ast.variables)
        for _ in range(3):
            res = synthesize(ast.body, G_X, SynthesisConfig(max_den_degree=2))
            assert res.kind == CertificateKind.EXACT_POSTERIOR
            assert res.invariant == want
        assert oracle_agrees(ast.body, G_X, res, list(ast.variables), 40, 6)

    def test_a_closed_class_falls_through_to_the_templates_unchanged(self, monkeypatch):
        loop = parse("nat x;\nwhile (x = 1) { skip }").body
        g = normalize(X + Polynomial.var("x", 2), Polynomial.const(2))
        cfg = SynthesisConfig(max_den_degree=2)
        found = []
        real = oracle.finite_chain_invariant
        monkeypatch.setattr(oracle, "finite_chain_invariant",
                            lambda *a: found.append(real(*a)) or found[-1])
        res = synthesize(loop, g, cfg)
        assert found == [None]          # the system is singular: x=1 recurs
        monkeypatch.setattr(synthesis, "_finite_chain", lambda *a: None)
        assert synthesize(loop, g, cfg) == res

    def test_an_unbounded_counter_explores_no_state(self, monkeypatch, corpus):
        # x > 0 reads x, so x is enumerated, and no bound above holds it
        steps = []
        real = oracle._exec
        monkeypatch.setattr(oracle, "_exec", lambda *a: steps.append(a[0]) or real(*a))
        ast, init, _, _ = corpus["random_walk_counter_unbounded"]
        assert synthesis._finite_chain(ast.body, init, template_vars(ast.body, init)) is None
        assert steps == []
        ast, init, _, _ = corpus["cond_and_corrected"]
        res = synthesis._finite_chain(ast.body, init, template_vars(ast.body, init))
        assert res.kind == CertificateKind.EXACT_POSTERIOR and steps

    @pytest.mark.parametrize("source, init, count", [
        ("nat x; nat c; while (x = 1) { { c := c + 1 } [1/2] { x := 0 } }", "X", 2),
        (PGF_LOOP, "X", 6),                 # x = 1 and c <= 2
        ("nat x; while (x > 0 && x < 3) { {x := x - 1} [1/2] {x := x + 1} }", "X", 3),
        ("nat x; nat y; while (x > 0 && y > 0) { {x := x - 1} [1/2] {y := y - 1} }", "X*Y", 4),
        ("nat x; while (x = 1 mod 2) { x := x + 2 }", "X", 2),      # two residues
        ("nat x; while (x = 1 || x = 3) { x := x + 1 }", "X", 4),
        ("nat x; while (x < 0) { x := x + 1 }", "X", 0),
        ("nat x; nat y; while (x < 2) { x := y; y := y + 1 }", "1", float("inf")),
        ("nat x; nat y; while (x < 2) { while (y < 1) { y := 1 }; x := 2 }", "1", float("inf")),
        ("nat x; nat y; while (x = 1 mod 2 && !(y = 0 mod 3)) { y := y + 1 }", "X*Y", 6),
        ("nat x; nat y; while (x > 0 && !(y >= 3)) { {x := 0} [1/2] {y := y + 1} }", "X", 6),
        ("nat x; nat y; while (!(x < 1 || y > 2)) { {x := 0} [1/2] {y := y + 1} }", "X", 6),
        ("nat x; nat y; while (!!(y < 3) && x > 0) { {x := 0} [1/2] {y := y + 1} }", "X", 6),
        ("nat x; while (!(x = 2 && x < 9)) { x := x + 1 }", "1", float("inf")),
    ], ids=["counter", "pgf", "walk", "cond_and", "modulo", "or", "empty", "feed", "nested",
            "lcm", "not", "de_morgan", "double_not", "not_and"])
    def test_the_gate_bounds_the_guard_states(self, source, init, count):
        ast = parse(source)
        loop = first_loop(ast)
        g = parse_closed_form(init, ast.variables)
        assert _guard_state_count(loop, g, template_vars(loop, g)) == count


# loops for the chain's differential test: x is bounded by the guard, r is
# read only by mod tests, c by nothing, and the body shifts c and r by
# polynomial draws
POLY_DRAWS = [P.dirac(1), P.dirac(2), P.bernoulli(F(1, 2)), P.uniform(0, 2)]
_x_tests = st.one_of(st.builds(P.Lt, st.just("x"), st.integers(1, 4)),
                     st.builds(P.Eq, st.just("x"), st.integers(0, 2)))
_r_tests = st.integers(2, 3).flatmap(
    lambda d: st.builds(P.ModEq, st.just("r"), st.integers(0, d - 1), st.just(d)))
_chain_guards = st.one_of(_x_tests, st.builds(P.And, _x_tests, st.one_of(_r_tests,
                                                                          _r_tests.map(P.Not))))
_chain_leaves = st.one_of(
    st.just(P.Skip()),
    st.builds(P.AssignConst, st.just("x"), st.integers(0, 3)),
    st.just(P.Decrement("x")),
    st.just(P.IidIncrement("x", P.dirac(1), None)),
    st.builds(P.IidIncrement, st.just("c"), st.sampled_from(POLY_DRAWS), st.none()),
    st.builds(P.IidIncrement, st.just("r"), st.sampled_from(POLY_DRAWS[:3]), st.none()),
)
_chain_bodies = st.recursive(_chain_leaves, lambda s: st.one_of(
    st.builds(P.Choice, st.sampled_from([F(1, 3), F(1, 2), F(2, 3)]), s, s),
    st.lists(s, min_size=2, max_size=3).map(lambda ss: P.Seq(tuple(ss))),
    st.builds(P.IfThenElse, st.one_of(_x_tests, _r_tests), s, s),
), max_leaves=6)
CHAIN_INITS = ["X", "X*C", "X*R", "1/2*X + 1/2*X^2*R", "1/3 + 2/3*X*C*R^2"]


class TestShiftedVariables:
    """A variable that the loop only shifts is kept as its residue class, and
    its shifts weigh the chain's edges: the chain then solves counters and
    residue classes without a template."""

    @staticmethod
    def no_templates(monkeypatch):
        monkeypatch.setattr(synthesis, "build_system",
                            lambda *a: pytest.fail("a template was built"))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_the_residue_family_certifies_without_a_template(self, monkeypatch, k):
        self.no_templates(monkeypatch)
        loop = parse(f"nat x; while (x = 1 mod {k}) {{ {{x := x + {k}}} [1/2] {{x := x + 1}} }}").body
        res = synthesize(loop, G_X, SynthesisConfig(max_den_degree=k))
        assert res.kind == CertificateKind.EXACT_POSTERIOR
        assert equal(res.invariant, parse_closed_form(f"(2*X + X^2)/(2 - X^{k})", ["x"]))
        assert oracle_agrees(loop, G_X, res, ["x"], 40, 3 * k)

    @pytest.mark.parametrize("name", ["thirds_geometric", "random_walk_counter",
                                      "modulo_geometric", "geometric", "geometric_counter",
                                      "subdist_enter"])
    def test_corpus_loops_certify_their_invariants_without_a_template(self, monkeypatch, corpus,
                                                                      name):
        # random_walk_counter and modulo_geometric need no template.txt
        self.no_templates(monkeypatch)
        ast, init, expected, _ = corpus[name]
        res = synthesize(ast.body, init, SynthesisConfig(max_den_degree=1))
        assert res.kind == CertificateKind.EXACT_POSTERIOR
        assert equal(res.invariant, parse_closed_form(expected["invariant"], ast.variables))
        assert equal(res.posterior, parse_closed_form(expected["posterior"], ast.variables))

    def test_the_first_of_the_sequential_loops_takes_the_chain(self, corpus):
        ast, init, _, _ = corpus["sequential_loops"]
        loop = first_loop(ast)
        res = synthesis._finite_chain(loop, init, template_vars(loop, init))
        assert res.kind == CertificateKind.EXACT_POSTERIOR and equal(res.invariant, OCC)

    # solve_system's valuation lists on the corpus loops left to the templates,
    # in order, as before shifted variables joined the chain; only the first
    # of the sequential loops, which the chain now solves, took one more list
    TEMPLATE_VALUATIONS = [
        ("faulty_decrement", []),
        ("faulty_decrement", [{"a0": 1, "a1": F(1, 2), "b1": F(-1, 2)}]),
        ("nontermination", []),
        ("nontermination", []),
        ("random_walk", [{"a0": 1, "a1": 1, "b1": -1}]),
        ("random_walk_counter_unbounded", []),
        ("random_walk_counter_unbounded", []),
        ("sequential_loops", []),
        ("sequential_loops", []),
        ("sequential_loops", [{"a0": 1, "a1": F(-1, 2), "a2": F(1, 2), "b1": F(-3, 2),
                               "b2": F(1, 2)}]),
    ]

    def test_the_loops_left_to_templates_solve_the_same_systems(self, monkeypatch, corpus):
        seen = []
        real = solve_system
        monkeypatch.setattr(synthesis, "solve_system", lambda system: seen.append(
            (name, real(system))) or seen[-1][1])
        for name in dict(self.TEMPLATE_VALUATIONS):
            ast, init, expected, _ = corpus[name]
            analyze_program(ast, init, SynthesisConfig(max_den_degree=expected["max_degree"]))
        assert [(n, [v.assignment for v in vals]) for n, vals in seen] == self.TEMPLATE_VALUATIONS
        assert all(v.free == () for _, vals in seen for v in vals)

    @pytest.mark.parametrize("source", [
        "nat x; nat c; while (x = 1) { c := c + 1 }",
        "nat x; nat c; while (x = 1) { {c += iid(geometric(1/2), 1)} [1/2] {x := 0} }",
        "nat x; nat c; while (x = 1) { {c := c + 1} [1/2] {x := 0; c := 0} }",
        "nat x; nat c; while (x = 1) { {c := c + 2} [1/2] {x := 0}; c := c - 1 }",
        "nat x; nat c; nat y; while (x = 1) { {c := c + 1} [1/2] {x := 0}; "
        "y += iid(bernoulli(1/2), c) }",
    ], ids=["never_leaves", "geometric_draw", "reset", "decrement", "count"])
    def test_what_the_chain_does_not_certify_falls_through_unchanged(self, monkeypatch,
                                                                     source):
        loop = parse(source).body
        vars = template_vars(loop, G_X)
        cfg = SynthesisConfig(max_den_degree=1)
        if "c := c + 1 }" in source:
            # c is shifted; the chain's exact invariant X/(1 - C) has infinite
            # mass, so no ExactPosterior certifies it
            assert oracle.shift_moduli(loop, vars) == {"c": 1}
            assert equal(oracle.finite_chain_invariant(loop, G_X, vars),
                         normalize(X, ONE - C))
        else:
            assert "c" not in oracle.shift_moduli(loop, vars)
            assert _guard_state_count(loop, G_X, vars) == float("inf")
        res = synthesize(loop, G_X, cfg)
        assert getattr(res, "kind", None) != CertificateKind.EXACT_POSTERIOR
        monkeypatch.setattr(synthesis, "_finite_chain", lambda *a: None)
        assert synthesize(loop, G_X, cfg) == res

    def test_a_closed_class_without_shifts_has_no_power_series_solution(self):
        # c is shifted by nothing: the class x = 1 returns to itself with
        # probability 1 and weight 1, so no pivot has a constant term
        loop = parse("nat x; nat c; while (x = 1) { skip }").body
        g = from_poly(X * C)
        assert oracle.shift_moduli(loop, ["c", "x"]) == {"c": 1}
        assert oracle.finite_chain_invariant(loop, g, ["c", "x"]) is None

    # the formatted invariants of the bounded walk and of the walk with a
    # step counter, as summing one closed form per chain state gave them
    STEP_COUNTED_WALK = ("nat x; nat c; while (x > 0 && x < {n}) "
                         "{{ {{x := x - 1}} [1/2] {{x := x + 1}}; c := c + 1 }}")
    CHAIN_SUMS = [
        ("walk", 3, "2/3 + 4/3*X + 2/3*X^2 + 1/3*X^3"),
        ("walk", 50, "sha256:949bd876c67f43d0"),
        ("walk", 200, "sha256:1aa06c86485030ad"),
        ("counted", 4, "(C + 2*X - 1/4*C^3 - 1/2*C^2*X + C*X^2 + 1/2*C^2*X^3 + 1/4*C^3*X^4)"
                       "/(2 - C^2)"),
        ("counted", 20, "sha256:8c187c0bdd23c66b"),
    ]

    @pytest.mark.parametrize("kind, n, want", CHAIN_SUMS,
                             ids=[f"{k}_n{n}" for k, n, _ in CHAIN_SUMS])
    def test_the_chain_sum_is_normalized_once(self, monkeypatch, kind, n, want):
        if kind == "walk":
            loop, vars = bounded_walk(n), ["x"]
        else:
            loop, vars = parse(self.STEP_COUNTED_WALK.format(n=n)).body, ["x", "c"]
        solved, gcds = [], []
        real_visits, real_gcd = oracle._visits, closedform.poly_gcd

        def visits(*a):
            out = real_visits(*a)
            solved.append(1)            # the gcds of the sum come after the solve
            return out
        monkeypatch.setattr(oracle, "_visits", visits)
        monkeypatch.setattr(closedform, "poly_gcd",
                            lambda *a: solved and gcds.append(1) or real_gcd(*a))
        got = format_closed_form(oracle.finite_chain_invariant(loop, G_X, vars), vars)
        # a rational chain sums polynomials; one over Q(C) normalizes once
        assert solved == [1] and len(gcds) <= (1 if kind == "counted" else 0)
        if want.startswith("sha256:"):
            got = "sha256:" + hashlib.sha256(got.encode()).hexdigest()[:16]
        assert got == want

    COUNTED_RUN = "nat x; nat c; while (x > 0 && x < {n}) {{ x := x + 1; c := c + 1 }}"

    def test_a_shifted_chain_stops_at_the_cap_and_the_deadline(self, monkeypatch):
        def run(n):
            loop = parse(self.COUNTED_RUN.format(n=n)).body
            return oracle.finite_chain_invariant(loop, G_X, ["c", "x"])
        # x = 1 .. n - 1, each visited once, the c-th after c steps
        n = oracle.CHAIN_STATES + 1
        want = sum((Polynomial.var("x", k) * Polynomial.var("c", k - 1) for k in range(2, n + 1)), X)
        assert run(n) == from_poly(want)
        assert run(n + 1) is None
        with time_limit(0), pytest.raises(TimeoutError):
            run(3)
        polls = []
        monkeypatch.setattr(oracle, "check_deadline", polls.append)
        run(3)
        assert polls == ["while exploring guard states"] * 2 + ["while solving"] * 2

    def test_a_negated_bound_counts_as_the_bound(self, monkeypatch):
        self.no_templates(monkeypatch)
        body = "{ {x := 0} [1/2] {y := y + 1} }"
        loops = [parse(f"nat x; nat y; while ({g}) {body}").body
                 for g in ("x > 0 && y <= 2", "x > 0 && !(y >= 3)")]
        counts = [_guard_state_count(loop, G_X, ["x", "y"]) for loop in loops]
        assert counts == [6, 6]
        invariants = []
        for loop in loops:
            res = synthesize(loop, G_X, SynthesisConfig(max_den_degree=2))
            assert res.kind == CertificateKind.EXACT_POSTERIOR
            invariants.append(res.invariant)
        assert invariants[0] == invariants[1]

    def test_chain_certificates_agree_with_the_oracle(self):
        certified = []

        @settings(derandomize=True, max_examples=150, deadline=None)
        @given(_chain_guards, _chain_bodies, st.sampled_from(CHAIN_INITS))
        def check(guard, body, init):
            loop = P.While(guard, body)
            g = parse_closed_form(init, ["c", "r", "x"])
            vars = template_vars(loop, g)
            cert = synthesis._finite_chain(loop, g, vars)
            if cert is not None:
                certified.append(bool(oracle.shift_moduli(loop, vars)))
                assert oracle_agrees(loop, g, cert, vars, 40, 6)

        check()
        assert certified.count(True) >= 50


class TestUserTemplates:
    def test_linked_parameters(self):
        tpl = parse_template(
            "template: (a*X + b*X^2)/(d - e*X^2)\na = 2*f\nb = f\nd = 2*f\ne = f\n",
            ["x"])
        assert tpl.parameters == ("f",)

    def test_pinned_constants(self):
        tpl = parse_template("(a*X + 1)/(1 - b*C)\na = 2\n", ["x", "c"])
        assert tpl.parameters == ("b",)
        inst = instantiate(tpl.form, {"b": F(1, 2)})
        assert equal(inst, normalize(2 * X + ONE, ONE - C * F(1, 2)))

    def test_links_that_pin_every_parameter_leave_a_normalized_form(self):
        # (2*X - 2*X^2)/(2 - 2*X) has the common factor 2*(1 - X), which the
        # arithmetic on forms without parameters takes as already cancelled
        tpl = parse_template("(a*X - a*X^2)/(a - b*X)\na = 2\nb = 2\n", ["x"])
        num, den = 2 * X - 2 * X * X, 2 - 2 * X
        assert tpl.parameters == ()
        assert tpl.form == normalize(num, den) and tpl.form.num == X
        assert tpl.form + from_poly(ONE) == from_poly(ONE + X)

    @pytest.mark.parametrize("text, message", [
        ("# a comment only\n", "contains no closed form"),
        ("(a*X + 1)/(1 - b*C)\na = 1/(1 - b)\n", "must be polynomial in parameters"),
        # a link needs a form before it and no prefix
        ("a = 2\n(a*X + 1)/(1 - b*C)\n", "line 1: a link must follow the closed form"),
        ("(a*X + 1)/(1 - b*C)\ntemplate: a = 2\n", "line 2: a link takes no 'template:' prefix"),
        ("(a*X + 1)/(1 - b*C)\n# z is no parameter\nz = 2\n",
         "line 3: 'z' is not a parameter of the form"),
        ("(a*X + 1)/(1 - b*C)\na = X\n", "line 2: link a = X holds an indeterminate"),
    ], ids=["no-form", "rational-link", "link-before-form", "prefixed-link", "unknown-name",
            "indeterminate-link"])
    def test_a_malformed_file_is_refused(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_template(text, ["x", "c"])

    def test_a_prefixed_line_after_a_form_is_a_form(self):
        tpl = parse_template("(a*X + 1)/(1 - b*C)\ntemplate: (d*X)/(1 - e*C)\n", ["x", "c"])
        assert tpl.parameters == ("d", "e")

    def test_a_product_of_parameters_is_solved(self):
        # p*q = 1 has a family of solutions and nothing to factor: the 0/1
        # value branching picks p = 1
        tpl = parse_template("(p*q + 2*X)/(2 - C)", GEO.variables)
        assert build_system(tpl, GEO.body, G_X).numerator == ()
        res = synthesize(GEO.body, G_X, SynthesisConfig(user_template=tpl))
        assert res.kind == CertificateKind.EXACT_POSTERIOR
        assert equal(res.invariant, OCC)

    def test_a_valuation_that_zeroes_the_denominator_is_reported(self, monkeypatch, corpus):
        # the template holds (2 + X)/(2 - X) at e = 2, d = -1, but its
        # equations are homogeneous in the parameters and the solver's 0/1
        # branching finds only e = 0: five valuations leave a denominator
        # d*X, and b = d = 1 cancels to the constant 1, which is refuted
        ast, _, _, _ = corpus["faulty_decrement"]
        g = parse_closed_form("1/(2 - X)", ast.variables)
        tpl = parse_template("(a + b*X)/(e + d*X)", ast.variables)
        found = []
        real = solve_system
        monkeypatch.setattr(synthesis, "solve_system",
                            lambda system: found.extend(real(system)) or found)
        res = synthesize(ast.body, g, SynthesisConfig(user_template=tpl))
        assert len(found) == 6 and all(v.assignment["e"] == 0 for v in found)
        assert isinstance(res, Failure) and res.stage == "instantiate"
        lines = [line.removeprefix("template user (a + X*b)/(e + X*d): ")
                 for line in res.diagnostics]
        assert sorted(lines) == ["valuation makes denominator invalid"] * 5 \
            + ["verification verdict refuted"]


class TestAnalyzeProgram:
    def test_sequential_pipeline_reports_positivity_failure(self, corpus):
        ast, init, expected, _ = corpus["sequential_loops"]
        analysis = analyze_program(ast, init, SynthesisConfig(max_den_degree=2))
        assert analysis.failure is not None
        assert analysis.failure.stage == "positivity"
        paper_form = normalize(2 * C, C * C - 3 * C + 2) + from_poly(ONE)
        assert equal(analysis.failure.candidate, paper_form)
        loops = [s for s in analysis.segments if s.kind == "loop"]
        assert loops[0].outcome.kind == CertificateKind.EXACT_POSTERIOR

    def test_nested_loops_rejected(self):
        ast = parse("nat x;\nwhile (x > 0) { while (x > 1) { x := x - 1 }; x := x - 1 }")
        analysis = analyze_program(ast, G_X, SynthesisConfig())
        assert analysis.failure is not None and analysis.failure.stage == "structure"

    LOOP = "while (x = 1) { { c := c + 1 } [1/2] { x := 0 } }"

    def test_straight_line_segments_thread_the_measure(self):
        ast = parse(f"nat x; nat c; x := 1; {self.LOOP}; c := c + 1")
        analysis = analyze_program(ast, from_poly(ONE), SynthesisConfig(max_den_degree=1))
        assert analysis.failure is None and analysis.certificate is not None
        assert [s.kind for s in analysis.segments] == ["straight", "loop", "straight"]
        assert analysis.certificate.kind == CertificateKind.EXACT_POSTERIOR
        assert equal(analysis.certificate.invariant, OCC)
        assert equal(analysis.final_measure, normalize(C, 2 - C))

    def test_a_straight_line_segment_that_diverges_fails_at_semantics(self):
        ast = parse(f"nat x; nat c; x := 0; {self.LOOP}")
        analysis = analyze_program(ast, normalize(ONE, 1 - X), SynthesisConfig())
        assert analysis.failure.stage == "semantics"
        assert "series diverges when summing over x" in analysis.failure.message
        assert analysis.certificate is None and analysis.final_measure is None

    def test_a_loop_under_a_conditional_is_rejected(self):
        ast = parse("nat x; if (x = 0) { while (x < 3) { x := x + 1 } } else { skip }")
        analysis = analyze_program(ast, G_X, SynthesisConfig())
        assert analysis.failure is not None and analysis.failure.stage == "structure"

    def test_an_exhausted_solver_budget_fails_at_solve(self, corpus, monkeypatch):
        monkeypatch.setattr(synthesis, "BRANCH_LIMIT", 0)
        ast, init, expected, _ = corpus["random_walk"]
        res = analyze_program(ast, init, SynthesisConfig(max_den_degree=expected["max_degree"]))
        assert res.failure.stage == "solve"
        assert res.failure.diagnostics[-1].endswith(": solver exceeded budget (3 eqs x 0)")
