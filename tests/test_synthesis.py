import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfinv import synthesis
from gfinv.algebra import (
    ClosedForm,
    Polynomial,
    equal,
    format_closed_form,
    from_poly,
    instantiate,
    mono_key,
    normalize,
    series_expand,
    shape_nonneg,
)
from gfinv.invariant import CertificateKind
from gfinv.program import While, parse, top_level_segments
from gfinv.synthesis import (
    Failure,
    PolySystem,
    SolverBudgetExceeded,
    SynthesisConfig,
    Template,
    analyze_program,
    build_system,
    enumerate_templates,
    export_smtlib,
    import_smt_model,
    parse_template,
    solve_system,
    synthesize,
    _factor_poly,
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

    def test_each_distinct_polynomial_is_factored_once(self, monkeypatch):
        walk = parse("nat x;\nwhile (x > 0 && x < 3) { {x := x - 1} [1/2] {x := x + 1} }")
        tpl = list(enumerate_templates(["x"], 3))[3]
        system = build_system(tpl, walk.body, G_X)
        seen = []

        def counting(p):
            seen.append(frozenset(p.terms.items()))
            return _factor_poly(p)

        monkeypatch.setattr(synthesis, "_factor_poly", counting)
        with pytest.raises(SolverBudgetExceeded):
            solve_system(system)
        assert seen and len(seen) == len(set(seen))

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

    def test_past_deadline_raises(self):
        system = PolySystem((Polynomial.var("$a") * Polynomial.var("$b") - 1,), ("a", "b"))
        with pytest.raises(TimeoutError):
            solve_system(system, deadline=0.0)
        with pytest.raises(TimeoutError):
            _row_reduce(list(system.equations), deadline=0.0)

    def test_solver_soundness_on_random_systems(self):
        rng = random.Random(11)
        names = ["$a", "$b", "$c"]
        for _ in range(25):
            eqs = []
            for _ in range(rng.randrange(1, 4)):
                p = Polynomial.zero()
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
        out = Polynomial.zero()
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
        combo = Polynomial.zero()
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

    def test_solver_honours_the_deadline(self, corpus):
        # without a deadline, the solver spends about 6 s exhausting its budget
        # on the automatic degree-3 template on sequential_loops' first loop
        ast, init, _, _ = corpus["sequential_loops"]
        loop = next(s for s in top_level_segments(ast) if isinstance(s, While))
        tpl = list(enumerate_templates(["c", "x"], 3))[3]
        start = time.monotonic()
        res = synthesize(loop, init, SynthesisConfig(timeout_s=2.0, user_template=tpl))
        assert time.monotonic() - start < 2.0 + 2
        assert isinstance(res, Failure) and res.stage == "timeout"
        assert any("timeout reached while solving" in d for d in res.diagnostics)


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


class TestSmtLib:
    def test_export_shape(self):
        system = PolySystem((Polynomial.var("$a") * Polynomial.var("$b") - 2,
                             Polynomial.var("$a") + F(1, 2)), ("a", "b"))
        text = export_smtlib(system)
        assert "(set-logic QF_NRA)" in text
        assert "(declare-const a Real)" in text
        assert "(declare-const b Real)" in text
        assert text.count("(assert (= ") == 2
        assert "(check-sat)" in text and "(get-model)" in text

    def test_model_import(self):
        model = """
        sat
        (model
          (define-fun a () Real (- (/ 1 2)))
          (define-fun b () Real (- 4.0))
        )
        """
        val = import_smt_model(model, ["a", "b", "missing"])
        assert val.assignment["a"] == F(-1, 2)
        assert val.assignment["b"] == F(-4)
        assert val.assignment["missing"] == 0
        assert val.free == ("missing",)


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
