"""Acceptance suite: one test per criterion, exact rational checks throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.  Every expectation is exact (zero tolerance); runtime targets are
desk scale.
"""

import random
import time
from fractions import Fraction as F

import pytest

from gfinv import program as P
from gfinv.algebra import (
    ClosedForm,
    Polynomial,
    const,
    equal,
    format_closed_form,
    from_poly,
    instantiate,
    normalize,
    parse_closed_form,
    series_expand,
)
from gfinv.invariant import CertificateKind, Verdict, certify
from gfinv.oracle import (
    FiniteChain,
    best_contraction_bound,
    chain_occupation,
    chain_posterior,
    exec_loopfree,
    kleene_iterate,
    measure_from_closed_form,
)
from gfinv.program import While, parse, top_level_segments
from gfinv.semantics import apply_statement, char_functional, restrict_guard
from gfinv.synthesis import (
    Failure,
    SynthesisConfig,
    Template,
    analyze_program,
    parse_template,
    synthesize,
)

from support import crosscheck

ONE = Polynomial.const(1)
X = Polynomial.var("x")
C = Polynomial.var("c")


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance {criterion}] {status} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def corpus_results(corpus):
    """Run every benchmark once, as configured by its expected.json."""
    results = {}
    for name, (ast, init, expected, d) in sorted(corpus.items()):
        t0 = time.monotonic()
        if expected["mode"] == "check":
            cand = parse_closed_form((d / expected["invariant_file"]).read_text(),
                                     ast.variables)
            loop = next(s for s in top_level_segments(ast) if isinstance(s, While))
            verdict, cert = certify(loop, init, cand)
            results[name] = ("check", verdict, cert, time.monotonic() - t0)
        else:
            cfg = SynthesisConfig(max_den_degree=expected.get("max_degree", 3))
            if "template" in expected:
                cfg.user_template = parse_template(
                    (d / expected["template"]).read_text(), ast.variables)
            analysis = analyze_program(ast, init, cfg)
            results[name] = ("synthesize", None, analysis, time.monotonic() - t0)
    return results


class TestCriterion1:
    def test_geometric_loop_exact(self):
        ast = parse("nat x; nat c;\nwhile (x = 1) { { c := c + 1 } [1/2] { x := 0 } }")
        res = synthesize(ast.body, from_poly(X), SynthesisConfig(max_den_degree=1))
        want_inv = normalize(ONE + 2 * X, 2 - C)
        want_post = normalize(ONE, 2 - C)
        ok = (res.kind == CertificateKind.EXACT_POSTERIOR
              and equal(res.invariant, want_inv)
              and equal(res.posterior, want_post)
              and res.mass_invariant.finite and res.mass_invariant.value == 3
              and res.ert_upper_bound.finite and res.ert_upper_bound.value == 3)
        report(1, ok, "geometric: invariant (1+2*X)/(2-C), posterior 1/(2-C), "
                      "mass 3, ert 3")


def powers_of_two_mod(n, limit=64):
    return [pow(2, k, n) for k in range(limit)]


def tau_n(n):
    """Brute-force instantiation from the residue sequence of powers of two."""
    seq = powers_of_two_mod(n)

    def first_occ(i):
        return next((k for k, r in enumerate(seq) if r == i % n), None)

    def loop_occ(i):
        return next((l for l in range(1, 65) if (i * pow(2, l, n)) % n == i % n),
                    None)

    out = {}
    for i in range(1, 2 * n):
        if first_occ(i) is None:
            continue
        if i < n:
            f, l = first_occ(i), loop_occ(i)
            geo = F(1) if l is None else 1 / (1 - F(1, 2) ** l)
            out[i] = F(1, 2) ** f * geo
        elif i % 2 == 0 and (i // 2) in out:
            out[i] = F(1, 2) * out[i // 2]
        else:
            out[i] = F(0)
    return out


def fdr_candidate(n, tau):
    Cv = lambda k: Polynomial.var("c", k)
    geom = lambda i: sum((Cv(k) for k in range(1, i)), Polynomial.const(1))
    acc = Polynomial()
    for i, a in tau.items():
        if not a:
            continue
        if i < n:
            acc = acc + Polynomial.var("v", i) * geom(i) * a
        else:
            acc = acc + Polynomial.var("f") * Polynomial.var("v", i) * geom(n) * a
    return from_poly(acc)


class TestCriterion2:
    def test_fast_dice_roller_six(self, corpus):
        ast, init, expected, d = corpus["fast_dice_roller"]
        tau = tau_n(6)
        assert tau[1] == 1 and tau[2] == F(2, 3) and tau[4] == F(1, 3) \
            and tau[8] == F(1, 6)
        candidate = fdr_candidate(6, tau)
        # the stored invariant file is this same instantiation
        stored = parse_closed_form((d / "invariant.gf").read_text(), ast.variables)
        assert equal(candidate, stored)
        loop = next(s for s in top_level_segments(ast) if isinstance(s, While))
        verdict, cert = certify(loop, init, candidate)
        from gfinv.semantics import marginalize
        marginal = marginalize(marginalize(cert.posterior, "v"), "f")
        want = normalize(ONE - Polynomial.var("c", 6), (ONE - C) * 6)
        ok = (verdict == Verdict.EXACT
              and cert.kind == CertificateKind.EXACT_POSTERIOR
              and cert.mass_posterior == 1
              and equal(marginal, want))
        report(2, ok, "FDR(6): exact invariant, mass-1 posterior, marginal "
                      "(1/6)(1-C^6)/(1-C)")


class TestCriterion3:
    def test_corpus_outcomes(self, corpus, corpus_results):
        failures = []

        def expect(cond, msg):
            if not cond:
                failures.append(msg)

        auto = ["geometric", "faulty_decrement", "cond_and_corrected",
                "random_walk", "thirds_geometric"]
        for name in auto:
            mode, _, analysis, _ = corpus_results[name]
            cert = analysis.certificate
            expect(cert is not None, f"{name}: no invariant found")
        user = ["modulo_geometric", "random_walk_counter"]
        for name in user:
            mode, _, analysis, _ = corpus_results[name]
            cert = analysis.certificate
            expect(cert is not None
                   and cert.kind == CertificateKind.EXACT_POSTERIOR,
                   f"{name}: user template did not certify")
        # solved parameter values of the user templates
        ast, init, expected, d = corpus["random_walk_counter"]
        from gfinv.synthesis import build_system, solve_system
        tpl = parse_template((d / "template.txt").read_text(), ast.variables)
        loop = next(s for s in top_level_segments(ast) if isinstance(s, While))
        vals = solve_system(build_system(tpl, loop, init))
        expect(any(v.assignment == {"a": F(1), "b": F(1), "d": F(-1)}
                   for v in vals),
               "random_walk_counter: expected solution a=1, b=1, d=-1")
        ast, init, expected, d = corpus["modulo_geometric"]
        tpl = parse_template((d / "template.txt").read_text(), ast.variables)
        expect(tpl.parameters == ("f",),
               "modulo_geometric: links must leave only the scale parameter f")

        # expected closed forms, exactly
        for name, (ast, init, expected, d) in corpus.items():
            mode, verdict, res, _ = corpus_results[name]
            cert = res if mode == "check" else res.certificate
            for key, attr in (("invariant", "invariant"), ("posterior", "posterior")):
                if expected.get(key) and cert is not None:
                    want = parse_closed_form(expected[key], ast.variables)
                    got = getattr(cert, attr)
                    expect(got is not None and equal(got, want),
                           f"{name}: {key} mismatch")

        mode, _, analysis, _ = corpus_results["nontermination"]
        expect(analysis.failure is not None
               and any("infinite coefficient" in diag
                       for diag in analysis.failure.diagnostics),
               "nontermination: missing no-finite-invariant diagnostic")

        mode, _, analysis, _ = corpus_results["sequential_loops"]
        paper_form = normalize(2 * C, C * C - 3 * C + 2) + const(1)
        expect(analysis.failure is not None
               and analysis.failure.stage == "positivity"
               and analysis.failure.candidate is not None
               and equal(analysis.failure.candidate, paper_form),
               "sequential_loops: positivity stage must report 2C/(C^2-3C+2)+1")

        mode, _, analysis, _ = corpus_results["random_walk_counter_unbounded"]
        expect(analysis.failure is not None,
               "unbounded counter walk: expected synthesis failure")

        report(3, not failures, "corpus outcomes" + ("" if not failures else
                                                     ": " + "; ".join(failures)))


class TestCorpusExpectations:
    """Each corpus program meets its expected.json: the outcome, the closed
    forms, the masses and the verdict it names."""

    def test_expected_json(self, bench_name, corpus, corpus_results):
        ast, init, expected, d = corpus[bench_name]
        mode, verdict, res, _ = corpus_results[bench_name]
        cert, failure = (res, None) if mode == "check" else (res.certificate, res.failure)
        if failure is not None:
            outcome = f"failure:{failure.stage}"
        else:
            outcome = cert.kind.value if cert is not None else "none"
        want = expected["outcome"]
        assert outcome.startswith("failure:") if want == "failure" else outcome == want
        for key in ("invariant", "posterior"):
            if expected.get(key):
                assert equal(getattr(cert, key), parse_closed_form(expected[key], ast.variables))
        if "candidate" in expected:
            assert equal(failure.candidate,
                         parse_closed_form(expected["candidate"], ast.variables))
        if "diagnostic_contains" in expected:
            assert any(expected["diagnostic_contains"] in m for m in failure.diagnostics)
        for key in ("mass_invariant", "ert_upper_bound"):
            if key in expected:
                assert str(getattr(cert, key)) == expected[key]
        if "verdict" in expected:
            assert verdict.value == expected["verdict"]


class TestCriterion4:
    def test_oracle_soundness_sweep(self, corpus, corpus_results):
        t0 = time.monotonic()
        checked = 0
        failures = []
        for name, (ast, init, expected, d) in sorted(corpus.items()):
            mode, verdict, res, _ = corpus_results[name]
            if mode == "check":
                segs = []
                if res is not None:
                    loop = next(s for s in top_level_segments(ast)
                                if isinstance(s, While))
                    segs = [(loop, init, res)]
            else:
                segs = [(s.loop, s.initial, s.outcome) for s in res.segments
                        if s.kind == "loop" and hasattr(s.outcome, "kind")]
            for loop, g, cert in segs:
                if cert is None or cert.posterior is None:
                    continue
                vars = list(ast.variables)
                m = measure_from_closed_form(g, 24, vars)
                kl = kleene_iterate(loop, m, vars, 30, support_cap=40)
                rep = crosscheck(cert.posterior, kl.post_lower, 30, vars)
                checked += 1
                if not rep.ok:
                    failures.append(f"{name}: {len(rep.violations)} violations")
                if rep.max_gap > rep.residual:
                    failures.append(f"{name}: gap {rep.max_gap} > residual "
                                    f"{rep.residual}")
                # the invariant itself must dominate the occupation lower bound
                inv_rep = crosscheck(cert.invariant, kl.occ_lower, 30, vars)
                if not inv_rep.ok:
                    failures.append(f"{name}: invariant below occupation bound")
        elapsed = time.monotonic() - t0
        ok = not failures and checked >= 10 and elapsed < 300
        report(4, ok, f"{checked} certificates cross-checked at K=30 "
                      f"in {elapsed:.1f}s" + ("" if not failures else
                                              ": " + "; ".join(failures)))


class TestCriterion5:
    def test_appendix_chain_reproduction(self, corpus):
        import io
        import json as _json
        from gfinv.cli import run
        from pathlib import Path
        chain_file = Path(__file__).resolve().parent.parent / "benchmarks/appendix_chain.txt"
        chain = FiniteChain.parse(chain_file.read_text())
        occ = chain_occupation(chain)
        bound = best_contraction_bound(chain, F(1, 2))
        post = chain_posterior(chain, occ)
        buf = io.StringIO()
        rc = run(["chain", str(chain_file), "--contraction", "1/2"], out=buf)
        repj = _json.loads(buf.getvalue())
        ok = (occ == {"s1": F(3, 2), "s2": F(1, 2), "s3": F(1, 2)}
              and bound == {"s1": F(0), "s2": F(4, 3), "s3": F(4, 3)}
              and post == {"s2": F(1, 2), "s3": F(1, 2)}
              and repj["occupation_improves_contraction"] is True)
        report(5, ok, "chain occupation (3/2,1/2,1/2); contraction bound "
                      "(0,4/3,4/3); improvement flagged")


def random_poly(rng, vars, max_terms=4, max_exp=3, signed=True):
    p = Polynomial()
    for _ in range(rng.randrange(1, max_terms + 1)):
        mono = tuple(sorted({v: rng.randrange(0, max_exp + 1) for v in
                             rng.sample(vars, rng.randrange(1, len(vars) + 1))
                             }.items()))
        mono = tuple((v, e) for v, e in mono if e)
        c = F(rng.randrange(1, 6), rng.randrange(1, 4))
        if signed and rng.random() < 0.5:
            c = -c
        p = p + Polynomial.monomial(mono, c)
    return p


def random_nonneg_poly_form(rng, vars, degree=6):
    p = Polynomial()
    for _ in range(rng.randrange(1, 5)):
        exps = {v: rng.randrange(0, 3) for v in vars}
        while sum(exps.values()) > degree:
            exps = {v: rng.randrange(0, 3) for v in vars}
        mono = tuple(sorted((v, e) for v, e in exps.items() if e))
        p = p + Polynomial.monomial(mono, F(rng.randrange(1, 5), rng.randrange(1, 4)))
    if p.is_zero():
        p = Polynomial.const(1)
    return from_poly(p)


class TestCriterion6:
    def test_property_suites(self, corpus):
        failures = []
        rng = random.Random(20260810)

        # ring laws: 1000 random cases
        for _ in range(1000):
            p = random_poly(rng, ["x", "c"])
            q = random_poly(rng, ["x", "c"])
            r = random_poly(rng, ["x", "c"])
            if (p + q) + r != p + (q + r) or p * q != q * p \
                    or p * (q + r) != p * q + p * r:
                failures.append("ring law violated")
                break

        # restriction partition identity on every corpus guard
        forms = [normalize(ONE + 2 * X, 2 - C), from_poly(X * C + ONE),
                 normalize(ONE, 4 - X - C)]
        for name, (ast, _, _, _) in corpus.items():
            for guard in _guards(ast):
                for f in forms:
                    if not equal(restrict_guard(f, guard)
                                 + restrict_guard(f, P.Not(guard)), f):
                        failures.append(f"partition identity: {name}")

        # linearity of the statement transformer: 200 random cases
        stmts = _corpus_loop_bodies(corpus)
        for i in range(200):
            name, body, vars = stmts[i % len(stmts)]
            f = random_nonneg_poly_form(rng, vars)
            g = random_nonneg_poly_form(rng, vars)
            a, b = F(rng.randrange(0, 4), 3), F(rng.randrange(0, 4), 3)
            lhs = apply_statement(body, f * a + g * b)
            rhs = apply_statement(body, f) * a + apply_statement(body, g) * b
            if not equal(lhs, rhs):
                failures.append(f"linearity: {name}")
                break

        # semantics vs oracle on every loop-free corpus body, degree 8
        for name, body, vars in stmts:
            for _ in range(3):
                f = random_nonneg_poly_form(rng, vars, degree=8)
                symbolic = apply_statement(body, f)
                m = measure_from_closed_form(f, 8 + f.num.total_degree(), vars)
                pushed = exec_loopfree(body, m, vars, support_cap=64)
                assert pushed.residual == 0
                top = max((sum(s) for s in pushed.entries), default=0)
                got = series_expand(symbolic, max(top, 8), order=vars)
                want = {tuple(sorted((v, e) for v, e in zip(vars, s) if e)): c
                        for s, c in pushed.entries.items()}
                if got != want:
                    failures.append(f"oracle equivalence: {name}")
                    break

        # scaling-quotient identity: 100 random scalings
        names = ["a0", "a1", "a2", "a3", "b0", "b1", "b2"]
        a0, a1, a2, a3, b0, b1, b2 = [Polynomial.var("$" + n) for n in names]
        tpl = ClosedForm(a0 + a1 * X + a2 * C + a3 * X * X, b0 + b1 * X + b2 * C)
        tau = {"a0": F(1), "a1": F(2), "a2": F(0), "a3": F(0),
               "b0": F(2), "b1": F(0), "b2": F(-1)}
        f0 = instantiate(tpl, tau)
        for _ in range(100):
            k = F(rng.randrange(1, 9), rng.randrange(1, 9)) * rng.choice([1, -1])
            if not equal(instantiate(tpl, {p: v * k for p, v in tau.items()}), f0):
                failures.append("scaling quotient")
                break

        report(6, not failures,
               "ring laws (1000), partition identity, linearity (200), "
               "oracle equivalence (deg 8), scaling quotient (100)"
               + ("" if not failures else ": " + "; ".join(sorted(set(failures)))))


def _guards(ast):
    out = []

    def walk(s):
        if isinstance(s, P.While):
            out.append(s.guard)
            walk(s.body)
        elif isinstance(s, P.IfThenElse):
            out.append(s.guard)
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


def _corpus_loop_bodies(corpus):
    out = []
    for name, (ast, _, _, _) in sorted(corpus.items()):
        for seg in top_level_segments(ast):
            if isinstance(seg, While):
                if not any(isinstance(s, (While, P.Diverge)) for s in P._stmts(seg.body)):
                    out.append((name, seg.body, list(ast.variables)))
    return out
