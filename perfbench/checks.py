"""Correctness checks of gfinv's outputs, made apart from gfinv's algebra.

Closed forms are compared with sympy and expanded into power series by the
few lines below; neither uses gfinv's polynomial or closed-form code.  Ground
truth for certificates is the Kleene lower bound of gfinv's sparse-measure
oracle (acceptance Criterion 4, K = 30), which executes the program on finite
measures and shares no code with the closed-form semantics.

A check returns None when the output is right, or the reason it is wrong.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Tuple

import sympy

from gfinv import oracle
from gfinv.algebra import indet_symbol
from gfinv.program import While, top_level_segments

KLEENE_STEPS = 30
KLEENE_CAP = 40
INIT_DEGREE = 24
WITNESS_DEGREES = (12, 25)
CERT_KINDS = ("ExactPosterior", "ExactInvariant", "Superinvariant", "PastWitness",
              "UpperBoundOnly")

Poly = Dict[Tuple[int, ...], Fraction]


class CheckError(Exception):
    pass


# -- forms ------------------------------------------------------------------

class Forms:
    """Closed forms over one program's variables, as sympy expressions."""

    def __init__(self, variables):
        self.variables = list(variables)
        self.symbols = [sympy.Symbol(v) for v in self.variables]
        self.names = {indet_symbol(v, self.variables): s
                      for v, s in zip(self.variables, self.symbols)}

    def parse(self, text: str):
        expr = sympy.parse_expr(text.replace("^", "**"), local_dict=dict(self.names))
        extra = expr.free_symbols - set(self.symbols)
        if extra:
            raise CheckError(f"unknown names {sorted(map(str, extra))} in {text!r}")
        return expr

    def of_closed_form(self, cf):
        """A gfinv ClosedForm, read from its term dictionaries."""
        sym = dict(zip(self.variables, self.symbols))

        def poly(p):
            return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                               * sympy.Mul(*[sym[v] ** e for v, e in mono])
                               for mono, c in p.terms.items()])
        return poly(cf.num) / poly(cf.den)

    def polys(self, expr) -> Tuple[Poly, Poly]:
        num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
        return self._poly(num), self._poly(den)

    def _poly(self, e) -> Poly:
        p = sympy.Poly(e, *self.symbols)
        if p.domain not in (sympy.ZZ, sympy.QQ):
            raise CheckError(f"non-rational coefficients in {e}")
        return {m: Fraction(int(c.p), int(c.q)) for m, c in p.terms()}

    def series(self, expr, degree: int) -> Poly:
        """Power-series coefficients up to total degree `degree`."""
        num, den = self.polys(expr)
        n = len(self.variables)
        d0 = den.get((0,) * n)
        if not d0:
            raise CheckError(f"{expr} has no power series at 0")
        rest = [(e, c) for e, c in den.items() if any(e)]
        out: Poly = {}
        for m in monomials(n, degree):
            acc = num.get(m, Fraction(0))
            for e, c in rest:
                k = tuple(a - b for a, b in zip(m, e))
                if min(k) >= 0 and k in out:
                    acc -= c * out[k]
            if acc:
                out[m] = acc / d0
        return out

    def mass(self, expr) -> Optional[Fraction]:
        """Value at all variables = 1, or None when it is infinite."""
        v = sympy.cancel(sympy.together(expr)).subs({s: 1 for s in self.symbols})
        if not v.is_Rational:
            return None
        return Fraction(int(v.p), int(v.q))

    def equal(self, a, b) -> bool:
        return sympy.cancel(sympy.together(a - b)) == 0


def monomials(n: int, degree: int):
    """Exponent vectors of n variables in order of total degree."""
    for total in range(degree + 1):
        for bars in combinations(range(total + n - 1), n - 1):
            prev, exps = -1, []
            for b in bars + (total + n - 1,):
                exps.append(b - prev - 1)
                prev = b
            yield tuple(exps)


def parse_mass(text) -> Optional[Fraction]:
    return None if text in (None, "oo") else Fraction(text)


def parse_monomial(key: str, variables) -> Tuple[int, ...]:
    names = {indet_symbol(v, variables): i for i, v in enumerate(variables)}
    exps = [0] * len(variables)
    if key != "1":
        for factor in key.split("*"):
            name, _, e = factor.partition("^")
            exps[names[name]] += int(e or 1)
    return tuple(exps)


# -- outputs in one shape -----------------------------------------------------

def _cert(loop, g, kind, invariant, posterior, masses, ert) -> Dict:
    return {"loop": loop, "g": g, "kind": kind, "invariant": invariant,
            "posterior": posterior, "masses": masses, "ert": ert}


def from_certificate(forms: Forms, loop, g, cert) -> Dict:
    def s(m):
        return None if m is None else str(m)
    post = None if cert.posterior is None else forms.of_closed_form(cert.posterior)
    return _cert(loop, g, cert.kind.value, forms.of_closed_form(cert.invariant), post,
                 {"initial": s(cert.mass_initial), "invariant": s(cert.mass_invariant),
                  "posterior": s(cert.mass_posterior)}, s(cert.ert_upper_bound))


def from_analysis(op, forms: Forms, analysis) -> Dict:
    if analysis.failure is not None:
        outcome = f"failure:{analysis.failure.stage}"
    elif analysis.certificate is not None:
        outcome = analysis.certificate.kind.value
    else:
        outcome = "no-loop"
    certs, top = [], None
    for seg in analysis.segments:
        if seg.kind == "loop" and hasattr(seg.outcome, "kind"):
            certs.append(from_certificate(forms, seg.loop, forms.of_closed_form(seg.initial),
                                          seg.outcome))
            if seg.outcome is analysis.certificate:
                top = certs[-1]
    return {"outcome": outcome, "verdict": None, "cert": top, "certs": certs}


def from_certify(op, forms: Forms, result) -> Dict:
    verdict, cert = result
    out = {"outcome": cert.kind.value if cert else f"not-certified:{verdict.value}",
           "verdict": verdict.value, "cert": None, "certs": []}
    if cert is not None:
        out["cert"] = from_certificate(forms, single_loop(op.program),
                                       forms.parse(op.init), cert)
        out["certs"] = [out["cert"]]
    return out


def from_report(op, forms: Forms, report: Dict) -> Dict:
    out = {"outcome": report.get("outcome"), "verdict": report.get("verdict"),
           "cert": None, "certs": []}
    if out["outcome"] in CERT_KINDS:
        post = report.get("posterior")
        out["cert"] = _cert(single_loop(op.program), forms.parse(op.init), out["outcome"],
                            forms.parse(report["invariant"]),
                            None if post is None else forms.parse(post),
                            report.get("masses", {}), report.get("ert_upper_bound"))
        out["certs"] = [out["cert"]]
    return out


def single_loop(ast):
    return next(s for s in top_level_segments(ast) if isinstance(s, While))


# -- the checker ----------------------------------------------------------------

class Checker:
    """Checks outputs; each distinct (operation, output) is checked once."""

    def __init__(self):
        self._forms: Dict[int, Forms] = {}
        self._kleene: Dict[tuple, object] = {}
        self._memo: Dict[tuple, Optional[str]] = {}

    def forms(self, ast) -> Forms:
        if id(ast) not in self._forms:
            self._forms[id(ast)] = Forms(ast.variables)
        return self._forms[id(ast)]

    # in-process outputs ------------------------------------------------------
    def check_inprocess(self, op, result) -> str:
        """'ok', 'failed' (a named fault refused the input) or 'wrong: ...'."""
        key = (op.name, output_key(result))
        if key not in self._memo:
            self._memo[key] = self._guard(lambda: self._inprocess(op, result))
        return self._status(op, key)

    def _inprocess(self, op, result):
        forms = self.forms(op.program)
        res = (from_analysis(op, forms, result) if op.kind == "synthesize"
               else from_certify(op, forms, result))
        return self._answer(op, forms, res)

    # CLI outputs -----------------------------------------------------------------
    def check_cli(self, op, code: int, stdout: str, stderr: str) -> str:
        try:
            report = json.loads(stdout) if stdout.strip() else None
        except ValueError:
            report = stdout
        if isinstance(report, dict):
            report = {k: v for k, v in report.items() if k != "timing"}
        key = (op.name, code, json.dumps(report, sort_keys=True), stderr)
        if key not in self._memo:
            self._memo[key] = self._guard(lambda: self._cli(op, code, report, stderr))
        return self._status(op, key)

    def _cli(self, op, code, report, stderr):
        if op.kind == "malformed":
            lines = stderr.strip().splitlines()
            if code == 1 and report is None and len(lines) == 1 \
                    and lines[0].startswith("gfinv: error:"):
                return None
            return (f"REFUSAL: exit {code}, {len(lines)} stderr line(s), "
                    f"stdout {'empty' if report is None else 'not empty'}")
        if not isinstance(report, dict):
            return f"exit {code} without a JSON report: {stderr.strip()[-200:]}"
        if op.kind == "unroll":
            return self._unroll(op, report) or _exit_code(code, 0)
        if op.kind == "expand":
            return self._expand(op, report) or _exit_code(code, 0)
        if op.kind == "chain":
            return self._chain(op, report) or _exit_code(code, 0)
        forms = self.forms(op.program)
        res = from_report(op, forms, report)
        want = 0 if res["outcome"] == "ExactPosterior" else 2
        return self._answer(op, forms, res) or _exit_code(code, want)

    # shared -------------------------------------------------------------------------
    def _guard(self, fn) -> Optional[str]:
        try:
            return fn()
        except (CheckError, KeyError, ValueError, TypeError, sympy.SympifyError) as e:
            return f"unreadable output: {type(e).__name__}: {e}"

    def _status(self, op, key) -> str:
        reason = self._memo[key]
        if reason is None:
            return "ok"
        if op.fault and reason.startswith("REFUSAL"):
            return "failed"
        return "wrong: " + reason

    def _answer(self, op, forms: Forms, res) -> Optional[str]:
        for cert in res["certs"]:
            why = self.certificate(forms, cert)
            if why:
                return why
        if op.kind == "certify":
            why = self._verdict(op, forms, res)
            if why:
                return why
        return self.expected(op, forms, res)

    def expected(self, op, forms: Forms, res) -> Optional[str]:
        ans, outcome, cert = op.expect, res["outcome"], res["cert"]
        if not ans:
            return None
        want = ans["outcome"]
        if want == "failure":
            return None if outcome.startswith("failure:") else \
                f"{outcome} on an input proven to have no certificate"
        if want.startswith("failure:"):
            # the committed expectation is a refusal; a certificate that passed
            # the checks above is accepted too
            return None if outcome == want or cert is not None else \
                f"{outcome}, expected {want} or a sound certificate"
        if outcome != want:
            prefix = "REFUSAL: " if outcome.startswith("failure:") else ""
            return f"{prefix}{outcome}, expected {want}"
        if ans.get("verdict") and res["verdict"] != ans["verdict"]:
            return f"verdict {res['verdict']}, expected {ans['verdict']}"
        for key in ("invariant", "posterior"):
            if key in ans and (cert[key] is None
                               or not forms.equal(cert[key], forms.parse(ans[key]))):
                return f"{key} {cert[key]} differs from {ans[key]}"
        if "mass_invariant" in ans and parse_mass(cert["masses"].get("invariant")) \
                != parse_mass(ans["mass_invariant"]):
            return f"invariant mass {cert['masses'].get('invariant')} != {ans['mass_invariant']}"
        if "ert_upper_bound" in ans and cert["ert"] != ans["ert_upper_bound"]:
            return f"ert bound {cert['ert']} != {ans['ert_upper_bound']}"
        return None

    def _verdict(self, op, forms: Forms, res) -> Optional[str]:
        if res["verdict"] == "refuted":
            loop = single_loop(op.program)
            if self.refutation_witness(forms, loop, forms.parse(op.init),
                                       forms.parse(op.candidate)) is None:
                return "refuted without a witness"
        if res["verdict"] in ("exact", "super") and res["cert"] is None:
            return f"verdict {res['verdict']} without a certificate"
        return None

    # ground truth ----------------------------------------------------------------------
    def kleene(self, forms: Forms, loop, g):
        key = (id(loop), sympy.srepr(g))
        if key not in self._kleene:
            coeffs = forms.series(g, INIT_DEGREE)
            total = forms.mass(g)
            if total is None:
                raise CheckError("initial measure has infinite mass")
            m = oracle.SparseMeasure(dict(coeffs), total - sum(coeffs.values(), Fraction(0)))
            self._kleene[key] = oracle.kleene_iterate(loop, m, forms.variables,
                                                      KLEENE_STEPS, support_cap=KLEENE_CAP)
        return self._kleene[key]

    def certificate(self, forms: Forms, cert) -> Optional[str]:
        """Every certificate: its invariant dominates the Kleene occupation
        lower bound and its posterior the posterior lower bound.  An exact
        posterior lies within lower bound + residual and keeps the mass."""
        kl = self.kleene(forms, cert["loop"], cert["g"])
        d = KLEENE_STEPS
        bounds = {"invariant": kl.occ_lower, "posterior": kl.post_lower}
        series = {}
        for what, bound in bounds.items():
            if cert[what] is None:
                continue
            series[what] = forms.series(cert[what], d)
            if any(c < 0 for c in series[what].values()):
                return f"{cert['kind']}: {what} has a negative coefficient"
            for s, low in bound.entries.items():
                if sum(s) <= d and series[what].get(s, Fraction(0)) < low:
                    return f"{cert['kind']}: {what} below the Kleene lower bound at {s}"
        if cert["kind"] != "ExactPosterior":
            return None
        if cert["posterior"] is None:
            return "ExactPosterior without a posterior"
        for s, c in series["posterior"].items():
            if c > kl.post_lower.entries.get(s, Fraction(0)) + kl.residual:
                return f"posterior above Kleene bound + residual at {s}"
        m_g, m_post = forms.mass(cert["g"]), forms.mass(cert["posterior"])
        if m_post != m_g:
            return f"posterior mass {m_post} != initial mass {m_g}"
        masses = cert["masses"]
        if parse_mass(masses.get("posterior")) != m_g or parse_mass(masses.get("initial")) != m_g:
            return f"claimed masses {masses} != initial mass {m_g}"
        return None

    def refutation_witness(self, forms: Forms, loop, g, candidate) -> Optional[str]:
        """A witness that the candidate is no superinvariant: a negative
        coefficient, or a coefficient that Phi exceeds already on the
        candidate's truncated series.  Phi is monotone and the truncation is
        below the candidate, so Phi(I)[s] >= Phi(trunc I)[s] > I[s]."""
        for degree in WITNESS_DEGREES:
            try:
                cs = forms.series(candidate, degree)
            except CheckError:
                return None
            neg = next((s for s, c in cs.items() if c < 0), None)
            if neg is not None:
                return f"negative coefficient at {neg}"
            frontier = {s: c for s, c in cs.items()
                        if oracle.eval_guard(loop.guard, s, forms.variables)}
            pushed = oracle.exec_loopfree(loop.body, oracle.SparseMeasure(frontier),
                                          forms.variables)
            phi = dict(forms.series(g, degree))
            for s, c in pushed.entries.items():
                phi[s] = phi.get(s, Fraction(0)) + c
            for s, c in phi.items():
                if sum(s) <= degree and c > cs.get(s, Fraction(0)):
                    return f"Phi exceeds the candidate at {s}"
        return None

    # CLI-only answers ------------------------------------------------------------------
    def _unroll(self, op, report) -> Optional[str]:
        """Kleene lower bounds lie below the hand-derived invariant and
        posterior, and the posterior's missing mass is within the residual."""
        forms = self.forms(op.program)
        inv, post = forms.parse(op.expect["invariant"]), forms.parse(op.expect["posterior"])
        residual = Fraction(report["residual"])
        if residual < 0:
            return "negative residual"
        got_mass = Fraction(0)
        for field, form in (("occupation_lower", inv), ("posterior_lower", post)):
            lower = {parse_monomial(k, forms.variables): Fraction(v)
                     for k, v in report[field].items()}
            top = max((sum(s) for s in lower), default=0)
            series = forms.series(form, top)
            for s, v in lower.items():
                if v < 0 or v > series.get(s, Fraction(0)):
                    return f"{field} at {s} is {v}, above the true {series.get(s, 0)}"
            if field == "posterior_lower":
                got_mass = sum(lower.values(), Fraction(0))
        total = forms.mass(post)
        if total is not None and total - got_mass > residual:
            return f"posterior mass {total - got_mass} missing, residual only {residual}"
        return None

    def _expand(self, op, report) -> Optional[str]:
        d = op.expect["degree"]
        if op.expect["form"] == "binomial":
            # 1/(1 - X - Y): the coefficient of X^i Y^j is C(i + j, i)
            variables = ["x", "y"]
            want = {(i, j): Fraction(math.comb(i + j, i))
                    for i in range(d + 1) for j in range(d + 1 - i)}
        else:
            # (1 + 2X)/(2 - C) = sum_j C^j / 2^(j+1) + X sum_j C^j / 2^j
            variables = ["c", "x"]
            want = {(j, 0): Fraction(1, 2 ** (j + 1)) for j in range(d + 1)}
            want.update({(j, 1): Fraction(1, 2 ** j) for j in range(d)})
        got = {parse_monomial(k, variables): Fraction(v)
               for k, v in report["coefficients"].items() if Fraction(v)}
        return None if got == want else "expanded coefficients differ from the hand-derived ones"

    def _chain(self, op, report) -> Optional[str]:
        for field, want in op.expect.items():
            got = {s: Fraction(v) for s, v in report.get(field, {}).items()}
            if got != {s: Fraction(v) for s, v in want.items()}:
                return f"{field} {report.get(field)} != {want}"
        if report.get("occupation_improves_contraction") is not True:
            return "the exact posterior should improve on the contraction bound"
        return None


def _exit_code(code: int, want: int) -> Optional[str]:
    return None if code == want else f"exit code {code}, expected {want}"


def output_key(result):
    """A hashable image of an in-process output (ClosedForms by their terms)."""
    def form(cf):
        if cf is None:
            return None
        return (tuple(sorted(cf.num.terms.items())), tuple(sorted(cf.den.terms.items())))

    def cert(c):
        return (c.kind.value, c.verdict.value, form(c.invariant), form(c.posterior),
                str(c.mass_initial), str(c.mass_invariant), str(c.mass_posterior),
                str(c.ert_upper_bound), c.past)

    if isinstance(result, tuple):
        verdict, c = result
        return verdict.value, None if c is None else cert(c)
    segs = tuple((s.kind, cert(s.outcome) if hasattr(s.outcome, "kind") else
                  getattr(s.outcome, "stage", None)) for s in result.segments)
    return segs, getattr(result.failure, "stage", None)


def self_test(checker: Checker, corpus) -> List[str]:
    """Feed the checker two wrong results; returns what it failed to flag."""
    b = next(b for b in corpus if b.name == "geometric")
    forms = checker.forms(b.ast)
    loop, g = single_loop(b.ast), forms.parse(b.init)
    inv = forms.parse(b.expected["invariant"])
    post = forms.parse(b.expected["posterior"])
    missed = []
    halved = _cert(loop, g, "ExactPosterior", inv / 2, post / 2,
                   {"initial": "1", "invariant": "3/2", "posterior": "1"}, "3/2")
    if checker.certificate(forms, halved) is None:
        missed.append("an invariant scaled by 1/2 claimed as ExactPosterior")
    if checker.refutation_witness(forms, loop, g, inv) is not None:
        missed.append("a refuted verdict on the true invariant")
    # the true answers must pass, or the two flags above prove nothing
    true = _cert(loop, g, "ExactPosterior", inv, post,
                 {"initial": "1", "invariant": "3", "posterior": "1"}, "3")
    if checker.certificate(forms, true) is not None:
        missed.append("the true certificate was flagged")
    return missed
