"""Template-based synthesis of occupation invariants.

Templates are rational closed forms whose coefficients are polynomials in
symbolic parameters.  Applying the loop's characteristic functional once and
requiring the fixed-point equation Phi(I) = I, cross-multiplied and compared
coefficient-wise per program monomial, yields a polynomial equation system
over the parameters.  The solver runs staged exact elimination:

  1. substitution of linear equations (Gaussian elimination, repeated as
     substitutions linearize further equations),
  2. rational-root branching on single-parameter equations,
  3. exact row reduction over the parameter-monomial basis (surfaces linear
     consequences of nonlinear equations), on sparse rows,
  4. factor-and-branch (multivariate factorization via sympy, over the
     integers; each distinct polynomial is factored once per solve),
  5. bounded value branching, then 0/1 defaults for leftover free parameters.

Every returned valuation is re-checked against the original system; residual
systems can be exported to SMT-LIB 2 for an external solver and the model
imported back.

Stage 4 is the only user of sympy.  It is imported on the first
factorization, not with this module, so a process that never factors (every
``check``, ``expand``, ``unroll`` and ``chain``, and any synthesis solved by
stages 1-3) does not pay its import time.  sympy stays a hard dependency in
``pyproject.toml`` because that stage needs it.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .algebra import (
    ClosedForm,
    InvalidDenominator,
    Polynomial,
    UnknownSign,
    equal,
    find_negative_coefficient,
    format_closed_form,
    has_parameters,
    instantiate,
    mono_key,
    normalize,
    parse_closed_form_with_params,
    shape_nonneg,
)
from .algebra.closedform import _monomials_upto
from .invariant import Certificate, CertificateKind, Verdict, certify
from . import program as P
from .semantics import SemanticsError, apply_statement, char_functional


class SolverBudgetExceeded(Exception):
    pass


# -- templates -------------------------------------------------------------------

@dataclass(frozen=True)
class Template:
    form: ClosedForm
    parameters: Tuple[str, ...]          # bare names, no $ prefix
    provenance: str                      # "auto(d=..)" or "user"

    def instantiated(self, valuation: Dict[str, Fraction]) -> ClosedForm:
        return instantiate(self.form, valuation)


@dataclass(frozen=True)
class PolySystem:
    equations: Tuple[Polynomial, ...]    # parameter polynomials, each == 0
    parameters: Tuple[str, ...]


@dataclass(frozen=True)
class Valuation:
    assignment: Dict[str, Fraction]
    free: Tuple[str, ...] = ()

    def items(self):
        return self.assignment.items()


def enumerate_templates(variables: Sequence[str], max_den_degree: int) -> Iterator[Template]:
    """Breadth-first template stream: for each denominator total degree d, one
    template with all numerator monomials of degree <= d and all denominator
    monomials of degree <= d, the denominator constant pinned to 1."""
    vs = list(variables)
    for d in range(max_den_degree + 1):
        monos = list(_monomials_upto(vs, d))
        num = Polynomial.zero()
        den = Polynomial.const(1)
        params: List[str] = []
        for i, m in enumerate(monos):
            name = f"a{i}"
            params.append(name)
            num = num + Polynomial.monomial(m) * Polynomial.var("$" + name)
        for i, m in enumerate(monos):
            if m == ():
                continue
            name = f"b{i}"
            params.append(name)
            den = den + Polynomial.monomial(m) * Polynomial.var("$" + name)
        yield Template(ClosedForm(num, den), tuple(params), f"auto(d={d})")


def parse_template(text: str, variables: Sequence[str]) -> Template:
    """Parse a user template file: a closed form plus parameter links.

    Lines: optional ``template:`` prefix for the form; ``name = expr`` links
    pin or tie parameters (expr is polynomial in other parameters); ``#``
    comments.  Links are substituted into the form immediately.
    """
    form: Optional[ClosedForm] = None
    links: List[Tuple[str, str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("template:"):
            line = line[len("template:"):].strip()
            form, _ = parse_closed_form_with_params(line, variables)
        elif "=" in line and form is not None:
            name, expr = line.split("=", 1)
            links.append((name.strip(), expr.strip()))
        else:
            form, _ = parse_closed_form_with_params(line, variables)
    if form is None:
        raise ValueError("template file contains no closed form")
    for name, expr in links:
        link_form, _ = parse_closed_form_with_params(expr, variables)
        if not link_form.is_polynomial():
            raise ValueError(f"link {name} = {expr} must be polynomial in parameters")
        num = form.num.subs_var("$" + name, link_form.num)
        den = form.den.subs_var("$" + name, link_form.num)
        form = ClosedForm(num, den)
    params = tuple(sorted(v[1:] for v in form.vars() if v.startswith("$")))
    return Template(form, params, "user")


# -- equation system --------------------------------------------------------------

def build_system(template: Template, loop: P.While, g: ClosedForm) -> PolySystem:
    """Coefficient comparison of Phi(template) = template.

    The difference Phi(I) - I must vanish; grouping its numerator by
    program-variable monomials yields one parameter-polynomial equation per
    monomial.  Parametric forms are not GCD-reduced, only added over equal
    denominators where they share one (see ``normalize``), so the numerator
    may keep common factors with the denominator.  Such a factor vanishes
    only where a denominator would be identically zero, and such valuations
    are filtered as invalid anyway.
    """
    phi = char_functional(loop, g, template.form)
    diff = phi - template.form
    eqs: Dict[tuple, Polynomial] = {}
    for m, c in diff.num.terms.items():
        prog = tuple(p for p in m if not p[0].startswith("$"))
        par = tuple(p for p in m if p[0].startswith("$"))
        eqs.setdefault(prog, Polynomial.zero())
        eqs[prog] = eqs[prog] + Polynomial.monomial(par, c)
    ordered = [eqs[k] for k in sorted(eqs, key=mono_key)]
    return PolySystem(tuple(ordered), template.parameters)


# -- solver ------------------------------------------------------------------------

@dataclass
class SolverConfig:
    branch_limit: int = 64
    default_values: Tuple[Fraction, ...] = (Fraction(0), Fraction(1))
    max_free_combos: int = 8


def _param_vars(p: Polynomial) -> set:
    return {v for v in p.vars() if v.startswith("$")}


def _is_linear(p: Polynomial) -> bool:
    return p.total_degree() <= 1


def _factor_poly(p: Polynomial) -> List[Polynomial]:
    """Non-unit irreducible factors (multiplicity collapsed).

    Returns [] when factoring brings nothing (irreducible and multiplicity 1).
    The factors, their signs and their order are those of
    ``sympy.factor_list`` on the expression: the monomial content gives one
    factor per parameter, and the rest, cleared of denominators, is factored
    over the integers in sympy's own generator order.
    """
    import sympy  # loaded on first use only; see the module docstring
    from sympy.polys.polyutils import _sort_gens

    vs = sorted(_param_vars(p))
    if not vs:
        return []
    exps = [dict(m) for m in p.terms]
    low = {v: min(e.get(v, 0) for e in exps) for v in vs}
    rest = [v for v in vs if any(e.get(v, 0) != low[v] for e in exps)]
    polys = [Polynomial.var(v) for v in vs if low[v]]
    if rest:
        symbols = {sympy.Symbol(v[1:]): v for v in rest}
        gens = _sort_gens(symbols)  # the order fixes each factor's sign
        names = [symbols[s] for s in gens]
        lcm = 1
        for c in p.terms.values():
            lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
        rep = {tuple(e.get(v, 0) - low[v] for v in names): int(c * lcm)
               for e, c in zip(exps, p.terms.values())}
        try:
            _, factors = sympy.Poly.from_dict(rep, *gens, domain=sympy.ZZ).factor_list()
        except Exception:
            return []
        where = [names.index(v) for v in rest]
        for f, _ in factors:
            # later stages iterate terms in insertion order: lex over the
            # parameters sorted by name
            terms = sorted(((tuple(k[j] for j in where), c) for k, c in f.terms()),
                           reverse=True)
            polys.append(Polynomial({
                tuple((v, e) for v, e in zip(rest, k) if e): Fraction(int(c))
                for k, c in terms}))
    if not polys:
        return []
    polys.sort(key=lambda q: sorted(q.terms))
    if len(polys) >= 2 or polys[0].total_degree() < p.total_degree():
        return polys
    return []


def _rational_roots(p: Polynomial, var: str) -> List[Fraction]:
    """All rational roots of a univariate parameter polynomial."""
    coeffs: Dict[int, Fraction] = {}
    for m, c in p.terms.items():
        deg = m[0][1] if m else 0
        coeffs[deg] = coeffs.get(deg, Fraction(0)) + c
    deg = max(coeffs)
    lcm = 1
    for c in coeffs.values():
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = {d: int(c * lcm) for d, c in coeffs.items() if c}
    roots: List[Fraction] = []
    low = min(ints)
    if low > 0:
        roots.append(Fraction(0))
    const = ints[low]
    lead = ints[deg]
    for pn in _divisors(abs(const)):
        for qd in _divisors(abs(lead)):
            for cand in (Fraction(pn, qd), Fraction(-pn, qd)):
                if cand in roots:
                    continue
                if _eval_univar(coeffs, cand) == 0:
                    roots.append(cand)
    return sorted(roots)


def _eval_univar(coeffs: Dict[int, Fraction], x: Fraction) -> Fraction:
    return sum((c * x ** d for d, c in coeffs.items()), Fraction(0))


def _divisors(n: int) -> List[int]:
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _row_reduce(eqs: List[Polynomial], deadline: float = math.inf) -> List[Polynomial]:
    """Exact Gaussian elimination over the parameter-monomial basis.

    Pivots on the highest monomials first so low-degree (often linear)
    consequences of nonlinear equations surface.  Rows are sparse
    ``{column: coefficient}`` dicts; the result is the reduced row echelon
    form with unit pivots, its rows in elimination order and each row's
    terms in column order.  Raises TimeoutError once ``time.monotonic()``
    passes the deadline, checked at every pivot column.
    """
    monos = sorted({m for e in eqs for m in e.terms}, key=mono_key, reverse=True)
    pos = {m: i for i, m in enumerate(monos)}
    rows = [{pos[m]: c for m, c in e.terms.items()} for e in eqs]
    pivot_row = 0
    for col in range(len(monos)):
        _check_deadline(deadline)
        piv = next((r for r in range(pivot_row, len(rows)) if col in rows[r]), None)
        if piv is None:
            continue
        rows[pivot_row], rows[piv] = rows[piv], rows[pivot_row]
        inv = 1 / rows[pivot_row][col]
        prow = {j: x * inv for j, x in rows[pivot_row].items()}
        rows[pivot_row] = prow
        for r, row in enumerate(rows):
            f = row.get(col)
            if f is None or r == pivot_row:
                continue
            for j, y in prow.items():
                x = row.get(j)
                if x is None:
                    row[j] = -f * y
                else:
                    x = x - f * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return [Polynomial({monos[i]: row[i] for i in sorted(row)}) for row in rows if row]


def _check_deadline(deadline: float) -> None:
    if time.monotonic() > deadline:
        raise TimeoutError("deadline reached while solving")


def _canonical(eqs: List[Polynomial]) -> frozenset:
    return frozenset(frozenset(e.terms.items()) for e in eqs)


def solve_system(system: PolySystem, config: Optional[SolverConfig] = None,
                 deadline: float = math.inf) -> List[Valuation]:
    """All consistent valuations found by the staged solver (possibly empty).

    Raises SolverBudgetExceeded when the branch budget runs out, and
    TimeoutError once ``time.monotonic()`` passes the deadline.
    """
    cfg = config or SolverConfig()
    budget = [max(1, len(system.equations)) * cfg.branch_limit]
    results: List[Dict[str, Fraction]] = []
    all_params = tuple("$" + p for p in system.parameters)
    # stage 4 meets the same polynomial on many branches; factor it once
    factored: Dict[frozenset, List[Polynomial]] = {}

    def spend():
        _check_deadline(deadline)
        budget[0] -= 1
        if budget[0] < 0:
            raise SolverBudgetExceeded(
                f"solver exceeded budget ({len(system.equations)} eqs x {cfg.branch_limit})")

    def finish(subst: Dict[str, Polynomial]):
        free = sorted(set(all_params) - set(subst))
        combos: Iterable[Tuple[Fraction, ...]]
        if free:
            combos = itertools.islice(
                itertools.product(cfg.default_values, repeat=len(free)),
                cfg.max_free_combos)
        else:
            combos = [()]
        for combo in combos:
            val: Dict[str, Fraction] = dict(zip(free, combo))
            ok = True
            # resolve substitution chains against the chosen defaults
            for t in subst:
                expr = subst[t]
                for fvar, fval in val.items():
                    expr = expr.subs_var(fvar, fval)
                if not expr.is_const():
                    ok = False
                    break
                val[t] = expr.constant_term()
            if not ok:
                continue
            results.append(({p[1:]: val.get(p, Fraction(0)) for p in all_params},
                            tuple(p[1:] for p in free)))

    def attempt(eqs: List[Polynomial], subst: Dict[str, Polynomial], seen_rr: set):
        while True:
            _check_deadline(deadline)
            eqs = [e for e in eqs if not e.is_zero()]
            if any(e.is_const() for e in eqs):
                return
            if not eqs:
                finish(subst)
                return
            # stage 1: linear elimination
            linear = [e for e in eqs if _is_linear(e)]
            if linear:
                e = min(linear, key=lambda q: (len(_param_vars(q)), sorted(q.terms)))
                t = sorted(_param_vars(e))[0]
                coef = e.terms.get(((t, 1),), Fraction(0))
                rest = e - Polynomial.monomial(((t, 1),), coef)
                expr = rest * (-1 / coef)
                eqs = [q.subs_var(t, expr) for q in eqs if q is not e]
                subst = {k: v.subs_var(t, expr) for k, v in subst.items()}
                subst[t] = expr
                continue
            # stage 2: single-parameter equations -> exact rational roots
            singles = [e for e in eqs if len(_param_vars(e)) == 1]
            if singles:
                e = min(singles, key=lambda q: (q.total_degree(), len(q.terms)))
                t = sorted(_param_vars(e))[0]
                for root in _rational_roots(e, t):
                    spend()
                    expr = Polynomial.const(root)
                    new_eqs = [q.subs_var(t, expr) for q in eqs if q is not e]
                    new_subst = {k: v.subs_var(t, expr) for k, v in subst.items()}
                    new_subst[t] = expr
                    attempt(new_eqs, new_subst, seen_rr)
                return
            # stage 3: row reduction over the monomial basis
            key = _canonical(eqs)
            if key not in seen_rr:
                seen_rr.add(key)
                reduced = _row_reduce(eqs, deadline)
                if _canonical(reduced) != key:
                    eqs = reduced
                    continue
            # stage 4: factor and branch
            for e in sorted(eqs, key=lambda q: (len(q.terms), q.total_degree())):
                key = frozenset(e.terms.items())
                factors = factored.get(key)
                if factors is None:
                    factors = factored[key] = _factor_poly(e)
                if factors:
                    rest = [q for q in eqs if q is not e]
                    for f in factors:
                        spend()
                        attempt(rest + [f], dict(subst), seen_rr)
                    return
            # stage 5: bounded value branching over 0/1
            params = sorted({v for e in eqs for v in _param_vars(e)})
            for t in params:
                for value in cfg.default_values:
                    spend()
                    expr = Polynomial.const(value)
                    new_eqs = [q.subs_var(t, expr) for q in eqs]
                    new_subst = {k: v.subs_var(t, expr) for k, v in subst.items()}
                    new_subst[t] = expr
                    attempt(new_eqs, new_subst, seen_rr)
            return

    attempt(list(system.equations), {}, set())

    # exact soundness check, and deduplication preserving discovery order
    unique: List[Valuation] = []
    seen = set()
    for val, free in results:
        key = tuple(sorted(val.items()))
        if key in seen:
            continue
        seen.add(key)
        if all(_eval_equation(e, val) == 0 for e in system.equations):
            unique.append(Valuation(val, free))
    return unique


def _eval_equation(e: Polynomial, val: Dict[str, Fraction]) -> Fraction:
    total = Fraction(0)
    for m, c in e.terms.items():
        term = c
        for v, exp in m:
            term *= val[v[1:]] ** exp
        total += term
    return total


# -- SMT-LIB escape hatch ------------------------------------------------------------

def export_smtlib(system: PolySystem) -> str:
    lines = ["(set-logic QF_NRA)"]
    for p in system.parameters:
        lines.append(f"(declare-const {p} Real)")
    for e in system.equations:
        lines.append(f"(assert (= {_smt_poly(e)} 0))")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


def _smt_rat(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c) if c >= 0 else f"(- {-c})"
    mag = f"(/ {abs(c.numerator)} {c.denominator})"
    return mag if c >= 0 else f"(- {mag})"


def _smt_poly(e: Polynomial) -> str:
    terms = []
    for m, c in e.sorted_terms():
        factors = [_smt_rat(c)]
        for v, exp in m:
            factors.extend([v[1:]] * exp)
        terms.append(factors[0] if len(factors) == 1 else "(* " + " ".join(factors) + ")")
    if not terms:
        return "0"
    return terms[0] if len(terms) == 1 else "(+ " + " ".join(terms) + ")"


def import_smt_model(text: str, parameters: Sequence[str]) -> Valuation:
    """Read a get-model response (define-fun lines) into a Valuation."""
    import re
    values: Dict[str, Fraction] = {}
    pat = re.compile(r"\(define-fun\s+(\w+)\s*\(\)\s*Real\s+(.+?)\)\s*$", re.M | re.S)
    for name, body in pat.findall(text):
        values[name] = _parse_smt_value(body.strip())
    missing = [p for p in parameters if p not in values]
    return Valuation({p: values.get(p, Fraction(0)) for p in parameters}, tuple(missing))


def _parse_smt_value(s: str) -> Fraction:
    s = s.strip()
    if s.startswith("(-"):
        return -_parse_smt_value(s[2:-1])
    if s.startswith("(/"):
        a, b = s[2:-1].split()
        return Fraction(a) / Fraction(b)
    return Fraction(s)


# -- the search loop -----------------------------------------------------------------

@dataclass
class SynthesisConfig:
    max_den_degree: int = 3
    timeout_s: float = 60.0
    refute_degree: int = 25
    scan_degree: int = 15
    solver: SolverConfig = field(default_factory=SolverConfig)
    user_template: Optional[Template] = None


@dataclass
class Failure:
    stage: str
    message: str
    diagnostics: List[str] = field(default_factory=list)
    candidate: Optional[ClosedForm] = None


def synthesize(loop: P.While, g: ClosedForm, config: Optional[SynthesisConfig] = None):
    """Search templates, solve, filter, verify; first full certificate wins.

    Returns a Certificate on success, else a Failure naming the stage at
    which every candidate died, with per-template diagnostics.  ``timeout_s``
    is checked between templates, between candidates and inside the solver;
    a search it stops without a partial certificate fails at stage
    ``timeout``.
    """
    cfg = config or SynthesisConfig()
    deadline = time.monotonic() + cfg.timeout_s
    diagnostics: List[str] = []
    best_partial: Optional[Certificate] = None
    unknown_candidate: Optional[ClosedForm] = None
    last_stage = "enumerate"

    variables = sorted(_loop_vars(loop)
                       | {v for v in g.vars() if not v.startswith("$")})
    if cfg.user_template is not None:
        stream: Iterable[Template] = [cfg.user_template]
    else:
        stream = enumerate_templates(variables, cfg.max_den_degree)

    for template in stream:
        if time.monotonic() > deadline:
            diagnostics.append("timeout reached during template enumeration")
            last_stage = "timeout"
            break
        desc = f"template {template.provenance} {format_closed_form(template.form)}"
        try:
            system = build_system(template, loop, g)
        except (SemanticsError, InvalidDenominator) as e:
            diagnostics.append(f"{desc}: semantics failed: {e}")
            last_stage = "semantics"
            continue
        if any(e.is_const() and not e.is_zero() for e in system.equations):
            diagnostics.append(f"{desc}: inconsistent system (no solution)")
            last_stage = "solve"
            continue
        try:
            valuations = solve_system(system, cfg.solver, deadline)
        except SolverBudgetExceeded as e:
            diagnostics.append(f"{desc}: {e}")
            last_stage = "solve"
            continue
        except TimeoutError:
            diagnostics.append(f"{desc}: timeout reached while solving")
            last_stage = "timeout"
            break
        if not valuations:
            diagnostics.append(f"{desc}: equation system unsatisfiable")
            last_stage = "solve"
            continue
        for val in valuations:
            if time.monotonic() > deadline:
                diagnostics.append("timeout reached during candidate checking")
                last_stage = "timeout"
                break
            try:
                candidate = template.instantiated(val.assignment)
            except InvalidDenominator:
                diagnostics.append(f"{desc}: valuation makes denominator invalid")
                last_stage = "instantiate"
                continue
            if candidate.is_zero() and not g.is_zero():
                diagnostics.append(f"{desc}: trivial zero candidate filtered")
                last_stage = "instantiate"
                continue
            if not shape_nonneg(candidate):
                neg = find_negative_coefficient(candidate, cfg.scan_degree)
                if neg is None:
                    diagnostics.append(
                        f"{desc}: cannot determine positivity of "
                        f"{format_closed_form(candidate)}")
                    unknown_candidate = candidate
                    last_stage = "positivity"
                else:
                    diagnostics.append(
                        f"{desc}: negative coefficient {neg[1]} at {neg[0]}")
                    last_stage = "positivity"
                continue
            verdict, cert = certify(loop, g, candidate, cfg.refute_degree)
            if cert is None:
                diagnostics.append(f"{desc}: verification verdict {verdict.value}")
                last_stage = "verify"
                continue
            if cert.is_full:
                return cert
            if best_partial is None:
                best_partial = cert
            last_stage = "certify"
    if best_partial is not None:
        return best_partial
    probe = _divergence_probe(loop, g)
    if probe:
        diagnostics.append(probe)
    return Failure(last_stage,
                   f"no certifiable invariant found (last stage: {last_stage})",
                   diagnostics, unknown_candidate)


def _divergence_probe(loop: P.While, g: ClosedForm, steps: int = 48) -> Optional[str]:
    """Oracle-based hint for why synthesis failed: a guard state whose
    occupation lower bound keeps growing signals an infinite coefficient in
    the true occupation measure, so no finite invariant exists."""
    from . import oracle

    if has_parameters(g):
        return None
    vars = sorted({v for v in g.vars()} | _loop_vars(loop))
    if not vars:
        return None
    try:
        m = oracle.measure_from_closed_form(g, 12, vars)
        total = m.mass()
        res = oracle.kleene_iterate(loop, m, vars, steps, support_cap=32)
    except Exception:
        return None
    worst = None
    for s, v in res.occ_lower.entries.items():
        if oracle.eval_guard(loop.guard, s, vars) and v > 4 * total:
            if worst is None or v > worst[1]:
                worst = (s, v)
    if worst is None:
        return None
    state = ", ".join(f"{n}={x}" for n, x in zip(vars, worst[0]))
    return (f"occupation lower bound at state ({state}) already reaches {worst[1]} "
            f"after {steps} iterations: the occupation measure appears to have an "
            f"infinite coefficient, so no finite invariant exists")


# -- whole-program pipeline ------------------------------------------------------

@dataclass
class SegmentResult:
    kind: str                       # "loop" or "straight"
    outcome: object                 # Certificate | Failure | ClosedForm
    description: str
    initial: Optional[ClosedForm] = None
    loop: Optional[P.While] = None


@dataclass
class ProgramAnalysis:
    segments: List[SegmentResult]
    certificate: Optional[Certificate]
    failure: Optional[Failure]
    final_measure: Optional[ClosedForm]

    @property
    def ok(self) -> bool:
        return self.failure is None and self.certificate is not None


def analyze_program(ast: P.ProgramAst, g: ClosedForm,
                    config: Optional[SynthesisConfig] = None) -> ProgramAnalysis:
    """Analyze a whole program: straight-line segments are pushed through the
    closed-form semantics, each top-level loop is synthesized with the current
    measure as its initial measure, and certified exact posteriors thread into
    the next segment.  Nested loops are rejected."""
    from .program import top_level_segments, print_guard

    segments: List[SegmentResult] = []
    current = g
    last_cert: Optional[Certificate] = None
    for seg in top_level_segments(ast):
        if isinstance(seg, P.While):
            if any(isinstance(s, P.While) for s in P._stmts(seg.body)):
                fail = Failure("structure", "nested loops are not supported; "
                               "only top-level loops with loop-free bodies are analyzed")
                segments.append(SegmentResult("loop", fail, print_guard(seg.guard),
                                              initial=current, loop=seg))
                return ProgramAnalysis(segments, None, fail, None)
            res = synthesize(seg, current, config)
            segments.append(SegmentResult("loop", res, print_guard(seg.guard),
                                          initial=current, loop=seg))
            if isinstance(res, Failure):
                return ProgramAnalysis(segments, None, res, None)
            last_cert = res
            if res.kind == CertificateKind.EXACT_POSTERIOR:
                current = res.posterior
            else:
                # an upper bound or PAST witness cannot soundly seed the next
                # segment; stop here with the partial certificate
                return ProgramAnalysis(segments, res, None, res.posterior)
        else:
            if any(isinstance(s, P.While) for s in P._stmts(seg)):
                fail = Failure("structure", "loops nested under conditionals or "
                               "choices are not supported")
                segments.append(SegmentResult("straight", fail, "straight-line"))
                return ProgramAnalysis(segments, None, fail, None)
            try:
                current = apply_statement(seg, current)
            except SemanticsError as e:
                fail = Failure("semantics", str(e))
                segments.append(SegmentResult("straight", fail, "straight-line"))
                return ProgramAnalysis(segments, None, fail, None)
            segments.append(SegmentResult("straight", current, "straight-line"))
    return ProgramAnalysis(segments, last_cert, None, current)


def _loop_vars(loop: P.While) -> set:
    out = set()

    def guard_vars(gd):
        if isinstance(gd, (P.Lt, P.Geq, P.Eq, P.Neq)):
            out.add(gd.var)
        elif isinstance(gd, P.ModEq):
            out.add(gd.var)
        elif isinstance(gd, (P.And, P.Or)):
            guard_vars(gd.left)
            guard_vars(gd.right)
        elif isinstance(gd, P.Not):
            guard_vars(gd.inner)

    guard_vars(loop.guard)
    for s in P._stmts(loop.body):
        if isinstance(s, (P.AssignConst, P.Decrement, P.SampleAssign)):
            out.add(s.var)
        elif isinstance(s, P.IidIncrement):
            out.add(s.var)
            if s.count:
                out.add(s.count)
        elif isinstance(s, P.IfThenElse):
            guard_vars(s.guard)
    return out
