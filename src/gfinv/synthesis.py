"""Synthesis of occupation invariants: an exact finite chain, then templates.

When the initial measure g is a polynomial without parameters and a static
bound (``_guard_state_count``) shows that it reaches finitely many chain
states, the loop is first solved as an absorbing Markov chain on them
(``oracle.finite_chain_invariant``, whose exploration gives up beyond
``oracle.CHAIN_STATES`` states).  A variable that no < or = test reads,
that counts no draw and that the body only shifts by polynomial draws is
not enumerated: a chain state keeps its residue modulo the ``mod`` tests
that read it, and its shifts become monomial weights on the chain's edges.
The occupation measure is the one power-series solution of
O = G + A(X)^T [guard] O, a finite linear system over Q, or over Q(X) once
a variable is shifted.  ``certify`` judges the invariant it gives, and only
an ``ExactPosterior`` is returned.  Every other case (a denominator, too
many or unbounded chain states, a closed recurrent class, a weaker
certificate) falls through to the templates, whose reports it leaves as
they were.

Templates are rational closed forms whose coefficients are polynomials in
symbolic parameters.  Applying the loop's characteristic functional once and
requiring the fixed-point equation Phi(I) = I, read over Phi(I)'s denominator
and compared coefficient-wise per program monomial, yields a polynomial
equation system over the parameters (see ``build_system``).  The solver runs
staged exact elimination:

  1. substitution t := -rest/c: of linear equations first, then of quadratic
     ones in which a numerator parameter t occurs only in one term c*t,
     repeated as substitutions linearize further equations,
  2. rational-root branching on single-parameter equations,
  3. exact row reduction over the parameter-monomial basis (surfaces linear
     consequences of nonlinear equations), on sparse rows,
  4. factor-and-branch (multivariate factorization via sympy, over the
     integers; each distinct polynomial is factored once per solve),
  5. value branching over 0/1 on the smallest remaining parameter (the
     recursion reaches every 0/1 assignment once), then 0/1 defaults for
     leftover free parameters.

Every returned valuation is re-checked against the original system.  The
stages are incomplete: an empty result means no solution was found, not that
none exists.

Stage 4 is the only user of sympy.  It is imported on the first
factorization, not with this module, so a process that never factors (every
``check``, ``expand``, ``unroll`` and ``chain``, and any synthesis solved by
stages 1-3) does not pay its import time.  sympy stays a hard dependency in
``pyproject.toml`` because that stage needs it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .algebra import (
    ClosedForm,
    InvalidDenominator,
    Polynomial,
    find_negative_coefficient,
    format_closed_form,
    format_monomial,
    has_parameters,
    instantiate,
    mono_key,
    normalize,
    parse_closed_form_with_params,
    shape_nonneg,
)
from .algebra.closedform import _monomials_of_degree
from .algebra.poly import _add_into, _int_primitive, exact_quotient
from .invariant import Certificate, CertificateKind, certify
from . import Frozen, Record, check_deadline, oracle, program as P, time_limit
from .semantics import SemanticsError, apply_statement, char_functional


class SolverBudgetExceeded(Exception):
    pass


# -- templates -------------------------------------------------------------------

class Template(Frozen):
    form: ClosedForm
    parameters: Tuple[str, ...]          # bare names, no $ prefix
    provenance: str                      # "auto(d=..)" or "user"


class PolySystem(Frozen):
    equations: Tuple[Polynomial, ...]    # parameter polynomials, each == 0
    parameters: Tuple[str, ...]
    numerator: Tuple[str, ...] = ()      # the numerator block (see build_system)


class Valuation(Frozen):
    assignment: Dict[str, Fraction]
    free: Tuple[str, ...] = ()


def enumerate_templates(variables: Sequence[str], max_den_degree: int) -> Iterator[Template]:
    """Breadth-first template stream: for each denominator total degree d, one
    template with all numerator monomials of degree <= d and all denominator
    monomials of degree <= d, the denominator constant pinned to 1."""
    for d in range(max_den_degree + 1):
        monos = [m for k in range(d + 1) for m in _monomials_of_degree(list(variables), k)]
        num, den = {}, {(): Fraction(1)}
        for i, m in enumerate(monos):
            # "$" sorts before any letter, so the parameter leads the monomial
            num[((f"$a{i}", 1),) + m] = Fraction(1)
            if m:
                den[((f"$b{i}", 1),) + m] = Fraction(1)
        params = [f"a{i}" for i in range(len(monos))] + [f"b{i}" for i in range(1, len(monos))]
        yield Template(ClosedForm(Polynomial._of(num), Polynomial._of(den)), tuple(params),
                       f"auto(d={d})")


def parse_template(text: str, variables: Sequence[str]) -> Template:
    """Parse a user template file: a closed form plus parameter links.

    Lines: the form, optionally prefixed ``template:``; after it, unprefixed
    ``name = expr`` links that pin or tie parameters of the form (expr is
    polynomial in other parameters); ``#`` comments.  No form holds ``=``, so
    a line with one is a link.  Links are substituted into the form
    immediately; a malformed one is a ValueError naming its line.
    """
    form: Optional[ClosedForm] = None
    links: List[Tuple[str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        body = line.removeprefix("template:")
        if "=" not in line:
            if line:
                form, _ = parse_closed_form_with_params(body.strip(), variables)
            continue
        where = f"template line {lineno}"
        if body != line:
            raise ValueError(f"{where}: a link takes no 'template:' prefix")
        if form is None:
            raise ValueError(f"{where}: a link must follow the closed form")
        links.append((where, *map(str.strip, line.split("=", 1))))
    if form is None:
        raise ValueError("template file contains no closed form")
    for where, name, expr in links:
        if "$" + name not in form.vars():
            raise ValueError(f"{where}: {name!r} is not a parameter of the form")
        link_form, _ = parse_closed_form_with_params(expr, variables)
        if not all(v.startswith("$") for v in link_form.vars()):
            raise ValueError(f"{where}: link {name} = {expr} holds an indeterminate")
        if not link_form.is_polynomial():
            raise ValueError(f"{where}: link {name} = {expr} must be polynomial in parameters")
        num = form.num.subs_var("$" + name, link_form.num)
        den = form.den.subs_var("$" + name, link_form.num)
        form = ClosedForm(num, den)
    if not has_parameters(form):
        # links that pin every parameter leave a form that arithmetic takes
        # as GCD-reduced and scaled
        form = normalize(form.num, form.den)
    params = tuple(sorted(v[1:] for v in form.vars() if v.startswith("$")))
    return Template(form, params, "user")


# -- equation system --------------------------------------------------------------

def build_system(template: Template, loop: P.While, g: ClosedForm) -> PolySystem:
    """Coefficient comparison of Phi(template) = template.

    The residual Phi(I) - I must vanish; grouping its numerator by
    program-variable monomials yields one parameter-polynomial equation per
    monomial.  When the template's denominator D divides Phi(I)'s, by Q, the
    equations are the residual over Phi(I)'s own denominator, Phi.num - N*Q;
    otherwise the two forms are cross-multiplied, which multiplies the
    residual by D.  Both have the same zeros where D is not identically
    zero: D's constant term is 1 in an automatic template, and
    ``instantiate`` rejects a valuation that makes a user template's D
    vanish.  Parametric forms are not GCD-reduced (see ``normalize``), so
    the numerator may keep common factors with the denominator.  Such a
    factor vanishes only where a denominator would be identically zero, and
    such valuations are filtered as invalid anyway.

    The numerator block is the parameters of the template's numerator that
    do not occur in its denominator.  Phi is affine, so each equation is
    linear in them jointly; the block is left empty if some monomial is not.
    """
    form = template.form
    phi = char_functional(loop, g, form)
    quotient = Polynomial.const(1) if phi.den == form.den else exact_quotient(phi.den, form.den)
    residual = (phi - form).num if quotient is None else phi.num - form.num * quotient
    eqs: Dict[tuple, dict] = {}
    for m, c in residual.terms.items():
        # "$" sorts before any letter, so a monomial's parameters come first
        i = 0
        while i < len(m) and m[i][0][0] == "$":
            i += 1
        eqs.setdefault(m[i:], {})[m[:i]] = c   # each such pair comes from one m
    ordered = [Polynomial._of(eqs[k]) for k in sorted(eqs, key=mono_key)]
    block = _param_vars(form.num) - _param_vars(form.den)
    if any(sum(e for v, e in m if v in block) > 1 for q in ordered for m in q.terms):
        block = set()
    return PolySystem(tuple(ordered), template.parameters,
                      tuple(sorted(v[1:] for v in block)))


# -- solver ------------------------------------------------------------------------

BRANCH_LIMIT = 64                            # branches per equation
DEFAULT_VALUES = (Fraction(0), Fraction(1))  # stage 5 and leftover free parameters
MAX_FREE_COMBOS = 8                          # default assignments per solution


def _param_vars(p: Polynomial) -> set:
    return {v for v in p.vars() if v.startswith("$")}


def _pivot(eqs: List[Polynomial], block: set) -> Optional[Tuple[Polynomial, str]]:
    """Stage 1's pick: an equation and a parameter t that occurs in it only in
    one term c*t, c rational.  A linear equation first; failing that, one of
    degree 2 whose t is in the numerator block: isolating t from one of higher
    degree compounds the system's degree, which costs stages 3-4 more."""
    degrees = [(e, e.total_degree()) for e in eqs]
    linear = [e for e, d in degrees if d <= 1]
    if linear:
        e = min(linear, key=lambda q: (len(_param_vars(q)), sorted(q.terms)))
        return e, sorted(_param_vars(e))[0]
    isolable = [(e, t) for e, d in degrees if d == 2
                for t in sorted(block & _param_vars(e))
                if ((t, 1),) in e.terms and sum(t in dict(m) for m in e.terms) == 1]
    return min(isolable, key=lambda p: (len(p[0].terms), sorted(p[0].terms)), default=None)


def _factor_poly(p: Polynomial) -> List[Polynomial]:
    """Non-unit irreducible factors (multiplicity collapsed).

    Returns [] when factoring brings nothing (irreducible and multiplicity 1).
    The factors, their signs and their order are those of
    ``sympy.factor_list`` on the expression: the monomial content gives one
    factor per parameter, and the rest, divided by its positive rational
    content, is factored over the integers in sympy's own generator order.
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
        _, ints = _int_primitive(p, names)
        rep = {tuple(k - low[v] for k, v in zip(e, names)): a for e, a in ints.items()}
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
    _, ints = _int_primitive(p, [var])
    low, high = min(ints), max(ints)
    roots: List[Fraction] = [Fraction(0)] if low[0] else []
    for pn in _divisors(abs(ints[low])):
        for qd in _divisors(abs(ints[high])):
            for cand in (Fraction(pn, qd), Fraction(-pn, qd)):
                if cand not in roots and not p.subs_var(var, cand):
                    roots.append(cand)
    return sorted(roots)


def _divisors(n: int) -> List[int]:
    """The positive divisors of n in increasing order ([1] for 0).  Polls
    ``check_deadline`` at each candidate: a large n has some 10^10 of them."""
    low = []
    for d in range(1, math.isqrt(n) + 1):
        check_deadline("while solving")
        if n % d == 0:
            low.append(d)
    return sorted({*low, *(n // d for d in low)}) or [1]


def _row_reduce(eqs: List[Polynomial]) -> List[Polynomial]:
    """Reduced row echelon form of the equations over the parameter-monomial
    basis (exact sparse Gauss-Jordan), column i holding the i-th highest
    monomial: pivoting on the highest monomials first surfaces low-degree
    (often linear) consequences of nonlinear equations.  A sparse row stores
    no zero; each pivot is scaled to 1, and the nonzero rows come back in
    elimination order, row i holding the i-th pivot.  Polls
    ``check_deadline`` at every column."""
    monos = sorted({m for e in eqs for m in e.terms}, key=mono_key, reverse=True)
    pos = {m: i for i, m in enumerate(monos)}
    rows = [{pos[m]: c for m, c in e.terms.items()} for e in eqs]
    done = 0                                # pivot rows so far
    for col in range(len(monos)):
        check_deadline("while solving")
        piv = next((r for r in range(done, len(rows)) if col in rows[r]), None)
        if piv is None:
            continue
        rows[done], rows[piv] = rows[piv], rows[done]
        inv = 1 / rows[done][col]
        prow = rows[done] = {j: x * inv for j, x in rows[done].items()}
        for r, row in enumerate(rows):
            f = row.get(col)
            if f is not None and r != done:
                f = -f
                _add_into(row, {j: f * y for j, y in prow.items()})
        done += 1
        if done == len(rows):
            break
    return [Polynomial({monos[i]: row[i] for i in sorted(row)}) for row in rows if row]


def _canonical(eqs: List[Polynomial]) -> frozenset:
    return frozenset(frozenset(e.terms.items()) for e in eqs)


def solve_system(system: PolySystem) -> List[Valuation]:
    """All consistent valuations found by the staged solver (possibly empty).

    A branch maps each parameter it eliminates to its value in those left
    and never rewrites a value; they are resolved once, at the end of the
    branch, and each valuation is re-checked against the system when found.

    Raises SolverBudgetExceeded when the branch budget runs out.  Polls
    ``check_deadline`` at every branch and every round of the stages.
    """
    budget = [max(1, len(system.equations)) * BRANCH_LIMIT]
    found: List[Valuation] = []
    seen = set()
    all_params = tuple("$" + p for p in system.parameters)
    block = {"$" + p for p in system.numerator}
    # stage 4 meets the same polynomial on many branches; factor it once
    factored: Dict[frozenset, List[Polynomial]] = {}
    seen_rr = set()     # systems that stage 3 has row-reduced

    def spend():
        check_deadline("while solving")
        budget[0] -= 1
        if budget[0] < 0:
            raise SolverBudgetExceeded(
                f"solver exceeded budget ({len(system.equations)} eqs x {BRANCH_LIMIT})")

    def branch(eqs: List[Polynomial], subst: Dict[str, Polynomial], t: str,
               values: Iterable[Fraction]):
        for value in values:
            spend()
            attempt([q.subs_var(t, value) for q in eqs], {**subst, t: Polynomial.const(value)})

    def finish(subst: Dict[str, Polynomial]):
        free = sorted(set(all_params) - set(subst))
        # with no free parameter, the product is the one empty combination
        combos = itertools.product(DEFAULT_VALUES, repeat=len(free))
        for combo in itertools.islice(combos, MAX_FREE_COMBOS):
            val: Dict[str, Fraction] = dict(zip(free, combo))
            # a value holds only parameters assigned after it, or free ones
            for t in reversed(subst):
                expr = subst[t]
                for v in expr.vars() & val.keys():
                    expr = expr.subs_var(v, val[v])
                if not expr.is_const():     # a parameter the system does not list
                    break
                val[t] = expr.constant_term()
            else:
                val = {p[1:]: val.get(p, Fraction(0)) for p in all_params}
                key = tuple(sorted(val.items()))
                if key in seen:
                    continue
                seen.add(key)
                residues = list(system.equations)
                # zeros first: each drops the terms it meets, so later passes are short
                for p, x in sorted(val.items(), key=lambda px: px[1] != 0):
                    residues = [e.subs_var("$" + p, x) for e in residues]
                if not any(residues):
                    found.append(Valuation(val, tuple(p[1:] for p in free)))

    def attempt(eqs: List[Polynomial], subst: Dict[str, Polynomial]):
        while True:
            check_deadline("while solving")
            eqs = [e for e in eqs if not e.is_zero()]
            if any(e.is_const() for e in eqs):
                return
            if not eqs:
                finish(subst)
                return
            # stage 1: exact substitution t := -rest/c
            pivot = _pivot(eqs, block)
            if pivot is not None:
                e, t = pivot
                coef = e.terms[((t, 1),)]
                expr = (e - Polynomial.monomial(((t, 1),), coef)) * (-1 / coef)
                eqs = [q.subs_var(t, expr) for q in eqs if q is not e]
                subst = {**subst, t: expr}
                continue
            # stage 2: single-parameter equations -> exact rational roots
            singles = [e for e in eqs if len(_param_vars(e)) == 1]
            if singles:
                e = min(singles, key=lambda q: (q.total_degree(), len(q.terms)))
                t = sorted(_param_vars(e))[0]
                branch(eqs, subst, t, _rational_roots(e, t))  # e becomes 0, dropped
                return
            # stage 3: row reduction over the monomial basis
            key = _canonical(eqs)
            if key not in seen_rr:
                seen_rr.add(key)
                reduced = _row_reduce(eqs)
                if _canonical(reduced) != key:
                    eqs = reduced
                    continue
            # stage 4: factor and branch
            for e in sorted(eqs, key=lambda q: (len(q.terms), q.total_degree())):
                key = frozenset(e.terms.items())
                factors = factored.get(key)
                if factors is None:
                    check_deadline("while solving")     # one factorization can take 0.3 s
                    factors = factored[key] = _factor_poly(e)
                if factors:
                    rest = [q for q in eqs if q is not e]
                    for f in factors:
                        spend()
                        attempt(rest + [f], subst)
                    return
            # stage 5: 0/1 on the smallest parameter; later levels take the rest
            t = min(v for e in eqs for v in _param_vars(e))
            branch(eqs, subst, t, DEFAULT_VALUES)
            return

    attempt(list(system.equations), {})
    return found


# -- the search loop -----------------------------------------------------------------

SCAN_DEGREE = 15    # series degree searched for a negative candidate coefficient


class SynthesisConfig(Record):
    max_den_degree: int = 3
    timeout_s: float = 60.0
    user_template: Optional[Template] = None


class Failure(Record):
    stage: str
    message: str
    diagnostics: List[str]
    candidate: Optional[ClosedForm] = None

    def __init__(self, stage, message, diagnostics=None, candidate=None):  # fresh list per failure
        super().__init__(stage, message, [] if diagnostics is None else diagnostics, candidate)


def synthesize(loop: P.While, g: ClosedForm, config: Optional[SynthesisConfig] = None):
    """Try the exact finite chain (``_finite_chain``), then search templates,
    solve, filter, verify; first full certificate wins.

    Returns a Certificate on success, else a Failure at the stage of the last
    outcome, with per-template diagnostics; a candidate that several
    valuations of one template give is judged and reported once.  The search
    runs under ``time_limit(timeout_s)``, which every layer polls; a search
    it stops without a partial certificate fails at stage ``timeout``, and
    the last diagnostic names the template and the layer that it stopped.

    When no template gives a certificate, a bounded exact search
    (``oracle.closed_class_witness``) looks for the reason: a guard state
    of infinite occupation coefficient, with the initial term and the path
    that reach it and the closed set of guard states it recurs in.  When it
    finds one, the last diagnostic names all three.  The search has its own
    budget, ``oracle.SEARCH_SECONDS``, after the stream's: a stream that ran
    out of time does not starve it, and synthesis may overrun ``timeout_s`` by it.
    """
    cfg = config or SynthesisConfig()
    best_partial: Optional[Certificate] = None
    unknown_candidate: Optional[ClosedForm] = None
    log: List[list] = [["enumerate", None, 1]]     # [stage, line or None, valuations]
    judged: Dict[tuple, list] = {}      # (template, candidate) -> its entry

    def note(stage: str, line: Optional[str] = None) -> list:
        log.append([stage, line, 1])
        return log[-1]

    variables = sorted(_loop_vars(loop)
                       | {v for v in g.vars() if not v.startswith("$")})
    stream = ([cfg.user_template] if cfg.user_template is not None
              else enumerate_templates(variables, cfg.max_den_degree))

    with time_limit(cfg.timeout_s):
        cert = _finite_chain(loop, g, variables)
        if cert is not None:
            return cert
        try:
            for template in stream:
                desc = f"template {template.provenance} {format_closed_form(template.form)}"
                try:
                    system = build_system(template, loop, g)
                except (SemanticsError, InvalidDenominator) as e:
                    note("semantics", f"{desc}: semantics failed: {e}")
                    continue
                if any(e.is_const() and not e.is_zero() for e in system.equations):
                    note("solve", f"{desc}: inconsistent system (no solution)")
                    continue
                try:
                    valuations = solve_system(system)
                except SolverBudgetExceeded as e:
                    note("solve", f"{desc}: {e}")
                    continue
                if not valuations:
                    note("solve", f"{desc}: no solution found by the staged solver")
                    continue
                for val in valuations:
                    try:
                        candidate = instantiate(template.form, val.assignment)
                    except InvalidDenominator:
                        note("instantiate", f"{desc}: valuation makes denominator invalid")
                        continue
                    if candidate.is_zero() and not g.is_zero():
                        note("instantiate", f"{desc}: trivial zero candidate filtered")
                        continue
                    key = (template, candidate)
                    if key in judged:
                        judged[key][2] += 1
                        continue
                    if not shape_nonneg(candidate):
                        neg = find_negative_coefficient(candidate, SCAN_DEGREE)
                        if neg is None:
                            unknown_candidate = candidate
                            why = f"cannot determine positivity of {format_closed_form(candidate)}"
                        else:
                            why = (f"negative coefficient {neg[1]} at "
                                   f"{format_monomial(neg[0], variables)}")
                        judged[key] = note("positivity", f"{desc}: {why}")
                        continue
                    try:
                        verdict, cert = certify(loop, g, candidate)
                        why = f"verification verdict {verdict.value}"
                    except (SemanticsError, InvalidDenominator) as e:
                        cert, why = None, f"verification failed: {e}"
                    if cert is None:
                        judged[key] = note("verify", f"{desc}: {why}")
                        continue
                    if cert.is_full:
                        return cert
                    best_partial = best_partial or cert
                    judged[key] = note("certify")
        except TimeoutError as e:   # "deadline reached while ..." from the layer it stopped
            note("timeout", f"{desc}: timeout{str(e).removeprefix('deadline')}")
    if best_partial is not None:
        return best_partial
    with time_limit(oracle.SEARCH_SECONDS):
        probe = _divergence_probe(loop, g, variables)
    diagnostics = [line + (f" (from {n} valuations)" if n > 1 else "")
                   for _, line, n in log if line]
    if probe:
        diagnostics.append(probe)
    return Failure(log[-1][0], f"no certifiable invariant found (last stage: {log[-1][0]})",
                   diagnostics, unknown_candidate)


def _finite_chain(loop: P.While, g: ClosedForm, vars: List[str]) -> Optional[Certificate]:
    """The exact finite-chain path: an ``ExactPosterior`` certificate of
    ``oracle.finite_chain_invariant``'s invariant, or None.

    It runs only when g is a polynomial without parameters and
    ``_guard_state_count`` bounds the chain states.  That bound decides
    finiteness only: it is a box, which may count states that the guard
    excludes, so the size is left to the exploration's own cap.  ``certify``
    judges the invariant; every other outcome, the deadline included, is
    None, and synthesis goes on to the template stream.
    """
    if has_parameters(g) or not g.is_polynomial() \
            or _guard_state_count(loop, g, vars) == math.inf:
        return None
    try:
        candidate = oracle.finite_chain_invariant(loop, g, vars)
        if candidate is None:
            return None
        _, cert = certify(loop, g, candidate)
    except (TimeoutError, SemanticsError, InvalidDenominator):
        return None
    return cert if cert is not None and cert.is_full else None


def _guard_state_count(loop: P.While, g: ClosedForm, vars: List[str]) -> float:
    """A static bound on the number of chain states that g reaches, or inf.

    A shifted variable (``oracle.shift_moduli``) counts its residues.  Each
    enumerated variable gets an upper bound on its value: g's degree in it
    at first; then, round by round, the body's image of the bounds clipped
    to the guard's (``_guard_bounds``) joins them (``_bounds_after``).
    After len(vars) + 1 rounds, a bound still rising is unbounded, and the
    bounds must then be stable, else the count is inf.  The count is the
    product of the moduli and, over the enumerated variables, of the
    clipped bound plus 1.
    """
    inf = math.inf
    guard = _guard_bounds(loop.guard)
    shifted = oracle.shift_moduli(loop, vars)

    def clip(b: Dict[str, float]) -> Dict[str, float]:
        return {v: min(x, guard.get(v, inf)) for v, x in b.items()}

    def step(b: Dict[str, float]) -> Dict[str, float]:
        # a shifted variable's bound stays 0: no enumerated bound reads it
        after = _bounds_after(loop.body, clip(b))
        return {v: 0 if v in shifted else max(x, after[v]) for v, x in b.items()}

    b, last = {v: 0 if v in shifted else g.num.degree_in(v) for v in vars}, None
    for _ in range(len(vars) + 1):
        if b == last:
            break
        b, last = step(b), b
    b = {v: x if x == last[v] else inf for v, x in b.items()}
    if step(b) != b:
        return inf
    sizes = [shifted[v] if v in shifted else max(0, x + 1) for v, x in clip(b).items()]
    return 0 if 0 in sizes else math.prod(sizes)


def _guard_bounds(gd: P.Guard, negated: bool = False) -> Dict[str, float]:
    """The upper bounds a guard (its negation, when ``negated``) puts on its
    variables: x < k gives k - 1 and x = v gives v; && takes the min and ||
    the max per variable.  ! is pushed inward first: !!a is a, !(a && b) is
    !a || !b and !(a || b) is !a && !b.  A variable left out is unbounded,
    as under a negated test and a mod test."""
    if isinstance(gd, P.Not):
        return _guard_bounds(gd.inner, not negated)
    if isinstance(gd, (P.And, P.Or)):
        left, right = _guard_bounds(gd.left, negated), _guard_bounds(gd.right, negated)
        if isinstance(gd, P.Or) != negated:
            return {v: max(left[v], right[v]) for v in left.keys() & right.keys()}
        return {v: min(left.get(v, math.inf), right.get(v, math.inf))
                for v in left.keys() | right.keys()}
    if negated:
        return {}
    if isinstance(gd, P.Lt):
        return {gd.var: gd.bound - 1}
    if isinstance(gd, P.Eq):
        return {gd.var: gd.value}
    return {}


def _bounds_after(stmt: P.Statement, b: Dict[str, float]) -> Dict[str, float]:
    """Upper bounds on the variables after ``stmt`` from the bounds ``b``
    before it.  A constant assignment sets the bound, a decrement keeps it, a
    draw with a polynomial pgf of degree d adds d (times the count's bound),
    a draw of infinite support makes it inf, the arms of a choice or a
    conditional are joined by max, and a nested loop makes every bound inf."""
    if isinstance(stmt, P.AssignConst):
        return {**b, stmt.var: stmt.value}
    if isinstance(stmt, P.IidIncrement):
        if not stmt.pgf.is_polynomial():
            return {**b, stmt.var: math.inf}
        d = stmt.pgf.num.total_degree()
        n = 1 if stmt.count is None else b[stmt.count]
        return {**b, stmt.var: b[stmt.var] + (d * n if d else 0)}
    if isinstance(stmt, P.Seq):
        for s in stmt.stmts:
            b = _bounds_after(s, b)
        return b
    if isinstance(stmt, (P.Choice, P.IfThenElse)):
        choice = isinstance(stmt, P.Choice)
        left = _bounds_after(stmt.left if choice else stmt.then, b)
        right = _bounds_after(stmt.right if choice else stmt.els, b)
        return {v: max(x, right[v]) for v, x in left.items()}
    if isinstance(stmt, P.While):
        return dict.fromkeys(b, math.inf)
    return b            # skip, diverge and a decrement keep every bound


def _divergence_probe(loop: P.While, g: ClosedForm, vars: List[str]) -> Optional[str]:
    """Why no finite invariant exists, when ``oracle.closed_class_witness``
    proves it: a reachable guard state whose occupation coefficient is
    infinite, with the initial term, the path and the closed set."""
    if has_parameters(g) or not vars:
        return None
    try:
        witness = oracle.closed_class_witness(loop, g, vars)
    except oracle.OracleError:      # a nested loop: the body has no one step
        return None
    if witness is None:
        return None

    def show(s):
        return "(" + ", ".join(f"{n}={x}" for n, x in zip(vars, s)) + ")"

    source = format_monomial(oracle._state_mono(witness.path[0], vars), vars)
    return (f"the occupation measure has an infinite coefficient at state "
            f"{show(witness.path[-1])}, so no finite invariant exists: the initial "
            f"term {source} reaches it by the path {' -> '.join(map(show, witness.path))}, "
            f"and it is recurrent in {{{', '.join(map(show, witness.closed))}}}, "
            f"a set of guard states that the loop body never leaves")


# -- whole-program pipeline ------------------------------------------------------

class SegmentResult(Record):
    kind: str                       # "loop" or "straight"
    outcome: object                 # Certificate | Failure | ClosedForm
    initial: Optional[ClosedForm] = None
    loop: Optional[P.While] = None


class ProgramAnalysis(Record):
    segments: List[SegmentResult]
    certificate: Optional[Certificate]
    failure: Optional[Failure]
    final_measure: Optional[ClosedForm]


def analyze_program(ast: P.ProgramAst, g: ClosedForm,
                    config: Optional[SynthesisConfig] = None) -> ProgramAnalysis:
    """Analyze a whole program: straight-line segments are pushed through the
    closed-form semantics, each top-level loop is synthesized with the current
    measure as its initial measure, and certified exact posteriors thread into
    the next segment.  Nested loops are rejected."""
    segments: List[SegmentResult] = []
    current = g
    last_cert: Optional[Certificate] = None
    for seg in P.top_level_segments(ast):
        loop = seg if isinstance(seg, P.While) else None
        nested = any(isinstance(s, P.While) for s in P._stmts(seg.body if loop else seg))
        if nested and loop:
            outcome = Failure("structure", "nested loops are not supported; only "
                              "top-level loops with loop-free bodies are analyzed")
        elif nested:
            outcome = Failure("structure",
                              "loops nested under conditionals or choices are not supported")
        elif loop:
            outcome = synthesize(loop, current, config)
        else:
            try:
                outcome = apply_statement(seg, current)
            except SemanticsError as e:
                outcome = Failure("semantics", str(e))
        if loop:
            segments.append(SegmentResult("loop", outcome, current, loop))
        else:
            segments.append(SegmentResult("straight", outcome))
        if isinstance(outcome, Failure):
            return ProgramAnalysis(segments, None, outcome, None)
        if not loop:
            current = outcome
        elif outcome.kind == CertificateKind.EXACT_POSTERIOR:
            last_cert, current = outcome, outcome.posterior
        else:
            # an upper bound or PAST witness cannot soundly seed the next
            # segment; stop here with the partial certificate
            return ProgramAnalysis(segments, outcome, None, outcome.posterior)
    return ProgramAnalysis(segments, last_cert, None, current)


def _loop_vars(loop: P.While) -> set:
    out = set()

    def guard_vars(gd):
        if isinstance(gd, (P.Lt, P.Eq, P.ModEq)):
            out.add(gd.var)
        elif isinstance(gd, (P.And, P.Or)):
            guard_vars(gd.left)
            guard_vars(gd.right)
        elif isinstance(gd, P.Not):
            guard_vars(gd.inner)

    guard_vars(loop.guard)
    for s in P._stmts(loop.body):
        if isinstance(s, (P.AssignConst, P.Decrement, P.IidIncrement)):
            out.add(s.var)
        if isinstance(s, P.IidIncrement) and s.count:
            out.add(s.count)
        if isinstance(s, P.IfThenElse):
            guard_vars(s.guard)
    return out
