"""Command-line front end: parse -> check/synthesize/unroll -> JSON report.

Subcommands:
  check       verify a given invariant candidate and derive certificates
  synthesize  search for an invariant automatically (or from a template file)
  unroll      Kleene-iterate the loop on the oracle for certified lower bounds
  expand      series-expand a closed-form expression
  chain       expected visiting times of a finite Markov chain (text format),
              optionally compared against the best contraction-invariant bound

Exit codes: 0 full certificate, 2 partial/unknown outcome, 1 error.
Reports are deterministic JSON (timing fields aside).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional

from . import __version__, time_limit
from .algebra import (
    AlgebraError,
    ClosedForm,
    find_negative_coefficient,
    format_closed_form,
    format_monomial,
    mono_key,
    parse_closed_form_with_params,
    series_expand,
    shape_nonneg,
)
from .invariant import DEFAULT_REFUTE_DEGREE, Certificate, CertificateKind, Verdict, certify
from .oracle import (
    Diverges,
    FiniteChain,
    OracleError,
    _state_mono,
    best_contraction_bound,
    chain_occupation,
    chain_posterior,
    kleene_iterate,
    measure_from_closed_form,
    parse_rational,
)
from .program import ProgramAst, ProgramError, While, classify, parse
from .semantics import SemanticsError
from .synthesis import (
    SCAN_DEGREE,
    ProgramAnalysis,
    SynthesisConfig,
    analyze_program,
    parse_template,
)

EXIT_FULL = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2


def _report(mode: str, digested: str, **fields) -> Dict:
    """The header every report starts with, then ``fields``."""
    return {"tool": "gfinv", "version": __version__, "mode": mode,
            "program_digest": hashlib.sha256(digested.encode()).hexdigest()[:16],
            "diagnostics": [], **fields}


def _mass_str(m) -> Optional[str]:
    return None if m is None else str(m)


def _form_str(f: Optional[ClosedForm], order=None) -> Optional[str]:
    return None if f is None else format_closed_form(f, order)


def _cert_payload(cert: Certificate, order) -> Dict:
    return {
        "kind": cert.kind.value,
        "verdict": cert.verdict.value,
        "invariant": _form_str(cert.invariant, order),
        "posterior": _form_str(cert.posterior, order),
        "masses": {
            "initial": _mass_str(cert.mass_initial),
            "invariant": _mass_str(cert.mass_invariant),
            "posterior": _mass_str(cert.mass_posterior),
        },
        "ert_upper_bound": _mass_str(cert.ert_upper_bound),
        "past": cert.past,
    }


def _analysis_report(analysis: ProgramAnalysis, order) -> Dict:
    report: Dict = {"diagnostics": []}
    if analysis.failure is not None:
        report["outcome"] = f"failure:{analysis.failure.stage}"
        report["diagnostics"] = list(analysis.failure.diagnostics)
        report["message"] = analysis.failure.message
        if analysis.failure.candidate is not None:
            report["candidate"] = _form_str(analysis.failure.candidate, order)
    elif analysis.certificate is not None:
        report["outcome"] = analysis.certificate.kind.value
        report.update(_cert_payload(analysis.certificate, order))
    else:
        report["outcome"] = "no-loop"
    if analysis.final_measure is not None:      # never with a failure
        report["final_measure"] = _form_str(analysis.final_measure, order)
    loops = [s for s in analysis.segments if s.kind == "loop"]
    if len(loops) > 1:
        report["loop_outcomes"] = [
            (s.outcome.kind.value if isinstance(s.outcome, Certificate)
             else f"failure:{s.outcome.stage}")
            for s in loops
        ]
    return report


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _single_loop(ast: ProgramAst, command: str) -> While:
    if not classify(ast).is_single_loop:
        raise ProgramError(f"{command} requires a program that is a single while loop")
    return ast.body


def _parse_form(text: str, variables=None) -> ClosedForm:
    """A closed form without parameters.  The parser reads an unknown lowercase
    name as a template parameter; no command-line form may hold one."""
    f, params = parse_closed_form_with_params(text, variables)
    if params:
        raise ValueError(f"unknown name {params[0]!r} in {text!r}: indeterminates "
                         "are written X or X_name, and parameters only in templates")
    return f


def _gf_arg(text: str, variables) -> ClosedForm:
    if text.startswith("@"):
        text = _read(text[1:])
    return _parse_form(text, variables)


def _init_arg(text: str, variables) -> ClosedForm:
    """The ``--init`` measure: a form whose series has no coefficient below 0
    up to SCAN_DEGREE (searched only when the shape test cannot tell)."""
    g = _gf_arg(text, variables)
    neg = None if shape_nonneg(g) else find_negative_coefficient(g, SCAN_DEGREE, variables)
    if neg is not None:
        raise AlgebraError(f"--init {text!r} is not a measure: coefficient {neg[1]} "
                           f"at {format_monomial(neg[0], variables)}")
    return g


def cmd_check(args) -> Dict:
    t0 = time.monotonic()
    source = _read(args.program)
    ast = parse(source)
    loop = _single_loop(ast, "check")
    t1 = timed_out = None
    with time_limit(args.timeout):
        try:
            g = _init_arg(args.init, ast.variables)
            candidate = _gf_arg(args.invariant, ast.variables)
            t1 = time.monotonic()
            verdict, cert = certify(loop, g, candidate, refute_degree=args.refute_degree)
        except TimeoutError as e:
            verdict, cert, timed_out = Verdict.UNKNOWN, None, e
    t2 = time.monotonic()
    t1 = t1 or t2       # a timeout while parsing leaves no time for the check
    report = _report("check", source, verdict=verdict.value,
                     timing={"parse_s": t1 - t0, "check_s": t2 - t1})
    if timed_out is not None:
        report["outcome"] = "failure:timeout"
        report["message"] = f"timeout of {args.timeout} s reached while checking"
        report["diagnostics"].append(str(timed_out))
    elif cert is not None:
        report["outcome"] = cert.kind.value
        report.update(_cert_payload(cert, list(ast.variables)))
    else:
        report["outcome"] = f"not-certified:{verdict.value}"
    return report


def cmd_synthesize(args) -> Dict:
    t0 = time.monotonic()
    source = _read(args.program)
    ast = parse(source)
    g = _init_arg(args.init, ast.variables)
    config = SynthesisConfig(max_den_degree=args.max_degree, timeout_s=args.timeout)
    if args.template:
        config.user_template = parse_template(_read(args.template), ast.variables)
    t1 = time.monotonic()
    analysis = analyze_program(ast, g, config)
    t2 = time.monotonic()
    return _report("synthesize", source,
                   timing={"parse_s": t1 - t0, "synthesize_s": t2 - t1},
                   **_analysis_report(analysis, list(ast.variables)))


def cmd_unroll(args) -> Dict:
    t0 = time.monotonic()
    source = _read(args.program)
    ast = parse(source)
    loop = _single_loop(ast, "unroll")
    with time_limit(args.timeout):
        g = _init_arg(args.init, ast.variables)
        m = measure_from_closed_form(g, args.init_degree, ast.variables)
        res = kleene_iterate(loop, m, ast.variables, args.steps, support_cap=args.cap)
    t1 = time.monotonic()
    order = list(ast.variables)

    def fmt(measure):
        return dict(sorted((format_monomial(_state_mono(s, order), order), str(v))
                           for s, v in measure.entries.items()))

    return _report("unroll", source, outcome="lower-bounds", steps=args.steps,
                   occupation_lower=fmt(res.occ_lower),
                   posterior_lower=fmt(res.post_lower), residual=str(res.residual),
                   timing={"unroll_s": t1 - t0})


def cmd_expand(args) -> Dict:
    t0 = time.monotonic()
    with time_limit(args.timeout):
        f = _parse_form(args.expression)
        coeffs = series_expand(f, args.degree)
    t1 = time.monotonic()
    order = sorted(f.vars())
    table = {format_monomial(m, order): str(c)
             for m, c in sorted(coeffs.items(), key=lambda t: mono_key(t[0], order))}
    return _report("expand", args.expression, outcome="expanded", degree=args.degree,
                   coefficients=table, timing={"expand_s": t1 - t0})


def cmd_chain(args) -> Dict:
    t0 = time.monotonic()
    source = _read(args.chain)
    chain = FiniteChain.parse(source)
    occ = chain_occupation(chain)
    post = chain_posterior(chain, occ)
    t1 = time.monotonic()
    report = _report("chain", source, outcome="occupation",
                     occupation={s: ("oo" if v is None else str(v)) for s, v in occ.items()},
                     posterior={s: str(v) for s, v in post.items()},
                     timing={"chain_s": t1 - t0})
    if args.contraction is not None:
        c = parse_rational(args.contraction, "--contraction")
        report["contraction_factor"] = str(c)
        try:
            bound = best_contraction_bound(chain, c)
            report["contraction_posterior_bound"] = {s: str(v) for s, v in bound.items()}
            improves = all(
                Fraction(post.get(s, 0)) <= bound[s] for s in bound
            ) and any(Fraction(post.get(s, 0)) < bound[s] for s in bound
                      if s not in chain.transitions)
            report["occupation_improves_contraction"] = improves
            if improves:
                report["diagnostics"].append(
                    "exact occupation posterior is pointwise below the best "
                    f"{c}-contraction bound (strictly at some state)")
        except Diverges as e:
            report["diagnostics"].append(str(e))
    return report


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is one line, like every other input error."""
        self.exit(EXIT_ERROR, f"gfinv: error: {message}\n")


def _count(text: str) -> int:
    """argparse type of every count option: an integer of 0 or more."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer of 0 or more, got {text!r}")
    return int(text)


def _seconds(text: str) -> float:
    """argparse type of ``--timeout``: a finite number greater than 0.  A NaN
    would switch every deadline off, since no time compares greater."""
    try:
        if 0 < float(text) < math.inf:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a finite number of seconds greater than 0, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="gfinv",
        description="Exact posterior inference and occupation-invariant synthesis "
                    "for discrete probabilistic loops.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="verify an invariant candidate")
    c.add_argument("program")
    c.add_argument("--init", required=True, help="initial measure (closed form)")
    c.add_argument("--invariant", required=True,
                   help="candidate closed form, or @file")
    c.add_argument("--refute-degree", type=_count, default=DEFAULT_REFUTE_DEGREE)
    c.add_argument("--timeout", type=_seconds, default=None,
                   help="seconds before the check, parsing included, stops with failure:timeout")
    c.set_defaults(fn=cmd_check)

    s = sub.add_parser("synthesize", help="search for an invariant")
    s.add_argument("program")
    s.add_argument("--init", required=True)
    s.add_argument("--template", help="user template file")
    s.add_argument("--max-degree", type=_count, default=3,
                   help="maximum denominator total degree")
    s.add_argument("--timeout", type=_seconds, default=60.0,
                   help="seconds for the template search, plus up to 0.5 s of witness search")
    s.set_defaults(fn=cmd_synthesize)

    u = sub.add_parser("unroll", help="oracle lower bounds by loop unrolling")
    u.add_argument("program")
    u.add_argument("--init", required=True)
    u.add_argument("--steps", type=_count, required=True)
    u.add_argument("--cap", type=_count, default=64, help="support cap per sampling")
    u.add_argument("--init-degree", type=_count, default=24,
                   help="truncation degree for the initial measure")
    u.add_argument("--timeout", type=_seconds, default=None,
                   help="seconds before the unrolling, --init included, stops with an error")
    u.set_defaults(fn=cmd_unroll)

    e = sub.add_parser("expand", help="series-expand a closed form")
    e.add_argument("expression")
    e.add_argument("--degree", type=_count, required=True)
    e.add_argument("--timeout", type=_seconds, default=None,
                   help="seconds before the expansion, parsing included, stops with an error")
    e.set_defaults(fn=cmd_expand)

    ch = sub.add_parser("chain", help="finite-chain expected visiting times")
    ch.add_argument("chain", help="chain file: 'src dst prob' and 'init state mass' lines")
    ch.add_argument("--contraction", help="compare against best c-contraction bound")
    ch.set_defaults(fn=cmd_chain)
    return p


def run(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code else EXIT_FULL
    try:
        report = args.fn(args)
        json.dump(report, out, indent=2, sort_keys=True, default=str)
        out.write("\n")
    except (ProgramError, AlgebraError, SemanticsError,
            OracleError, ValueError, OSError) as e:
        print(f"gfinv: error: {e}", file=sys.stderr)
        return EXIT_ERROR
    # only a check or a synthesis can fall short of a full certificate
    if report["mode"] in ("check", "synthesize") \
            and report["outcome"] != CertificateKind.EXACT_POSTERIOR.value:
        return EXIT_PARTIAL
    return EXIT_FULL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
