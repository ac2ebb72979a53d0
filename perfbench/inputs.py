"""The three workloads' operations, built from the corpus and from code.

The corpus under `benchmarks/` belongs to the repository, not to the
benchmark: it is read here and never written.  Every operation carries the
answer it is checked against; those answers come from the corpus's
hand-derived `expected.json` files or are derived below by hand, never from
gfinv itself.  Only the order of operations within a pass depends on the
seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "benchmarks"
CHAIN = "benchmarks/appendix_chain.txt"

# Corpus programs whose warm in-process synthesis takes under 0.1 s on a
# 2-core x86 box; the slower ones (cond_and_corrected, thirds_geometric,
# sequential_loops, random_walk_counter_unbounded) stay in `synth` only.
CLI_SYNTH = ("cond_and", "faulty_decrement", "geometric", "geometric_counter",
             "modulo_geometric", "nontermination", "random_walk",
             "random_walk_counter", "subdist_enter")
PERTURBATIONS = ("half", "plus1", "times_first_var")
UNROLL = ("geometric", "thirds_geometric", "random_walk")

WALK_N3_FAULT = ("solve_system exhausts its budget of 7 equations x 64 on the "
                 "degree-3 system, although the invariant satisfies it")
UNKNOWN_LOWERCASE_FAULT = ("an unknown lowercase name in --init is read as a "
                           "template parameter, and check prints 'refuted'")
UNDECLARED_VAR_FAULT = "an undeclared variable in --init ends in a KeyError traceback"


@dataclass
class Op:
    """One operation of a workload and what its output must satisfy."""

    name: str
    kind: str                        # synthesize | certify | unroll | expand | chain | malformed
    expect: Dict
    program: object = None           # gfinv ProgramAst, for the oracle checks
    init: Optional[str] = None       # initial measure, closed-form text
    candidate: Optional[str] = None  # candidate invariant of a certify op
    run: Optional[Callable] = None   # in-process call
    argv: List[str] = field(default_factory=list)   # arguments of `python -m gfinv.cli`
    fault: Optional[str] = None      # named fault: a refusal counts as failed


@dataclass
class Bench:
    name: str
    rel: str                         # directory relative to the repository root
    ast: object
    init: str
    expected: Dict
    invariant: Optional[str]         # hand-derived invariant, if the corpus has one


def load_corpus() -> List[Bench]:
    from gfinv.program import parse

    out = []
    for d in sorted(p for p in CORPUS.iterdir() if p.is_dir()):
        expected = json.loads((d / "expected.json").read_text())
        inv = expected.get("invariant")
        if "invariant_file" in expected:
            inv = (d / expected["invariant_file"]).read_text().strip()
        out.append(Bench(d.name, f"benchmarks/{d.name}", parse((d / "program.pgcl").read_text()),
                         (d / "init.gf").read_text().strip(), expected, inv))
    return out


def perturb(invariant: str, how: str, ast) -> str:
    if how == "half":
        return f"({invariant})/2"
    if how == "plus1":
        return f"({invariant}) + 1"
    from gfinv.algebra import indet_symbol

    return f"({invariant})*{indet_symbol(ast.variables[0], ast.variables)}"


def _answer(expected: Dict, **extra) -> Dict:
    keys = ("outcome", "invariant", "posterior", "mass_invariant", "ert_upper_bound")
    ans = {k: expected[k] for k in keys if expected.get(k) is not None}
    ans.update(extra)
    return ans


def residue_family() -> List[tuple]:
    """while (x = 1 mod k) { {x := x + k} [1/2] {x := x + 1} } from X.

    From x = 1 the walk stays in the class with probability 1/2 per step, so
    the occupation of the guarded part is 2X/(2 - X^k), the exit mass lands
    one step up, X^2/(2 - X^k), and the invariant has mass 2 + 1 = 3.
    """
    out = []
    for k in (2, 3, 4):
        src = f"nat x; while (x = 1 mod {k}) {{ {{x := x + {k}}} [1/2] {{x := x + 1}} }}"
        ans = {"outcome": "ExactPosterior", "invariant": f"(2*X + X^2)/(2 - X^{k})",
               "posterior": f"X^2/(2 - X^{k})", "mass_invariant": "3",
               "ert_upper_bound": "3"}
        out.append((f"residue_k{k}", src, k, ans, None))
    return out


def walk_family() -> List[tuple]:
    """while (x > 0 && x < N) { {x := x - 1} [1/2] {x := x + 1} } from X.

    Gambler's ruin from 1: the Green's function is G(1, j) = 2(N - j)/N for
    0 < j < N; the walk exits at 0 with probability 1 - 1/N and at N with
    1/N.  The invariant's mass is sum_j G(1, j) + 1 = N.
    """
    out = []
    for n in (2, 3):
        src = f"nat x; while (x > 0 && x < {n}) {{ {{x := x - 1}} [1/2] {{x := x + 1}} }}"
        post = f"{Fraction(n - 1, n)} + {Fraction(1, n)}*X^{n}"
        occ = " + ".join(f"{Fraction(2 * (n - j), n)}*X^{j}" for j in range(1, n))
        ans = {"outcome": "ExactPosterior", "invariant": f"{occ} + {post}",
               "posterior": post, "mass_invariant": str(n), "ert_upper_bound": str(n)}
        out.append((f"walk_n{n}", src, n, ans, WALK_N3_FAULT if n == 3 else None))
    return out


def synth_ops(corpus: List[Bench]) -> List[Op]:
    from gfinv.algebra import parse_closed_form
    from gfinv.program import parse
    from gfinv.synthesis import SynthesisConfig, analyze_program, parse_template

    def op(name, ast, init, cfg, ans, fault=None):
        g = parse_closed_form(init, ast.variables)
        return Op(name, "synthesize", ans, program=ast, init=init, fault=fault,
                  run=lambda: analyze_program(ast, g, cfg))

    ops = []
    for b in corpus:
        if b.expected["mode"] != "synthesize":
            continue
        cfg = SynthesisConfig(max_den_degree=b.expected.get("max_degree", 3))
        if "template" in b.expected:
            cfg.user_template = parse_template(
                (ROOT / b.rel / b.expected["template"]).read_text(), b.ast.variables)
        ops.append(op(b.name, b.ast, b.init, cfg, _answer(b.expected)))
    for name, src, degree, ans, fault in residue_family() + walk_family():
        ops.append(op(name, parse(src), "X", SynthesisConfig(max_den_degree=degree),
                      ans, fault))
    return ops


def single_loop_with_invariant(corpus: List[Bench]) -> List[Bench]:
    from gfinv.program import classify

    return [b for b in corpus if b.invariant and classify(b.ast).is_single_loop]


def check_ops(corpus: List[Bench]) -> List[Op]:
    from gfinv import invariant
    from gfinv.algebra import parse_closed_form
    from gfinv.program import top_level_segments, While

    ops = []
    for b in single_loop_with_invariant(corpus):
        loop = next(s for s in top_level_segments(b.ast) if isinstance(s, While))
        g = parse_closed_form(b.init, b.ast.variables)
        for how in ("known",) + PERTURBATIONS:
            text = b.invariant if how == "known" else perturb(b.invariant, how, b.ast)
            cand = parse_closed_form(text, b.ast.variables)
            ans = _answer(b.expected, verdict="exact") if how == "known" else {}
            ops.append(Op(f"{b.name}/{how}", "certify", ans, program=b.ast, init=b.init,
                          candidate=text,
                          run=lambda loop=loop, g=g, cand=cand: invariant.certify(loop, g, cand)))
    return ops


def cli_ops(corpus: List[Bench]) -> List[Op]:
    by_name = {b.name: b for b in corpus}
    ops = []
    for i, b in enumerate(single_loop_with_invariant(corpus)):
        how = PERTURBATIONS[i % len(PERTURBATIONS)]
        for tag, text, ans in (("known", b.invariant, _answer(b.expected, verdict="exact")),
                               (how, perturb(b.invariant, how, b.ast), {})):
            ops.append(Op(f"check {b.name}/{tag}", "certify", ans, program=b.ast,
                          init=b.init, candidate=text,
                          argv=["check", f"{b.rel}/program.pgcl", "--init", b.init,
                                "--invariant", text]))
    for name in CLI_SYNTH:
        b = by_name[name]
        argv = ["synthesize", f"{b.rel}/program.pgcl", "--init", b.init]
        if "template" in b.expected:
            argv += ["--template", f"{b.rel}/{b.expected['template']}"]
        else:
            argv += ["--max-degree", str(b.expected.get("max_degree", 3))]
        ops.append(Op(f"synthesize {name}", "synthesize", _answer(b.expected),
                      program=b.ast, init=b.init, argv=argv))
    for name in UNROLL:
        b = by_name[name]
        ops.append(Op(f"unroll {name}", "unroll", _answer(b.expected), program=b.ast,
                      init=b.init, argv=["unroll", f"{b.rel}/program.pgcl",
                                         "--init", b.init, "--steps", "20"]))
    ops.append(Op("expand binomial", "expand", {"form": "binomial", "degree": 8},
                  argv=["expand", "1/(1-X-Y)", "--degree", "8"]))
    ops.append(Op("expand geometric", "expand", {"form": "geometric", "degree": 10},
                  argv=["expand", "(1+2*X)/(2-C)", "--degree", "10"]))
    # s1 stays with 1/3 and leaves to s2 or s3 with 1/3 each: 3/2 expected
    # visits to s1, 1/2 to each exit.  The least 1/2-contraction measure is
    # nu = (1, 2/3, 2/3); its posterior bound nu/(1 - 1/2) is 4/3 per exit.
    ops.append(Op("chain appendix", "chain", {
        "occupation": {"s1": "3/2", "s2": "1/2", "s3": "1/2"},
        "posterior": {"s2": "1/2", "s3": "1/2"},
        "contraction_posterior_bound": {"s1": "0", "s2": "4/3", "s3": "4/3"}},
        argv=["chain", CHAIN, "--contraction", "1/2"]))
    geo = "benchmarks/geometric/program.pgcl"
    ops.append(Op("malformed check unknown lowercase", "malformed", {},
                  argv=["check", geo, "--init", "X*q", "--invariant", "(1+2*X)/(2-C)"],
                  fault=UNKNOWN_LOWERCASE_FAULT))
    ops.append(Op("malformed synthesize undeclared", "malformed", {},
                  argv=["synthesize", geo, "--init", "X*y"], fault=UNDECLARED_VAR_FAULT))
    ops.append(Op("malformed check unknown indeterminate", "malformed", {},
                  argv=["check", geo, "--init", "X", "--invariant", "(1+2*X)/(2-Z)"]))
    return ops


def build(workload: str) -> List[Op]:
    corpus = load_corpus()
    if workload == "synth":
        return synth_ops(corpus)
    if workload == "check":
        return check_ops(corpus)
    if workload == "cli-cold":
        return cli_ops(corpus)
    raise ValueError(f"unknown workload {workload!r}")
