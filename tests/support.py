"""Helpers that only the tests need: the program printer, whose output the
parser must read back to the same AST, and the entrywise cross-check of a
closed form against an oracle lower bound (Criterion 4)."""

from fractions import Fraction
from typing import List, Sequence, Tuple

from gfinv import Record
from gfinv.algebra import ClosedForm, Mono, format_closed_form, mono_key, series_expand
from gfinv.oracle import SparseMeasure, _mono_state, _state_mono
from gfinv.program import (
    And,
    AssignConst,
    Choice,
    Decrement,
    Diverge,
    Eq,
    Guard,
    IfThenElse,
    IidIncrement,
    Lt,
    ModEq,
    Or,
    ProgramAst,
    Seq,
    Skip,
    Statement,
    While,
)


# -- program printer ---------------------------------------------------------------

def print_guard(g: Guard) -> str:
    if isinstance(g, Lt):
        return f"{g.var} < {g.bound}"
    if isinstance(g, Eq):
        return f"{g.var} = {g.value}"
    if isinstance(g, ModEq):
        return f"{g.var} = {g.residue} mod {g.modulus}"
    if isinstance(g, And):
        return f"({print_guard(g.left)}) && ({print_guard(g.right)})"
    if isinstance(g, Or):
        return f"({print_guard(g.left)}) || ({print_guard(g.right)})"
    return f"!({print_guard(g.inner)})"


def _print_stmt(s: Statement, indent: int) -> str:
    pad = "    " * indent
    if isinstance(s, Skip):
        return pad + "skip"
    if isinstance(s, Diverge):
        return pad + "diverge"
    if isinstance(s, AssignConst):
        return pad + f"{s.var} := {s.value}"
    if isinstance(s, Decrement):
        return pad + f"{s.var}--"
    if isinstance(s, IidIncrement):
        if s.pgf.is_polynomial() and len(s.pgf.num.terms) == 1:     # T^k, a shift
            k = s.pgf.num.total_degree()
            return pad + f"{s.var} := {s.var} + {k}" + (f"*{s.count}" if s.count else "")
        count = s.count if s.count is not None else "1"
        return pad + f"{s.var} += iid(pgf({format_closed_form(s.pgf)}), {count})"
    if isinstance(s, Choice):
        return (pad + "{\n" + _print_stmt(s.left, indent + 1) + "\n" + pad
                + f"}} [{s.prob}] {{\n" + _print_stmt(s.right, indent + 1)
                + "\n" + pad + "}")
    if isinstance(s, Seq):
        return (";\n").join(_print_stmt(t, indent) for t in s.stmts)
    if isinstance(s, IfThenElse):
        out = (pad + f"if ({print_guard(s.guard)}) {{\n"
               + _print_stmt(s.then, indent + 1) + "\n" + pad + "}")
        if not isinstance(s.els, Skip):
            out += " else {\n" + _print_stmt(s.els, indent + 1) + "\n" + pad + "}"
        return out
    if isinstance(s, While):
        return (pad + f"while ({print_guard(s.guard)}) {{\n"
                + _print_stmt(s.body, indent + 1) + "\n" + pad + "}")
    raise TypeError(f"unknown statement {s!r}")


def print_program(ast: ProgramAst) -> str:
    decls = "".join(f"nat {v};\n" for v in ast.variables)
    return decls + _print_stmt(ast.body, 0) + "\n"


# -- closed form vs oracle -----------------------------------------------------------

class CrosscheckReport(Record):
    violations: List[Tuple[Mono, Fraction, Fraction]]
    max_gap: Fraction
    total_gap: Fraction
    residual: Fraction

    @property
    def ok(self) -> bool:
        return not self.violations


def crosscheck(f: ClosedForm, m: SparseMeasure, degree: int,
               vars: Sequence[str]) -> CrosscheckReport:
    """Compare a closed form against an oracle lower bound, entrywise.

    A closed-form coefficient below the oracle value is a soundness violation;
    the gaps above it are summed and their maximum kept, for comparison with
    the oracle residual.
    """
    coeffs = series_expand(f, degree, order=list(vars))
    violations = []
    max_gap = Fraction(0)
    total_gap = Fraction(0)
    monos = set(coeffs)
    for s in m.entries:
        if sum(s) <= degree:
            monos.add(_state_mono(s, vars))
    for mono in sorted(monos, key=lambda t: mono_key(t, list(vars))):
        got = coeffs.get(mono, Fraction(0))
        state = _mono_state(mono, vars)
        lower = m.entries.get(state, Fraction(0))
        if got < lower:
            violations.append((mono, got, lower))
        else:
            gap = got - lower
            max_gap = max(max_gap, gap)
            total_gap += gap
    return CrosscheckReport(violations, max_gap, total_gap, m.residual)
