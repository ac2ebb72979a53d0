"""AST, concrete syntax, parser and fragment classifier for probabilistic programs.

The accepted language is a guarded command language over natural-valued
variables.  Its core, which every interpreter handles, has the statements
skip, diverge, constant assignment, decrement (saturating at 0), iid-sample
increments, probabilistic choice, sequences, conditionals and while loops,
and the guards ``x < n``, ``x = n``, ``x = r mod d`` and their combinations
by ``&&``, ``||`` and ``!``.  A draw in the core is a distribution's pgf, a
closed form in T.

Everything else is sugar that the parser rewrites into the core:

- the named distributions are their pgfs: ``bernoulli(p)`` is
  ``pgf(1 - p + p*T)``, ``geometric(p)`` is ``pgf(p/(1 - (1-p)*T))``,
  ``uniform(lo, hi)`` is ``pgf((T^lo + ... + T^hi)/(hi - lo + 1))`` and
  ``dirac(k)`` is ``pgf(T^k)``;
- linear assignments such as ``x := 2*x + y + 1`` become increments by
  ``dirac`` draws (``desugar_linear_assign``); subtraction of a constant
  becomes repeated decrements and therefore saturates at zero;
- ``x <= n`` is ``x < n + 1``, ``x > n`` is ``!(x < n + 1)``, ``x >= n`` is
  ``!(x < n)`` and ``x != n`` is ``!(x = n)``;
- sampling ``x := D`` is ``x := 0`` followed by one iid increment of x by D.

The parser extends the closed-form parser of ``gfinv.algebra.gfexpr`` and
shares its lexer and token cursor: a ``pgf(...)`` body is a closed form in T,
read in place, and ``//`` starts a comment that runs to the end of the line.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from . import Frozen
from .algebra import (MONO_ONE, AlgebraError, ClosedForm, GfSyntaxError, Polynomial, from_poly,
                      mass, normalize, shape_nonneg)
from .algebra.gfexpr import FormParser

MAX_SUBTRACTED = 100    # per assignment; each unit subtracted is one Decrement


class ProgramError(Exception):
    pass


class SyntaxError_(ProgramError, GfSyntaxError):
    """A syntax error in a program, at ``line:col``."""


class UndeclaredVariable(ProgramError):
    pass


class InvalidProbability(ProgramError):
    pass


# -- distributions -------------------------------------------------------------

# each named distribution builds its pgf, in the indeterminate "t" (printed T),
# and checks its arguments

def _check_open_unit(p: Fraction) -> None:
    if not 0 < p < 1:
        raise InvalidProbability(f"distribution parameter {p} not in (0,1)")


def bernoulli(p: Fraction) -> ClosedForm:
    """1 - p + p*T"""
    _check_open_unit(p)
    return from_poly(Polynomial({MONO_ONE: 1 - p, (("t", 1),): p}))


def geometric(p: Fraction) -> ClosedForm:
    """p/(1 - (1-p)*T): the number of failures before the first success."""
    _check_open_unit(p)
    return normalize(Polynomial.const(p), Polynomial({MONO_ONE: 1, (("t", 1),): p - 1}))


def uniform(lo: int, hi: int) -> ClosedForm:
    """(T^lo + ... + T^hi)/(hi - lo + 1)"""
    if lo > hi:
        raise InvalidProbability(f"empty uniform range [{lo},{hi}]")
    # built in one dict: adding one monomial at a time copies the sum each time
    terms = {(("t", k),) if k else MONO_ONE: Fraction(1) for k in range(lo, hi + 1)}
    return normalize(Polynomial(terms), Polynomial.const(hi - lo + 1))


def dirac(k: int) -> ClosedForm:
    """T^k"""
    return from_poly(Polynomial.var("t", k))


def check_dist(pgf: ClosedForm) -> ClosedForm:
    """A ``pgf(...)`` body, once it is univariate in T, of nonnegative shape and of mass 1."""
    if not (pgf.vars() <= {"t"}):
        raise InvalidProbability("pgf must be univariate in T")
    if not shape_nonneg(pgf):
        raise InvalidProbability("pgf fails the nonnegativity shape check")
    m = mass(pgf)
    if not m.finite or m.value != 1:
        raise InvalidProbability(f"pgf has mass {m}, expected 1")
    return pgf


# -- statements and guards ------------------------------------------------------

class Lt(Frozen):
    var: str
    bound: int


class Eq(Frozen):
    var: str
    value: int


class ModEq(Frozen):
    """var = residue (mod modulus); requires residue < modulus, modulus >= 2."""

    var: str
    residue: int
    modulus: int


class And(Frozen):
    left: "Guard"
    right: "Guard"


class Or(Frozen):
    left: "Guard"
    right: "Guard"


class Not(Frozen):
    inner: "Guard"


Guard = Union[Lt, Eq, ModEq, And, Or, Not]


class Skip(Frozen):
    pass


class Diverge(Frozen):
    pass


class AssignConst(Frozen):
    var: str
    value: int


class Decrement(Frozen):
    var: str


class IidIncrement(Frozen):
    """var += sum of `count` iid draws with pgf ``pgf`` in T; count None means one draw."""

    var: str
    pgf: ClosedForm
    count: Optional[str]


class Choice(Frozen):
    prob: Fraction
    left: "Statement"
    right: "Statement"


class Seq(Frozen):
    stmts: Tuple["Statement", ...]


class IfThenElse(Frozen):
    guard: Guard
    then: "Statement"
    els: "Statement"


class While(Frozen):
    guard: Guard
    body: "Statement"


Statement = Union[
    Skip, Diverge, AssignConst, Decrement, IidIncrement, Choice, Seq, IfThenElse, While,
]


class Classification(Frozen):
    is_single_loop: bool          # exactly one while, loop-free body


class ProgramAst(Frozen):
    variables: Tuple[str, ...]
    body: Statement


# -- classification --------------------------------------------------------------

def _stmts(s: Statement):
    yield s
    if isinstance(s, Seq):
        for t in s.stmts:
            yield from _stmts(t)
    elif isinstance(s, Choice):
        yield from _stmts(s.left)
        yield from _stmts(s.right)
    elif isinstance(s, IfThenElse):
        yield from _stmts(s.then)
        yield from _stmts(s.els)
    elif isinstance(s, While):
        yield from _stmts(s.body)


def classify(ast: ProgramAst) -> Classification:
    top = ast.body
    single = isinstance(top, While) and not any(isinstance(s, While) for s in _stmts(top.body))
    return Classification(single)


def top_level_segments(ast: ProgramAst) -> List[Statement]:
    """The top-level statements: the body's Seq split once, not recursively."""
    return list(ast.body.stmts) if isinstance(ast.body, Seq) else [ast.body]


# -- desugaring -------------------------------------------------------------------

def desugar_linear_assign(var: str, coeffs: Dict[str, int], constant: int,
                          line: int, col: int) -> Statement:
    """x := sum coeffs[v]*v + constant as primitive statements.

    The self-coefficient is applied first (multiplicative), then cross-variable
    increments, then the constant; a negative constant becomes decrements and
    saturates at zero like every decrement.  A constant alone (``x := 3``) is
    one ``AssignConst``, and ``x := x`` is ``Skip``.  The coefficients are
    nonnegative: the parser refuses the others.  Subtracting more than
    MAX_SUBTRACTED is a ``SyntaxError_`` at (line, col).
    """
    if -constant > MAX_SUBTRACTED:
        raise SyntaxError_(f"cannot subtract {-constant}: at most {MAX_SUBTRACTED}", line, col)
    if not coeffs and constant >= 0:
        return AssignConst(var, constant)
    out: List[Statement] = []
    self_c = coeffs.get(var, 0)
    others = {v: c for v, c in coeffs.items() if v != var and c}
    if self_c == 0:
        out.append(AssignConst(var, 0))
    elif self_c > 1:
        out.append(IidIncrement(var, dirac(self_c - 1), var))
    for v in sorted(others):
        out.append(IidIncrement(var, dirac(others[v]), v))
    if constant > 0:
        out.append(IidIncrement(var, dirac(constant), None))
    elif constant < 0:
        out.extend(Decrement(var) for _ in range(-constant))
    if not out:
        return Skip()
    return out[0] if len(out) == 1 else Seq(tuple(out))


# -- parser -----------------------------------------------------------------------

# a distribution written name(arg, ...): its pgf builder and the type of each argument
_FIXED_DISTS = {
    "bernoulli": (bernoulli, (Fraction,)),
    "geometric": (geometric, (Fraction,)),
    "uniform": (uniform, (int, int)),
    "dirac": (dirac, (int,)),
}

# x op n as a guard of the core
_COMPARISONS = {
    "<": Lt,
    "<=": lambda v, n: Lt(v, n + 1),
    ">": lambda v, n: Not(Lt(v, n + 1)),
    ">=": lambda v, n: Not(Lt(v, n)),
    "=": Eq,
    "!=": lambda v, n: Not(Eq(v, n)),
}


class _ProgParser(FormParser):
    """The program grammar on the closed-form parser's lexer and cursor."""

    Error = SyntaxError_
    keywords = frozenset({"nat", "skip", "diverge", "while", "if", "else", "iid", "mod",
                          "pgf", *_FIXED_DISTS})
    comments = True

    def __init__(self, src: str):
        super().__init__(src, known_vars=["t"])     # the indeterminate of a pgf body
        self.variables: List[str] = []

    def check_var(self, tok) -> str:
        """The declared variable that ``tok`` names."""
        if tok.value not in self.variables:
            raise UndeclaredVariable(f"{tok.line}:{tok.col}: undeclared variable {tok.value!r}")
        return tok.value

    def parse_program(self) -> ProgramAst:
        while self.peek().kind == "nat":
            self.next()
            name = self.expect("ident").value
            if name in self.variables:
                raise self.error(f"duplicate declaration of {name!r}")
            self.variables.append(name)
            self.expect(";")
        body = self.parse_stmt_seq(until="eof")
        self.expect("eof")
        return ProgramAst(tuple(self.variables), body)

    def parse_stmt_seq(self, until: str) -> Statement:
        self.nest()
        stmts: List[Statement] = []
        while self.peek().kind != until:
            s = self.parse_stmt()
            stmts.extend(s.stmts if isinstance(s, Seq) else [s])
            if self.peek().kind == ";":
                self.next()
            elif self.peek().kind != until:
                raise self.error("expected ';' between statements")
        if not stmts:
            raise self.error("empty statement sequence")
        self.depth -= 1
        return stmts[0] if len(stmts) == 1 else Seq(tuple(stmts))

    def block(self) -> Statement:
        """``{ statements }``"""
        self.expect("{")
        s = self.parse_stmt_seq(until="}")
        self.expect("}")
        return s

    def parse_stmt(self) -> Statement:
        t = self.peek()
        if t.kind in ("skip", "diverge"):
            self.next()
            return Skip() if t.kind == "skip" else Diverge()
        if t.kind in ("while", "if"):
            self.next()
            self.expect("(")
            g = self.parse_guard()
            self.expect(")")
            body = self.block()
            if t.kind == "while":
                return While(g, body)
            els: Statement = Skip()
            if self.peek().kind == "else":
                self.next()
                els = self.block()
            return IfThenElse(g, body, els)
        if t.kind == "{":
            left = self.block()
            if self.peek().kind != "[":
                return left
            self.next()
            p = self.parse_rational()
            self.expect("]")
            right = self.block()
            if not (0 <= p <= 1):
                raise InvalidProbability(f"choice probability {p} not in [0,1]")
            return Choice(p, left, right)
        if t.kind == "ident":
            return self.parse_assign()
        raise self.error(f"expected statement, found {t.value!r}")

    def parse_assign(self) -> Statement:
        tok = self.next()
        var = self.check_var(tok)
        op = self.next()
        if op.kind == "--":
            return Decrement(var)
        if op.kind == "+=":
            self.expect("iid")
            self.expect("(")
            pgf = self.parse_dist()
            self.expect(",")
            cnt = self.next()
            if cnt.kind == "ident":
                count: Optional[str] = self.check_var(cnt)
            elif cnt.kind == "num" and cnt.value == 1:
                count = None
            else:
                raise self.error("expected count variable or 1", cnt)
            self.expect(")")
            return IidIncrement(var, pgf, count)
        if op.kind != ":=":
            raise self.error(f"expected ':=', '+=' or '--', found {op.value!r}", op)
        if self.peek().kind in _FIXED_DISTS or self.peek().kind == "pgf":
            return Seq((AssignConst(var, 0), IidIncrement(var, self.parse_dist(), None)))
        return desugar_linear_assign(var, *self.parse_linear_expr(), tok.line, tok.col)

    def parse_linear_expr(self) -> Tuple[Dict[str, int], int]:
        coeffs: Dict[str, int] = {}
        constant = 0
        sign = 1
        while True:
            t = self.peek()
            if t.kind not in ("num", "ident"):
                raise self.error("expected linear expression term")
            k = self.next().value if t.kind == "num" else 1
            if t.kind == "num" and self.peek().kind not in ("*", "ident"):
                constant += sign * k
            else:                               # k*x, k x or x
                if self.peek().kind == "*":
                    self.next()
                v = self.check_var(self.expect("ident"))
                coeffs[v] = coeffs.get(v, 0) + sign * k
            if self.peek().kind not in ("+", "-"):
                break
            sign = 1 if self.next().kind == "+" else -1
        coeffs = {v: c for v, c in coeffs.items() if c}
        if any(c < 0 for c in coeffs.values()):
            raise ProgramError("negative variable coefficient in assignment")
        return coeffs, constant

    def parse_rational(self) -> Fraction:
        t = self.expect("num")
        den = 1
        if self.peek().kind == "/":
            self.next()
            den = self.expect("num").value
            if den == 0:
                raise self.error("zero denominator", t)
        return Fraction(t.value, den)

    def parse_dist(self) -> ClosedForm:
        """A distribution, as its pgf in T."""
        t = self.next()
        if t.kind == "pgf":
            self.expect("(")
            body = self.peek()
            try:
                form = self.expr()
                self.expect(")")
            except (GfSyntaxError, AlgebraError) as e:
                # reported at the body's first token, wherever in it the error is
                message = e.message if isinstance(e, GfSyntaxError) else str(e)
                raise SyntaxError_(message, body.line, body.col) from None
            return check_dist(form)
        if t.kind not in _FIXED_DISTS:
            raise self.error(f"expected distribution, found {t.value!r}", t)
        build, arg_types = _FIXED_DISTS[t.kind]
        self.expect("(")
        args = []
        for i, arg_type in enumerate(arg_types):
            if i:
                self.expect(",")
            args.append(self.parse_rational() if arg_type is Fraction else self.expect("num").value)
        self.expect(")")
        return build(*args)

    def parse_guard(self) -> Guard:
        g = self.parse_and()
        while self.peek().kind == "||":
            self.next()
            g = Or(g, self.parse_and())
        return g

    def parse_and(self) -> Guard:
        g = self.parse_guard_atom()
        while self.peek().kind == "&&":
            self.next()
            g = And(g, self.parse_guard_atom())
        return g

    def parse_guard_atom(self) -> Guard:
        t = self.peek()
        if t.kind in ("!", "("):
            self.next()
            self.nest()
            if t.kind == "!":
                g = Not(self.parse_guard_atom())
            else:
                g = self.parse_guard()
                self.expect(")")
            self.depth -= 1
            return g
        v = self.check_var(self.expect("ident"))
        op = self.next()
        if op.kind not in _COMPARISONS:
            raise self.error(f"expected comparison, found {op.value!r}", op)
        n = self.expect("num").value
        if op.kind == "=" and self.peek().kind == "mod":
            self.next()
            d = self.expect("num").value
            if d < 2 or n >= d:
                raise self.error("modulo guard needs residue < modulus, modulus >= 2", op)
            return ModEq(v, n, d)
        return _COMPARISONS[op.kind](v, n)


def parse(source: str) -> ProgramAst:
    """Parse program text; raises SyntaxError_/UndeclaredVariable/InvalidProbability."""
    return _ProgParser(source).parse_program()
