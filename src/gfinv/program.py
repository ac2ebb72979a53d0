"""AST, concrete syntax, parser and fragment classifier for probabilistic programs.

The accepted language is a guarded command language over natural-valued
variables.  Its core, which every interpreter handles, has the statements
skip, diverge, constant assignment, decrement (saturating at 0), iid-sample
increments, probabilistic choice, sequences, conditionals and while loops,
and the guards ``x < n``, ``x = n``, ``x = r mod d`` and their combinations
by ``&&``, ``||`` and ``!``.

Everything else is sugar that the parser rewrites into the core:

- linear assignments such as ``x := 2*x + y + 1`` become increments
  (``desugar_linear_assign``); subtraction of a constant becomes repeated
  decrements and therefore saturates at zero;
- ``x <= n`` is ``x < n + 1``, ``x > n`` is ``!(x < n + 1)``, ``x >= n`` is
  ``!(x < n)`` and ``x != n`` is ``!(x = n)``;
- sampling ``x := D`` is ``x := 0`` followed by one iid increment of x by D.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from . import Frozen, Record
from .algebra import AlgebraError, ClosedForm, GfSyntaxError, mass, parse_closed_form, shape_nonneg
from .algebra.gfexpr import MAX_NESTING

MAX_SUBTRACTED = 100    # per assignment; each unit subtracted is one Decrement


class ProgramError(Exception):
    pass


class SyntaxError_(ProgramError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line, self.col = line, col


class UndeclaredVariable(ProgramError):
    pass


class InvalidProbability(ProgramError):
    pass


class UnsupportedExpression(ProgramError):
    pass


# -- distributions -------------------------------------------------------------

class Bernoulli(Frozen):
    p: Fraction


class Geometric(Frozen):
    """Number of failures before the first success: P(k) = p*(1-p)^k."""

    p: Fraction


class UniformRange(Frozen):
    lo: int
    hi: int


class Dirac(Frozen):
    value: int


class RawPgf(Frozen):
    form: ClosedForm  # univariate in the fresh indeterminate "T"


DistExpr = Union[Bernoulli, Geometric, UniformRange, Dirac, RawPgf]


def check_dist(d: DistExpr) -> DistExpr:
    if isinstance(d, (Bernoulli, Geometric)) and not (0 < d.p < 1):
        raise InvalidProbability(f"distribution parameter {d.p} not in (0,1)")
    if isinstance(d, UniformRange) and d.lo > d.hi:
        raise InvalidProbability(f"empty uniform range [{d.lo},{d.hi}]")
    if isinstance(d, RawPgf):
        if not (d.form.vars() <= {"t"}):
            raise InvalidProbability("pgf must be univariate in T")
        if not shape_nonneg(d.form):
            raise InvalidProbability("pgf fails the nonnegativity shape check")
        m = mass(d.form)
        if not m.finite or m.value != 1:
            raise InvalidProbability(f"pgf has mass {m}, expected 1")
    return d


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
    """var += sum of `count` iid draws from dist; count None means one draw."""

    var: str
    dist: DistExpr
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
        out.append(IidIncrement(var, Dirac(self_c - 1), var))
    for v in sorted(others):
        out.append(IidIncrement(var, Dirac(others[v]), v))
    if constant > 0:
        out.append(IidIncrement(var, Dirac(constant), None))
    elif constant < 0:
        out.extend(Decrement(var) for _ in range(-constant))
    if not out:
        return Skip()
    return out[0] if len(out) == 1 else Seq(tuple(out))


# -- parser -----------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+|//[^\n]*)"
    r"|(?P<nat>\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>:=|\+=|--|<=|>=|!=|&&|\|\||[-+*/^;,(){}\[\]<>=!])"
)

_KEYWORDS = {"nat", "skip", "diverge", "while", "if", "else", "iid", "mod",
             "bernoulli", "geometric", "uniform", "dirac", "pgf"}


class _Tok(Record):
    __slots__ = ("kind", "value", "line", "col", "pos")
    kind: str
    value: object
    line: int
    col: int
    pos: int                          # offset in the source

    def __init__(self, kind, value, line, col, pos):    # written out: one per token
        self.kind, self.value, self.line, self.col, self.pos = kind, value, line, col, pos


def _lex(src: str) -> List[_Tok]:
    toks: List[_Tok] = []
    line, col, pos = 1, 1, 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            raise SyntaxError_(f"unexpected character {src[pos]!r}", line, col)
        text = m.group(0)
        if m.lastgroup != "ws":
            if m.lastgroup == "nat":
                toks.append(_Tok("num", int(text), line, col, pos))
            elif m.lastgroup == "ident":
                kind = text if text in _KEYWORDS else "ident"
                toks.append(_Tok(kind, text, line, col, pos))
            else:
                toks.append(_Tok(text, text, line, col, pos))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    toks.append(_Tok("eof", None, line, col, pos))
    return toks


class _ProgParser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _lex(src)
        self.i = 0
        self.variables: List[str] = []
        self.depth = 0

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.next()
        if t.kind != kind:
            raise SyntaxError_(f"expected {kind!r}, found {t.value!r}", t.line, t.col)
        return t

    def err(self, message: str) -> SyntaxError_:
        t = self.peek()
        return SyntaxError_(message, t.line, t.col)

    def nest(self):
        """Enter a block or a guard level; MAX_NESTING bounds the recursion."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.err("nesting too deep")

    def check_var(self, name: str, tok: _Tok) -> str:
        if name not in self.variables:
            raise UndeclaredVariable(f"{tok.line}:{tok.col}: undeclared variable {name!r}")
        return name

    def parse_program(self) -> ProgramAst:
        while self.peek().kind == "nat":
            self.next()
            name = self.expect("ident").value
            if name in self.variables:
                raise self.err(f"duplicate declaration of {name!r}")
            self.variables.append(name)
            self.expect(";")
        body = self.parse_stmt_seq(until=("eof",))
        self.expect("eof")
        return ProgramAst(tuple(self.variables), body)

    def parse_stmt_seq(self, until: Tuple[str, ...]) -> Statement:
        self.nest()
        stmts: List[Statement] = []
        while True:
            t = self.peek()
            if t.kind in until:
                break
            stmts.append(self.parse_stmt())
            if self.peek().kind == ";":
                self.next()
            elif self.peek().kind not in until:
                raise self.err("expected ';' between statements")
        if not stmts:
            raise self.err("empty statement sequence")
        flat: List[Statement] = []
        for s in stmts:
            flat.extend(s.stmts if isinstance(s, Seq) else [s])
        self.depth -= 1
        return flat[0] if len(flat) == 1 else Seq(tuple(flat))

    def parse_stmt(self) -> Statement:
        t = self.peek()
        if t.kind == "skip":
            self.next()
            return Skip()
        if t.kind == "diverge":
            self.next()
            return Diverge()
        if t.kind == "while":
            self.next()
            self.expect("(")
            g = self.parse_guard()
            self.expect(")")
            self.expect("{")
            body = self.parse_stmt_seq(until=("}",))
            self.expect("}")
            return While(g, body)
        if t.kind == "if":
            self.next()
            self.expect("(")
            g = self.parse_guard()
            self.expect(")")
            self.expect("{")
            then = self.parse_stmt_seq(until=("}",))
            self.expect("}")
            els: Statement = Skip()
            if self.peek().kind == "else":
                self.next()
                self.expect("{")
                els = self.parse_stmt_seq(until=("}",))
                self.expect("}")
            return IfThenElse(g, then, els)
        if t.kind == "{":
            self.next()
            inner = self.parse_stmt_seq(until=("}",))
            self.expect("}")
            if self.peek().kind == "[":
                self.next()
                p = self.parse_rational()
                self.expect("]")
                self.expect("{")
                right = self.parse_stmt_seq(until=("}",))
                self.expect("}")
                if not (0 <= p <= 1):
                    raise InvalidProbability(f"choice probability {p} not in [0,1]")
                return Choice(p, inner, right)
            return inner
        if t.kind == "ident":
            return self.parse_assign()
        raise self.err(f"expected statement, found {t.value!r}")

    def parse_assign(self) -> Statement:
        tok = self.next()
        var = self.check_var(tok.value, tok)
        op = self.next()
        if op.kind == "--":
            return Decrement(var)
        if op.kind == "+=":
            self.expect("iid")
            self.expect("(")
            dist = self.parse_dist()
            self.expect(",")
            cnt = self.next()
            if cnt.kind == "ident":
                count: Optional[str] = self.check_var(cnt.value, cnt)
            elif cnt.kind == "num" and cnt.value == 1:
                count = None
            else:
                raise SyntaxError_("expected count variable or 1", cnt.line, cnt.col)
            self.expect(")")
            return IidIncrement(var, check_dist(dist), count)
        if op.kind != ":=":
            raise SyntaxError_(f"expected ':=', '+=' or '--', found {op.value!r}",
                               op.line, op.col)
        if self.peek().kind in ("bernoulli", "geometric", "uniform", "dirac", "pgf"):
            dist = check_dist(self.parse_dist())
            return Seq((AssignConst(var, 0), IidIncrement(var, dist, None)))
        return desugar_linear_assign(var, *self.parse_linear_expr(), tok.line, tok.col)

    def parse_linear_expr(self) -> Tuple[Dict[str, int], int]:
        coeffs: Dict[str, int] = {}
        constant = 0
        sign = 1
        while True:
            t = self.peek()
            if t.kind == "num":
                self.next()
                k = t.value
                if self.peek().kind == "*":
                    self.next()
                    vt = self.expect("ident")
                    v = self.check_var(vt.value, vt)
                    coeffs[v] = coeffs.get(v, 0) + sign * k
                elif self.peek().kind == "ident":
                    vt = self.next()
                    v = self.check_var(vt.value, vt)
                    coeffs[v] = coeffs.get(v, 0) + sign * k
                else:
                    constant += sign * k
            elif t.kind == "ident":
                self.next()
                v = self.check_var(t.value, t)
                coeffs[v] = coeffs.get(v, 0) + sign
            else:
                raise self.err("expected linear expression term")
            nxt = self.peek()
            if nxt.kind == "+":
                self.next()
                sign = 1
            elif nxt.kind == "-":
                self.next()
                sign = -1
            else:
                break
        coeffs = {v: c for v, c in coeffs.items() if c}
        if any(c < 0 for c in coeffs.values()):
            raise UnsupportedExpression("negative variable coefficient in assignment")
        return coeffs, constant

    def parse_rational(self) -> Fraction:
        t = self.expect("num")
        num = t.value
        if self.peek().kind == "/":
            self.next()
            den = self.expect("num").value
            if den == 0:
                raise SyntaxError_("zero denominator", t.line, t.col)
            return Fraction(num, den)
        return Fraction(num)

    def parse_dist(self) -> DistExpr:
        t = self.next()
        if t.kind == "bernoulli":
            self.expect("(")
            p = self.parse_rational()
            self.expect(")")
            return Bernoulli(p)
        if t.kind == "geometric":
            self.expect("(")
            p = self.parse_rational()
            self.expect(")")
            return Geometric(p)
        if t.kind == "uniform":
            self.expect("(")
            lo = self.expect("num").value
            self.expect(",")
            hi = self.expect("num").value
            self.expect(")")
            return UniformRange(lo, hi)
        if t.kind == "dirac":
            self.expect("(")
            n = self.expect("num").value
            self.expect(")")
            return Dirac(n)
        if t.kind == "pgf":
            # the closed-form parser reads the raw text between the parentheses;
            # its errors are reported at the start of that text
            start = self.expect("(").pos + 1
            body = self.peek()
            depth = 1
            while depth:
                tok = self.next()
                if tok.kind == "eof":
                    raise SyntaxError_("unterminated pgf(...)", tok.line, tok.col)
                if tok.kind == "(":
                    depth += 1
                elif tok.kind == ")":
                    depth -= 1
            try:
                return RawPgf(parse_closed_form(self.src[start:tok.pos], known_vars=["t"]))
            except (GfSyntaxError, AlgebraError) as e:
                raise SyntaxError_(str(e), body.line, body.col) from None
        raise SyntaxError_(f"expected distribution, found {t.value!r}", t.line, t.col)

    def parse_guard(self) -> Guard:
        return self.parse_or()

    def parse_or(self) -> Guard:
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
        if t.kind == "!":
            self.next()
            self.nest()
            g = Not(self.parse_guard_atom())
            self.depth -= 1
            return g
        if t.kind == "(":
            self.next()
            self.nest()
            g = self.parse_guard()
            self.expect(")")
            self.depth -= 1
            return g
        vt = self.expect("ident")
        v = self.check_var(vt.value, vt)
        op = self.next()
        if op.kind not in ("<", "<=", ">", ">=", "=", "!="):
            raise SyntaxError_(f"expected comparison, found {op.value!r}", op.line, op.col)
        n = self.expect("num").value
        if op.kind == "=" and self.peek().kind == "mod":
            self.next()
            d = self.expect("num").value
            if d < 2 or n >= d:
                raise SyntaxError_(f"modulo guard needs residue < modulus, modulus >= 2",
                                   op.line, op.col)
            return ModEq(v, n, d)
        if op.kind == "<":
            return Lt(v, n)
        if op.kind == "<=":
            return Lt(v, n + 1)
        if op.kind == ">":
            return Not(Lt(v, n + 1))
        if op.kind == ">=":
            return Not(Lt(v, n))
        if op.kind == "=":
            return Eq(v, n)
        return Not(Eq(v, n))


def parse(source: str) -> ProgramAst:
    """Parse program text; raises SyntaxError_/UndeclaredVariable/InvalidProbability."""
    return _ProgParser(source).parse_program()


# -- pretty printer ----------------------------------------------------------------

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


def print_dist(d: DistExpr) -> str:
    if isinstance(d, Bernoulli):
        return f"bernoulli({d.p})"
    if isinstance(d, Geometric):
        return f"geometric({d.p})"
    if isinstance(d, UniformRange):
        return f"uniform({d.lo}, {d.hi})"
    if isinstance(d, Dirac):
        return f"dirac({d.value})"
    from .algebra import format_closed_form
    return f"pgf({format_closed_form(d.form)})"


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
        if isinstance(s.dist, Dirac):
            if s.count is None:
                return pad + f"{s.var} := {s.var} + {s.dist.value}"
            return pad + f"{s.var} := {s.var} + {s.dist.value}*{s.count}"
        count = s.count if s.count is not None else "1"
        return pad + f"{s.var} += iid({print_dist(s.dist)}, {count})"
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
