"""Canonical ASCII grammar for closed forms, and the one lexer for both grammars.

One lexer (``_TOKEN_RE``) and one token cursor (``FormParser``) read closed
forms and programs.  The program parser in ``gfinv.program`` extends
``FormParser`` with statements, guards and distributions, and reads a
``pgf(...)`` body in place with the closed-form rules.  Keywords and ``//``
comments exist only in programs, so ``1//2`` is no closed form.  A syntax
error in either grammar reads ``line:col: message``.

Indeterminates print as a single uppercase letter when the underlying
variable name is one character (``x`` -> ``X``) and as ``X_name`` otherwise.
Lowercase identifiers denote template parameters and are stored internally
with a ``$`` prefix so they can never collide with program variables.
Rationals print as ``p/q``; ``/`` is ordinary division, so ``1/2`` and
``1/(2-C)`` need no special lexing.

Printing of a normalized form followed by parsing is the identity.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence, Tuple

from .closedform import ClosedForm, from_poly
from .poly import MONO_ONE, Polynomial


class GfSyntaxError(ValueError):
    """A syntax error at ``line:col`` of the text read."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message, self.line, self.col = message, line, col


# -- printing -----------------------------------------------------------------

def indet_symbol(var: str, all_vars: Sequence[str]) -> str:
    if len(var) == 1 and sum(1 for v in all_vars if v[0] == var[0]) <= 1:
        return var.upper()
    return "X_" + var


def format_monomial(m, all_vars: Sequence[str]) -> str:
    if m == MONO_ONE:
        return "1"
    bits = []
    for v, e in sorted(m, key=lambda p: (p[0].startswith("$"), p[0])):
        s = v[1:] if v.startswith("$") else indet_symbol(v, all_vars)
        bits.append(s if e == 1 else f"{s}^{e}")
    return "*".join(bits)


def _format_poly(p: Polynomial, order: Optional[Sequence[str]],
                 all_vars: Sequence[str]) -> str:
    """p with its terms in graded-lex order on ``order``, each variable's
    symbol chosen among ``all_vars``."""
    if p.is_zero():
        return "0"
    parts: List[str] = []
    for m, c in p.sorted_terms(order):
        mono = format_monomial(m, all_vars)
        if m == MONO_ONE:
            text = str(abs(c))
        elif abs(c) == 1:
            text = mono
        else:
            text = f"{abs(c)}*{mono}"
        if not parts:
            parts.append(text if c > 0 else "-" + text)
        else:
            parts.append(("+ " if c > 0 else "- ") + text)
    return " ".join(parts)


def format_closed_form(f: ClosedForm, order: Optional[Sequence[str]] = None) -> str:
    """f as text.  Symbols are chosen among ``order`` when it is given, else
    among the variables of the whole form: the parser reads both halves with
    one set."""
    all_vars = sorted(f.vars()) if order is None else order
    num = _format_poly(f.num, order, all_vars)
    if f.is_polynomial():
        return num
    den = _format_poly(f.den, order, all_vars)
    if len(f.num.terms) > 1:
        num = f"({num})"
    return f"{num}/({den})"


# -- parsing ------------------------------------------------------------------

# Parentheses, unary minus, blocks and guard levels nest at most this deep.
# Each level costs a recursive-descent parser up to four stack frames, so the
# limit keeps a malformed input far from Python's recursion limit.
MAX_NESTING = 100

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<comment>//[^\n]*)"
    r"|(?P<num>\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>:=|\+=|--|<=|>=|!=|&&|\|\||[-+*/^;,(){}\[\]<>=!])"
)


class _Tok:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value, line: int, col: int):
        self.kind, self.value, self.line, self.col = kind, value, line, col


class FormParser:
    """The token cursor both grammars share, and the closed-form grammar.

    The program parser extends it: ``keywords`` and ``comments`` widen what
    the lexer reads, and ``Error`` is the class its syntax errors raise."""

    Error = GfSyntaxError
    keywords: frozenset = frozenset()
    comments = False

    def __init__(self, text: str, known_vars: Optional[Sequence[str]] = None):
        self.toks = self._lex(text)
        self.i = 0
        self.depth = 0
        self.known_vars = list(known_vars) if known_vars else None
        self.parameters: set = set()

    def _lex(self, text: str) -> List[_Tok]:
        toks: List[_Tok] = []
        line, col, pos = 1, 1, 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise self.Error(f"unexpected character {text[pos]!r}", line, col)
            kind, s = m.lastgroup, m.group()
            if kind == "comment" and not self.comments:
                raise self.Error("'//' comments are allowed only in programs", line, col)
            if kind == "num":
                toks.append(_Tok("num", int(s), line, col))
            elif kind == "ident":
                toks.append(_Tok(s if s in self.keywords else "ident", s, line, col))
            elif kind == "op":
                toks.append(_Tok(s, s, line, col))
            if "\n" in s:
                line += s.count("\n")
                col = len(s) - s.rfind("\n")
            else:
                col += len(s)
            pos = m.end()
        toks.append(_Tok("eof", "end of input", line, col))
        return toks

    # -- the cursor --

    def peek(self) -> _Tok:
        return self.toks[min(self.i, len(self.toks) - 1)]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.next()
        if t.kind != kind:
            raise self.error(f"expected {kind!r}, found {t.value!r}", t)
        return t

    def error(self, message: str, tok: Optional[_Tok] = None) -> GfSyntaxError:
        """A syntax error at ``tok``, by default the next token."""
        t = tok or self.peek()
        return self.Error(message, t.line, t.col)

    def nest(self):
        """Enter one nesting level; MAX_NESTING bounds the recursion."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error("nesting too deep")

    def sign(self) -> str:
        """Take one '+' or '-'.  A '--' lexes as one token, for the program's
        decrement; in a form it is two minus signs, and this takes the first."""
        t = self.toks[self.i]
        if t.kind == "--":
            self.toks[self.i] = _Tok("-", "-", t.line, t.col + 1)
            return "-"
        self.i += 1
        return t.kind

    # -- the closed-form grammar --

    def parse(self) -> ClosedForm:
        f = self.expr()
        if self.peek().kind != "eof":
            raise self.error("trailing input")
        return f

    def expr(self) -> ClosedForm:
        f = self.term()
        while self.peek().kind in ("+", "-", "--"):
            op = self.sign()
            g = self.term()
            f = f + g if op == "+" else f - g
        return f

    def term(self) -> ClosedForm:
        f = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            g = self.factor()
            f = f * g if op == "*" else f / g
        return f

    def factor(self) -> ClosedForm:
        if self.peek().kind in ("-", "--"):
            self.sign()
            self.nest()
            f = -self.factor()
            self.depth -= 1
            return f
        f = self.atom()
        if self.peek().kind == "^":
            self.next()
            exp = self.next()
            if exp.kind != "num":
                raise self.error("expected natural exponent", exp)
            return f ** exp.value
        return f

    def atom(self) -> ClosedForm:
        t = self.next()
        if t.kind == "num":
            return from_poly(Polynomial.const(t.value))
        if t.kind == "(":
            self.nest()
            f = self.expr()
            self.expect(")")
            self.depth -= 1
            return f
        if t.kind == "ident":
            return from_poly(Polynomial.var(self.resolve(t)))
        raise self.error("expected number, variable, or parenthesis", t)

    def resolve(self, tok: _Tok) -> str:
        """The variable an identifier names.  ``X`` and ``X_name`` are
        indeterminates, among ``known_vars`` when they are given; another
        lowercase name is a known variable or a template parameter."""
        name = tok.value
        if name.startswith("X_") or len(name) == 1 and name.isupper():
            if self.known_vars is None:
                var = name[2:] if name.startswith("X_") else name.lower()
                if var[:1].islower():       # so that it prints back as name
                    return var
            else:
                for v in self.known_vars:
                    if name in ("X_" + v, indet_symbol(v, self.known_vars)):
                        return v
            raise self.error(f"unknown indeterminate {name!r}", tok)
        if name[0].isupper():
            raise self.error(
                f"uppercase identifier {name!r} is not an indeterminate; use X_name", tok)
        if self.known_vars is not None and name in self.known_vars:
            return name
        self.parameters.add(name)
        return "$" + name


def parse_closed_form(text: str, known_vars: Optional[Sequence[str]] = None) -> ClosedForm:
    return FormParser(text, known_vars).parse()


def parse_closed_form_with_params(
    text: str, known_vars: Optional[Sequence[str]] = None
) -> Tuple[ClosedForm, Tuple[str, ...]]:
    p = FormParser(text, known_vars)
    return p.parse(), tuple(sorted(p.parameters))
