"""Canonical ASCII grammar for closed forms.

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
    def __init__(self, message: str, pos: Optional[int] = None):
        super().__init__(message if pos is None else f"{message} (at offset {pos})")
        self.pos = pos


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

# Parentheses and unary minus nest at most this deep.  Each level costs the
# recursive-descent parser up to four stack frames, so the limit keeps a
# malformed input far from Python's recursion limit.
MAX_NESTING = 100

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^|\+|\-|\*|/|\(|\)))")


def _tokenize(text: str):
    tokens: List[Tuple[str, object, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise GfSyntaxError(f"unexpected character {text[pos]!r}", pos)
            break
        if m.group(1):
            tokens.append(("nat", int(m.group(1)), m.start(1)))
        elif m.group(2):
            tokens.append(("ident", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("eof", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, known_vars: Optional[Sequence[str]]):
        self.tokens = _tokenize(text)
        self.i = 0
        self.known_vars = list(known_vars) if known_vars else None
        self.parameters: set = set()
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise GfSyntaxError(f"expected {op!r}", pos)

    def nest(self, pos: int):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise GfSyntaxError("nesting too deep", pos)

    def parse(self) -> ClosedForm:
        f = self.expr()
        kind, _, pos = self.peek()
        if kind != "eof":
            raise GfSyntaxError("trailing input", pos)
        return f

    def expr(self) -> ClosedForm:
        f = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                g = self.term()
                f = f + g if val == "+" else f - g
            else:
                return f

    def term(self) -> ClosedForm:
        f = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                g = self.factor()
                f = f * g if val == "*" else f / g
            else:
                return f

    def factor(self) -> ClosedForm:
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            self.nest(pos)
            f = -self.factor()
            self.depth -= 1
            return f
        f = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            k2, exp, pos2 = self.next()
            if k2 != "nat":
                raise GfSyntaxError("expected natural exponent", pos2)
            return f ** exp
        return f

    def atom(self) -> ClosedForm:
        kind, val, pos = self.next()
        if kind == "nat":
            return from_poly(Polynomial.const(val))
        if kind == "op" and val == "(":
            self.nest(pos)
            f = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return f
        if kind == "ident":
            return from_poly(Polynomial.var(self.resolve(val, pos)))
        raise GfSyntaxError("expected number, variable, or parenthesis", pos)

    def resolve(self, name: str, pos: int) -> str:
        if name.startswith("X_"):
            return name[2:]
        if len(name) == 1 and name.isupper():
            lower = name.lower()
            if self.known_vars is not None:
                for v in self.known_vars:
                    if indet_symbol(v, self.known_vars) == name:
                        return v
                raise GfSyntaxError(f"unknown indeterminate {name!r}", pos)
            return lower
        if name[0].isupper():
            raise GfSyntaxError(
                f"uppercase identifier {name!r} is not an indeterminate; use X_name", pos)
        if self.known_vars is not None and name in self.known_vars:
            return name
        self.parameters.add(name)
        return "$" + name


def parse_closed_form(text: str, known_vars: Optional[Sequence[str]] = None) -> ClosedForm:
    return _Parser(text, known_vars).parse()


def parse_closed_form_with_params(
    text: str, known_vars: Optional[Sequence[str]] = None
) -> Tuple[ClosedForm, Tuple[str, ...]]:
    p = _Parser(text, known_vars)
    f = p.parse()
    return f, tuple(sorted(p.parameters))
