"""Property tests of both parsers: printing then parsing is the identity on
the core language, on normalized closed forms and on every closed form that
parses, and no text makes a parser raise anything but its documented errors."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from gfinv import program as P
from gfinv.algebra import (
    AlgebraError,
    GfSyntaxError,
    Polynomial,
    format_closed_form,
    normalize,
    parse_closed_form,
)
from gfinv.program import ProgramError, parse

from support import print_program

VARS = ("x", "y")
var = st.sampled_from(VARS)
small = st.integers(0, 4)
open_prob = st.integers(1, 5).flatmap(lambda q: st.integers(1, q).map(lambda p: F(p, q + 1)))

guard_atoms = st.one_of(
    st.builds(P.Lt, var, small),
    st.builds(P.Eq, var, small),
    st.integers(2, 4).flatmap(
        lambda d: st.builds(P.ModEq, var, st.integers(0, d - 1), st.just(d))),
)
guards = st.recursive(guard_atoms, lambda g: st.one_of(
    st.builds(P.And, g, g), st.builds(P.Or, g, g), st.builds(P.Not, g)), max_leaves=4)

PGFS = [parse_closed_form(text, ["t"]) for text in ("1/2 + 1/2*T", "1/(2 - T)")]
dists = st.one_of(
    st.builds(P.bernoulli, open_prob),
    st.builds(P.geometric, open_prob),
    small.flatmap(lambda lo: st.builds(P.uniform, st.just(lo), st.integers(lo, 5))),
    st.builds(P.dirac, st.integers(1, 4)),
    st.sampled_from(PGFS),
)
leaves = st.one_of(
    st.just(P.Skip()),
    st.just(P.Diverge()),
    st.builds(P.AssignConst, var, small),
    st.builds(P.Decrement, var),
    st.builds(P.IidIncrement, var, dists, st.one_of(st.none(), var)),
)


def _seq(stmts):
    return P.Seq(tuple(t for s in stmts for t in (s.stmts if isinstance(s, P.Seq) else (s,))))


statements = st.recursive(leaves, lambda s: st.one_of(
    st.builds(P.Choice, st.fractions(0, 1, max_denominator=4), s, s),
    st.lists(s, min_size=2, max_size=3).map(_seq),
    st.builds(P.IfThenElse, guards, s, s),
    st.builds(P.While, guards, s),
), max_leaves=8)
programs = st.builds(P.ProgramAst, st.just(VARS), statements)

PROGRAM_TOKENS = ["nat", "x", "y", ";", "while", "if", "else", "skip", "diverge", "(", ")",
                  "{", "}", "[", "]", ":=", "+=", "--", "<", "<=", ">", ">=", "=", "!=",
                  "&&", "||", "!", "mod", "iid", "bernoulli", "geometric", "uniform",
                  "dirac", "pgf", "0", "1", "2", "1/2", "+", "-", "*", "/", ",", "^", "T",
                  "X"]
FORM_TOKENS = ["X", "Y", "X_y", "X_", "T", "a", "q", "mod", "0", "1", "2", "1/2", "(", ")",
               "+", "-", "--", "*", "/", "//", "^"]


def texts(tokens):
    """Random text, and random strings of the language's tokens."""
    return st.one_of(st.text(max_size=40),
                     st.lists(st.sampled_from(tokens), max_size=30).map(" ".join))


@settings(derandomize=True, deadline=None)
@given(programs)
def test_printed_programs_parse_back(ast):
    assert parse(print_program(ast)) == ast


@settings(derandomize=True, deadline=None)
@given(st.data())
def test_programs_raise_only_program_errors(data):
    # random text, random pgf bodies, and printed programs cut short or with
    # one token inserted
    src = data.draw(programs.map(print_program))
    k = data.draw(st.integers(0, len(src)))
    text = data.draw(st.one_of(
        texts(PROGRAM_TOKENS),
        texts(FORM_TOKENS).map(lambda body: f"nat x;\nx := pgf({body})"),
        st.just(src[:k]),
        st.sampled_from(PROGRAM_TOKENS).map(lambda t: f"{src[:k]} {t} {src[k:]}")))
    try:
        parse(text)
    except ProgramError:
        pass


MONOS = [(("x", 1),), (("y", 1),), (("x", 1), ("y", 1)), (("x", 2),), (("y", 2),)]
coefficients = st.fractions(-3, 3, max_denominator=3)


def polys(constant):
    """Polynomials in x and y of degree 2 or less with the given constant term."""
    return st.lists(st.tuples(st.sampled_from(MONOS), coefficients), max_size=4).map(
        lambda terms: sum((Polynomial.monomial(m, c) for m, c in terms), constant))


@settings(derandomize=True, deadline=None)
@given(coefficients.flatmap(lambda c: polys(Polynomial.const(c))),
       coefficients.filter(bool).flatmap(lambda c: polys(Polynomial.const(c))))
def test_printed_closed_forms_parse_back(num, den):
    f = normalize(num, den)
    assert parse_closed_form(format_closed_form(f)) == f


@settings(derandomize=True, deadline=None)
@given(texts(FORM_TOKENS))
def test_closed_forms_raise_only_documented_errors(text):
    try:
        parse_closed_form(text)
    except (GfSyntaxError, AlgebraError):
        pass


@settings(derandomize=True, deadline=None)
@given(texts(FORM_TOKENS))
def test_parsed_closed_forms_print_and_parse_back(text):
    try:
        f = parse_closed_form(text)
    except (GfSyntaxError, AlgebraError):
        return
    assert parse_closed_form(format_closed_form(f)) == f
