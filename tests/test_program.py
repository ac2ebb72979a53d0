from fractions import Fraction as F

import pytest

from gfinv import program as P
from gfinv.algebra import GfSyntaxError, parse_closed_form
from gfinv.program import (
    Choice,
    InvalidProbability,
    ProgramError,
    Seq,
    Skip,
    SyntaxError_,
    UndeclaredVariable,
    While,
    classify,
    dirac,
    parse,
)

from support import print_program

GEOMETRIC = "nat x; nat c;\nwhile (x = 1) { { c := c + 1 } [1/2] { x := 0 } }"

FDR = """
nat v; nat c; nat f;
while (f = 0) {
    v := 2*v;
    { c := 2*c } [1/2] { c := 2*c + 1 };
    if (v >= 6) {
        if (c < 6) { f := f + 1 }
        else { v := v - 6; c := c - 6 }
    }
}
"""


class TestParse:
    def test_geometric_shape(self):
        ast = parse(GEOMETRIC)
        assert ast.variables == ("x", "c")
        loop = ast.body
        assert isinstance(loop, While)
        assert loop.guard == P.Eq("x", 1)
        body = loop.body
        assert isinstance(body, Choice) and body.prob == F(1, 2)
        assert body.left == P.IidIncrement("c", dirac(1), None)
        assert body.right == P.AssignConst("x", 0)

    def test_skip(self):
        assert parse("skip").body == Skip()

    def test_fdr_doubling_desugared(self):
        ast = parse(FDR)
        stmts = ast.body.body.stmts
        assert stmts[0] == P.IidIncrement("v", dirac(1), "v")

    def test_undeclared_variable(self):
        with pytest.raises(UndeclaredVariable):
            parse("nat x;\ny := 2")

    def test_invalid_probability(self):
        with pytest.raises(InvalidProbability):
            parse("nat x;\n{ x := 1 } [3/2] { skip }")

    def test_syntax_error_carries_position(self):
        with pytest.raises(SyntaxError_) as exc:
            parse("nat x;\nwhile (x < ) { skip }")
        assert exc.value.line == 2

    def test_distribution_statements(self):
        ast = parse("nat x; nat y;\nx := geometric(1/2);\n"
                    "y += iid(bernoulli(1/3), x);\n"
                    "x += iid(uniform(1, 3), 1);\n"
                    "x := pgf(1/2 + 1/2*T)")
        kinds = [type(s).__name__ for s in ast.body.stmts]
        assert kinds == ["AssignConst", "IidIncrement", "IidIncrement", "IidIncrement",
                         "AssignConst", "IidIncrement"]

    def test_pgf_takes_powers(self):
        power = parse("nat x;\nx := pgf(1/2*T + 1/2*T^2)")
        product = parse("nat x;\nx := pgf(1/2*T + 1/2*T*T)")
        assert power == product
        assert parse(print_program(power)) == power

    def test_deep_nesting_is_a_syntax_error(self):
        ifs = "nat x;\n" + "if (x < 1) { " * 2000 + "skip" + " }" * 2000
        guard = "nat x;\nwhile (" + "!" * 2000 + "x < 1) { skip }"
        for src in (ifs, guard):
            with pytest.raises(SyntaxError_, match="nesting too deep"):
                parse(src)

    def test_comparisons_and_sampling_are_rewritten_into_the_core(self):
        def guard(text):
            return parse(f"nat x;\nwhile ({text}) {{ skip }}").body.guard

        assert guard("x > 2") == P.Not(P.Lt("x", 3))
        assert guard("x >= 2") == P.Not(P.Lt("x", 2))
        assert guard("x != 2") == P.Not(P.Eq("x", 2))
        # the sampling pair is flattened into the enclosing sequence
        assert parse("nat x; nat y;\ny := 1; x := geometric(1/2)").body == Seq((
            P.AssignConst("y", 1), P.AssignConst("x", 0),
            P.IidIncrement("x", P.geometric(F(1, 2)), None)))

    @pytest.mark.parametrize("body, message", [
        ("X", "unknown indeterminate 'X'"),
        ("T^", "expected natural exponent"),
        ("1/0", "denominator is identically zero"),
    ])
    def test_a_bad_pgf_body_is_a_syntax_error_at_the_body(self, body, message):
        with pytest.raises(SyntaxError_, match=message) as exc:
            parse(f"nat x;\nx :=  pgf({body})")
        assert (exc.value.line, exc.value.col) == (2, 11)

    def test_a_comment_is_read_in_a_pgf_body_but_not_in_a_closed_form(self):
        body = "1/2 + 1/2*T // a comment\n"
        assert parse(f"nat x;\nx := pgf({body})") == parse("nat x;\nx := pgf(1/2 + 1/2*T)")
        with pytest.raises(GfSyntaxError, match="1:13: '//' comments are allowed only in programs"):
            parse_closed_form(body, ["t"])

    def test_bad_pgf_mass_rejected(self):
        with pytest.raises(InvalidProbability):
            parse("nat x;\nx := pgf(1/2 + 1/4*T)")


class TestDesugarAssignments:
    def test_linear_combination(self):
        ast = parse("nat x; nat y;\nx := x + 2*y + 1")
        assert ast.body == Seq((P.IidIncrement("x", dirac(2), "y"),
                                P.IidIncrement("x", dirac(1), None)))

    def test_doubling(self):
        assert parse("nat v;\nv := 2*v").body == P.IidIncrement("v", dirac(1), "v")

    def test_self_assign_is_skip(self):
        assert parse("nat x;\nx := x").body == Skip()

    def test_constant_subtraction_becomes_decrements(self):
        ast = parse("nat x;\nx := x - 2")
        assert ast.body == Seq((P.Decrement("x"), P.Decrement("x")))


class TestClassify:
    def test_geometric_flags(self):
        c = classify(parse(GEOMETRIC))
        assert c.is_single_loop

    def test_nested_not_single(self):
        c = classify(parse("nat x;\nwhile (x < 1) { while (x < 2) { skip } }"))
        assert not c.is_single_loop


class TestPrintRoundTrip:
    def test_corpus_round_trips(self, corpus):
        for name, (ast, _, _, _) in corpus.items():
            assert parse(print_program(ast)) == ast, name

    def test_guard_round_trips(self):
        src = ("nat x; nat y;\n"
               "while ((x = 1 mod 3) && (!(y > 2) || x != 5)) { x := x + 3 }")
        ast = parse(src)
        assert parse(print_program(ast)) == ast
