import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gfinv.algebra import equal, parse_closed_form
from gfinv.cli import EXIT_ERROR, EXIT_FULL, EXIT_PARTIAL, run
from gfinv.program import parse

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
SRC = Path(__file__).resolve().parent.parent / "src"
GEO = str(BENCH / "geometric/program.pgcl")


def invoke(args):
    buf = io.StringIO()
    rc = run(args, out=buf)
    text = buf.getvalue()
    return rc, (json.loads(text) if text.strip() else None), text


def refusal(args, capsys):
    """The one stderr line of a refused call, after checking that it is one."""
    rc, _, text = invoke(args)
    err = capsys.readouterr().err
    assert rc == EXIT_ERROR and text == ""
    assert len(err.splitlines()) == 1 and err.startswith("gfinv: error:")
    return err


class TestExpand:
    def test_fig1_annotation(self):
        rc, rep, _ = invoke(["expand", "1/(2-C)", "--degree", "2"])
        assert rc == EXIT_FULL
        assert rep["coefficients"] == {"1": "1/2", "C": "1/4", "C^2": "1/8"}

    def test_bad_expression_is_error(self):
        rc, _, _ = invoke(["expand", "1/(", "--degree", "2"])
        assert rc == EXIT_ERROR

    def test_deep_nesting_is_a_one_line_error(self, capsys):
        args = ["expand", "(" * 3000 + "X" + ")" * 3000, "--degree", "2"]
        assert "nesting too deep" in refusal(args, capsys)

    def test_a_deadline_stops_the_expansion(self, capsys):
        # without a deadline, building the power takes about 1.3 s
        start = time.monotonic()
        err = refusal(["expand", "(1+X+Y)^60", "--degree", "1", "--timeout", "0.3"], capsys)
        assert time.monotonic() - start < 1.5
        assert err == "gfinv: error: deadline reached while raising a polynomial to the power 60\n"


class TestUnknownNames:
    """A lowercase name that is not a program variable would parse as a
    template parameter; at the command line it is an input error."""

    @pytest.mark.parametrize("name, args", [
        ("q", ["check", GEO, "--init", "X*q", "--invariant", "(1+2*X)/(2-C)"]),
        ("y", ["synthesize", GEO, "--init", "X*y"]),
        ("a", ["expand", "1/(1-a*X)", "--degree", "2"]),
    ], ids=["check-init", "synthesize-init", "expand"])
    def test_is_a_one_line_error(self, name, args, capsys):
        assert f"unknown name {name!r}" in refusal(args, capsys)


class TestMalformedForms:
    @pytest.mark.parametrize("args, message", [
        (["check", GEO, "--init", "X", "--invariant", "X_"], "unknown indeterminate 'X_'"),
        (["synthesize", GEO, "--init", "X_"], "unknown indeterminate 'X_'"),
        (["expand", "1/(1-X_)", "--degree", "2"], "unknown indeterminate 'X_'"),
        (["check", GEO, "--init", "X", "--invariant", "X_zz"], "unknown indeterminate 'X_zz'"),
        (["synthesize", GEO, "--init", "X_zz"], "unknown indeterminate 'X_zz'"),
        (["check", GEO, "--init", "X", "--invariant", "1//2"], "comments are allowed only"),
        (["synthesize", GEO, "--init", "1//2"], "comments are allowed only"),
        (["expand", "1//2", "--degree", "2"], "comments are allowed only"),
        (["expand", "Foo", "--degree", "2"], "uppercase identifier 'Foo' is not an indeterminate"),
    ], ids=["check-empty-name", "synthesize-empty-name", "expand-empty-name",
            "check-undeclared-name", "synthesize-undeclared-name",
            "check-comment", "synthesize-comment", "expand-comment", "expand-uppercase-name"])
    def test_is_a_one_line_error(self, args, message, capsys):
        assert message in refusal(args, capsys)


class TestMalformedNumbers:
    @pytest.mark.parametrize("chain, extra, where", [
        ("s1 s2 1/0\ninit s1 1\n", [], "line 1: '1/0'"),
        ("s1 s2 1\ninit s1 1/0\n", [], "line 2: '1/0'"),
        ("s1 s2 1\ninit s1 1\n", ["--contraction", "1/0"], "--contraction: '1/0'"),
    ], ids=["transition", "init", "contraction"])
    def test_chain_with_a_zero_denominator(self, chain, extra, where, tmp_path, capsys):
        path = tmp_path / "chain.txt"
        path.write_text(chain)
        assert where in refusal(["chain", str(path)] + extra, capsys)

    @pytest.mark.parametrize("chain, extra, where", [
        ("s1 s2 -1/2\ns1 s3 3/2\ninit s1 1\n", [], "s1 -> s2 has probability -1/2"),
        ("s1 s2 1\ninit s1 -1\n", ["--contraction", "1/2"], "initial mass of s1 is -1"),
    ], ids=["probability", "mass"])
    def test_chain_with_a_negative_number(self, chain, extra, where, tmp_path, capsys):
        path = tmp_path / "chain.txt"
        path.write_text(chain)
        assert where in refusal(["chain", str(path)] + extra, capsys)

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_a_timeout_that_is_not_a_positive_finite_number_is_refused(self, value, capsys):
        err = refusal(["synthesize", GEO, "--init", "X", "--timeout", value], capsys)
        assert "argument --timeout: expected a finite number of seconds greater than 0" in err

    @pytest.mark.parametrize("args", [
        ["unroll", GEO, "--init", "X", "--steps", "-1"],
        ["unroll", GEO, "--init", "X", "--steps", "3", "--cap", "-1"],
        ["unroll", GEO, "--init", "X", "--steps", "3", "--init-degree", "-1"],
        ["check", GEO, "--init", "X", "--invariant", "X", "--refute-degree", "-3"],
        ["synthesize", GEO, "--init", "X", "--max-degree", "-1"],
        ["expand", "1/(2-C)", "--degree", "-1"],
    ], ids=lambda args: args[-2])
    def test_a_negative_count_is_refused(self, args, capsys):
        err = refusal(args, capsys)
        assert f"argument {args[-2]}: expected an integer of 0 or more" in err

    @pytest.mark.parametrize("args", [
        ["check", GEO, "--init", "X - X^2", "--invariant", "(1 + 2*X)/(2 - C)"],
        ["synthesize", GEO, "--init", "X - X^2"],
        ["unroll", GEO, "--init", "X - X^2", "--steps", "5"],
    ], ids=lambda args: args[0])
    def test_an_init_with_a_negative_coefficient_is_refused(self, args, capsys):
        assert "is not a measure: coefficient -1 at X^2" in refusal(args, capsys)


@pytest.mark.parametrize("args", [
    ["check", GEO, "--init", "X", "--invariant", "(1+2*X)/(2-C)"],
    ["synthesize", GEO, "--init", "X", "--max-degree", "1"],
    ["unroll", GEO, "--init", "X", "--steps", "3"],
    ["expand", "1/(2-C)", "--degree", "2"],
    ["chain", str(BENCH / "appendix_chain.txt")],
], ids=lambda args: args[0])
def test_every_report_starts_with_the_same_header(args):
    _, rep, _ = invoke(args)
    assert rep["tool"] == "gfinv" and rep["mode"] == args[0]
    assert {"version", "program_digest", "diagnostics", "timing"} <= set(rep)
    assert len(rep["program_digest"]) == 16


CHECK_ONE = ["--init", "X", "--invariant", "1"]


@pytest.mark.parametrize("command, text, extra, message", [
    ("check", "nat x; nat x; while (x > 0) { x-- }", CHECK_ONE,
     "1:13: duplicate declaration of 'x'"),
    ("check", "nat x; while (x > 0) { x += iid(bernoulli(1/2), 2) }", CHECK_ONE,
     "expected count variable or 1"),
    ("check", "nat x; while (x > 0) { x *= 2 }", CHECK_ONE, "expected ':=', '+=' or '--'"),
    ("check", "nat x; while (x > 0) { x := * }", CHECK_ONE, "expected linear expression term"),
    ("check", "nat x; while (x > 0) { {x := 0} [1/0] {skip} }", CHECK_ONE, "zero denominator"),
    ("check", "nat x; while (x = 5 mod 3) { x := 0 }", CHECK_ONE,
     "modulo guard needs residue < modulus"),
    ("check", "nat x;\nwhile (x + 1) { skip }", CHECK_ONE,
     "2:10: expected comparison, found '+'"),
    ("check", "nat x; while (x > 0) { x := bernoulli(0) }", CHECK_ONE,
     "distribution parameter 0 not in (0,1)"),
    ("check", "nat x; while (x > 0) { x := bernoulli(1) }", CHECK_ONE,
     "distribution parameter 1 not in (0,1)"),
    ("check", "nat x; while (x > 0) { x := geometric(3/2) }", CHECK_ONE,
     "distribution parameter 3/2 not in (0,1)"),
    ("check", "nat x; while (x > 0) { x := uniform(3, 1) }", CHECK_ONE,
     "empty uniform range [3,1]"),
    ("check", "nat x; while (x > 0) { x := pgf(a*T + 1 - a) }", CHECK_ONE,
     "pgf must be univariate in T"),
    ("check", "nat x; while (x > 0) { x := pgf(1 - 1/2*T + 1/2*T^2) }", CHECK_ONE,
     "pgf fails the nonnegativity shape check"),
    ("chain", "a b 1/2\ninit a 1\n", [], "sums to 1/2, not 1"),
    ("chain", "a b\n", [], "line 1: expected 'src dst prob'"),
    ("chain", "a a 1\ninit a 1\n", ["--contraction", "2"], "contraction factor must be in (0,1)"),
], ids=["duplicate-declaration", "constant-count", "unknown-operator", "missing-term",
        "zero-denominator", "residue-above-modulus", "arithmetic-guard", "bernoulli-0",
        "bernoulli-1", "geometric-above-one", "empty-uniform", "pgf-not-univariate",
        "pgf-not-nonnegative", "row-sum", "short-line", "contraction-above-one"])
def test_a_malformed_input_file_is_a_one_line_error(command, text, extra, message,
                                                    tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert message in refusal([command, str(path)] + extra, capsys)


def test_subtracting_a_huge_constant_is_a_one_line_error(tmp_path, capsys):
    # each unit subtracted is one decrement statement; the parser bounds them
    path = tmp_path / "program.pgcl"
    path.write_text("nat x;\nnat y;\n  y := x - 1000000;\nwhile (x > 0) { x := x - 1 }\n")
    err = refusal(["check", str(path), "--init", "X", "--invariant", "1"], capsys)
    assert err.startswith("gfinv: error: 3:3: cannot subtract 1000000")


def test_a_negative_variable_coefficient_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "program.pgcl"
    path.write_text("nat x;\nnat y;\ny := 1 - x;\nwhile (x > 0) { x := x - 1 }\n")
    err = refusal(["check", str(path), "--init", "X", "--invariant", "1"], capsys)
    assert err == "gfinv: error: negative variable coefficient in assignment\n"


class TestSynthesizeCommand:
    def test_geometric_full_certificate(self):
        rc, rep, _ = invoke(["synthesize", str(BENCH / "geometric/program.pgcl"),
                             "--init", "X", "--max-degree", "1"])
        assert rc == EXIT_FULL
        assert rep["outcome"] == "ExactPosterior"
        assert rep["posterior"] == "1/(2 - C)"
        assert rep["masses"]["invariant"] == "3"

    def test_partial_outcome_exit_code(self):
        rc, rep, _ = invoke(["synthesize", str(BENCH / "random_walk/program.pgcl"),
                             "--init", "X", "--max-degree", "1"])
        assert rc == EXIT_PARTIAL
        assert rep["outcome"] == "UpperBoundOnly"

    @pytest.mark.parametrize("source", [
        "nat x; while (x > 0) { x := geometric(1/2) }",
        "nat x; nat y; while (x >= 1) { y := geometric(1/2); {x := x - 1} [1/2] {skip} }",
    ], ids=["resample", "resample-other"])
    def test_a_diverging_candidate_fails_only_itself(self, source, tmp_path):
        # certify sums a candidate's series; where that diverges, the
        # candidate is rejected and the search goes on
        path = tmp_path / "program.pgcl"
        path.write_text(source)
        rc, rep, _ = invoke(["synthesize", str(path), "--init", "X", "--max-degree", "2"])
        assert rc == EXIT_PARTIAL and rep["outcome"].startswith("failure:")
        assert any("verification failed: series diverges" in d for d in rep["diagnostics"])

    # from X, its finitely many guard states make it an exact finite chain;
    # from X/(2 - X), a measure with a denominator, it reaches the templates
    BOUNDED_Y = "nat x; nat y; while (x > 0 && y <= 2) { {x := 0} [1/2] {y := y + 1} }"

    def test_a_negative_coefficient_names_its_monomial(self, tmp_path):
        # the monomial is written as every other report field writes it
        path = tmp_path / "program.pgcl"
        path.write_text(self.BOUNDED_Y)
        rc, rep, _ = invoke(["synthesize", str(path), "--init", "X/(2 - X)",
                             "--max-degree", "1"])
        negative = [d.split(": negative coefficient ")[1] for d in rep["diagnostics"]
                    if ": negative coefficient " in d]
        assert "-1 at Y^2" in negative and "-1 at 1" in negative
        assert not any("(" in d for d in negative)

    def test_finitely_many_guard_states_certify_without_a_template(self, tmp_path):
        path = tmp_path / "program.pgcl"
        path.write_text(self.BOUNDED_Y)
        rc, rep, _ = invoke(["synthesize", str(path), "--init", "X", "--max-degree", "1"])
        assert rc == EXIT_FULL and rep["outcome"] == "ExactPosterior"
        assert rep["invariant"] == "1/2 + 1/4*Y + X + 1/8*Y^2 + 1/2*X*Y + 1/4*X*Y^2 + 1/8*X*Y^3"
        assert rep["diagnostics"] == []

    def test_a_program_without_a_loop_is_no_loop(self, tmp_path):
        path = tmp_path / "program.pgcl"
        path.write_text("nat x; x := 1")
        rc, rep, _ = invoke(["synthesize", str(path), "--init", "X"])
        assert rc == EXIT_PARTIAL and rep["outcome"] == "no-loop"

    def test_a_bare_block_is_flattened_into_the_sequence(self, tmp_path):
        path = tmp_path / "program.pgcl"
        path.write_text("nat x; { x := 1 }; x := x + 1")
        assert parse(path.read_text()) == parse("nat x; x := 1; x := x + 1")
        rc, rep, _ = invoke(["synthesize", str(path), "--init", "X"])
        assert rc == EXIT_PARTIAL and rep["outcome"] == "no-loop"
        assert rep["final_measure"] == "X^2"

    def test_missing_file_is_error(self):
        rc, _, _ = invoke(["synthesize", "no/such/file.pgcl", "--init", "X"])
        assert rc == EXIT_ERROR

    def test_determinism_modulo_timing(self):
        args = ["synthesize", str(BENCH / "geometric/program.pgcl"),
                "--init", "X", "--max-degree", "1"]
        reports = []
        for _ in range(2):
            _, rep, _ = invoke(args)
            rep.pop("timing")
            reports.append(json.dumps(rep, sort_keys=True))
        assert reports[0] == reports[1]


    def test_a_printed_invariant_checks_with_the_program_variables(self, tmp_path):
        # x and xc share a first letter, so x prints as X_x in both halves
        path = tmp_path / "program.pgcl"
        path.write_text("nat x; nat xc; while (x = 1) { { xc := xc + 1 } [1/2] { x := 0 } }")
        rc, rep, _ = invoke(["synthesize", str(path), "--init", "X_x", "--max-degree", "1"])
        assert rc == EXIT_FULL and rep["invariant"] == "(1 + 2*X_x)/(2 - X_xc)"
        rc, rep, _ = invoke(["check", str(path), "--init", "X_x",
                             "--invariant", rep["invariant"]])
        assert rc == EXIT_FULL and rep["outcome"] == "ExactPosterior"


class TestCheckCommand:
    def test_fdr_with_invariant_file(self):
        rc, rep, _ = invoke([
            "check", str(BENCH / "fast_dice_roller/program.pgcl"),
            "--init", "V",
            "--invariant", "@" + str(BENCH / "fast_dice_roller/invariant.gf")])
        assert rc == EXIT_FULL
        assert rep["verdict"] == "exact"
        assert rep["outcome"] == "ExactPosterior"
        assert rep["masses"]["posterior"] == "1"

    def test_refuted_candidate(self):
        rc, rep, _ = invoke(["check", str(BENCH / "geometric/program.pgcl"),
                             "--init", "X", "--invariant", "X"])
        assert rc == EXIT_PARTIAL
        assert rep["verdict"] == "refuted"

    @pytest.mark.parametrize("degree, outcome", [("0", "not-certified:unknown"),
                                                 ("1", "not-certified:refuted")])
    def test_a_refutation_needs_a_witness_within_the_refute_degree(self, degree, outcome):
        # the candidate is not an invariant, and its first wrong coefficient is at degree 1
        rc, rep, _ = invoke(["check", str(BENCH / "geometric/program.pgcl"), "--init", "X",
                             "--invariant", "(1+2*X+X*C)/(2-C)", "--refute-degree", degree])
        assert rc == EXIT_PARTIAL and rep["outcome"] == outcome

    FDR = str(BENCH / "fast_dice_roller/program.pgcl")
    HARD = ["--init", "V", "--invariant", "1/2*V + 1/3*V^2*(1 + C) + 1/(3 - C*F*V)"]

    def test_a_deadline_stops_the_series_search(self):
        # without a deadline, this search to degree 250 runs for about 18 s
        start = time.monotonic()
        rc, rep, _ = invoke(["check", self.FDR] + self.HARD
                            + ["--refute-degree", "250", "--timeout", "0.5"])
        assert time.monotonic() - start < 5
        assert rc == EXIT_PARTIAL
        assert rep["outcome"] == "failure:timeout" and rep["verdict"] == "unknown"
        assert rep["message"] == "timeout of 0.5 s reached while checking"
        assert rep["diagnostics"][0].startswith("deadline reached while expanding the series")

    def test_a_deadline_stops_parsing_a_power(self):
        # without a deadline, parsing the invariant takes about 1.5 s
        rc, rep, _ = invoke(["check", GEO, "--init", "X",
                             "--invariant", "(1+X+C)^60/(2-C)^61", "--timeout", "0.2"])
        assert rc == EXIT_PARTIAL and rep["outcome"] == "failure:timeout"
        assert rep["diagnostics"] == [
            "deadline reached while raising a polynomial to the power 60"]

    def test_a_deadline_stops_a_product(self):
        # both powers take about 0.3 s; their product alone takes about 1.5 s
        start = time.monotonic()
        rc, rep, _ = invoke(["check", GEO, "--init", "X",
                             "--invariant", "(1+X+C)^28*(1+X+C)^32", "--timeout", "0.6"])
        assert time.monotonic() - start < 0.6 + 1.5
        assert rc == EXIT_PARTIAL and rep["outcome"] == "failure:timeout"
        assert rep["diagnostics"] == ["deadline reached while multiplying polynomials"]

    @staticmethod
    def wide_draw(tmp_path, width):
        prog = tmp_path / "wide.pgcl"
        prog.write_text("nat x; nat c;\n"
                        f"while (x = 1) {{ {{ c += iid(uniform(0, {width}), 1) }} [1/2] {{ x := 0 }} }}")
        return str(prog)

    def test_a_deadline_stops_a_gcd(self, tmp_path):
        # the draw's 50001-term pgf makes the gcds in normalize run for two minutes
        prog = self.wide_draw(tmp_path, 50000)
        start = time.monotonic()
        rc, rep, _ = invoke(["check", prog, "--init", "X",
                             "--invariant", "(1 + 2*X)/(2 - C)", "--timeout", "1"])
        assert time.monotonic() - start < 1 + 1.5
        assert rc == EXIT_PARTIAL and rep["outcome"] == "failure:timeout"
        assert rep["diagnostics"] == ["deadline reached while taking a polynomial gcd"]

    def test_a_wide_draw_is_refuted_within_its_deadline(self, tmp_path):
        # most of its gcds are 1, and a gcd of 1 runs no division
        rc, rep, _ = invoke(["check", self.wide_draw(tmp_path, 4000), "--init", "X",
                             "--invariant", "(1 + 2*X)/(2 - C)", "--timeout", "2"])
        assert rc == EXIT_PARTIAL and rep["outcome"] == "not-certified:refuted"

    def test_an_init_of_infinite_mass_certifies_no_posterior(self, tmp_path):
        prog = tmp_path / "reset.pgcl"
        prog.write_text("nat x; nat c;\nwhile (x = 1) { x := 0 }\n")
        rc, rep, _ = invoke(["check", str(prog), "--init", "X/(1-C)",
                             "--invariant", "(1+X)/(1-C)"])
        assert rc == EXIT_PARTIAL
        assert rep["outcome"] == "ExactInvariant" and rep["verdict"] == "exact"
        assert rep["posterior"] is None and rep["past"] is False
        assert set(rep["masses"].values()) == {None}

    def test_an_undecided_posterior_mass_certifies_no_posterior(self, tmp_path):
        prog = tmp_path / "reset.pgcl"
        prog.write_text("nat x;\nwhile (x = 1) { x := 0 }\n")
        rc, rep, _ = invoke(["check", str(prog), "--init", "X",
                             "--invariant", "(6+3*X)/(3-X)"])
        assert rc == EXIT_PARTIAL
        assert rep["outcome"] == "Superinvariant" and rep["verdict"] == "super"
        assert rep["posterior"] is None and set(rep["masses"].values()) == {None}

    def test_a_deadline_not_reached_leaves_the_report_unchanged(self):
        args = ["check", self.FDR] + self.HARD
        reports = [invoke(args + extra)[1] for extra in ([], ["--timeout", "60"])]
        for rep in reports:
            del rep["timing"]
        assert reports[0] == reports[1] and reports[0]["outcome"] == "not-certified:unknown"

    @pytest.mark.parametrize("value", ["nan", "0"])
    def test_a_timeout_that_is_not_a_positive_finite_number_is_refused(self, value, capsys):
        err = refusal(["check", GEO, "--init", "X", "--invariant", "X", "--timeout", value],
                      capsys)
        assert "argument --timeout: expected a finite number of seconds greater than 0" in err


class TestUnrollCommand:
    def test_fig1_lower_bounds(self):
        rc, rep, _ = invoke(["unroll", str(BENCH / "geometric/program.pgcl"),
                             "--init", "X", "--steps", "3"])
        assert rc == EXIT_FULL
        assert rep["posterior_lower"] == {"1": "1/2", "C": "1/4", "C^2": "1/8"}
        assert rep["residual"] == "1/8"

    CUT = ["--init-degree", "2", "--steps", "50"]

    @pytest.mark.parametrize("init, tail", [("(4-X)/(2-X)^2", "unknown"),
                                            ("1/(1-X)", "infinite")])
    def test_an_init_whose_cut_off_tail_is_not_known_is_refused(self, init, tail, capsys):
        err = refusal(["unroll", GEO, "--init", init] + self.CUT, capsys)
        assert f"cut off at degree 2 leaves a tail of {tail} mass" in err

    def test_the_residual_holds_the_cut_off_tail(self):
        rc, rep, _ = invoke(["unroll", GEO, "--init", "1/(2-X)"] + self.CUT)
        assert rc == EXIT_FULL and Fraction(rep["residual"]) >= Fraction(1, 8)

    def test_a_deadline_stops_the_unrolling(self, tmp_path, capsys):
        # each step widens the counter's support: 30 steps take about 13 s
        prog = tmp_path / "iid.pgcl"
        prog.write_text("nat x; nat c;\n"
                        "while (x = 1) { { c += iid(geometric(1/2), 1) } [1/2] { x := 0 } }\n")
        start = time.monotonic()
        err = refusal(["unroll", str(prog), "--init", "X", "--steps", "200",
                       "--timeout", "0.3"], capsys)
        assert time.monotonic() - start < 1.5
        assert err.startswith("gfinv: error: deadline reached while")


class TestDivergingBody:
    """``diverge`` in a loop body: terminates with probability 1/2 from 1."""

    @pytest.fixture
    def program(self, tmp_path):
        path = tmp_path / "half.pgcl"
        path.write_text("nat x;\nwhile (x < 1) { {x := x + 1} [1/2] {diverge} }\n")
        return str(path)

    def test_synthesize_claims_neither_termination_nor_the_posterior(self, program):
        rc, rep, _ = invoke(["synthesize", program, "--init", "1"])
        assert rc == EXIT_PARTIAL
        assert rep["outcome"] == "UpperBoundOnly" and rep["past"] is False
        assert rep["posterior"] == "1/2*X"

    def test_check_bounds_a_superinvariant_above_the_unrolled_posterior(self, program):
        rc, rep, _ = invoke(["check", program, "--init", "1", "--invariant", "1 + X"])
        assert rc == EXIT_PARTIAL
        assert rep["outcome"] == "UpperBoundOnly" and rep["past"] is False
        assert rep["posterior"] == "X"      # its mass 1 is that of the init
        rc, rep, _ = invoke(["unroll", program, "--init", "1", "--steps", "10"])
        assert rc == EXIT_FULL and rep["residual"] == "0"
        lower = rep["posterior_lower"]
        assert list(lower) == ["X"] and Fraction(lower["X"]) == Fraction(1, 2) < 1


class TestChainCommand:
    def test_occupation_and_contraction(self):
        rc, rep, _ = invoke(["chain", str(BENCH / "appendix_chain.txt"),
                             "--contraction", "1/2"])
        assert rc == EXIT_FULL
        assert rep["occupation"] == {"s1": "3/2", "s2": "1/2", "s3": "1/2"}
        assert rep["contraction_posterior_bound"] == {
            "s1": "0", "s2": "4/3", "s3": "4/3"}
        assert rep["occupation_improves_contraction"] is True

    def test_a_closed_class_has_no_contraction_bound(self, tmp_path):
        path = tmp_path / "chain.txt"
        path.write_text("a a 1\ninit a 1\n")
        rc, rep, _ = invoke(["chain", str(path), "--contraction", "1/2"])
        assert rc == EXIT_FULL and rep["occupation"] == {"a": "oo"}
        assert rep["diagnostics"] == ["no finite 1/2-contraction invariant"]


class TestCorpusExitCodes:
    def test_every_benchmark_respects_the_exit_contract(self, corpus):
        for name, (ast, init, expected, d) in corpus.items():
            if expected["mode"] == "check":
                args = ["check", str(d / "program.pgcl"),
                        "--init", (d / "init.gf").read_text().strip(),
                        "--invariant", "@" + str(d / expected["invariant_file"])]
            else:
                args = ["synthesize", str(d / "program.pgcl"),
                        "--init", (d / "init.gf").read_text().strip()]
                if "template" in expected:
                    args += ["--template", str(d / expected["template"])]
                if "max_degree" in expected:
                    args += ["--max-degree", str(expected["max_degree"])]
            rc, rep, _ = invoke(args)
            want = expected["outcome"]
            if want == "ExactPosterior":
                assert rc == EXIT_FULL, name
            else:
                assert rc == EXIT_PARTIAL, name
            assert rep["outcome"].startswith(want.split(":")[0]), name


def fresh_interpreter(script, *argv, hash_seed="0"):
    """Run `script` in a new Python process with gfinv importable; its stdout."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


RUN_AND_REPORT = """
import io, json, sys
from gfinv.cli import run
reports = []
for args in json.loads(sys.argv[1]):
    buf = io.StringIO()
    rc = run(args, out=buf)
    rep = json.loads(buf.getvalue())
    rep.pop("timing")
    reports.append([rc, rep])
print(json.dumps({"sympy_loaded": "sympy" in sys.modules, "reports": reports}))
"""


LOADED_MODULES = """
import io, json, sys
import gfinv.cli
gfinv.cli.run(sys.argv[1:], out=io.StringIO())
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("gfinv", "dataclasses", "inspect"))))
"""


def test_a_cold_call_loads_every_layer_and_no_class_generator():
    # a record class costs no generated code at import; every layer still
    # loads with gfinv.cli, so an outside tracer installed then wraps them all
    loaded = json.loads(fresh_interpreter(LOADED_MODULES, "check", GEO, "--init", "X",
                                          "--invariant", "(1+2*X)/(2-C)"))
    assert loaded == ["gfinv", "gfinv.algebra", "gfinv.algebra.closedform",
                      "gfinv.algebra.gfexpr", "gfinv.algebra.poly", "gfinv.cli",
                      "gfinv.invariant", "gfinv.oracle", "gfinv.program",
                      "gfinv.semantics", "gfinv.synthesis"]


class TestLazySympy:
    """sympy is loaded by the solver's factoring stage and by nothing else."""

    def test_commands_that_never_factor_leave_it_unloaded(self):
        calls = [
            ["check", GEO, "--init", "X", "--invariant", "(1+2*X)/(2-C)"],
            ["synthesize", GEO, "--init", "X"],
            ["unroll", GEO, "--init", "X", "--steps", "20"],
            ["expand", "1/(1-X-Y)", "--degree", "8"],
            ["chain", str(BENCH / "appendix_chain.txt"), "--contraction", "1/2"],
        ]
        got = json.loads(fresh_interpreter(RUN_AND_REPORT, json.dumps(calls)))
        assert [rc for rc, _ in got["reports"]] == [EXIT_FULL] * len(calls)
        assert got["reports"][1][1]["outcome"] == "ExactPosterior"
        assert got["sympy_loaded"] is False

    def test_factoring_loads_it(self, tmp_path):
        # test_a_negative_coefficient_names_its_monomial's call: its
        # degree-1 system reaches the factoring stage
        path = tmp_path / "program.pgcl"
        path.write_text(TestSynthesizeCommand.BOUNDED_Y)
        calls = [["synthesize", str(path), "--init", "X/(2 - X)", "--max-degree", "1"]]
        got = json.loads(fresh_interpreter(RUN_AND_REPORT, json.dumps(calls)))
        (rc, rep), = got["reports"]
        assert got["sympy_loaded"] is True
        assert rc == EXIT_PARTIAL and rep["outcome"].startswith("failure:")

    def test_sequential_loops_is_solved_without_factoring(self, corpus):
        ast, _, expected, d = corpus["sequential_loops"]
        calls = [["synthesize", str(d / "program.pgcl"),
                  "--init", (d / "init.gf").read_text().strip(),
                  "--max-degree", str(expected["max_degree"])]]
        got = json.loads(fresh_interpreter(RUN_AND_REPORT, json.dumps(calls)))
        (rc, rep), = got["reports"]
        assert got["sympy_loaded"] is False
        assert rc == EXIT_PARTIAL
        assert rep["outcome"] == expected["outcome"]
        assert equal(parse_closed_form(rep["candidate"], ast.variables),
                     parse_closed_form(expected["candidate"], ast.variables))


COUNT_GCD_CALLS = """
import io, json, sys
from gfinv.algebra import poly
from gfinv.cli import run
calls = 0
def count(frame, event, arg):
    global calls
    if event == "call" and frame.f_code is poly.poly_gcd.__code__:
        calls += 1
buf = io.StringIO()
sys.setprofile(count)
run(sys.argv[1:], out=buf)
sys.setprofile(None)
rep = json.loads(buf.getvalue())
rep.pop("timing")
print(json.dumps({"poly_gcd_calls": calls, "report": rep}, sort_keys=True))
"""


def test_synthesis_does_not_depend_on_the_hash_seed():
    # string hashing orders sets of variable names; no choice may depend on it
    args = ["synthesize", GEO, "--init", "X", "--max-degree", "1"]
    runs = [json.loads(fresh_interpreter(COUNT_GCD_CALLS, *args, hash_seed=seed))
            for seed in ("0", "1")]
    assert runs[0]["poly_gcd_calls"] > 0
    assert runs[0] == runs[1]
