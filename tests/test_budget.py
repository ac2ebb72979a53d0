"""One time limit for every layer: ``time_limit`` and ``check_deadline``."""

import pytest

from gfinv import check_deadline, time_limit
from gfinv.algebra import parse_closed_form
from gfinv.invariant import certify
from gfinv.program import While, parse, top_level_segments
from gfinv.synthesis import build_system, enumerate_templates


def test_no_limit_never_raises():
    check_deadline("outside any limit")
    with time_limit(None):
        check_deadline("under no limit")


def test_an_inner_limit_never_extends_an_outer_one():
    with time_limit(0):
        with time_limit(60), pytest.raises(TimeoutError, match="deadline reached inside"):
            check_deadline("inside")


def test_leaving_an_inner_limit_restores_the_outer_one():
    with time_limit(60):
        with time_limit(0), pytest.raises(TimeoutError):
            check_deadline("inside")
        check_deadline("after the inner limit")
    with time_limit(0):
        pass
    check_deadline("after every limit")


class TestEveryLayerStopsAtAPassedLimit:
    # closed_class_witness returns None instead: see test_oracle.py
    GEO = parse("nat x; nat c;\nwhile (x = 1) { { c := c + 1 } [1/2] { x := 0 } }")

    def form(self, text):
        return parse_closed_form(text, self.GEO.variables)

    def test_certify(self):
        g, cand = self.form("X"), self.form("(1+2*X)/(2-C)")
        assert certify(self.GEO.body, g, cand)[1].is_full
        with time_limit(0), pytest.raises(TimeoutError):
            certify(self.GEO.body, g, cand)

    def test_build_system_through_a_power(self, corpus):
        ast, init, _, _ = corpus["random_walk"]
        loop = next(s for s in top_level_segments(ast) if isinstance(s, While))
        template = list(enumerate_templates(sorted(ast.variables), 2))[2]
        build_system(template, loop, init)
        with time_limit(0), pytest.raises(TimeoutError, match="multiplying polynomials"):
            build_system(template, loop, init)

    def test_parsing_a_power(self):
        with time_limit(0), pytest.raises(TimeoutError, match="to the power 60"):
            self.form("(1+X+C)^60")
