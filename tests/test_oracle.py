import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfinv import Frozen, program as P, time_limit
from gfinv.algebra import (Polynomial, equal, from_poly, normalize, parse_closed_form,
                           series_expand)
from gfinv.oracle import (
    Diverges,
    FiniteChain,
    SparseMeasure,
    best_contraction_bound,
    chain_occupation,
    chain_posterior,
    closed_class_witness,
    exec_loopfree,
    iid_sum_pmf,
    kleene_iterate,
    measure_from_closed_form,
    shift_moduli,
    _visits,
)
from gfinv.program import parse

from support import crosscheck

GEO = parse("nat x; nat c;\nwhile (x = 1) { { c := c + 1 } [1/2] { x := 0 } }")

APPENDIX_CHAIN = """
s1 s1 1/3
s1 s2 1/3
s1 s3 1/3
init s1 1
"""


class TestExecLoopfree:
    def test_geometric_body_step(self):
        out = exec_loopfree(GEO.body.body, SparseMeasure.dirac((1, 0)), GEO.variables)
        assert out.entries == {(1, 1): F(1, 2), (0, 0): F(1, 2)}
        assert out.residual == 0

    def test_skip_identity(self):
        m = SparseMeasure({(3, 1): F(2, 3)}, residual=F(1, 9))
        out = exec_loopfree(P.Skip(), m, GEO.variables)
        assert out.entries == m.entries and out.residual == m.residual

    def test_geometric_tail_goes_to_residual(self):
        m = SparseMeasure.dirac((0, 1))
        st = P.IidIncrement("x", P.geometric(F(1, 2)), "c")
        out = exec_loopfree(st, m, ("x", "c"), support_cap=2)
        assert out.entries == {(0, 1): F(1, 2), (1, 1): F(1, 4), (2, 1): F(1, 8)}
        assert out.residual == F(1, 8)

    @pytest.mark.parametrize("count", [None, "x", "c"])
    def test_a_dirac_increment_is_the_pushforward_of_its_pmf(self, count):
        # the shift by k against each state's pmf of count draws from iid_sum_pmf
        rng = random.Random(11)
        for k in range(4):
            entries = {(rng.randrange(4), rng.randrange(4)): F(1, rng.randrange(1, 6))
                       for _ in range(5)}
            m = SparseMeasure(entries, residual=F(1, 7))
            shift = exec_loopfree(P.IidIncrement("c", P.dirac(k), count), m, ("x", "c"),
                                  support_cap=2)
            pmf = {}
            for (x, c), v in entries.items():
                n = {None: 1, "x": x, "c": c}[count]
                probs, tail = iid_sum_pmf(P.dirac(k), n, k * n)
                assert tail == 0
                for j, p in enumerate(probs):
                    if p:
                        pmf[(x, c + j)] = pmf.get((x, c + j), 0) + v * p
            assert shift == SparseMeasure(pmf, F(1, 7))

    @pytest.mark.parametrize("dist, pmf, tail", [
        ("bernoulli(1/3)", {0: F(2, 3), 1: F(1, 3)}, 0),
        ("geometric(1/3)", {k: F(1, 3) * F(2, 3) ** k for k in range(7)}, F(2, 3) ** 7),
        ("uniform(1, 3)", {1: F(1, 3), 2: F(1, 3), 3: F(1, 3)}, 0),
        ("dirac(2)", {2: F(1)}, 0),
    ], ids=["bernoulli", "geometric", "uniform", "dirac"])
    def test_a_named_distribution_draws_its_textbook_pmf(self, dist, pmf, tail):
        # both interpreters read the parser's pgf, so only an independent pmf
        # catches a wrong one
        draw = parse(f"nat x;\nx += iid({dist}, 1)").body
        out = exec_loopfree(draw, SparseMeasure.dirac((0,)), ("x",), support_cap=6)
        assert out == SparseMeasure({(k,): p for k, p in pmf.items()}, tail)

    def test_mass_conservation(self):
        rng = random.Random(3)
        stmts = [
            GEO.body.body,
            P.Seq((P.Decrement("x"), P.IidIncrement("c", P.dirac(2), "x"))),
            P.IfThenElse(P.Not(P.Lt("x", 2)),
                         P.Seq((P.AssignConst("c", 0),
                                P.IidIncrement("c", P.geometric(F(1, 3)), None))),
                         P.Skip()),
        ]
        for stmt in stmts:
            for _ in range(5):
                entries = {(rng.randrange(4), rng.randrange(4)): F(1, rng.randrange(1, 6))
                           for _ in range(5)}
                m = SparseMeasure(dict(entries))
                out = exec_loopfree(stmt, m, ("x", "c"), support_cap=16)
                assert out.mass() + out.residual == m.mass() + m.residual


class TestKleene:
    def test_fig1_three_steps(self):
        res = kleene_iterate(GEO.body, SparseMeasure.dirac((1, 0)), GEO.variables, 3)
        assert res.post_lower.entries == {
            (0, 0): F(1, 2), (0, 1): F(1, 4), (0, 2): F(1, 8)}
        assert res.residual == F(1, 8)

    def test_zero_steps_keeps_initial(self):
        g = SparseMeasure.dirac((1, 0))
        res = kleene_iterate(GEO.body, g, GEO.variables, 0)
        assert res.occ_lower.entries == g.entries
        assert res.post_lower.entries == {}

    def test_guard_never_true(self):
        loop = parse("nat x;\nwhile (x < 0) { skip }").body
        g = SparseMeasure.dirac((2,))
        res = kleene_iterate(loop, g, ("x",), 4)
        assert res.post_lower.entries == g.entries

    def test_monotone_in_steps(self):
        prev = {}
        prev_resid = None
        for k in range(7):
            res = kleene_iterate(GEO.body, SparseMeasure.dirac((1, 0)), GEO.variables, k)
            for s, v in prev.items():
                assert res.occ_lower.entries.get(s, F(0)) >= v
            prev = res.occ_lower.entries
            if prev_resid is not None:
                assert res.residual <= prev_resid  # PAST program: residual shrinks
            prev_resid = res.residual

    def test_a_step_of_many_wide_draws_stops_at_the_limit(self):
        # without a poll per step and per drawn state, these 20 steps run far past it
        ast = parse("nat x; nat y;\n"
                    "while (x < 40) { {x := x + 1} [1/2] { y += iid(geometric(1/2), 1) } }")
        start = time.monotonic()
        with time_limit(0.5), pytest.raises(TimeoutError):
            kleene_iterate(ast.body, SparseMeasure.dirac((0, 0)), ast.variables, 20)
        assert time.monotonic() - start < 1.5


class TestChain:
    def test_appendix_chain_occupation(self):
        chain = FiniteChain.parse(APPENDIX_CHAIN)
        occ = chain_occupation(chain)
        assert occ == {"s1": F(3, 2), "s2": F(1, 2), "s3": F(1, 2)}
        assert chain_posterior(chain, occ) == {"s2": F(1, 2), "s3": F(1, 2)}

    def test_truncated_geometric_big_step(self):
        lines = []
        for k in range(4):
            lines.append(f"r{k} r{k+1} 1/2")
            lines.append(f"r{k} t{k} 1/2")
        lines.append("init r0 1")
        chain = FiniteChain.parse("\n".join(lines))
        occ = chain_occupation(chain)
        for k in range(4):
            assert occ[f"r{k}"] == F(1, 2 ** k)
            assert occ[f"t{k}"] == F(1, 2 ** (k + 1))

    def test_immediate_absorption(self):
        chain = FiniteChain.parse("a b 1\ninit a 1\n")
        occ = chain_occupation(chain)
        assert occ == {"a": F(1), "b": F(1)}

    def test_recurrent_class_reported_infinite(self):
        chain = FiniteChain.parse("a a 1\ninit a 1/2\ninit b 1/2\n")
        occ = chain_occupation(chain)
        assert occ["a"] is None and occ["b"] == F(1, 2)

    def test_a_zero_probability_edge_leads_nowhere(self):
        # a stays at a forever: the edge to b does not make a transient
        chain = FiniteChain.parse("a a 1\na b 0\ninit a 1\n")
        assert chain_occupation(chain) == {"a": None, "b": F(0)}

    def test_round_trip_format(self):
        chain = FiniteChain.parse(APPENDIX_CHAIN)
        again = FiniteChain.parse(format_chain(chain))
        assert again.transitions == chain.transitions
        assert again.initial == chain.initial

    def test_bounded_walk_of_200_states_is_solved_quickly(self):
        # gambler's ruin from 1 on 0..200: the walk ends at 200 with 1/200
        lines = [f"s{i} s{i - 1} 1/2\ns{i} s{i + 1} 1/2" for i in range(1, 200)]
        chain = FiniteChain.parse("\n".join(lines) + "\ninit s1 1\n")
        start = time.monotonic()
        occ = chain_occupation(chain)
        assert time.monotonic() - start < 2
        assert occ["s200"] == F(1, 200) and occ["s0"] == F(199, 200)
        assert occ["s1"] == F(2 * 199, 200)

    def test_matches_the_dense_reference_on_random_chains(self):
        rng = random.Random(20261019)
        seen = {"self_loop": 0, "terminal": 0, "two_closed_classes": 0}
        for _ in range(300):
            chain = random_chain(rng)
            want = dense_chain_occupation(chain)
            assert chain_occupation(chain) == want, format_chain(chain)
            seen["self_loop"] += any(s in row for s, row in chain.transitions.items())
            seen["terminal"] += any(s not in chain.transitions and want[s]
                                    for s in chain.states)
            classes = {frozenset(reach(chain, s))
                       for s, v in want.items() if v is None}
            seen["two_closed_classes"] += len(classes) >= 2
        assert min(seen.values()) >= 30, seen

    def test_power_iteration_agrees_with_solve(self):
        # iterative reference: occ = sum_k (P^T)^k iota, 10^4 terms
        chain = FiniteChain.parse(APPENDIX_CHAIN)
        occ = chain_occupation(chain)
        current = dict(chain.initial)
        total = dict(chain.initial)
        for _ in range(10_000):
            nxt = {}
            for s, row in chain.transitions.items():
                v = current.get(s)
                if not v:
                    continue
                for t, p in row.items():
                    nxt[t] = nxt.get(t, F(0)) + v * p
            current = nxt
            for s, v in nxt.items():
                total[s] = total.get(s, F(0)) + v
            if all(v < F(1, 10 ** 12) for v in current.values()):
                break
        for s in chain.states:
            assert abs(total.get(s, F(0)) - occ[s]) < F(1, 10 ** 9)


def random_chain(rng):
    """Up to 9 states in up to 3 groups.  A closed group's states move only
    within it; in the other groups about a third of the states are terminal,
    and the rest move anywhere.  1-3 successors of positive probability
    (self-loops included), and 1-3 initial states."""
    names = [f"s{i}" for i in range(rng.randint(2, 9))]
    groups = [names[i::3] for i in range(3)]
    lines = []
    for group in groups:
        closed = rng.random() < 0.5
        for s in group:
            if not closed and rng.random() < 0.35:
                continue
            pool = group if closed else names
            succ = rng.sample(pool, rng.randint(1, min(3, len(pool))))
            weights = [rng.randint(1, 4) for _ in succ]
            lines += [f"{s} {t} {F(w, sum(weights))}" for t, w in zip(succ, weights)]
    for s in rng.sample(names, rng.randint(1, min(3, len(names)))):
        lines.append(f"init {s} {F(rng.randint(1, 3), rng.randint(1, 4))}")
    return FiniteChain.parse("\n".join(lines))


def format_chain(chain):
    """The chain as text that ``FiniteChain.parse`` reads back."""
    lines = [f"{src} {dst} {p}" for src in chain.states
             for dst, p in chain.transitions.get(src, {}).items()]
    lines += [f"init {s} {v}" for s, v in chain.initial.items()]
    return "\n".join(lines) + "\n"


def reach(chain, s):
    seen, stack = {s}, [s]
    while stack:
        for t in chain.transitions.get(stack.pop(), {}):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def dense_chain_occupation(chain):
    """Reference: reachability, closed classes by strongly connected
    components, and Gauss-Jordan elimination on dense lists of Fractions."""
    reachable = [s for s in chain.states if chain.initial.get(s)]
    frontier = list(reachable)
    while frontier:
        for t in chain.transitions.get(frontier.pop(), {}):
            if t not in reachable:
                reachable.append(t)
                frontier.append(t)
    bad = set()
    for s in reachable:
        if s not in chain.transitions or s in bad:
            continue
        scc = {t for t in reach(chain, s) if s in reach(chain, t)}
        if all(dst in scc for t in scc for dst in chain.transitions.get(t, {})):
            bad |= scc
    transient = [s for s in reachable if s in chain.transitions and s not in bad]
    n = len(transient)
    pos = {s: i for i, s in enumerate(transient)}
    m = [[F(int(i == j)) for j in range(n)] + [chain.initial.get(s, F(0))]
         for i, s in enumerate(transient)]
    for s in transient:
        for t, p in chain.transitions[s].items():
            if t in pos:
                m[pos[t]][pos[s]] -= p
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    out = {}
    for s in chain.states:
        if s in bad:
            out[s] = None
        elif s in pos:
            out[s] = m[pos[s]][n]
        elif s in reachable:
            out[s] = chain.initial.get(s, F(0)) + sum(
                (chain.transitions[src].get(s, F(0)) * m[pos[src]][n] for src in transient),
                F(0))
        else:
            out[s] = F(0)
    return out


@st.composite
def visit_systems(draw, shifts):
    """(states, initial, transitions) for ``_visits`` on states 0..n-1.  A
    row has 0-3 successors, n among them for one outside the states, and
    total mass 1 (three times in five), 1/2 or 2/3: a set of rows of mass 1
    that stay inside is a closed class.  With ``shifts``, every weight p is
    p*X^k, k in 0..2, and half the rows keep k = 0."""
    n = draw(st.integers(1, 5))

    def weight(p, ks=st.integers(0, 2)):
        return Polynomial.var("x", draw(ks)) * p if shifts else p

    transitions = {}
    for s in range(n):
        succ = draw(st.lists(st.integers(0, n), max_size=3, unique=True))
        ws = [draw(st.integers(1, 3)) for _ in succ]
        total = draw(st.sampled_from([F(1), F(1), F(1), F(1, 2), F(2, 3)]))
        ks = draw(st.sampled_from([st.just(0), st.integers(0, 2)]))
        transitions[s] = {t: weight(total * w / sum(ws), ks) for t, w in zip(succ, ws)}
    init = draw(st.lists(st.integers(0, n - 1), min_size=1 if shifts else 0, max_size=3,
                         unique=True))
    initial = {s: weight(F(draw(st.integers(1, 3)), draw(st.integers(1, 4)))) for s in init}
    return list(range(n)), initial, transitions


def dense_visits(states, initial, transitions):
    """Reference: Gauss-Jordan on dense lists of Fractions for
    (I - P^T) o = initial, None when I - P^T is singular."""
    n = len(states)
    m = [[F(int(i == j)) for j in range(n)] + [initial.get(s, F(0))]
         for i, s in enumerate(states)]
    for j, s in enumerate(states):
        for t, p in transitions[s].items():
            if t < n:
                m[t][j] -= p
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return {s: m[i][n] for i, s in enumerate(states)}


class TestVisits:
    """``_visits`` solves o = initial + P^T o by one elimination, over Q and
    over Q(X)."""

    def test_rational_systems_match_the_dense_reference(self):
        singular = []

        @settings(derandomize=True, max_examples=200, deadline=None)
        @given(visit_systems(shifts=False))
        def check(system):
            want = dense_visits(*system)
            assert _visits(*system) == want
            singular.append(want is None)

        check()
        assert 20 <= singular.count(True) <= 180, singular.count(True)

    def test_polynomial_systems_solve_their_equations_in_power_series(self):
        # a power-series solution exists exactly when the system at X = 0 is
        # nonsingular; a closed class that no shift weighs makes it singular
        solved = []

        @settings(derandomize=True, max_examples=120, deadline=None)
        @given(visit_systems(shifts=True))
        def check(system):
            states, initial, transitions = system
            at_zero = ({s: p.constant_term() for s, p in initial.items()},
                       {s: {t: p.constant_term() for t, p in row.items()}
                        for s, row in transitions.items()})
            got = _visits(states, initial, transitions)
            assert (got is None) == (dense_visits(states, *at_zero) is None)
            solved.append(got is not None)
            if got is None:
                return
            for s in states:
                rhs = from_poly(initial.get(s, Polynomial()))
                for t in states:
                    if s in transitions[t]:
                        rhs = rhs + from_poly(transitions[t][s]) * got[t]
                assert equal(got[s], rhs)

        check()
        assert 10 <= solved.count(False) and 60 <= solved.count(True), solved.count(False)

    def test_a_closed_class_that_no_shift_weighs_has_no_solution(self):
        x = Polynomial.var("x")
        initial = {0: x}
        assert _visits([0, 1], initial, {0: {1: x}, 1: {1: Polynomial.const(1)}}) is None
        got = _visits([0, 1], initial, {0: {1: x}, 1: {1: x}})
        assert equal(got[1], normalize(x * x, Polynomial.const(1) - x))


class TestContraction:
    def test_best_bound_half(self):
        chain = FiniteChain.parse(APPENDIX_CHAIN)
        bound = best_contraction_bound(chain, F(1, 2))
        assert bound == {"s1": F(0), "s2": F(4, 3), "s3": F(4, 3)}

    def test_best_bound_third(self):
        chain = FiniteChain.parse(APPENDIX_CHAIN)
        bound = best_contraction_bound(chain, F(1, 3))
        assert bound == {"s1": F(0), "s2": F(3, 2), "s3": F(3, 2)}

    def test_diverges_below_loop_probability(self):
        chain = FiniteChain.parse(APPENDIX_CHAIN)
        with pytest.raises(Diverges):
            best_contraction_bound(chain, F(1, 4))

    def test_guard_never_true(self):
        chain = FiniteChain.parse("a b 1\ninit b 1\n")
        bound = best_contraction_bound(chain, F(1, 2))
        assert bound["b"] == F(2)  # nu = initial, scaled by 1/(1-c)

    def test_contraction_invariants_are_occupation_superinvariants(self):
        # nu with mu <= nu and P^T[guard] nu <= c nu satisfies
        # (1-c) mu + P^T[guard] nu <= nu: checked directly on corpus chains.
        chains = [FiniteChain.parse(APPENDIX_CHAIN),
                  FiniteChain.parse("a b 1/2\na a 1/2\ninit a 1\n")]
        for chain in chains:
            for c in (F(1, 4), F(1, 3), F(1, 2)):
                try:
                    bound = best_contraction_bound(chain, c)
                except Diverges:
                    continue
                nu = {s: bound[s] * (1 - c) if s not in chain.transitions else None
                      for s in chain.states}
                # reconstruct nu on guard states by re-running the iteration
                nu_full = _best_nu(chain, c)
                image = {s: F(0) for s in chain.states}
                for s, row in chain.transitions.items():
                    for t, p in row.items():
                        image[t] += nu_full[s] * p
                for s in chain.states:
                    mu = chain.initial.get(s, F(0))
                    assert (1 - c) * mu + image[s] <= nu_full[s]


def _best_nu(chain, c):
    nu = {s: chain.initial.get(s, F(0)) for s in chain.states}
    for _ in range(10000):
        image = {s: F(0) for s in chain.states}
        for s, row in chain.transitions.items():
            for t, p in row.items():
                image[t] += nu[s] * p
        new = {s: max(chain.initial.get(s, F(0)), image[s] / c) for s in chain.states}
        if new == nu:
            return nu
        nu = new
    raise AssertionError("no fixpoint")


class TestCrosscheck:
    def test_fig1_posterior(self):
        res = kleene_iterate(GEO.body, SparseMeasure.dirac((1, 0)), GEO.variables, 3)
        post_cf = normalize(Polynomial.const(1), 2 - Polynomial.var("c"))
        rep = crosscheck(post_cf, res.post_lower, 10, GEO.variables)
        assert rep.ok
        assert rep.residual == res.residual == F(1, 8)
        # the missing mass approaches the residual from below as the degree grows
        assert rep.max_gap <= rep.residual
        assert rep.total_gap <= rep.residual
        assert rep.residual - rep.total_gap == F(1, 2048)

    def test_zero_form_violates_everywhere(self):
        m = SparseMeasure({(0, 0): F(1, 2), (0, 1): F(1, 4)})
        rep = crosscheck(normalize(Polynomial(), Polynomial.const(1)), m, 5,
                         GEO.variables)
        assert len(rep.violations) == len(m.entries)

    def test_measure_from_closed_form(self):
        f = normalize(Polynomial.const(1), 2 - Polynomial.var("c"))
        m = measure_from_closed_form(f, 3, GEO.variables)
        assert m.entries == {(0, 0): F(1, 2), (0, 1): F(1, 4),
                             (0, 2): F(1, 8), (0, 3): F(1, 16)}


class TestClosedClassWitness:
    # (program, init): each has a reachable closed class inside its guard
    DIVERGENT = {
        "stuck at x=1": ("nat x;\nwhile (x = 1) { skip }", "1/2*X + 1/2*X^2"),
        "stuck at x=1, unknown tail": ("nat x;\nwhile (x = 1) { skip }", "(4-X)/(2-X)^2"),
        "closed pair after two steps": (
            "nat x;\nwhile (x > 0) { if (x = 1) { x := 2 } else { {x := 2} [1/2] {x := 3} } }",
            "X"),
    }

    @staticmethod
    def witness(program, init, **kw):
        ast = parse(program)
        g = parse_closed_form(init, ast.variables)
        return ast.body, g, closed_class_witness(ast.body, g, ast.variables, **kw)

    def test_stuck_state_is_named_from_either_init(self):
        for name in ("stuck at x=1", "stuck at x=1, unknown tail"):
            _, _, w = self.witness(*self.DIVERGENT[name])
            assert (w.path, w.closed) == ([(1,)], [(1,)]), name

    def test_the_named_state_is_recurrent_not_transient(self):
        # x=1 lies in the closed set too, but is left after one step
        _, _, w = self.witness(*self.DIVERGENT["closed pair after two steps"])
        assert w.path[0] == (1,)
        assert w.path[-1] in {(2,), (3,)}
        assert w.path == [(1,), w.path[-1]]
        assert w.closed == [(1,), (2,), (3,)]

    def test_a_set_that_leaks_to_an_exit_gives_no_witness(self):
        _, _, w = self.witness(
            "nat x;\nwhile (x > 0) { if (x = 1) { x := 2 } else { {x := 2} [1/2] {x := 0} } }",
            "X")
        assert w is None

    def test_a_truncated_draw_gives_no_witness(self):
        # the guard is never left, but each step's geometric draw is cut off
        _, _, w = self.witness("nat x;\nwhile (x >= 1) { x := geometric(1/2); x := x + 1 }",
                               "X")
        assert w is None

    def test_mass_lost_to_divergence_gives_no_witness(self):
        # x=1 is visited twice in expectation: half the mass stays in the body
        _, _, w = self.witness("nat x;\nwhile (x = 1) { {skip} [1/2] {diverge} }", "X")
        assert w is None

    def test_unbounded_walk_gives_no_witness_within_the_cap(self, corpus):
        ast, g, _, _ = corpus["random_walk_counter_unbounded"]
        assert closed_class_witness(ast.body, g, sorted(ast.variables)) is None

    def test_a_passed_deadline_gives_no_witness(self):
        loop, g, w = self.witness(*self.DIVERGENT["stuck at x=1"])
        with time_limit(0):
            assert w is not None and closed_class_witness(loop, g, ("x",)) is None

    def test_a_search_through_a_wide_iid_sum_stops_at_the_limit(self):
        # the pmf of c draws of uniform(0, 3000) has 3000*c entries: without a
        # poll per row, convolving them runs far past the limit
        ast = parse("nat x; nat c;\n"
                    "while (x = 1) { { c += iid(uniform(0, 3000), c) } [1/2] { x := 0 } }")
        g = parse_closed_form("X*C", ast.variables)
        start = time.monotonic()
        with time_limit(0.5):
            assert closed_class_witness(ast.body, g, ast.variables) is None
        assert time.monotonic() - start < 1.5

    @pytest.mark.parametrize("name", sorted(DIVERGENT))
    def test_kleene_lower_bound_grows_at_the_named_state(self, name):
        loop, g, w = self.witness(*self.DIVERGENT[name])
        m = SparseMeasure({(mono[0][1] if mono else 0,): c
                           for mono, c in series_expand(g, 12).items()})
        res = kleene_iterate(loop, m, ("x",), 48)
        # g's series converges at X = 1, to the sums of its coefficients
        initial_mass = sum(g.num.terms.values()) / sum(g.den.terms.values())
        assert res.occ_lower.entries[w.path[-1]] > 4 * initial_mass


class TestShiftModuli:
    """Which variables the chain keeps as residue classes."""

    @pytest.mark.parametrize("source, want", [
        ("nat x; nat c; while (x = 1) { { c := c + 1 } [1/2] { x := 0 } }", {"c": 1}),
        ("nat x; while (x = 1 mod 2 && !(x = 0 mod 3)) { x := x + 2 }", {"x": 6}),
        ("nat x; nat c; while (x < 2) { if (c = 1 mod 2) { x := x + 1 } else "
         "{ c += iid(bernoulli(1/2), 1) } }", {"c": 2}),
        ("nat x; nat c; while (x < 2) { if (c < 1) { x := x + 1 } else { c := c + 1 } }", {}),
        ("nat x; nat c; while (x < 2) { c := 2*c }", {}),                # c counts its own draw
        ("nat x; nat c; while (x < 2) { x := x + c }", {}),              # c counts x's draw
        ("nat x; nat c; while (x < 2) { c += iid(geometric(1/2), 1) }", {}),
        ("nat x; nat c; while (x < 2) { c := c + 1; c := 0 }", {}),
        ("nat x; nat c; while (x < 2) { c--; skip; diverge }", {}),
        ("nat x; nat c; while (x < 2) { while (c < 1) { c := c + 1 } }", {}),
    ], ids=["counter", "lcm", "if_mod", "if_lt", "self_count", "count", "infinite_draw",
            "reset", "decrement", "nested"])
    def test_a_variable_is_shifted_only_by_polynomial_draws(self, source, want):
        ast = parse(source)
        assert shift_moduli(ast.body, sorted(ast.variables)) == want

    def test_an_unknown_kind_is_refused(self):
        class Jump(Frozen):
            pass

        with pytest.raises(TypeError, match="unknown statement"):
            shift_moduli(P.While(P.Lt("x", 1), Jump()), ["x"])
        with pytest.raises(TypeError, match="unknown guard"):
            shift_moduli(P.While(Jump(), P.Skip()), ["x"])
