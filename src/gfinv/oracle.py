"""Ground-truth engine on finite sparse measures.

Executes loop-free statements exactly on finite maps from states to
rationals, tracks every truncated probability tail in an explicit residual,
iterates loops Kleene-style to certified lower bounds, computes exact
expected visiting times of finite Markov chains by sparse forward
elimination and back substitution (``_visits``); ``tests/support.py``
cross-checks closed forms against its runs.  Each Kleene step, each state
of an iid draw and each row of a pmf convolution poll the time limit.

``finite_chain_invariant`` solves a loop whose polynomial initial measure
reaches finitely many guard states as such a chain: the guard states, found
by exact body steps, and o = g + P^T [guard] o on them.  A variable that the
loop only shifts (``shift_moduli``) is kept as its residue class, and its
shifts weigh the chain's edges as monomials: the system is then solved over
Q(X), as in the transfer-matrix method (Stanley, *Enumerative Combinatorics
I*, 4.7).

``closed_class_witness`` proves that a loop has no finite occupation
invariant: by a bounded exact search, it names a guard state that the
initial measure reaches with positive probability and that lies in a
bottom class of a finite set of guard states that the body never leaves.
That state's occupation coefficient is infinite.

States are tuples of naturals, one slot per declared program variable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (ONE, ZERO, ClosedForm, Mono, Polynomial, from_poly, mass, mono_key,
                       normalize, series_expand, shape_nonneg)
from .algebra.poly import exact_quotient
from . import Record, check_deadline, program as P

State = Tuple[int, ...]


class OracleError(Exception):
    pass


class Diverges(OracleError):
    pass


class SparseMeasure(Record):
    """Finite measure plus the exact mass lost to truncation."""

    __slots__ = ("entries", "residual")
    entries: Dict[State, Fraction]
    residual: Fraction

    # written out, not inherited: the oracle builds one per statement and step
    def __init__(self, entries: Dict[State, Fraction], residual: Fraction = Fraction(0)):
        self.entries = entries
        self.residual = residual

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.entries, self.residual) == (other.entries, other.residual)

    @staticmethod
    def dirac(state: State) -> "SparseMeasure":
        return SparseMeasure({tuple(state): Fraction(1)})

    def mass(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    def scaled(self, c: Fraction) -> "SparseMeasure":
        if c == 0:
            return SparseMeasure({}, Fraction(0))
        return SparseMeasure({s: v * c for s, v in self.entries.items()},
                             self.residual * c)

    def plus(self, other: "SparseMeasure") -> "SparseMeasure":
        out = dict(self.entries)
        for s, v in other.entries.items():
            w = out.get(s)
            w = v if w is None else w + v
            if w:
                out[s] = w
            else:
                out.pop(s, None)
        return SparseMeasure(out, self.residual + other.residual)


def eval_guard(g: P.Guard, state: State, vars: Sequence[str]) -> bool:
    idx = {v: i for i, v in enumerate(vars)}
    return _eval_guard(g, state, idx)


def _eval_guard(g: P.Guard, state: State, idx: Dict[str, int]) -> bool:
    if isinstance(g, P.Lt):
        return state[idx[g.var]] < g.bound
    if isinstance(g, P.Eq):
        return state[idx[g.var]] == g.value
    if isinstance(g, P.ModEq):
        return state[idx[g.var]] % g.modulus == g.residue
    if isinstance(g, P.And):
        return _eval_guard(g.left, state, idx) and _eval_guard(g.right, state, idx)
    if isinstance(g, P.Or):
        return _eval_guard(g.left, state, idx) or _eval_guard(g.right, state, idx)
    if isinstance(g, P.Not):
        return not _eval_guard(g.inner, state, idx)
    raise TypeError(f"unknown guard {g!r}")


# -- distribution pmfs ------------------------------------------------------------

def dist_pmf(pgf: ClosedForm, cap: int) -> Tuple[List[Fraction], Fraction]:
    """(probabilities for values 0..cap, exact tail mass above cap), read off
    the pgf's series.  ``_exec`` shifts by a pgf T^k instead."""
    probs = [Fraction(0)] * (cap + 1)
    for m, c in series_expand(pgf, cap).items():
        probs[m[0][1] if m else 0] = c
    return probs, 1 - sum(probs)


def _effective_cap(pgf: ClosedForm, count: int, cap: int) -> int:
    """The cap cuts off only a draw of infinite support: a polynomial pgf's
    pmf is kept whole, degree * count entries for count draws."""
    if pgf.is_polynomial():
        return max(cap, pgf.num.total_degree() * count)
    return cap


def _convolve(a: Tuple[List[Fraction], Fraction], b: Tuple[List[Fraction], Fraction],
              cap: int) -> Tuple[List[Fraction], Fraction]:
    pa, _ = a
    pb, _ = b
    out = [Fraction(0)] * (cap + 1)
    for i, x in enumerate(pa):
        if not x:
            continue
        check_deadline("while convolving a pmf")
        for j, y in enumerate(pb):
            if not y or i + j > cap:
                continue
            out[i + j] += x * y
    return out, 1 - sum(out)


def iid_sum_pmf(pgf: ClosedForm, count: int, cap: int) -> Tuple[List[Fraction], Fraction]:
    """pmf of the sum of `count` iid draws, truncated at cap with exact tail."""
    if count == 0:
        unit = [Fraction(0)] * (cap + 1)
        unit[0] = Fraction(1)
        return unit, Fraction(0)
    base = dist_pmf(pgf, cap)
    acc = None
    power = base
    k = count
    while k:
        if k & 1:
            acc = power if acc is None else _convolve(acc, power, cap)
        k >>= 1
        if k:
            power = _convolve(power, power, cap)
    return acc


# -- exact execution ---------------------------------------------------------------

def exec_loopfree(stmt: P.Statement, m: SparseMeasure, vars: Sequence[str],
                  support_cap: int = 64) -> SparseMeasure:
    """Exact pushforward of a loop-free statement; truncation adds to residual."""
    idx = {v: i for i, v in enumerate(vars)}
    return _exec(stmt, m, idx, support_cap)


def _exec(stmt: P.Statement, m: SparseMeasure, idx: Dict[str, int],
          cap: int) -> SparseMeasure:
    if isinstance(stmt, P.Skip):
        return m
    if isinstance(stmt, P.Diverge):
        return SparseMeasure({}, m.residual)
    if isinstance(stmt, P.AssignConst):
        return _map_states(m, idx[stmt.var], lambda _: stmt.value)
    if isinstance(stmt, P.Decrement):
        i = idx[stmt.var]
        return _map_states(m, i, lambda s: max(s[i] - 1, 0))
    if isinstance(stmt, P.IidIncrement):
        i = idx[stmt.var]
        pgf = stmt.pgf
        if pgf.is_polynomial() and len(pgf.num.terms) == 1:
            # pgf T^k, its coefficient 1 by mass 1: a shift, exact, so never
            # truncated and in need of no pmf
            k = pgf.num.total_degree()
            if stmt.count is None:
                return _map_states(m, i, lambda s: s[i] + k)
            j = idx[stmt.count]
            return _map_states(m, i, lambda s: s[i] + k * s[j])
        out: Dict[State, Fraction] = {}
        residual = m.residual
        cache: Dict[int, Tuple[List[Fraction], Fraction]] = {}
        for s, v in m.entries.items():
            check_deadline("while drawing an iid sum")
            count = 1 if stmt.count is None else s[idx[stmt.count]]
            if count not in cache:
                cache[count] = iid_sum_pmf(pgf, count, _effective_cap(pgf, count, cap))
            probs, tail = cache[count]
            for k, p in enumerate(probs):
                if p:
                    t = s[:i] + (s[i] + k,) + s[i + 1:]
                    w = out.get(t)
                    out[t] = v * p if w is None else w + v * p
            residual += v * tail
        return SparseMeasure(out, residual)
    if isinstance(stmt, P.Choice):
        # scaled() splits the incoming residual p/(1-p); branch residuals add
        # back to the original plus any truncation inside the branches.  A
        # fair coin scales once: _exec never changes the measure it is given.
        into_left = m.scaled(stmt.prob)
        into_right = into_left if 2 * stmt.prob == 1 else m.scaled(1 - stmt.prob)
        left = _exec(stmt.left, into_left, idx, cap)
        right = _exec(stmt.right, into_right, idx, cap)
        return left.plus(right)
    if isinstance(stmt, P.Seq):
        for s in stmt.stmts:
            m = _exec(s, m, idx, cap)
        return m
    if isinstance(stmt, P.IfThenElse):
        taken = SparseMeasure(
            {s: v for s, v in m.entries.items() if _eval_guard(stmt.guard, s, idx)},
            m.residual)
        other = SparseMeasure(
            {s: v for s, v in m.entries.items() if not _eval_guard(stmt.guard, s, idx)})
        a = _exec(stmt.then, taken, idx, cap)
        b = _exec(stmt.els, other, idx, cap)
        return a.plus(b)
    if isinstance(stmt, P.While):
        raise OracleError("exec_loopfree cannot execute nested loops")
    raise TypeError(f"unknown statement {stmt!r}")


def _map_states(m: SparseMeasure, i: int, fn) -> SparseMeasure:
    """Push m forward along the state map that sets coordinate i to fn(state)."""
    out: Dict[State, Fraction] = {}
    for s, v in m.entries.items():
        t = s[:i] + (fn(s),) + s[i + 1:]
        w = out.get(t)
        out[t] = v if w is None else w + v
    return SparseMeasure(out, m.residual)


# -- Kleene iteration ----------------------------------------------------------------

class KleeneResult(Record):
    occ_lower: SparseMeasure
    post_lower: SparseMeasure
    residual: Fraction


def kleene_iterate(loop: P.While, g: SparseMeasure, vars: Sequence[str],
                   steps: int, support_cap: int = 64) -> KleeneResult:
    """Certified lower bounds on the occupation measure and posterior.

    Sums the first steps+1 guarded iterates (step k applies the body k times);
    residual = truncation losses + the guard-satisfying frontier mass, which
    bounds the total mass any further iterate could still contribute.
    """
    idx = {v: i for i, v in enumerate(vars)}
    current = g
    occ = SparseMeasure({})
    truncated = g.residual
    for _ in range(steps + 1):
        check_deadline("while iterating the loop")
        occ = occ.plus(SparseMeasure(current.entries))
        frontier = SparseMeasure(
            {s: v for s, v in current.entries.items() if _eval_guard(loop.guard, s, idx)})
        nxt = _exec(loop.body, frontier, idx, support_cap)
        truncated += nxt.residual
        current = SparseMeasure(nxt.entries)
    # mass still flowing: everything that reached the final frontier, plus all
    # truncation losses along the way
    residual = current.mass() + truncated
    occ.residual = residual
    post = SparseMeasure({s: v for s, v in occ.entries.items()
                          if not _eval_guard(loop.guard, s, idx)}, residual)
    return KleeneResult(occ, post, residual)


# -- finite Markov chains -------------------------------------------------------------

def parse_rational(text: str, where: str) -> Fraction:
    """``Fraction(text)``, or an OracleError naming ``where`` (also for x/0)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise OracleError(f"{where}: {text!r} is not a rational number") from None


class FiniteChain(Record):
    states: List[str]
    transitions: Dict[str, Dict[str, Fraction]]  # absent key = terminal state
    initial: Dict[str, Fraction]

    @staticmethod
    def parse(text: str) -> "FiniteChain":
        transitions: Dict[str, Dict[str, Fraction]] = {}
        initial: Dict[str, Fraction] = {}
        states: Dict[str, None] = {}        # in order of first mention
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            shape = "'init state mass'" if parts[0] == "init" else "'src dst prob'"
            if len(parts) != 3:
                raise OracleError(f"line {lineno}: expected {shape}")
            head, state, value = parts[0], parts[1], parse_rational(parts[2], f"line {lineno}")
            if head == "init":
                states[state] = None
                initial[state] = initial.get(state, Fraction(0)) + value
            else:
                states[head] = states[state] = None
                row = transitions.setdefault(head, {})
                row[state] = row.get(state, Fraction(0)) + value
        for src, row in transitions.items():
            for dst, p in row.items():
                if not 0 <= p <= 1:
                    raise OracleError(f"transition {src} -> {dst} has probability {p}, "
                                      "outside [0, 1]")
            total = sum(row.values(), Fraction(0))
            if total != 1:
                raise OracleError(f"transition row of {src} sums to {total}, not 1")
        for s, value in initial.items():
            if value < 0:
                raise OracleError(f"initial mass of {s} is {value}, which is negative")
        return FiniteChain(list(states), transitions, initial)


def _forward(successors: Dict, sources) -> set:
    """The states reachable from ``sources`` along ``successors`` (a state's
    iterable of successor states; absent key = none), the sources included."""
    seen = set(sources)
    stack = list(seen)
    while stack:
        for t in successors.get(stack.pop(), ()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _recurrent(successors: Dict, states: List) -> List:
    """The states among ``states`` that every state they reach along
    ``successors`` reaches back, in order: those of closed recurrent (bottom)
    classes.  A state outside ``states`` reaches nothing back."""
    fwd = {s: _forward(successors, [s]) for s in states}
    return [s for s in states if all(s in fwd.get(t, ()) for t in fwd[s])]


def chain_occupation(chain: FiniteChain) -> Dict[str, object]:
    """Expected total visits per state; Infinite (None) on states of reachable
    closed recurrent classes.

    A reachable non-terminal state lies in such a class exactly when every
    state it reaches reaches it back (``_recurrent``).  On the other
    reachable non-terminal states, the transient ones, o = iota + P^T o has
    one solution (``_visits``).
    """
    edges = {s: [t for t, p in row.items() if p] for s, row in chain.transitions.items()}
    reachable = _forward(edges, [s for s in chain.states if chain.initial.get(s)])
    live = [s for s in chain.states if s in reachable and s in chain.transitions]
    bad = set(_recurrent(edges, live))
    transient = [s for s in live if s not in bad]
    occ = _visits(transient, chain.initial, chain.transitions)
    out: Dict[str, object] = {
        s: None if s in bad else occ.get(s, chain.initial.get(s, Fraction(0)))
        for s in chain.states}
    # a terminal state is entered only from transient states: closed classes
    # have no exits
    for s in transient:
        for t, p in chain.transitions[s].items():
            if t not in chain.transitions:
                out[t] += p * occ[s]
    return out


def _visits(states: List, initial: Dict, transitions: Dict) -> Optional[Dict]:
    """The expected visits o = initial + P^T o on ``states``, where
    ``transitions[s]`` maps s's successors to their weights and a successor
    outside ``states`` is never left: one sparse row per state, the initial
    mass in the last column, solved by forward elimination and back
    substitution.  Rational weights stay ``Fraction``s; polynomial weights
    (a chain with shifted variables) are reduced over Q(X), and o is a
    closed form.  A pivot is the first remaining row whose entry is a unit:
    nonzero over Q, of nonzero constant term over Q(X).  None when a column
    has none: the system is singular, or has no power-series solution (some
    states form a closed class).  Polls ``check_deadline`` at every column.
    """
    pos = {s: i for i, s in enumerate(states)}
    n = len(states)
    rows = [{i: Fraction(1), n: initial.get(s, Fraction(0))} for i, s in enumerate(states)]
    for j, s in enumerate(states):
        for t, p in transitions[s].items():
            if t in pos:
                rows[pos[t]][j] = rows[pos[t]].get(j, 0) - p
    rows = [{k: x for k, x in row.items() if x} for row in rows]
    zero, one, unit = Fraction(0), Fraction(1), bool
    if any(isinstance(x, Polynomial) for x in initial.values()):
        zero, one = ZERO, ONE
        unit = lambda x: x.num.constant_term()
        rows = [{k: from_poly(x if isinstance(x, Polynomial) else Polynomial.const(x))
                 for k, x in row.items()} for row in rows]
    for col in range(n):                    # forward elimination
        check_deadline("while solving")
        piv = next((r for r in range(col, n) if col in rows[r] and unit(rows[r][col])), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = one / rows[col].pop(col)
        prow = rows[col] = {j: x * inv for j, x in rows[col].items()}
        for row in rows[col + 1:]:
            f = row.pop(col, None)
            if f is not None:
                for j, y in prow.items():
                    row[j] = row.get(j, zero) - f * y
    out = [zero] * (n + 1)
    for i in reversed(range(n)):            # back substitution, out[n] = 0
        out[i] = rows[i].get(n, zero) - sum((y * out[j] for j, y in rows[i].items()), zero)
    return dict(zip(states, out))


def chain_posterior(chain: FiniteChain, occupation: Dict[str, object]) -> Dict[str, Fraction]:
    """Occupation restricted to terminal states (the chain's posterior)."""
    return {s: occupation[s] for s in chain.states
            if s not in chain.transitions and isinstance(occupation[s], Fraction)}


# -- closed classes inside a loop guard ------------------------------------------------

SEARCH_STATES = 64        # guard states closed_class_witness expands at most
SEARCH_SUPPORT_CAP = 32   # a draw of infinite support is cut off here, its tail left open;
                          # a polynomial pgf's pmf is kept whole
SOURCE_DEGREE = 12        # series degree of g whose terms seed the search
SEARCH_SECONDS = 0.5      # synthesis gives the search this, after the template stream


class ClosedClassWitness(Record):
    """A guard state whose occupation coefficient is infinite, with its proof.

    ``path`` runs along positive-probability body steps from a guard state
    with a positive coefficient in the initial measure's series to the named
    state ``path[-1]``.  ``closed`` is a finite set of guard states that no
    body step leaves, by an exit, a truncated draw or lost mass.  The named
    state lies in a bottom class of ``closed`` (every state it reaches
    reaches it back), so the loop, once there, returns to it infinitely often
    with probability 1.
    """
    path: List[State]
    closed: List[State]


def closed_class_witness(loop: P.While, g: ClosedForm, vars: Sequence[str]
                         ) -> Optional[ClosedClassWitness]:
    """Search for a reachable guard state of infinite occupation coefficient.

    The sources are the guard states of g's series terms of degree at most
    SOURCE_DEGREE with a positive coefficient: exact, with no tail needed.
    A breadth-first search expands at most SEARCH_STATES guard states, each
    by one exact body step.  A state is open when its step exits the guard
    or loses mass (a truncated draw, a divergence), or when it is left
    unexpanded.  The expanded states that no open state reaches backward
    form a closed set; one of its bottom classes holds the named state.
    None when no closed set was found, or once ``check_deadline`` raises.
    """
    idx = {v: i for i, v in enumerate(vars)}
    order = list(vars)
    try:
        coeffs = series_expand(g, SOURCE_DEGREE, order=order)
        sources = [_mono_state(m, vars) for m in sorted(coeffs, key=lambda m: mono_key(m, order))
                   if coeffs[m] > 0]
        parent, steps = _explore(loop, sources, idx, SEARCH_STATES, SEARCH_SUPPORT_CAP)
    except TimeoutError:
        return None
    succ: Dict[State, List[State]] = {}
    leaks: List[State] = []
    for s, step in steps.items():
        # a step stores no zero entry, so every successor has positive probability
        succ[s] = [t for t in step.entries if _eval_guard(loop.guard, t, idx)]
        if len(succ[s]) < len(step.entries) or step.mass() != 1:
            leaks.append(s)
    pred: Dict[State, List[State]] = {}
    for s, ts in succ.items():
        for t in ts:
            pred.setdefault(t, []).append(s)
    leaky = _forward(pred, leaks + [s for s in parent if s not in succ])
    closed = [s for s in succ if s not in leaky]
    if not closed:
        return None
    path = [_recurrent(succ, closed)[0]]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return ClosedClassWitness(path[::-1], sorted(closed))


def _explore(loop: P.While, sources: List[State], idx: Dict[str, int], limit: int,
             cap: int, rep=None) -> Tuple[Dict[State, Optional[State]], Dict[State, SparseMeasure]]:
    """Breadth-first exact body steps over the guard states that ``sources``
    reach: (each reached guard state's parent, None for a source; each
    expanded state's one-step measure, a draw of infinite support cut off at
    ``cap``).  At most ``limit`` states are expanded; a reached state left
    unexpanded has a parent and no step.  ``rep``, when given, maps each
    successor to the representative of its class, which is expanded in its
    stead.  Polls ``check_deadline`` per state.
    """
    parent = dict.fromkeys(s for s in sources if _eval_guard(loop.guard, s, idx))
    steps: Dict[State, SparseMeasure] = {}
    queue = list(parent)
    for s in queue:                         # the loop reads what it appends
        if len(steps) == limit:
            break
        check_deadline("while exploring guard states")
        steps[s] = step = _exec(loop.body, SparseMeasure.dirac(s), idx, cap)
        for t in step.entries if rep is None else map(rep, step.entries):
            if t not in parent and _eval_guard(loop.guard, t, idx):
                parent[t] = s
                queue.append(t)
    return parent, steps


# -- loops with finitely many guard states ----------------------------------------------

CHAIN_STATES = 400        # guard states finite_chain_invariant expands at most


def shift_moduli(loop: P.While, vars: Sequence[str]) -> Dict[str, int]:
    """The loop's shifted variables, each with its modulus.

    A variable is shifted when no < or = test reads it, in the guard or in
    an ``if``, when it counts no iid draw, and when every write to it is an
    iid increment by a polynomial pgf without a count (``x := x + k`` among
    them).  Its modulus is the lcm of the moduli of the ``mod`` tests that
    read it, 1 if none does.  The body then moves a shifted variable by
    draws that depend only on its residue, so a chain state keeps only the
    residue.  A nested loop shifts nothing.  Every other variable is
    enumerated.
    """
    moduli = dict.fromkeys(vars, 1)
    enumerated = set()

    def read(gd: P.Guard) -> None:
        if isinstance(gd, (P.Lt, P.Eq)):
            enumerated.add(gd.var)
        elif isinstance(gd, P.ModEq):
            moduli[gd.var] = math.lcm(moduli[gd.var], gd.modulus)
        elif isinstance(gd, (P.And, P.Or)):
            read(gd.left)
            read(gd.right)
        elif isinstance(gd, P.Not):
            read(gd.inner)
        else:
            raise TypeError(f"unknown guard {gd!r}")

    read(loop.guard)
    for s in P._stmts(loop.body):
        if isinstance(s, P.IfThenElse):
            read(s.guard)
        elif isinstance(s, P.IidIncrement):
            if s.count is not None or not s.pgf.is_polynomial():
                enumerated.update((s.var, s.count))
        elif isinstance(s, (P.AssignConst, P.Decrement)):
            enumerated.add(s.var)
        elif isinstance(s, P.While):
            return {}
        elif not isinstance(s, (P.Skip, P.Diverge, P.Choice, P.Seq)):
            raise TypeError(f"unknown statement {s!r}")
    return {v: m for v, m in moduli.items() if v not in enumerated}


def finite_chain_invariant(loop: P.While, g: ClosedForm, vars: Sequence[str]
                           ) -> Optional[ClosedForm]:
    """The occupation invariant of a loop from a polynomial g, when g reaches
    finitely many guard states: a closed form, or None.

    A chain state holds the enumerated variables' values and each shifted
    variable's residue (``shift_moduli``).  The states that g's terms reach
    are explored breadth first by exact body steps from each class's
    representative (``_explore``).  A step from representative r to the raw
    state t in the class of representative r_t is the edge r -> r_t of
    weight p*X^(t - r_t), a monomial in the shifted variables, and the
    occupation measure of the class of r is X^r*O_r, where O solves
    O = G + A(X)^T [guard] O (``_visits``, over Q when no variable is
    shifted, else over Q(X)).  The invariant is g plus O_r*p*X^t for every
    step.  None when more than CHAIN_STATES states are reached, when a draw
    has infinite support, or when the system has no solution in power
    series (a closed class).  The caller certifies the result: nothing here
    is trusted.
    """
    idx = {v: i for i, v in enumerate(vars)}
    order = list(vars)
    shifted = [(idx[v], m) for v, m in shift_moduli(loop, vars).items()]

    def rep(s: State) -> State:
        r = list(s)
        for i, m in shifted:
            r[i] %= m
        return tuple(r)

    def add(into: Dict[State, object], t: State, p: Fraction) -> None:
        """into[rep(t)] += p*X^(t - rep(t)), a Polynomial once a variable
        is shifted."""
        r = rep(t)
        w = Polynomial({_state_mono(tuple(a - b for a, b in zip(t, r)), vars): p}) \
            if shifted else p
        into[r] = into[r] + w if r in into else w

    initial: Dict[State, object] = {}
    for m in sorted(g.num.terms, key=lambda m: mono_key(m, order)):
        add(initial, _mono_state(m, vars), g.num.terms[m])
    parent, steps = _explore(loop, list(initial), idx, CHAIN_STATES, 0, rep)
    if len(steps) < len(parent) or any(step.residual for step in steps.values()):
        return None
    edges: Dict[State, Dict[State, object]] = {s: {} for s in steps}
    for s, step in steps.items():
        for t, p in step.entries.items():
            add(edges[s], t, p)
    visits = _visits(list(steps), initial, edges)
    if visits is None:
        return None
    common = Polynomial.const(1)    # a multiple of O's denominators: one normalize
    for d in dict.fromkeys(o.den for o in visits.values() if isinstance(o, ClosedForm)):
        if exact_quotient(common, d) is None:
            common = d if exact_quotient(d, common) is not None else common * d
    num = g.num * common
    for s, step in steps.items():
        o = visits[s]
        o = o.num * exact_quotient(common, o.den) if isinstance(o, ClosedForm) else o
        num = num + o * Polynomial({_state_mono(t, vars): p for t, p in step.entries.items()})
    return normalize(num, common)


def best_contraction_bound(chain: FiniteChain, c: Fraction,
                           max_iter: int = 10000) -> Dict[str, Fraction]:
    """Least nu >= initial with one-step image of guarded nu <= c*nu, and the
    posterior upper bound [terminal]*nu/(1-c) it certifies.

    Monotone iteration nu <- max(initial, (1/c) * P^T [guarded] nu); raises
    Diverges when no finite fixpoint is reached.
    """
    if not (0 < c < 1):
        raise ValueError("contraction factor must be in (0,1)")
    nu = {s: chain.initial.get(s, Fraction(0)) for s in chain.states}
    bound = sum(chain.initial.values(), Fraction(0)) / (c * (1 - c)) + 1
    for _ in range(max_iter):
        image: Dict[str, Fraction] = {s: Fraction(0) for s in chain.states}
        for s, row in chain.transitions.items():
            v = nu[s]
            if not v:
                continue
            for t, p in row.items():
                image[t] += v * p
        new = {s: max(chain.initial.get(s, Fraction(0)), image[s] / c)
               for s in chain.states}
        if new == nu:
            return {s: (nu[s] / (1 - c) if s not in chain.transitions else Fraction(0))
                    for s in chain.states}
        if any(v > bound for v in new.values()):
            raise Diverges(f"no finite {c}-contraction invariant")
        nu = new
    raise Diverges(f"contraction iteration did not stabilize in {max_iter} steps")


# -- closed form vs oracle -------------------------------------------------------------

def _state_mono(state: State, vars: Sequence[str]) -> Mono:
    return tuple(sorted((v, e) for v, e in zip(vars, state) if e))


def _mono_state(mono: Mono, vars: Sequence[str]) -> State:
    d = dict(mono)
    return tuple(d.get(v, 0) for v in vars)


def measure_from_closed_form(f: ClosedForm, degree: int,
                             vars: Sequence[str]) -> SparseMeasure:
    """Truncate a closed form's series to a sparse measure, the cut-off tail
    recorded exactly as the residual.

    The tail is known when f is a polynomial of total degree at most
    ``degree`` (it is 0), or when f is shape-certified nonnegative with
    finite mass (the mass minus what is kept).  Otherwise no residual can
    back the measure, and OracleError is raised.
    """
    coeffs = series_expand(f, degree, order=list(vars))
    entries = {_mono_state(mono, vars): c for mono, c in coeffs.items()}
    if f.is_polynomial() and f.num.total_degree() <= degree:
        return SparseMeasure(entries)
    total = mass(f) if shape_nonneg(f) else None
    if total is None or not total.finite:
        raise OracleError(f"the series cut off at degree {degree} leaves a tail of "
                          + ("unknown" if total is None else "infinite") + " mass")
    return SparseMeasure(entries, total.value - sum(entries.values(), Fraction(0)))
