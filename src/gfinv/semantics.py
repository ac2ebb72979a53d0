"""Forward measure semantics of loop-free statements on rational closed forms.

Implements the primitive series operations (restriction below a bound, the
one Taylor section at var = k, downward shift, substitution) on closed forms,
guard restriction including modulo guards (filtered over the norm of the
denominator, in rational arithmetic), the statement transformer, and the loop
characteristic functional Phi(I) = g + transform(body, [guard] * I).

A denominator D is blind to a guard G when no variable of a < or = test of G
occurs in D, and the variable of a mod m test occurs in D only to powers
divisible by m.  Every monomial of the series 1/D is a product of D's
monomials, so it leaves G's value unchanged; hence [G]*(N/D) = ([G]N)/D,
where [G]N keeps the terms of N whose exponents satisfy G.

Forms may contain template parameters ($-prefixed indeterminates); in that
case convergence checks for marginalization are deferred, and certification
always re-runs concretely on instantiated candidates.
"""

from __future__ import annotations

from .algebra import ClosedForm, Mono, Polynomial, ZERO, from_poly, has_parameters, normalize
from .algebra.closedform import _constant_section, geometric_den
from .algebra.poly import _layers, mono_degree_in, mono_div
from . import program as P


class SemanticsError(Exception):
    pass


class DivergentMarginalization(SemanticsError):
    """Substituting 1 for the variable does not converge (or cannot be
    certified to converge by the denominator-shape criterion)."""


class ConstantTermNonzero(SemanticsError):
    """Substitution target has a nonzero constant term and is not 1."""


class NestedLoop(SemanticsError):
    pass


# -- distribution PGFs ---------------------------------------------------------

def dist_pgf(pgf: ClosedForm, var: str) -> ClosedForm:
    """A draw's pgf with T renamed to var, term by term: ``subs_var`` would
    take time quadratic in the terms of a wide uniform."""
    def rename(p: Polynomial) -> Polynomial:
        return Polynomial._of({((var, m[0][1]),) if m else m: c for m, c in p.terms.items()})
    return ClosedForm(rename(pgf.num), rename(pgf.den))


# -- primitive closed-form operations -------------------------------------------

def _taylor(f: ClosedForm, var: str, n: int) -> tuple:
    """([B_0, ..., B_(n-1)], D_0): the Taylor sections of f in var are
    A_i var^i = B_i var^i / D_0^(i+1).  With num = sum N_i v^i and
    den = sum D_j v^j, B_i = N_i*D_0^i - sum_{j>=1} D_j*B_{i-j}*D_0^(j-1).
    """
    num_by = _layers(f.num, var)
    den_by = _layers(f.den, var)
    d0 = Polynomial._of(den_by.pop(0, {}))
    higher = [(j, Polynomial._of(den_by[j])) for j in sorted(den_by)]
    b: list = []
    for i in range(n):
        acc = Polynomial._of(num_by.get(i, {})) * d0 ** i
        for j, dj in higher:
            if j > i:
                break
            acc = acc - dj * b[i - j] * d0 ** (j - 1)
        b.append(acc)
    return b, d0


def restrict(f: ClosedForm, var: str, bound: int) -> ClosedForm:
    """Closed form of the terms with exponent of var strictly below bound:
    the sum of the Taylor sections below it, over D_0^bound."""
    if bound <= 0:
        return ZERO
    b, d0 = _taylor(f, var, bound)
    num_out = Polynomial()
    for i in range(bound):
        if b[i].is_zero():
            continue
        term = b[i] * d0 ** (bound - 1 - i)
        num_out = num_out + term * Polynomial.var(var, i) if i else num_out + term
    return normalize(num_out, d0 ** bound)


def shift_down(f: ClosedForm, var: str) -> ClosedForm:
    """f * var^{-1} for f with zero constant section in var.

    The reduced numerator is exactly divisible by var because the denominator
    constant term is invertible.  num/var over den needs no ``normalize``:
    den is unchanged, so still scaled, and a factor common to num/var and den
    would divide gcd(num, den), which is 1 for a form without parameters.
    """
    out = {}
    for m, c in f.num.terms.items():
        e = mono_degree_in(m, var)
        if e == 0:
            raise SemanticsError(f"shift_down: numerator not divisible by {var}")
        rest = [(v, x) for v, x in m if v != var]
        if e > 1:
            rest.append((var, e - 1))
        out[tuple(sorted(rest))] = c
    return ClosedForm(Polynomial._of(out), f.den)


def marginalize(f: ClosedForm, var: str) -> ClosedForm:
    """Substitute 1 for var (sum the series over that variable).

    Sound when the denominator either does not involve var, or has geometric
    shape with positive constant term after the substitution; raises
    DivergentMarginalization otherwise.  Parametric forms substitute formally
    and are re-checked at instantiation time.
    """
    if f.den.degree_in(var) == 0:
        if f.num.degree_in(var) == 0:
            return f
        return normalize(f.num.subs_var(var, 1), f.den)
    if not has_parameters(f):
        if not geometric_den(f.den):
            raise DivergentMarginalization(
                f"cannot certify convergence of substituting 1 for {var}")
        den1 = f.den.subs_var(var, 1)
        if den1.constant_term() <= 0:
            raise DivergentMarginalization(
                f"series diverges when summing over {var}")
        return normalize(f.num.subs_var(var, 1), den1)
    return normalize(f.num.subs_var(var, 1), f.den.subs_var(var, 1))


def substitute(f: ClosedForm, var: str, h: ClosedForm) -> ClosedForm:
    """Closed form of f[X_var / h].

    Requires h to have zero constant term (or be the constant 1, which is
    marginalization).  Per-power denominator clearing keeps everything
    polynomial.
    """
    if h.num == Polynomial.const(1) and h.den == Polynomial.const(1):
        return marginalize(f, var)
    if _constant_section(h.num):
        raise ConstantTermNonzero(
            "substitution target must have zero constant term (or be 1)")
    num_hat, deg_n = _subst_poly(f.num, var, h)
    den_hat, deg_d = _subst_poly(f.den, var, h)
    return normalize(num_hat * h.den ** deg_d, den_hat * h.den ** deg_n)


def _subst_poly(p: Polynomial, var: str, h: ClosedForm):
    """p[var/h] cleared to (polynomial, degree): result = poly / h.den^degree."""
    layers = _layers(p, var)
    deg = max(layers, default=0)
    acc = Polynomial()
    for i in sorted(layers):
        acc = acc + Polynomial._of(layers[i]) * h.num ** i * h.den ** (deg - i)
    return acc, deg


# -- guard restriction -----------------------------------------------------------

def restrict_guard(f: ClosedForm, g: P.Guard) -> ClosedForm:
    """Closed form of [g] * f.  When f = N/D and D is blind to g (no < or = test
    of g reads a variable of D, a mod m test only powers divisible by m), each
    monomial of 1/D leaves g's value unchanged, so [g]*f is N's terms that
    satisfy g, over D.  Else Taylor sections, or ``mod_filter``'s norm of D."""
    if _blind(f, g):
        kept = {m: c for m, c in f.num.terms.items() if _holds(g, m)}
        return f if len(kept) == len(f.num.terms) else normalize(Polynomial._of(kept), f.den)
    if isinstance(g, P.Lt):
        return restrict(f, g.var, g.bound)
    if isinstance(g, P.Eq):     # the one Taylor section B_k var^k / D_0^(k+1)
        v, k = g.var, g.value
        if k < 0:
            return ZERO
        b, d0 = _taylor(f, v, k + 1)
        return normalize(b[k] * Polynomial.var(v, k), d0 ** (k + 1))
    if isinstance(g, P.ModEq):
        return mod_filter(f, g.var, g.residue, g.modulus)
    if isinstance(g, P.And):
        return restrict_guard(restrict_guard(f, g.left), g.right)
    if isinstance(g, P.Or):
        left = restrict_guard(f, g.left)
        return left + restrict_guard(f - left, g.right)
    if isinstance(g, P.Not):
        return f - restrict_guard(f, g.inner)
    raise TypeError(f"unknown guard {g!r}")


def _blind(f: ClosedForm, g: P.Guard) -> bool:
    """Whether f's denominator is blind to g; a form with parameters only
    where g reads none of its variables, so synthesis keeps its systems."""
    if isinstance(g, (P.And, P.Or)):
        return _blind(f, g.left) and _blind(f, g.right)
    if isinstance(g, P.Not):
        return _blind(f, g.inner)
    if has_parameters(f):
        return f.num.degree_in(g.var) == 0 and f.den.degree_in(g.var) == 0
    if isinstance(g, P.ModEq):
        return all(mono_degree_in(m, g.var) % g.modulus == 0 for m in f.den.terms)
    return f.den.degree_in(g.var) == 0


def _holds(g: P.Guard, m: Mono) -> bool:
    """Whether g holds in the state of monomial m's exponents."""
    if isinstance(g, (P.And, P.Or)):
        return (all if isinstance(g, P.And) else any)(_holds(h, m) for h in (g.left, g.right))
    if isinstance(g, P.Not):
        return not _holds(g.inner, m)
    e = mono_degree_in(m, g.var)
    if isinstance(g, P.Lt):
        return e < g.bound
    return e == g.value if isinstance(g, P.Eq) else e % g.modulus == g.residue


def mod_filter(f: ClosedForm, var: str, residue: int, modulus: int) -> ClosedForm:
    """[var = residue mod modulus] * f, in rational arithmetic.

    With d = modulus, write den = sum_{u<d} var^u * D_u, each D_u a polynomial
    in var^d.  Multiplication by den on the basis 1, var, ..., var^(d-1) over
    the polynomials in var^d has the matrix M[t][s] = D_{(t-s) mod d}, times
    var^d when t < s.  Its determinant is the norm N = prod_j den(zeta^j var)
    over the d-th roots of unity zeta^j, a polynomial in var^d; and since
    adj(M) M = N I, the cofactors of M's row 0 are the coordinates of the
    polynomial N/den on that basis, so den divides N exactly.  Then
    f = num*(N/den) / N, and as N holds only powers of var^d, the filter keeps
    the terms of num*(N/den) whose exponent of var is residue mod d.

    The roots-of-unity filter (1/d) sum_j zeta^(-rj) f(zeta^j var) gives this
    numerator and denominator, both times d; normalize divides that out, so
    the two methods return identical terms, for parametric forms too.
    """
    d = modulus
    den_parts = _residue_parts(f.den, var, d)
    num_parts = _residue_parts(f.num, var, d)
    shifted = [p * Polynomial.var(var, d) for p in den_parts]

    def entry(t: int, s: int) -> Polynomial:
        return (shifted if t < s else den_parts)[(t - s) % d]

    minors = {(): Polynomial.const(1)}

    def minor(cols: tuple) -> Polynomial:
        """Determinant of M's last len(cols) rows on the columns cols."""
        if cols in minors:
            return minors[cols]
        row = d - len(cols)
        acc = Polynomial()
        for i, s in enumerate(cols):
            a = entry(row, s)
            if a.is_zero():
                continue
            sub = minor(cols[:i] + cols[i + 1:])
            acc = acc + a * sub if i % 2 == 0 else acc - a * sub
        minors[cols] = acc
        return acc

    cols = tuple(range(d))
    section = Polynomial()
    for t in cols:
        # the cofactor of M[0][t] is the coefficient of var^t in N/den; of the
        # parts of num, only var^a * P_a with a + t = residue mod d is kept
        a = (residue - t) % d
        if num_parts[a]:
            cofactor = minor(cols[:t] + cols[t + 1:]) * (-1) ** t
            section = section + num_parts[a] * cofactor * Polynomial.var(var, a + t)
    return normalize(section, minor(cols))


def _residue_parts(p: Polynomial, var: str, d: int) -> list:
    """[P_0, ..., P_(d-1)] with p = sum_u var^u * P_u, each P_u in var^d."""
    parts: list = [{} for _ in range(d)]
    for m, c in p.terms.items():
        u = mono_degree_in(m, var) % d
        parts[u][mono_div(m, ((var, u),)) if u else m] = c
    return [Polynomial(t) for t in parts]


# -- the statement transformer ----------------------------------------------------

def apply_statement(stmt: P.Statement, f: ClosedForm) -> ClosedForm:
    """Posterior closed form of a loop-free statement applied to measure f."""
    if isinstance(stmt, P.Skip):
        return f
    if isinstance(stmt, P.Diverge):
        return ZERO
    if f.is_zero():
        return ZERO
    if isinstance(stmt, P.AssignConst):
        g = marginalize(f, stmt.var)
        return g * from_poly(Polynomial.var(stmt.var, stmt.value)) if stmt.value else g
    if isinstance(stmt, P.Decrement):
        low = restrict_guard(f, P.Lt(stmt.var, 1))
        high = f - low
        if high.is_zero():
            return f
        return shift_down(high, stmt.var) + low
    if isinstance(stmt, P.IidIncrement):
        pgf = dist_pgf(stmt.pgf, stmt.var)
        if stmt.count is None:
            return f * pgf
        h = pgf * from_poly(Polynomial.var(stmt.count))
        return substitute(f, stmt.count, h)
    if isinstance(stmt, P.Choice):
        return (apply_statement(stmt.left, f * stmt.prob)
                + apply_statement(stmt.right, f * (1 - stmt.prob)))
    if isinstance(stmt, P.Seq):
        for s in stmt.stmts:
            f = apply_statement(s, f)
        return f
    if isinstance(stmt, P.IfThenElse):
        taken = restrict_guard(f, stmt.guard)
        return (apply_statement(stmt.then, taken)
                + apply_statement(stmt.els, f - taken))
    if isinstance(stmt, P.While):
        raise NestedLoop("closed-form semantics is defined for loop-free statements only")
    raise TypeError(f"unknown statement {stmt!r}")


def char_functional(loop: P.While, g: ClosedForm, candidate: ClosedForm) -> ClosedForm:
    """Phi_{g,loop}(candidate) = g + body applied to the guard-restricted candidate."""
    if not isinstance(loop, P.While):
        raise TypeError("char_functional needs a while loop")
    return g + apply_statement(loop.body, restrict_guard(candidate, loop.guard))
