"""Jet-space calculus: PDE systems, leading-derivative solving, prolonged
substitution rules, Euler (variational) operators, and verification of
infinitesimal symmetries in evolutionary form."""

from __future__ import annotations

from functools import cached_property

from .errors import CyclicRuleError, ExprError, WorkspaceError
from .expr import (add, clear_equation, derive_multi, diff_atom, is_zero,
                   jets_of, max_jet_order, mul, multi_binom, multi_diff,
                   multi_indices, multi_unit, neg, rat, solve_linear, sub,
                   substitute, total_derivative)


def jet_rank(ws, j):
    return (j.order, ws.dep_index(j.dep), ws.jet_vector(j))


def _derives(ws, j, r):
    """Whether jet `j` is `r` or one of its derivatives."""
    return j.dep == r.dep and \
        multi_diff(ws.jet_vector(j), ws.jet_vector(r)) is not None


def leading_solve(ws, equation):
    """Solve an equation for its highest-ranked jet, if linear in it."""
    js = jets_of(equation)
    if not js:
        raise ExprError("equation contains no jet variables")
    for j in sorted(js, key=lambda j: jet_rank(ws, j), reverse=True):
        solved = solve_linear(equation, j)
        if solved is not None:
            return j, solved[1]
    raise ExprError("no jet occurs linearly; cannot form a leading solve")


class PdeSystem:
    """A declared system {G^nu[u] = 0}, each equation solved for its
    highest-ranked jet that it is linear in.

    In increasing rank of their leading jets, each equation is reduced on the
    prolonged rules of those before it and solved again, and its rule is
    substituted into the earlier right-hand sides, so none holds a ruled jet.
    An equation left with no jet, or a rule holding a derivative of its own
    jet, is an error.  This is the only reduction of equations against each
    other's leading jets; `reduced` reads it off the final rules."""

    def __init__(self, workspace, equations, names=None):
        self.workspace = workspace
        self.equations = list(equations)
        self.names = list(names) if names else [f"G{i+1}" for i in range(len(equations))]
        self.order = max((max_jet_order(g) for g in self.equations), default=0)

        def solve(i, g):
            jet, solved = leading_solve(workspace, g)
            if not is_zero(substitute(g, {jet: solved})):
                raise ExprError(f"leading solve for {self.names[i]} does not close")
            return jet, solved

        solves = [solve(i, g) for i, g in enumerate(self.equations)]
        last = list(self.equations)  # each equation as last solved
        self.rules = {}
        for i in sorted(range(len(solves)),
                        key=lambda i: jet_rank(workspace, solves[i][0])):
            g = self.equations[i]
            if any(_derives(workspace, j, r) for j in jets_of(g) for r in self.rules):
                g = substitute(g, prolong_rules(self.rules, max_jet_order(g),
                                                workspace))
                if not jets_of(g):
                    raise ExprError(f"equation {self.names[i]} determines no "
                                    "new jet on the leading rules of the others")
                solves[i] = solve(i, g)
                last[i] = g
            jet, solved = solves[i]
            own = [j for j in jets_of(solved) if _derives(workspace, j, jet)]
            if own:
                raise ExprError(f"leading rule for {jet!r} holds its own "
                                f"derivative {own[0]!r}")
            self.rules = {j: substitute(r, {jet: solved})
                          for j, r in self.rules.items()}
            self.rules[jet] = solved
        self._solved = [(g, jet) for g, (jet, _) in zip(last, solves)]

    @cached_property
    def reduced(self):
        """The equations in input order, each reduced on all the others:
        its leading coefficient as last solved times its final rule, which
        holds no ruled jet, cleared of denominators."""
        return [clear_equation(mul(diff_atom(g, jet), sub(jet, self.rules[jet])))
                for g, jet in self._solved]

    @property
    def m(self):
        return self.workspace.m

    def prolonged_rules(self, order):
        return prolong_rules(self.rules, order, self.workspace, complete=True)

    def reduce_on_solutions(self, e):
        """`e` with each jet that a prolonged leading-solve rule covers
        replaced by the rule's right-hand side."""
        order = max(max_jet_order(e), self.order)
        return substitute(e, self.prolonged_rules(order))


# caps of prolong_rules: completion rounds (each adds one integrability
# condition as a rule) and self-substitutions of one prolonged rule; running
# out of either is a CyclicRuleError
MAX_COMPLETION_ROUNDS = 8
MAX_SELF_SUBSTITUTIONS = 16


def prolong_rules(rules, order, ws, complete=False):
    """Close a jet substitution-rule set under total differentiation up to
    the given order.

    Cross-derivative targets reachable from several base rules are derived
    from the lexicographically smallest base.  With `complete=True`,
    disagreements between derivation paths (integrability consequences of
    the base rules) are solved for their own leading jet and added to the
    rule set, so the result cuts out the full solution manifold."""
    for jet, rhs in rules.items():
        for j2 in rules:
            if any(j == j2 for j in jets_of(rhs)):
                raise CyclicRuleError(
                    f"rule right-hand side for {jet!r} contains ruled jet {j2!r}")

    base_rules = dict(rules)
    for _ in range(MAX_COMPLETION_ROUNDS):
        out, conflict = _close_rules(base_rules, order, ws, complete)
        if conflict is None:
            return out
        jet, solved = leading_solve(ws, conflict)
        base_rules[jet] = substitute(solved, out)
    raise CyclicRuleError("rule completion did not stabilize: round cap "
                          f"MAX_COMPLETION_ROUNDS = {MAX_COMPLETION_ROUNDS} "
                          "exhausted")


def _close_rules(rules, order, ws, complete):
    vec = ws.jet_vector
    out = dict(rules)
    targets = {}
    for j in rules:
        base = vec(j)
        free = order - j.order
        if free < 0:
            continue
        for delta in multi_indices((free,) * ws.n, free):
            t = ws.jet(j.dep, tuple(b + d for b, d in zip(base, delta)))
            if t in out or not any(delta):
                continue
            targets.setdefault(t, []).append(j)

    def derive(base, t):
        d = derive_multi(out[base], ws.independents,
                         multi_diff(vec(t), vec(base)), total_derivative)
        for _ in range(MAX_SELF_SUBSTITUTIONS):
            d2 = substitute(d, out)
            if d2 == d:
                return d
            d = d2
        raise CyclicRuleError(
            "prolonged rule did not stabilize under self-substitution: cap "
            f"MAX_SELF_SUBSTITUTIONS = {MAX_SELF_SUBSTITUTIONS} exhausted")

    for t in sorted(targets, key=lambda j: jet_rank(ws, j)):
        bases = sorted(targets[t], key=lambda b: (-b.order, vec(b)))
        d = derive(bases[0], t)
        out[t] = d
        if complete:
            for other in bases[1:]:
                gap = sub(d, derive(other, t))
                if not is_zero(gap):
                    return out, gap
    return out, None


def euler_operator(e, dep, ws):
    """Variational derivative with respect to one dependent:
    sum over jets J of (-D)^J (d e / d U_J), the higher Euler operator
    E^(0)."""
    return higher_euler(e, dep, (0,) * ws.n, ws)


def higher_euler(e, dep, K, ws):
    """E^(K): sum over jets J >= K of binom(J, K) (-D)^(J-K) d e/d u_J
    (Olver, Applications of Lie Groups to Differential Equations, the
    variational complex)."""
    terms = []
    for j in jets_of(e, dep):
        jv = ws.jet_vector(j)
        delta = multi_diff(jv, K)
        if delta is None:
            continue
        d = diff_atom(e, j)
        if is_zero(d):
            continue
        sign = rat(-1) if sum(delta) % 2 else rat(1)
        d = derive_multi(d, ws.independents, delta, total_derivative)
        terms.append(mul(rat(multi_binom(jv, K)), sign, d))
    return add(*terms) if terms else rat(0)


class SymmetryGenerator:
    """Infinitesimal generator with components xi_i d/dx_i + eta^tau d/du^tau;
    components may carry arbitrary-function kernels constrained by a linear
    system, a LinearConstraints."""

    def __init__(self, xi, eta, constraints=None):
        self.xi = xi
        self.eta = eta
        self.constraints = constraints


class SymmetryReport:
    def __init__(self, ok, residuals, messages=None):
        self.ok = ok
        self.residuals = residuals
        self.messages = messages or []


def verify_point_symmetry(sys, gen):
    """Check a (point or contact) symmetry in evolutionary form: the
    characteristic is eta^tau - xi_i u^tau_{x_i}; its prolonged action on
    each equation must vanish after leading-solve substitution and
    constraint reduction."""
    ws = sys.workspace
    if len(gen.xi) != ws.n or len(gen.eta) != ws.m:
        raise WorkspaceError("generator component counts do not match the system")
    chars = []
    for tau, dep in enumerate(ws.dependents):
        parts = [gen.eta[tau]]
        for i in range(ws.n):
            parts.append(neg(mul(gen.xi[i], ws.jet(dep, multi_unit(i, ws.n)))))
        chars.append(add(*parts))

    residuals = []
    messages = []
    for idx, g in enumerate(sys.equations):
        action_terms = []
        for tau, dep in enumerate(ws.dependents):
            for j in jets_of(g, dep):
                d = derive_multi(chars[tau], ws.independents,
                                 ws.jet_vector(j), total_derivative)
                action_terms.append(mul(d, diff_atom(g, j)))
        action = add(*action_terms) if action_terms else rat(0)
        reduced = sys.reduce_on_solutions(action)
        if gen.constraints is not None:
            reduced = gen.constraints.reduce(reduced)
        residuals.append(reduced)
        if not is_zero(reduced):
            messages.append(f"{sys.names[idx]}: nonzero residual")
    return SymmetryReport(ok=all(is_zero(r) for r in residuals),
                          residuals=residuals, messages=messages)
