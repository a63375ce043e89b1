"""Rewrite rules for arbitrary-function kernels, and the linear constraint
systems built on them.

A rule gives d^K g of a function g at a base multi-index K over formal
positions; `KernelRules` rewrites every instantiated kernel g_L(args) with
L >= K to d^(L-K) of the rule, positions replaced by `args`.  The heuristic
reducer keeps its substitutions in such a table.  A constraint system's
rows are homogeneous linear PDEs for named functions over formal
coordinate atoms (symbols or zero-order jets), read once as one
`LinearOperator`; each row is a rule for its highest-ranked kernel.
"""

from __future__ import annotations

from .errors import ExprError
from .expr import (Fun, add, diff_atom, div, fun_kernels_of, mul, multi_diff,
                   neg, substitute, substitute_kernels)
from .linops import DerivativeTable, LinearOperator

# rounds of `KernelRules.reduce`, each rewriting every covered kernel at
# once; a chain that does not settle within them is an error
MAX_REDUCE_ROUNDS = 64


class KernelRules:
    """name -> (positions, {base K: DerivativeTable of d^K name}); every
    rule of a function shares its positions, and is prolonged with the
    step `derive(e, position)`."""

    def __init__(self, derive):
        self.derive = derive
        self.functions = {}

    def __contains__(self, name):
        return name in self.functions

    def __len__(self):
        return sum(len(bases) for _, bases in self.functions.values())

    def add(self, name, K, positions, rhs):
        """The rule d^K name(positions) = rhs."""
        _, bases = self.functions.setdefault(name, (positions, {}))
        if K in bases:
            raise ExprError("two rules solve for the same kernel "
                            f"{Fun(name, positions, K)!r}")
        bases[K] = DerivativeTable([rhs], positions, self.derive)

    def _rewrite(self, k):
        """The rewritten kernel, or None when no rule covers it.  The rule
        is prolonged from the base with the largest order, then the
        lexicographically smallest multi-index."""
        positions, bases = self.functions.get(k.name, ((), {}))
        covering = [K for K in bases if len(K) == len(k.args)
                    and multi_diff(k.dmidx, K) is not None]
        if not covering:
            return None
        base = min(covering, key=lambda K: (-sum(K), K))
        rhs = bases[base](0, multi_diff(k.dmidx, base))
        return substitute(rhs, dict(zip(positions, k.args)))

    def reduce(self, e):
        """Rewrite every covered kernel of `e`, in rounds, until none is
        left."""
        for _ in range(MAX_REDUCE_ROUNDS):
            repl = {}
            for k in fun_kernels_of(e):
                rhs = self._rewrite(k)
                if rhs is not None:
                    repl[k] = rhs
            if not repl:
                return e
            e = substitute_kernels(e, repl)
        raise ExprError("kernel rewriting did not settle: round cap "
                        f"MAX_REDUCE_ROUNDS = {MAX_REDUCE_ROUNDS} exhausted")


class LinearConstraints:
    def __init__(self, functions, rows):
        """`functions`: dict name -> tuple of formal coordinate atoms (all
        functions must share the same coordinates); `rows`: expressions
        homogeneous and linear in the functions' kernels at the coordinates,
        with coefficients over the coordinates and parameters, each row
        understood as `= 0`."""
        self.names = list(functions)
        coords = {tuple(c) for c in functions.values()}
        if len(coords) != 1:
            raise ExprError("constraint functions must share one coordinate tuple")
        self.coords = next(iter(coords))
        self.rows = list(rows)
        self.operator = LinearOperator.from_rows(self.rows, self.names,
                                                 self.coords)
        self._rules = KernelRules(
            lambda e, x: self._rules.reduce(diff_atom(e, x)))
        for nu in range(len(self.rows)):
            entries = {(alpha, K): c for (r, alpha, K), c
                       in self.operator.coeffs.items() if r == nu}
            if not entries:
                raise ExprError(f"row {nu + 1} holds no function kernel")
            alpha, K = max(entries, key=lambda aK: (sum(aK[1]), aK[1], -aK[0]))
            lead = entries.pop((alpha, K))
            others = add(*[mul(c, Fun(self.names[b], self.coords, L))
                           for (b, L), c in entries.items()])
            self._rules.add(self.names[alpha], K, self.coords,
                           neg(div(others, lead)))

    def reduce(self, e):
        """Normal form of `e` modulo the constraints.  Managed function
        kernels may be instantiated at arbitrary argument expressions."""
        return self._rules.reduce(e)
