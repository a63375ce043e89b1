"""Linear constraint systems on arbitrary-function kernels.

A constraint system holds rows that are homogeneous linear PDEs for one or
more named arbitrary functions over formal coordinate atoms (symbols or
zero-order jets).  The rows are read once, as the coefficient table of one
`LinearOperator`; each row becomes a rewrite rule that solves for its
highest-ranked derivative kernel, and rules are prolonged on demand by
formal differentiation.  `reduce` rewrites any expression to normal form
modulo the constraints, for kernels instantiated at arbitrary argument
expressions.
"""

from __future__ import annotations

from .errors import ExprError
from .expr import (Fun, add, diff_atom, div, fun_kernels_of, mul, multi_diff,
                   neg, substitute, substitute_kernels)
from .linops import DerivativeTable, LinearOperator

# rounds of `reduce`, each rewriting every reducible kernel at once; a chain
# that does not settle within them is an error
MAX_REDUCE_ROUNDS = 64


class LinearConstraints:
    def __init__(self, functions, rows):
        """`functions`: dict name -> tuple of formal coordinate atoms (all
        functions must share the same coordinates); `rows`: expressions
        homogeneous and linear in the functions' kernels at the coordinates,
        with coefficients over the coordinates and parameters, each row
        understood as `= 0`."""
        self.functions = dict(functions)
        self.names = list(self.functions)
        coords = {tuple(c) for c in self.functions.values()}
        if len(coords) != 1:
            raise ExprError("constraint functions must share one coordinate tuple")
        self.coords = next(iter(coords))
        self.rows = list(rows)
        self.operator = LinearOperator.from_rows(self.rows, self.names,
                                                 self.coords)
        # (name, lead multi-index) -> d^K of the lead's right-hand side
        self._tables = {}
        for nu in range(len(self.rows)):
            entries = {(alpha, K): c for (r, alpha, K), c
                       in self.operator.coeffs.items() if r == nu}
            if not entries:
                raise ExprError(f"row {nu + 1} holds no function kernel")
            alpha, K = max(entries, key=lambda aK: (sum(aK[1]), aK[1], -aK[0]))
            lead = entries.pop((alpha, K))
            key = (self.names[alpha], K)
            if key in self._tables:
                raise ExprError("two constraint rows solve for the same kernel "
                                f"{Fun(key[0], self.coords, K)!r}")
            others = add(*[mul(c, Fun(self.names[b], self.coords, L))
                           for (b, L), c in entries.items()])
            self._tables[key] = DerivativeTable(
                [neg(div(others, lead))], self.coords,
                lambda e, x: self.reduce(diff_atom(e, x)))

    def _rewrite(self, k):
        """The right-hand side for an instantiated managed kernel that a rule
        covers, or None.  The rule is prolonged from the base with the
        largest order, then the lexicographically smallest multi-index."""
        if k.name not in self.functions or len(k.args) != len(self.coords):
            return None
        bases = [K for name, K in self._tables
                 if name == k.name and multi_diff(k.dmidx, K) is not None]
        if not bases:
            return None
        base = min(bases, key=lambda K: (-sum(K), K))
        rhs = self._tables[(k.name, base)](0, multi_diff(k.dmidx, base))
        return substitute(rhs, dict(zip(self.coords, k.args)))

    def reduce(self, e):
        """Normal form of `e` modulo the constraints.  Managed function
        kernels may be instantiated at arbitrary argument expressions."""
        for _ in range(MAX_REDUCE_ROUNDS):
            repl = {}
            for k in fun_kernels_of(e):
                rhs = self._rewrite(k)
                if rhs is not None:
                    repl[k] = rhs
            if not repl:
                return e
            e = substitute_kernels(e, repl)
        raise ExprError("constraint reduction did not settle: round cap "
                        f"MAX_REDUCE_ROUNDS = {MAX_REDUCE_ROUNDS} exhausted")
