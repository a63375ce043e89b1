"""Linear constraint systems on arbitrary-function kernels.

A constraint system holds rows that are linear PDEs for one or more named
arbitrary functions over formal coordinate atoms (symbols or zero-order
jets).  Each row is compiled into a rewrite rule that solves for its
highest-ranked derivative kernel; rules are prolonged on demand by formal
differentiation.  `reduce` rewrites any expression to normal form modulo the
constraints, for kernels instantiated at arbitrary argument expressions.
"""

from __future__ import annotations

from .errors import ExprError
from .expr import (derive_multi, diff_atom, fun_kernels_of, linear_form,
                   multi_diff, solve_linear, substitute, substitute_kernels)

# rewrite caps of `_reduce_formal` (formal kernels of prolonged rules) and
# of `reduce` (instantiated kernels), one rule applied per rewrite; a chain
# that does not end within them is an error
MAX_FORMAL_REWRITES = 64
MAX_REDUCE_REWRITES = 256


def _kernel_rank(fn_names, k):
    return (sum(k.dmidx), k.dmidx, -fn_names.index(k.name))


class LinearConstraints:
    def __init__(self, functions, rows):
        """`functions`: dict name -> tuple of formal coordinate atoms (all
        functions must share the same coordinates); `rows`: expressions
        linear in the functions' kernels, each row understood as `= 0`."""
        self.functions = dict(functions)
        self.names = list(self.functions)
        coords = {tuple(c) for c in self.functions.values()}
        if len(coords) != 1:
            raise ExprError("constraint functions must share one coordinate tuple")
        self.coords = next(iter(coords))
        self.rows = list(rows)
        self._rules = {}
        self._derived = {}
        for row in self.rows:
            self._compile(row)

    # -- compilation -------------------------------------------------------

    def _formal_kernels(self, e):
        out = []
        for k in fun_kernels_of(e):
            if k.name in self.functions and k.args == self.coords:
                out.append(k)
        return out

    def _compile(self, row):
        kernels = [k for k in fun_kernels_of(row) if k.name in self.functions]
        for k in kernels:
            if k.args != self.coords:
                raise ExprError(f"constraint row holds {k!r} away from the "
                                "coordinates")
        if not kernels:
            raise ExprError("constraint row contains no managed function kernel")
        if linear_form(row, kernels) is None:
            raise ExprError("constraint row is not linear in its function kernels")
        lead = max(kernels, key=lambda k: _kernel_rank(self.names, k))
        solved = solve_linear(row, lead)
        if solved is None:
            raise ExprError(f"constraint row does not solve for {lead!r}")
        rhs = solved[1]
        key = (lead.name, lead.dmidx)
        if key in self._rules:
            raise ExprError(f"two constraint rows solve for the same kernel {lead!r}")
        self._rules[key] = rhs

    # -- prolongation ------------------------------------------------------

    def _rule_for(self, name, dmidx):
        """Formal right-hand side rewriting the kernel (name, dmidx), or None."""
        key = (name, dmidx)
        if key in self._rules:
            return self._rules[key]
        if key in self._derived:
            return self._derived[key]
        best = None
        for (rname, rd) in self._rules:
            if rname == name and multi_diff(dmidx, rd) is not None:
                if best is None or sum(rd) > sum(best) or (sum(rd) == sum(best) and rd < best):
                    best = rd
        if best is None:
            return None
        d = derive_multi(self._rules[(name, best)], self.coords,
                         multi_diff(dmidx, best),
                         lambda e, x: self._reduce_formal(diff_atom(e, x)))
        self._derived[key] = d
        return d

    def _reduce_formal(self, e):
        for _ in range(MAX_FORMAL_REWRITES):
            hit = None
            for k in self._formal_kernels(e):
                if (k.name, k.dmidx) in self._rules:
                    hit = (k, self._rules[(k.name, k.dmidx)])
                    break
            if hit is None:
                return e
            e = substitute_kernels(e, {hit[0]: hit[1]})
        raise ExprError("constraint reduction did not terminate: rewrite cap "
                        f"MAX_FORMAL_REWRITES = {MAX_FORMAL_REWRITES} "
                        "exhausted")

    def _reducible(self, k):
        return any(rname == k.name and multi_diff(k.dmidx, rd) is not None
                   for rname, rd in self._rules)

    # -- reduction of instantiated expressions ------------------------------

    def reduce(self, e):
        """Normal form of `e` modulo the constraints.  Managed function
        kernels may be instantiated at arbitrary argument expressions."""
        for _ in range(MAX_REDUCE_REWRITES):
            target = None
            for k in fun_kernels_of(e):
                if k.name in self.functions and len(k.args) == len(self.coords) \
                        and self._reducible(k):
                    if target is None or _kernel_rank(self.names, k) > _kernel_rank(self.names, target):
                        target = k
            if target is None:
                return e
            rhs = self._rule_for(target.name, target.dmidx)
            inst = substitute(rhs, dict(zip(self.coords, target.args)))
            e = substitute_kernels(e, {target: inst})
        raise ExprError("constraint reduction did not terminate: rewrite cap "
                        f"MAX_REDUCE_REWRITES = {MAX_REDUCE_REWRITES} "
                        "exhausted")
