"""Point and contact transformations: exact change of variables in jet
space, inversion for the closed-form patterns the corpus needs (componentwise
linear solves plus exp/log kernels), and comparison of systems up to nonzero
factors."""

from .errors import DegenerateError, ExprError
from .expr import (Add, ExpF, Jet, LogF, Sym, add, atoms_of, clear_equation,
                   diff_atom, div, exp_, from_monomial, is_zero, jets_of, log_,
                   monomials, mul, multi_unit, quotient, solve_linear, sub,
                   substitute, total_derivative, walk)
from .jets import PdeSystem
from .linalg import adjugate, det
from .linops import DerivativeTable
from .probe import default_probe_seed, probe_nonzero_robust


def jacobian_matrix(phi, independents):
    """[[D_{x_j} phi_i for phi_i in phi] for x_j in independents]."""
    return [[total_derivative(p, xj) for p in phi] for xj in independents]


class ChainRule:
    """The total derivative under the change of variables X_i = phi_i(x, u):
    d/dX_i = sum_j (dx_j/dX_i) D_{x_j}.  With M = jacobian_matrix(phi,
    independents), D_x = M d/dX, so d/dX_i = sum_j cof[i][j] D_{x_j} / det
    with cof the adjugate of M and det its determinant (Olver, Applications
    of Lie Groups to Differential Equations, sections 2.2 and 4.2).

    `chain(h, variable)` applies d/dX_i, where i is the index of `variable`
    among `variables` (by default the independents): the `derive(e,
    variable)` signature of `DerivativeTable` and `derive_multi`."""

    def __init__(self, phi, independents, variables=None):
        self.independents = tuple(independents)
        self.variables = tuple(self.independents if variables is None
                               else variables)
        mat = jacobian_matrix(phi, self.independents)
        self.det = det(mat)
        self.cof = adjugate(mat)
        self.index = {v: i for i, v in enumerate(self.variables)}

    def numerator(self, h, variable):
        """det * d h / d variable: the chain rule before its division."""
        row = self.cof[self.index[variable]]
        return add(*[mul(c, total_derivative(h, xj))
                     for c, xj in zip(row, self.independents)])

    def __call__(self, h, variable):
        return div(self.numerator(h, variable), self.det)


class Transformation:
    """z = phi(x, u[, du]), w = psi(x, u[, du]); contact transformations
    additionally carry rho with w_{z_i} = rho_i and satisfy the contact
    condition D_x psi = rho . D_x phi."""

    def __init__(self, kind, source, target, phi, psi, rho=None):
        self.kind = kind
        self.source = source
        self.target = target
        self.phi = phi
        self.psi = psi
        self.rho = rho
        if self.kind not in ("point", "contact"):
            raise ExprError(f"unknown transformation kind '{self.kind}'")
        if self.kind == "contact" and self.source.m != 1:
            raise ExprError("contact transformations require one dependent variable")
        if len(self.phi) != self.source.n or len(self.psi) != self.source.m:
            raise ExprError("transformation component counts do not match")
        if self.kind == "contact" and len(self.rho or ()) != self.source.n:
            raise ExprError("contact transformations need one rho component "
                            "per independent variable")
        max_order = 1 if self.kind == "contact" else 0
        for e in list(self.phi) + list(self.psi):
            for j in jets_of(e):
                if j.order > max_order:
                    raise ExprError(
                        f"{self.kind} transformation component depends on {j!r}")

    def jacobian(self):
        return det(jacobian_matrix(self.phi, self.source.independents))


def check_contact_condition(tr):
    """D_{x_j} psi - sum_i rho_i D_{x_j} phi_i == 0 for every j."""
    if tr.kind != "contact":
        raise ExprError("contact condition requires a contact transformation")
    psi = tr.psi[0]
    for xj in tr.source.independents:
        lhs = total_derivative(psi, xj)
        rhs = add(*[mul(r, total_derivative(p, xj))
                    for r, p in zip(tr.rho, tr.phi)])
        if not is_zero(sub(lhs, rhs)):
            return False
    return True


def contact_rho(chain, psi):
    """rho solving the contact condition D_{x_j} psi = sum_i rho_i D_{x_j}
    phi_i: rho_i = d psi / dX_i under the chain rule of phi.  An expanded
    sum never cancels against its inverse, so when the Jacobian is a sum
    rho_i is the exact monomial quotient by it where one exists."""
    nums = [chain.numerator(psi, v) for v in chain.variables]
    if isinstance(chain.det, Add):
        return [_monomial_quotient(n, chain.det) or div(n, chain.det)
                for n in nums]
    return [div(n, chain.det) for n in nums]


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------


def invert_transformation(tr):
    """Closed-form inverse by sequential solving: each pass solves one
    source atom from one equation, linearly or through a single exp kernel.
    Returns (inverse Transformation, substitution dict old-atom -> new
    expression), or (None, None) when no closed form is found."""
    src, tgt = tr.source, tr.target
    unknowns = list(src.independents) + [src.lookup(d) for d in src.dependents]
    if tr.kind == "contact":
        firsts = [src.jet(src.dependents[0], multi_unit(i, src.n))
                  for i in range(src.n)]
        unknowns += firsts
    pairs = []
    for i, p in enumerate(tr.phi):
        pairs.append((p, tgt.independents[i]))
    for s, p in enumerate(tr.psi):
        pairs.append((p, tgt.lookup(tgt.dependents[s])))
    if tr.kind == "contact":
        for i, r in enumerate(tr.rho):
            pairs.append((r, tgt.jet(tgt.dependents[0], multi_unit(i, tgt.n))))
    # a target atom that repeats a source one (`vars = x, t` over x, t) is
    # solved against as a stand-in that no input can name, then put back
    back = {}
    for k, (p, a) in enumerate(pairs):
        if a in unknowns:
            back[a] = Sym(f"_{k}", a.kind) if isinstance(a, Sym) else Jet(f"_{k}")
            pairs[k] = (p, back[a])
    solution = _solve_atoms(pairs, unknowns)
    if solution is None:
        return None, None
    back = {s: a for a, s in back.items()}
    solution = {y: substitute(v, back) for y, v in solution.items()}
    inv_phi = tuple(solution[x] for x in src.independents)
    inv_psi = tuple(solution[src.lookup(d)] for d in src.dependents)
    inv_rho = None
    if tr.kind == "contact":
        inv_rho = tuple(solution[j] for j in firsts)
    inv = Transformation(tr.kind, tgt, src, inv_phi, inv_psi, inv_rho)
    return inv, solution


def _solve_atoms(pairs, unknowns):
    """Solve lhs == rhs for every (lhs, rhs) pair by sequential solving:
    each pass solves one unknown atom from one equation and substitutes its
    value into the values found before.  Returns the solution dict atom ->
    expression, or None when an unknown stays unsolved or an equation does
    not vanish under the solution."""
    solution = {}
    remaining = list(unknowns)
    equations = [sub(lhs, rhs) for lhs, rhs in pairs]
    while remaining:
        found = None
        for eq in equations:
            e = substitute(eq, solution)
            if is_zero(e):
                continue
            found = next(((y, val) for y in remaining
                          if (val := _solve_for(e, y, remaining)) is not None),
                         None)
            if found is not None:
                break
        if found is None:
            return None
        y, val = found
        remaining.remove(y)
        solution[y] = val
        solution = {k: substitute(v, {y: val}) for k, v in solution.items()}
    if not all(is_zero(substitute(eq, solution)) for eq in equations):
        return None
    return solution


def _free_of(e, atoms):
    present = set(atoms_of(e))
    return not any(a in present for a in atoms)


def _solve_for(e, y, unsolved):
    """Solve e == 0 for the unsolved atom y: a linear occurrence, or a
    single exp or log kernel with argument linear in y.  Coefficient and
    value must be free of every unsolved atom."""
    solved = solve_linear(e, y)
    if solved is not None:
        c, val = solved
        if _free_of(c, unsolved) and _free_of(val, unsolved) and \
                (probe_nonzero_robust(c) or not jets_of(c)):
            return val
    # c*exp(a*y + d) + r == 0   or   c*log(a*y + d) + r == 0
    for k in walk(e):
        if not isinstance(k, (ExpF, LogF)):
            continue
        a = diff_atom(k.arg, y)
        if is_zero(a) or not is_zero(diff_atom(a, y)) or not _free_of(a, unsolved):
            continue
        solved = solve_linear(e, k)
        if solved is None or not all(_free_of(x, unsolved) for x in solved):
            continue
        # a = d arg/d y is free of y, so y occurs in arg only as a*y
        d = sub(k.arg, mul(a, y))
        # the target holds the target atom, so it is not zero: log_ is safe
        target = solved[1]
        if isinstance(k, ExpF):
            return div(sub(log_(target), d), a)
        return div(sub(exp_(target), d), a)
    return None


# ---------------------------------------------------------------------------
# applying a transformation to a system
# ---------------------------------------------------------------------------


class MappingReport:
    def __init__(self, equations, system, messages=None):
        self.equations = equations
        self.system = system          # the PdeSystem, when the rows close
        self.messages = messages or []


def apply_transformation(sys, tr):
    """Rewrite a system in the transformation's target variables.

    Needs the closed-form inverse: old independents/dependents (and, for
    contact maps, first-order jets) as expressions of the new ones.  Old
    jets lift through the inverse's chain rule, D_{x_i} = sum_j
    (dz_j/dx_i) D_{z_j}, one cached d^K table per old dependent.  The
    transformed equations are cleared of their denominators and reduced
    as a `PdeSystem`, whose reduced rows are returned; when they do not
    close, the cleared rows are returned with a message."""
    if sys.workspace is not tr.source:
        raise ExprError("transformation source workspace differs from the system's")
    jac = tr.jacobian()
    if is_zero(jac) or not probe_nonzero_robust(jac):
        raise DegenerateError("transformation Jacobian vanishes")
    inv, solution = invert_transformation(tr)
    if inv is None:
        raise ExprError("no closed-form inverse available for this transformation")

    src, tgt = tr.source, tr.target
    # D_{x_i} over the target jet space, from the old x as functions of z
    chain = ChainRule([solution[xi] for xi in src.independents],
                      tgt.independents, src.independents)
    old = DerivativeTable([solution[src.lookup(d)] for d in src.dependents],
                          src.independents, chain)
    if tr.kind == "contact":
        # the inverse gives the old first-order jets outright
        for i in range(src.n):
            K = multi_unit(i, src.n)
            old.cache[(0, K)] = solution[src.jet(src.dependents[0], K)]

    raw_eqs = []
    for g in sys.equations:
        rules = {}
        for a in atoms_of(g):
            if isinstance(a, Sym) and a.kind == "independent":
                rules[a] = solution[a]
            elif isinstance(a, Jet):
                rules[a] = old(src.dep_index(a.dep), src.jet_vector(a))
        raw_eqs.append(clear_equation(substitute(g, rules)))
    try:
        system = PdeSystem(tgt, raw_eqs)
    except ExprError as exc:
        return MappingReport(equations=raw_eqs, system=None, messages=[
            f"transformed equations do not close: {exc}"])
    return MappingReport(equations=system.reduced, system=system)


# ---------------------------------------------------------------------------
# comparison up to nonzero factors
# ---------------------------------------------------------------------------


def equations_match_up_to_factor(got, want):
    """Bijective matching: each produced equation is a jet-free nonzero
    multiple of one expected equation.  Factors are probed from the base
    probe seed + 17."""
    if len(got) != len(want):
        return False
    used = set()
    for g in got:
        hit = None
        for i, w in enumerate(want):
            if i in used:
                continue
            r = _factor_ratio(g, w)
            if r is not None:
                hit = i
                break
        if hit is None:
            return False
        used.add(hit)
    return True


def _factor_ratio(a, b):
    """A jet-free nonzero r with a == r*b."""
    r = None if is_zero(a) or is_zero(b) else _monomial_quotient(a, b)
    if r is None or jets_of(r) or \
            not probe_nonzero_robust(r, default_probe_seed() + 17):
        return None
    return r


def _monomial_quotient(a, b):
    """A monomial r with a == r*b, or None; tried from the ratios of each
    monomial of a to the leading monomial of b (sums do not cancel in
    quotient-free canonical form)."""
    cb, fb = monomials(b)[0]
    for ca, fa in monomials(a):
        r = from_monomial(quotient(ca, cb),
                          {k: fa.get(k, 0) - fb.get(k, 0)
                           for k in {**fa, **fb}})
        if is_zero(sub(mul(r, b), a)):
            return r
    return None
