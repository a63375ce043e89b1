"""The linearization pipeline built on conservation-law multipliers:
recognize the required multiplier form, extract the dependent-variable part
of the mapping from the augmented conservation-law identity, build the
transformation, derive the linear target system, and verify everything to
literal zero."""

from __future__ import annotations

import random
from functools import cached_property

from .conslaw import (MultiplierFamily, multiplier_combination,
                      reconstruct_fluxes)
from .constraints import LinearConstraints
from .errors import DegenerateError, ExprError, ExtractionError
from .expr import (Add, ExpF, Fun, Jet, LogF, Mul, SPow, add,
                   clear_denominators, derive_multi, diff_kernel, div,
                   fun_kernels_of, is_zero, jets_of, linear_form,
                   monomial_signature, monomials, mul, multi_diff,
                   multi_lower, multi_unit, neg, normalize_equation, pow_int,
                   quotient, rat, sub, substitute, substitute_kernels,
                   total_derivative, walk)
from .jets import PdeSystem
from .linalg import det
from .linops import DerivativeTable, LinearOperator, bilinear_identity
from .mapping import (ChainRule, Transformation, apply_transformation,
                      contact_rho, equations_match_up_to_factor)
from .probe import (DomainError, default_probe_seed, probe_agree,
                    probe_nonzero_robust, random_assignment)
from .workspace import Workspace


class Rejection:
    """Why a family fails the match; not `decided` when the match gave up."""

    def __init__(self, reason, decided=True):
        self.reason = reason
        self.decided = decided


class LinearizationCandidate:
    """A matched family.  W, the mapping and the target are computed on
    first use, once per candidate.  L~* composed with X(x,U) has one
    route, `adjoint_rows` through the chain rule: on formal kernels it
    gives `composed_op`, the operator of the W solve; on the W found it
    confirms the solve's basis, clearing, monomial split and elimination
    (not the chain rule itself), and `verify_linearization` reads the rows
    that confirmation computed."""

    def __init__(self, family, system, coords, X, Q, chain_rule,
                 constraint_op, vnames):
        self.family = family          # in arbitrary-function (v) form
        self.system = system          # the source PdeSystem
        self.coords = coords          # formal coordinate symbols X_i
        self.X = X                    # coordinate definitions X_i(x, U[, dU])
        self.Q = Q                    # Q[nu][mu]
        self.chain_rule = chain_rule  # d/dX_i over the source jet space
        self.constraint_op = constraint_op  # L~, m x M, over coords
        self.vnames = vnames
        self._rows = None             # (W, adjoint_rows(W)) of the last W

    @property
    def J(self):
        """The Jacobian det(D X_i / D x_j) with total derivatives."""
        return self.chain_rule.det

    @cached_property
    def W(self):
        return extract_dependent_part(self)

    @cached_property
    def mapping(self):
        return build_mapping(self)

    @cached_property
    def target(self):
        return target_system(self)

    @cached_property
    def target_workspace(self):
        """Coordinates as independents, w1..wm as dependents."""
        return Workspace([c.name for c in self.coords],
                         [f"w{i+1}" for i in range(self.constraint_op.rows)],
                         [p.name for p in self.system.workspace.parameters])

    def compose(self, e):
        """Substitute the formal coordinates by their definitions X(x, U)."""
        return substitute(e, dict(zip(self.coords, self.X)))

    @cached_property
    def adjoint_op(self):
        """L~*, the formal adjoint of the constraint operator."""
        return self.constraint_op.adjoint()

    @cached_property
    def qg_rows(self):
        """(Q G)^mu = sum_nu Q_nu^mu G^nu over the source equations G."""
        eqs = self.system.equations
        return [add(*[mul(self.Q[nu][mu], g) for nu, g in enumerate(eqs)])
                for mu in range(len(eqs))]

    @cached_property
    def composed_op(self):
        """L~* composed with X(x,U) as an operator in x, read once for the
        W solve by `composed_operator`."""
        return composed_operator(self)

    def adjoint_rows(self, W):
        """(L~* W)^mu composed with X(x,U): coefficients b(X) -> b(X(x,U))
        and each d/dX_i realized through the chain rule.  The rows of the
        last W are kept, and reused only for an equal W."""
        W = tuple(W)
        if self._rows is None or self._rows[0] != W:
            self._rows = (W, self.adjoint_op.apply(
                W, derive=self.chain_rule, coefficient=self.compose))
        return self._rows[1]


# ---------------------------------------------------------------------------
# conversion of scalar-function families to first-order systems
# ---------------------------------------------------------------------------


def to_first_order_system(fam, sys):
    """Rename the derivative kernels of a single arbitrary function as
    independent components v^1..v^M and derive the first-order linear system
    they satisfy (coordinate derivatives of named kernels, closed with the
    help of the original constraint)."""
    if len(fam.function_names) != 1:
        return fam
    name = fam.function_names[0]
    kernels = sorted({(k.dmidx) for c in fam.components
                      for k in fun_kernels_of(c, name)},
                     key=lambda d: (sum(d), d))
    if not kernels:
        raise ExprError("family components hold no arbitrary-function kernels")
    if kernels == [(0,) * len(fam.coordinates)] and len(sys.equations) == 1:
        return fam  # already a single underived function: v-form with M = 1
    M = len(sys.equations)
    if len(kernels) != M:
        raise ExprError(
            f"family has {len(kernels)} distinct kernels but the system has "
            f"{M} equations; cannot form the component system")
    coords = fam.coordinates
    vnames = [f"v{i+1}" for i in range(M)]
    named = {k: i for i, k in enumerate(kernels)}
    # the first constraint row as {multi-index: coefficient}
    first_row = ({} if fam.constraints is None else
                 {K: c for (nu, _, K), c
                  in fam.constraints.operator.coeffs.items() if nu == 0})

    def express(dmidx, exclude):
        """dmidx of the scalar function in terms of named kernels and their
        first coordinate-derivatives: directly as a cross-derivative of
        another named kernel, or through the constraint."""
        if dmidx in named:
            return Fun(vnames[named[dmidx]], coords)
        direct = _as_named_or_derivative(dmidx, exclude)
        if direct is not None:
            return direct
        lead = first_row.get(dmidx)
        if lead is None:
            return None
        solved = neg(div(add(*[mul(c, Fun(name, coords, K))
                               for K, c in first_row.items() if K != dmidx]),
                           lead))
        out = []
        for k in fun_kernels_of(solved, name):
            repl = _as_named_or_derivative(k.dmidx, exclude)
            if repl is None:
                return None
            out.append((k, repl))
        return substitute_kernels(solved, dict(out))

    def _as_named_or_derivative(dmidx, exclude=None):
        if dmidx in named:
            return Fun(vnames[named[dmidx]], coords)
        for base, i in named.items():
            delta = multi_diff(dmidx, base)
            if delta is not None and sum(delta) == 1:
                pos = multi_lower(delta)[0]
                if exclude is not None and (i, pos) == exclude:
                    continue
                return Fun(vnames[i], coords, delta)
        return None

    rows = []
    seen = set()
    m = sys.m
    for dmidx, i in sorted(named.items(), key=lambda kv: kv[1]):
        for pos in range(len(coords)):
            if len(rows) >= m:
                break
            unit = multi_unit(pos, len(coords))
            rhs = express(tuple(o + u for o, u in zip(dmidx, unit)),
                          exclude=(i, pos))
            if rhs is None:
                continue
            # rhs holds no v_i_pos (it is excluded), so the row is not 0
            row = sub(Fun(vnames[i], coords, unit), rhs)
            canon = normalize_equation(row)
            if canon.key in seen:
                continue
            seen.add(canon.key)
            rows.append(row)
    if len(rows) != m:
        raise ExprError(
            f"component-system closure found {len(rows)} rows; expected {m}")
    new_cons = LinearConstraints({nm: coords for nm in vnames}, rows)
    repl = {}
    for c in fam.components:
        for k in fun_kernels_of(c, name):
            repl[k] = Fun(vnames[named[k.dmidx]], k.args)
    comps = [substitute_kernels(c, repl) for c in fam.components]
    return MultiplierFamily(components=comps, function_names=vnames,
                            coordinates=coords, definitions=fam.definitions,
                            constraints=new_cons)


# ---------------------------------------------------------------------------
# matching the required multiplier form
# ---------------------------------------------------------------------------


def match_multiplier_form(fam, sys):
    """Factor a verified family as Lambda_nu = sum_mu v^mu(X) Q_nu^mu J and
    package the linearization candidate, or reject with the reason."""
    try:
        fam = to_first_order_system(fam, sys)
    except ExprError as exc:
        return Rejection(f"the family's component system did not close "
                         f"({exc})", decided=False)
    ws = sys.workspace
    M = len(sys.equations)
    coords = fam.coordinates
    X = fam.definitions
    if len(X) != ws.n:
        return Rejection(
            f"{len(X)} coordinate definitions for {ws.n} independent "
            "variables: multiplier arguments do not form new coordinates")
    max_x_order = 1 if ws.m == 1 else 0
    for x in X:
        for j in jets_of(x):
            if j.order > max_x_order:
                return Rejection(
                    f"coordinate {x!r} depends on {j!r}; beyond "
                    f"{'contact' if ws.m == 1 else 'point'} form")
    vnames = list(fam.function_names)
    if len(vnames) != M:
        return Rejection(f"{len(vnames)} arbitrary functions for {M} "
                         "equations; Q cannot be square")
    chain = ChainRule(X, ws.independents, coords)
    J = chain.det
    if is_zero(J) or not probe_nonzero_robust(J):
        return Rejection("coordinate definitions are functionally dependent "
                         "(Jacobian vanishes)")
    kernels = [Fun(nm, fam.definitions) for nm in vnames]
    Q = []
    for nu, lam in enumerate(fam.components):
        form = linear_form(lam, kernels)
        if form is None:
            return Rejection(f"multiplier {nu + 1} is not linear in the "
                             "arbitrary functions")
        if not is_zero(form[1]):
            if not fun_kernels_of(lam):
                return Rejection("multipliers carry no arbitrary function; "
                                 "factored-form recovery impossible")
            return Rejection(f"multiplier {nu + 1} holds derivative kernels "
                             "or a function-free part; not of the required form")
        Q.append([div(c, J) for c in form[0]])
    detq = det(Q)
    if is_zero(detq) or not probe_nonzero_robust(detq):
        return Rejection("factor matrix Q is degenerate")
    cons = fam.constraints
    if cons is None or len(cons.rows) != ws.m:
        have = 0 if cons is None else len(cons.rows)
        return Rejection(f"constraint operator has {have} rows; need m = {ws.m}")
    if cons.names != vnames or cons.coords != tuple(coords):
        return Rejection("constraint operator is not over the family's "
                         "functions and coordinates")
    return LinearizationCandidate(family=fam, system=sys, coords=tuple(coords),
                                  X=tuple(X), Q=Q, chain_rule=chain,
                                  constraint_op=cons.operator,
                                  vnames=vnames)


# ---------------------------------------------------------------------------
# the augmented identity and W extraction
# ---------------------------------------------------------------------------


def composed_operator(cand):
    """L~* composed with X(x,U) as an operator in x, read off
    `cand.adjoint_rows` of formal kernels _W_alpha(x): the chain rule
    turns each D_x^L _W_alpha into the kernel _W_alpha_L(x), whose
    coefficient in row mu is C[(alpha, L)].  Row mu's coefficients and
    (Q G)^mu are cleared by one common denominator D_mu.  Returns one
    (D_mu, {(alpha, L): D_mu C[(alpha, L)]}, D_mu (Q G)^mu) per row."""
    dx = cand.system.workspace.independents
    names = [f"_W{a+1}" for a in range(cand.constraint_op.rows)]
    rows = []
    for row, target in zip(cand.adjoint_rows([Fun(w, dx) for w in names]),
                           cand.qg_rows):
        kernels = fun_kernels_of(row)
        cleared = clear_denominators([rat(1), target] +
                                     linear_form(row, kernels)[0])
        keys = [(names.index(k.name), k.dmidx) for k in kernels]
        rows.append((cleared[0], dict(zip(keys, cleared[2:])), cleared[1]))
    return rows


def _candidate_basis(cand, degree):
    """Monomials for the undetermined-coefficient solve of the dependent
    part W: atoms and transcendental kernels harvested from the family, X, Q
    and the coefficients of the adjoint operator."""
    ws = cand.system.workspace
    atoms = list(ws.independents)
    max_order = 1 if ws.m == 1 else 0
    for dep in ws.dependents:
        atoms.append(Jet(dep, ()))
        if max_order >= 1:
            atoms += [ws.jet(dep, multi_unit(i, ws.n)) for i in range(ws.n)]
    kernels = []
    seen = set()
    sources = list(cand.family.components) + list(cand.X) + \
        [c for row in cand.Q for c in row] + \
        [cand.compose(c) for c in cand.adjoint_op.coeffs.values()]
    inverted = set()
    for s in sources:
        for n in walk(s):
            if isinstance(n, (ExpF, LogF, SPow)) and not fun_kernels_of(n):
                if n.key not in seen:
                    seen.add(n.key)
                    kernels.append(n)
            if isinstance(n, Mul):
                inverted.update(k for k, m in monomials(n)[0][1].items()
                                if m < 0)
    units = atoms + kernels + [pow_int(b, -1) for b in inverted
                               if not isinstance(b, Add)]
    basis = [rat(1)]
    seen = {rat(1).key}
    frontier = [rat(1)]
    for _ in range(degree):
        nxt = []
        for b in frontier:
            for u in units:
                m = mul(b, u)
                if isinstance(m, Add) or m.key in seen:
                    continue
                seen.add(m.key)
                nxt.append(m)
        basis.extend(nxt)
        frontier = nxt

    # structured monomials first, so pivoting prefers them and the plain
    # polynomial freedom of the adjoint kernel is pinned to zero
    kernel_keys = {k.key for k in kernels}
    def struct(m):
        if jets_of(m):
            return 0
        return 0 if any(k.key in kernel_keys for k in monomials(m)[0][1]) else 1
    basis.sort(key=lambda m: (struct(m), m.key))
    return basis


MAX_W_DEGREE = 3


def extract_dependent_part(cand):
    """Solve Q_nu^mu G^nu == (L~* W)^mu identically in U for W over a
    harvested monomial basis, at basis degree 2 and then up to
    MAX_W_DEGREE.  L~* is linear, so each basis monomial b in each slot
    alpha of W gives one column L~*(b e_alpha), read through the
    candidate's composed operator; the coefficients of each monomial in a
    row give one exact rational equation in the unknown coefficients of
    W.  The solution is confirmed with `adjoint_rows` of the W found.
    Returns the W list; raises ExtractionError when no combination of
    basis monomials satisfies the identity at any degree."""
    last = None
    for degree in range(2, MAX_W_DEGREE + 1):
        try:
            return _extract_at_degree(cand, degree)
        except ExtractionError as exc:
            last = exc
    raise ExtractionError(f"{last}; basis degrees 2 to {MAX_W_DEGREE} tried, "
                          f"up to the cap MAX_W_DEGREE = {MAX_W_DEGREE}")


def _extract_at_degree(cand, degree):
    """W at one basis degree.  Row mu of column (alpha, b), times D_mu, is
    sum_L C[(alpha, L)] D_x^L b from `cand.composed_op`, so no chain rule
    and no division by J runs per column.  The D_x^L b of the basis are
    cleared by one common denominator P, which scales every row: each
    term C (P D_x^L b) is then free of denominators, and its monomials add
    straight into the row's equations.  The W found is confirmed exactly
    with `cand.adjoint_rows` against the uncleared (Q G)^mu."""
    basis = _candidate_basis(cand, degree)
    m = cand.constraint_op.rows
    dx = cand.system.workspace.independents
    slots = [(alpha, b) for alpha in range(m) for b in basis]
    orders = sorted({L for _, table, _ in cand.composed_op for _, L in table})
    derivs = [(b, L) for b in basis for L in orders]
    cleared = clear_denominators([rat(1)] + [
        derive_multi(b, dx, L, total_derivative) for b, L in derivs])
    scale, dB = cleared[0], dict(zip(derivs, cleared[1:]))
    # one equation per monomial: sum_j c_j P D_mu column_j^mu
    # - P D_mu (Q G)^mu == 0, with the target's coefficient under the key None
    equations = []
    for _, table, target in cand.composed_op:
        local = {}
        terms = [(None, mul(scale, neg(target)))] + [
            (j, mul(c, dB[(b, L)])) for j, (alpha, b) in enumerate(slots)
            for (a, L), c in table.items() if a == alpha]
        for key, e in terms:
            for coeff, fmap in monomials(e):
                row = local.setdefault(monomial_signature(fmap), {})
                row[key] = row.get(key, 0) + coeff
        for row in local.values():
            row = {key: c for key, c in row.items() if c}
            if row:
                equations.append(row)
    sol = _solve_linear_system(equations, range(len(slots)))
    if sol is None:
        raise ExtractionError(
            "no dependent-variable part exists in the candidate basis "
            f"(degree {degree})")
    out = [add(*[mul(rat(sol[j]), b) for j, (a, b) in enumerate(slots)
                 if a == alpha])
           for alpha in range(m)]
    # exact confirmation of the identity with the concrete W
    final = cand.adjoint_rows(out)
    for t, r in zip(cand.qg_rows, final):
        if not is_zero(sub(t, r)):
            raise ExtractionError("candidate solve left a nonzero residual")
    return out


def _solve_linear_system(equations, var_order):
    """Exact Gauss-Jordan elimination over the rationals.  Each pivot leaves
    every other row, so a pivot row holds its variable, free variables and
    the constant; with the free variables pinned to zero (variable order
    carries the structured-first preference) it reads off its variable.
    Returns None on inconsistency: a row left with a constant alone."""
    rows = [dict(e) for e in equations]
    pivots = {}
    for v in var_order:
        i = next((i for i, r in enumerate(rows) if r.get(v)), None)
        if i is None:
            continue
        pr = rows.pop(i)
        for r in rows + list(pivots.values()):
            f = r.get(v)
            if not f:
                continue
            f = quotient(f, pr[v])
            for kk, val in pr.items():
                nv = r.get(kk, 0) - f * val
                if nv == 0:
                    r.pop(kk, None)
                else:
                    r[kk] = nv
        pivots[v] = pr
    if any(rows):
        return None
    sol = dict.fromkeys(var_order, 0)
    for v, r in pivots.items():
        sol[v] = quotient(-r.get(None, 0), r[v])
    return sol


# ---------------------------------------------------------------------------
# the full augmented identity with fluxes
# ---------------------------------------------------------------------------


class AugmentedIdentity:
    def __init__(self, W, fluxes, remainder, residual):
        self.W = W
        self.fluxes = fluxes
        self.remainder = remainder    # multiplier combination - Div Gamma
        self.residual = residual      # remainder - the constraint-row terms


def augmented_identity(cand):
    """delta-V Q G J  ==  delta-W J (L~ V)  +  Div Gamma, with W extracted
    and Gamma assembled from the formal bilinear fluxes of the constraint
    operator composed through X(x, U)."""
    sys = cand.system
    ws = sys.workspace
    W = cand.W
    A = multiplier_combination(sys, cand.family)

    # sum_alpha W_alpha * J * (L~ v)_alpha, composed
    rows = add(*[mul(w, cand.J, cand.compose(r))
                 for w, r in zip(W, cand.constraint_op.to_rows(cand.vnames))])

    # fluxes: delta-v (L~* W~) = delta-W~ (L~ v) + Div_X Upsilon, composed
    wtilde = [f"_W{a+1}" for a in range(len(W))]
    upsilon = bilinear_identity(cand.adjoint_op, vnames=cand.vnames,
                                wnames=wtilde)
    dW = DerivativeTable(W, cand.coords, cand.chain_rule)

    def compose_upsilon(u):
        repl = {}
        for k in fun_kernels_of(u):
            if k.name in wtilde:
                repl[k] = dW(wtilde.index(k.name), k.dmidx)
        return cand.compose(substitute_kernels(u, repl))

    ups = [compose_upsilon(u) for u in upsilon]
    n = ws.n
    cof = cand.chain_rule.cof
    fluxes = [add(*[mul(cof[i][j], ups[i]) for i in range(n)]) for j in range(n)]
    remainder = sub(A, _divergence(fluxes, ws))
    return AugmentedIdentity(W=W, fluxes=fluxes, remainder=remainder,
                             residual=sub(remainder, rows))


def _divergence(fluxes, ws):
    return add(*[total_derivative(f, x) for f, x in zip(fluxes, ws.independents)])


def family_fluxes(sys, fam):
    """Fluxes for a verified multiplier family and the residual of the
    conservation law they give.  Without arbitrary functions the fluxes are
    reconstructed from the multiplier combination; otherwise they come from
    the augmented identity evaluated on constrained functions, where the
    constraint-row terms vanish, and the residual is reduced modulo the
    constraints.  Returns (fluxes, residual)."""
    if not any(fun_kernels_of(lam) for lam in fam.components):
        s = multiplier_combination(sys, fam)
        fluxes = reconstruct_fluxes(s, sys.workspace)
        return fluxes, sub(s, _divergence(fluxes, sys.workspace))
    cand = match_multiplier_form(fam, sys)
    if isinstance(cand, Rejection):
        raise ExprError(f"family does not match the factored form: {cand.reason}")
    rec = augmented_identity(cand)
    if not is_zero(rec.residual):
        raise ExprError("augmented identity residual is nonzero")
    # the family possibly converted to component form
    return rec.fluxes, cand.family.reduce(rec.remainder)


# ---------------------------------------------------------------------------
# mapping, target system, verification
# ---------------------------------------------------------------------------


def build_mapping(cand):
    """The transformation z = X(x,u), w = W(x,u); contact when the scalar
    case depends on first derivatives, with rho solved from the contact
    condition."""
    sys = cand.system
    tgt = cand.target_workspace
    contact = sys.m == 1 and any(
        j.order >= 1 for e in list(cand.X) + list(cand.W) for j in jets_of(e))
    if not contact:
        return Transformation("point", sys.workspace, tgt,
                              tuple(cand.X), tuple(cand.W))
    rho = contact_rho(cand.chain_rule, cand.W[0])
    for r in rho:
        for j in jets_of(r):
            if j.order > 1:
                raise DegenerateError(
                    "contact data depends on second derivatives; not a "
                    "contact transformation")
    return Transformation("contact", sys.workspace, tgt,
                          tuple(cand.X), tuple(cand.W), tuple(rho))


def target_system(cand):
    """The linear target: the adjoint of the constraint operator, with the
    coordinates renamed to independent variables."""
    tgt = cand.target_workspace
    Lstar = cand.adjoint_op
    rename = {c: tgt.independent(c.name) for c in cand.coords}
    coeffs = {k: substitute(v, rename) for k, v in Lstar.coeffs.items()}
    op = LinearOperator(tuple(tgt.independents), Lstar.rows, Lstar.cols, coeffs)
    wjets = [tgt.lookup(d) for d in tgt.dependents]
    eqs = op.apply(wjets, derive=total_derivative)
    return PdeSystem(tgt, eqs)


class LinearizationReport:
    def __init__(self, ok, identity_residuals, mapping_checked, mapping_ok,
                 messages=None):
        self.ok = ok
        self.identity_residuals = identity_residuals
        self.mapping_checked = mapping_checked
        self.mapping_ok = mapping_ok  # None when the mapping was not checked
        self.messages = messages or []


def verify_linearization(sys, cand):
    """Check Q G == L~* W identically in U through `cand.adjoint_rows`
    (never the composed operator of the W solve), then cross-check by
    applying the built transformation and comparing with the target system
    up to nonzero row factors; the application's messages, such as a cap
    that gave up, are passed on.  Each row found identically zero is
    cross-checked by probing its two sides at a random point."""
    targets = cand.qg_rows
    rows = cand.adjoint_rows(cand.W)
    residuals = [sub(t, r) for t, r in zip(targets, rows)]
    ok43 = all(is_zero(r) for r in residuals)
    messages = []
    if not ok43:
        messages.append("identity Q.G == L~*W fails; mismatch residual recorded")
    rng = random.Random(default_probe_seed() + 23)
    for t, r, resid in zip(targets, rows, residuals):
        if not is_zero(resid):
            continue
        try:
            if not probe_agree(t, r, random_assignment((t, r), rng)):
                ok43 = False
                messages.append("probe contradicts a symbolic zero")
        except DomainError:
            pass
    mapping_checked = False
    mapping_ok = None
    if ok43:
        try:
            rep = apply_transformation(sys, cand.mapping)
            mapping_ok = equations_match_up_to_factor(rep.equations,
                                                      cand.target.reduced)
            mapping_checked = True
            if not mapping_ok:
                messages.append("transformed system does not match the target")
            messages += rep.messages
        except ExprError as exc:
            messages.append(f"mapping cross-check skipped: {exc}")
    return LinearizationReport(ok=ok43 and mapping_ok is not False,
                               identity_residuals=residuals,
                               mapping_checked=mapping_checked,
                               mapping_ok=mapping_ok, messages=messages)


# ---------------------------------------------------------------------------
# Euler operators with respect to the arbitrary functions (X-space)
# ---------------------------------------------------------------------------


def euler_wrt_function(cand, e, mu):
    """E_{V^mu} in the X-coordinates, realized on composite expressions:
    sum_K (-1)^|K| DX^K (d e / d V^mu_K)."""
    args = cand.family.definitions
    name = cand.vnames[mu]
    out = []
    for k in fun_kernels_of(e, name):
        if k.args != args:
            continue
        sign = rat(-1) if sum(k.dmidx) % 2 else rat(1)
        d = derive_multi(diff_kernel(e, k), cand.coords, k.dmidx,
                         cand.chain_rule)
        out.append(mul(sign, d))
    return add(*out) if out else rat(0)
