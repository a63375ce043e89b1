"""Conservation-law multipliers: determining equations, splitting into an
overdetermined linear system, a heuristic reducer (characteristics, algebraic
elimination, potential introduction), multiplier family verification,
divergence testing and flux reconstruction."""

from .constraints import KernelRules, LinearConstraints
from .errors import ExprError, NotADivergenceError, WorkspaceError
from .expr import (KIND_PARAMETER, ExpF, Fun, Jet, Rat, Sym, add, atoms_of,
                   derive_multi, diff_atom, div, exp_, from_monomial,
                   fun_kernels_of, is_zero, jets_of, linear_form, log_,
                   monomial_signature, monomials, mul, multi_diff,
                   multi_indices, multi_lower, multi_unit, neg,
                   normalize_equation, pow_int, quotient, rat, solve_linear,
                   sub, substitute, substitute_kernels, total_derivative,
                   walk)
from .grammar import to_text
from .jets import euler_operator, higher_euler, jet_rank


def multiplier_arguments(sys, order=None):
    """The arguments of multipliers of jet order `order` (by default 1 for
    one dependent variable, 0 for several): the independents, then in
    increasing rank every jet up to that order that no prolonged leading
    rule solves for.  An order above the supported maximum is an input
    error (WorkspaceError)."""
    ws = sys.workspace
    if order is None:
        order = 1 if ws.m == 1 else 0
    if ws.m == 1 and order > 2:
        raise WorkspaceError(
            "scalar contact case allows multiplier order at most 2")
    if ws.m >= 2 and order > 1:
        raise WorkspaceError(
            "multicomponent point case allows multiplier order at most 1")
    ruled = sys.prolonged_rules(order)
    jets = [j for dep in ws.dependents
            for K in multi_indices((order,) * ws.n, order)
            if (j := ws.jet(dep, K)) not in ruled]
    return (*ws.independents, *sorted(jets, key=lambda j: jet_rank(ws, j)))


# ---------------------------------------------------------------------------
# multiplier families
# ---------------------------------------------------------------------------


class MultiplierFamily:
    """Concrete multiplier components built from arbitrary-function kernels,
    together with the linear system constraining those functions.

    `coordinates` are the formal coordinate symbols of the constraint
    operator; `definitions` give each coordinate as an expression in the
    system variables (the X_i of the linearization theory)."""

    def __init__(self, components, function_names, coordinates, definitions,
                 constraints):
        self.components = components
        self.function_names = function_names
        self.coordinates = coordinates
        self.definitions = definitions
        self.constraints = constraints

    def reduce(self, e):
        return self.constraints.reduce(e) if self.constraints is not None else e


class VerificationReport:
    def __init__(self, ok, residuals, singular_warnings=None, messages=None):
        self.ok = ok
        self.residuals = residuals
        self.singular_warnings = singular_warnings or []
        self.messages = messages or []


def multiplier_combination(sys, fam):
    if len(fam.components) != len(sys.equations):
        raise ExprError("family component count does not match the system")
    return add(*[mul(lam, g) for lam, g in zip(fam.components, sys.equations)])


def verify_multipliers(sys, fam):
    """Check E_{U^sigma}(Lambda_nu G^nu) == 0 modulo the family constraints,
    and warn about multipliers that vanish on solutions.  The fluxes are
    `linearize.family_fluxes`."""
    ws = sys.workspace
    s = multiplier_combination(sys, fam)
    residuals = [fam.reduce(euler_operator(s, dep, ws)) for dep in ws.dependents]
    messages = [f"E_{dep} residual nonzero: offending terms remain"
                for dep, r in zip(ws.dependents, residuals) if not is_zero(r)]
    if messages:
        return VerificationReport(ok=False, residuals=residuals, messages=messages)
    warnings = [f"multiplier {i + 1} vanishes identically on solutions"
                for i, lam in enumerate(fam.components)
                if is_zero(sys.reduce_on_solutions(lam))]
    return VerificationReport(ok=True, residuals=residuals,
                              singular_warnings=warnings)


# ---------------------------------------------------------------------------
# determining system
# ---------------------------------------------------------------------------


class DeterminingSystem:
    def __init__(self, system, unknowns, arguments, equations):
        self.system = system
        self.unknowns = unknowns
        self.arguments = arguments
        self.equations = equations  # (dependent index, signature, Expr)

    def check_family(self, candidates, constraints=None):
        """Substitute candidate expressions for the unknown multipliers into
        every split equation and reduce modulo the given constraints.  Only
        tests call it; it is kept as the oracle that checks the parametric
        split against known multiplier families."""
        rules = KernelRules(diff_atom)
        for name in self.unknowns:
            rules.add(name, (0,) * len(self.arguments), self.arguments,
                      candidates[name])
        out = []
        for (_, _, eq) in self.equations:
            e = rules.reduce(eq)
            if constraints is not None:
                e = constraints.reduce(e)
            out.append(e)
        return out


def determining_system(sys, order=None):
    """Form E_{U^sigma}(Lambda_nu G^nu) for multipliers of jet order
    `order` (see `multiplier_arguments`), substitute the prolonged
    leading-solve rules, and split over parametric jet monomials."""
    ws = sys.workspace
    args = multiplier_arguments(sys, order)
    names = [f"L{nu + 1}" for nu in range(len(sys.equations))]
    lam = [Fun(nm, args) for nm in names]
    s = add(*[mul(l, g) for l, g in zip(lam, sys.equations)])
    arg_jets = {a for a in args if isinstance(a, Jet)}
    equations = []
    for sigma, dep in enumerate(ws.dependents):
        e = sys.reduce_on_solutions(euler_operator(s, dep, ws))
        for sig_text, coeff in _split_parametric(e, arg_jets):
            equations.append((sigma, sig_text, coeff))
    # deterministic order, deduplicated up to sign and rational content
    cleaned = []
    seen = set()
    for sigma, sig, eq in sorted(equations, key=lambda r: (r[0], r[1])):
        eqn = normalize_equation(eq)
        if is_zero(eqn):
            continue
        if eqn.key in seen:
            continue
        seen.add(eqn.key)
        cleaned.append((sigma, sig, eqn))
    return DeterminingSystem(system=sys, unknowns=names, arguments=args,
                             equations=cleaned)


def _split_parametric(e, arg_jets):
    """Collect coefficients of each monomial in jets outside the ansatz
    arguments.  An expression not polynomial in those jets is outside the
    class handled: an input error (WorkspaceError) naming the jet."""
    def outside(jet, how):
        return WorkspaceError("the determining system is not polynomial in the "
                              f"parametric jet {to_text(jet)}: it occurs {how}")

    groups = {}
    for coeff, fmap in monomials(e):
        par = {}
        rest = {}
        for k, n in fmap.items():
            if isinstance(k, Jet) and k not in arg_jets:
                if n < 0:
                    raise outside(k, "with a negative power")
                par[k] = n
            else:
                for a in walk(k):
                    if isinstance(a, Jet) and a not in arg_jets:
                        raise outside(a, f"inside {to_text(k)}")
                rest[k] = n
        sig = monomial_signature(par)
        group = groups.setdefault(sig, (par, []))
        group[1].append(from_monomial(coeff, rest))
    return [("1" if not par else to_text(from_monomial(1, par)),
             add(*monos)) for par, monos in groups.values()]


# ---------------------------------------------------------------------------
# heuristic reducer
# ---------------------------------------------------------------------------


# names tried, in order, for the coordinates of a packaged family; each
# becomes an independent of the linear target, so each is one letter
COORDINATE_NAMES = ("X", "T", "Y", "Z", *"ABCDEFGHIJKLMNOPQRSUVW",
                    *"abcdefghijklmnopqrstuvwxyz")


class ReducerResult:
    def __init__(self, case, family, residual_equations, steps):
        self.case = case              # "II", "I", or "undetermined"
        self.family = family          # a MultiplierFamily in case II
        self.residual_equations = residual_equations
        self.steps = steps


def reduce_determining_system(det):
    """Heuristic integration of the split determining system.

    Three passes run, iteratively.  The method of characteristics takes a
    homogeneous row c_0 g + sum_j c_j g_{p_j} = 0 in one function g, every
    kernel at the same arguments: g = 0 when no derivative occurs, else g =
    exp(-int c_0/c_k d arg_k) h, where h drops a pivot argument k and takes
    each other coupled argument j to an invariant of d arg_k/d arg_j =
    c_k/c_j (that ratio rational, c*arg_k, or free of every coupled
    argument); c_0/c_k must be free of the other coupled arguments and have
    a closed-form antiderivative.  Algebraic elimination and potentials for
    exactness relations follow.  A single surviving linear PDE in one
    function of n variables is packaged as a multiplier family (Case II);
    everything else is reported as Case I or undetermined with the
    irreducible residual system."""
    state = _ReducerState(det.unknowns, det.arguments,
                          [e for (_, _, e) in det.equations])
    state.run()
    components = [state.component(nm) for nm in det.unknowns]
    if not any(fun_kernels_of(c) for c in components):
        return ReducerResult("I", None, state.live_equations(), state.steps)
    live, fam = _package_result(state, components, det.system.workspace)
    if fam is not None:
        return ReducerResult("II", fam, live, state.steps)
    return ReducerResult("undetermined", None, live, state.steps)


def reduce_family_constraints(fam, sys):
    """Integrate first-order constraint rows of a provided multiplier family
    by characteristics, reducing the number of coordinates its arbitrary
    function depends on.  Returns (family, steps); the family is repackaged
    over fresh coordinate aliases when the reduction reaches n composite
    arguments with a single surviving constraint row."""
    if fam.constraints is None or len(fam.function_names) != 1:
        return fam, []
    name = fam.function_names[0]
    defs = tuple(fam.definitions)
    inst_rows = [substitute(r, dict(zip(fam.coordinates, defs)))
                 for r in fam.constraints.rows]
    state = _ReducerState([name], defs, inst_rows)
    state.run()
    components = [state.rules.reduce(c) for c in fam.components]
    _, packed = _package_result(state, components, sys.workspace)
    return (fam if packed is None else packed), state.steps


def _package_result(state, components, ws):
    """The live equations after a reducer run, and the multiplier family
    they define when exactly one function of n arguments survives under a
    single constraint (None otherwise)."""
    live = state.live_equations()
    names = sorted({k.name for e in live for k in fun_kernels_of(e)} |
                   {k.name for c in components for k in fun_kernels_of(c)})
    if len(names) == 1 and len(live) == 1 and state.arity(names[0]) == ws.n:
        return live, _package_family(state, components, names[0], live[0], ws)
    return live, None


def _placeholders(n):
    """The positional placeholder symbols _pos0.._pos{n-1} of an arity-n
    function."""
    return tuple(Sym(f"_pos{i}", "coordinate") for i in range(n))


# passes of _ReducerState.run; a run that exhausts them says so in its steps
MAX_REDUCER_PASSES = 64


def _homogeneous(form):
    """The coefficients of a linear form with no kernel-free part, else
    None."""
    return form[0] if is_zero(form[1]) else None


class _ReducerState:
    """Rewrites unknown-function kernels through accumulated substitutions.

    Substitutions are rules of a `KernelRules` table: an eliminated function
    g of arity r has the rule at base 0..0 over the placeholder symbols
    _pos0.._pos{r-1}, whose right-hand side may hold kernels of surviving
    functions at placeholder expressions."""

    def __init__(self, unknowns, arguments, equations):
        self.args = {nm: tuple(arguments) for nm in unknowns}
        self.equations = list(equations)
        self.rules = KernelRules(diff_atom)
        self.steps = []
        self.fresh = 0

    # -- bookkeeping --------------------------------------------------------

    def arity(self, name):
        return len(self.args[name])

    def new_name(self):
        self.fresh += 1
        return f"f{self.fresh}"

    def component(self, name):
        return self.rules.reduce(Fun(name, self.args[name]))

    def live_equations(self):
        out = []
        seen = set()
        for eq in self.equations:
            e = normalize_equation(self.rules.reduce(eq))
            if is_zero(e) or e.key in seen:
                continue
            seen.add(e.key)
            out.append(e)
        return out

    # -- the pass loop ------------------------------------------------------

    def run(self):
        passes = (self._pass_characteristics, self._pass_algebraic,
                  self._pass_potential)
        for _ in range(MAX_REDUCER_PASSES):
            self.equations = self.live_equations()
            if not self.equations:
                return
            live = [self._live(eq) for eq in self.equations]
            if not any(p(live) for p in passes):
                return
        self.steps.append(f"reducer stopped: pass cap MAX_REDUCER_PASSES = "
                          f"{MAX_REDUCER_PASSES} exhausted")

    def _live(self, e):
        """(e, its kernels of unknown functions, its linear form over
        them)."""
        kernels = [k for k in fun_kernels_of(e)
                   if k.name in self.args and k.name not in self.rules]
        return e, kernels, linear_form(e, kernels)

    def _register(self, name, body, note):
        arity = self.arity(name)
        self.rules.add(name, (0,) * arity, _placeholders(arity), body)
        self.steps.append(note)

    # pass: c_0*g + sum_j c_j*g_{p_j} = 0 in one function g, every kernel at
    # the same arguments and of order at most 1, by characteristics
    def _pass_characteristics(self, live):
        for _, ks, form in live:
            cs = _homogeneous(form)
            if cs is None or not ks or any(
                    k.name != ks[0].name or k.args != ks[0].args or
                    sum(k.dmidx) > 1 for k in ks):
                continue
            name = ks[0].name
            firsts = {multi_lower(k.dmidx)[0]: c
                      for k, c in zip(ks, cs) if any(k.dmidx)}
            if not firsts:
                self._register(name, rat(0), f"{name} = 0 forced")
                return True
            c0 = next((c for k, c in zip(ks, cs) if not any(k.dmidx)), None)
            for pk in sorted(firsts, reverse=True):
                solved = self._characteristics(name, c0, firsts, pk)
                if solved is not None:
                    self._register(name, *solved)
                    return True
        return False

    def _characteristics(self, name, c0, firsts, pk):
        """(body, step) for g = exp(-int (c0/c_pk) d arg_pk) * h, where h
        drops arg_pk and takes each other coupled argument p_j to the
        invariant of d(arg_pk)/d(arg_pj) = c_pk/c_pj; None when a ratio falls
        outside the catalog.  Both the factor and the invariants must be
        constant along a characteristic, so c0/c_pk may depend on arg_pk and
        the uncoupled arguments only."""
        args = self.args[name]
        ph = _placeholders(len(args))
        coupled = {ph[p] for p in firsts}
        new_ph = [self._invariant(div(firsts[pk], firsts[i]), args, coupled,
                                  i, pk) if i in firsts else ph[i]
                  for i in range(len(args)) if i != pk]
        theta = rat(0)
        if c0 is not None:
            a = self._to_placeholders(div(c0, firsts[pk]), args)
            free = a is not None and \
                (coupled - {ph[pk]}).isdisjoint(atoms_of(a))
            theta = _antiderivative(a, ph[pk]) if free else None
        if theta is None or any(p is None for p in new_ph):
            return None
        if new_ph:
            new = self.new_name()
            self.args[new] = tuple(substitute(p, dict(zip(ph, args)))
                                   for p in new_ph)
            body = Fun(new, tuple(new_ph))
        else:
            body = Sym(f"c{len(self.rules) + 1}", "parameter")
        # with a = c0/c_pk: exp(-a*arg) when a is free of arg_pk, else the
        # antiderivative theta that the body holds
        factor = "" if c0 is None else (
            f"factor exp(-int a d arg{pk + 1})" if ph[pk] in atoms_of(a)
            else f"factor exp(-a*arg{pk + 1})")
        if len(firsts) > 1:
            along = ",".join(str(p + 1) for p in sorted(firsts) if p != pk)
            step = (f"rides characteristics of args {along},{pk + 1}; " +
                    (f"{factor}; " if factor else "") + f"new function {new}")
        elif factor:
            step = f"integrated: {factor}" + (
                "" if new_ph else f"; constant {body.name}")
        elif new_ph:
            step = f"does not depend on argument {pk + 1}; renamed to {new}"
        else:
            step = f"depends on nothing: constant {body.name}"
        return mul(exp_(neg(theta)), body), f"{name} {step}"

    def _invariant(self, a, args, coupled, pj, pk):
        """Characteristic invariant of d(arg_pk)/d(arg_pj) = a, written over
        placeholders.  Catalog: a free of every coupled argument (over the
        placeholders, or a rational), and a = c * arg_pk with rational c."""
        ph = _placeholders(len(args))
        body = a if isinstance(a, Rat) else self._to_placeholders(a, args)
        if body is not None and coupled.isdisjoint(atoms_of(body)):
            return sub(ph[pj], div(ph[pk], body))
        c = div(a, args[pk])
        if isinstance(c, Rat):
            return sub(ph[pj], div(log_(ph[pk]), c))
        return None

    # pass: solve one equation algebraically for an underived kernel; the
    # only pass that accepts a kernel-free part
    def _pass_algebraic(self, live):
        # a live equation is linear in its kernels: the determining
        # equations are linear in the multipliers, constraint rows are linear,
        # and so is every rule
        for eq, ks, _ in live:
            for k in ks:
                if sum(k.dmidx) != 0:
                    continue
                if any(kk != k and kk.name == k.name for kk in ks):
                    continue
                # None when k's coefficient cancels once cleared of
                # denominators
                solved = solve_linear(eq, k)
                if solved is None:
                    continue
                body = self._to_placeholders(solved[1], k.args)
                if body is None:
                    continue
                self._register(k.name, body, f"{k.name} eliminated algebraically")
                return True
        return False

    def _to_placeholders(self, e, args):
        """Express `e` over the placeholders of a function of `args`: actual
        argument atoms map to placeholder symbols; any other atom outside
        surviving kernels blocks the substitution."""
        ph = _placeholders(len(args))
        mapping = {}
        for a, p in zip(args, ph):
            if not isinstance(a, (Sym, Jet)):
                return None
            mapping[a] = p
        out = substitute(e, mapping)
        return out if _formal_over(out, ph) else None

    # pass: exactness  c*(g1_xi - g2_eta) = 0  ->  potential
    def _pass_potential(self, live):
        for _, ks, form in live:
            if len(ks) != 2:
                continue
            k1, k2 = ks
            if k1.name == k2.name or k1.args != k2.args:
                continue
            if sum(k1.dmidx) != 1 or sum(k2.dmidx) != 1:
                continue
            p1, p2 = multi_lower(k1.dmidx)[0], multi_lower(k2.dmidx)[0]
            if p1 == p2:
                continue
            cs = _homogeneous(form)
            if cs is None or not is_zero(add(*cs)):
                continue
            # a live equation is normalized, so the leading kernel's
            # coefficient is positive: the form is g1_{p1} - g2_{p2} = 0 when
            # it is 1; introduce h with g1 = h_{p2}, g2 = h_{p1}
            if not is_zero(sub(cs[0], rat(1))):
                continue
            g1, g2 = k1.name, k2.name
            h = self.new_name()
            self.args[h] = self.args[g1]
            ph = _placeholders(len(self.args[g1]))
            self._register(g1, Fun(h, ph, multi_unit(p2, len(ph))),
                           f"potential {h}: {g1} = {h}_pos{p2 + 1}")
            self._register(g2, Fun(h, ph, multi_unit(p1, len(ph))),
                           f"potential {h}: {g2} = {h}_pos{p1 + 1}")
            return True
        return False

def _package_family(state, components, fname, constraint, ws):
    """Build a MultiplierFamily from reducer output: one surviving function
    of n composite arguments with a single linear constraint."""
    defs = state.args[fname]
    declared = {s.name for s in ws.independents} | set(ws.dependents)
    names = [nm for nm in COORDINATE_NAMES if nm not in declared]
    coord_syms = tuple(Sym(nm, "coordinate") for nm in names[:len(defs)])
    formal = _formalize(constraint, fname, defs, coord_syms)
    if formal is None:
        return None
    return MultiplierFamily(components=components, function_names=[fname],
                            coordinates=coord_syms, definitions=tuple(defs),
                            constraints=LinearConstraints({fname: coord_syms},
                                                          [formal]))


def _formalize(eq, fname, defs, coord_syms):
    """Re-express an instantiated constraint over formal coordinates.
    Coefficients must be rational or literally match a coordinate
    definition."""
    repl = {k: Fun(fname, coord_syms, k.dmidx) for k in fun_kernels_of(eq)}
    e = substitute_kernels(eq, repl)
    for i, d in enumerate(defs):
        if isinstance(d, (Sym, Jet)):
            e = substitute(e, {d: coord_syms[i]})
    return e if _formal_over(e, coord_syms) else None


def _formal_over(e, symbols):
    """True when every atom of `e` other than a function kernel is one of
    `symbols` or a parameter."""
    return all(isinstance(a, Fun) or a in symbols or
               (isinstance(a, Sym) and a.kind == KIND_PARAMETER)
               for a in atoms_of(e))


# ---------------------------------------------------------------------------
# divergence test and flux reconstruction
# ---------------------------------------------------------------------------


# absorption steps of the integration-by-parts sweep in reconstruct_fluxes;
# when they run out or a remainder repeats, the homotopy formula takes the rest
MAX_FLUX_SWEEPS = 400


def reconstruct_fluxes(e, ws):
    """Write a total divergence as D_i Upsilon_i.

    An integration-by-parts sweep absorbs the highest-ranked jets first (it
    also handles transcendental kernels); when the sweep cannot finish or
    cycles, and the expression is polynomial in its jets, the
    homotopy-operator formula with higher Euler operators takes over."""
    for dep in ws.dependents:
        if not is_zero(euler_operator(e, dep, ws)):
            raise NotADivergenceError("nonzero Euler image; not a total divergence")
    n = ws.n
    fluxes = [rat(0)] * n
    s = e
    cap_note = ""
    seen = set()
    for _ in range(MAX_FLUX_SWEEPS):
        if is_zero(s):
            return fluxes
        if s.key in seen:
            break
        seen.add(s.key)
        js = [j for j in jets_of(s) if j.order >= 1]
        if not js:
            s2 = _absorb_jet_free(s, fluxes, ws)
            if s2 is None:
                break
            s = s2
            continue
        m = max(js, key=lambda j: jet_rank(ws, j))
        s2 = _absorb(s, m, fluxes, ws)
        if s2 is None:
            break
        s = s2
    else:
        cap_note = (f" (sweep cap MAX_FLUX_SWEEPS = {MAX_FLUX_SWEEPS} "
                    "exhausted)")
    if is_zero(s):
        return fluxes
    rest = _homotopy_fluxes(s, ws)
    if rest is None:
        raise NotADivergenceError("flux reconstruction failed on a "
                                  f"non-polynomial remainder{cap_note}")
    return [add(f, r) for f, r in zip(fluxes, rest)]


def _homotopy_fluxes(e, ws):
    """Scaling-homotopy fluxes for expressions polynomial in the jets:
    Upsilon_i = sum_sigma sum_{K, K_i >= 1} (K_i/|K|)
                D^(K - e_i)[ u^sigma E^(K)(e) ], followed by the exact
    lambda-integration (each monomial divided by its jet degree)."""
    # a jet inside a kernel, or at a negative power where setting the jets
    # to 0 would divide by zero, is outside the formula
    for _, fmap in monomials(e):
        for k, n in fmap.items():
            if (n < 0 if isinstance(k, Jet) else
                    any(isinstance(a, Jet) for a in walk(k))):
                return None
    jet_zero = {j: rat(0) for j in jets_of(e)}
    base = substitute(e, jet_zero)
    work = sub(e, base)
    n = ws.n
    raw = [rat(0)] * n
    kset = set()
    for j in jets_of(work):
        for K in multi_indices(ws.jet_vector(j)):
            if sum(K) >= 1:
                kset.add(K)
    for dep in ws.dependents:
        u0 = Jet(dep, ())
        for K in sorted(kset):
            ek = higher_euler(work, dep, K, ws)
            if is_zero(ek):
                continue
            body = mul(u0, ek)
            for i in range(n):
                J = multi_diff(K, multi_unit(i, n))
                if J is None:
                    continue
                d = derive_multi(body, ws.independents, J, total_derivative)
                raw[i] = add(raw[i], mul(rat(K[i], sum(K)), d))
    # each monomial holds u0 or a derivative of it and no jet at a negative
    # power, so its jet degree is at least 1; a zero flux is the one
    # monomial 0
    fluxes = []
    for r in raw:
        fluxes.append(add(*[
            from_monomial(quotient(coeff, sum(nn for kk, nn in fmap.items()
                                              if isinstance(kk, Jet))), fmap)
            for coeff, fmap in monomials(r) if coeff]))
    # an exact antiderivative in one variable leaves nothing of base
    if not is_zero(base) and _absorb_jet_free(base, fluxes, ws) is None:
        return None
    return fluxes


def _absorb(s, m, fluxes, ws):
    best = None
    mv = ws.jet_vector(m)
    for i, sym in enumerate(ws.independents):
        lower = multi_diff(mv, multi_unit(i, ws.n))
        if lower is None:
            continue
        mp = ws.jet(m.dep, lower)
        split = _power_split(s, m, mp)
        if split is None:
            continue
        terms, rest = split
        penalty = 0
        for c, _a in terms:
            for j in jets_of(c):
                jb = j.bump(sym.name)
                if jet_rank(ws, jb) >= jet_rank(ws, m):
                    penalty += 1
        cand = (penalty, i, terms, rest, mp)
        if best is None or cand[0] < best[0]:
            best = cand
        if penalty == 0:
            break
    if best is None:
        return None
    _, i, terms, rest, mp = best
    sym = ws.independents[i]
    new_terms = [rest]
    for c, a in terms:
        theta = mul(c, pow_int(mp, a + 1), rat(1, a + 1))
        fluxes[i] = add(fluxes[i], theta)
        new_terms.append(neg(mul(total_derivative(c, sym),
                                 pow_int(mp, a + 1), rat(1, a + 1))))
    return add(*new_terms)


def _power_split(s, m, mp):
    """Split s = sum_a c_a * mp^a * m + rest, with each c_a free of m and mp.
    Returns None when m occurs nonlinearly or inside another kernel."""
    terms = {}
    rest = []
    for coeff, fmap in monomials(s):
        n_m = fmap.get(m, 0)
        if n_m == 0:
            for k in fmap:
                if any(j == m for j in jets_of(k)):
                    return None
            rest.append(from_monomial(coeff, dict(fmap)))
            continue
        if n_m != 1:
            return None
        a = fmap.get(mp, 0)
        if a < 0:
            return None
        fm = {k: v for k, v in fmap.items() if k not in (m, mp)}
        for k in fm:
            if any(j == m or j == mp for j in jets_of(k)):
                return None
        c = from_monomial(coeff, fm)
        terms.setdefault(a, []).append(c)
    out = [(add(*cs), a) for a, cs in sorted(terms.items())]
    return out, add(*rest) if rest else rat(0)


def _absorb_jet_free(s, fluxes, ws):
    """Remainder without derivative jets: integrate explicitly in the first
    variable admitting a closed-form antiderivative."""
    for i, v in enumerate(ws.independents):
        theta = _antiderivative(s, v)
        if theta is not None:
            fluxes[i] = add(fluxes[i], theta)
            return sub(s, total_derivative(theta, v))
    return None


def _antiderivative(s, x):
    """Exact antiderivative for sums of monomials x^n * exp(a*x + b) * rest
    with `rest` free of x; None when any monomial falls outside that class."""
    parts = []
    for coeff, fmap in monomials(s):
        n = fmap.get(x, 0)
        if n < 0:
            return None
        expk = None
        for k in fmap:
            if k == x:
                continue
            if any(a == x for a in atoms_of(k)):
                if isinstance(k, ExpF) and fmap[k] == 1 and expk is None:
                    expk = k
                else:
                    return None
        fm = {k: v for k, v in fmap.items() if k != x}
        if expk is None:
            fm[x] = n + 1
            parts.append(from_monomial(quotient(coeff, n + 1), fm))
            continue
        a = diff_atom(expk.arg, x)
        if is_zero(a) or not is_zero(diff_atom(a, x)) or jets_of(a) \
                or fun_kernels_of(a):
            return None
        # integrate g(x) * e^{a x + ...} by parts, descending in deg(g)
        fm.pop(expk)
        if n:
            fm[x] = n
        g = from_monomial(coeff, fm)
        acc = rat(0)
        factor = div(rat(1), a)
        for _ in range(n + 2):
            if is_zero(g):
                break
            acc = add(acc, mul(factor, g))
            g = neg(mul(factor, diff_atom(g, x)))
        parts.append(mul(acc, expk))
    return add(*parts)

