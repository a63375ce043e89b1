"""Linear differential operators over declared coordinates, their formal
adjoints, and the bilinear conservation identity

    V . (L W)  -  W . (L* V)  =  Div Upsilon[V, W]

realized by mechanical integration by parts.  Coordinates may be symbols or
zero-order jets; derivatives are formal partials with respect to those
atoms, so the same machinery serves target systems in new variables and
constraint operators over composite coordinates."""

from .errors import ExprError
from .expr import (KIND_PARAMETER, Fun, Sym, add, atoms_of, derive_multi,
                   diff_atom, fun_kernels_of, is_zero, linear_form, mul,
                   multi_binom, multi_diff, multi_indices, multi_lower, neg,
                   rat, sub)


class LinearOperator:
    """Coefficient table b[(row nu, col alpha, multi-index K)] over the
    declared coordinates."""

    def __init__(self, variables, rows, cols, coeffs):
        self.variables = tuple(variables)
        self.rows = rows
        self.cols = cols
        self.coeffs = {k: v for k, v in coeffs.items() if not is_zero(v)}
        for (nu, alpha, K), c in self.coeffs.items():
            if not (0 <= nu < rows and 0 <= alpha < cols and len(K) == len(self.variables)):
                raise ExprError("malformed operator coefficient index")
            bad = [a for a in atoms_of(c)
                   if a not in self.variables and not (
                       isinstance(a, Sym) and a.kind == KIND_PARAMETER)]
            if bad:
                raise ExprError(f"operator coefficient depends on {bad[0]!r}")

    @classmethod
    def from_rows(cls, rows, func_names, variables):
        """Extract the coefficient table from row expressions linear in the
        kernels of the named functions evaluated at the coordinates."""
        coords = tuple(variables)
        coeffs = {}
        for nu, row in enumerate(rows):
            kernels = fun_kernels_of(row)
            for k in kernels:
                if k.name not in func_names or k.args != coords:
                    raise ExprError(f"row {nu + 1} holds a foreign kernel {k!r}")
            form = linear_form(row, kernels)
            if form is None:
                raise ExprError(f"row {nu + 1} is not linear in its kernels")
            if not is_zero(form[1]):
                raise ExprError(f"row {nu + 1} has a kernel-free part")
            for k, c in zip(kernels, form[0]):
                coeffs[(nu, func_names.index(k.name), k.dmidx)] = c
        return cls(coords, len(rows), len(func_names), coeffs)

    def to_rows(self, func_names):
        out = []
        for nu in range(self.rows):
            terms = []
            for (r, alpha, K), c in sorted(self.coeffs.items(), key=lambda kv: kv[0]):
                if r != nu:
                    continue
                terms.append(mul(c, Fun(func_names[alpha], self.variables, K)))
            out.append(add(*terms) if terms else rat(0))
        return out

    # -- application --------------------------------------------------------

    def apply(self, W, derive=None, coefficient=None):
        """Apply to m component expressions.  `derive(e, variable)` defaults
        to formal partial differentiation with respect to the coordinates;
        pass `total_derivative` when the components are jet expressions over
        independent variables.  `coefficient`, when given, maps each
        coefficient before it multiplies (e.g. to compose it with coordinate
        definitions)."""
        if len(W) != self.cols:
            raise ExprError(f"operator expects {self.cols} components, got {len(W)}")
        dW = DerivativeTable(W, self.variables,
                             diff_atom if derive is None else derive)
        out = []
        for nu in range(self.rows):
            terms = [mul(c if coefficient is None else coefficient(c),
                         dW(alpha, K))
                     for (r, alpha, K), c in self.coeffs.items() if r == nu]
            out.append(add(*terms) if terms else rat(0))
        return out

    # -- adjoint -------------------------------------------------------------

    def adjoint(self):
        """Formal integration by parts: the operator L* with
        (L* v)^alpha = sum (-1)^|K| d^K (b[nu,alpha,K] v^nu)."""
        coeffs = {}
        for (nu, alpha, K), b in self.coeffs.items():
            sign = -1 if sum(K) % 2 else 1
            for J in multi_indices(K):
                d = derive_multi(b, self.variables, multi_diff(K, J),
                                 diff_atom)
                term = mul(rat(sign * multi_binom(K, J)), d)
                key = (alpha, nu, J)
                coeffs[key] = add(coeffs.get(key, rat(0)), term)
        return LinearOperator(self.variables, self.cols, self.rows, coeffs)


class DerivativeTable:
    """d^K of each component, for derivative multi-indices K over the given
    variables: `table(alpha, K)`.  Each entry is one `derive(e, variable)`
    step from its predecessor, lowered in the first nonzero direction of K,
    and is computed once."""

    def __init__(self, components, variables, derive):
        self.components = components
        self.variables = variables
        self.derive = derive
        self.cache = {}

    def __call__(self, alpha, K):
        val = self.cache.get((alpha, K))
        if val is None:
            if sum(K) == 0:
                val = self.components[alpha]
            else:
                i, lower = multi_lower(K)
                val = self.derive(self(alpha, lower), self.variables[i])
            self.cache[(alpha, K)] = val
        return val


def bilinear_identity(L, vnames=None, wnames=None):
    """Fluxes Upsilon with  δV.(L W) − δW.(L* V) − Σ_i ∂_i Upsilon_i = 0
    for formal arbitrary functions V (M components) and W (m components)
    of the operator's coordinates."""
    vnames = vnames or [f"V{n+1}" for n in range(L.rows)]
    wnames = wnames or [f"W{n+1}" for n in range(L.cols)]
    coords = L.variables
    fluxes = [rat(0)] * len(coords)
    for (nu, alpha, K), b in sorted(L.coeffs.items(), key=lambda kv: kv[0]):
        # c * d^K(W_alpha): peel the derivatives onto c, collecting fluxes
        c = mul(Fun(vnames[nu], coords), b)
        while sum(K) > 0:
            i, K = multi_lower(K)
            fluxes[i] = add(fluxes[i], mul(c, Fun(wnames[alpha], coords, K)))
            c = neg(diff_atom(c, coords[i]))
    return fluxes


def identity_residual(L, vnames=None, wnames=None):
    """The full residual of the bilinear identity; canonically zero."""
    vnames = vnames or [f"V{n+1}" for n in range(L.rows)]
    wnames = wnames or [f"W{n+1}" for n in range(L.cols)]
    coords = L.variables
    V = [Fun(nm, coords) for nm in vnames]
    W = [Fun(nm, coords) for nm in wnames]
    lw = L.apply(W)
    lsv = L.adjoint().apply(V)
    fluxes = bilinear_identity(L, vnames, wnames)
    divergence = add(*[diff_atom(f, coords[i]) for i, f in enumerate(fluxes)]) \
        if fluxes else rat(0)
    lhs = add(*[mul(V[nu], lw[nu]) for nu in range(L.rows)])
    rhs = add(*[mul(W[a], lsv[a]) for a in range(L.cols)])
    return sub(sub(lhs, rhs), divergence)
