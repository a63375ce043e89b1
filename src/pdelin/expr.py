"""Exact symbolic expression kernel.

Expressions are immutable trees over a fixed node set: rational constants,
symbols, jet variables, arbitrary-function terms, sums, products (a
coefficient times kernels raised to integer powers, one node per monomial),
symbolic powers (base^parameter), exp and log.  All construction goes
through the smart constructors (`add`, `mul`, `pow_int`, `sym_pow`, `exp_`,
`log_`), which canonicalize on the way in:

* sums and products are flattened, commutatively sorted by a fixed term
  order, and rational constants folded;
* exp factors inside a product merge (exp(a)*exp(b) -> exp(a+b), exp(0) -> 1);
* symbolic powers with a common base merge and shed their integer part into
  ordinary integer powers;
* log(exp(a)) -> a and exp(log(a)) -> a (single level), and exp of a sum
  splits off integer multiples of log terms;
* positive integer powers of sums are expanded; negative ones are kept as
  opaque denominator kernels with rational content factored out;
* a sum that is identically zero as a rational expression in its kernels
  collapses to the literal 0 (denominators are cleared internally before
  deciding).

A canonical expression is therefore either a rational constant, a single
monomial (coefficient times kernels raised to integer powers), or a sorted
sum of monomials.  Zero-testing of `a - b` is the equality test used
throughout the package.
"""

from __future__ import annotations

from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .errors import ExprError

KIND_INDEPENDENT = "independent"
KIND_PARAMETER = "parameter"
KIND_COORDINATE = "coordinate"

_MAX_TERMS = ContextVar("pdelin_max_terms", default=200000)


def set_max_terms(n):
    """Guard on monomial counts produced by expansion, for the current
    context."""
    _MAX_TERMS.set(int(n))


class Expr:
    __slots__ = ("key", "_hash", "_mono")

    def __eq__(self, other):
        return self is other or (isinstance(other, Expr) and self.key == other.key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        from .grammar import to_text

        return f"<{to_text(self)}>"

    def _finish(self, key):
        self.key = key
        self._hash = hash(key)
        self._mono = None


class Rat(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value
        self._finish((0, value.numerator, value.denominator))


class Sym(Expr):
    __slots__ = ("name", "kind")

    def __init__(self, name, kind):
        self.name = name
        self.kind = kind
        self._finish((1, name, kind))


class Jet(Expr):
    """A dependent-variable component with a derivative multi-index.

    `midx` is a sorted tuple of (independent-name, order) pairs with positive
    orders; the empty tuple denotes the dependent itself.
    """

    __slots__ = ("dep", "midx")

    def __init__(self, dep, midx=()):
        midx = tuple(sorted((v, o) for v, o in midx if o))
        if any(o < 0 for _, o in midx):
            raise ExprError("negative derivative order in jet multi-index")
        self.dep = dep
        self.midx = midx
        self._finish((2, dep, sum(o for _, o in midx), midx))

    @property
    def order(self):
        return sum(o for _, o in self.midx)

    def bump(self, var):
        d = dict(self.midx)
        d[var] = d.get(var, 0) + 1
        return Jet(self.dep, tuple(d.items()))


class Fun(Expr):
    """Arbitrary-function term: name, ordered argument expressions, and a
    derivative multi-index over argument positions."""

    __slots__ = ("name", "args", "dmidx")

    def __init__(self, name, args, dmidx=None):
        args = tuple(args)
        if dmidx is None:
            dmidx = (0,) * len(args)
        dmidx = tuple(dmidx)
        if len(dmidx) != len(args) or any(o < 0 for o in dmidx):
            raise ExprError("bad derivative multi-index for function term")
        self.name = name
        self.args = args
        self.dmidx = dmidx
        self._finish((3, name, dmidx, tuple(a.key for a in args)))

    def bump(self, pos):
        d = list(self.dmidx)
        d[pos] += 1
        return Fun(self.name, self.args, tuple(d))


class ExpF(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg
        self._finish((4, arg.key))


class LogF(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg
        self._finish((5, arg.key))


class SPow(Expr):
    """Symbolic power base^expo with a non-integer, parameter-like exponent."""

    __slots__ = ("base", "expo")

    def __init__(self, base, expo):
        self.base = base
        self.expo = expo
        self._finish((6, base.key, expo.key))


class Mul(Expr):
    """A monomial other than a rational or a lone kernel: a coefficient
    times kernels raised to integer powers.  The node is its own monomial
    view: `fmap` lists the kernels in key order, in a dict that no caller
    holds.  A lone power k^n (coefficient 1) has the key (7, n, k.key); a
    product has (8, factor keys), led by the coefficient's when it is not 1,
    where a factor is a kernel k (k.key) or a power k^n ((7, n, k.key))."""

    __slots__ = ()

    def __init__(self, coeff, fmap):
        keys = tuple(k.key if n == 1 else (7, n, k.key)
                     for k, n in fmap.items())
        if coeff != 1:
            keys = ((0, coeff.numerator, coeff.denominator),) + keys
        self._finish(keys[0] if len(keys) == 1 else (8, keys))
        self._mono = coeff, fmap


class Add(Expr):
    __slots__ = ("terms", "_prim")

    def __init__(self, terms):
        self.terms = tuple(terms)
        self._finish((9, tuple(t.key for t in self.terms)))
        self._prim = None


ZERO = Rat(Fraction(0))
ONE = Rat(Fraction(1))
MINUS_ONE = Rat(Fraction(-1))


def rat(p, q=1):
    return Rat(Fraction(p, q))


def is_zero(e):
    return isinstance(e, Rat) and e.value == 0


def is_one(e):
    return isinstance(e, Rat) and e.value == 1


def is_integer(e):
    return isinstance(e, Rat) and e.value.denominator == 1


def is_atom(e):
    return isinstance(e, (Sym, Jet, Fun))


# ---------------------------------------------------------------------------
# monomial bookkeeping
#
# A monomial is (coeff: Fraction, fmap: dict[kernel Expr -> int exponent]).
# Kernels are atoms, ExpF, LogF, SPow, or canonical Add nodes (the latter only
# with negative exponents, as denominators).  A `Mul` node is a monomial: it
# keeps the (coeff, fmap) it was built from as its view.
# ---------------------------------------------------------------------------


def _mono_of(e):
    """The monomial view (coeff, fmap) of a canonical expression other than
    a sum; a sum is a kernel of its own.  A product is built with its view;
    a rational or a lone kernel computes its view once and keeps it.  A
    view is shared: no caller may mutate it.  Two threads may compute the
    same view at once; they store equal values."""
    view = e._mono
    if view is None:
        view = (e.value, {}) if isinstance(e, Rat) else (ONE.value, {e: 1})
        e._mono = view
    return view


def monomials(e):
    """The monomial view of a canonical expression: a list of (coeff, fmap).
    The fmaps are the nodes' own views: copy one before editing it."""
    if isinstance(e, Add):
        return [_mono_of(t) for t in e.terms]
    return [_mono_of(e)]


def monomial_signature(fmap):
    """A hashable, ordered signature of a monomial's kernels and exponents;
    two monomials are like terms exactly when their signatures are equal."""
    return tuple(sorted(((k.key, n) for k, n in fmap.items())))


def _mono_degree(fmap):
    return sum(fmap.values())


def _mono_sort_key(coeff, fmap):
    return (-_mono_degree(fmap), monomial_signature(fmap), coeff)


def _content(monos):
    """Rational content of a list of monomials: the gcd of the numerators
    over the lcm of the denominators, signed like the leading monomial."""
    num, den = 0, 1
    for c, _ in monos:
        num = gcd(num, c.numerator)
        den = lcm(den, c.denominator)
    content = Fraction(num, den)
    lead = min(monos, key=lambda m: _mono_sort_key(*m))
    return -content if lead[0] < 0 else content


def from_monomial(coeff, fmap):
    """Assemble a canonical expression from one monomial."""
    if coeff == 0:
        return ZERO
    kernels = sorted((k for k, n in fmap.items() if n), key=lambda k: k.key)
    if not kernels:
        return Rat(coeff)
    if coeff == 1 and len(kernels) == 1 and fmap[kernels[0]] == 1:
        return kernels[0]
    return Mul(coeff, {k: fmap[k] for k in kernels})


def _collect(monos):
    """Collect a list of monomials into {signature: (coeff, fmap)} with zero
    drop."""
    acc = {}
    for coeff, fmap in monos:
        if coeff == 0:
            continue
        sig = monomial_signature(fmap)
        if sig in acc:
            c = acc[sig][0] + coeff
            if c == 0:
                del acc[sig]
            else:
                acc[sig] = (c, fmap)
        else:
            acc[sig] = (coeff, fmap)
    return acc


def _mono_mul(*monos):
    """The product of monomials: exponents merge, then `_normalize_fmap`
    merges exp factors and symbolic powers.  Sums may be left with positive
    exponents; `_expand` distributes them."""
    coeff = ONE.value
    fmap = {}
    for c, f in monos:
        if c != 1:
            coeff *= c
        for k, n in f.items():
            fmap[k] = fmap.get(k, 0) + n
    if coeff == 0:
        return coeff, {}
    return _normalize_fmap(coeff, fmap)


def _expand(monos):
    """Distribute the sums that carry positive exponents in a list of
    monomials, one power of one sum per round, collecting after each round.
    No monomial of the result carries a sum kernel in its numerator; the
    input comes back unchanged when none did."""
    while True:
        kern = next((k for _, fmap in monos for k, n in fmap.items()
                     if n > 0 and isinstance(k, Add)), None)
        if kern is None:
            return monos
        terms = [_mono_of(t) for t in kern.terms]
        out = []
        for coeff, fmap in monos:
            n = fmap.get(kern, 0)
            if n <= 0:
                out.append((coeff, fmap))
                continue
            rest = dict(fmap)
            if n == 1:
                del rest[kern]
            else:
                rest[kern] = n - 1
            out.extend(_mono_mul((coeff, rest), t) for t in terms)
        if len(out) > _MAX_TERMS.get():
            raise ExprError("expression exceeds the configured term limit")
        monos = list(_collect(out).values())


def _normalize_fmap(coeff, fmap):
    """The one place where kernels merge: exp factors into one exp, and
    symbolic powers with a common base into one power.  Each merged factor
    folds in through its monomial view; one that is a sum (exp(2*y +
    log(t + 1)) -> (t + 1)*exp(2*y)) enters as a kernel with exponent 1."""
    # the exp factors form one merge group, the symbolic powers one per
    # base; with one kernel of exponent 1 per group there is nothing to merge
    groups = [(ExpF if isinstance(k, ExpF) else k.base, n)
              for k, n in fmap.items() if n and isinstance(k, (ExpF, SPow))]
    if all(n == 1 for _, n in groups) and \
            len({g for g, _ in groups}) == len(groups):
        return coeff, {k: n for k, n in fmap.items() if n}
    exp_parts = []
    spow = {}
    plain = {}
    for k, n in fmap.items():
        if n == 0:
            continue
        if isinstance(k, ExpF):
            exp_parts.append(mul(rat(n), k.arg))
        elif isinstance(k, SPow):
            prev = spow.get(k.base, ZERO)
            spow[k.base] = add(prev, mul(rat(n), k.expo))
        else:
            plain[k] = n
    merged = [sym_pow(base, expo) for base, expo in spow.items()]
    if exp_parts:
        merged.append(exp_(add(*exp_parts)))
    for e in merged:
        c, f = (Fraction(1), {e: 1}) if isinstance(e, Add) else _mono_of(e)
        coeff *= c
        for k, n in f.items():
            m = plain.get(k, 0) + n
            if m == 0:
                del plain[k]
            else:
                plain[k] = m
    # a merged factor can bring a kernel that merges again: exp(1/2*L) *
    # exp(3/2*L) with L = log(x^a) is x^(2*a), which meets a factor x^b
    return _normalize_fmap(coeff, plain)


# ---------------------------------------------------------------------------
# zero decision with denominator clearing
# ---------------------------------------------------------------------------


# passes of _clear; exhausting them is an error, never a result that still
# has denominators
MAX_CLEARING_PASSES = 32


def _clear(parts):
    """Multiply every monomial list in `parts` by one common denominator,
    the largest negative power of each kernel, so that k^-n meets k^n and
    cancels.  Iterates, because expanding a sum kernel can expose further
    denominators.  None when there was nothing to clear."""
    for passes in range(MAX_CLEARING_PASSES + 1):
        shifts = {}
        for monos in parts:
            for _, fmap in monos:
                for k, n in fmap.items():
                    if n < 0 and shifts.get(k, 0) < -n:
                        shifts[k] = -n
        if not shifts:
            return parts if passes else None
        if passes == MAX_CLEARING_PASSES:
            raise ExprError("denominator clearing did not finish: pass cap "
                            f"MAX_CLEARING_PASSES = {MAX_CLEARING_PASSES} "
                            "exhausted")
        shift = (ONE.value, shifts)
        parts = [_expand([_mono_mul(m, shift) for m in monos])
                 for monos in parts]


def _cleared_is_zero(monos):
    """Decide identical vanishing by clearing denominators."""
    return _clear([monos]) == [[]]


# ---------------------------------------------------------------------------
# smart constructors
# ---------------------------------------------------------------------------


def _sum(monos):
    """The canonical sum of a list of monomials."""
    if len(monos) == 1:
        return from_monomial(*monos[0])
    acc = _collect(monos)
    if not acc:
        return ZERO
    out = sorted(acc.values(), key=lambda m: _mono_sort_key(*m))
    if len(out) == 1:
        return from_monomial(*out[0])
    if any(isinstance(k, Add) and n < 0
           for _, f in out for k, n in f.items()) and _cleared_is_zero(out):
        return ZERO
    return Add(tuple(from_monomial(c, f) for c, f in out))


def add(*terms):
    monos = []
    for t in terms:
        monos.extend(monomials(t))
    return _sum(monos)


def sub(a, b):
    return add(a, neg(b))


def neg(e):
    return _scaled(e, MINUS_ONE.value)


def _scaled(e, q):
    """A canonical expression times a nonzero rational.  Only coefficients
    change: the signatures of a canonical sum are distinct, so its term order
    never reaches a coefficient, and a nonzero sum stays nonzero."""
    if isinstance(e, Add):
        return Add(tuple(from_monomial(q * c, f) for c, f in monomials(e)))
    c, f = _mono_of(e)
    return from_monomial(q * c, f)


def mul(*factors):
    monos = []
    for f in factors:
        if isinstance(f, Add):
            # the primitive part, so (a+b)*(a+b)^-1 cancels before expanding
            c, prim = _extract_content(f)
            monos.append((c, {prim: 1}))
        else:
            monos.append(_mono_of(f))
    return _sum(_expand([_mono_mul(*monos)]))


def _extract_content(e):
    """Rational content (with the sign of the leading term) of a sum and its
    primitive part.  The sum computes the pair once and keeps it, under the
    rules of its monomial view: read-only, and a racing write stores an
    equal pair."""
    pair = e._prim
    if pair is None:
        content = _content(monomials(e))
        pair = content, (e if content == 1 else _scaled(e, 1 / content))
        e._prim = pair
    return pair


def pow_int(base, n):
    n = int(n)
    if n == 0:
        return ONE
    if n == 1:
        return base
    if isinstance(base, Rat):
        if base.value == 0 and n < 0:
            raise ExprError("division by zero")
        return Rat(base.value ** n)
    if isinstance(base, Mul):
        (c, fmap), = monomials(base)
        return _product(c ** n, fmap, lambda k, m: pow_int(k, m * n))
    if isinstance(base, ExpF):
        return exp_(mul(rat(n), base.arg))
    if isinstance(base, SPow):
        return sym_pow(base.base, mul(rat(n), base.expo))
    if isinstance(base, Add):
        if n > 0:
            return _sum(_expand([(Fraction(1), {base: n})]))
        c, prim = _extract_content(base)
        return from_monomial(c ** n, {prim: n})
    return Mul(ONE.value, {base: n})


def _product(coeff, fmap, power):
    """coeff times the product of power(k, n) over a view's kernels, through
    `mul` unless there is one factor."""
    factors = [power(k, n) for k, n in fmap.items()]
    if coeff != 1:
        factors.insert(0, Rat(coeff))
    return factors[0] if len(factors) == 1 else mul(*factors)


def div(a, b):
    return mul(a, pow_int(b, -1))


def sym_pow(base, expo):
    if is_integer(expo):
        return pow_int(base, int(expo.value))
    if is_one(base):
        return ONE
    if isinstance(base, ExpF):
        return exp_(mul(expo, base.arg))
    if isinstance(base, SPow):
        return sym_pow(base.base, mul(expo, base.expo))
    if isinstance(base, Mul):
        (c, fmap), = monomials(base)
        if c == 1 and len(fmap) == 1:
            (k, n), = fmap.items()
            return sym_pow(k, mul(rat(n), expo))
    # shed the integer-constant additive part of the exponent
    const = Fraction(0)
    rest = []
    for c, f in monomials(expo):
        if not f and c.denominator == 1:
            const += c
        else:
            rest.append((c, f))
    if const and rest:
        return mul(pow_int(base, int(const)), SPow(base, _sum(rest)))
    return SPow(base, expo)


def exp_(arg):
    if is_zero(arg):
        return ONE
    if isinstance(arg, LogF):
        return arg.arg
    # integer multiples of logs leave the exponent as integer powers
    keep = []
    factors = []
    for c, f in monomials(arg):
        if len(f) == 1 and c.denominator == 1:
            (k, n), = f.items()
            if isinstance(k, LogF) and n == 1:
                factors.append(pow_int(k.arg, int(c)))
                continue
        keep.append((c, f))
    if factors:
        return mul(*factors, exp_(_sum(keep)))
    return ExpF(arg)


def log_(arg):
    if is_one(arg):
        return ZERO
    if is_zero(arg):
        raise ExprError("log of zero")
    if isinstance(arg, ExpF):
        return arg.arg
    return LogF(arg)


# ---------------------------------------------------------------------------
# canonicalize / rebuild
# ---------------------------------------------------------------------------


def _rebuild(e, rules):
    """Rebuild an expression through the smart constructors, replacing every
    node found in `rules` (simultaneously; replacements are not revisited)."""
    r = rules.get(e)
    if r is not None:
        return r
    if isinstance(e, (Rat, Sym, Jet)):
        return e
    if isinstance(e, Fun):
        return Fun(e.name, tuple(_rebuild(a, rules) for a in e.args), e.dmidx)
    if isinstance(e, ExpF):
        return exp_(_rebuild(e.arg, rules))
    if isinstance(e, LogF):
        return log_(_rebuild(e.arg, rules))
    if isinstance(e, SPow):
        return sym_pow(_rebuild(e.base, rules), _rebuild(e.expo, rules))
    if isinstance(e, Mul):
        (c, fmap), = monomials(e)
        return _product(c, fmap, lambda k, n: pow_int(_rebuild(k, rules), n))
    return add(*[_rebuild(t, rules) for t in e.terms])  # a sum


def canonicalize(e):
    """Rebuild an expression through the smart constructors (idempotent)."""
    return _rebuild(e, {})


def equal(a, b):
    return is_zero(sub(a, b))


# ---------------------------------------------------------------------------
# structural queries
# ---------------------------------------------------------------------------


def walk(e):
    yield e
    if isinstance(e, Fun):
        for a in e.args:
            yield from walk(a)
    elif isinstance(e, (ExpF, LogF)):
        yield from walk(e.arg)
    elif isinstance(e, SPow):
        yield from walk(e.base)
        yield from walk(e.expo)
    elif isinstance(e, Mul):
        for k in monomials(e)[0][1]:
            yield from walk(k)
    elif isinstance(e, Add):
        for t in e.terms:
            yield from walk(t)


def atoms_of(e, cls=None):
    out = []
    seen = set()
    for n in walk(e):
        if is_atom(n) and (cls is None or isinstance(n, cls)) and n not in seen:
            seen.add(n)
            out.append(n)
    return sorted(out, key=lambda a: a.key)


def jets_of(e, dep=None):
    return [j for j in atoms_of(e, Jet) if dep is None or j.dep == dep]


def fun_kernels_of(e, name=None):
    return [f for f in atoms_of(e, Fun) if name is None or f.name == name]


def max_jet_order(e):
    orders = [j.order for j in jets_of(e)]
    return max(orders) if orders else 0


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


def substitute(e, rules):
    """Simultaneous substitution of atoms (symbols / jets) followed by
    canonicalization.  Derivatives of substituted jets are not rewritten;
    callers must prolong their rules first."""
    for k in rules:
        if not isinstance(k, (Sym, Jet)):
            raise ExprError("substitution patterns must be symbols or jet variables")
    return substitute_kernels(e, rules)


def substitute_kernels(e, rules):
    """Simultaneous structural replacement of arbitrary kernels."""
    return _rebuild(e, rules) if rules else e


# ---------------------------------------------------------------------------
# equation normal form
# ---------------------------------------------------------------------------


def _contains_fun(k):
    return any(isinstance(n, Fun) for n in walk(k))


def normalize_equation(eq):
    """Strip a common invertible monomial factor and rational content; fix
    the sign so the leading coefficient is positive."""
    if is_zero(eq):
        return eq
    monos = monomials(eq)
    common = dict(monos[0][1])
    for _, fmap in monos[1:]:
        for k in list(common):
            n = fmap.get(k, 0)
            if n == 0 or (n > 0) != (common[k] > 0):
                del common[k]
            else:
                common[k] = min(common[k], n, key=abs)
    common = {k: n for k, n in common.items()
              if not (isinstance(k, Fun) or _contains_fun(k))}
    parts = []
    for c, fmap in monos:
        fm = dict(fmap)
        for k, n in common.items():
            m = fm.get(k, 0) - n
            if m == 0:
                fm.pop(k, None)
            else:
                fm[k] = m
        parts.append((c, fm))
    scale = _content(parts)
    return _sum([(c / scale, fm) for c, fm in parts])


def clear_denominators(exprs):
    """Multiply every expression by one common denominator (see `_clear`).
    The results share the multiplier, so linear relations among the inputs
    hold among the outputs."""
    exprs = list(exprs)
    cleared = _clear([monomials(e) for e in exprs])
    return exprs if cleared is None else [_sum(m) for m in cleared]


def clear_equation(e):
    """Multiply away denominators and strip a common monomial factor.
    Returns the normalized equation."""
    return normalize_equation(clear_denominators([e])[0])


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def _derive(e, leaf, kernel=None):
    """Generic derivation: `leaf` maps an atom (Sym/Jet/Fun) to its
    derivative, or returns None to request default handling (zero for
    symbols and jets, the chain rule through arguments for function
    kernels).  A node equal to `kernel`, when given, is the variable."""
    if kernel is not None and e == kernel:
        return ONE
    if isinstance(e, Rat):
        return ZERO
    if isinstance(e, (Sym, Jet)):
        r = leaf(e)
        return ZERO if r is None else r
    if isinstance(e, Fun):
        r = leaf(e)
        if r is not None:
            return r
        parts = []
        for i, a in enumerate(e.args):
            da = _derive(a, leaf, kernel)
            if not is_zero(da):
                parts.append(mul(da, e.bump(i)))
        return add(*parts) if parts else ZERO
    if isinstance(e, ExpF):
        return mul(_derive(e.arg, leaf, kernel), e)
    if isinstance(e, LogF):
        return mul(_derive(e.arg, leaf, kernel), pow_int(e.arg, -1))
    if isinstance(e, SPow):
        db = _derive(e.base, leaf, kernel)
        terms = []
        if not is_zero(db):
            terms.append(mul(e.expo, sym_pow(e.base, sub(e.expo, ONE)), db))
        dq = _derive(e.expo, leaf, kernel)
        if not is_zero(dq):
            terms.append(mul(dq, log_(e.base), e))
        return add(*terms) if terms else ZERO
    if isinstance(e, Mul):
        # the product rule over the factors k^n; d(k^n) is a product of its
        # own, so a sum in dk is distributed before it meets the others
        (c, fmap), = monomials(e)
        terms = []
        for k, n in fmap.items():
            df = _derive(k, leaf, kernel)
            if is_zero(df):
                continue
            if n != 1:
                df = mul(rat(n), pow_int(k, n - 1), df)
            rest = {j: m for j, m in fmap.items() if j is not k}
            terms.append(mul(df, from_monomial(c, rest))
                         if rest or c != 1 else df)
        return terms[0] if len(terms) == 1 else add(*terms)
    return add(*[_derive(t, leaf, kernel) for t in e.terms])  # a sum


@lru_cache(maxsize=400000)
def diff_atom(e, atom):
    """Partial derivative treating `atom` as a variable and every other
    symbol, jet and function kernel as independent of it.  Function terms
    other than `atom` itself chain through their arguments."""
    def leaf(a):
        if a == atom:
            return ONE
        return None if isinstance(a, Fun) else ZERO
    return _derive(e, leaf)


@lru_cache(maxsize=400000)
def total_derivative(e, x):
    """Total derivative with respect to an independent variable: jets raise
    their multi-index, function terms chain through their arguments."""
    if not isinstance(x, Sym):
        raise ExprError("total derivative direction must be a symbol")

    def leaf(a):
        if isinstance(a, Sym):
            return ONE if a == x else ZERO
        if isinstance(a, Fun):
            return None
        return a.bump(x.name)

    return _derive(e, leaf)


def diff_kernel(e, kernel):
    """Partial derivative with respect to an arbitrary kernel node (an exp,
    log, symbolic-power or denominator-sum kernel as well as a plain atom);
    nodes equal to the kernel are the variable, everything else chains."""
    if isinstance(kernel, (Sym, Jet, Fun)):
        return diff_atom(e, kernel)
    return _derive(e, lambda a: None, kernel)


def solve_linear(e, kernel):
    """Solve e == 0 for a kernel it is linear in: (c, x) with
    e == c*(kernel - x), where c = diff_kernel(e, kernel) is nonzero and
    free of the kernel.  None when the kernel is absent or occurs
    nonlinearly."""
    c = diff_kernel(e, kernel)
    if is_zero(c) or not is_zero(diff_kernel(c, kernel)):
        return None
    return c, neg(div(sub(e, mul(c, kernel)), c))


def linear_form(e, kernels):
    """(coefficients, rest) with e == sum(c_i * kernels[i]) + rest over
    distinct function kernels, read off the monomials in one pass.  A
    monomial holding one listed kernel at exponent 1 and no other function
    kernel adds to that kernel's coefficient, c_i = diff_kernel(e,
    kernels[i]); one holding no listed kernel is rest.  None when `e` is not
    linear in the kernels: a listed kernel at another exponent, inside
    another node, or times another function kernel."""
    index = {k: i for i, k in enumerate(kernels)}
    parts = [[] for _ in kernels]
    monos = monomials(e)
    rest = []
    for coeff, fmap in monos:
        lead = None
        other = False
        for k, n in fmap.items():
            # the function kernels in k: k itself first, when it is one
            inner = [f for f in walk(k) if isinstance(f, Fun)]
            if k in index:
                if n != 1 or lead is not None:
                    return None
                lead, inner = k, inner[1:]
            elif inner:
                other = True
            if any(f in index for f in inner):
                return None
        if lead is None:
            rest.append((coeff, fmap))
        elif other:
            return None
        else:
            fmap = dict(fmap)
            del fmap[lead]
            parts[index[lead]].append((coeff, fmap))
    return ([_sum(p) for p in parts],
            e if len(rest) == len(monos) else _sum(rest))


def derive_multi(e, variables, K, derive):
    """Apply `derive(e, variables[i])` K[i] times for each i, in the order
    of `variables`: d^K over integer vectors K."""
    for x, n in zip(variables, K):
        for _ in range(n):
            e = derive(e, x)
    return e


# Multi-indices outside `Jet` are integer vectors: over a workspace's
# independents in declaration order (`Workspace.jet_vector`), or over a
# function term's argument positions (`Fun.dmidx`).
def multi_indices(bounds, max_total=None):
    """Integer vectors J with 0 <= J[i] <= bounds[i] and |J| <= max_total,
    in lexicographic order."""
    if max_total is None:
        max_total = sum(bounds)
    if not bounds:
        yield ()
        return
    for first in range(min(bounds[0], max_total) + 1):
        for rest in multi_indices(bounds[1:], max_total - first):
            yield (first,) + rest


def multi_diff(a, b):
    """a - b, or None unless a >= b componentwise."""
    d = tuple(x - y for x, y in zip(a, b))
    return None if any(o < 0 for o in d) else d


def multi_binom(a, b):
    """binom(a, b): the product of the componentwise binomials."""
    out = 1
    for x, y in zip(a, b):
        out *= comb(x, y)
    return out


def multi_unit(i, n):
    """The unit vector e_i of length n."""
    return tuple(int(k == i) for k in range(n))


def multi_lower(K):
    """(i, K - e_i) for the first nonzero direction i of a nonzero K."""
    i = next(i for i, o in enumerate(K) if o)
    return i, K[:i] + (K[i] - 1,) + K[i + 1:]


def clear_caches():
    diff_atom.cache_clear()
    total_derivative.cache_clear()
