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
  collapses to the literal 0: a sum with a sum kernel in a denominator has
  its denominators cleared to decide, unless its image under a modular
  homomorphism is nonzero, which proves it nonzero first;
* coefficients are ints when integral and Fractions otherwise.

A canonical expression is therefore either a rational constant, a single
monomial (coefficient times kernels raised to integer powers), or a sorted
sum of monomials.  Zero-testing of `a - b` is the equality test used
throughout the package.
"""

from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .errors import ExprError
from .series import exp_grid, log_grid

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
        value = _coefficient(value)
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
        coeff = _coefficient(coeff)
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


def _coefficient(q):
    """A coefficient in its one form: an int when integral, else a Fraction;
    any other type is an error, never a float that prints as 0.5."""
    if type(q) is int or type(q) is Fraction:
        return _integral(q)
    raise ExprError(f"a coefficient must be an int or a Fraction, not "
                    f"{type(q).__name__}")


def _integral(q):
    """An int or Fraction result of coefficient arithmetic back in its one
    form: a Fraction with denominator 1 becomes an int."""
    return q.numerator if type(q) is not int and q.denominator == 1 else q


def quotient(a, b):
    """a / b for int or Fraction coefficients: an int when integral, else a
    Fraction.  Every coefficient quotient goes through here."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _integral(Fraction(a, b))


ZERO = Rat(0)
ONE = Rat(1)
MINUS_ONE = Rat(-1)


def rat(p, q=1):
    return Rat(quotient(p, q))


def is_zero(e):
    return isinstance(e, Rat) and e.value == 0


def is_one(e):
    return isinstance(e, Rat) and e.value == 1


def is_integer(e):
    return isinstance(e, Rat) and type(e.value) is int


def is_atom(e):
    return isinstance(e, (Sym, Jet, Fun))


# ---------------------------------------------------------------------------
# monomial bookkeeping
#
# A monomial is (coeff, fmap: dict[kernel Expr -> int exponent]), its
# coefficient an int when integral and a Fraction otherwise.
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
        view = (e.value, {}) if isinstance(e, Rat) else (1, {e: 1})
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
    content = quotient(num, den)
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
    drop; a monomial met once is kept as the very tuple it came in."""
    acc = {}
    for m in monos:
        coeff, fmap = m
        if coeff == 0:
            continue
        sig = monomial_signature(fmap)
        if sig in acc:
            c = _integral(acc[sig][0] + coeff)
            if c == 0:
                del acc[sig]
            else:
                acc[sig] = (c, fmap)
        else:
            acc[sig] = m
    return acc


def _mono_mul(*monos):
    """The product of monomials: exponents merge, then `_normalize_fmap`
    merges exp factors and symbolic powers.  Sums may be left with positive
    exponents; `_expand` distributes them."""
    coeff = 1
    fmap = {}
    for c, f in monos:
        if c != 1:
            coeff *= c
        for k, n in f.items():
            fmap[k] = fmap.get(k, 0) + n
    if coeff == 0:
        return 0, {}
    return _normalize_fmap(_integral(coeff), fmap)


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
        c, f = (1, {e: 1}) if isinstance(e, Add) else _mono_of(e)
        coeff = _integral(coeff * c)
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
        shift = (1, shifts)
        parts = [_expand([_mono_mul(m, shift) for m in monos])
                 for monos in parts]


def _cleared_is_zero(monos):
    """Decide identical vanishing by clearing denominators."""
    return _clear([monos]) == [[]]


# the prime of the certificate's residues, 2^61 - 1
CERTIFICATE_PRIME = (1 << 61) - 1
_MASK64 = (1 << 64) - 1


def _residues():
    """The residues the certificate maps kernels to, in the order it meets
    them: SplitMix64 outputs (Steele, Lea & Flood, OOPSLA 2014) reduced mod
    the prime.  Fixed, so that a run repeats; they decide nothing printed."""
    s = 0
    while True:
        s = (s + 0x9E3779B97F4A7C15) & _MASK64
        z = (s ^ (s >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
        yield (z ^ (z >> 31)) % CERTIFICATE_PRIME


def _certified_nonzero(monos):
    """True when a nonzero image proves a sum of monomials nonzero, so
    that clearing its denominators, which could only find it nonzero, is
    spared.  The image is under a ring homomorphism phi into the integers
    mod CERTIFICATE_PRIME: symbols, jets, function kernels and logs map to
    residues from `_residues`, a sum kernel to the image of its terms, exp
    and symbolic powers to 1, a coefficient n/d to n*d^-1.  phi respects
    every rewrite of `_clear` (the expansion of a sum kernel, exp(a)*exp(b)
    -> exp(a + b), b^e*b^f -> b^(e + f)), so clearing to 0 multiplies the
    sum by a D with phi(D) != 0 and reaches phi(D)*phi(S) = 0.  False (no
    verdict) where phi fails to respect a rewrite or to exist: an exp whose
    argument has a lone log monomial (exp(1/2*log(t))^2 -> t), a symbolic
    power whose exponent has a constant monomial (pow(b, p + 1/2)*pow(b,
    1/2 - p) -> b), and a coefficient denominator or a kernel under a
    negative exponent that maps to 0, inside sum kernels too."""
    image = _image(monos, {}, _residues())
    return image is not None and image[0] != 0


def _image(monos, images, residues):
    """(num, den) with phi of a sum of monomials = num/den mod the prime,
    den != 0; None where the certificate declines.  `images` keeps each
    kernel's image for the call."""
    p = CERTIFICATE_PRIME
    num, den = 0, 1
    for coeff, fmap in monos:
        mn, md = coeff.numerator, coeff.denominator
        for k, n in fmap.items():
            x = images.get(k)
            if x is None:
                x = images[k] = _kernel_image(k, images, residues)
                if x is None:
                    return None
            kn, kd = x if n > 0 else (x[1], x[0])
            if n != 1:
                kn, kd = pow(kn, abs(n), p), pow(kd, abs(n), p)
            mn, md = mn * kn % p, md * kd % p
        if not md:
            return None
        num, den = (num * md + mn * den) % p, den * md % p
    return num, den


def _kernel_image(k, images, residues):
    """phi of one kernel as (num, den), or None where the certificate
    declines."""
    if isinstance(k, ExpF):
        for _, f in monomials(k.arg):
            if len(f) == 1:
                (j, n), = f.items()
                if n == 1 and isinstance(j, LogF):
                    return None
        return 1, 1
    if isinstance(k, SPow):
        if any(not f for _, f in monomials(k.expo)):
            return None
        return 1, 1
    if isinstance(k, Add):
        return _image(monomials(k), images, residues)
    return next(residues), 1


# ---------------------------------------------------------------------------
# smart constructors
# ---------------------------------------------------------------------------


def _sum(monos, nodes=None):
    """The canonical sum of a list of monomials.  `nodes` maps the id of a
    node's own view to the node: a monomial that leaves collection as that
    very view keeps its node instead of being rebuilt.  Zero is decided by
    clearing denominators, which runs only on a sum with a denominator sum
    kernel that `_certified_nonzero` leaves unproven."""
    nodes = nodes or {}
    if len(monos) == 1:
        return nodes.get(id(monos[0])) or from_monomial(*monos[0])
    acc = _collect(monos)
    if not acc:
        return ZERO
    out = sorted(acc.values(), key=lambda m: _mono_sort_key(*m))
    if len(out) == 1:
        return nodes.get(id(out[0])) or from_monomial(*out[0])
    if any(isinstance(k, Add) and n < 0
           for _, f in out for k, n in f.items()) and \
            not _certified_nonzero(out) and _cleared_is_zero(out):
        return ZERO
    return Add(tuple(nodes.get(id(m)) or from_monomial(*m) for m in out))


def add(*terms):
    monos = []
    nodes = {}
    for t in terms:
        for node in t.terms if isinstance(t, Add) else (t,):
            m = _mono_of(node)
            monos.append(m)
            nodes[id(m)] = node
    return _sum(monos, nodes)


def sub(a, b):
    return add(a, neg(b))


def neg(e):
    return _scaled(e, -1)


def _scaled(e, q):
    """A canonical expression times a nonzero rational.  Only coefficients
    change: the signatures of a canonical sum are distinct, so its term order
    never reaches a coefficient, and a nonzero sum stays nonzero."""
    if isinstance(e, Add):
        return Add(tuple(from_monomial(_integral(q * c), f)
                         for c, f in monomials(e)))
    c, f = _mono_of(e)
    return from_monomial(_integral(q * c), f)


def mul(*factors):
    return _sum(_expand([_mono_mul(*[_factor(f) for f in factors])]))


def _factor(e):
    """The monomial a canonical expression enters a product as: a sum as
    its content times its primitive part, so that (a+b)*(a+b)^-1 cancels
    before expanding, anything else as its view."""
    if isinstance(e, Add):
        c, prim = _extract_content(e)
        return c, {prim: 1}
    return _mono_of(e)


def _extract_content(e):
    """Rational content (with the sign of the leading term) of a sum and its
    primitive part.  The sum computes the pair once and keeps it, under the
    rules of its monomial view: read-only, and a racing write stores an
    equal pair."""
    pair = e._prim
    if pair is None:
        content = _content(monomials(e))
        pair = content, (e if content == 1 else
                         _scaled(e, quotient(1, content)))
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
        return Rat(_power(base.value, n))
    if isinstance(base, Mul):
        (c, fmap), = monomials(base)
        return _product(_power(c, n), fmap, lambda k, m: pow_int(k, m * n))
    if isinstance(base, ExpF):
        return exp_(mul(rat(n), base.arg))
    if isinstance(base, SPow):
        return sym_pow(base.base, mul(rat(n), base.expo))
    if isinstance(base, Add):
        if n > 0:
            return _sum(_expand([(1, {base: n})]))
        c, prim = _extract_content(base)
        return from_monomial(_power(c, n), {prim: n})
    return Mul(1, {base: n})


def _power(q, n):
    """A nonzero coefficient raised to an integer."""
    return _integral(q ** n) if n >= 0 else quotient(1, q ** -n)


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
    const = 0
    rest = []
    for c, f in monomials(expo):
        if not f and type(c) is int:
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
        if len(f) == 1 and type(c) is int:
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
    return _sum([(quotient(c, scale), fm) for c, fm in parts])


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


def _derive(e, leaf, derive, kernel=None):
    """Generic derivation: `leaf` maps an atom (Sym/Jet/Fun) to its
    derivative, or returns None to request default handling (zero for
    symbols and jets, the chain rule through arguments for function
    kernels); `derive` derives every kernel and argument below `e`, through
    the caller's cache where it has one.  A node equal to `kernel`, when
    given, is the variable."""
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
            da = derive(a)
            if not is_zero(da):
                parts.append(mul(da, e.bump(i)))
        return add(*parts) if parts else ZERO
    if isinstance(e, ExpF):
        return mul(derive(e.arg), e)
    if isinstance(e, LogF):
        return mul(derive(e.arg), pow_int(e.arg, -1))
    if isinstance(e, SPow):
        db = derive(e.base)
        terms = []
        if not is_zero(db):
            terms.append(mul(e.expo, sym_pow(e.base, sub(e.expo, ONE)), db))
        dq = derive(e.expo)
        if not is_zero(dq):
            terms.append(mul(dq, log_(e.base), e))
        return add(*terms) if terms else ZERO
    # the product rule over the factors k^n of every monomial of a product
    # or a sum, into one sum of the products c*rest*d(k^n), each expanded
    # on its own as `mul` expands it
    monos = []
    for c, fmap in monomials(e):
        for k, n in fmap.items():
            dk = derive(k)
            if is_zero(dk):
                continue
            dkn = [(n, {k: n - 1}), _factor(dk)]
            if n != 1 and isinstance(dk, Add):
                # d(k^n) = n*k^(n-1)*dk is a sum of its own, so that dk's
                # primitive part cancels against k^(n-1) only
                dkn = [_factor(_sum(_expand([_mono_mul(*dkn)])))]
            monos.extend(_expand([_mono_mul((c, fmap), (1, {k: -n}), *dkn)]))
    return _sum(monos)


@lru_cache(maxsize=400000)
def diff_atom(e, atom):
    """Partial derivative treating `atom` as a variable and every other
    symbol, jet and function kernel as independent of it.  Function terms
    other than `atom` itself chain through their arguments."""
    def leaf(a):
        if a == atom:
            return ONE
        return None if isinstance(a, Fun) else ZERO
    return _derive(e, leaf, lambda k: diff_atom(k, atom))


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

    return _derive(e, leaf, lambda k: total_derivative(k, x))


def diff_kernel(e, kernel):
    """Partial derivative with respect to an arbitrary kernel node (an exp,
    log, symbolic-power or denominator-sum kernel as well as a plain atom);
    nodes equal to the kernel are the variable, everything else chains."""
    if isinstance(kernel, (Sym, Jet, Fun)):
        return diff_atom(e, kernel)

    def derive(k):
        return _derive(k, lambda a: None, derive, kernel)

    return derive(e)


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
    """Empty the derivative caches and the probe's exp and log memos, so
    that the next job starts cold."""
    diff_atom.cache_clear()
    total_derivative.cache_clear()
    exp_grid.cache_clear()
    log_grid.cache_clear()
