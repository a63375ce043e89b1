"""Numeric probing: exact rational evaluation with certified interval
arithmetic for the transcendental kernels.

An assignment maps every kernel atom of an expression (symbols, jets,
arbitrary-function kernels) to a rational.  One evaluation at `prec` bits
runs on Python integers only.  A rational subexpression is exact: an integer
pair (n, d) with d > 0, not reduced; products multiply numerators and
denominators, sums combine over the least common multiple of the
denominators.  exp, log and symbolic powers make enclosures: integer pairs
[lo, hi] standing for [lo, hi] / 2**prec, a fixed-point grid on which every
operation rounds lo down and hi up.  An exact value is a tuple and an
enclosure a list, which tells the two apart; no operation changes a list it
is given, because `series` hands the same memoised enclosure to every
caller.  exp and log are the integer series of `series`, rounded outward
onto the grid.  Precision starts at START_PRECISION bits and doubles until
the result is narrower than 1e-40 or excludes zero; an enclosure through
zero where a sign is needed (a reciprocal, a log argument, a symbolic-power
base) is retried at double precision too.  Only the result becomes
rational: a Fraction, or an Interval with rational endpoints.  When the
precision cap is reached first, the probe raises ProbeUndecidedError
instead of answering.  This is the independent oracle backing the symbolic
zero-tests.
"""

import random
from contextvars import ContextVar
from fractions import Fraction
from math import lcm

from .errors import DomainError, ProbeUndecidedError, UncoveredKernelError
from .expr import (Add, ExpF, Expr, Fun, Jet, LogF, Mul, Rat, SPow, Sym,
                   atoms_of, monomials, walk)
from .series import exp_grid, log_grid

TARGET_WIDTH = Fraction(1, 10 ** 40)

# numeric_probe starts at START_PRECISION bits and doubles the precision
# until an enclosure decides; past MAX_PRECISION bits it gives up
START_PRECISION = 80
MAX_PRECISION = 4000

# the inclusive range of numerators of random probe values
PROBE_NUMERATORS = (-6, 6)

_DEFAULT_SEED = ContextVar("pdelin_probe_seed", default=0)


def set_default_probe_seed(seed):
    """Base seed for randomized probe points (CLI --seed), for the current
    context."""
    _DEFAULT_SEED.set(int(seed))


def default_probe_seed():
    return _DEFAULT_SEED.get()


class Interval:
    """A closed rational-endpoint enclosure of a real value."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    @property
    def width(self):
        return self.hi - self.lo

    def includes_zero(self):
        return self.lo <= 0 <= self.hi

    def excludes_zero(self):
        return self.lo > 0 or self.hi < 0


def _as_interval(v):
    return v if isinstance(v, Interval) else Interval(v, v)


class _SignUndecided(Exception):
    """An enclosure through zero where the evaluation needs a sign: the
    probe retries at double precision."""


def _add(values, prec):
    """The sum of exact values and enclosures: exact terms add exactly, and
    their sum is rounded onto the grid once."""
    n, d = 0, 1
    out = None
    for v in values:
        if type(v) is tuple:
            vn, vd = v
            if vd == d:
                n += vn
            else:
                m = lcm(d, vd)
                n, d = n * (m // d) + vn * (m // vd), m
        elif out is None:
            out = v
        else:
            out = [out[0] + v[0], out[1] + v[1]]
    if out is None:
        return n, d
    if n:
        m = n << prec
        out = [out[0] + m // d, out[1] - (-m // d)]
    return out


def _mul(values, prec):
    """The product of exact values and enclosures: exact factors multiply
    exactly and scale the product of the enclosures once."""
    n, d = 1, 1
    out = None
    for v in values:
        if type(v) is tuple:
            n *= v[0]
            d *= v[1]
        elif out is None:
            out = v
        else:
            ps = (out[0] * v[0], out[0] * v[1], out[1] * v[0], out[1] * v[1])
            out = [min(ps) >> prec, -(-max(ps) >> prec)]
    if out is None:
        return n, d
    lo, hi = out if n >= 0 else out[::-1]
    return [n * lo // d, -(-n * hi // d)]


def _ipow(v, k, prec):
    """`v` raised to the integer `k`."""
    if type(v) is tuple:
        n, d = v
        if k < 0:
            if n == 0:
                raise DomainError("zero raised to a negative power")
            n, d, k = (d, n, -k) if n > 0 else (-d, -n, -k)
        return n ** k, d ** k
    if k == 0:
        return 1, 1
    lo, hi = v
    if k < 0:
        if lo <= 0 <= hi:
            raise _SignUndecided(
                "an enclosure through zero raised to a negative power")
        one = 1 << (2 * prec)
        lo, hi, k = one // hi, -(-one // lo), -k
    if k % 2 == 0 and lo < 0:
        # an even power of an enclosure reaching below zero
        lo, hi = (-hi, -lo) if hi <= 0 else (0, max(-lo, hi))
    s = (k - 1) * prec
    return [lo ** k >> s, -(-(hi ** k) >> s)]


def _positive(v, what):
    """`v`, checked to be positive; `what` names the operation that needs
    it."""
    if type(v) is tuple:
        if v[0] <= 0:
            raise DomainError(what)
    elif v[0] <= 0:
        if v[1] < 0:
            raise DomainError(what)
        raise _SignUndecided(f"{what}: an enclosure through zero")
    return v


def _transcendental(name, v, prec):
    """An enclosure of exp(v) or log(v) (`name` "exp" or "log") on the
    2**-prec grid: one series evaluation of an exact v, or one per endpoint
    of an enclosure, each enclosing its value from below and above."""
    f = exp_grid if name == "exp" else log_grid
    if type(v) is tuple:
        return f(*v, prec)
    return [f(v[0], 1 << prec, prec)[0], f(v[1], 1 << prec, prec)[1]]


def _eval(e, assignment, prec, memo):
    """The value of `e` at `prec` bits, an exact pair or an enclosure;
    `memo` keeps the value of each distinct atom, exp, log and symbolic
    power met at this precision."""
    t = type(e)
    if t is Rat:
        v = e.value
        return v.numerator, v.denominator
    if t is Add:
        return _add([_eval(u, assignment, prec, memo) for u in e.terms],
                    prec)
    if t is Mul:
        (c, fmap), = monomials(e)
        return _mul([(c.numerator, c.denominator)] +
                    [_ipow(_eval(k, assignment, prec, memo), n, prec)
                     for k, n in fmap.items()], prec)
    v = memo.get(e)
    if v is None:
        if t is Sym or t is Jet or t is Fun:
            v = assignment.get(e)
            if v is None:
                raise UncoveredKernelError(f"assignment does not cover {e!r}")
            if not isinstance(v, (int, Fraction)):
                v = Fraction(v)
            v = v.numerator, v.denominator
        else:
            v = _eval_kernel(e, assignment, prec, memo)
        memo[e] = v
    return v


def _eval_kernel(e, assignment, prec, memo):
    """The value of an exp, log or symbolic power at `prec` bits."""
    if isinstance(e, ExpF):
        return _transcendental("exp", _eval(e.arg, assignment, prec, memo),
                               prec)
    if isinstance(e, LogF):
        v = _eval(e.arg, assignment, prec, memo)
        return _transcendental(
            "log", _positive(v, "log of a nonpositive value"), prec)
    b = _eval(e.base, assignment, prec, memo)
    q = _eval(e.expo, assignment, prec, memo)
    if type(q) is tuple and q[0] % q[1] == 0:
        return _ipow(b, q[0] // q[1], prec)
    lg = _transcendental(
        "log", _positive(b, "symbolic power of a nonpositive base"), prec)
    return _transcendental("exp", _mul((q, lg), prec), prec)


def numeric_probe(e, assignment):
    """Evaluate `e` under an atom assignment.

    Returns an exact Fraction when the expression is rational in its kernels,
    otherwise an Interval certified to be narrower than TARGET_WIDTH
    (relative to magnitude) or to exclude zero.  Precision starts at
    START_PRECISION bits and doubles, also when an enclosure through zero
    meets a reciprocal, a log or a symbolic power; raises
    ProbeUndecidedError when neither holds once it passes MAX_PRECISION
    bits.
    """
    prec = START_PRECISION
    while True:
        one = 1 << prec
        try:
            v = _eval(e, assignment, prec, {})
        except _SignUndecided as exc:
            undecided = str(exc)
        else:
            if type(v) is tuple:
                return Fraction(*v)
            lo, hi = v
            scale = max(one, abs(lo), abs(hi))
            if ((hi - lo) * TARGET_WIDTH.denominator
                    <= TARGET_WIDTH.numerator * scale or lo > 0 or hi < 0):
                return Interval(Fraction(lo, one), Fraction(hi, one))
            undecided = (f"an interval of width {(hi - lo) / one:.3g} still "
                         "contains zero")
        if prec > MAX_PRECISION:
            raise ProbeUndecidedError(
                f"probe undecided at {prec} bits, past the cap MAX_PRECISION "
                f"= {MAX_PRECISION} bits: {undecided}")
        prec *= 2


def probe_is_zero(e, assignment):
    v = numeric_probe(e, assignment)
    if isinstance(v, Fraction):
        return v == 0
    return v.includes_zero()


def probe_agree(a, b, assignment):
    """False when `a` and `b` certainly differ at the assignment: exact
    values that differ, or enclosures that do not intersect."""
    va = _as_interval(numeric_probe(a, assignment))
    vb = _as_interval(numeric_probe(b, assignment))
    return va.lo <= vb.hi and vb.lo <= va.hi


def probe_nonzero(e, assignment):
    v = numeric_probe(e, assignment)
    if isinstance(v, Fraction):
        return v != 0
    return v.excludes_zero()


def random_assignment(e, rng):
    """Small nonzero random rationals, numerators in PROBE_NUMERATORS and
    denominators 1 to 4, for every kernel atom of `e`, an expression or a
    sequence of expressions.

    Values are kept positive for atoms that occur inside log or as symbolic
    power bases.
    """
    exprs = (e,) if isinstance(e, Expr) else tuple(e)
    need_positive = set()

    def mark_positive(sub):
        for a in atoms_of(sub):
            need_positive.add(a)

    for x in exprs:
        for n in walk(x):
            if isinstance(n, LogF):
                mark_positive(n.arg)
            elif isinstance(n, SPow):
                mark_positive(n.base)

    asg = {}
    for a in sorted({a for x in exprs for a in atoms_of(x)},
                    key=lambda a: a.key):
        while True:
            num = rng.randint(*PROBE_NUMERATORS)
            den = rng.randint(1, 4)
            v = Fraction(num, den)
            if v == 0:
                continue
            if a in need_positive and v <= 0:
                v = abs(v) + Fraction(1, den)
            asg[a] = v
            break
    return asg


# random points tried by probe_nonzero_robust before it answers "not nonzero"
MAX_ROBUST_PROBE_POINTS = 12


def probe_nonzero_robust(e, seed=None):
    """True when `e` probes nonzero at one of up to MAX_ROBUST_PROBE_POINTS
    random points drawn from `seed` (default: the base probe seed + 5)."""
    rng = random.Random(default_probe_seed() + 5 if seed is None else seed)
    for _ in range(MAX_ROBUST_PROBE_POINTS):
        try:
            if probe_nonzero(e, random_assignment(e, rng)):
                return True
        except DomainError:
            continue
    return False
