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
enclosure a list, which tells the two apart.  exp and log sum Taylor series
on integers after argument reduction (Brent & Zimmermann, Modern Computer
Arithmetic, ch. 4), at guard bits beyond the grid, and round their results
outward back onto it.  Precision starts at START_PRECISION bits and doubles
until the result is narrower than 1e-40 or excludes zero; an enclosure
through zero where a sign is needed (a reciprocal, a log argument, a
symbolic-power base) is retried at double precision too.  Only the result
becomes rational: a Fraction, or an Interval with rational endpoints.  When the
precision cap is reached first, the probe raises ProbeUndecidedError instead of
answering.  This is the independent oracle backing the symbolic zero-tests.
"""

from __future__ import annotations

import random
from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import DomainError, ProbeUndecidedError, UncoveredKernelError
from .expr import (Add, ExpF, Expr, LogF, Mul, Rat, SPow, atoms_of,
                   is_atom, monomials, walk)

TARGET_WIDTH = Fraction(1, 10 ** 40)

# numeric_probe starts at START_PRECISION bits and doubles the precision
# until an enclosure decides; past MAX_PRECISION bits it gives up
START_PRECISION = 80
MAX_PRECISION = 4000

# exp refuses an argument beyond MAX_EXP_ARGUMENT in absolute value: on the
# grid, exp(x) is an integer of about 1.44 x bits
MAX_EXP_ARGUMENT = 2 ** 6

# working bits beyond the grid's that absorb the series' and the ln 2 error
GUARD_BITS = 20

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


def _exp(n, d, prec):
    """[lo, hi] enclosing exp(n / d) on the grid, for d > 0."""
    if abs(n) > MAX_EXP_ARGUMENT * d:
        raise ProbeUndecidedError(
            f"exp of an argument beyond MAX_EXP_ARGUMENT = {MAX_EXP_ARGUMENT}")
    r = max(0, abs(n).bit_length() - d.bit_length() + 11)
    g = GUARD_BITS + r
    w = prec + g
    a = (n << w) // d
    s = t = 1 << w
    k = 0
    while t:
        k += 1
        t = (t * abs(a) >> (w + r)) // k
        s += -t if a < 0 and k % 2 else t
    lo, hi = s - 2 * k, s + 2 * k + 2
    for _ in range(r):
        lo, hi = lo * lo >> w, -(-hi * hi >> w)
    return [lo >> g, -(-hi >> g)]


def _atanh(num, den, w):
    """[lo, hi] enclosing atanh(num / den) * 2**w, 0 <= num / den <= 1/3."""
    s = p = t = (num << w) // den
    t2 = t * t >> w
    k = 0
    while p:
        k += 1
        p = p * t2 >> w
        s += p // (2 * k + 1)
    return s, s + 2 * k + 2


@lru_cache
def _ln2(w):
    """[lo, hi] enclosing ln 2 * 2**w = 2 atanh(1/3) * 2**w."""
    return tuple(2 * b for b in _atanh(1, 3, w))


def _log(p, q, prec):
    """[lo, hi] enclosing log(p / q) on the grid, for p, q > 0."""
    e = p.bit_length() - q.bit_length()
    p, q = (p, q << e) if e >= 0 else (p << -e, q)
    if 2 * p * p < q * q:
        p, e = p << 1, e - 1
    elif p * p >= 2 * q * q:
        q, e = q << 1, e + 1
    g = GUARD_BITS + abs(e).bit_length()
    lo, hi = _atanh(abs(p - q), p + q, prec + g)
    if p < q:
        lo, hi = -hi, -lo
    l2 = _ln2(prec + g)
    return [2 * lo + e * l2[e < 0] >> g, -(-2 * hi - e * l2[e >= 0] >> g)]


def _transcendental(name, v, prec):
    """An enclosure of exp(v) or log(v) (`name` "exp" or "log") on the
    2**-prec grid, a few ulps wide relative to the value above 1: one
    evaluation of an exact v, or one per endpoint of an enclosure, on
    integers at w = prec + g bits, rounded outward onto the grid.

    exp(x): floor(x 2**w) / 2**w is halved r times, to s with |s| <= 2**-10.
    The Taylor series of exp(s) 2**w is summed with floor division: each
    term is low by under 1.001 ulps, and the sum stops at the k-th term,
    the first to floor to 0, beyond which the tail is under 2 ulps; so the
    sum is within 2k ulps, and 2 more cover the floored x.  Each of the r
    squarings rounds lo down and hi up, at most doubles the width relative
    to the value (absolute below 1) and adds 2 ulps; g = GUARD_BITS + r.

    log(x): x = m 2**e with 1/2 <= m**2 < 2, and log x = 2 atanh(t) + e ln 2
    with t = (m - 1)/(m + 1), |t| < 0.18.  atanh is odd, and its series at
    floor(|t| 2**w) / 2**w, ratio under 1/9, is summed as above: each term
    low by under 1.5 ulps, so the sum by under 2k, and 2 more cover the
    floored t.  ln 2 = 2 atanh(1/3) is kept per working precision, and g =
    GUARD_BITS + the bits of |e| absorbs e times its error."""
    f = _exp if name == "exp" else _log
    if type(v) is tuple:
        return f(*v, prec)
    return [f(v[0], 1 << prec, prec)[0], f(v[1], 1 << prec, prec)[1]]


def _eval(e, assignment, prec, memo):
    """The value of `e` at `prec` bits, an exact pair or an enclosure;
    `memo` keeps the value of each distinct exp, log and symbolic power met
    at this precision."""
    if isinstance(e, Rat):
        v = e.value
        return v.numerator, v.denominator
    if is_atom(e):
        v = assignment.get(e)
        if v is None:
            raise UncoveredKernelError(f"assignment does not cover {e!r}")
        if not isinstance(v, (int, Fraction)):
            v = Fraction(v)
        return v.numerator, v.denominator
    if isinstance(e, Add):
        return _add([_eval(t, assignment, prec, memo) for t in e.terms],
                    prec)
    if isinstance(e, Mul):
        (c, fmap), = monomials(e)
        return _mul([(c.numerator, c.denominator)] +
                    [_ipow(_eval(k, assignment, prec, memo), n, prec)
                     for k, n in fmap.items()], prec)
    v = memo.get(e)  # an exp, log or symbolic power
    if v is None:
        v = memo[e] = _eval_kernel(e, assignment, prec, memo)
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
