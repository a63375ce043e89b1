"""Numeric probing: exact rational evaluation with certified interval
arithmetic for the transcendental kernels.

An assignment maps every kernel atom of an expression (symbols, jets,
arbitrary-function kernels) to a rational.  Rational subexpressions evaluate
exactly; exp, log and symbolic powers fall back to mpmath's low-level
interval functions at increasing precision until the result interval is
narrower than 1e-40 or excludes zero.  Each endpoint is rounded outward into
a raw mpmath value and read back as an exact rational, and no mpmath context
setting is read or written; mpmath is imported only when the first
transcendental is evaluated.  When the precision cap is reached first, the
probe raises ProbeUndecidedError instead of answering.  This is the
independent oracle backing the symbolic zero-tests.
"""

from __future__ import annotations

import random
from contextvars import ContextVar
from fractions import Fraction

from .errors import DomainError, ProbeUndecidedError, UncoveredKernelError
from .expr import (Add, ExpF, Expr, LogF, Mul, Pow, Rat, SPow, atoms_of,
                   is_atom, is_zero, walk)

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

    def __repr__(self):
        return f"Interval({float(self.lo)}, {float(self.hi)})"

    @property
    def width(self):
        return self.hi - self.lo

    def includes_zero(self):
        return self.lo <= 0 <= self.hi

    def excludes_zero(self):
        return self.lo > 0 or self.hi < 0


def _add(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    ia, ib = _as_interval(a), _as_interval(b)
    return Interval(ia.lo + ib.lo, ia.hi + ib.hi)


def _as_interval(v):
    return v if isinstance(v, Interval) else Interval(v, v)


def _mul(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    ia, ib = _as_interval(a), _as_interval(b)
    cands = [ia.lo * ib.lo, ia.lo * ib.hi, ia.hi * ib.lo, ia.hi * ib.hi]
    return Interval(min(cands), max(cands))


def _ipow(v, n):
    if isinstance(v, Fraction):
        if v == 0 and n < 0:
            raise DomainError("zero raised to a negative power")
        return v ** n
    iv = v
    if n < 0:
        if iv.includes_zero():
            raise DomainError("interval through zero raised to a negative power")
        lo, hi = 1 / iv.hi, 1 / iv.lo
        return _ipow(Interval(lo, hi), -n)
    if n == 0:
        return Fraction(1)
    out = Interval(Fraction(1), Fraction(1))
    for _ in range(n):
        out = _as_interval(_mul(out, iv))
    return out


def _transcendental(name, v, prec):
    """An enclosure of exp(v) or log(v) (`name` "exp" or "log") computed at
    `prec` bits on raw mpmath endpoints: the low endpoint of `v` is rounded
    down, the high one up, and the result's endpoints are read back
    exactly."""
    from mpmath.libmp import (finf, fnan, fninf, from_rational, libmpi,
                              round_ceiling, round_floor, to_rational)
    iv = _as_interval(v)
    s = (from_rational(iv.lo.numerator, iv.lo.denominator, prec, round_floor),
         from_rational(iv.hi.numerator, iv.hi.denominator, prec,
                       round_ceiling))
    fn = libmpi.mpi_exp if name == "exp" else libmpi.mpi_log
    ends = fn(s, prec)
    if any(x in (finf, fninf, fnan) for x in ends):
        raise DomainError(f"non-finite value in interval evaluation of {name}")
    lo, hi = (Fraction(*to_rational(x)) for x in ends)
    return Interval(lo, hi)


def _eval(e, assignment, prec, memo):
    """The value of `e` at `prec` bits; `memo` keeps the value of each
    distinct exp, log and symbolic power met at this precision."""
    if isinstance(e, Rat):
        return e.value
    if is_atom(e):
        v = assignment.get(e)
        if v is None:
            raise UncoveredKernelError(f"assignment does not cover {e!r}")
        return Fraction(v) if not isinstance(v, (Fraction, Interval)) else v
    if isinstance(e, Add):
        out = Fraction(0)
        for t in e.terms:
            out = _add(out, _eval(t, assignment, prec, memo))
        return out
    if isinstance(e, Mul):
        out = Fraction(1)
        for f in e.factors:
            out = _mul(out, _eval(f, assignment, prec, memo))
        return out
    if isinstance(e, Pow):
        return _ipow(_eval(e.base, assignment, prec, memo), e.exponent)
    if isinstance(e, (ExpF, LogF, SPow)):
        v = memo.get(e)
        if v is None:
            v = memo[e] = _eval_kernel(e, assignment, prec, memo)
        return v
    raise UncoveredKernelError(f"cannot evaluate node {type(e).__name__}")


def _eval_kernel(e, assignment, prec, memo):
    """The value of an exp, log or symbolic power at `prec` bits."""
    if isinstance(e, ExpF):
        return _transcendental("exp", _eval(e.arg, assignment, prec, memo),
                               prec)
    if isinstance(e, LogF):
        v = _eval(e.arg, assignment, prec, memo)
        if (isinstance(v, Fraction) and v <= 0) or (isinstance(v, Interval) and v.lo <= 0):
            raise DomainError("log of a nonpositive value")
        return _transcendental("log", v, prec)
    b = _eval(e.base, assignment, prec, memo)
    q = _eval(e.expo, assignment, prec, memo)
    if isinstance(q, Fraction) and q.denominator == 1:
        return _ipow(b, int(q))
    if (isinstance(b, Fraction) and b <= 0) or (isinstance(b, Interval) and b.lo <= 0):
        raise DomainError("symbolic power of a nonpositive base")
    lg = _transcendental("log", b, prec)
    return _transcendental("exp", _mul(q, lg), prec)


def numeric_probe(e, assignment):
    """Evaluate `e` under an atom assignment.

    Returns an exact Fraction when the expression is rational in its kernels,
    otherwise an Interval certified to be narrower than TARGET_WIDTH
    (relative to magnitude) or to exclude zero.  Precision starts at
    START_PRECISION bits and doubles; raises ProbeUndecidedError when
    neither holds once it passes MAX_PRECISION bits.
    """
    prec = START_PRECISION
    while True:
        v = _eval(e, assignment, prec, {})
        if isinstance(v, Fraction):
            return v
        scale = max(Fraction(1), abs(v.lo), abs(v.hi))
        if v.width <= TARGET_WIDTH * scale or v.excludes_zero():
            return v
        if prec > MAX_PRECISION:
            raise ProbeUndecidedError(
                f"probe undecided at {prec} bits, past the cap MAX_PRECISION "
                f"= {MAX_PRECISION} bits: an interval of width "
                f"{float(v.width):.3g} still contains zero")
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
    if is_zero(e):
        return False
    rng = random.Random(default_probe_seed() + 5 if seed is None else seed)
    for _ in range(MAX_ROBUST_PROBE_POINTS):
        try:
            if probe_nonzero(e, random_assignment(e, rng)):
                return True
        except DomainError:
            continue
    return False
