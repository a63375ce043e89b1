"""Integer series for exp and log on a fixed-point grid.

`exp_grid(n, d, prec)` encloses exp(n / d) and `log_grid(p, q, prec)`
encloses log(p / q) by integers [lo, hi] standing for [lo, hi] / 2**prec,
lo rounded down and hi up, a few ulps wide relative to the value above 1.
Both sum Taylor series on integers after argument reduction (Brent &
Zimmermann, Modern Computer Arithmetic, ch. 4) at w = prec + g working bits,
and round their results outward back onto the grid.

exp(x): floor(x 2**w) / 2**w is halved r times, to s with |s| <= 2**-10.
The Taylor series of exp(s) 2**w is summed with floor division: each term
is low by under 1.001 ulps, and the sum stops at the k-th term, the first to
floor to 0, beyond which the tail is under 2 ulps; so the sum is within 2k
ulps, and 2 more cover the floored x.  Each of the r squarings rounds lo
down and hi up, at most doubles the width relative to the value (absolute
below 1) and adds 2 ulps; g = GUARD_BITS + r.

log(x): x = m 2**e with 1/2 <= m**2 < 2, and log x = 2**r 2 atanh(t) + e ln 2
with y = m**(2**-r) and t = (y - 1)/(y + 1), |t| < 0.18.  r = prec //
LOG_SQRT_BITS square roots shrink t about 2**r times, so each term of the
series gains 2r more bits: m is enclosed by [lo, hi] / 2**w (floor and
floor + 1), and each root takes isqrt of lo 2**w, rounded down, and of hi
2**w, rounded up, so y stays in [lo, hi] / 2**w.  The series runs at y0 =
lo / 2**w, and log y <= log y0 + (hi - lo) / lo widens the upper end by
ceil((hi - lo) 2**w / lo) ulps.  atanh is odd, and its series at floor(|t|
2**w) / 2**w, ratio under 1/9, is summed as above: each term low by under
1.5 ulps, so the sum by under 2k, and 2 more cover the floored t.  The
enclosure of log y is then multiplied by 2**r exactly, errors included.
ln 2 = 2 atanh(1/3) is kept per working precision, and g = GUARD_BITS + r +
the bits of |e| absorbs the 2**r and e times the ln 2 error.

Both are pure functions of integers, memoised up to SERIES_CACHE_SIZE
arguments each: a probe meets the same exp and log arguments at the same
precision again in every expression that shares a kernel.
`expr.clear_caches` empties both memos; the ln 2 table is a constant per
working precision and is kept.  A memoised enclosure is shared by every
caller, so no caller may change it in place.
"""

from functools import lru_cache
from math import isqrt

from .errors import ProbeUndecidedError

# exp refuses an argument beyond MAX_EXP_ARGUMENT in absolute value: on the
# grid, exp(x) is an integer of about 1.44 x bits
MAX_EXP_ARGUMENT = 2 ** 6

# working bits beyond the grid's that absorb the series' and the ln 2 error
GUARD_BITS = 20

# log takes one square root of its reduced argument per LOG_SQRT_BITS bits
# of precision; each halves the series' argument, so a term gains 2 more
# bits (below that precision a root costs more than the terms it saves)
LOG_SQRT_BITS = 320

# the arguments each of exp_grid and log_grid remembers
SERIES_CACHE_SIZE = 4096


@lru_cache(maxsize=SERIES_CACHE_SIZE)
def exp_grid(n, d, prec):
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


@lru_cache(maxsize=SERIES_CACHE_SIZE)
def log_grid(p, q, prec):
    """[lo, hi] enclosing log(p / q) on the grid, for p, q > 0."""
    e = p.bit_length() - q.bit_length()
    p, q = (p, q << e) if e >= 0 else (p << -e, q)
    if 2 * p * p < q * q:
        p, e = p << 1, e - 1
    elif p * p >= 2 * q * q:
        q, e = q << 1, e + 1
    r = prec // LOG_SQRT_BITS
    g = GUARD_BITS + r + abs(e).bit_length()
    w = prec + g
    slack = 0
    if r:
        # p/q in [lo, hi] / 2**w, then its 2**r-th root
        lo = (p << w) // q
        hi = lo + 1
        for _ in range(r):
            lo, hi = isqrt(lo << w), isqrt((hi << w) - 1) + 1
        p, q, slack = lo, 1 << w, -(-(hi - lo << w) // lo)
    lo, hi = _atanh(abs(p - q), p + q, w)
    if p < q:
        lo, hi = -hi, -lo
    l2 = _ln2(w)
    return [(2 * lo << r) + e * l2[e < 0] >> g,
            -(-(2 * hi + slack << r) - e * l2[e >= 0] >> g)]
