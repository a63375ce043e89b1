"""Numeric probe: exact rationals, certified intervals, domain errors."""

from fractions import Fraction

import pytest

from helpers import (burgers_workspace, random_expression,
                     random_transcendental_expression, seeded, to_sympy)
from pdelin import probe
from pdelin.errors import (DomainError, ProbeUndecidedError,
                           UncoveredKernelError)
from pdelin.expr import (add, canonicalize, exp_, log_, mul, pow_int, rat, sub,
                         sym_pow)
from pdelin.grammar import parse, to_text
from pdelin.probe import (Interval, numeric_probe, probe_is_zero,
                          probe_nonzero_robust, random_assignment)
from pdelin.workspace import Workspace

# the reference for exp and log
mpmath = pytest.importorskip("mpmath")

ws = burgers_workspace()
x, t = ws.independents
u1 = ws.lookup("u1")


def test_exact_rational_value():
    v = numeric_probe(mul(x, u1), {x: Fraction(2), u1: Fraction(3)})
    assert v == Fraction(6)


def test_interval_certification():
    v = numeric_probe(exp_(rat(1)), {})
    assert isinstance(v, Interval)
    assert v.excludes_zero()
    # a zero value reached through transcendental kernels must be enclosed
    # by an interval narrower than 1e-40
    z = add(log_(u1), log_(parse("1/u1", ws)))
    vz = numeric_probe(z, {u1: Fraction(7, 2)})
    assert isinstance(vz, Interval)
    assert vz.includes_zero() and vz.width <= Fraction(1, 10 ** 40)


def test_exp_log_inverse_probe():
    e = sub(log_(exp_(x)), x)  # collapses symbolically
    assert probe_is_zero(e, {x: Fraction(5, 3)})
    # forced numeric route: log(u1) + log(1/u1)
    e2 = add(log_(u1), log_(mul(rat(1), parse("1/u1", ws))))
    assert probe_is_zero(e2, {u1: Fraction(7, 2)})


def test_symbolic_power_probe():
    ws2 = burgers_workspace()
    p = ws2.declare_parameter("p")
    e = sym_pow(u1, p)
    v = numeric_probe(e, {u1: Fraction(2), p: Fraction(1, 2)})
    assert isinstance(v, Interval) and v.excludes_zero()
    v2 = numeric_probe(e, {u1: Fraction(2), p: Fraction(3)})
    assert v2 == Fraction(8)


def test_domain_errors():
    with pytest.raises(DomainError):
        numeric_probe(log_(x), {x: Fraction(-1)})
    with pytest.raises(DomainError):
        numeric_probe(parse("1/u1", ws), {u1: Fraction(0)})


def test_uncovered_kernel():
    with pytest.raises(UncoveredKernelError):
        numeric_probe(mul(x, u1), {x: Fraction(1)})


def test_canonicalization_soundness_random():
    rng = seeded(31)
    atoms = [x, t, u1]
    for _ in range(100):
        e = random_expression(rng, atoms, depth=4)
        d = sub(canonicalize(e), e)
        asg = random_assignment(e, rng)
        try:
            assert probe_is_zero(d, asg)
        except DomainError:
            pass


def test_each_transcendental_kernel_is_evaluated_once_per_precision(
        monkeypatch):
    # exp(x) occurs in all three terms; the value is 0, so the probe doubles
    # the precision once before the enclosure is narrow enough
    wsz = Workspace("xyz", ["u"])
    x_, y_, z_ = wsz.independents
    e = parse("exp(x)*y + exp(x)*z + exp(x)", wsz)
    precisions = []
    real = probe._transcendental

    def counting(name, v, prec):
        precisions.append(prec)
        return real(name, v, prec)

    monkeypatch.setattr(probe, "_transcendental", counting)
    v = numeric_probe(e, {x_: Fraction(1, 3), y_: Fraction(1, 2),
                          z_: Fraction(-3, 2)})
    assert precisions == [80, 160]
    # the enclosure is the one that evaluating every occurrence gives
    assert (v.lo, v.hi) == (Fraction(-1, 2 ** 159), Fraction(1, 2 ** 159))


def test_tiny_values_stay_decidable():
    # exp(x) - 1 at x = 2^-100 lies below the 80-bit grid step, so its
    # 80-bit enclosure touches zero; the reciprocal is retried at 160 bits
    e = pow_int(add(exp_(x), rat(-1)), -1)
    v = numeric_probe(e, {x: Fraction(1, 2 ** 100)})
    assert isinstance(v, Interval) and v.excludes_zero()
    assert 2 ** 99 < v.lo <= v.hi < 2 ** 101


def test_reciprocal_of_zero_is_a_domain_error_naming_the_bits():
    # log(u1) + log(1/u1) is zero: every enclosure of it contains zero, so
    # its reciprocal stays undecided up to the precision cap
    e = pow_int(add(log_(u1), log_(parse("1/u1", ws))), -1)
    bits = probe.START_PRECISION
    while bits <= probe.MAX_PRECISION:
        bits *= 2
    with pytest.raises(DomainError, match=f"at {bits} bits"):
        numeric_probe(e, {u1: Fraction(7, 2)})


def test_inner_loop_builds_no_fraction_per_term(monkeypatch):
    # only the assignment reads and the returned Interval may build
    # Fractions: the count must not grow with the number of terms
    sums = [add(*[mul(rat(k), exp_(mul(rat(k, 7), x))) for k in range(1, n)])
            for n in (11, 41)]
    built = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    counts = []
    for e in sums:
        built.clear()
        assert isinstance(numeric_probe(e, {x: Fraction(1, 3)}), Interval)
        counts.append(len(built))
    monkeypatch.undo()
    assert counts[0] == counts[1]


def test_products_and_powers_of_negative_enclosures():
    # log(1/2) < 0: products, even and odd powers and reciprocals of a
    # negative enclosure, and a negative multiple of a positive one, against
    # 200-bit mpmath values
    l2, e3 = log_(u1), exp_(x)
    asg = {u1: Fraction(1, 2), x: Fraction(1, 3)}
    with mpmath.workprec(200):
        ln, ex = mpmath.log(mpmath.mpf(1) / 2), mpmath.exp(mpmath.mpf(1) / 3)
        cases = [(mul(l2, e3), ln * ex), (mul(l2, l2, e3), ln * ln * ex),
                 (pow_int(l2, 2), ln ** 2), (pow_int(l2, 3), ln ** 3),
                 (pow_int(l2, -2), ln ** -2), (pow_int(l2, -3), ln ** -3),
                 (mul(rat(-3, 2), e3), -3 * ex / 2)]
        cases = [(e, Fraction(*mpmath.libmp.to_rational(v._mpf_)))
                 for e, v in cases]
    eps = Fraction(1, 2 ** 180)
    for e, value in cases:
        v = numeric_probe(e, asg)
        assert v.lo <= value + eps and value - eps <= v.hi, e
        assert v.width < Fraction(1, 2 ** 70), e


def test_enclosures_contain_the_sympy_value():
    # an independent oracle for the probe: SymPy's exact rational where the
    # probe is exact, its 60-digit value inside every enclosure (up to that
    # value's own error)
    sp = pytest.importorskip("sympy")
    ws2 = burgers_workspace()
    p = ws2.declare_parameter("p")
    atoms = [x, t, u1]
    exponents = [p, rat(1, 2), rat(-2, 3), rat(5, 3)]
    rng = seeded(47)
    kinds = []
    for _ in range(40):
        e = random_transcendental_expression(rng, atoms, exponents)
        asg = random_assignment(e, rng)
        value = to_sympy(sp, e).xreplace(
            {sp.Symbol(to_text(a)): sp.Rational(v.numerator, v.denominator)
             for a, v in asg.items()})
        got = numeric_probe(e, asg)
        if isinstance(got, Fraction):
            kinds.append("exact")
            assert value == sp.Rational(got.numerator, got.denominator)
            continue
        kinds.append("interval")
        approx = sp.Rational(value.evalf(60))
        eps = sp.Rational(1, 10 ** 50) * max(1, abs(approx))
        assert (sp.Rational(got.lo.numerator, got.lo.denominator) - eps
                <= approx <=
                sp.Rational(got.hi.numerator, got.hi.denominator) + eps), e
    assert kinds.count("exact") >= 5 and kinds.count("interval") >= 20


def test_precision_cap_is_undecided_not_zero(monkeypatch):
    # no enclosure of a transcendental is ever narrower than 0, so the zero
    # below can only be resolved by giving up at the precision cap
    monkeypatch.setattr(probe, "TARGET_WIDTH", Fraction(0))
    e = add(log_(u1), log_(parse("1/u1", ws)))
    with pytest.raises(ProbeUndecidedError, match="bits"):
        probe_is_zero(e, {u1: Fraction(7, 2)})


@pytest.mark.parametrize("kernel, reference", [
    (exp_, mpmath.exp), (log_, mpmath.log)], ids=["exp", "log"])
def test_enclosure_is_sound_at_default_precision(kernel, reference):
    e = kernel(mul(rat(3, 2), x))
    with mpmath.workprec(53):
        got = numeric_probe(e, {x: Fraction(1)})
    with mpmath.workprec(400):
        value = Fraction(*mpmath.libmp.to_rational(
            reference(mpmath.mpf(3) / 2)._mpf_))
    eps = Fraction(1, 2 ** 380)    # far above the 400-bit rounding error
    assert got.lo <= value + eps and value - eps <= got.hi


# every precision the probe steps through, START_PRECISION doubled past
# MAX_PRECISION
PRECISIONS = [80 << i for i in range(7)]


def _reference_cases(rng, prec):
    """Seeded exp and log arguments at `prec` bits: exact rationals (tiny,
    near 0 or 1, large of either sign) and enclosures on the grid."""
    cap = probe.MAX_EXP_ARGUMENT
    sign = rng.choice((-1, 1))
    cases = {
        "exp": [Fraction(sign * rng.randint(1, 9), 2 ** rng.randint(20, 300)),
                Fraction(rng.randint(-50, 50), rng.randint(7, 60)),
                Fraction(rng.randint(cap * 2, cap * 7), 7),
                Fraction(-rng.randint(cap * 2, cap * 7), 7)],
        "log": [Fraction(rng.randint(1, 9), 2 ** rng.randint(20, 300)),
                1 + Fraction(sign * rng.randint(1, 9),
                             2 ** rng.randint(20, 300)),
                Fraction(rng.randint(1, 50), rng.randint(1, 50)),
                Fraction(rng.randint(2 ** 60, 2 ** 200), rng.randint(1, 99))],
    }
    for name, xs in cases.items():
        yield from ((name, (x.numerator, x.denominator)) for x in xs)
    c = rng.randint(-cap << prec, cap << prec)
    yield "exp", [c, c + rng.randint(0, 4)]
    c = rng.randint(1, 40 << prec)
    yield "log", [c, c + rng.randint(0, 4)]


@pytest.mark.parametrize("guard", [probe.GUARD_BITS, 0],
                         ids=["guarded", "unguarded"])
def test_exp_and_log_enclose_the_mpmath_value(monkeypatch, guard):
    # the guard bits only narrow an enclosure: without them every error
    # bound of the series, the squarings and ln 2 must still hold
    monkeypatch.setattr(probe, "GUARD_BITS", guard)
    rng = seeded(59)
    for prec in PRECISIONS:
        for name, v in _reference_cases(rng, prec):
            lo, hi = probe._transcendental(name, v, prec)
            a, b = ((Fraction(*v),) * 2 if type(v) is tuple else
                    (Fraction(v[0], 2 ** prec), Fraction(v[1], 2 ** prec)))
            f = mpmath.exp if name == "exp" else mpmath.log
            with mpmath.workprec(2 * prec + 64):
                fa, fb = (f(mpmath.mpf(x.numerator) / x.denominator)
                          for x in (a, b))
                assert mpmath.ldexp(lo, -prec) <= fa, (name, v, prec)
                assert fb <= mpmath.ldexp(hi, -prec), (name, v, prec)
                if guard:
                    # a few ulps, relative to the value above 1
                    assert hi - lo <= (fb - fa) * 2 ** prec + 2 ** 8 * max(
                        1, abs(fa), abs(fb)), (name, v, prec)


def test_exp_beyond_the_cap_is_undecided():
    cap = probe.MAX_EXP_ARGUMENT
    assert isinstance(numeric_probe(exp_(x), {x: Fraction(cap)}), Interval)
    for value in (Fraction(cap + 1), Fraction(-cap - 1)):
        with pytest.raises(ProbeUndecidedError, match="MAX_EXP_ARGUMENT"):
            numeric_probe(exp_(x), {x: value})
    # an enclosure beyond the cap: exp(exp(5)), exp(5) being about 148
    with pytest.raises(ProbeUndecidedError, match="MAX_EXP_ARGUMENT"):
        numeric_probe(exp_(exp_(x)), {x: Fraction(5)})


def test_log_of_an_enclosure_below_zero_is_a_domain_error():
    # exp(0) - 3 is an enclosure entirely below zero, not a sign to retry
    with pytest.raises(DomainError, match="log of a nonpositive value"):
        numeric_probe(log_(add(exp_(x), rat(-3))), {x: Fraction(0)})


def test_robust_probe_gives_up_when_every_point_is_outside_the_domain(
        monkeypatch):
    # -u1^2 - 1 < 0 at every point, so each probe raises DomainError
    raised = []
    real = probe.numeric_probe

    def counting(e, assignment):
        try:
            return real(e, assignment)
        except DomainError:
            raised.append(e)
            raise

    monkeypatch.setattr(probe, "numeric_probe", counting)
    e = log_(sub(rat(-1), pow_int(u1, 2)))
    assert probe_nonzero_robust(e) is False
    assert len(raised) == probe.MAX_ROBUST_PROBE_POINTS


def test_an_integer_valued_exponent_of_an_enclosure():
    # pow(log(u), x) at x = 0 is the zeroth power of an enclosure of log 3
    ws = Workspace("xt", ["u"])
    x = ws.independents[0]
    e = parse("pow(log(u), x)", ws)
    assert numeric_probe(e, {ws.lookup("u"): 3, x: 0}) == 1
    # an assignment may hold floats, read exactly
    assert numeric_probe(x, {x: 0.5}) == Fraction(1, 2)


def test_a_log_argument_enclosed_through_zero_raises_the_precision():
    # exp(x) - 1 - x at x = 10^-30 is about 5*10^-61: at the starting
    # precision its enclosure reaches below zero, and log needs more bits
    ws = Workspace("xt", ["u"])
    x = ws.independents[0]
    v = numeric_probe(parse("log(exp(x) - 1 - x)", ws),
                      {x: Fraction(1, 10 ** 30)})
    assert -139 < v.lo <= v.hi < -138
