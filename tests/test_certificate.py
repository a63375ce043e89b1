"""The modular certificate of nonzero sums: it never certifies a sum that
clearing denominators finds zero, each of its decline rules fires, and
turning it off changes no result."""

import itertools

from helpers import (COMMANDS, GENERATED_AT, SYSTEMS, burgers_workspace,
                     random_expression, random_sum_with_denominators,
                     random_transcendental_expression, reference_document,
                     seeded)
from pdelin import expr
from pdelin.cli import main
from pdelin.expr import (CERTIFICATE_PRIME, Add, Sym, add, exp_, is_zero, log_,
                         monomials, mul, neg, pow_int, rat, sub, substitute,
                         sym_pow, total_derivative)

ws = burgers_workspace()
x, t = ws.independents
u1, u2 = ws.lookup("u1"), ws.lookup("u2")
p = Sym("p", "parameter")
y = Sym("y", "independent")


def _terms(*exprs):
    """The monomials of a sum of expressions, before collecting, so a sum
    that is zero keeps its terms."""
    return [m for e in exprs for m in monomials(e)]


def _zero_by_clearing(monos):
    """The soundness property on one monomial list: when clearing finds
    the sum zero, the certificate does not call it nonzero."""
    zero = expr._cleared_is_zero(monos)
    if zero:
        assert not expr._certified_nonzero(monos)
    return zero


def _lone_log_trap():
    # e^2 = exp(log(t)) = t once exp(1/2*log(t)) merges with itself, which
    # the image (exp -> 1) does not follow
    e = exp_(mul(rat(1, 2), log_(t)))
    return _terms(mul(add(t, e), pow_int(add(e, rat(1)), -1)), neg(e))


def _constant_exponent_trap():
    # Y*Z = pow(b, 1) = b sheds the constant of the merged exponent
    b = add(x, rat(2))
    y = sym_pow(b, add(p, rat(1, 2)))
    z = sym_pow(b, sub(rat(1, 2), p))
    return _terms(mul(add(b, z), pow_int(add(y, rat(1)), -1)), neg(z))


def test_the_two_traps_are_zero_and_declined():
    for monos in (_lone_log_trap(), _constant_exponent_trap()):
        assert _zero_by_clearing(monos)
        assert expr._image(monos, {}, expr._residues()) is None


def _merging_factor(rng):
    """A factor whose products with others merge in clearing: an exp of a
    multiple of an atom, a symbolic power of a shifted atom, or an atom."""
    a = rng.choice((x, t, u1, u2))
    kind = rng.randrange(3)
    if kind == 0:
        return exp_(mul(rat(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3)),
                        a))
    if kind == 1:
        return sym_pow(add(a, rat(rng.randint(1, 3))),
                       mul(rat(rng.choice((-1, 1, 2))), p))
    return pow_int(a, rng.choice((-1, 1, 2)))


def test_zero_sums_with_merges_are_never_certified():
    # a*d/d - a with sums d in denominators: clearing multiplies by d and
    # meets exp(c)*exp(-c) and pow(b, p)*pow(b, -p), which merge to 1; and
    # a*s/s - a with s = 1 + a sum over d, a sum kernel in a sum kernel
    rng = seeded(83)
    zeros = sums = 0
    for _ in range(40):
        # a factor y, which no other factor holds, keeps a*den/den from
        # cancelling before it is cleared
        a = mul(y, *[_merging_factor(rng) for _ in range(rng.randint(1, 2))])
        d = add(*[mul(rat(rng.randint(1, 3)), _merging_factor(rng),
                      _merging_factor(rng)) for _ in range(2)], rat(1))
        s = add(*[mul(_merging_factor(rng), pow_int(d, -1))
                  for _ in range(2)], rat(1))
        # exp(u)*exp(-u) can make d a constant, and then s too
        for den in (e for e in (d, s) if isinstance(e, Add)):
            sums += 1
            zeros += _zero_by_clearing(
                _terms(mul(mul(a, den), pow_int(den, -1)), neg(a)))
    assert zeros == sums >= 70


def test_seeded_sums_with_denominators_obey_the_certificate():
    # the transcendental sums of the property suites, with symbolic powers
    # whose exponents hold a constant: (a*b)/b - a clears to zero and is
    # never certified, and a alone is certified often
    rng = seeded(89)
    atoms = [x, u1]
    certified = zeros = 0
    for _ in range(30):
        a = random_sum_with_denominators(rng, atoms, [p, rat(1, 2)])
        b = random_sum_with_denominators(rng, atoms, [p, add(p, rat(1, 2))])
        zeros += _zero_by_clearing(
            _terms(mul(mul(a, b), pow_int(b, -1)), neg(a)))
        assert not _zero_by_clearing(_terms(a))
        certified += expr._certified_nonzero(_terms(a))
    assert zeros == 30 and certified >= 15


def test_the_zero_sums_of_the_nine_jobs_are_declined(monkeypatch, capsys):
    # the reference path: with the certificate always declining, every sum
    # with a denominator is cleared, and the nine documents are unchanged;
    # every sum that clearing finds zero is one the certificate declines
    cleared = []
    real_clear = expr._cleared_is_zero

    def recording(monos):
        zero = real_clear(monos)
        cleared.append((monos, zero))
        return zero

    monkeypatch.setattr(expr, "_cleared_is_zero", recording)
    monkeypatch.setattr(expr, "_certified_nonzero", lambda monos: False)
    expr.clear_caches()
    for command in COMMANDS:
        for system in SYSTEMS:
            assert main([command, system]) == 0
            out = GENERATED_AT.sub("", capsys.readouterr().out)
            assert out == reference_document(command, system)
    monkeypatch.undo()
    expr.clear_caches()
    zero = [monos for monos, z in cleared if z]
    assert len(zero) == 3 and len(cleared) > 50
    assert not any(expr._certified_nonzero(monos) for monos in zero)


def _task(rng):
    """A kernel-identities-style task: distributivity, the product rule of
    the total derivative and a substitution round trip over sums with
    denominators, exps, logs and symbolic powers; every result it
    computes."""
    atoms = [x, t, u1]
    a = random_sum_with_denominators(rng, atoms, [p])
    b = random_transcendental_expression(rng, atoms, [p], depth=2)
    c = add(random_expression(rng, atoms, depth=2),
            pow_int(add(u1, rat(rng.randint(1, 3))), -1))
    lhs = mul(a, add(b, c))
    rhs = add(mul(a, b), mul(a, c))
    dab = total_derivative(mul(a, b), x)
    rule = sub(dab, add(mul(total_derivative(a, x), b),
                        mul(a, total_derivative(b, x))))
    fwd = substitute(a, {u1: add(mul(rat(2), u1), rat(1))})
    back = substitute(fwd, {u1: mul(rat(1, 2), sub(u1, rat(1)))})
    out = [a, b, c, lhs, rhs, dab, rule, fwd, back,
           sub(lhs, rhs), sub(back, a), add(rule, u2)]
    return [e.key for e in out] + [is_zero(e) for e in out[-3:]]


def test_tasks_are_unchanged_without_the_certificate(monkeypatch):
    expr.clear_caches()
    with_certificate = [_task(seeded(1000 + i)) for i in range(40)]
    monkeypatch.setattr(expr, "_certified_nonzero", lambda monos: False)
    expr.clear_caches()
    without = [_task(seeded(1000 + i)) for i in range(40)]
    expr.clear_caches()
    assert with_certificate == without
    # the identities hold and the control does not
    assert all(r[-3:] == [True, True, False] for r in with_certificate)


def test_a_denominator_that_maps_to_zero_is_declined():
    # a coefficient 1/P has no image mod P; clearing still decides the sum
    monos = _terms(mul(rat(1, CERTIFICATE_PRIME), x),
                   pow_int(add(u1, rat(1)), -1))
    assert not expr._certified_nonzero(monos)
    assert expr._image(monos, {}, expr._residues()) is None
    assert not expr._cleared_is_zero(monos)
    assert not is_zero(add(mul(rat(1, CERTIFICATE_PRIME), x),
                           pow_int(add(u1, rat(1)), -1)))


def test_a_kernel_under_a_negative_exponent_that_maps_to_zero_is_declined(
        monkeypatch):
    # with every residue 0, x^-1 has no image, also inside the sum kernel
    # (u1 + x^-1)^-1; u1 alone maps to 0 and certifies nothing
    nested = pow_int(add(u1, pow_int(x, -1)), -1)
    sums = (add(pow_int(x, -1), u1), add(nested, u2))
    assert all(expr._certified_nonzero(monomials(s)) for s in sums)
    monkeypatch.setattr(expr, "_residues", lambda: itertools.repeat(0))
    for s in sums:
        assert expr._image(monomials(s), {}, expr._residues()) is None
        assert not expr._certified_nonzero(monomials(s))
    assert not expr._certified_nonzero(_terms(u1, u2))
    # the sum is still decided, by clearing
    assert not is_zero(add(nested, u2))


def test_residues_are_fixed_and_nonzero():
    first = list(itertools.islice(expr._residues(), 64))
    assert first == list(itertools.islice(expr._residues(), 64))
    assert all(0 < r < CERTIFICATE_PRIME for r in first)
    assert len(set(first)) == 64
