"""Expression kernel: canonicalization, substitution, zero-testing."""

import contextvars
import types
from fractions import Fraction
from math import comb

import pytest

from helpers import (COMMANDS, GENERATED_AT, SYSTEMS, burgers_workspace,
                     probe_sides_agree, random_expression, random_jets,
                     random_sum_with_denominators, reference_document, seeded,
                     to_sympy)
from pdelin import expr
from pdelin.cli import main
from pdelin.errors import ExprError
from pdelin.expr import (Add, Fun, Jet, Mul, Rat, Sym, add,
                         canonicalize, clear_denominators, div, equal, exp_,
                         is_zero, linear_form, log_, monomials, mul,
                         multi_binom, multi_diff, multi_indices, multi_lower,
                         multi_unit, neg,
                         normalize_equation, pow_int, rat, set_max_terms,
                         solve_linear, sub, substitute, sym_pow,
                         total_derivative, walk)
from pdelin.grammar import parse, to_text
from pdelin.probe import probe_is_zero
from pdelin.workspace import Workspace

ws = burgers_workspace()
x, t = ws.independents
u1, u2 = ws.lookup("u1"), ws.lookup("u2")


def test_parse_examples_trivial():
    e = parse("u2_x - 2*u1", ws)
    assert e == add(Jet("u2", (("x", 1),)), mul(rat(-2), u1))
    e2 = parse("exp(-u2/4)", ws)
    assert e2 == exp_(mul(rat(-1, 4), u2))


def test_cancellation_and_kernel_merges():
    assert is_zero(add(x, u1, neg(u1), neg(x)))
    a, b = mul(rat(2), x), mul(rat(3), t)
    assert mul(exp_(a), exp_(b)) == exp_(add(a, b))
    assert exp_(rat(0)) == rat(1)
    assert log_(exp_(a)) == a
    assert exp_(log_(u1)) == u1


def test_canonicalize_probe_oracle():
    # (1/2)*U1*exp(-U2/4)*2 == U1*exp(-U2/4): both sides evaluated
    # independently at 20 random rational points
    raw_l = mul(rat(1, 2), u1, exp_(mul(rat(-1, 4), u2)), rat(2))
    raw_r = parse("u1*exp(-u2/4)", ws)
    assert raw_l == raw_r
    assert probe_sides_agree(raw_l, raw_r, npoints=20, seed=11)


def test_substitute_trivial_and_derived():
    ux = Jet("u1", (("x", 1),))
    assert substitute(add(ux, u1), {ux: rat(0)}) == u1
    # Burgers expression vanishes under the leading-derivative rule
    g = parse("u1_xx - u1*u1_x - u1_t", ws)
    assert is_zero(substitute(g, {Jet("u1", (("x", 2),)):
                                  parse("u1*u1_x + u1_t", ws)}))
    # exp(-U2/4) under U2 -> 4 log W  becomes 1/W   (probe-checked)
    wws = burgers_workspace()
    w = wws.declare_dependent("w")
    got = substitute(parse("exp(-u2/4)", ws), {u2: mul(rat(4), log_(w))})
    assert got == pow_int(w, -1)
    rng = seeded(3)
    for _ in range(20):
        asg = {w: abs(rng_val(rng)) + 1}
        assert probe_is_zero(sub(got, pow_int(w, -1)), asg)


def rng_val(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def test_substitute_rejects_non_atom_patterns():
    with pytest.raises(ExprError):
        substitute(u1, {mul(u1, u2): rat(1)})


def test_division_by_zero():
    with pytest.raises(ExprError):
        div(rat(1), rat(0))
    with pytest.raises(ExprError):
        pow_int(sub(u1, u1), -1)


def test_rational_zero_detection_with_denominators():
    e = sub(div(rat(1), add(rat(1), x)), div(add(rat(1), x), pow_int(add(rat(1), x), 2)))
    assert is_zero(e)
    e2 = sub(div(u1, u2), mul(u1, pow_int(u2, -1)))
    assert is_zero(e2)


def test_symbolic_power_arithmetic():
    ws2 = burgers_workspace()
    p = ws2.declare_parameter("p")
    ux = Jet("u1", (("x", 1),))
    a = sym_pow(ux, p)
    assert mul(a, sym_pow(ux, neg(p))) == rat(1)
    assert sym_pow(ux, add(p, rat(-2))) == mul(a, pow_int(ux, -2))
    assert pow_int(a, 2) == sym_pow(ux, mul(rat(2), p))
    assert sym_pow(ux, rat(3)) == pow_int(ux, 3)


def test_idempotence_random():
    rng = seeded(7)
    atoms = [x, t, u1, u2] + random_jets(ws)
    for _ in range(1000):
        e = random_expression(rng, atoms, depth=rng.randint(1, 6))
        c = canonicalize(e)
        assert canonicalize(c) == c


def test_probe_soundness_on_equal_pairs():
    # pairs equal by construction: (a+b)^2 against its expansion, with both
    # sides evaluated independently at a random point
    rng = seeded(19)
    atoms = [x, t, u1, u2]
    for k in range(200):
        a = random_expression(rng, atoms, depth=3)
        b = random_expression(rng, atoms, depth=3)
        lhs = mul(add(a, b), add(a, b))
        rhs = add(mul(a, a), mul(rat(2), a, b), mul(b, b))
        assert equal(lhs, rhs)
        assert probe_sides_agree(lhs, rhs, npoints=1, seed=1000 + k)


def test_deterministic_term_order():
    e1 = parse("u1_xx - u1*u1_x - u1_t", ws)
    e2 = parse("- u1_t - u1*u1_x + u1_xx", ws)
    assert e1 == e2 and e1.key == e2.key


def test_fun_kernel_basics():
    f = parse("f(x - u2, t)", ws)
    assert isinstance(f, Fun) and f.dmidx == (0, 0)
    fd = parse("f_{1,1}(x, t)", ws)
    assert fd.dmidx == (2, 0)


def test_solve_linear():
    # x*u1 + exp(t) == x*(u1 - (-exp(t)/x))
    e = add(mul(x, u1), exp_(t))
    c, val = solve_linear(e, u1)
    assert c == x
    assert equal(val, neg(div(exp_(t), x)))
    assert is_zero(sub(e, mul(c, sub(u1, val))))
    # the kernel is absent: zero coefficient
    assert solve_linear(e, u2) is None
    # the kernel occurs nonlinearly
    assert solve_linear(add(mul(u1, u1), x), u1) is None


def test_linear_form_coefficients_and_rest():
    f, g = Fun("f", (x, t)), Fun("g", (x, t), (1, 0))
    e = parse("x*f(x,t) - exp(t)*g_{1}(x,t) + u1^2 + 3", ws)
    coefficients, rest = linear_form(e, [f, g])
    assert coefficients == [x, neg(exp_(t))]
    assert equal(rest, parse("u1^2 + 3", ws))
    assert linear_form(e, []) == ([], e)


def test_linear_form_rejects_a_product_of_kernels():
    f = Fun("f", (x, t))
    e = parse("f(x,t)*g(x,t) + f(x,t)", ws)
    assert linear_form(e, [f, Fun("g", (x, t))]) is None
    # f squared, f inside exp, a denominator sum or another function's
    # argument, and f times an unlisted function kernel
    for text in ("f(x,t)^2 + x", "exp(f(x,t)) + x*f(x,t)",
                 "f(x,t) + 1/(f(x,t) + x)", "g(f(x,t), t) + f(x,t)",
                 "f(x,t)*h(x,t) + f(x,t)"):
        assert linear_form(parse(text, ws), [f]) is None, text
    # an unlisted function kernel nested in other nodes is rest
    e = parse("x*exp(h(x,t)) + t/(h(x,t) + x)", ws)
    assert linear_form(e, [f]) == ([rat(0)], e)


def test_linear_form_rebuilds_random_combinations():
    rng = seeded(12)
    kernels = [Fun("f", (x, t)), Fun("f", (x, t), (0, 1)),
               Fun("g", (x, t), (2, 0))]
    for _ in range(30):
        coeffs = [random_expression(rng, [x, t, u1, u2], depth=3)
                  for _ in kernels]
        rest = random_expression(rng, [x, t, u1, u2], depth=3)
        e = add(rest, *map(mul, coeffs, kernels))
        got, got_rest = linear_form(e, kernels)
        assert all(equal(a, b) for a, b in zip(got, coeffs))
        assert equal(e, add(got_rest, *map(mul, got, kernels)))


def test_clear_denominators_reports_its_pass_cap(monkeypatch):
    e = div(rat(1), add(x, rat(1)))
    assert is_zero(sub(clear_denominators([e])[0], rat(1)))
    monkeypatch.setattr(expr, "MAX_CLEARING_PASSES", 0)
    assert clear_denominators([x]) == [x]
    with pytest.raises(ExprError, match="MAX_CLEARING_PASSES = 0"):
        clear_denominators([e])


def test_clear_denominators_cancels_a_squared_sum():
    # k^-2 meets k^2 monomial by monomial; expanding (x + 1)^2 first would
    # leave a new sum that never cancels k
    assert clear_denominators([pow_int(add(x, rat(1)), -2)]) == [rat(1)]
    wsu = Workspace("xt", ["u"])
    got = clear_denominators([parse("1/(x+1) * 1/(x+1)", wsu),
                              parse("u/(x+1) + 1/u", wsu)])
    assert [to_text(e) for e in got] == ["u", "x*u^2 + x^2 + u^2 + 2*x + 1"]


def test_clear_denominators_shares_one_multiplier():
    # products of sums with denominators hold squared sum denominators; the
    # cleared pair keeps no negative exponent, and c1*e2 - c2*e1 vanishes
    # because both were multiplied by the same denominator
    p = Sym("p", "parameter")
    rng = seeded(44)
    atoms = [x, u1]
    squared = 0
    for _ in range(12):
        a, b = (random_sum_with_denominators(rng, atoms, [p, rat(1, 2)])
                for _ in range(2))
        e1, e2 = mul(a, b), a
        squared += any(isinstance(k, Add) and n < -1
                       for _, f in monomials(e1) for k, n in f.items())
        c1, c2 = clear_denominators([e1, e2])
        assert all(n > 0 for c in (c1, c2)
                   for _, f in monomials(c) for n in f.values())
        assert is_zero(sub(mul(c1, e2), mul(c2, e1)))
    assert squared


def test_product_keys_keep_their_format():
    # kernel order, term order and so every printed document compare these
    # keys: a lone power is (7, n, k), a product (8, factors), led by its
    # coefficient when that is not 1
    d = add(x, rat(1))
    assert pow_int(x, 2).key == (7, 2, x.key)
    assert pow_int(d, -2).key == (7, -2, d.key)
    assert mul(rat(3), x).key == (8, ((0, 3, 1), x.key))
    assert mul(x, pow_int(u1, -3)).key == (8, (x.key, (7, -3, u1.key)))
    assert mul(rat(-1, 2), pow_int(x, 2), t).key == \
        (8, ((0, -1, 2), t.key, (7, 2, x.key)))


def test_integral_coefficients_are_ints():
    # a coefficient is an int when integral and a Fraction otherwise,
    # whatever arithmetic made it; keys, hashes and text do not tell them
    # apart, and any other type is refused rather than printed
    half = rat(1, 2)
    assert rat(4, 2).value == 2 and type(rat(4, 2).value) is int
    assert type(Rat(Fraction(6, 3)).value) is int
    assert rat(4, 2) == Rat(Fraction(2)) and hash(rat(4, 2)) == hash(rat(2))
    cases = [mul(half, rat(2), x), add(mul(half, x), mul(half, x)),
             pow_int(mul(half, x), -1), normalize_equation(mul(half, x)),
             div(mul(rat(3), x), rat(3)), neg(pow_int(add(mul(half, x), half),
                                                     -1))]
    for e in cases:
        for c, _ in monomials(e):
            assert type(c) is (Fraction if c.denominator > 1 else int), \
                to_text(e)
    assert {type(c) for c, _ in monomials(add(mul(half, x), t))} == \
        {Fraction, int}
    assert to_text(div(x, rat(2))) == "1/2*x"
    for bad in (0.5, 2.0, True, "1"):
        with pytest.raises(ExprError, match="int or a Fraction"):
            Rat(bad)
        with pytest.raises(ExprError, match="int or a Fraction"):
            Mul(bad, {x: 2})
    assert expr.quotient(6, 3) == 2 and type(expr.quotient(6, 3)) is int
    assert expr.quotient(Fraction(3, 2), Fraction(3, 4)) == 2
    assert expr.quotient(1, 3) == Fraction(1, 3)


def test_product_whose_exp_merges_into_a_sum_is_expanded():
    # squaring exp(y + 1/2*log(t + 1)) merges to (t + 1)*exp(2*y), a sum
    # that the product must distribute like any other
    wsy = Workspace("xyt", ["u"])
    s = parse("x + exp(y + 1/2*log(1+t))", wsy)
    want = "t*exp(2*y) + 2*x*exp(y + 1/2*log(t + 1)) + x^2 + exp(2*y)"
    for square in (pow_int(s, 2), mul(s, s)):
        assert to_text(square) == want
        assert not [n for n in walk(square) if isinstance(n, Mul)
                    and any(isinstance(k, Add) and m > 0
                            for k, m in monomials(n)[0][1].items())]


def test_sum_times_its_inverse_cancels_before_expanding():
    a = add(mul(rat(2), x), mul(rat(4), t))
    assert mul(a, pow_int(a, -1)) == rat(1)


def test_scaling_moves_only_coefficients():
    # negation and rational scaling against the collect/sort/zero-test route
    # over the same monomials
    p = Sym("p", "parameter")
    rng = seeded(43)
    atoms = [x, t, u1, u2]
    for _ in range(150):
        e = random_sum_with_denominators(rng, atoms, [p, rat(1, 2)])
        if isinstance(e, Add) and rng.random() < 0.3:
            e = e.terms[rng.randrange(len(e.terms))]
        for q in (Fraction(-1), Fraction(3, 2), Fraction(-2, 7)):
            want = expr._sum([(q * c, f) for c, f in monomials(e)])
            assert expr._scaled(e, q) == want
        assert neg(e) == expr._sum([(-c, f) for c, f in monomials(e)])
        assert is_zero(add(e, neg(e)))


def test_a_sum_keeps_its_content_and_primitive_part():
    p = Sym("p", "parameter")
    rng = seeded(44)
    atoms = [x, t, u1, u2]
    for _ in range(50):
        e = random_sum_with_denominators(rng, atoms, [p, rat(-2, 3)])
        if not isinstance(e, Add):
            continue
        pair = expr._extract_content(e)
        assert expr._extract_content(e) is pair
        content, prim = pair
        assert mul(Rat(content), prim) == e
    # the content takes the sign of the leading term, here -6/5*t
    s = add(mul(rat(4), x), mul(rat(-6, 5), t))
    assert expr._extract_content(s) == (Fraction(-2, 5),
                                        add(mul(rat(3), t), mul(rat(-10), x)))


def test_power_of_a_sum_respects_the_term_limit():
    def cube():
        set_max_terms(10)
        return pow_int(add(x, u1, t, rat(1)), 3)

    with pytest.raises(ExprError, match="term limit"):
        contextvars.copy_context().run(cube)


def test_power_from_merged_exp_merges_with_a_power_of_its_base():
    # exp(1/2*L)*exp(3/2*L) with L = log(x^a) merges to x^(2*a); that must
    # merge again with x^b rather than stand beside it
    a, b = Sym("a", "parameter"), Sym("b", "parameter")
    L = log_(sym_pow(x, a))
    lhs = mul(exp_(mul(rat(1, 2), L)), exp_(mul(rat(3, 2), L)), sym_pow(x, b))
    assert lhs == sym_pow(x, add(mul(rat(2), a), b))


def test_monomial_views_are_never_mutated(monkeypatch, capsys):
    # each node's monomial view is computed once and shared with every
    # caller; handed out read-only, an edit in place raises TypeError
    real = expr._mono_of

    def read_only(e):
        c, f = real(e)
        return c, types.MappingProxyType(f)

    monkeypatch.setattr(expr, "_mono_of", read_only)
    expr.clear_caches()
    for command in COMMANDS:
        for system in SYSTEMS:
            assert main([command, system]) == 0
            out = GENERATED_AT.sub("", capsys.readouterr().out)
            assert out == reference_document(command, system)
    rng = seeded(41)
    atoms = [x, t, u1, u2] + random_jets(ws)
    w = Sym("w", "parameter")     # absent from the atoms: b + w is nonzero
    for _ in range(150):
        a = random_expression(rng, atoms, depth=rng.randint(1, 4))
        b = random_expression(rng, atoms, depth=rng.randint(1, 4))
        for e in (mul(a, b), add(a, b), sub(a, b), div(a, add(b, w)),
                  total_derivative(a, x), total_derivative(b, t)):
            normalize_equation(e)


def test_product_keeps_kernels_with_nothing_to_merge(monkeypatch):
    # a lone exp factor and a lone symbolic power of each base enter a
    # product as they are, without being rebuilt
    p = Sym("p", "parameter")
    e, s = exp_(mul(rat(2), x)), sym_pow(u1, p)
    calls = []
    for name in ("exp_", "sym_pow"):
        real = getattr(expr, name)
        monkeypatch.setattr(expr, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    prod = mul(e, x, s, sym_pow(u2, p))
    (_, fmap), = monomials(prod)
    assert any(k is e for k in fmap)
    assert any(k is s for k in fmap)
    assert calls == []


def test_kernels_of_one_group_still_merge():
    p, q = Sym("p", "parameter"), Sym("q", "parameter")
    a, b = mul(rat(2), x), mul(rat(3), t)
    assert mul(exp_(a), exp_(a)) == pow_int(exp_(a), 2) == exp_(mul(rat(2), a))
    assert mul(exp_(a), exp_(b), u1) == mul(exp_(add(a, b)), u1)
    assert mul(sym_pow(x, p), sym_pow(x, q)) == sym_pow(x, add(p, q))
    assert mul(sym_pow(x, p), u1, sym_pow(x, neg(p))) == u1


def test_zero_decisions_agree_with_sympy():
    # an independent oracle for is_zero: SymPy brings the difference over
    # one denominator and expands the numerator, which is a normal form for
    # polynomials in the atoms and in exps of multiples of one atom each
    sp = pytest.importorskip("sympy")
    rng = seeded(31)
    atoms = [x, t, u1]
    for _ in range(30):
        a = random_expression(rng, atoms, depth=3)
        b = random_expression(rng, atoms, depth=3)
        s = add(b, u2)      # u2 is not among the atoms: s is nonzero
        m = mul(rat(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3)),
                pow_int(atoms[rng.randrange(len(atoms))], rng.randint(1, 2)))
        pairs = ((mul(add(a, b), sub(a, b)), sub(mul(a, a), mul(b, b)), True),
                 (div(mul(a, s), s), a, True),
                 (add(a, m), a, False),
                 (add(mul(a, b), m), mul(b, a), False),
                 (div(add(a, m), s), div(a, s), False))
        for lhs, rhs, equal_by_construction in pairs:
            d = to_sympy(sp, lhs) - to_sympy(sp, rhs)
            oracle = sp.expand(sp.numer(sp.together(d))) == 0
            assert oracle == equal_by_construction
            assert is_zero(sub(lhs, rhs)) == oracle


# -- multi-index vocabulary --------------------------------------------------


def test_multi_diff_is_none_unless_greater_or_equal():
    assert multi_diff((2, 1, 0), (1, 1, 0)) == (1, 0, 0)
    assert multi_diff((2, 1), (2, 1)) == (0, 0)
    assert multi_diff((2, 0), (1, 1)) is None
    assert multi_diff((0, 2), (1, 1)) is None


def test_multi_binomials_sum_to_powers_of_two():
    for K in [(0,), (3,), (2, 1), (1, 2, 3), (0, 4, 0)]:
        assert sum(multi_binom(K, J) for J in multi_indices(K)) == 2 ** sum(K)


def test_multi_indices_of_bounded_total():
    for n in range(1, 4):
        for k in range(4):
            got = list(multi_indices((k,) * n, k))
            assert len(got) == comb(n + k, k)
            assert len(set(got)) == len(got)
            assert all(sum(J) <= k for J in got)


def test_multi_unit_and_lower():
    assert multi_unit(1, 3) == (0, 1, 0)
    assert multi_lower((0, 2, 1)) == (1, (0, 1, 1))
    for i in range(3):
        assert multi_lower(multi_unit(i, 3)) == (i, (0, 0, 0))


@pytest.mark.parametrize("text, canonical", [
    ("pow(1, a)", "1"),
    ("pow(exp(x), a)", "exp(a*x)"),
    ("pow(pow(x, a), u)", "pow(x, a*u)"),
    ("pow(x^2, a)", "pow(x, 2*a)"),
    ("log(1)", "0"),
    # the symbolic powers merge to x, which cancels the plain x^(-1)
    ("pow(x, 1/2 + a)*pow(x, 1/2 - a)/x", "1"),
    ("u^-2", "u^(-2)")])
def test_constructor_rules(text, canonical):
    pws = Workspace("xt", ["u"], ["a"])
    assert to_text(parse(text, pws)) == canonical


def test_derivative_of_a_variable_exponent():
    pws = Workspace("xt", ["u"])
    px = pws.independents[0]
    assert to_text(total_derivative(parse("pow(u, x)", pws), px)) == (
        "x*u^(-1)*u_x*pow(u, x) + log(u)*pow(u, x)")
    with pytest.raises(ExprError, match="direction must be a symbol"):
        total_derivative(px, pws.lookup("u"))
    with pytest.raises(ExprError, match="bad derivative multi-index"):
        Fun("f", (px,), (1, 0))
