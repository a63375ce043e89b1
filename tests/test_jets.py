"""Total derivatives, Euler operators, prolongation, symmetry checks."""

import pytest

from helpers import (burgers_workspace, pipeline_workspace, random_expression,
                     random_jets, seeded, telegraph_workspace)
from pdelin.constraints import LinearConstraints
from pdelin.errors import CyclicRuleError, ExprError
from pdelin.expr import (Jet, add, equal, exp_, is_zero, mul, multi_indices,
                         neg, pow_int, rat, sub, substitute, sym_pow,
                         total_derivative)
from pdelin.grammar import parse
from pdelin.jets import (PdeSystem, SymmetryGenerator, euler_operator,
                         prolong_rules, verify_point_symmetry)
from pdelin.probe import probe_is_zero, random_assignment

ws = burgers_workspace()
x, t = ws.independents
u1, u2 = ws.lookup("u1"), ws.lookup("u2")


def burgers_system():
    return PdeSystem(ws, [parse("u2_x - 2*u1", ws),
                          parse("u2_t - 2*u1_x + u1^2", ws)])


def telegraph_system():
    tws = telegraph_workspace()
    return PdeSystem(tws, [parse("u2_t - u1_x", tws),
                           parse("u1_t + u1*(u1 - 1) - u1^2*u2_x", tws)])


def pipeline_system():
    pws = pipeline_workspace()
    return PdeSystem(pws, [parse("u_t*u_xx + pow(u_x, p)", pws)])


def test_total_derivative_examples():
    assert total_derivative(mul(x, u1), x) == parse("u1 + x*u1_x", ws)
    got = total_derivative(parse("exp(-u2/4)", ws), t)
    assert got == parse("-1/4*u2_t*exp(-u2/4)", ws)
    f = parse("f(x - u2, t - log(u1))", ws)
    want = parse("f_{1}(x - u2, t - log(u1))*(1 - u2_x)"
                 " - f_{2}(x - u2, t - log(u1))*u1_x/u1", ws)
    got = total_derivative(f, x)
    assert equal(got, want)
    rng = seeded(5)
    d = sub(got, want)
    for _ in range(10):
        assert probe_is_zero(d, random_assignment(d, rng))


def test_euler_standard_examples():
    e = mul(rat(1, 2), pow_int(Jet("u1", (("x", 1),)), 2))
    assert euler_operator(e, "u1", ws) == neg(Jet("u1", (("x", 2),)))
    # Euler annihilates total derivatives
    e2 = parse("x*u1*u2_x + exp(-u2/4)", ws)
    assert is_zero(euler_operator(total_derivative(e2, x), "u1", ws))
    assert is_zero(euler_operator(total_derivative(e2, x), "u2", ws))


def test_euler_of_multiplier_combination_burgers():
    # E_{U1}(L1 G1 + L2 G2) with the arbitrary-function family vanishes
    # identically; E_{U2} collapses to a multiple of the f-constraint kernels.
    sys = burgers_system()
    lam1 = parse("1/2*u1*exp(-u2/4)*f(x,t) + exp(-u2/4)*f_{1}(x,t)", ws)
    lam2 = parse("exp(-u2/4)*f(x,t)", ws)
    s = add(mul(lam1, sys.equations[0]), mul(lam2, sys.equations[1]))
    assert is_zero(euler_operator(s, "u1", ws))
    e2 = euler_operator(s, "u2", ws)
    assert not is_zero(e2)
    want = mul(neg(exp_(mul(rat(-1, 4), u2))),
               add(parse("f_{1,1}(x,t)", ws), parse("f_{2}(x,t)", ws)))
    assert equal(e2, want)


def test_prolong_simple():
    uws = burgers_workspace()
    rules = {Jet("u1", (("t", 1),)): Jet("u1", (("x", 2),))}
    out = prolong_rules(rules, 3, uws)
    assert out[Jet("u1", (("t", 1), ("x", 1)))] == Jet("u1", (("x", 3),))
    assert Jet("u1", (("t", 2),)) in out


def test_prolong_burgers_compatibility():
    sys = burgers_system()
    rules = prolong_rules(sys.rules, 2, ws)
    e = sub(total_derivative(sys.equations[0], t),
            total_derivative(sys.equations[1], x))
    got = substitute(e, rules)
    burgers_scalar = parse("u1_xx - u1*u1_x - u1_t", ws)
    assert equal(got, mul(rat(2), burgers_scalar))
    # with completion, the scalar consequence joins the solution manifold
    assert is_zero(substitute(e, sys.prolonged_rules(2)))


def test_prolong_random_closure_probe():
    rng = seeded(41)
    for _ in range(10):
        rhs = random_expression(rng, [u1, Jet("u1", (("x", 1),)), x, t],
                                depth=2, allow_exp=False)
        rules = {Jet("u2", (("x", 1),)): rhs}
        out = prolong_rules(rules, 2, ws)
        d = sub(out[Jet("u2", (("x", 1), ("t", 1)))],
                substitute(total_derivative(rhs, t), out))
        assert is_zero(d) or probe_is_zero(d, random_assignment(d, rng))


def test_prolong_cyclic_rejected():
    with pytest.raises(CyclicRuleError):
        prolong_rules({Jet("u1", (("x", 1),)): Jet("u2", (("t", 1),)),
                       Jet("u2", (("t", 1),)): u1}, 2, ws)


def test_leading_rules_are_reduced_against_each_other():
    # u1 = 0 rules out u1_x, so G2 rules u2_t = 0; a second lead u2_t makes
    # its equation rule u1_x instead
    def rules(g1, g2="u2_t - 2*u1_x + u1^2"):
        return PdeSystem(ws, [parse(g1, ws), parse(g2, ws)]).rules

    assert rules("-2*u1") == {u1: rat(0), parse("u2_t", ws): rat(0)}
    assert rules("u2_t - u1_x") == {parse("u2_t", ws): parse("u1^2", ws),
                                    parse("u1_x", ws): parse("u1^2", ws)}
    with pytest.raises(ExprError, match="G2 determines no new jet"):
        rules("u2_t - 2*u1_x + u1^2")
    with pytest.raises(ExprError, match="holds its own derivative <u1_x>"):
        rules("u1 - u1_x^2")


def test_reduced_rows_are_reduced_on_every_other_equation():
    # G1 is solved for u1 (u2_x occurs squared), below the lead u2_x of G2,
    # and its row still takes G2's rule; the rows keep the input order
    def reduced(g1, g2):
        return PdeSystem(ws, [parse(g1, ws), parse(g2, ws)]).reduced

    assert reduced("u1 - u2_x^2", "u2_x - x") == [parse("x^2 - u1", ws),
                                                   parse("x - u2_x", ws)]
    # G2 holds G1's lead u2_x, and its row does not
    assert reduced("u2_x - 2*u1", "u2_x + u2_t - 2*u1_x + u1^2") == [
        parse("2*u1 - u2_x", ws), parse("u1^2 + 2*u1 - 2*u1_x + u2_t", ws)]


def test_commutativity_and_leibniz():
    rng = seeded(43)
    atoms = [x, t, u1, u2] + random_jets(ws)
    for _ in range(500):
        e = random_expression(rng, atoms, depth=3)
        assert total_derivative(total_derivative(e, x), t) == \
            total_derivative(total_derivative(e, t), x)
    for _ in range(200):
        a = random_expression(rng, atoms, depth=2)
        b = random_expression(rng, atoms, depth=2)
        lhs = total_derivative(mul(a, b), x)
        rhs = add(mul(a, total_derivative(b, x)), mul(b, total_derivative(a, x)))
        assert equal(lhs, rhs)


def test_euler_annihilation_random():
    rng = seeded(47)
    atoms = [x, t, u1, u2] + random_jets(ws)
    for _ in range(500):
        e = random_expression(rng, atoms, depth=3)
        for s in (x, t):
            de = total_derivative(e, s)
            for dep in ("u1", "u2"):
                assert is_zero(euler_operator(de, dep, ws))


def test_translation_symmetry_burgers():
    sys = burgers_system()
    gen = SymmetryGenerator(xi=(rat(1), rat(0)), eta=(rat(0), rat(0)))
    assert verify_point_symmetry(sys, gen).ok


def test_infinite_symmetry_burgers():
    sys = burgers_system()
    heat = LinearConstraints({"g": (x, t)},
                             [parse("g_{1,1}(x,t) - g_{2}(x,t)", ws)])
    eta1 = parse("exp(u2/4)*(2*g_{1}(x,t) + g(x,t)*u1)", ws)
    eta2 = parse("4*exp(u2/4)*g(x,t)", ws)
    gen = SymmetryGenerator(xi=(rat(0), rat(0)), eta=(eta1, eta2), constraints=heat)
    rep = verify_point_symmetry(sys, gen)
    assert rep.ok, rep.messages


def test_infinite_symmetry_telegraph():
    sys = telegraph_system()
    tws = sys.workspace
    X = "x - u2"
    T = "t - log(u1)"
    XS, TS = tws.declare_coordinate("X"), tws.declare_coordinate("T")
    cons = LinearConstraints(
        {"F1": (XS, TS), "F2": (XS, TS)},
        [parse("F2_{2}(X,T) - exp(T)*F1_{1}(X,T)", tws),
         parse("F2_{1}(X,T) - exp(T)*F1_{2}(X,T)", tws)])
    f1 = parse(f"F1({X}, {T})", tws)
    f2 = parse(f"F2({X}, {T})", tws)
    xi = (f1, mul(parse("exp(-t)", tws), f2))
    eta = (mul(parse("exp(-t)*u1", tws), f2), f1)
    rep = verify_point_symmetry(sys, SymmetryGenerator(xi=xi, eta=eta, constraints=cons))
    assert rep.ok, rep.messages


def test_contact_symmetry_pipeline():
    sys = pipeline_system()
    pws = sys.workspace
    ux = Jet("u", (("x", 1),))
    tt = pws.independent("t")
    cons = LinearConstraints(
        {"F": (tt, ux)},
        [sub(mul(sym_pow(ux, pws.lookup("p")), parse("F_{2,2}(t, u_x)", pws)),
             parse("F_{1}(t, u_x)", pws))])
    xi = (neg(parse("F_{2}(t, u_x)", pws)), rat(0))
    eta = (sub(parse("F(t, u_x)", pws), mul(ux, parse("F_{2}(t, u_x)", pws))),)
    rep = verify_point_symmetry(sys, SymmetryGenerator(xi=xi, eta=eta, constraints=cons))
    assert rep.ok, rep.messages


def test_corrupted_generator_rejected():
    sys = burgers_system()
    heat = LinearConstraints({"g": (x, t)},
                             [parse("g_{1,1}(x,t) - g_{2}(x,t)", ws)])
    eta1 = parse("exp(u2/4)*(2*g_{1}(x,t) - g(x,t)*u1)", ws)  # sign corrupted
    eta2 = parse("4*exp(u2/4)*g(x,t)", ws)
    gen = SymmetryGenerator(xi=(rat(0), rat(0)), eta=(eta1, eta2), constraints=heat)
    rep = verify_point_symmetry(sys, gen)
    assert not rep.ok and rep.messages


def test_jet_vector_round_trip():
    # Burgers declares x before t, the reverse of the name order a jet's
    # own (name, order) pairs are sorted in
    assert [s.name for s in ws.independents] == ["x", "t"]
    jets = [ws.jet(dep, K) for dep in ws.dependents
            for K in multi_indices((3, 3), 3)]
    assert len(jets) == 2 * 10
    for j in jets:
        assert ws.jet(j.dep, ws.jet_vector(j)) == j
    assert ws.jet_vector(parse("u1_xtt", ws)) == (1, 2)
    assert ws.jet("u1", (1, 2)) == parse("u1_ttx", ws)
