"""Determining systems, the heuristic reducer, multiplier verification,
divergence testing and flux reconstruction."""

import pytest

import corpus
from helpers import check_reducer_steps, random_expression, seeded
from pdelin import conslaw
from pdelin.conslaw import (DeterminingSystem, MultiplierFamily,
                            determining_system, reconstruct_fluxes,
                            reduce_determining_system,
                            reduce_family_constraints, verify_multipliers)
from pdelin.errors import NotADivergenceError
from pdelin.expr import (Fun, Jet, Sym, add, equal, exp_, fun_kernels_of,
                         is_zero, mul, neg, rat, sub, total_derivative)
from pdelin.grammar import parse, to_text
from pdelin.jets import PdeSystem, euler_operator
from pdelin.linearize import family_fluxes
from pdelin.workspace import Workspace


def div_of(fluxes, ws):
    return add(*[total_derivative(f, s) for f, s in zip(fluxes, ws.independents)])


# -- determining systems -----------------------------------------------------


def test_single_equation_transport():
    # G = u_x with Lambda(x, t, u): on u_x = 0 the split system is
    # dLambda/dx = 0
    ws = Workspace("xt", ["u"])
    sys = PdeSystem(ws, [parse("u_x", ws)])
    det = determining_system(sys, 0)
    assert len(det.equations) == 1
    assert to_text(det.equations[0][2]) == "L1_{1}(x, t, u)"


def test_multiplier_arguments_drop_ruled_jets():
    # u_t is solved for, so neither it nor its derivatives are arguments of
    # the multipliers: the kernels of the split system keep the arguments
    # the ansatz names
    ws = Workspace("xt", ["u"])
    sys = PdeSystem(ws, [parse("u_t - u_x^2", ws)])
    det = determining_system(sys, 1)
    assert [to_text(a) for a in det.arguments] == ["x", "t", "u", "u_x"]
    assert {k.args for _, _, eq in det.equations
            for k in fun_kernels_of(eq)} == {det.arguments}
    assert [to_text(a) for a in conslaw.multiplier_arguments(sys, 2)] == [
        "x", "t", "u", "u_x", "u_xx"]


def test_burgers_family_satisfies_split_system():
    ws, sys = corpus.burgers()
    det = determining_system(sys, 0)
    fam = corpus.burgers_family_f(ws)
    cands = {"L1": fam.components[0], "L2": fam.components[1]}
    residuals = det.check_family(cands, fam.constraints)
    assert all(is_zero(r) for r in residuals)


def test_telegraph_family_satisfies_split_system():
    ws, sys = corpus.telegraph()
    det = determining_system(sys, 0)
    fam = corpus.telegraph_family_potential(ws)
    cands = {"L1": fam.components[0], "L2": fam.components[1]}
    residuals = det.check_family(cands, fam.constraints)
    assert all(is_zero(r) for r in residuals)


def test_reducer_burgers_full_integration():
    ws, sys = corpus.burgers()
    det = determining_system(sys, 0)
    res = reduce_determining_system(det)
    assert res.case == "II"
    fam = res.family
    fname = fam.function_names[0]
    # components carry the exponential factor: L2 = exp(-u2/4) f(x,t)
    f = Fun(fname, fam.definitions)
    fx = Fun(fname, fam.definitions, (1, 0))
    e = exp_(mul(rat(-1, 4), ws.lookup("u2")))
    assert equal(fam.components[1], mul(e, f))
    assert equal(fam.components[0],
                 add(mul(rat(1, 2), ws.lookup("u1"), e, f), mul(e, fx)))
    # constraint is the backward heat equation on (x, t)
    assert [to_text(d) for d in fam.definitions] == ["x", "t"]
    row = fam.constraints.rows[0]
    X, T = fam.coordinates
    assert equal(row, add(Fun(fname, (X, T), (2, 0)), Fun(fname, (X, T), (0, 1))))


def test_reducer_reports_its_pass_cap(monkeypatch):
    # Burgers needs more than one pass and stays well inside the default
    # cap; with the cap at 1 the run ends by naming it
    ws, sys = corpus.burgers()
    det = determining_system(sys, 0)
    assert not any("pass cap" in s for s in reduce_determining_system(det).steps)
    monkeypatch.setattr(conslaw, "MAX_REDUCER_PASSES", 1)
    steps = reduce_determining_system(det).steps
    assert len(steps) == 2
    assert steps[-1] == "reducer stopped: pass cap MAX_REDUCER_PASSES = 1 exhausted"


def test_reducer_telegraph_reaches_potential():
    ws, sys = corpus.telegraph()
    det = determining_system(sys, 0)
    res = reduce_determining_system(det)
    assert res.case == "undetermined"
    assert any("potential" in s for s in res.steps)
    assert len(res.residual_equations) >= 2


def test_reducer_integrates_telegraph_characteristics():
    ws, sys = corpus.telegraph()
    fam = corpus.telegraph_family_potential(ws)
    fam2, steps = reduce_family_constraints(fam, sys)
    assert len(fam2.definitions) == 2
    assert to_text(fam2.definitions[0]) == "x - u2"
    assert to_text(fam2.definitions[1]) == "t - log(u1)"
    X, T = fam2.coordinates
    fname = fam2.function_names[0]
    want = sub(add(Fun(fname, (X, T), (2, 0)), Fun(fname, (X, T), (0, 1))),
               Fun(fname, (X, T), (0, 2)))
    assert equal(fam2.constraints.rows[0], want) or \
        equal(fam2.constraints.rows[0], neg(want))
    # multipliers land on the reduced pair (-f_X, -f_T/u1)
    u1 = ws.lookup("u1")
    args = tuple(fam2.definitions)
    assert equal(fam2.components[0], neg(Fun(fname, args, (1, 0))))
    assert equal(fam2.components[1],
                 neg(mul(Fun(fname, args, (0, 1)), parse("1/u1", ws))))


def test_reducer_leaves_an_inhomogeneous_transport_row_alone():
    # f_x + f_u2 + 1 = 0 has no solution f = f1(x - u2, ...): the
    # characteristics integrate only a row without a kernel-free part.  A
    # constraint row must be homogeneous, so the three telegraph rows reach
    # the reducer as a determining system
    ws, sys = corpus.telegraph()
    args = (*ws.independents, ws.lookup("u1"), ws.lookup("u2"))
    rows = [parse(text, ws) for text in (
        "f_{1}(x,t,u1,u2) + f_{4}(x,t,u1,u2) + 1",
        "f_{2}(x,t,u1,u2) + u1*f_{3}(x,t,u1,u2)",
        "u1^2*f_{3,3}(x,t,u1,u2) + 2*u1*f_{3}(x,t,u1,u2)"
        " - f_{4,4}(x,t,u1,u2)")]
    det = DeterminingSystem(sys, ["f"], args,
                            [(0, "1", row) for row in rows])
    steps = reduce_determining_system(det).steps
    assert steps == ["f rides characteristics of args 2,3; new function f1"]


@pytest.mark.parametrize("rows, steps, component", [
    # f_x = f_t = 0: f loses x, then its renamed f1 loses t and becomes a
    # constant, numbered after the substitutions made so far
    (("f_{1}(x,t)", "f_{2}(x,t)"),
     ["f does not depend on argument 1; renamed to f1",
      "f1 depends on nothing: constant c2"], "c2"),
    (("f(x,t)",), ["f = 0 forced"], "0")])
def test_reducer_integrates_an_unknown_to_a_constant(rows, steps, component):
    ws, sys = corpus.burgers()
    args = tuple(ws.independents)
    rows = [parse(r, ws) for r in rows]
    det = DeterminingSystem(sys, ["f"], args,
                            [(0, "1", row) for row in rows])
    res = reduce_determining_system(det)
    assert res.steps == steps
    assert res.case == "I" and res.residual_equations == []
    state = conslaw._ReducerState(["f"], args, rows)
    state.run()
    assert to_text(state.component("f")) == component


@pytest.mark.parametrize("row, steps, component", [
    ("f_{1}(x,t,u1) + f_{2}(x,t,u1) + 2*f_{3}(x,t,u1)",
     ["f rides characteristics of args 1,2,3; new function f1"],
     "f1(x - 1/2*u1, t - 1/2*u1)"),
    # d(t)/d(x) = t: the invariant is x - log(t)
    ("f_{1}(x,t) + t*f_{2}(x,t)",
     ["f rides characteristics of args 1,2; new function f1"],
     "f1(x - log(t))"),
    ("f_{1}(x,t) + f_{2}(x,t) + 3*f(x,t)",
     ["f rides characteristics of args 1,2; factor exp(-a*arg2); "
      "new function f1"], "f1(-t + x)*exp(-3*t)"),
    # along the characteristics of pivot t the ratio x varies, so that pivot
    # is refused (exp(-x*t)*h(x - t) is no solution); pivot x takes the row
    ("f_{1}(x,t) + f_{2}(x,t) + x*f(x,t)",
     ["f rides characteristics of args 2,1; factor exp(-a*arg1); "
      "new function f1"], "f1(t - x)*exp(-1/2*x^2)"),
    # x*t varies along the characteristics of either pivot: no step
    ("f_{1}(x,t) + f_{2}(x,t) + x*t*f(x,t)", [], "f(x, t)"),
    ("f_{1}(x) + x*f(x)", ["f integrated: factor exp(-a*arg1); constant c1"],
     "c1*exp(-1/2*x^2)")])
def test_reducer_integrates_by_characteristics(monkeypatch, row, steps,
                                               component):
    check_reducer_steps(monkeypatch)
    ws = corpus.burgers()[0]
    row = parse(row, ws)
    state = conslaw._ReducerState(["f"], fun_kernels_of(row)[0].args, [row])
    state.run()
    assert state.steps == steps
    assert to_text(state.component("f")) == component


# -- verification -------------------------------------------------------------


def test_verify_trivial_heat():
    ws = Workspace("xt", ["u"])
    sys = PdeSystem(ws, [parse("u_t - u_xx", ws)])
    fam = MultiplierFamily(components=[rat(1)], function_names=[],
                           coordinates=(), definitions=(), constraints=None)
    assert verify_multipliers(sys, fam).ok
    fluxes, residual = family_fluxes(sys, fam)
    assert equal(fluxes[0], parse("-u_x", ws))
    assert equal(fluxes[1], parse("u", ws))
    assert is_zero(residual)


def test_verify_corpus_families():
    ws, sys = corpus.burgers()
    assert verify_multipliers(sys, corpus.burgers_family_v(ws)).ok
    pws, psys = corpus.pipeline()
    for make_sys, make_fam in ((corpus.pipeline, corpus.pipeline_family),
                               (corpus.telegraph, corpus.telegraph_family)):
        ws, sys = make_sys()
        fam = make_fam(ws)
        assert verify_multipliers(sys, fam).ok
        fluxes, residual = family_fluxes(sys, fam)
        assert len(fluxes) == ws.n and is_zero(residual)


def test_verify_rejects_wrong_family():
    ws, sys = corpus.burgers()
    fam = corpus.burgers_family_v(ws)
    bad = MultiplierFamily(
        components=[fam.components[0], neg(fam.components[1])],
        function_names=fam.function_names, coordinates=fam.coordinates,
        definitions=fam.definitions, constraints=fam.constraints)
    rep = verify_multipliers(sys, bad)
    assert not rep.ok and rep.messages


def test_singular_multiplier_warning():
    # G = u_x with Lambda = u_xx: Lambda*G = D_x(u_x^2/2) is a divergence,
    # but the factor vanishes identically on solutions
    ws = Workspace("xt", ["u"])
    sys = PdeSystem(ws, [parse("u_x", ws)])
    fam = MultiplierFamily(components=[parse("u_xx", ws)],
                           function_names=[], coordinates=(), definitions=(),
                           constraints=None)
    rep = verify_multipliers(sys, fam)
    assert rep.ok and rep.singular_warnings


# -- divergence test and fluxes ----------------------------------------------


def test_is_divergence_examples():
    ws = Workspace("xt", ["u"])
    ux = Jet("u", (("x", 1),))
    uxt = Jet("u", (("x", 1), ("t", 1)))
    fluxes = reconstruct_fluxes(mul(ux, uxt), ws)
    assert equal(div_of(fluxes, ws), mul(ux, uxt))
    with pytest.raises(NotADivergenceError):
        reconstruct_fluxes(mul(ux, Jet("u", (("t", 1),))), ws)
    e = euler_operator(mul(ux, Jet("u", (("t", 1),))), "u", ws)
    assert equal(e, mul(rat(-2), uxt))


def test_augmented_combination_is_divergence_in_joint_jet_space():
    # the augmented-identity left-hand side, with V1/V2 treated as two more
    # dependents, is annihilated by every Euler operator
    ws = Workspace("xt", ["u1", "u2", "V1", "V2"])
    lhs = parse(
        "(V1*(1/2*u1*exp(-u2/4)) + V2*exp(-u2/4))*(u2_x - 2*u1)"
        " + V1*exp(-u2/4)*(u2_t - 2*u1_x + u1^2)"
        " - 2*u1*exp(-u2/4)*(V1_x - V2)"
        " - 4*exp(-u2/4)*(V2_x + V1_t)", ws)
    fluxes = reconstruct_fluxes(lhs, ws)
    # reconstructed fluxes differ from the display by a curl only
    disp_x = parse("exp(-u2/4)*(-4*V2 - 2*u1*V1)", ws)
    disp_t = parse("-4*V1*exp(-u2/4)", ws)
    diff = sub(div_of(fluxes, ws), div_of([disp_x, disp_t], ws))
    assert is_zero(diff)


def test_reconstruct_simple_and_errors():
    ws = Workspace("xt", ["u"])
    fluxes = reconstruct_fluxes(Jet("u", (("x", 1),)), ws)
    assert equal(fluxes[0], ws.lookup("u")) and is_zero(fluxes[1])
    with pytest.raises(NotADivergenceError):
        reconstruct_fluxes(mul(Jet("u", (("x", 1),)), Jet("u", (("t", 1),))), ws)


@pytest.mark.parametrize("text", ("x*exp(x)", "(2*x^2 + 3*x)*exp(2*x + t)"))
def test_fluxes_of_polynomial_times_exponential(text):
    # x-derivatives with no jets: the integration sweep keeps the x^n
    # factor of x^n*exp(a*x + b)
    ws = corpus.burgers()[0]
    e = parse(text, ws)
    fluxes = reconstruct_fluxes(e, ws)
    assert is_zero(sub(div_of(fluxes, ws), e))


def test_flux_of_a_pure_exponential():
    ws = corpus.burgers()[0]
    fluxes = reconstruct_fluxes(parse("3*exp(2*x + t)", ws), ws)
    assert [to_text(f) for f in fluxes] == ["3/2*exp(t + 2*x)", "0"]


def test_flux_roundtrip_random():
    ws = Workspace("xt", ["u", "w"])
    rng = seeded(97)
    atoms = [ws.independents[0], ws.independents[1],
             ws.lookup("u"), ws.lookup("w"),
             Jet("u", (("x", 1),)), Jet("u", (("t", 1),)),
             Jet("w", (("x", 1),)), Jet("w", (("t", 1),))]
    for k in range(200):
        theta = [random_expression(rng, atoms, depth=2, allow_exp=False)
                 for _ in range(2)]
        e = div_of(theta, ws)
        fluxes = reconstruct_fluxes(e, ws)
        assert is_zero(sub(div_of(fluxes, ws), e)), f"case {k}"


def test_flux_sweep_stops_when_it_cycles(monkeypatch):
    # the sweep's remainder repeats with period 2 here; the homotopy formula
    # finishes from the repeat instead of the sweep spinning to its cap
    ws = Workspace("xt", ["u", "w"])
    calls = []
    absorb = conslaw._absorb

    def counting(*args):
        calls.append(args)
        return absorb(*args)

    monkeypatch.setattr(conslaw, "_absorb", counting)
    e = parse("3/2*u_t*w_tx + 3/2*u_tt*w_x - 4*u_x + w_x", ws)
    fluxes = reconstruct_fluxes(e, ws)
    assert len(calls) <= 4
    assert [to_text(f) for f in fluxes] == [
        "3/8*u_t*w_t + 3/8*u_tt*w - 4*u + w", "9/8*u_t*w_x - 3/8*u_tx*w"]


def test_splitting_completeness_corpora():
    # families plugged back into every split equation reduce to zero, and
    # re-running full verification succeeds
    for make_sys, make_fam, names in (
            (corpus.burgers, corpus.burgers_family_f, ("L1", "L2")),
            (corpus.telegraph, corpus.telegraph_family, ("L1", "L2")),
            (corpus.pipeline, corpus.pipeline_family, ("L1",))):
        ws, sys = make_sys()
        fam = make_fam(ws)
        det = determining_system(sys)
        cands = dict(zip(names, fam.components))
        residuals = det.check_family(cands, fam.constraints)
        assert all(is_zero(r) for r in residuals), to_text(
            next(r for r in residuals if not is_zero(r)))
        assert verify_multipliers(sys, fam).ok


def test_families_at_explicit_constraint_solutions():
    # substituting exact exponential solutions of the constraint systems
    # turns each family into concrete multipliers whose combination is a
    # literal divergence, checked through the independent Euler/flux route
    from fractions import Fraction
    from pdelin.expr import (diff_atom, exp_, fun_kernels_of,
                             substitute, substitute_kernels)
    from pdelin.expr import rat as R

    # backward heat: f(x,t) = exp(a x - a^2 t) satisfies f_xx + f_t = 0
    ws, sys = corpus.burgers()
    fam = corpus.burgers_family_f(ws)
    a = Fraction(2, 3)
    X, T = fam.coordinates
    f_formal = exp_(add(mul(R(a), X), mul(R(-a * a), T)))
    combo = add(*[mul(lam, g) for lam, g in zip(fam.components, sys.equations)])
    repl = {}
    for k in fun_kernels_of(combo):
        d = f_formal
        for pos, o in enumerate(k.dmidx):
            for _ in range(o):
                d = diff_atom(d, (X, T)[pos])
        repl[k] = substitute(d, dict(zip((X, T), k.args)))
    concrete = substitute_kernels(combo, repl)
    for dep in ws.dependents:
        assert is_zero(euler_operator(concrete, dep, ws))

    # telegraph: f(X,T) = exp(2/3 X - 1/3 T) satisfies f_XX - f_TT + f_T = 0
    tws, tsys = corpus.telegraph()
    tfam = corpus.telegraph_family(tws)
    XT = tfam.coordinates
    b = Fraction(-1, 3)
    aa = Fraction(2, 3)
    assert aa * aa == b * b - b
    g_formal = exp_(add(mul(R(aa), XT[0]), mul(R(b), XT[1])))
    tcombo = add(*[mul(lam, g) for lam, g in zip(tfam.components, tsys.equations)])
    repl = {}
    for k in fun_kernels_of(tcombo):
        d = g_formal
        for pos, o in enumerate(k.dmidx):
            for _ in range(o):
                d = diff_atom(d, XT[pos])
        repl[k] = substitute(d, dict(zip(XT, k.args)))
    tconcrete = substitute_kernels(tcombo, repl)
    for dep in tws.dependents:
        assert is_zero(euler_operator(tconcrete, dep, tws))


def test_reducer_placeholders_cover_every_argument():
    # 13 arguments: a scalar system with 3 independents at ansatz order 2
    # already has that many; no argument may be lost to the placeholders
    args = tuple(Sym(f"a{i}", "independent") for i in range(13))
    for pos, kept in ((0, args[1:]), (12, args[:12])):
        dmidx = tuple(int(i == pos) for i in range(13))
        state = conslaw._ReducerState(["L1"], args,
                                      [Fun("L1", args, dmidx)])
        state.run()
        assert state.component("L1") == Fun("f1", kept)
