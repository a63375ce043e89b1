"""The linearization pipeline: matching, Jacobians, the augmented identity
(including the three displayed identities, frozen from their sources),
mapping construction, target systems, and verification."""

import sys
from fractions import Fraction

import pytest

import corpus
from helpers import seeded
from pdelin.conslaw import (MultiplierFamily, determining_system,
                            reduce_determining_system)
from pdelin.constraints import LinearConstraints
from pdelin.errors import ExtractionError
from pdelin.expr import (Fun, Jet, add, derive_multi, equal, exp_, is_zero,
                         mul, neg, rat, sub, total_derivative)
from pdelin.grammar import parse, to_text
from pdelin.jets import PdeSystem
from pdelin.linearize import (MAX_W_DEGREE, Rejection, _candidate_basis,
                              _solve_linear_system, augmented_identity,
                              build_mapping, euler_wrt_function,
                              extract_dependent_part, match_multiplier_form,
                              target_system, verify_linearization)
from pdelin.mapping import ChainRule, equations_match_up_to_factor
from pdelin.probe import (probe_is_zero, probe_nonzero_robust,
                          random_assignment, set_default_probe_seed)
from pdelin.workspace import Workspace


def matched(make_sys, make_fam):
    ws, sys = make_sys()
    fam = make_fam(ws)
    cand = match_multiplier_form(fam, sys)
    assert not isinstance(cand, Rejection), getattr(cand, "reason", "")
    return ws, sys, cand


# -- jacobian -----------------------------------------------------------------


def test_jacobian_examples():
    ws, sys = corpus.burgers()
    assert equal(ChainRule(ws.independents, ws.independents).det, rat(1))
    pws, psys = corpus.pipeline()
    assert equal(ChainRule((parse("u_x", pws), pws.independents[1]),
                           pws.independents).det,
                 parse("u_xx", pws))
    tws, tsys = corpus.telegraph()
    got = ChainRule((parse("x - u2", tws), parse("t - log(u1)", tws)),
                    tws.independents).det
    want = parse("((1 - u2_x)*(u1 - u1_t) - u2_t*u1_x)/u1", tws)
    assert equal(got, want)


# -- matching -----------------------------------------------------------------


def test_match_pipeline():
    pws, psys, cand = matched(corpus.pipeline, corpus.pipeline_family)
    assert equal(cand.J, parse("u_xx", pws))
    assert equal(cand.Q[0][0], parse("1/u_xx", pws))
    assert cand.mapping.kind == "contact"


def test_match_telegraph():
    tws, tsys, cand = matched(corpus.telegraph, corpus.telegraph_family)
    want = parse("((1 - u2_x)*(u1 - u1_t) - u2_t*u1_x)/u1", tws)
    assert equal(cand.J, want)
    # Q.J pairs the bare kernels with entries (-1, -1/u1); the component
    # naming orders (v1, v2) = (f_T, f_X), so Q is antidiagonal
    assert equal(mul(cand.Q[0][1], cand.J), rat(-1))
    assert equal(mul(cand.Q[1][0], cand.J), parse("-1/u1", tws))
    assert is_zero(cand.Q[0][0]) and is_zero(cand.Q[1][1])


def test_match_fixed_independents_constant_factor():
    # Lambda_nu = c_nu v_nu(x, t): X = (x, t), J = 1, Q diagonal constants
    ws = Workspace("xt", ["u1", "u2"])
    sys = PdeSystem(ws, [parse("u1_t - u2_x", ws), parse("u2_t - u1_x", ws)])
    X, T = ws.declare_coordinate("X"), ws.declare_coordinate("T")
    cons = LinearConstraints(
        {"v1": (X, T), "v2": (X, T)},
        [parse("v1_{2}(X,T) - v2_{1}(X,T)", ws),
         parse("v2_{2}(X,T) - v1_{1}(X,T)", ws)])
    fam = MultiplierFamily(
        components=[parse("3*v1(x,t)", ws), parse("v2(x,t)", ws)],
        function_names=["v1", "v2"], coordinates=(X, T),
        definitions=(ws.independents[0], ws.independents[1]),
        constraints=cons)
    cand = match_multiplier_form(fam, sys)
    assert not isinstance(cand, Rejection)
    assert equal(cand.J, rat(1))
    assert equal(cand.Q[0][0], rat(3)) and equal(cand.Q[1][1], rat(1))


def test_match_rejects_function_free_family():
    ws, sys = corpus.burgers()
    fam = MultiplierFamily(components=[rat(1), parse("u1", ws)],
                           function_names=[], coordinates=(), definitions=(),
                           constraints=None)
    cand = match_multiplier_form(fam, sys)
    assert isinstance(cand, Rejection)


def test_match_rejects_dependent_coordinates():
    ws, sys = corpus.burgers()
    X, T = ws.declare_coordinate("X"), ws.declare_coordinate("T")
    cons = LinearConstraints({"v1": (X, T), "v2": (X, T)},
                             [parse("v1_{1}(X,T) - v2(X,T)", ws),
                              parse("v2_{1}(X,T) + v1_{2}(X,T)", ws)])
    fam = MultiplierFamily(
        components=[parse("v1(x, 2*x)", ws), parse("v2(x, 2*x)", ws)],
        function_names=["v1", "v2"], coordinates=(X, T),
        definitions=(ws.independents[0], mul(rat(2), ws.independents[0])),
        constraints=cons)
    cand = match_multiplier_form(fam, sys)
    assert isinstance(cand, Rejection) and "Jacobian" in cand.reason


def test_match_rejects_constraints_over_other_functions():
    # the operator's columns follow the constraint system's functions, so
    # they must be the family's functions in the family's order
    ws, sys = corpus.burgers()
    fam = corpus.burgers_family_v(ws)
    fam.function_names = ["v2", "v1"]
    cand = match_multiplier_form(fam, sys)
    assert isinstance(cand, Rejection) and "not over" in cand.reason


# -- augmented identity -------------------------------------------------------


def test_augmented_identity_burgers():
    ws, sys, cand = matched(corpus.burgers, corpus.burgers_family_v)
    rec = augmented_identity(cand)
    e = exp_(mul(rat(-1, 4), ws.lookup("u2")))
    assert equal(rec.W[0], mul(rat(2), ws.lookup("u1"), e))
    assert equal(rec.W[1], mul(rat(4), e))
    assert is_zero(rec.residual)
    # fluxes agree with the displayed pair exactly
    args = (ws.independents[0], ws.independents[1])
    v1, v2 = Fun("v1", args), Fun("v2", args)
    disp_x = mul(e, add(mul(rat(-4), v2), mul(rat(-2), ws.lookup("u1"), v1)))
    disp_t = mul(rat(-4), v1, e)
    assert equal(rec.fluxes[0], disp_x)
    assert equal(rec.fluxes[1], disp_t)


def test_augmented_identity_pipeline():
    pws, psys, cand = matched(corpus.pipeline, corpus.pipeline_family)
    rec = augmented_identity(cand)
    assert equal(rec.W[0], parse("x*u_x - u", pws))
    assert is_zero(rec.residual)


def test_augmented_identity_telegraph():
    tws, tsys, cand = matched(corpus.telegraph, corpus.telegraph_family)
    rec = augmented_identity(cand)
    # W-pair {u1, x} up to sign, paired with the component-system rows
    wset = sorted(to_text(w) for w in rec.W)
    assert wset == ["-x", "u1"] or wset == ["u1", "x"] or wset == ["-u1", "-x"]
    assert is_zero(rec.residual)


def test_extraction_failure_reported():
    # a family whose constraint operator cannot produce the combination
    ws = Workspace("xt", ["u"])
    sys = PdeSystem(ws, [parse("u_t - u*u_x", ws)])
    X, T = ws.declare_coordinate("X"), ws.declare_coordinate("T")
    cons = LinearConstraints({"v": (X, T)},
                             [parse("v_{2}(X,T) - v_{1,1}(X,T)", ws)])
    fam = MultiplierFamily(components=[parse("v(x,t)", ws)],
                           function_names=["v"], coordinates=(X, T),
                           definitions=(ws.independents[0], ws.independents[1]),
                           constraints=cons)
    cand = match_multiplier_form(fam, sys)
    assert not isinstance(cand, Rejection)
    # the message names the cap that gave up and the degrees it tried
    with pytest.raises(ExtractionError,
                       match=f"degrees 2 to {MAX_W_DEGREE} tried, up to the "
                             f"cap MAX_W_DEGREE = {MAX_W_DEGREE}"):
        extract_dependent_part(cand)


@pytest.mark.parametrize("make_sys, make_fam", [
    (corpus.burgers, corpus.burgers_family_v),
    (corpus.pipeline, corpus.pipeline_family),
    (corpus.telegraph, corpus.telegraph_family)],
    ids=["burgers", "pipeline", "telegraph"])
def test_composed_operator_agrees_with_adjoint_rows(make_sys, make_fam):
    # the W solve's route against the independent one, on random W from
    # the candidate basis: row mu of sum C[(alpha, L)] D_x^L W_alpha is
    # D_mu (L~* W)^mu exactly, and the row's target is D_mu (Q G)^mu
    ws, sys, cand = matched(make_sys, make_fam)
    basis = _candidate_basis(cand, 2)
    rng = seeded(17)
    for (D, _, target), qg in zip(cand.composed_op, cand.qg_rows):
        assert is_zero(sub(target, mul(D, qg)))
    for _ in range(4):
        W = [add(*[mul(rat(rng.randint(-3, 3), rng.randint(1, 3)), b)
                   for b in rng.sample(basis, 4)])
             for _ in range(cand.constraint_op.rows)]
        for (D, table, _), row in zip(cand.composed_op, cand.adjoint_rows(W)):
            got = add(*[mul(c, derive_multi(W[a], ws.independents, L,
                                            total_derivative))
                        for (a, L), c in table.items()])
            assert is_zero(sub(got, mul(D, row)))


def _random_system(rng, n):
    """Seeded equations {var: coefficient, None: constant} in n unknowns:
    independent rows, rows combined from them (rank-deficient), and, for
    an inconsistent system, one combination with its constant moved."""
    x0 = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    rows = []
    for _ in range(rng.randint(1, n)):
        r = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             for v in range(n)}
        r[None] = -sum(c * x0[v] for v, c in r.items())
        rows.append(r)
    for _ in range(rng.randint(0, 2)):
        a, b = rng.choice(rows), rng.choice(rows)
        k = Fraction(rng.randint(-2, 2) or 1, rng.randint(1, 3))
        rows.append({v: a.get(v, 0) + k * b.get(v, 0) for v in set(a) | set(b)})
    if rng.random() < 0.4:
        bad = dict(rng.choice(rows))
        bad[None] = bad.get(None, 0) + 1
        rows.append(bad)
    return [{v: c for v, c in r.items() if c} for r in rows]


def test_solve_linear_system_is_invariant_under_row_scaling_and_order():
    # W depends only on the solution set of the equations, not on their
    # scale, their order or redundant combinations of them: the property
    # the composed route of the W solve rests on, since it scales each row
    # of the identity by a nonzero factor
    rng = seeded(29)
    outcomes = set()
    for _ in range(200):
        n = rng.randint(1, 6)
        eqs = _random_system(rng, n)
        order = list(range(n))
        rng.shuffle(order)
        sol = _solve_linear_system(eqs, order)
        outcomes.add(sol is None)
        if sol is not None:
            for e in eqs:
                assert e.get(None, 0) + sum(
                    c * sol[v] for v, c in e.items() if v is not None) == 0
        scaled = [{v: c * k for v, c in e.items()} for e in eqs
                  for k in [Fraction(rng.choice([-3, -1, 1, 2, 5]),
                                     rng.randint(1, 4))]]
        a, b = rng.choice(eqs), rng.choice(eqs)
        redundant = {v: a.get(v, 0) + 2 * b.get(v, 0) for v in set(a) | set(b)}
        scaled.append({v: c for v, c in redundant.items() if c})
        rng.shuffle(scaled)
        assert _solve_linear_system(scaled, order) == sol
    assert outcomes == {True, False}


# -- the three displayed identities, frozen -----------------------------------


def test_identity_display_burgers():
    ws = Workspace("xt", ["u1", "u2"])
    lhs = parse(
        "(V1(x,t)*(1/2*u1*exp(-u2/4)) + V2(x,t)*exp(-u2/4))*(u2_x - 2*u1)"
        " + V1(x,t)*exp(-u2/4)*(u2_t - 2*u1_x + u1^2)"
        " - 2*u1*exp(-u2/4)*(V1_{1}(x,t) - V2(x,t))"
        " - 4*exp(-u2/4)*(V2_{1}(x,t) + V1_{2}(x,t))", ws)
    flux_x = parse("exp(-u2/4)*(-4*V2(x,t) - 2*u1*V1(x,t))", ws)
    flux_t = parse("-4*V1(x,t)*exp(-u2/4)", ws)
    rhs = add(total_derivative(flux_x, ws.independents[0]),
              total_derivative(flux_t, ws.independents[1]))
    assert is_zero(sub(lhs, rhs))
    rng = seeded(3)
    d = sub(lhs, rhs)
    for _ in range(20):
        assert probe_is_zero(d, random_assignment(d, rng))


def test_identity_display_pipeline():
    # the printed x-flux carries "+ U_x^p V_X" inside the first bracket; the
    # identity closes exactly with the minus sign (source-text misprint,
    # recorded in the project notes), holding for symbolic p
    ws = Workspace("xt", ["u"], ["p"])
    V = "V(u_x,t)"
    lhs = parse(
        f"{V}*(u_t*u_xx + pow(u_x,p))"
        f" - (x*u_x - u)*u_xx*(V_{{2}}(u_x,t) + pow(u_x,p)*V_{{1,1}}(u_x,t)"
        f" + 2*p*pow(u_x,p-1)*V_{{1}}(u_x,t)"
        f" + p*(p-1)*pow(u_x,p-2)*{V})", ws)
    flux_x = parse(
        f"(x*u_x - u)*(u_tx*{V} - pow(u_x,p)*V_{{1}}(u_x,t))"
        f" + ((1-p)*x*u_x + p*u)*pow(u_x,p-1)*{V}", ws)
    flux_t = parse(f"u_xx*(u - x*u_x)*{V}", ws)
    rhs = add(total_derivative(flux_x, ws.independents[0]),
              total_derivative(flux_t, ws.independents[1]))
    assert is_zero(sub(lhs, rhs))
    rng = seeded(5)
    d = sub(lhs, rhs)
    for _ in range(20):
        assert probe_is_zero(d, random_assignment(d, rng))


def test_identity_display_telegraph():
    # closes exactly after two source-text corrections (recorded in the
    # project notes): the displayed fluxes enter with the opposite overall
    # sign, and the V1 bracket of the t-flux reads -u1_x, not +u1_t
    ws = Workspace("xt", ["u1", "u2"])
    A = "x - u2, t - log(u1)"
    J = "(1/u1)*((1 - u2_x)*(u1 - u1_t) - u2_t*u1_x)"
    lhs = parse(
        f"V1({A})*(u2_t - u1_x) + V2({A})/u1*(u1_t + u1*(u1-1) - u1^2*u2_x)"
        f" - u1*({J})*(V1_{{1}}({A}) - V2_{{2}}({A}) + V2({A}))"
        f" - x*({J})*(V2_{{1}}({A}) - V1_{{2}}({A}))", ws)
    flux_x = neg(parse(
        f"-V1({A})*(x*u2_t + u1_t - u1)"
        f" + V2({A})*(x - x*u1_t/u1 - u1*u2_t)", ws))
    flux_t = neg(parse(
        f"-V1({A})*(x - x*u2_x - u1_x)"
        f" + V2({A})*(x*u1_x/u1 + u1*u2_x - u1)", ws))
    rhs = add(total_derivative(flux_x, ws.independents[0]),
              total_derivative(flux_t, ws.independents[1]))
    assert is_zero(sub(lhs, rhs))
    # our own flux construction reproduces the corrected display exactly
    import corpus as _corpus
    from pdelin.expr import substitute_kernels, Fun, fun_kernels_of
    tws, tsys = _corpus.telegraph()
    cand = match_multiplier_form(_corpus.telegraph_family(tws), tsys)
    rec = augmented_identity(cand)
    ren = {}
    for fxp in rec.fluxes:
        for k in fun_kernels_of(fxp):
            nm = {"v1": "V2", "v2": "V1"}.get(k.name)
            if nm:
                ren[k] = neg(Fun(nm, k.args, k.dmidx))
    ours = [substitute_kernels(f, ren) for f in rec.fluxes]
    assert is_zero(sub(ours[0], parse(to_text(flux_x), tws)))
    assert is_zero(sub(ours[1], parse(to_text(flux_t), tws)))


# -- mapping construction and targets ------------------------------------------


def test_build_mapping_burgers_proportional_to_point_map():
    ws, sys, cand = matched(corpus.burgers, corpus.burgers_family_v)
    tr = build_mapping(cand)
    assert tr.kind == "point"
    e = exp_(mul(rat(-1, 4), ws.lookup("u2")))
    # (w1, w2) = (4, -4) . (known transformation pair)
    assert equal(tr.psi[0], mul(rat(4), mul(rat(1, 2), ws.lookup("u1"), e)))
    assert equal(tr.psi[1], mul(rat(-4), neg(e)))
    assert [to_text(p) for p in tr.phi] == ["x", "t"]


def test_build_mapping_pipeline_contact():
    pws, psys, cand = matched(corpus.pipeline, corpus.pipeline_family)
    tr = build_mapping(cand)
    assert tr.kind == "contact"
    assert [to_text(p) for p in tr.phi] == ["u_x", "t"]
    assert equal(tr.psi[0], parse("x*u_x - u", pws))
    assert equal(tr.rho[0], parse("x", pws))
    assert equal(tr.rho[1], parse("-u_t", pws))


def test_target_systems():
    ws, sys, cand = matched(corpus.burgers, corpus.burgers_family_v)
    ts = target_system(cand)
    tgt = ts.workspace
    # kernel equations match w2_X = w1, w1_X = w2_T after rescaling
    got = [substitute_all(e, tgt) for e in ts.equations]
    want = [parse("w2_X - w1", tgt), parse("w1_X - w2_T", tgt)]
    assert equations_match_up_to_factor(got, want)

    pws, psys, pcand = matched(corpus.pipeline, corpus.pipeline_family)
    pts = target_system(pcand)
    ptgt = pts.workspace
    assert equations_match_up_to_factor(
        pts.equations, [parse("pow(X,p)*w1_XX - w1_T", ptgt)])


def substitute_all(e, tgt):
    # rescale (w1, w2) -> (4 w1', -4 w2') to compare with the target display
    from pdelin.expr import substitute, Jet
    rules = {}
    for j in [Jet("w1", m) for m in [(), (("X", 1),), (("T", 1),)]]:
        rules[j] = mul(rat(4), Jet("w1", j.midx))
    for j in [Jet("w2", m) for m in [(), (("X", 1),), (("T", 1),)]]:
        rules[j] = mul(rat(-4), Jet("w2", j.midx))
    return substitute(e, rules)


def test_verify_linearization_corpora():
    for make_sys, make_fam in ((corpus.burgers, corpus.burgers_family_v),
                               (corpus.pipeline, corpus.pipeline_family),
                               (corpus.telegraph, corpus.telegraph_family)):
        ws, sys, cand = matched(make_sys, make_fam)
        rep = verify_linearization(sys, cand)
        assert rep.ok and rep.mapping_checked and rep.mapping_ok, rep.messages


def test_verify_rejects_corrupted_w():
    ws, sys, cand = matched(corpus.burgers, corpus.burgers_family_v)
    cand.W = extract_dependent_part(cand)
    cand.W = [neg(cand.W[0]), cand.W[1]]  # sign corruption
    rep = verify_linearization(sys, cand)
    assert not rep.ok
    assert any(not is_zero(r) for r in rep.identity_residuals)


def test_probe_catches_a_false_symbolic_zero(monkeypatch):
    # with every residual forced to the literal 0, the probe of the two
    # sides of each row must still see the sign-corrupted W
    ws, sys_, cand = matched(corpus.burgers, corpus.burgers_family_v)
    W = extract_dependent_part(cand)
    cand.W = [neg(W[0]), W[1]]
    monkeypatch.setattr("pdelin.linearize.sub", lambda a, b: rat(0))
    rep = verify_linearization(sys_, cand)
    assert not rep.ok
    assert "probe contradicts a symbolic zero" in rep.messages


def test_euler_extraction_equivalence():
    # E_{V^mu} of delta-W (L~ V) reproduces the adjoint rows through the
    # composite chain rule, for all three corpora
    for make_sys, make_fam in ((corpus.burgers, corpus.burgers_family_v),
                               (corpus.pipeline, corpus.pipeline_family),
                               (corpus.telegraph, corpus.telegraph_family)):
        ws, sys, cand = matched(make_sys, make_fam)
        W = extract_dependent_part(cand)
        cand.W = W
        rows_formal = cand.constraint_op.to_rows(cand.vnames)
        combo = add(*[mul(W[a], cand.compose(r))
                      for a, r in enumerate(rows_formal)])
        DX = cand.chain_rule
        want = cand.constraint_op.adjoint().apply(W, derive=DX,
                                                  coefficient=cand.compose)
        for mu in range(len(cand.vnames)):
            got = euler_wrt_function(cand, combo, mu)
            assert is_zero(sub(got, want[mu]))


def test_rescaling_closure():
    # post-composing a constant diagonal rescale on the W-pairing (scaling a
    # constraint row by 1/c rescales its W by c) preserves verification
    ws, sys = corpus.burgers()
    X, T = ws.declare_coordinate("X"), ws.declare_coordinate("T")
    cons = LinearConstraints(
        {"v1": (X, T), "v2": (X, T)},
        [parse("1/3*v1_{1}(X,T) - 1/3*v2(X,T)", ws),
         parse("-2*v2_{1}(X,T) - 2*v1_{2}(X,T)", ws)])
    fam = MultiplierFamily(
        components=[parse("1/2*u1*exp(-u2/4)*v1(x,t) + exp(-u2/4)*v2(x,t)", ws),
                    parse("exp(-u2/4)*v1(x,t)", ws)],
        function_names=["v1", "v2"], coordinates=(X, T),
        definitions=(ws.independents[0], ws.independents[1]),
        constraints=cons)
    cand = match_multiplier_form(fam, sys)
    assert not isinstance(cand, Rejection)
    rec = augmented_identity(cand)
    assert is_zero(rec.residual)
    e = exp_(mul(rat(-1, 4), ws.lookup("u2")))
    assert equal(rec.W[0], mul(rat(6), ws.lookup("u1"), e))
    assert equal(rec.W[1], mul(rat(-2), e))
    rep = verify_linearization(sys, cand)
    assert rep.ok and rep.mapping_ok


def test_end_to_end_from_determining_system():
    ws, sys = corpus.burgers()
    det = determining_system(sys, 0)
    res = reduce_determining_system(det)
    assert res.case == "II"
    cand = match_multiplier_form(res.family, sys)
    assert not isinstance(cand, Rejection)
    rec = augmented_identity(cand)
    assert is_zero(rec.residual)
    rep = verify_linearization(sys, cand)
    assert rep.ok and rep.mapping_ok


# -- the base probe seed (CLI --seed) ------------------------------------------


def _record_draws(monkeypatch, modules):
    """Record every probe point drawn through `random_assignment` as bound
    in the given pdelin modules, with the state of the generator it is
    drawn from (a literal-zero residual has no atoms to draw)."""
    drawn = []

    def recording(e, rng, *args, **kwargs):
        state = rng.getstate()
        asg = random_assignment(e, rng, *args, **kwargs)
        drawn.append((state, sorted((to_text(a), v) for a, v in asg.items())))
        return asg

    for module in modules:
        if hasattr(module, "random_assignment"):
            monkeypatch.setattr(module, "random_assignment", recording)
    return drawn


def _draws_under_seed(monkeypatch, seed, modules, run):
    drawn = _record_draws(monkeypatch, modules)
    set_default_probe_seed(seed)
    try:
        run()
    finally:
        set_default_probe_seed(0)
    return drawn


def test_seed_reaches_verify_linearization(monkeypatch):
    ws, sys_, cand = matched(corpus.burgers, corpus.burgers_family_v)
    linearize = sys.modules["pdelin.linearize"]
    draws = [_draws_under_seed(monkeypatch, seed, [linearize],
                               lambda: verify_linearization(sys_, cand))
             for seed in (0, 1)]
    assert draws[0] and draws[1]
    assert all(asg for run in draws for _, asg in run)
    assert draws[0] != draws[1]


def test_seed_reaches_equations_match_up_to_factor(monkeypatch):
    ws = Workspace("xt", ["u1", "u2"])
    want = [parse("u1_x - u2", ws)]
    got = [parse("3*x^2*t^3*(u1_x - u2)", ws)]
    pdelin_modules = [m for name, m in sys.modules.items()
                      if name.startswith("pdelin.")]

    draws = [_draws_under_seed(
        monkeypatch, seed, pdelin_modules,
        lambda: equations_match_up_to_factor(got, want)) for seed in (0, 1)]
    assert draws[0] and draws[1]
    assert draws[0] != draws[1]
    # seed 0 draws the points of the former fixed probe seed, 17, for the
    # factor 3*x^2*t^3
    factor = parse("3*x^2*t^3", ws)
    assert draws[0] == _draws_under_seed(
        monkeypatch, 0, pdelin_modules,
        lambda: probe_nonzero_robust(factor, 17))
