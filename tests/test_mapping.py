"""Point/contact transformations: application, inversion, contact
conditions, and the bundled transformation chains."""

import json

import pytest

import corpus
from helpers import seeded
from pdelin import mapping
from pdelin.cli import bundled_path, main
from pdelin.errors import ExprError
from pdelin.expr import (Jet, add, equal, exp_, is_zero, mul, neg, rat, sub,
                         substitute, total_derivative)
from pdelin.grammar import parse, to_text
from pdelin.jets import PdeSystem, prolong_rules
from pdelin.linearize import match_multiplier_form
from pdelin.mapping import (ChainRule, Transformation, apply_transformation,
                            check_contact_condition,
                            equations_match_up_to_factor,
                            invert_transformation)
from pdelin.workspace import Workspace
from pdelin.wsfile import load_workspace_text


def burgers_transformation():
    ws, sys = corpus.burgers()
    tgt = Workspace("xt", ["w1", "w2"])
    tr = Transformation(
        "point", ws, tgt,
        (parse("x", ws), parse("t", ws)),
        (parse("1/2*u1*exp(-u2/4)", ws), parse("-exp(-u2/4)", ws)))
    return ws, sys, tgt, tr


def telegraph_transformation():
    ws, sys = corpus.telegraph()
    tgt = Workspace("XT", ["w1", "w2"])
    tr = Transformation(
        "point", ws, tgt,
        (parse("x - u2", ws), parse("t - log(u1)", ws)),
        (parse("x", ws), parse("u1", ws)))
    return ws, sys, tgt, tr


def pipeline_transformation():
    ws, sys = corpus.pipeline()
    tgt = Workspace("XT", ["w"], ["p"])
    tr = Transformation(
        "contact", ws, tgt,
        (parse("u_x", ws), parse("t", ws)),
        (parse("x*u_x - u", ws),),
        (parse("x", ws), parse("-u_t", ws)))
    return ws, sys, tgt, tr


def test_identity_transformation():
    ws, sys = corpus.burgers()
    tgt = Workspace("xt", ["u1", "u2"])
    tr = Transformation("point", ws, tgt,
                        (parse("x", ws), parse("t", ws)),
                        (parse("u1", ws), parse("u2", ws)))
    rep = apply_transformation(sys, tr)
    assert equations_match_up_to_factor(rep.equations, sys.equations)


def test_burgers_maps_to_heat_pair():
    ws, sys, tgt, tr = burgers_transformation()
    rep = apply_transformation(sys, tr)
    want = [parse("w2_x - w1", tgt), parse("w1_x - w2_t", tgt)]
    assert equations_match_up_to_factor(rep.equations, want)


def test_burgers_inverse_components():
    ws, sys, tgt, tr = burgers_transformation()
    inv, sol = invert_transformation(tr)
    assert equal(inv.psi[0], parse("-2*w1/w2", tgt))
    assert equal(inv.psi[1], parse("-4*log(-w2)", tgt))


def test_telegraph_chain_to_symmetric_form():
    ws, sys, tgt, tr = telegraph_transformation()
    rep = apply_transformation(sys, tr)
    want13 = [parse("w1_X - w2_T - w2", tgt), parse("w2_X - w1_T", tgt)]
    assert equations_match_up_to_factor(rep.equations, want13)
    t13 = PdeSystem(tgt, want13)
    t6ws = Workspace("XT", ["a", "b"])
    resc = Transformation("point", tgt, t6ws,
                          (parse("X", tgt), parse("T", tgt)),
                          (parse("w1", tgt), parse("exp(T)*w2", tgt)))
    rep2 = apply_transformation(t13, resc)
    want6 = [parse("b_T - exp(T)*a_X", t6ws), parse("b_X - exp(T)*a_T", t6ws)]
    assert equations_match_up_to_factor(rep2.equations, want6)


def test_pipeline_contact_transformation():
    ws, sys, tgt, tr = pipeline_transformation()
    assert check_contact_condition(tr)
    rep = apply_transformation(sys, tr)
    want = [parse("pow(X,p)*w_XX - w_T", tgt)]
    assert equations_match_up_to_factor(rep.equations, want)


def test_contact_condition_examples():
    # the (t, u_x) ordering of the same contact data
    ws, sys = corpus.pipeline()
    tgt = Workspace("zs", ["w"], ["p"])
    tr = Transformation("contact", ws, tgt,
                        (parse("t", ws), parse("u_x", ws)),
                        (parse("u - x*u_x", ws),),
                        (parse("u_t", ws), parse("-x", ws)))
    assert check_contact_condition(tr)
    bad = Transformation("contact", ws, tgt,
                         (parse("t", ws), parse("u_x", ws)),
                         (parse("u - x*u_x", ws),),
                         (parse("u_t", ws), parse("x", ws)))
    assert not check_contact_condition(bad)


def test_round_trip_burgers_and_telegraph():
    for builder in (burgers_transformation, telegraph_transformation):
        ws, sys, tgt, tr = builder()
        rep = apply_transformation(sys, tr)
        inv, _ = invert_transformation(tr)
        back = apply_transformation(rep.system, inv)
        assert equations_match_up_to_factor(back.equations, sys.equations)


@pytest.mark.parametrize("make_sys, make_fam", (
    (corpus.burgers, corpus.burgers_family_v),
    (corpus.pipeline, corpus.pipeline_family),
    (corpus.telegraph, corpus.telegraph_family),
), ids=("burgers", "pipeline", "telegraph"))
def test_candidate_chain_rule_differentiates_its_coordinates(make_sys,
                                                             make_fam):
    # d X_k / d X_i = delta_ik, since cof . M = det . I
    ws, sys = make_sys()
    cand = match_multiplier_form(make_fam(ws), sys)
    for k, xk in enumerate(cand.X):
        for i, ci in enumerate(cand.coords):
            assert is_zero(sub(cand.chain_rule(xk, ci), rat(int(i == k))))


@pytest.mark.parametrize("system", ("burgers", "pipeline", "telegraph"))
def test_inverse_chain_rule_differentiates_old_coordinates(system):
    # the chain rule apply_transformation builds from the inverse of the
    # declared transformation: d x_k(z, w) / d x_i = delta_ik
    wf = load_workspace_text(bundled_path(system).read_text(encoding="utf-8"))
    tr = wf.transformation
    _, solution = invert_transformation(tr)
    src = tr.source
    old = [solution[x] for x in src.independents]
    chain = ChainRule(old, tr.target.independents, src.independents)
    for k, xk in enumerate(old):
        for i, xi in enumerate(src.independents):
            assert is_zero(sub(chain(xk, xi), rat(int(i == k))))


def test_chain_rule_exactness_affine_maps():
    # unit-Jacobian affine point transformations: the transformed heat
    # equation matches the hand-derived chain-rule result
    ws = Workspace("xt", ["u"])
    rng = seeded(87)
    for k in range(5):
        a = rat(rng.randint(1, 3))
        c = rat(rng.randint(1, 4))
        tgt = Workspace("zs", ["w"])
        tr = Transformation(
            "point", ws, tgt,
            (add(ws.independents[0], mul(a, ws.independents[1])),
             ws.independents[1]),
            (mul(c, ws.lookup("u")),))
        assert equal(tr.jacobian(), rat(1))
        sys = PdeSystem(ws, [parse("u_t - u_xx", ws)])
        rep = apply_transformation(sys, tr)
        want = add(mul(a, Jet("w", (("z", 1),))), Jet("w", (("s", 1),)),
                   neg(Jet("w", (("z", 2),))))
        assert equations_match_up_to_factor(rep.equations, [want])


def test_equivalence_relation_properties():
    ws, sys, tgt, tr = burgers_transformation()
    rep = apply_transformation(sys, tr)
    assert equations_match_up_to_factor(rep.equations, rep.equations)
    want = [parse("w2_x - w1", tgt), parse("w1_x - w2_t", tgt)]
    assert equations_match_up_to_factor(rep.equations, want)
    assert equations_match_up_to_factor(want, rep.equations)


def test_inverse_substitutes_each_solved_variable_back():
    # x is solved from exp(x + t) = z before t = s is known; its value
    # must not keep the source variable t
    ws = Workspace("xt", ["u"])
    tr = Transformation("point", ws, Workspace("zs", ["w"]),
                        (parse("exp(x + t)", ws), parse("t", ws)),
                        (parse("u", ws),))
    inv, _ = invert_transformation(tr)
    assert [to_text(p) for p in inv.phi] == ["-s + log(z)", "s"]


def test_hopf_cole_direction():
    # u1 = -2 w2_x / w2 solves the scalar equation whenever w2 solves the
    # heat equation: the residual reduces to zero modulo w2_xx -> w2_t
    hws = Workspace("xt", ["w2"])
    bws = Workspace("xt", ["u1"])
    u1_of_w = parse("-2*w2_x/w2", hws)
    x, t = hws.independents
    rules = {}
    for j in [Jet("u1", ()), Jet("u1", (("x", 1),)), Jet("u1", (("x", 2),)),
              Jet("u1", (("t", 1),))]:
        d = u1_of_w
        for v, o in j.midx:
            for _ in range(o):
                d = total_derivative(d, hws.independent(v))
        rules[j] = d
    burgers_scalar = parse("u1_xx - u1*u1_x - u1_t", bws)
    resid = substitute(burgers_scalar, rules)
    heat = prolong_rules({Jet("w2", (("x", 2),)): Jet("w2", (("t", 1),))}, 4, hws)
    assert is_zero(substitute(resid, heat))
    # explicit instance: w2 = exp(x + t) gives the constant solution -2
    w2 = exp_(add(x, t))
    inst = {Jet("w2", ()): w2}
    for m in [(("x", 1),), (("x", 2),), (("t", 1),), (("x", 1), ("t", 1)),
              (("x", 2), ("t", 1),)]:
        d = w2
        for v, o in m:
            for _ in range(o):
                d = total_derivative(d, hws.independent(v))
        inst[Jet("w2", m)] = d
    val = substitute(u1_of_w, inst)
    assert equal(val, rat(-2))
    assert is_zero(substitute(burgers_scalar,
                              {Jet("u1", ()): rat(-2),
                               Jet("u1", (("x", 1),)): rat(0),
                               Jet("u1", (("x", 2),)): rat(0),
                               Jet("u1", (("t", 1),)): rat(0)}))


def test_linearize_passes_on_the_mapping_messages(monkeypatch, capsys):
    # linearize's mapping check passes on the messages of the transformation
    # it applies: transformed rows that do not close are compared as they
    # are, and the message says why
    def no_close(*args):
        raise ExprError("no leading solve")

    monkeypatch.setattr(mapping, "PdeSystem", no_close)
    assert main(["linearize", "burgers", "--json"]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["verification"]["mapping-check"] == "mismatch"
    assert ("transformed equations do not close: no leading solve"
            in doc["verification"]["messages"])


# Burgers under the shear z1 = x + t with a target written unreduced: H2 is
# the exact image of G2, which still holds the jet w2_X that H1 rules
SHEARED = """
[vars]
independents = x, t
dependents = u1, u2
[system]
G1 = u2_x - 2*u1
G2 = u2_t - 2*u1_x + u1^2
[transformation]
kind = point
vars = X, T
deps = w1, w2
z1 = x + t
z2 = t
w1 = u1
w2 = u2
[target]
H1 = w2_X - 2*w1
H2 = w2_X + w2_T - 2*w1_X + w1^2
"""
SWAPPED = SHEARED.replace(
    "H1 = w2_X - 2*w1\nH2 = w2_X + w2_T - 2*w1_X + w1^2",
    "H1 = w2_X + w2_T - 2*w1_X + w1^2\nH2 = w2_X - 2*w1")
SAME_NAMES = SHEARED.replace("vars = X, T", "vars = x, t").replace(
    "_X", "_x").replace("_T", "_t")


@pytest.mark.parametrize("text, code", [
    (SHEARED, 0),
    (SWAPPED, 0),
    (SHEARED.replace("w1^2\n", "w1^2 + w1\n"), 4),
    # target variables that repeat the source's names
    (SAME_NAMES, 0),
    (SAME_NAMES.replace("w1 = u1", "w1 = 2*u1"), 4),
], ids=["unreduced", "swapped", "wrong", "same-names", "same-names-wrong-w"])
def test_verify_compares_reduced_targets(tmp_path, capsys, text, code):
    # the transformed rows and the target are both reduced as a PdeSystem,
    # so a target's row order and its unreduced rows do not matter
    f = tmp_path / "case.ws"
    f.write_text(text)
    assert main(["verify", str(f), "--json"]) == code
    doc = json.loads(capsys.readouterr().out)
    tdoc = doc["transformation-verification"]
    assert tdoc["matches-target"] is (code == 0)
    assert "messages" not in tdoc
