"""Command-line surface: corpus runs, exit codes, determinism, document
round-trips, and the documented rejection paths."""

import hashlib
import json
import os
import random
import re
import signal
import subprocess
import sys

import pytest

from helpers import (COMMANDS, GENERATED_AT, SYSTEMS, check_reducer_steps,
                     reference_document)
from pdelin import cli, linearize, mapping
from pdelin.cli import bundled_path, main
from pdelin.grammar import parse
from pdelin.linops import LinearOperator
from pdelin.wsfile import load_workspace_text
from pdelin.errors import WorkspaceError


BURGERS = """
[vars]
independents = x, t
dependents   = u1, u2
[system]
G1 = u2_x - 2*u1
G2 = u2_t - 2*u1_x + u1^2
[ansatz]
order = 0
"""

# inviscid Burgers, which the hodograph point map swapping x and u
# linearizes (x_t = -u)
INVISCID_BURGERS = """
[vars]
independents = x, t
dependents   = u
[system]
G1 = u_t - u*u_x
[ansatz]
order = 0
"""

CORRUPTED_W = """
[vars]
independents = x, t
dependents   = u1, u2
[system]
G1 = u2_x - 2*u1
G2 = u2_t - 2*u1_x + u1^2
[transformation]
kind = point
vars = x, t
deps = w1, w2
z1 = x
z2 = t
w1 = -1/2*u1*exp(-u2/4)   # sign corrupted
w2 = -exp(-u2/4)
[target]
H1 = w2_x - w1
H2 = w1_x - w2_t
"""

CORRUPTED_RHO = """
[vars]
independents = x, t
dependents   = u
parameters   = p
[system]
G1 = u_t*u_xx + pow(u_x, p)
[transformation]
kind = contact
vars = X, T
deps = w
z1 = u_x
z2 = t
w1 = x*u_x - u
rho1 = x
rho2 = u_t    # sign corrupted
[target]
H1 = pow(X,p)*w_XX - w_T
"""


def run(tmp_path, text, command, *flags):
    f = tmp_path / "case.ws"
    f.write_text(text)
    return main([command, str(f), *flags])


def test_bundled_corpus_exits_zero(capsys):
    for name in ("burgers", "pipeline", "telegraph"):
        assert main(["linearize", name]) == 0
        capsys.readouterr()


def test_detsys_burgers_json_structure(tmp_path, capsys):
    assert run(tmp_path, BURGERS, "detsys", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "ok"
    assert doc["reduction"]["case"] == "II"
    comps = doc["multipliers"]["components"]
    assert "exp(-1/4*u2)" in comps["L2"]


def test_document_expressions_reparse(tmp_path, capsys):
    from pdelin.workspace import Workspace

    assert run(tmp_path, BURGERS, "linearize", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    wf = load_workspace_text(BURGERS)
    ws = wf.workspace
    for nm, text in doc["system"]["equations"].items():
        e = parse(text, ws)
        i = wf.equation_names.index(nm)
        assert e == wf.system.equations[i]
        assert parse(text, ws) == e

    # every expression in the document re-parses to an equal expression, in
    # the workspace that owns it
    src_ws = Workspace("xt", ["u1", "u2"], coordinates=["X", "T"])
    tgt_names = [k.split("(")[1].rstrip(")").strip()
                 for k in doc["transformation"] if k.startswith("z")]
    dep_names = [k.split("(")[1].rstrip(")").strip()
                 for k in doc["transformation"] if k.startswith("w")]
    tgt_ws = Workspace(tgt_names, dep_names)

    def reparse(text, workspace):
        e = parse(text.removesuffix(" = 0"), workspace)
        assert parse(to_text_roundtrip(e), workspace) == e

    def to_text_roundtrip(e):
        from pdelin.grammar import to_text
        return to_text(e)

    for row in doc["determining-system"]["equations"]:
        reparse(row["equation"], src_ws)
    for text in doc["multipliers"]["components"].values():
        reparse(text, src_ws)
    for text in doc["multipliers"]["constraint-rows"]:
        reparse(text, src_ws)
    for text in doc["augmented-identity"]["W"]:
        reparse(text, src_ws)
    for text in doc["augmented-identity"]["fluxes"]:
        reparse(text, src_ws)
    for text in doc["target-system"]:
        reparse(text, tgt_ws)


def test_max_terms_guard(tmp_path, capsys):
    from pdelin.expr import set_max_terms

    try:
        code = run(tmp_path, BURGERS, "linearize", "--max-terms", "5")
        out = capsys.readouterr().out
        assert code == 4
        assert "term limit" in out
    finally:
        set_max_terms(200000)


def test_determinism(tmp_path, capsys):
    run(tmp_path, BURGERS, "linearize", "--json")
    d1 = json.loads(capsys.readouterr().out)
    run(tmp_path, BURGERS, "linearize", "--json")
    d2 = json.loads(capsys.readouterr().out)
    d1["provenance"].pop("generated-at")
    d2["provenance"].pop("generated-at")
    assert d1 == d2


def test_not_linearizable_toy_exits_2(tmp_path, capsys):
    # this pins a gap of the packaging, not a rejection: the reducer
    # integrates the one determining equation u*L1_x - L1_t = 0 along its
    # characteristics to f1(x + u*t), one function of two arguments with no
    # constraint row, which no multiplier family packages; so the run ends
    # undetermined and says so (ROADMAP item 5)
    assert run(tmp_path, INVISCID_BURGERS, "linearize", "--json") == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["reduction"]["case"] == "undetermined"
    assert "the reducer did not finish" in doc["message"]


def test_undetermined_reduction_is_not_a_verdict(tmp_path, capsys):
    # G1 + G2 in place of G1 has the same solutions as Burgers, which
    # linearizes; the reducer stops short, and the message says so rather
    # than claiming that the system does not linearize
    lines = bundled_path("burgers").read_text().splitlines()
    new = "G1 = u2_x - 2*u1 + u2_t - 2*u1_x + u1^2"
    text = "\n".join(new if ln.startswith("G1 =") else ln for ln in lines)
    assert run(tmp_path, text, "linearize", "--json") == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["reduction"]["case"] == "undetermined"
    assert doc["message"] == (
        "no multiplier family of the arbitrary-function form was derived "
        "(case undetermined); the reducer did not finish, so whether the "
        "given system linearizes is not decided")


@pytest.mark.parametrize("g1, how", [("u_t - exp(u_xx)", "inside exp(u_xx)"),
                                     ("u_t - u_xx^(-1)", "with a negative power")])
def test_out_of_class_systems_are_input_errors(tmp_path, capsys, g1, how):
    # the default order-1 multipliers leave u_xx parametric, and the
    # determining system is not polynomial in it, so it cannot be split over
    # its monomials
    text = f"[vars]\nindependents = x, t\ndependents = u\n[system]\nG1 = {g1}\n"
    for command in ("detsys", "linearize"):
        assert run(tmp_path, text, command, "--json") == 3
        assert json.loads(capsys.readouterr().out)["message"] == (
            "the determining system is not polynomial in the parametric jet "
            f"u_xx: it occurs {how}")


def test_failed_component_closure_is_not_a_verdict(tmp_path, capsys):
    # the rotated Burgers system linearizes, but its derived family has
    # three kernels for two equations: the match gives up, which decides
    # nothing
    text = burgers_variant(*UNSOLVED_VARIANTS["rotation"][0])
    assert run(tmp_path, text, "linearize", "--json") == 2
    assert json.loads(capsys.readouterr().out)["message"] == (
        "the family's component system did not close (family has 3 distinct "
        "kernels but the system has 2 equations; cannot form the component "
        "system), so whether the given system linearizes is not decided")


def test_extraction_failure_exits_2(tmp_path, capsys):
    # v_t = v_xx matches with X = (x, t), but no W of degree up to the cap
    # solves the augmented identity of inviscid Burgers
    text = """
[vars]
independents = x, t
dependents   = u
coordinates  = X, T
[system]
G1 = u_t - u*u_x
[multipliers]
L1 = v(X, T)
X = x
T = t
row1 = v_{2}(X,T) - v_{1,1}(X,T)
"""
    assert run(tmp_path, text, "linearize", "--json") == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "rejected"
    assert doc["message"].startswith("dependent-part extraction failed: ")
    assert "MAX_W_DEGREE" in doc["message"]


def test_corrupted_w_rejected(tmp_path, capsys):
    code = run(tmp_path, CORRUPTED_W, "verify")
    assert code == 4
    out = capsys.readouterr().out
    assert "matches-target = False" in out or '"matches-target": false' in out


def test_corrupted_rho_rejected(tmp_path, capsys):
    code = run(tmp_path, CORRUPTED_RHO, "verify")
    assert code == 4
    out = capsys.readouterr().out
    assert "violated" in out


# (bundled system, the one line that starts with the key, its replacement,
# header line of the section the message names): values the constructors
# or the expression kernel reject while the file loads
BAD_SECTIONS = [
    ("burgers", "z2 =", "z2 = u2_t", 20),
    ("burgers", "kind =", "kind = contact", 20),
    ("pipeline", "row1 =", "row1 = X*T", 18),
    ("burgers", "G1 =", "G1 = x", 10),
    ("burgers", "G1 =", "G1 = u2_x^2 - u1^2", 10),
    # G1 repeats G2, and a leading rule u1 = u1_x^2
    ("burgers", "G1 =", "G1 = u2_t - 2*u1_x + u1^2", 10),
    ("burgers", "G1 =", "G1 = u1 - u1_x^2", 10),
    ("burgers", "H1 =", "H1 = w1/0", 29),
    # H1 repeats H2, so the target does not close
    ("burgers", "H1 =", "H1 = w1_x - w2_t", 29),
    # constraint kernels away from the coordinates X, T
    ("pipeline", "row1 =", "row1 = v_{2}(X,T) + pow(X,p)*v_{1,1}(X,T)"
     " + 2*p*pow(X,p-1)*v_{1}(p,T) + p*(p-1)*pow(X,p-2)*v(X,T)", 18),
    ("pipeline", "row1 =", "row1 = v_{2}(X,T) + pow(X,p)*v_{1,1}(u,T)"
     " + 2*p*pow(X,p-1)*v_{1}(X,T) + p*(p-1)*pow(X,p-2)*v(X,T)", 18),
    # a constraint coefficient outside the coordinates and parameters
    ("pipeline", "row1 =", "row1 = v_{2}(X,T) + x*pow(X,p)*v_{1,1}(X,T)"
     " + 2*p*pow(X,p-1)*v_{1}(X,T) + p*(p-1)*pow(X,p-2)*v(X,T)", 18),
    # an inhomogeneous constraint row
    ("telegraph", "row1 =",
     "row1 = f_{1}(x,t,u1,u2) + f_{4}(x,t,u1,u2) + 1", 18),
    # None deletes the lines: a contact transformation without rho1, rho2
    ("pipeline", "rho", None, 24),
]


def test_input_errors_exit_3(tmp_path, capsys):
    assert run(tmp_path, "[vars]\nbogus = 1\n", "detsys") == 3
    capsys.readouterr()
    assert run(tmp_path, BURGERS + "\n[system]\n", "detsys") == 3
    capsys.readouterr()
    assert main(["detsys", "/nonexistent/nowhere.ws"]) == 3
    capsys.readouterr()
    for name, key, new, line in BAD_SECTIONS:
        lines = bundled_path(name).read_text().splitlines()
        assert sum(ln.startswith(key) for ln in lines) == (2 if new is None else 1)
        edited = [new if ln.startswith(key) else ln for ln in lines]
        text = "\n".join(ln for ln in edited if ln is not None)
        for command in ("detsys", "linearize", "verify"):
            assert run(tmp_path, text, command, "--json") == 3
            doc = json.loads(capsys.readouterr().out)
            assert doc["status"] == "error"
            assert doc["message"].startswith(f"line {line}: [")


TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\d+|\S")


def mutate_token(text, rng):
    """Delete a token, replace it by another token of the same text, or
    insert that other token before it."""
    spans = [m.span() for m in TOKEN.finditer(text)]
    a, b = spans[rng.randrange(len(spans))]
    s, e = spans[rng.randrange(len(spans))]
    op = rng.randrange(3)
    if op == 0:
        return text[:a] + text[b:]
    if op == 1:
        return text[:a] + text[s:e] + text[b:]
    return text[:a] + text[s:e] + " " + text[a:]


class Timeout(Exception):
    pass


# the messages with which the commands themselves report a residual failure
RESIDUAL_MESSAGES = {"derived family fails verification",
                     "augmented identity residual is nonzero",
                     "linearization verification failed",
                     "verification reported a nonzero residual"}


def test_token_mutation_fuzz(tmp_path, capsys):
    # seeded single-token mutations of the bundled files, spread over the
    # three commands: each ends with an exit code well inside 30 s, and an
    # exit 4 is a residual failure, never an error escaping to the catch-all
    rng = random.Random(7)
    texts = [bundled_path(name).read_text() for name in SYSTEMS]

    def alarm(signum, frame):
        raise Timeout()

    previous = signal.signal(signal.SIGALRM, alarm)
    try:
        for case in range(99):
            text = mutate_token(texts[case % 3], rng)
            command = COMMANDS[case // 3 % 3]
            signal.alarm(30)
            try:
                code = run(tmp_path, text, command, "--json")
            except Timeout:
                code = "alarm"
            finally:
                signal.alarm(0)
            out = capsys.readouterr().out
            assert code in (0, 2, 3, 4), (case, command, text)
            if code == 4:
                message = json.loads(out)["message"]
                assert message in RESIDUAL_MESSAGES, (case, command, message)
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_leading_rules_are_reduced_against_each_other(tmp_path, capsys):
    # G1 = -2*u1 rules u1, on which G2 rules u2_t; G1 = u2_t - u1_x shares
    # the lead u2_t with G2, which then rules u1_x: no command reports a
    # cyclic rule set, and both equations stay on the solution manifold
    lines = bundled_path("burgers").read_text().splitlines()
    for new in ("G1 = - 2*u1", "G1 = u2_t - u1_x"):
        text = "\n".join(new if ln.startswith("G1 =") else ln for ln in lines)
        assert len(load_workspace_text(text).system.rules) == 2
        for command, want in (("detsys", 0), ("linearize", 2), ("verify", 4)):
            assert run(tmp_path, text, command, "--json") == want
            doc = json.loads(capsys.readouterr().out)
            if want == 4:
                assert doc["message"] in RESIDUAL_MESSAGES


def test_unknown_keys_are_errors():
    with pytest.raises(WorkspaceError):
        load_workspace_text(BURGERS.replace("order = 0", "ordre = 0"))


def test_verify_needs_content(tmp_path, capsys):
    assert run(tmp_path, BURGERS, "verify") == 3
    capsys.readouterr()


HEAT_ITSELF = """
[vars]
independents = x, t
dependents   = u
[system]
G1 = u_t - u_xx
[ansatz]
order = 0
"""

SEMILINEAR = """
[vars]
independents = x, t
dependents   = u
[system]
G1 = u_t - u_xx + u^2
[ansatz]
order = 0
"""

POTENTIAL_VARIANT = """
[vars]
independents = x, t
dependents   = u1, u2
[system]
G1 = u2_x - u1
G2 = u2_t - u1_x + 1/2*u1^2
[ansatz]
order = 0
"""


def test_generality_beyond_bundled_systems(tmp_path, capsys):
    # a linear equation maps to itself (w = -u), a semilinear one is
    # rejected, and a rescaled potential system derives the correctly
    # scaled exponential family
    assert run(tmp_path, HEAT_ITSELF, "linearize", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["augmented-identity"]["W"] == ["-u"]
    assert doc["match"]["jacobian"] == "1"

    assert run(tmp_path, SEMILINEAR, "linearize") == 2
    capsys.readouterr()

    assert run(tmp_path, POTENTIAL_VARIANT, "linearize", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["augmented-identity"]["residual"] == "0"
    assert "exp(-1/2*u2)" in doc["multipliers"]["components"]["L2"]


# the pipeline equation after the change of variables t -> t + x: the
# Jacobian u_xx + 2*u_xt + u_tt is a sum, and the second-order adjoint puts
# its square into a denominator
SHEARED_PIPELINE = """
[vars]
independents = x, t
dependents   = u
parameters   = p
coordinates  = X, T
[system]
G1 = u_t*(u_xx + 2*u_xt + u_tt) + pow(u_x + u_t, p)
[ansatz]
order = 1
[multipliers]
L1 = v(X, T)
X = u_x + u_t
T = t - x
row1 = v_{2}(X,T) + pow(X,p)*v_{1,1}(X,T) + 2*p*pow(X,p-1)*v_{1}(X,T) + p*(p-1)*pow(X,p-2)*v(X,T)
"""


def test_verify_clears_a_squared_sum_denominator(tmp_path, capsys):
    assert run(tmp_path, SHEARED_PIPELINE, "verify") == 0
    out = capsys.readouterr().out
    assert "flux-residual = 0" in out
    assert "fluxes unavailable" not in out


def test_linearize_takes_the_exact_contact_quotient(tmp_path, capsys):
    # rho_i = (J d W/dX_i) / J with the Jacobian J a sum: the numerator
    # comes expanded, so rho is its exact monomial quotient by J, free of
    # second derivatives
    assert run(tmp_path, SHEARED_PIPELINE, "linearize") == 0
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    for want in ("rho1 = x", "rho2 = -u_t", "mapping-check = ok"):
        assert want in lines


# Burgers after an invertible change of variables, each with its order-0
# multipliers derived: new x = a*x + c*t, new t = b*t, u1 -> k*u1 and
# u2 -> m*u2 for (a, b, c, k, m) in (1,1,1/2,1,1), (1,1,-3,1,1),
# (2,3,2/3,1,1), (1,1,1,3,1), (1/2,1,-1,1,-2), (1,2,5,1/3,1) and
# (-1,1,7/5,2,3); then u1 and u2 swapped; old u1 = u1 + u2; old u1 = u1 + x;
# old u2 = u2 + x*t; old t = t^3, whose W needs the t^(-2) that only the
# adjoint operator's coefficients hold
BURGERS_VARIANTS = [
    ("2*u1 - u2_x", "u1^2 + u1 - 2*u1_x + u2_t"),
    ("2*u1 - u2_x", "u1^2 - 6*u1 - 2*u1_x + u2_t"),
    ("u1 - u2_x", "3*u1^2 + 2*u1 - 12*u1_x + 9*u2_t"),
    ("2*u1 - 3*u2_x", "u1^2 + 6*u1 - 6*u1_x + 9*u2_t"),
    ("8*u1 + u2_x", "2*u1^2 - 8*u1 - 2*u1_x - u2_t"),
    ("6*u1 - u2_x", "9*u1^2 + 30*u1 - 6*u1_x + 2*u2_t"),
    ("3*u1 + u2_x", "15*u1^2 - 84*u1 + 60*u1_x + 20*u2_t"),
    ("u1_x - 2*u2", "u2^2 + u1_t - 2*u2_x"),
    ("2*u1 + 2*u2 - u2_x",
     "2*u1*u2 + u1^2 + u2^2 - 4*u1 - 2*u1_x - 4*u2 + u2_t"),
    ("2*x + 2*u1 - u2_x", "2*x*u1 + x^2 + u1^2 - 2*u1_x + u2_t - 2"),
    ("t - 2*u1 + u2_x", "u1^2 + x - 2*u1_x + u2_t"),
    ("u2_x - 2*u1", "1/3*t^(-2)*u2_t - 2*u1_x + u1^2"),
]
VARIANT_IDS = [*(f"affine{i}" for i in range(1, 8)), "swap", "u1+u2", "u1+x",
               "u2+xt", "t^3"]

# variants that linearize by a map with no closed-form inverse: old u2 =
# u2^3 and old u2 = exp(u2), whose reducer runs integrate a factor that
# depends on the dropped argument u2
UNINVERTED_VARIANTS = {
    "u2^3": ("3*u2^2*u2_x - 2*u1", "3*u2^2*u2_t - 2*u1_x + u1^2"),
    "exp(u2)": ("exp(u2)*u2_x - 2*u1", "exp(u2)*u2_t - 2*u1_x + u1^2"),
}

# variants that still exit 2, each with the gap that stops it (ROADMAP
# item 5 (c), (d) and (e))
UNSOLVED_VARIANTS = {
    "exp(x)": (("exp(-x)*u2_x - 2*u1", "u2_t - 2*exp(-x)*u1_x + u1^2"),
               "every residual term carries exp(-u2/4), three of them merged "
               "with exp(-2*x), so no pass divides it out"),
    "G1+G2": (("u2_x - 2*u1 + u2_t - 2*u1_x + u1^2",
               "u2_t - 2*u1_x + u1^2"),
              "L1_{3} + L2_{3} = 0 says L1 + L2 is free of u1, and no pass "
              "introduces an unknown for a combination"),
    "rotation": (("1/2*u2_x + 1/2*u2_t - 2*u1",
                  "1/2*u2_x - 1/2*u2_t - u1_x - u1_t + u1^2"),
                 "the constraint row's principal part has rank 1: the family "
                 "has 3 distinct kernels but the system 2 equations"),
}


def burgers_variant(g1, g2):
    return BURGERS.replace("G1 = u2_x - 2*u1", f"G1 = {g1}").replace(
        "G2 = u2_t - 2*u1_x + u1^2", f"G2 = {g2}")


@pytest.mark.parametrize("g1, g2", [
    *(pytest.param(*v, id=i) for v, i in zip(BURGERS_VARIANTS, VARIANT_IDS)),
    *(pytest.param(*v, id=i, marks=pytest.mark.xfail(strict=True, reason=r))
      for i, (v, r) in UNSOLVED_VARIANTS.items())])
def test_invertible_variants_of_burgers_linearize(tmp_path, capsys, g1, g2):
    # linearizability survives an invertible change of variables, and
    # order-0 multipliers stay order 0 under a point change
    assert run(tmp_path, burgers_variant(g1, g2), "linearize", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["augmented-identity"]["residual"] == "0"
    assert doc["verification"]["mapping-check"] == "ok"
    assert len(doc["target-system"]) == 2


@pytest.mark.parametrize("g1, g2", UNINVERTED_VARIANTS.values(),
                         ids=UNINVERTED_VARIANTS.keys())
def test_variants_without_a_closed_form_inverse_linearize(tmp_path, capsys,
                                                         g1, g2):
    # pinned until the map is verified through its forward form alone
    # (ROADMAP item 4)
    assert run(tmp_path, burgers_variant(g1, g2), "linearize", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["augmented-identity"]["residual"] == "0"
    assert doc["verification"]["identity-residuals"] == ["0", "0"]
    assert doc["verification"]["mapping-check"] == "skipped"
    assert doc["verification"]["messages"] == [
        "mapping cross-check skipped: no closed-form inverse available for "
        "this transformation"]
    assert len(doc["target-system"]) == 2


@pytest.mark.xfail(strict=True, reason=(
    "the reducer integrates u*L1_x - L1_t = 0 to f1(x + u*t), one function "
    "of two arguments with no constraint row, which no family packages"))
def test_inviscid_burgers_linearizes(tmp_path, capsys):
    assert run(tmp_path, INVISCID_BURGERS, "linearize", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["augmented-identity"]["residual"] == "0"
    assert len(doc["target-system"]) == 1


def test_every_reducer_step_solves_an_equation(tmp_path, capsys,
                                               monkeypatch):
    # the nine bundled jobs, telegraph with its multipliers derived and
    # every variant above, with each reducer pass checked; between them they
    # take a step of every pass
    taken = check_reducer_steps(monkeypatch)
    for system in SYSTEMS:
        for command in COMMANDS:
            main([command, system])
    telegraph = bundled_path("telegraph").read_text()
    run(tmp_path, telegraph[:telegraph.index("[multipliers]")], "detsys")
    for g1, g2 in [*BURGERS_VARIANTS, *UNINVERTED_VARIANTS.values(),
                   *(v for v, _ in UNSOLVED_VARIANTS.values())]:
        run(tmp_path, burgers_variant(g1, g2), "linearize")
    run(tmp_path, INVISCID_BURGERS, "linearize")
    capsys.readouterr()
    assert set(taken) == {"_pass_characteristics", "_pass_algebraic",
                          "_pass_potential"}


def test_only_a_bare_name_reads_a_bundled_system(tmp_path, monkeypatch,
                                                capsys):
    # a missing path is an input error naming it, even when its file name
    # is that of a bundled system
    monkeypatch.chdir(tmp_path)
    for path in ("/no/such/dir/telegraph.ws", str(tmp_path / "burgers.ws"),
                 "./burgers", "nosuch"):
        assert main(["detsys", path, "--json"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["message"].startswith(f"cannot read '{path}': ")
    assert main(["detsys", "burgers.ws"]) == 0


def test_usage_errors_exit_3():
    # argparse usage failures map to the input-error code; 2 stays reserved
    # for rejected linearizations
    with pytest.raises(SystemExit) as ei:
        main(["bogus", "x"])
    assert ei.value.code == 3
    with pytest.raises(SystemExit) as ei:
        main(["detsys", "burgers", "--no-such-flag"])
    assert ei.value.code == 3
    with pytest.raises(SystemExit) as ei:
        main(["--help"])
    assert ei.value.code == 0


def _bundled(name):
    return bundled_path(name).read_text(encoding="utf-8")


# each input once raised an uncaught ValueError from int() in the loader,
# unless marked otherwise
BAD_INPUTS = {
    "ansatz-order-letter": BURGERS.replace("order = 0", "order = X"),
    "ansatz-order-plus": BURGERS.replace("order = 0", "order = 0+"),
    "ansatz-order-empty": BURGERS.replace("order = 0", "order ="),
    # once exited 4 with the ExprError of the order cap
    "ansatz-order-above-cap": BURGERS.replace("order = 0", "order = 2"),
    "multiplier-key-superscript": _bundled("telegraph").replace(
        "L1 = f_{4}", "L\u00b2 = f_{4}"),
    "transformation-key-superscript": _bundled("burgers").replace(
        "z1 = x", "z\u00b2 = x"),
    "derivative-position-superscript": _bundled("telegraph").replace(
        "f_{3,3}", "f_{\u00b2,3}"),
}


def fresh_python(code, *args):
    """Run `code` with `args` in a fresh interpreter that imports this
    checkout's pdelin."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_3_without_traceback(tmp_path, case):
    f = tmp_path / "case.ws"
    f.write_text(BAD_INPUTS[case], encoding="utf-8")
    proc = fresh_python(
        "import sys; from pdelin.cli import main; sys.exit(main())",
        "linearize", str(f))
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 3, proc.stdout


def test_removed_knobs_are_input_errors(tmp_path, capsys):
    # the leading jets and the multiplier arguments follow from the system,
    # and [ansatz] order is the one way to set the order; each removed
    # override once loaded and ran
    for text, message in (
            (BURGERS.replace("[ansatz]", "[leading]\nG2 = u2_t\n[ansatz]"),
             "line 8: unknown section [leading]"),
            (BURGERS.replace("order = 0", "order = 0\narguments = x, u1"),
             "line 10: unknown [ansatz] key 'arguments'")):
        assert run(tmp_path, text, "detsys", "--json") == 3
        assert json.loads(capsys.readouterr().out)["message"] == message
    with pytest.raises(SystemExit) as ei:
        main(["detsys", "burgers", "--ansatz-order", "0"])
    assert ei.value.code == 3
    assert "unrecognized arguments: --ansatz-order 0" in capsys.readouterr().err


STAGES = ("extract_dependent_part", "build_mapping", "target_system")


@pytest.mark.parametrize("system", ("burgers", "pipeline", "telegraph"))
def test_linearize_runs_each_stage_once(monkeypatch, capsys, system):
    # rebind every binding of each stage in the loaded pdelin modules, the
    # way an outside tracer wraps them, and count the calls
    calls = dict.fromkeys(STAGES, 0)
    for name in STAGES:
        original = getattr(linearize, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for modname, module in list(sys.modules.items()):
            if modname.startswith("pdelin") and \
                    getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    assert main(["linearize", system]) == 0
    capsys.readouterr()
    assert calls == dict.fromkeys(STAGES, 1)


@pytest.mark.parametrize("system", ("burgers", "pipeline", "telegraph"))
def test_linearize_builds_adjoint_and_chain_rule_once(monkeypatch, capsys,
                                                      system):
    # L~* is built once per job, however many stages read it; so is each
    # of the two chain rules, whose adjugates are the only ones built: d/dX
    # of the candidate and D_x of the inverse in apply_transformation; and
    # so is L~* composed with X, not once per basis degree or column; the
    # chain-rule rows are computed twice: once of formal kernels, which
    # give the W solve its operator, and once of the W found, for the
    # confirmation of the solve, read again by verify_linearization
    calls = {"adjoint": 0, "adjugate": 0, "composed": 0, "adjoint_rows": 0}
    adjoint, adjugate = LinearOperator.adjoint, mapping.adjugate
    apply, composed = LinearOperator.apply, linearize.composed_operator

    def counting_adjoint(self):
        calls["adjoint"] += 1
        return adjoint(self)

    def counting_adjugate(mat):
        calls["adjugate"] += 1
        return adjugate(mat)

    def counting_composed(cand):
        calls["composed"] += 1
        return composed(cand)

    def counting_apply(self, W, derive=None, coefficient=None):
        # only `adjoint_rows` composes the coefficients with X(x,U)
        calls["adjoint_rows"] += coefficient is not None
        return apply(self, W, derive, coefficient)

    monkeypatch.setattr(LinearOperator, "adjoint", counting_adjoint)
    monkeypatch.setattr(LinearOperator, "apply", counting_apply)
    monkeypatch.setattr(mapping, "adjugate", counting_adjugate)
    monkeypatch.setattr(linearize, "composed_operator", counting_composed)
    assert main(["linearize", system]) == 0
    capsys.readouterr()
    assert calls == {"adjoint": 1, "adjugate": 2, "composed": 1,
                     "adjoint_rows": 2}


# what a cold job must not load: mpmath (exp and log run on integers),
# stdlib modules that records, timestamps and the text output do without,
# and hashlib, whose OpenSSL the input digest does without
NOT_LOADED = ("mpmath", "dataclasses", "inspect", "datetime", "json",
              "hashlib", "_hashlib", "_blake2")


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("command", COMMANDS)
def test_a_cold_job_loads_only_what_it_needs(command, system):
    proc = fresh_python(
        "import contextlib, io, os, sys\n"
        "before = set(sys.modules)\n"
        "from pdelin.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(sys.argv[1:]) == 0\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
        "if os.path.exists('/proc/self/maps'):\n"
        "    with open('/proc/self/maps') as fh:\n"
        "        print('maps', *sorted({line.split()[-1] for line in fh}))\n",
        command, system)
    assert proc.returncode == 0, proc.stderr
    modules, _, maps = proc.stdout.partition("\n")
    new = {m.split(".")[0] for m in modules.split()}
    assert "pdelin" in new
    assert not new & set(NOT_LOADED), sorted(new & set(NOT_LOADED))
    if not maps.startswith("maps"):
        pytest.skip("no /proc/self/maps: the mapped libraries go unchecked")
    names = [os.path.basename(path) for path in maps.split()[1:]]
    assert not [n for n in names if n.startswith(("libcrypto", "libssl"))]


@pytest.mark.parametrize("text", [
    *(bundled_path(name).read_text(encoding="utf-8") for name in SYSTEMS),
    "", "# ü\n[vars]\n"], ids=[*SYSTEMS, "empty", "non-ascii"])
def test_input_digest_is_sha256_of_the_utf8_text(text):
    assert (cli._provenance(text)["input-sha256"]
            == hashlib.sha256(text.encode()).hexdigest())


def test_digest_without_the_builtin_sha256_falls_back_to_hashlib():
    # an interpreter built without _sha256 and _sha2 hashes through hashlib:
    # the same function, so the same document
    proc = fresh_python(
        "import sys\n"
        "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
        "from pdelin.cli import main, sha256\n"
        "import hashlib\n"
        "assert sha256 is hashlib.sha256\n"
        "sys.exit(main(sys.argv[1:]))\n",
        "detsys", "burgers")
    assert proc.returncode == 0, proc.stderr
    assert (GENERATED_AT.sub("", proc.stdout)
            == reference_document("detsys", "burgers"))


def test_json_output_is_valid_json():
    proc = fresh_python(
        "import sys; from pdelin.cli import main; sys.exit(main())",
        "linearize", "burgers", "--json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["command"] == "linearize" and doc["status"] == "ok"
