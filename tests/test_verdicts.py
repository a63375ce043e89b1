"""Every verdict has an input: each rejection of the multiplier-form match,
each input error and input limit, each give-up of flux reconstruction and
each iteration cap is reached here by the smallest input found, with its
exit code and its message.  Rejections use declared `[multipliers]`
families, so that changes to the reducer's passes cannot move them."""

import json
import os
import subprocess
import sys
import time

import pytest

from helpers import burgers_workspace
from pdelin import conslaw, constraints, jets
from pdelin.cli import bundled_path, main
from pdelin.conslaw import multiplier_combination, reconstruct_fluxes
from pdelin.constraints import LinearConstraints
from pdelin.errors import (ExprError, NotADivergenceError, ParseError,
                           WorkspaceError)
from pdelin.expr import Jet, add, neg, rat, total_derivative
from pdelin.grammar import MAX_LITERAL_DIGITS, MAX_NESTING, parse
from pdelin.jets import PdeSystem, SymmetryGenerator, verify_point_symmetry
from pdelin.linops import LinearOperator
from pdelin.mapping import (Transformation, apply_transformation,
                            check_contact_condition)
from pdelin.workspace import Workspace

SCALAR = "[vars]\nindependents = x, t\ndependents = u\n"
HEAT = SCALAR + "[system]\nG1 = u_t - u_xx\n"
# the heat equation and Burgers with the coordinates X = x, T = t declared
HEAT_FAMILY = (SCALAR + "coordinates = X, T\n[system]\nG1 = u_t - u_xx\n"
               "[multipliers]\nX = x\nT = t\n")
BURGERS_FAMILY = """[vars]
independents = x, t
dependents = u1, u2
coordinates = X, T
[system]
G1 = u2_x - 2*u1
G2 = u2_t - 2*u1_x + u1^2
[multipliers]
X = x
T = t
"""


def run(tmp_path, text, command, *flags):
    """The exit code and the JSON document of one in-process run."""
    f = tmp_path / "case.ws"
    f.write_text(text, encoding="utf-8")
    capture = tmp_path / "out.json"
    with open(capture, "w", encoding="utf-8") as out:
        stdout, sys.stdout = sys.stdout, out
        try:
            code = main([command, str(f), "--json", *flags])
        finally:
            sys.stdout = stdout
    return code, json.loads(capture.read_text(encoding="utf-8"))


def bundled(name, old, new):
    """A bundled system with the one occurrence of `old` replaced."""
    text = bundled_path(name).read_text(encoding="utf-8")
    assert text.count(old) == 1, old
    return text.replace(old, new)


# ---------------------------------------------------------------------------
# the rejections of the multiplier-form match
# ---------------------------------------------------------------------------

DECIDED = "not linearizable as presented: "
UNDECIDED = ", so whether the given system linearizes is not decided"

MATCH_REJECTIONS = {
    "coordinate-count": (
        SCALAR + "coordinates = X\n[system]\nG1 = u_t - u_xx\n"
                 "[multipliers]\nX = x\nL1 = f(X)\n",
        DECIDED + "1 coordinate definitions for 2 independent variables: "
                  "multiplier arguments do not form new coordinates"),
    "dependent-coordinates": (
        HEAT_FAMILY.replace("T = t", "T = 2*x") + "L1 = f(X, T)\n",
        DECIDED + "coordinate definitions are functionally dependent "
                  "(Jacobian vanishes)"),
    "beyond-contact": (
        HEAT_FAMILY.replace("X = x", "X = u_xx") + "L1 = f(X, T)\n",
        DECIDED + "coordinate <u_xx> depends on <u_xx>; beyond contact form"),
    "function-count": (
        HEAT_FAMILY + "L1 = f(X, T) + g(X, T)\n",
        DECIDED + "2 arbitrary functions for 1 equations; Q cannot be square"),
    "not-linear": (
        HEAT_FAMILY + "L1 = f(X, T)^2\n",
        DECIDED + "multiplier 1 is not linear in the arbitrary functions"),
    # two functions, each only in a constraint row
    "no-function": (
        BURGERS_FAMILY + "L1 = 1\nL2 = 0\nrow1 = f_{1}(X, T)\n"
                         "row2 = g_{1}(X, T)\n",
        DECIDED + "multipliers carry no arbitrary function; factored-form "
                  "recovery impossible"),
    "derivative-kernel": (
        BURGERS_FAMILY + "L1 = f_{1}(X, T)\nL2 = g(X, T)\n",
        DECIDED + "multiplier 1 holds derivative kernels or a function-free "
                  "part; not of the required form"),
    "degenerate-q": (
        BURGERS_FAMILY + "L1 = f(X, T) + g(X, T)\nL2 = f(X, T) + g(X, T)\n",
        DECIDED + "factor matrix Q is degenerate"),
    "row-count": (
        BURGERS_FAMILY + "L1 = f(X, T)\nL2 = g(X, T)\n",
        DECIDED + "constraint operator has 0 rows; need m = 2"),
    # one function, only in a constraint row: the component system has no
    # kernel to name
    "no-kernel": (
        HEAT_FAMILY + "L1 = 1\nrow1 = f_{1}(X, T)\n",
        "the family's component system did not close (family components "
        "hold no arbitrary-function kernels)" + UNDECIDED),
    # f_{1,2} and f_{2} named: D_X f_{1,2} = f_{2,1,2} is solved by neither
    # a named kernel nor the first constraint row
    "closure-via-constraint": (
        BURGERS_FAMILY + "L1 = f_{1,2}(X, T)\nL2 = f_{2}(X, T)\n"
                         "row1 = X*f_{2,2}(X, T) - f_{1,2}(X, T) + f(X, T)\n"
                         "row2 = X*f(X, T) - f_{2}(X, T)\n",
        "the family's component system did not close (component-system "
        "closure found 1 rows; expected 2)" + UNDECIDED),
    # f_{1,2} and f_{1,1} named v1 and v2: the rows v1_X - v2_T and
    # v2_T - v1_X are one row
    "closure-repeated-row": (
        BURGERS_FAMILY + "L1 = f_{1,1}(X, T)\nL2 = f_{1,2}(X, T)\n",
        "the family's component system did not close (component-system "
        "closure found 1 rows; expected 2)" + UNDECIDED),
    # transport: f_{1} is the one named kernel, and neither coordinate
    # derivative of it is a named kernel or solved by a constraint
    "no-closure": (
        SCALAR + "coordinates = X, T\n[system]\nG1 = u_t - u_x\n"
                 "[multipliers]\nX = x + t\nT = u\nL1 = f_{1}(X, T)\n",
        "the family's component system did not close (component-system "
        "closure found 0 rows; expected 1)" + UNDECIDED),
}


@pytest.mark.parametrize("case", MATCH_REJECTIONS)
def test_each_match_rejection_has_an_input(tmp_path, case):
    text, message = MATCH_REJECTIONS[case]
    code, doc = run(tmp_path, text, "linearize")
    assert code == 2
    assert doc["status"] == "rejected"
    assert doc["message"] == message


def test_a_verified_family_the_match_rejects_has_no_fluxes(tmp_path):
    # every f(x + t, u) is a multiplier of transport, so the family
    # verifies; its fluxes would come from the factored form, which it
    # does not have
    text = MATCH_REJECTIONS["no-closure"][0]
    code, doc = run(tmp_path, text, "verify")
    assert code == 0
    vdoc = doc["multiplier-verification"]
    assert vdoc["ok"] is True
    assert vdoc["messages"] == [
        "fluxes unavailable: family does not match the factored form: the "
        "family's component system did not close (component-system closure "
        "found 0 rows; expected 1)"]


# ---------------------------------------------------------------------------
# declared families without arbitrary functions
# ---------------------------------------------------------------------------


def test_a_constant_multiplier_conserves_u(tmp_path):
    code, doc = run(tmp_path, HEAT + "[multipliers]\nL1 = 1\n", "verify")
    assert code == 0
    vdoc = doc["multiplier-verification"]
    assert vdoc["fluxes"] == ["-u_x", "u"]
    assert vdoc["flux-residual"] == "0"


@pytest.mark.parametrize("command, key", [("detsys", "family-verification"),
                                          ("verify", "multiplier-verification")])
def test_a_zero_multiplier_is_flagged(tmp_path, command, key):
    text = SCALAR + "[system]\nG1 = u_t - u_x\n[multipliers]\nL1 = 0\n"
    code, doc = run(tmp_path, text, command)
    assert code == 0
    assert doc[key]["warnings"] == [
        "multiplier 1 vanishes identically on solutions"]


def test_flux_reconstruction_gives_up_on_a_kernel_holding_a_jet(tmp_path):
    # exp(u)*(u_t - u_x) is D_t exp(u) - D_x exp(u), but the sweep cannot
    # absorb u_x inside exp(u) and the homotopy formula needs polynomials;
    # (u_t - u_x)/u is D_t log(u) - D_x log(u), with u at a negative power:
    # each law is verified, and the flux give-up is reported, not an error
    for multiplier in ("exp(u)", "1/u"):
        text = (SCALAR + "[system]\nG1 = u_t - u_x\n[multipliers]\n"
                f"L1 = {multiplier}\n")
        code, doc = run(tmp_path, text, "verify")
        assert code == 0, multiplier
        vdoc = doc["multiplier-verification"]
        assert vdoc["ok"] is True and "fluxes" not in vdoc
        assert vdoc["messages"] == ["fluxes unavailable: flux "
                                    "reconstruction failed on a "
                                    "non-polynomial remainder"]


def test_flux_sweep_cap_hands_the_rest_to_the_homotopy(monkeypatch):
    ws = Workspace("xt", ["u"])
    u = ws.lookup("u")
    conserved = parse("u_t - u_x", ws)
    monkeypatch.setattr(conslaw, "MAX_FLUX_SWEEPS", 2)
    # two sweeps absorb u_t - u_x completely
    assert reconstruct_fluxes(conserved, ws) == [neg(u), u]
    monkeypatch.setattr(conslaw, "MAX_FLUX_SWEEPS", 1)
    # the homotopy formula takes the polynomial rest u_t, whose x-flux is 0
    assert reconstruct_fluxes(conserved, ws) == [neg(u), u]
    # and a rest that is not polynomial in the jets names the cap:
    # D_x(u_t + exp(u)) leaves exp(u)*u_x after one sweep
    with pytest.raises(NotADivergenceError, match="sweep cap MAX_FLUX_SWEEPS"
                                                  " = 1 exhausted"):
        reconstruct_fluxes(parse("u_xt + exp(u)*u_x", ws), ws)


@pytest.mark.parametrize("divergence, error, message", [
    # D_x exp(u_x): u_x sits inside a kernel, and the homotopy formula
    # needs a polynomial
    ("exp(u_x)*u_xx", NotADivergenceError, "non-polynomial remainder"),
    # D_x u_x written with a denominator that cancels: u_xx occurs squared
    ("u_xx^2/(u_xx+1) + u_xx/(u_xx+1)", NotADivergenceError,
     "non-polynomial remainder"),
    # D_x u so written: the term u*u_x/(u_xx + u), first in canonical
    # order, holds u_xx inside a kernel
    ("u_x*u_xx/(u_xx + u) + u*u_x/(u_xx + u)", NotADivergenceError,
     "non-polynomial remainder"),
    # D_x log(u_x): u_x at a negative power, which the homotopy formula
    # would set to 0
    ("u_xx/u_x", NotADivergenceError, "non-polynomial")])
def test_flux_reconstruction_give_ups(divergence, error, message):
    ws = Workspace("xt", ["u"])
    with pytest.raises(error, match=message):
        reconstruct_fluxes(parse(divergence, ws), ws)


@pytest.mark.parametrize("divergence", [
    # jet-free: D_x(x*log(x)) and D_x exp(x^2) have no antiderivative in x
    # of the form the sweep knows, so they are integrated in t
    "log(x) + 1",
    "2*x*exp(x^2)"])
def test_fluxes_of_a_divergence(divergence):
    ws = Workspace("xt", ["u"])
    x, t = ws.independents
    e = parse(divergence, ws)
    fx, ft = reconstruct_fluxes(e, ws)
    assert add(total_derivative(fx, x), total_derivative(ft, t)) == e


def test_a_divergence_without_an_antiderivative_gives_up():
    # D_x log(x) in one variable: jet-free, and no closed form integrates
    # 1/x
    ws = Workspace("x", ["u"])
    with pytest.raises(NotADivergenceError, match="non-polynomial"):
        reconstruct_fluxes(parse("1/x", ws), ws)
    with pytest.raises(NotADivergenceError, match="nonzero Euler image"):
        reconstruct_fluxes(ws.lookup("u"), ws)


# ---------------------------------------------------------------------------
# input errors: exit 3 with a message
# ---------------------------------------------------------------------------

BURGERS = bundled_path("burgers").read_text(encoding="utf-8")
PIPELINE = bundled_path("pipeline").read_text(encoding="utf-8")

INPUT_ERRORS = {
    # wsfile
    "content-before-section": ("x = 1\n" + HEAT,
                               "line 1: content before any section"),
    "no-dependents": ("[vars]\nindependents = x, t\n[system]\nG1 = x\n",
                      "[vars] must declare independents and dependents"),
    "unknown-preset": (HEAT + "[ansatz]\npreset = special\n",
                       "line 7: unknown preset 'special'"),
    "target-alone": (HEAT + "[target]\nH1 = u_t\n",
                     "[target] requires [transformation]"),
    "missing-component": (
        BURGERS.replace("[transformation]", "[multipliers]\nL1 = 1\n"
                                            "[transformation]"),
        "[multipliers] must define L1..Lm for every equation"),
    "kernel-arguments-disagree": (
        HEAT + "[multipliers]\nL1 = f(x, t) + g(x, u)\n",
        "[multipliers] kernels disagree on their arguments"),
    "composite-kernel-arguments": (
        HEAT + "[multipliers]\nL1 = f(x + t, t)\n",
        "[multipliers] without coordinate definitions need atomic kernel "
        "arguments"),
    "no-kind": (BURGERS.replace("kind = point\n", ""),
                "[transformation] needs kind = point | contact"),
    "no-vars": (BURGERS.replace("vars = x, t\n", ""),
                "[transformation] needs vars = ... and deps = ..."),
    "no-z2": (BURGERS.replace("z2 = t\n", ""),
              "[transformation] must define z1..zn"),
    "no-w2": (BURGERS.replace("w2 = -exp(-u2/4)\n", ""),
              "[transformation] must define w1..wm"),
    "no-rho2": (PIPELINE.replace("rho2 = -u_t\n", ""),
                "[transformation] must define rho1..rhon"),
    # grammar
    "unterminated-positions": (SCALAR + "[system]\nG1 = u_t - f_{1(x)\n",
                               "unterminated '{' in derivative suffix "
                               "(at position 8)"),
    "symbolic-negative-exponent": (SCALAR + "[system]\nG1 = u_t - u^-x\n",
                                   "expected integer exponent (at position 9)"),
    "exp-arity": (SCALAR + "[system]\nG1 = u_t - exp(u, u)\n",
                  "exp takes one argument (at position 6)"),
    "log-arity": (SCALAR + "[system]\nG1 = u_t - log(u, u)\n",
                  "log takes one argument (at position 6)"),
    "pow-arity": (SCALAR + "[system]\nG1 = u_t - pow(u)\n",
                  "pow takes two arguments (at position 6)"),
    "empty-positions": (HEAT + "[multipliers]\nL1 = f_{}(x, t)\n",
                        "empty derivative-position list (at position 0)"),
    "log-of-zero": (SCALAR + "[system]\nG1 = u_t - log(0)\n",
                    "line 4: [system]: log of zero"),
    # workspace
    "repeated-name": (HEAT.replace("x, t", "x, x"),
                      "identifier 'x' already declared"),
    "long-independent": (HEAT.replace("x, t", "xy, t"),
                         "independent variable 'xy' must be a single letter "
                         "(jet suffixes are letter sequences)"),
    # constraint rows
    "two-rules-one-kernel": (
        HEAT_FAMILY + "L1 = f(X, T)\nrow1 = f_{2}(X, T) - f(X, T)\n"
                      "row2 = f_{2}(X, T) + f(X, T)\n",
        "line 7: [multipliers]: two rules solve for the same kernel "
        "<f_{2}(X, T)>"),
    "row-without-kernel": (HEAT_FAMILY + "L1 = f(X, T)\nrow1 = 0\n",
                           "line 7: [multipliers]: row 1 holds no function "
                           "kernel"),
    "nonlinear-row": (HEAT_FAMILY + "L1 = f(X, T)\nrow1 = f(X, T)^2\n",
                      "line 7: [multipliers]: row 1 is not linear in its "
                      "kernels"),
    # the multiplier order
    "scalar-order-3": (HEAT + "[ansatz]\norder = 3\n",
                       "scalar contact case allows multiplier order at "
                       "most 2"),
}


@pytest.mark.parametrize("case", INPUT_ERRORS)
def test_each_input_error_has_an_input(tmp_path, case):
    text, message = INPUT_ERRORS[case]
    command = "verify" if "[transformation]" in text else "detsys"
    code, doc = run(tmp_path, text, command)
    assert code == 3
    assert doc["status"] == "error"
    assert doc["message"] == message


def test_an_exp_argument_that_only_looks_linear_has_no_inverse(tmp_path):
    # the derivative of x + x/(x + 1) + 1/(x + 1) in x is 1 only once
    # cleared of denominators; as written it holds x, so x is not solved
    # through the exp
    code, doc = run(tmp_path, bundled("burgers", "z1 = x",
                                      "z1 = exp(x + x/(x+1) + 1/(x+1))"),
                    "verify")
    assert code == 4
    assert doc["message"] == ("ExprError: no closed-form inverse available "
                              "for this transformation")


def test_a_probe_point_outside_the_domain_skips_its_cross_check(tmp_path):
    # at seed 21 a random point of the identity cross-check makes a
    # denominator of a telegraph row vanish: that row's probe is skipped,
    # and the symbolic zero stands
    code, doc = run(tmp_path, bundled_path("telegraph").read_text(),
                    "linearize", "--seed", "21")
    assert code == 0
    assert doc["verification"]["identity-residuals"] == ["0", "0"]
    assert doc["verification"]["mapping-check"] == "ok"


def test_a_vanishing_jacobian_is_reported(tmp_path):
    code, doc = run(tmp_path, bundled("burgers", "z2 = t", "z2 = x"), "verify")
    assert code == 4
    assert doc["message"] == ("DegenerateError: transformation Jacobian "
                              "vanishes")


def test_a_target_with_another_equation_count_does_not_match(tmp_path):
    code, doc = run(tmp_path, bundled("burgers", "H2 = w1_x - w2_t\n", ""),
                    "verify")
    assert code == 4
    assert doc["transformation-verification"]["matches-target"] is False
    assert doc["message"] == "verification reported a nonzero residual"


# ---------------------------------------------------------------------------
# input limits: no traceback, whatever the input
# ---------------------------------------------------------------------------

def nested(open_, inner, depth):
    return open_ * depth + inner + ")" * depth


LIMIT_INPUTS = {
    "parentheses": (nested("(", "u_x", 200), 3,
                    "parentheses nested deeper than MAX_NESTING = 64 "
                    "(at position 70)"),
    "exp-chain": (nested("exp(", "u_x", 150), 3,
                  "parentheses nested deeper than MAX_NESTING = 64 "
                  "(at position 265)"),
    "long-literal": ("7" * 5000 + "*u_x", 3,
                     "integer literal longer than MAX_LITERAL_DIGITS = 4300 "
                     "digits (at position 6)"),
    "large-power": ("99^3000*u_x", 0, None),
    "sign-run": ("- " * 5000 + "u_x", 0, None),
}


@pytest.mark.parametrize("case", LIMIT_INPUTS)
def test_input_limits_end_without_a_traceback(tmp_path, case):
    rhs, exit_code, message = LIMIT_INPUTS[case]
    f = tmp_path / "case.ws"
    f.write_text(f"{SCALAR}[system]\nG1 = u_t - {rhs}\n[ansatz]\norder = 0\n",
                 encoding="utf-8")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "pdelin.cli", "detsys",
                           str(f), "--json"], capture_output=True, text=True,
                          env=env, timeout=60)
    assert time.monotonic() - start < 20
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == exit_code, proc.stdout
    doc = json.loads(proc.stdout)
    assert doc.get("message") == message


def test_nesting_up_to_the_cap_parses_and_prints():
    ws = Workspace("xt", ["u"])
    e = parse(nested("exp(", "u", MAX_NESTING), ws)
    assert parse(repr(e)[1:-1], ws) == e
    with pytest.raises(ParseError, match="MAX_NESTING"):
        parse(nested("exp(", "u", MAX_NESTING + 1), ws)


def test_integers_past_the_str_limit_print_in_full():
    ws = Workspace("xt", ["u"])
    text = repr(parse("99^3000*u", ws))[1:-1]
    digits = text.removesuffix("*u")
    assert len(digits) == 5987 and digits.isdecimal()
    # read back in blocks that int() accepts
    value = 0
    for i in range(0, len(digits), 1000):
        block = digits[i:i + 1000]
        value = value * 10 ** len(block) + int(block)
    assert value == 99 ** 3000
    assert repr(parse("u^(99^3000)", ws)).endswith(digits + ">")
    assert parse("7" * MAX_LITERAL_DIGITS, ws) == rat(int("7" * 4300))
    with pytest.raises(ParseError, match="MAX_LITERAL_DIGITS"):
        parse("7" * (MAX_LITERAL_DIGITS + 1), ws)


# ---------------------------------------------------------------------------
# the reducer
# ---------------------------------------------------------------------------


def test_step_names_the_integral_when_the_factor_depends_on_its_argument(
        tmp_path):
    # Burgers with old u2 = u2^3: the reducer's factor is exp(-1/4*u2^3),
    # the antiderivative of a = 3/4*u2^2, not exp(-a*u2)
    text = BURGERS_FAMILY.split("[multipliers]")[0].replace(
        "coordinates = X, T\n", "").replace(
        "G1 = u2_x - 2*u1", "G1 = 3*u2^2*u2_x - 2*u1").replace(
        "G2 = u2_t", "G2 = 3*u2^2*u2_t") + "[ansatz]\norder = 0\n"
    code, doc = run(tmp_path, text, "detsys")
    assert code == 0
    assert doc["reduction"]["steps"][-1] == (
        "f1 integrated: factor exp(-int a d arg3)")
    assert "exp(-1/4*u2^3)" in doc["multipliers"]["components"]["L2"]
    # Burgers itself: a = 1/4 is free of u2
    code, doc = run(tmp_path, BURGERS, "detsys")
    assert doc["reduction"]["steps"][-1] == "f1 integrated: factor exp(-a*arg3)"


def test_coordinates_past_x_t_y_z_are_letters(tmp_path):
    # Burgers over independents X, T and dependents Y, Z: the packaged
    # coordinates take the next free letters, which the linear target can
    # use as its independents
    text = ("[vars]\nindependents = X, T\ndependents = Y, Z\n[system]\n"
            "G1 = Z_X - 2*Y\nG2 = Z_T - 2*Y_X + Y^2\n[ansatz]\norder = 0\n")
    code, doc = run(tmp_path, text, "linearize")
    assert code == 0
    assert doc["multipliers"]["coordinates"] == {"A": "X", "B": "T"}
    assert doc["target-system"] == ["-w1_A - w2_B = 0", "-w1 - w2_A = 0"]


@pytest.mark.parametrize("g1, steps", [
    # a characteristic ratio -1/(x*t) outside the invariant catalog
    ("u_t - x*u_x", []),
    # a sum u/(u + 1) + 1/(u + 1) - 1 that is zero only once cleared of
    # its denominator: a split coefficient and an Euler term vanish
    ("u_t + u_x - u_x*u/(u+1) - u_x/(u+1)",
     ["L1 does not depend on argument 2; renamed to f1"])])
def test_reducer_runs_without_a_family(tmp_path, g1, steps):
    text = f"{SCALAR}[system]\nG1 = {g1}\n[ansatz]\norder = 0\n"
    code, doc = run(tmp_path, text, "detsys")
    assert code == 0
    assert doc["reduction"]["case"] == "undetermined"
    assert doc["reduction"]["steps"] == steps


def test_algebraic_pass_skips_a_coefficient_that_cancels():
    # f's coefficient x/(x + 1) + 1/(x + 1) - 1 is 0 once cleared, so the
    # row does not determine f; g_{1,1} is no underived kernel, and no pass
    # takes the row
    ws = Workspace("xt", ["u"])
    x, t = ws.independents
    row = parse("x*f(x,t)/(x+1) + f(x,t)/(x+1) - f(x,t) + g_{1,1}(x,t)", ws)
    state = conslaw._ReducerState(["f", "g"], (x, t), [row])
    state.run()
    assert state.steps == []
    assert state.live_equations() == [row]


@pytest.mark.parametrize("g1, g2", [
    # two second-order kernels, and coefficients that do not cancel
    ("u_t - v_xx", "v_t - u_xx"),
    # (x + 1)*(L1_x - L2_t): an exactness relation with a nonconstant factor
    ("u_t - (x+1)*v_x", "v_t - (x+1)*u_x"),
    # an algebraic solve whose value holds an atom outside the arguments
    ("u_x - u^2*v - u*v", "v_t - u*u_xx")])
def test_reducer_passes_decline(tmp_path, g1, g2):
    text = (f"[vars]\nindependents = x, t\ndependents = u, v\n[system]\n"
            f"G1 = {g1}\nG2 = {g2}\n[ansatz]\norder = 0\n")
    code, doc = run(tmp_path, text, "linearize")
    assert code == 2
    assert doc["reduction"]["case"] in ("I", "undetermined")


# ---------------------------------------------------------------------------
# iteration caps
# ---------------------------------------------------------------------------


def test_kernel_rewriting_cap(monkeypatch, tmp_path):
    # Burgers' L1 is rewritten through f1 to exp(...)*f2: two rounds
    monkeypatch.setattr(constraints, "MAX_REDUCE_ROUNDS", 1)
    code, doc = run(tmp_path, BURGERS, "detsys")
    assert code == 4
    assert doc["message"] == ("ExprError: kernel rewriting did not settle: "
                              "round cap MAX_REDUCE_ROUNDS = 1 exhausted")


def test_rule_completion_cap(monkeypatch, tmp_path):
    # u_x = u and u_t = x*u are integrable only with u = 0: one completion
    # round finds it at order 2, and a second is needed to see that it
    # closes
    text = (SCALAR + "[system]\nG1 = u_x - u\nG2 = u_t - x*u\n"
            "[ansatz]\norder = 2\n")
    monkeypatch.setattr(jets, "MAX_COMPLETION_ROUNDS", 1)
    code, doc = run(tmp_path, text, "detsys")
    assert code == 4
    assert doc["message"] == (
        "CyclicRuleError: rule completion did not stabilize: round cap "
        "MAX_COMPLETION_ROUNDS = 1 exhausted")


def test_self_substitution_cap(monkeypatch, tmp_path):
    # at order 1, D_t of the rule u_t = u_x holds the ruled u_t
    monkeypatch.setattr(jets, "MAX_SELF_SUBSTITUTIONS", 1)
    code, doc = run(tmp_path, SCALAR + "[system]\nG1 = u_t - u_x\n",
                    "detsys")
    assert code == 4
    assert doc["message"] == (
        "CyclicRuleError: prolonged rule did not stabilize under "
        "self-substitution: cap MAX_SELF_SUBSTITUTIONS = 1 exhausted")


# ---------------------------------------------------------------------------
# argument checks of public constructors and functions
# ---------------------------------------------------------------------------


def test_public_argument_checks():
    ws = burgers_workspace()
    x, t = ws.independents
    u1, u2 = ws.lookup("u1"), ws.lookup("u2")
    system = PdeSystem(ws, [parse("u2_x - 2*u1", ws)])
    with pytest.raises(ExprError, match="component count"):
        multiplier_combination(system, conslaw.MultiplierFamily(
            [rat(1), rat(1)], [], (), (), None))
    with pytest.raises(ExprError, match="share one coordinate tuple"):
        LinearConstraints({"f": (x,), "g": (t,)}, [])
    with pytest.raises(ExprError, match="malformed operator coefficient"):
        LinearOperator((x,), 1, 1, {(1, 0, (0,)): rat(1)})
    with pytest.raises(WorkspaceError, match="not an independent variable"):
        ws.independent("u1")
    target = Workspace("xt", ["w1", "w2"])
    with pytest.raises(ExprError, match="unknown transformation kind"):
        Transformation("affine", ws, target, (x, t), (u1, u2))
    with pytest.raises(ExprError, match="component counts do not match"):
        Transformation("point", ws, target, (x,), (u1, u2))
    point = Transformation("point", ws, target, (x, t), (u1, u2))
    with pytest.raises(ExprError, match="requires a contact transformation"):
        check_contact_condition(point)
    other = PdeSystem(Workspace("xt", ["u1", "u2"]), [])
    with pytest.raises(ExprError, match="source workspace differs"):
        apply_transformation(other, point)
    with pytest.raises(ExprError, match="negative derivative order"):
        Jet("u1", (("x", -1),))
    with pytest.raises(WorkspaceError, match="generator component counts"):
        verify_point_symmetry(system, SymmetryGenerator((x,), (u1, u2)))
