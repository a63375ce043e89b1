"""Linear operators: application, adjoints, bilinear conservation identity."""

import pytest

import corpus
from helpers import random_expression, seeded
from pdelin.errors import ExprError
from pdelin.expr import (Fun, add, derive_multi, diff_atom, equal, is_zero,
                         mul, multi_indices, neg, rat, sub, sym_pow)
from pdelin.grammar import parse
from pdelin.linalg import adjugate, det
from pdelin.linops import LinearOperator, bilinear_identity, identity_residual
from pdelin.probe import probe_is_zero, random_assignment
from pdelin.workspace import Workspace


def xt_coords():
    ws = Workspace(coordinates=["X", "T"])
    ws.declare_parameter("p")
    return ws, ws.coordinates[0], ws.coordinates[1]


def heat_pair_operator(ws, X, T):
    """The first-order system v1_X - v2 = 0, v2_X + v1_T = 0."""
    rows = [parse("v1_{1}(X,T) - v2(X,T)", ws),
            parse("v2_{1}(X,T) + v1_{2}(X,T)", ws)]
    return LinearOperator.from_rows(rows, ["v1", "v2"], (X, T))


def telegraph_operator(ws, X, T):
    """v1_X - v2_T + v2 = 0, v2_X - v1_T = 0."""
    rows = [parse("v1_{1}(X,T) - v2_{2}(X,T) + v2(X,T)", ws),
            parse("v2_{1}(X,T) - v1_{2}(X,T)", ws)]
    return LinearOperator.from_rows(rows, ["v1", "v2"], (X, T))


def pipeline_operator(ws, X, T):
    """v_T + (X^p v)_XX in expanded coefficient form."""
    p = ws.lookup("p")
    coeffs = {
        (0, 0, (0, 1)): rat(1),
        (0, 0, (2, 0)): sym_pow(X, p),
        (0, 0, (1, 0)): mul(rat(2), p, sym_pow(X, sub(p, rat(1)))),
        (0, 0, (0, 0)): mul(p, sub(p, rat(1)), sym_pow(X, sub(p, rat(2)))),
    }
    return LinearOperator((X, T), 1, 1, coeffs)


def test_identity_operator():
    ws, X, T = xt_coords()
    ident = LinearOperator((X, T), 2, 2, {(0, 0, (0, 0)): rat(1),
                                          (1, 1, (0, 0)): rat(1)})
    W = [parse("X*T", ws), parse("X^2", ws)]
    assert ident.apply(W) == W


def test_heat_pair_application():
    ws, X, T = xt_coords()
    L = heat_pair_operator(ws, X, T)
    W = [Fun("w1", (X, T)), Fun("w2", (X, T))]
    got = L.apply(W)
    assert equal(got[0], parse("w1_{1}(X,T) - w2(X,T)", ws))
    assert equal(got[1], parse("w2_{1}(X,T) + w1_{2}(X,T)", ws))


def test_pipeline_operator_expansion_probe():
    ws, X, T = xt_coords()
    L = pipeline_operator(ws, X, T)
    v = Fun("v", (X, T))
    got = L.apply([v])[0]
    want = parse("v_{2}(X,T) + pow(X,p)*v_{1,1}(X,T) + 2*p*pow(X,p-1)*v_{1}(X,T)"
                 " + p*(p-1)*pow(X,p-2)*v(X,T)", ws)
    assert equal(got, want)
    rng = seeded(61)
    d = sub(got, want)
    for _ in range(20):
        assert probe_is_zero(d, random_assignment(d, rng))


def test_bilinear_trivial_flux():
    # L = d/dX on scalars: the flux is V*W
    ws, X, T = xt_coords()
    L = LinearOperator((X, T), 1, 1, {(0, 0, (1, 0)): rat(1)})
    fluxes = bilinear_identity(L, ["V"], ["W"])
    assert equal(fluxes[0], mul(Fun("V", (X, T)), Fun("W", (X, T))))
    assert is_zero(fluxes[1])


def test_adjoint_first_order_scalar():
    ws, X, T = xt_coords()
    L = LinearOperator((X, T), 1, 1, {(0, 0, (1, 0)): rat(1)})
    Ls = L.adjoint()
    v = Fun("v", (X, T))
    assert equal(Ls.apply([v])[0], neg(Fun("v", (X, T), (1, 0))))


def test_adjoint_involution_corpus():
    ws, X, T = xt_coords()
    for L in (heat_pair_operator(ws, X, T), telegraph_operator(ws, X, T),
              pipeline_operator(ws, X, T)):
        LL = L.adjoint().adjoint()
        assert LL.coeffs.keys() == L.coeffs.keys()
        for k, c in L.coeffs.items():
            assert equal(LL.coeffs[k], c)


def test_adjoint_of_heat_pair_matches_target_up_to_rescale():
    # kernel equations of the adjoint of the heat-pair operator match
    # w1_X = w2_T after (w1, w2) -> (4 w1', -4 w2')
    ws, X, T = xt_coords()
    L = heat_pair_operator(ws, X, T)
    Ls = L.adjoint()
    w1 = mul(rat(4), Fun("a", (X, T)))
    w2 = mul(rat(-4), Fun("b", (X, T)))
    r = Ls.apply([w1, w2])
    want1 = neg(mul(rat(4), sub(Fun("a", (X, T), (1, 0)), Fun("b", (X, T), (0, 1)))))
    want2 = mul(rat(4), sub(Fun("b", (X, T), (1, 0)), Fun("a", (X, T))))
    assert equal(r[0], want1)
    assert equal(r[1], want2)


def random_operator(rng, ws, X, T, max_order=3, max_size=3):
    M = rng.randint(1, max_size)
    m = rng.randint(1, max_size)
    coeffs = {}
    for nu in range(M):
        for _ in range(rng.randint(1, 3)):
            alpha = rng.randrange(m)
            K = (rng.randint(0, max_order), rng.randint(0, max_order))
            if sum(K) > max_order:
                continue
            c = add(rat(rng.randint(-3, 3)),
                    mul(rat(rng.randint(-2, 2)), X),
                    mul(rat(rng.randint(-2, 2)), X, T))
            if is_zero(c):
                c = rat(1)
            coeffs[(nu, alpha, K)] = c
    if not coeffs:
        coeffs[(0, 0, (1, 0))] = rat(1)
    return LinearOperator((X, T), M, m, coeffs)


def test_involution_and_identity_random():
    ws, X, T = xt_coords()
    rng = seeded(67)
    for _ in range(100):
        L = random_operator(rng, ws, X, T)
        LL = L.adjoint().adjoint()
        assert LL.coeffs.keys() == L.coeffs.keys()
        for k, c in L.coeffs.items():
            assert equal(LL.coeffs[k], c)
        assert is_zero(identity_residual(L))


def test_bilinear_identity_probe_crosscheck():
    ws, X, T = xt_coords()
    rng = seeded(71)
    for _ in range(5):
        L = random_operator(rng, ws, X, T, max_order=2, max_size=2)
        res = identity_residual(L)
        assert is_zero(res)
    L = telegraph_operator(ws, X, T)
    assert is_zero(identity_residual(L))


def test_self_adjointness_of_lagrangian_operator():
    # L from the quadratic density (1/2) w_X^2: row = -w_XX, self-adjoint
    ws, X, T = xt_coords()
    L = LinearOperator((X, T), 1, 1, {(0, 0, (2, 0)): rat(-1)})
    Ls = L.adjoint()
    assert Ls.coeffs.keys() == L.coeffs.keys()
    for k, c in L.coeffs.items():
        assert equal(Ls.coeffs[k], c)


def test_matrix_inverse_identity():
    # the inverse in adjugate form, mat . adj(mat) == det(mat) . I, for a
    # 2x2 and a 3x3 matrix
    ws, X, T = xt_coords()
    for mat in ([[add(rat(1), X), T], [rat(0), add(rat(2), mul(X, T))]],
                [[X, T, rat(1)], [rat(2), mul(X, X), T],
                 [add(X, T), rat(0), rat(3)]]):
        n = len(mat)
        adj, d = adjugate(mat), det(mat)
        for i in range(n):
            for j in range(n):
                got = add(*[mul(mat[i][k], adj[k][j]) for k in range(n)])
                assert equal(got, d if i == j else rat(0))


def test_arity_mismatch():
    ws, X, T = xt_coords()
    L = heat_pair_operator(ws, X, T)
    with pytest.raises(ExprError):
        L.apply([Fun("w1", (X, T))])


def test_coefficient_dependence_validated():
    ws, X, T = xt_coords()
    stray = Workspace("y").independents[0]
    with pytest.raises(ExprError):
        LinearOperator((X, T), 1, 1, {(0, 0, (0, 0)): stray})


CORPUS_FAMILIES = [(corpus.burgers, corpus.burgers_family_v),
                   (corpus.burgers, corpus.burgers_family_f),
                   (corpus.pipeline, corpus.pipeline_family),
                   (corpus.telegraph, corpus.telegraph_family),
                   (corpus.telegraph, corpus.telegraph_family_potential)]


def test_constraint_operator_reduces_its_rows_and_their_derivatives():
    # a constraint system reads its rows once, as one operator; every row and
    # every derivative of a row up to order 2 reduces to zero, alone and in a
    # seeded combination with coefficients over the coordinates
    rng = seeded(14)
    for make_system, make_family in CORPUS_FAMILIES:
        ws, _ = make_system()
        cons = make_family(ws).constraints
        assert cons.operator.to_rows(cons.names) == cons.rows
        derived = [derive_multi(row, cons.coords, K, diff_atom)
                   for row in cons.rows
                   for K in multi_indices((2,) * len(cons.coords), 2)]
        for d in derived:
            assert is_zero(cons.reduce(d)), d
        combination = add(*[
            mul(random_expression(rng, list(cons.coords), 2, False), d)
            for d in rng.sample(derived, 3)])
        assert is_zero(cons.reduce(combination))
