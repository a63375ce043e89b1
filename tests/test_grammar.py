"""Parser / printer round-trips and error reporting."""

import pytest

from helpers import (burgers_workspace, pipeline_workspace, random_expression,
                     random_jets, random_sum_with_denominators, seeded)
from pdelin.errors import ParseError, UndeclaredIdentifierError
from pdelin.expr import Add, rat
from pdelin.grammar import parse, to_text


ws = burgers_workspace()


CORPUS_TEXTS = [
    "u2_x - 2*u1",
    "u2_t - 2*u1_x + u1^2",
    "u1_xx - u1*u1_x - u1_t",
    "exp(-u2/4)",
    "1/2*u1*exp(-u2/4)",
    "f_{1}(x - u2, t - log(u1))",
    "u2_t - u1_x",
    "u1_t + u1*(u1 - 1) - u1^2*u2_x",
    "x - u2",
    "t - log(u1)",
]


@pytest.mark.parametrize("text", CORPUS_TEXTS)
def test_roundtrip_corpus(text):
    e = parse(text, ws)
    assert parse(to_text(e), ws) == e


def test_roundtrip_pipeline_symbolic_power():
    pws = pipeline_workspace()
    for text in ["u_t*u_xx + pow(u_x, p)", "pow(u_x, p - 2)", "v(u_x, t)"]:
        e = parse(text, pws)
        assert parse(to_text(e), pws) == e


def test_roundtrip_random():
    rng = seeded(23)
    atoms = list(ws.independents) + random_jets(ws)
    for _ in range(300):
        e = random_expression(rng, atoms, depth=4)
        assert parse(to_text(e), ws) == e


def test_parse_does_not_depend_on_term_order():
    # the first three terms cancel as a subset, the whole sum does not: a
    # sum is one add over all its terms, so no partial sum collapses first
    texts = ["1/(x+1) + x/(x+1) - 1 + t", "t + 1/(x+1) + x/(x+1) - 1",
             "x/(x+1) - 1 + t + 1/(x+1)"]
    first, *rest = [parse(text, ws) for text in texts]
    assert isinstance(first, Add) and len(first.terms) == 4
    assert rest == [first, first]


def test_shuffled_terms_parse_back_to_the_sum():
    rng = seeded(29)
    atoms = list(ws.independents) + random_jets(ws, max_order=1)
    exponents = [rat(1, 2), rat(-2, 3)]
    for _ in range(100):
        e = random_sum_with_denominators(rng, atoms, exponents)
        if not isinstance(e, Add):
            continue
        terms = [to_text(term) for term in e.terms]
        rng.shuffle(terms)
        assert parse(" + ".join(terms), ws) == e


def test_jet_suffix_order_irrelevant():
    assert parse("u1_xt", ws) == parse("u1_tx", ws)
    assert parse("u1_xx", ws).order == 2


def test_syntax_error_position():
    with pytest.raises(ParseError) as ei:
        parse("u1 + * 2", ws)
    assert ei.value.position is not None


def test_undeclared_identifier():
    with pytest.raises(UndeclaredIdentifierError) as ei:
        parse("u3_x - 2*u1", ws)
    assert ei.value.name == "u3"
    with pytest.raises(UndeclaredIdentifierError):
        parse("q + 1", ws)


def test_declared_name_cannot_be_function():
    with pytest.raises(ParseError):
        parse("u1(x, t)", ws)


def test_power_requires_integer():
    with pytest.raises(ParseError):
        parse("u1^(1/2)", ws)
    assert parse("u1^(-2)", ws) == parse("1/u1^2", ws)


def test_function_positions_validated():
    with pytest.raises(ParseError):
        parse("f_{3}(x, t)", ws)
    with pytest.raises(ParseError):
        parse("f_{0}(x, t)", ws)
