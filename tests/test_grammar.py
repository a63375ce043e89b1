"""Parser / printer round-trips and error reporting."""

import pytest

from helpers import (burgers_workspace, pipeline_workspace, random_expression,
                     random_jets, random_sum_with_denominators, seeded)
from pdelin.errors import ParseError, UndeclaredIdentifierError
from pdelin.expr import Add, add, rat
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


def _unrepeated(text):
    """The text with the n-th '(' followed by n spaces: no two spans are
    spelled alike, so the parser reads each one afresh."""
    first, *rest = text.split("(")
    return first + "".join("(" + " " * i + part
                           for i, part in enumerate(rest, 1))


def test_repeated_spans_parse_to_a_fresh_parse():
    # the parser keeps each identifier and each parenthesised or called
    # span it has read, by its text
    pws = pipeline_workspace()
    sums = [
        ["exp(u_x)*u", "exp(u_x)*u_t", "-2*exp(u_x)/(u + 1)", "(u + 1)^2",
         "-log(u + 1)*(u + 1)", "pow(u_x, p)*pow(u_x, p)", "f(x, u)*f(x, u)"],
        ["u_xt*u_tx/(u_x*u_x + 1)", "1/(u_x*u_x + 1)",
         "-exp(-(u + 1)/2)*exp(-(u + 1)/2)", "v_{1}(x, t)*v_{1}(x, t)^2"],
    ]
    for terms in sums:
        text = " + ".join(terms)
        e = parse(text, pws)
        assert e == parse(_unrepeated(text), pws), text
        assert e == add(*[parse(term, pws) for term in terms]), text


def test_an_error_in_a_repeated_span_is_reported_at_its_first_occurrence():
    cases = [("exp(q) + exp(q)", UndeclaredIdentifierError, 4),
             ("q*u1 + q*u1", UndeclaredIdentifierError, 0),
             ("u1 + exp(u1, t) + exp(u1, t)", ParseError, 5),
             ("x + (u1 + * 2) + (u1 + * 2)", ParseError, 10),
             ("u1(x) + u1(x)", ParseError, 0)]
    for text, error, position in cases:
        with pytest.raises(error) as ei:
            parse(text, ws)
        assert ei.value.position == position, text


def test_shuffled_factors_and_repeats_parse_to_one_node():
    # terms and factors in any order, with repeated kernels, identifiers
    # and rational factors that fold into one coefficient
    rng = seeded(37)
    pws = pipeline_workspace()
    factors = ["3", "1/2", "exp(u_x)", "exp(u_x)", "(u + 1)", "1/(u + 1)",
               "pow(u, p)", "u_t", "u_t", "-2", "f(x, u)", "log(u + 2)"]
    terms = ["u_t*exp(u_x)", "-1/3*(u + 1)^-2", "pow(u, p)*u_x",
             "exp(u_x)/(u + 1)", "2", "u_t*exp(u_x)"]
    first = None
    for _ in range(30):
        rng.shuffle(factors)
        rng.shuffle(terms)
        e = parse("*".join(factors) + " + " + " + ".join(terms), pws)
        assert first is None or e == first
        first = e
