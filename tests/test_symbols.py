"""Graded polynomial layer: parsing, printing, derivations, substitution.

A single shared context declares two even fields, an odd pair, and one even
constant; that is enough to exercise every sign rule and every parser error
path without dragging in the physics layers.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spindeq import (
    CRational,
    GradedPolynomial,
    OddPowerError,
    ParityError,
    ParseError,
    SymbolContext,
    UnknownSymbolError,
    bind_constants,
    formal_time_derivative,
    format_poly,
    partial_derivative,
    substitute,
)
from spindeq.symbols import MAX_NESTING


def make_context() -> SymbolContext:
    ctx = SymbolContext()
    ctx.declare("q", "even")
    ctx.declare("p", "even")
    ctx.declare("u", "odd")
    ctx.declare("ubar", "odd")
    ctx.declare("w", "even", constant=True)
    return ctx


CTX = make_context()

ATOMS = [
    "q", "p", "dot(q)", "dot(p)", "u", "ubar", "dot(u)", "dot(ubar)", "w", "i", "2/3", "-1",
]


@st.composite
def terms(draw):
    """A coefficient times a product of atoms: one monomial, or zero."""
    term = CTX.const(draw(st.fractions(min_value=-3, max_value=3, max_denominator=4)))
    for atom in draw(st.lists(st.sampled_from(ATOMS), min_size=0, max_size=3)):
        term = term * CTX.parse(atom)
    return term


@st.composite
def polynomials(draw):
    total = CTX.zero()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        total = total + draw(terms())
    return total


def test_parse_format_round_trip():
    for text in [
        "p*dot(q) - w*q^2/2",
        "i*ubar*dot(u) + 3/4",
        "(q + p)^2 - 2*q*p",
        "-dot(q)*dot(p) + i*w",
        "u*ubar*w",
    ]:
        poly = CTX.parse(text)
        assert CTX.parse(format_poly(poly)) == poly


def test_format_is_deterministic():
    a = CTX.parse("q*p + u*ubar")
    b = CTX.parse("ubar*u*(-1) + p*q")
    assert format_poly(a) == format_poly(b)
    assert a == b


def test_imaginary_unit_squares_to_minus_one():
    assert CTX.parse("i^2") == CTX.parse("-1")
    assert CTX.parse("i*i*q") == CTX.parse("-q")


def test_odd_symbols_anticommute():
    assert CTX.parse("ubar*u") == CTX.parse("-u*ubar")
    assert (CTX.parse("u*ubar") + CTX.parse("ubar*u")).is_zero()


def test_parser_rejects_odd_powers():
    with pytest.raises(OddPowerError):
        CTX.parse("u^2")
    with pytest.raises(OddPowerError):
        CTX.parse("u*u")


def test_parser_division_rules():
    assert CTX.parse("q/2") == CTX.parse("1/2*q")
    with pytest.raises(ParseError):
        CTX.parse("q/p")
    with pytest.raises(ParseError):
        CTX.parse("q/0")


def test_parser_error_positions():
    with pytest.raises(ParseError) as err:
        CTX.parse("q + ")
    assert err.value.position == 4
    with pytest.raises(UnknownSymbolError) as err:
        CTX.parse("zz + 1")
    assert err.value.position == 0
    for text, position, message in (
        ("q$", 1, "unexpected character"),
        ("q)", 1, "unexpected token"),
        ("q^p", 2, "exponent must be an integer literal"),
        ("dot q", 4, "expected '(' after dot"),
        ("dot(q", 5, "expected ')'"),
        ("(q", 2, "expected ')'"),
    ):
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            CTX.parse(text)
        assert err.value.position == position, text


def test_parser_nesting_is_bounded_and_signs_are_not():
    # Parentheses and dot(...) nest at most MAX_NESTING deep; deeper input is
    # a ParseError that names the nesting, never a RecursionError.
    assert CTX.parse("(" * MAX_NESTING + "q" + ")" * MAX_NESTING) == CTX.parse("q")
    for opener, count in (("(", 300), ("(", 2000), ("dot(", 300)):
        with pytest.raises(ParseError, match="nested deeper than") as err:
            CTX.parse(opener * count + "q" + ")" * count)
        assert err.value.position == len(opener) * (MAX_NESTING + 1) - 1  # the deepest "("
    # Signs and sums are read in loops, at any length.
    assert CTX.parse("-" * 1200 + "q") == CTX.parse("q")
    assert CTX.parse("-" * 1201 + "q") == CTX.parse("-q")
    assert CTX.parse("+".join(["q"] * 20000)) == CTX.parse("20000*q")


def test_powers_are_taken_by_squaring():
    assert CTX.parse("q^99999999") == CTX.sym("q") ** 99999999
    x = CTX.parse("q + 2*u - i*dot(p)/3")
    power = CTX.const(1)
    for n in range(1, 10):
        power = power * x
        assert x**n == power, n


def test_unknown_symbol_is_a_parse_error():
    assert issubclass(UnknownSymbolError, ParseError)
    assert issubclass(OddPowerError, ParseError)


def test_coefficient_and_degree():
    poly = CTX.parse("3*p*dot(q) - q^2")
    assert poly.coefficient({("p", 0): 1, ("q", 1): 1}) == 3
    assert poly.coefficient({("q", 0): 2}) == -1
    assert sorted(poly.symbols_used()) == [("p", 0), ("q", 0), ("q", 1)]


def test_time_derivative_worked_example():
    assert formal_time_derivative(CTX.parse("q^2")) == CTX.parse("2*q*dot(q)")
    assert formal_time_derivative(CTX.parse("u*ubar")) == CTX.parse(
        "dot(u)*ubar + u*dot(ubar)"
    )


def test_time_derivative_annihilates_constants():
    assert formal_time_derivative(CTX.parse("w")).is_zero()
    assert formal_time_derivative(CTX.parse("w*q")) == CTX.parse("w*dot(q)")


def test_partial_derivative_signs():
    cross = CTX.parse("u*ubar")
    assert partial_derivative(cross, "u") == CTX.parse("ubar")
    assert partial_derivative(cross, "ubar") == CTX.parse("-u")
    assert partial_derivative(CTX.parse("p*dot(q)"), "q", dot=1) == CTX.parse("p")
    assert partial_derivative(CTX.parse("q^3"), "q") == CTX.parse("3*q^2")


def test_substitute_is_parity_checked():
    with pytest.raises(ParityError):
        substitute(CTX.parse("u"), {"u": CTX.parse("q")})


def test_substitute_accepts_name_and_dotted_keys():
    poly = CTX.parse("p*dot(q) + q")
    out = substitute(poly, {"q": CTX.parse("2*q"), ("q", 1): CTX.parse("2*dot(q)")})
    assert out == CTX.parse("2*p*dot(q) + 2*q")


def test_bind_constants_is_exact():
    bound = bind_constants(CTX.parse("w*q^2/2"), {"w": Fraction(3, 2)})
    assert bound == CTX.parse("3/4*q^2")
    assert bound.coefficient({("q", 0): 2}) == CRational(Fraction(3, 4))


def test_bind_constants_rejects_odd_targets():
    with pytest.raises(ParityError):
        bind_constants(CTX.parse("u"), {"u": 2})


def test_coefficients_are_exact_or_float():
    # Exact values stay exact, floats pass through, anything else is refused.
    assert CTX.const(Fraction(1, 2)) == CTX.parse("1/2")
    assert CTX.const(Fraction(1, 2)).is_exact() and not CTX.const(0.5).is_exact()
    assert CTX.const(0.5).constant_part() == 0.5 and CTX.const(0.5) == CTX.parse("1/2")
    mixed = CTX.parse("q/2") + CTX.sym("p") * 0.25j
    assert not mixed.is_exact() and isinstance(mixed.coefficient({"q": 1}), CRational)
    assert str(mixed) == "1/2*q + (0.0+0.25*i)*p"
    with pytest.raises(TypeError):
        CTX.const("1/2")


def test_context_identity_matters():
    other = make_context()
    with pytest.raises(ValueError):
        CTX.parse("q") + other.parse("q")


@given(a=polynomials(), b=polynomials())
def test_time_derivative_is_a_derivation(a, b):
    lhs = formal_time_derivative(a * b)
    rhs = formal_time_derivative(a) * b + a * formal_time_derivative(b)
    assert lhs == rhs


@given(a=polynomials(), b=polynomials())
def test_substitution_is_a_homomorphism(a, b):
    bindings = {
        "q": CTX.parse("q + p"),
        "p": CTX.parse("2*p"),
        "u": CTX.parse("3*ubar"),
    }
    assert substitute(a * b, bindings) == substitute(a, bindings) * substitute(b, bindings)
    assert substitute(a + b, bindings) == substitute(a, bindings) + substitute(b, bindings)


@given(a=polynomials())
def test_double_odd_derivative_vanishes(a):
    assert partial_derivative(partial_derivative(a, "u"), "u").is_zero()


@given(a=polynomials())
def test_round_trip_through_text(a):
    assert CTX.parse(format_poly(a)) == a


@given(a=polynomials(), b=polynomials(), c=polynomials())
def test_product_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(a=terms(), b=terms())
def test_graded_commutativity_on_homogeneous_terms(a, b):
    sign = -1 if (a.parity() == 1 and b.parity() == 1) else 1
    assert a * b == (b * a) * sign


@given(a=terms(), b=polynomials(), key=st.sampled_from([("u", 0), ("u", 1), ("q", 0), ("q", 1)]))
def test_partial_derivative_leibniz(a, b, key):
    sign = -1 if a.parity() == 1 and CTX.decl(key[0]).parity == "odd" else 1
    lhs = partial_derivative(a * b, *key)
    rhs = partial_derivative(a, *key) * b + (a * partial_derivative(b, *key)) * sign
    assert lhs == rhs
