"""Graded polynomial layer: parsing, printing, derivations, substitution.

A single shared context declares two even fields, an odd pair, and one even
constant; that is enough to exercise every sign rule and every parser error
path without dragging in the physics layers.
"""

import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spindeq
from spindeq import (
    CRational,
    FormatError,
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
from spindeq import _graded
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


def test_a_coefficient_too_long_to_print_is_a_format_error():
    # Powers make coefficients longer than Python converts to text; the
    # printer says so instead of leaking the interpreter's ValueError.
    limit = sys.get_int_max_str_digits()
    for text, digits in (("10^5000*q", 5001), ("(10^5000 - 1)*q", 5000),
                         ("2^20000*q*p", 6021), ("q/10^5000", 5001)):
        with pytest.raises(FormatError) as info:
            format_poly(CTX.parse(text))
        assert str(info.value) == (
            f"a coefficient has {digits} digits, more than the {limit} that can be printed"
        )


def _fraction_parts(c, has_mono):
    """The coefficient text as printed from the ``Fraction`` parts ``re`` and
    ``im``: the reference of ``symbols._coeff_parts``."""
    def frac(num, den):
        return str(num) if den == 1 else f"{num}/{den}"

    a, p, b, q = c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator
    if not b:
        body = "" if (abs(a) == 1 and p == 1 and has_mono) else frac(abs(a), p)
        return ("-" if a < 0 else "+"), body
    im_body = "i" if (abs(b) == 1 and q == 1) else f"{frac(abs(b), q)}*i"
    if not a:
        return ("-" if b < 0 else "+"), im_body
    return "+", f"({frac(a, p)}{'+' if b > 0 else '-'}{im_body})"


_part_st = st.one_of(
    st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-1, 3)]),
    st.fractions(max_denominator=10**6),
    st.integers(-(10**40), 10**40),
)


@given(re=_part_st, im=_part_st, has_mono=st.booleans())
def test_coefficient_text_matches_the_fraction_printer(re, im, has_mono):
    c = CRational(re, im)
    assert spindeq.symbols._coeff_parts(c, has_mono) == _fraction_parts(c, has_mono)
    poly = CTX.sym("q") * c + c
    assert CTX.parse(format_poly(poly)) == poly


def test_sym_takes_a_non_negative_int_dot_order():
    # A bool or float dot order is no dot order: each is rejected by name,
    # not by the kernel's check of the monomial it would make.
    for dot in (1.0, True, False, -1, "1", None):
        with pytest.raises(ValueError, match=r"^dot order must be a non-negative integer"):
            CTX.sym("q", dot)
    assert CTX.sym("q", 2) == CTX.parse("dot(dot(q))")
    assert CTX.sym("u", 1).terms == {CTX.monomial({("u", 1): 1}): 1}
    assert type(CTX.sym("p").terms[CTX.monomial({"p": 1})]) is CRational
    with pytest.raises(UnknownSymbolError):
        CTX.sym("x")


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


_DIGIT_LIMIT = sys.get_int_max_str_digits()
_LONG_NUMERAL = "1" * (_DIGIT_LIMIT + 700)
_LONG_NUMERAL_MESSAGE = (
    f"integer literal 111111111111... has {len(_LONG_NUMERAL)} digits, more than the "
    f"{_DIGIT_LIMIT} accepted"
)

# (text, error class, message, position) for every way the parser rejects text.
PARSER_ERRORS = [
    ("q + ", ParseError, "unexpected end of input", 4),
    ("", ParseError, "unexpected end of input", 0),
    ("q*", ParseError, "unexpected end of input", 2),
    ("* q", ParseError, "expected a value, got '*'", 0),
    ("q   + ^", ParseError, "expected a value, got '^'", 6),
    ("zz + 1", UnknownSymbolError, "unknown symbol 'zz'", 0),
    ("q*dot(zz)", UnknownSymbolError, "unknown symbol 'zz'", 6),
    ("q$", ParseError, "unexpected character '$'", 1),
    ("q + + )$", ParseError, "unexpected character '$'", 7),  # before any token is read
    ("q \u00e9", ParseError, "unexpected character '\u00e9'", 2),
    ("q)", ParseError, "unexpected token ')'", 1),
    ("2 + 3 3", ParseError, "unexpected token '3'", 6),
    ("q^p", ParseError, "exponent must be an integer literal", 2),
    ("q^", ParseError, "exponent must be an integer literal", 2),
    ("q^-2", ParseError, "exponent must be an integer literal", 2),
    ("dot q", ParseError, "expected '(' after dot", 4),
    ("dot", ParseError, "expected '(' after dot", 3),
    ("dot(q", ParseError, "expected ')'", 5),
    ("(q", ParseError, "expected ')'", 2),
    ("(q + p", ParseError, "expected ')'", 6),
    ("u*u", OddPowerError, "product vanishes: odd symbol squared", 1),
    ("q*u*ubar*u", OddPowerError, "product vanishes: odd symbol squared", 8),
    ("u*ubar*(u + ubar)", OddPowerError, "product vanishes: odd symbol squared", 6),
    ("u^2", OddPowerError, "odd symbol raised to a power above one", 1),
    ("q + (2*u*q)^3", OddPowerError, "odd symbol raised to a power above one", 11),
    ("(u + ubar)^2", OddPowerError, "odd symbol raised to a power above one", 10),
    ("q/p", ParseError, "division only by numeric constants", 1),
    ("q/(1 + u)", ParseError, "division only by numeric constants", 1),
    ("q/0", ParseError, "division by zero", 1),
    ("2*q/(1 - 1)", ParseError, "division by zero", 3),
    ("(" * 300 + "q" + ")" * 300, ParseError,
     f"parentheses and dot(...) nested deeper than {MAX_NESTING}", MAX_NESTING),
    ("dot(" * 60 + "q" + ")" * 60, ParseError,
     f"parentheses and dot(...) nested deeper than {MAX_NESTING}", 4 * (MAX_NESTING + 1) - 1),
    (_LONG_NUMERAL + "*q", ParseError, _LONG_NUMERAL_MESSAGE, 0),
    ("q^" + _LONG_NUMERAL, ParseError, _LONG_NUMERAL_MESSAGE, 2),
    ("p + 3*q^2^" + _LONG_NUMERAL, ParseError, _LONG_NUMERAL_MESSAGE, 10),
]


def test_parser_error_positions():
    # Each rejection has its own class, message and position; a numeral too
    # long for int() is one of them, not a bare ValueError.
    for text, error, message, position in PARSER_ERRORS:
        with pytest.raises(ParseError) as err:
            CTX.parse(text)
        assert type(err.value) is error, text
        assert str(err.value) == f"{message} (at position {position})", text[:40]
        assert err.value.position == position, text[:40]


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


# -- the parser against arithmetic on the same expression tree ---------------------

_DIVISORS = st.one_of(
    st.integers(1, 9).map(lambda n: ("num", n)),
    st.just(("i",)),
    st.tuples(st.integers(1, 9), st.integers(1, 9)).map(
        lambda ab: ("paren", ("div", ("num", ab[0]), ("num", ab[1])))
    ),
)


def _extend(children):
    binary = st.one_of(
        st.tuples(st.just("mul"), children, children),
        st.tuples(st.just("add"), st.sampled_from("+-"), children, children),
    )
    return st.one_of(
        binary,
        binary,
        st.tuples(st.just("div"), children, _DIVISORS),
        st.tuples(st.just("pow"), children, st.integers(0, 3)),
        st.tuples(st.just("sign"), st.sampled_from("+-"), children),
        children.map(lambda x: ("dot", x)),
        children.map(lambda x: ("paren", x)),
    )


_TREES = st.recursive(
    st.one_of(
        st.sampled_from([("sym", name) for name in ("q", "p", "w", "u", "ubar")]),
        st.sampled_from([("sym", name) for name in ("q", "p", "w", "u", "ubar")] + [("i",)]),
        st.integers(0, 12).map(lambda n: ("num", n)),
    ),
    _extend,
    max_leaves=10,
)

# The grammar level of each node: expr 0, term 1, unary 2, power 3, atom 4.
_LEVEL = {"add": 0, "mul": 1, "div": 1, "sign": 2, "pow": 3}


def _render(node, need=0) -> str:
    """The text of a tree, parenthesized only where the grammar needs it."""
    kind = node[0]
    if kind == "num":
        text = str(node[1])
    elif kind == "i":
        text = "i"
    elif kind == "sym":
        text = node[1]
    elif kind in ("dot", "paren"):
        text = f"{'dot' if kind == 'dot' else ''}({_render(node[1])})"
    elif kind == "sign":
        text = node[1] + _render(node[2], 2)
    elif kind == "pow":
        text = f"{_render(node[1], 3)}^{node[2]}"
    elif kind in ("mul", "div"):
        text = _render(node[1], 1) + ("*" if kind == "mul" else "/") + _render(node[2], 2)
    else:
        text = f"{_render(node[2])} {node[1]} {_render(node[3], 1)}"
    return f"({text})" if _LEVEL.get(kind, 4) < need else text


def _size(node) -> int:
    """A bound on the number of terms of a tree's value."""
    kind = node[0]
    if kind in ("num", "i", "sym"):
        return 1
    if kind in ("dot", "paren", "sign"):
        return _size(node[-1]) * (5 if kind == "dot" else 1)
    if kind == "pow":
        return _size(node[1]) ** node[2]
    if kind == "mul":
        return _size(node[1]) * _size(node[2])
    if kind == "div":
        return _size(node[1])
    return _size(node[2]) + _size(node[3])


def _vanishing(value, *factors):
    if value.is_zero() and not any(f.is_zero() for f in factors):
        raise OddPowerError("vanishing product")
    return value


def _evaluate(node) -> GradedPolynomial:
    """The value of a tree by GradedPolynomial arithmetic, without the parser."""
    kind = node[0]
    if kind == "num":
        return CTX.const(node[1])
    if kind == "i":
        return CTX.imaginary()
    if kind == "sym":
        return CTX.sym(node[1])
    if kind == "paren":
        return _evaluate(node[1])
    if kind == "dot":  # Σ_s dot(s)·∂_s over the symbols that are not constant
        x = _evaluate(node[1])
        out = CTX.zero()
        for name, dot in sorted(x.symbols_used()):
            if not CTX.decl(name).constant:
                out = out + CTX.sym(name, dot + 1) * partial_derivative(x, name, dot)
        return out
    if kind == "sign":
        x = _evaluate(node[2])
        return -x if node[1] == "-" else x
    if kind == "pow":
        x, n = _evaluate(node[1]), node[2]
        return _vanishing(x**n, x) if n >= 2 else x**n
    a = _evaluate(node[1] if kind != "add" else node[2])
    if kind == "mul":
        b = _evaluate(node[2])
        return _vanishing(a * b, a, b)
    if kind == "div":
        return a * (CRational(1) / _evaluate(node[2]).constant_part())
    b = _evaluate(node[3])
    return a + b if node[1] == "+" else a - b


@settings(deadline=None, max_examples=300)
@given(tree=_TREES)
def test_parse_agrees_with_arithmetic_on_random_expressions(tree):
    # Numbers, i, even and odd symbols, dot(...), parentheses, signs, powers,
    # products and division by constants, rendered as text: parse gives the
    # value of the same tree, exactly, or the same OddPowerError.
    assume(_size(tree) <= 200)
    text = _render(tree)
    try:
        expected = _evaluate(tree)
    except OddPowerError:
        with pytest.raises(OddPowerError):
            CTX.parse(text)
        return
    got = CTX.parse(text)
    assert got == expected, text
    assert all(type(c) is CRational for c in got.terms.values()), text


def _sweep_text() -> str:
    """A degree-12 Hamiltonian shaped like the benchmark's sweep inputs: 48
    terms (c)*q^a*p^b, half the monomials of each total degree."""
    return " + ".join(
        f"({a + 1}/{k - a + 2})*q^{a}*p^{k - a}" for k in range(1, 13) for a in range(0, k + 1, 2)
    )


def _count_kernel_calls(monkeypatch, names):
    """Calls of the named ``_graded`` functions, counted until ``monkeypatch.undo()``."""
    calls = Counter()
    for name in names:
        original = getattr(_graded, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(_graded, name, counted)
    return calls


def test_parsing_a_sweep_text_checks_nothing_and_multiplies_no_polynomials(monkeypatch):
    # Atoms are built unchecked and one-term factors meet by monomial merges:
    # building every atom through the public constructor and every product
    # through the kernel took 192 checked term maps and 283 products here.
    text = _sweep_text()
    calls = _count_kernel_calls(monkeypatch, ("checked", "mul"))
    got = CTX.parse(text)
    monkeypatch.undo()
    assert calls == Counter(), calls
    q, p, expected = CTX.sym("q"), CTX.sym("p"), CTX.zero()
    for k in range(1, 13):
        for a in range(0, k + 1, 2):
            expected = expected + q**a * p ** (k - a) * Fraction(a + 1, k - a + 2)
    assert len(got.terms) == 48 and got == expected


def test_powers_are_taken_by_squaring():
    assert CTX.parse("q^99999999") == CTX.sym("q") ** 99999999
    # A power of one term scales its exponents and raises its coefficient.
    q, dp = CTX.sym("q"), CTX.sym("p", 1)
    assert CTX.parse("q^2^3") == q**6
    assert CTX.parse("(-2/3*i*q^2*dot(p))^3") == q**6 * dp**3 * CRational(0, Fraction(8, 27))
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


def test_declarations_and_constructors_reject_bad_input():
    ctx = make_context()
    with pytest.raises(ParityError):
        ctx.declare("z", "bosonic")
    with pytest.raises(ValueError, match="invalid symbol name"):
        ctx.declare("i", "even")
    with pytest.raises(ValueError, match="conflicting redeclaration"):
        ctx.declare("q", "odd")
    ctx.declare("q", "even")  # an identical redeclaration changes nothing
    ctx.declare("z", "even")
    assert ctx.slot("q") == (0, 0) and ctx.slot("z") == (5, 0)
    with pytest.raises(ValueError):
        ctx.sym("q", -1)
    p = ctx.sym("p")
    with pytest.raises(ValueError):
        p ** -1
    with pytest.raises(ValueError, match="vanishes"):
        ctx.parse("u").coefficient({"u": 2})
    with pytest.raises(TypeError):
        p + "a"
    assert (p == "a") is False


def test_the_module_parse_is_the_context_parse():
    text = "3*p*dot(q) - i*u*ubar/2"
    assert spindeq.parse(CTX, text) == CTX.parse(text)


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
    # Exact values stay exact, a float enters at its exact binary value, and
    # anything else is refused.
    assert CTX.const(Fraction(1, 2)) == CTX.parse("1/2")
    assert CTX.const(0.5) == CTX.parse("1/2")
    assert CTX.const(0.1).constant_part() == CRational(Fraction(0.1))
    assert str(CTX.sym("p") * 0.25j) == "1/4*i*p"
    with pytest.raises(TypeError):
        CTX.const("1/2")
    with pytest.raises(TypeError):
        CTX.sym("p") * object()


@pytest.mark.parametrize("x", [math.inf, math.nan, complex(1, math.inf)])
def test_a_number_that_is_not_finite_is_refused(x):
    for build in (lambda: GradedPolynomial(CTX, {(): x}), lambda: CTX.const(x)):
        with pytest.raises(ValueError, match="not a finite number"):
            build()
    # A comparison never raises, not even with an int beyond the float range.
    assert not CTX.const(1) == x and not CTX.const(10**400) == x
    assert CTX.const(10**400) == 10**400 and not CTX.const(1) == 10**400


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


# -- substitution against a per-monomial reference ---------------------------------

_EVEN_PIECES = [CTX.parse(t) for t in ("1", "q", "p", "dot(q)", "w", "u*ubar", "q*p")]
_ODD_PIECES = [CTX.parse(t) for t in ("u", "ubar", "q*u", "dot(u)", "p*ubar")]
# Bindable keys with the largest exponent a monomial may carry on each; w is
# never bound, so every polynomial may keep an unbound slot.
_LADDER_SLOTS = {("q", 0): 15, ("p", 0): 15, ("q", 1): 3, ("u", 0): 1, ("ubar", 0): 1, ("w", 0): 2}


def _naive_substitute(poly, bindings):
    """Each monomial's coefficient times ``image ** exp`` per factor, summed."""
    out = CTX.zero()
    for mono, c in poly.terms.items():
        term = CTX.const(c)
        for slot, exp in mono:
            key = CTX.key(slot)
            term = term * bindings.get(key, CTX.sym(*key)) ** exp
        out = out + term
    return out


@st.composite
def ladder_cases(draw):
    """A polynomial with exponents 0 to 15 on q and p, and bindings for some
    of its symbols: even or odd, zero, or left unbound; exact or float."""
    exact = draw(st.booleans())
    coeffs = (
        st.fractions(min_value=-3, max_value=3, max_denominator=4)
        if exact
        else st.floats(min_value=-2, max_value=2, allow_nan=False)
    )
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        powers = {key: draw(st.integers(0, top)) for key, top in _LADDER_SLOTS.items()}
        terms[CTX.monomial(powers)] = draw(coeffs)
    bindings = {}
    for key in list(_LADDER_SLOTS)[:-1]:
        kind = draw(st.sampled_from(["unbound", "zero", "polynomial"]))
        if kind == "zero":
            bindings[key] = CTX.zero()
        elif kind == "polynomial":
            pieces = _ODD_PIECES if CTX.decl(key[0]).parity == "odd" else _EVEN_PIECES
            chosen = draw(st.lists(st.sampled_from(pieces), min_size=1, max_size=2))
            bindings[key] = sum((piece * draw(coeffs) for piece in chosen), CTX.zero())
    return GradedPolynomial(CTX, terms), bindings, exact


@given(case=ladder_cases())
def test_substitution_matches_the_per_monomial_reference(case):
    poly, bindings, exact = case
    out, reference = substitute(poly, bindings), _naive_substitute(poly, bindings)
    if exact:
        assert out == reference
        return
    # Float powers are multiplied in another order, so the two agree to
    # rounding: a few ulps of the largest magnitude a partial sum can reach,
    # Σ |c| Π ‖image‖₁^exp over the monomials.
    def norm(key):
        return sum(abs(complex(c)) for c in bindings.get(key, CTX.sym(*key)).terms.values())

    scale = sum(
        abs(complex(c)) * math.prod(norm(CTX.key(slot)) ** exp for slot, exp in mono)
        for mono, c in poly.terms.items()
    )
    for mono in set(out.terms) | set(reference.terms):
        gap = abs(complex(out.terms.get(mono, 0) - reference.terms.get(mono, 0)))
        assert gap <= 1e-12 * scale, (mono, gap, scale)


def test_substitution_reuses_powers_and_keeps_huge_exponents_cheap():
    # q^3, q^4 and q^7 share one ladder; q^99999999 costs O(log n) products,
    # and a zero binding wipes every monomial it touches.
    poly = CTX.parse("q^3 + q^4*p + 2*q^7")
    out = substitute(poly, {"q": CTX.parse("q + p")})
    assert out == CTX.parse("(q + p)^3 + (q + p)^4*p + 2*(q + p)^7")
    assert substitute(CTX.parse("q^99999999*w + w"), {"q": CTX.const(1)}) == CTX.parse("2*w")
    assert substitute(poly + CTX.parse("p"), {"q": CTX.zero()}) == CTX.parse("p")


def test_substitution_multiplies_no_coefficient_by_one(monkeypatch):
    # An unbound factor joins without a product.
    poly = CTX.parse("3/5*q*u")
    products = []
    multiply = CRational.__mul__
    monkeypatch.setattr(CRational, "__mul__", lambda z, w: products.append(w) or multiply(z, w))
    out = substitute(poly, {"p": CTX.sym("q")})
    monkeypatch.undo()
    assert products == [] and out == poly


def test_unbound_factors_pass_through_substitution(monkeypatch):
    # A slot with no binding gets no power ladder and no product: with no
    # bound slot in the polynomial, substitution multiplies nothing.
    poly = CTX.parse("3*q^4*p*u*ubar - w*dot(u)*p^2 + 2")
    calls = _count_kernel_calls(monkeypatch, ("mul",))
    out = substitute(poly, {("q", 1): CTX.parse("p")})
    monkeypatch.undo()
    assert calls == Counter() and out == poly
    # An unbound odd factor moves past the images of bound odd factors with
    # their sign, and meets them by one merge.
    assert substitute(CTX.parse("u*ubar"), {"u": CTX.parse("dot(u)")}) == CTX.parse("dot(u)*ubar")
    assert substitute(CTX.parse("u*ubar*q"), {"u": CTX.parse("q*ubar")}).is_zero()
    out = substitute(CTX.parse("u*ubar"), {"ubar": CTX.parse("p*dot(u)")})
    assert out == CTX.parse("p*u*dot(u)")
