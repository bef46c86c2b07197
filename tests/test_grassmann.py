"""Berezin calculus and graded-product laws on multivectors over contexts.

Worked examples pin the sign conventions (left derivatives, rightmost
measure first); hypothesis properties then hold over random multivectors
with exact coefficients, so any convention drift fails loudly rather than
by a lucky cancellation.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spindeq import (
    EVEN,
    ODD,
    CRational,
    GradedPolynomial,
    GrassmannOperator,
    Multivector,
    ParityError,
    SymbolContext,
    TableMismatchError,
    UnknownSymbolError,
    berezin_integral,
    partial_derivative,
    product,
)

PAIR = SymbolContext([("xi", ODD), ("xibar", ODD)])
MIXED = SymbolContext([("x", EVEN), ("u", ODD), ("v", ODD)])
MIXED_EXPS = [
    MIXED.monomial({"x": i, "u": j, "v": k}) for i in range(4) for j in range(2) for k in range(2)
]
gen = Multivector.gen


def term(ctx, coeff, **powers):
    """One monomial, e.g. ``term(PAIR, 2, xi=1, xibar=1)``."""
    return Multivector(ctx, {ctx.monomial(powers): coeff})


def scalar(ctx, value):
    return Multivector(ctx, {(): value})

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=8)
coeff_st = st.builds(CRational, fractions_st, fractions_st)


# Values exact in binary floating point, so each CRational has an equal complex.
dyadic_st = st.one_of(
    st.integers(-(10**12), 10**12),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(0, 40).map(lambda k: 2**k)),
)


@st.composite
def multivectors(draw, exps=MIXED_EXPS, max_terms=4):
    chosen = draw(st.lists(st.sampled_from(exps), min_size=0, max_size=max_terms, unique=True))
    return Multivector(MIXED, {e: draw(coeff_st) for e in chosen})


@st.composite
def monomials(draw, exps=MIXED_EXPS):
    return Multivector(MIXED, {draw(st.sampled_from(exps)): draw(coeff_st)})


def test_product_worked_example():
    a = scalar(PAIR, 1) + term(PAIR, 2, xi=1)
    b = scalar(PAIR, 3) + term(PAIR, 1, xibar=1)
    out = a * b
    assert out.coefficient({}) == 3
    assert out.coefficient({"xi": 1}) == 6
    assert out.coefficient({"xibar": 1}) == 1
    assert out.coefficient({"xi": 1, "xibar": 1}) == 2


def test_odd_square_is_zero():
    xi = gen(PAIR, "xi")
    assert (xi * xi).is_zero()
    assert (term(PAIR, 3, xi=1, xibar=1) * gen(PAIR, "xibar")).is_zero()


def test_anticommutation_sign():
    xi, xibar = gen(PAIR, "xi"), gen(PAIR, "xibar")
    assert xibar * xi == term(PAIR, -1, xi=1, xibar=1)
    assert xi * xibar + xibar * xi == scalar(PAIR, 0)


def test_left_derivative_worked_example():
    a = term(PAIR, 1, xi=1, xibar=1)
    assert partial_derivative(a, "xi") == gen(PAIR, "xibar")
    assert partial_derivative(a, "xibar") == term(PAIR, -1, xi=1)


def test_berezin_rightmost_measure_first():
    a = term(PAIR, 1, xi=1, xibar=1)
    # [g1, g2] means d_g1 d_g2, so the xibar measure acts first here.
    assert berezin_integral(a, ["xi", "xibar"]) == scalar(PAIR, -1)
    assert berezin_integral(a, ["xibar", "xi"]) == scalar(PAIR, 1)
    assert berezin_integral(scalar(PAIR, 5), ["xi"]).is_zero()
    assert berezin_integral(gen(PAIR, "xi"), ["xi"]) == scalar(PAIR, 1)


def test_reproducing_kernel_identity():
    ctx = SymbolContext([("xi", ODD), ("xip", ODD), ("xibar", ODD)])
    xi, xip, xibar = (gen(ctx, n) for n in ("xi", "xip", "xibar"))
    # The exponent x = ξ̄(ξ′ − ξ) squares to zero, so the weight e^x is 1 + x.
    x = xibar * (xip - xi)
    assert (x * x).is_zero()
    weight = 1 + x
    for psi in (
        scalar(ctx, CRational(Fraction(2, 3))),
        gen(ctx, "xip"),
        term(ctx, CRational(1, 2), xip=1) + scalar(ctx, CRational(-3)),
    ):
        out = berezin_integral(weight * psi, ["xip", "xibar"])
        expected = psi.substitute({"xip": xi})
        assert out == expected


def test_even_powers_are_kept():
    x = gen(MIXED, "x")
    cube = x * x * x
    assert cube.coefficient({"x": 3}) == 1
    assert cube * x == term(MIXED, 1, x=4)
    assert (x + gen(MIXED, "u")) ** 5 == term(MIXED, 1, x=5) + term(MIXED, 5, x=4, u=1)


def test_exponent_range_is_checked():
    x, u = MIXED.slot("x"), MIXED.slot("u")
    with pytest.raises(ValueError):
        Multivector(MIXED, {((x, -1),): 1})
    with pytest.raises(ValueError):
        Multivector(MIXED, {((u, 2),): 1})
    with pytest.raises(ValueError):
        Multivector(MIXED, {((u, 1), (x, 1)): 1})  # not sorted by slot
    with pytest.raises(ValueError):
        Multivector(MIXED, {((3, 1),): 1})  # not a slot of the context
    assert Multivector(MIXED, {((x, 9), (u, 1)): 1}).coefficient({"x": 9, "u": 1}) == 1


def test_substitute_is_parity_checked():
    with pytest.raises(ParityError):
        gen(MIXED, "u").substitute({"u": gen(MIXED, "x")})


def test_table_mismatch_rejected():
    with pytest.raises(TableMismatchError):
        gen(PAIR, "xi") + gen(MIXED, "u")
    with pytest.raises(TableMismatchError):
        product(gen(PAIR, "xi"), gen(MIXED, "u"))
    # Over one context, an exact polynomial and a multivector never combine.
    exact = PAIR.sym("xi")
    assert isinstance(gen(PAIR, "xi"), GradedPolynomial)
    for mixed in (lambda: exact + gen(PAIR, "xibar"), lambda: gen(PAIR, "xibar") * exact):
        with pytest.raises(TypeError):
            mixed()
    assert exact != gen(PAIR, "xi")
    with pytest.raises(TypeError):
        exact * 0.5


def test_unknown_generator_rejected():
    with pytest.raises(UnknownSymbolError):
        gen(PAIR, "nope")
    with pytest.raises(UnknownSymbolError):
        partial_derivative(gen(PAIR, "xi"), "nope")
    with pytest.raises(UnknownSymbolError):
        berezin_integral(gen(PAIR, "xi"), ["nope"])


def test_operator_words_apply_right_to_left():
    # ("diff","xi") then ("mul","xi") as a word acts as first multiply by
    # xi, then differentiate; on 1 that gives d_xi(xi * 1) = 1.
    op = GrassmannOperator(PAIR, [(1, (("diff", "xi"), ("mul", "xi")))])
    assert op.apply(scalar(PAIR, 1)) == scalar(PAIR, 1)
    op2 = GrassmannOperator(PAIR, [(1, (("mul", "xi"), ("diff", "xi")))])
    assert op2.apply(scalar(PAIR, 1)).is_zero()


@given(a=multivectors(), b=multivectors(), c=multivectors())
def test_product_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(a=multivectors(), b=multivectors(), c=multivectors())
def test_product_distributes_over_sum(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(a=monomials(), b=monomials())
def test_graded_commutativity_on_homogeneous_terms(a, b):
    sign = -1 if (a.parity() == 1 and b.parity() == 1) else 1
    assert a * b == (b * a) * sign


@given(a=multivectors())
def test_odd_part_squares_to_zero(a):
    odd_terms = {e: c for e, c in a.terms.items() if sum(x for s, x in e if s[0] > 0) % 2 == 1}
    odd = Multivector(MIXED, odd_terms)
    assert (odd * odd).is_zero()


@given(a=monomials(), b=multivectors())
def test_left_derivative_leibniz(a, b):
    sign = -1 if a.parity() == 1 else 1
    lhs = partial_derivative(a * b, "u")
    rhs = partial_derivative(a, "u") * b + (a * partial_derivative(b, "u")) * sign
    assert lhs == rhs


@given(a=multivectors())
def test_berezin_equals_left_derivative(a):
    assert berezin_integral(a, ["u"]) == partial_derivative(a, "u")


@given(a=multivectors())
def test_berezin_translation_invariance(a):
    # Restrict to integrands free of v, then shift u by v.
    free = Multivector(MIXED, {e: c for e, c in a.terms.items() if all(s[0] != 2 for s, _ in e)})
    shifted = free.substitute({"u": gen(MIXED, "u") + gen(MIXED, "v")})
    assert berezin_integral(shifted, ["u"]) == berezin_integral(free, ["u"])


@given(a=multivectors())
def test_double_derivative_vanishes(a):
    assert partial_derivative(partial_derivative(a, "u"), "u").is_zero()


@given(re=dyadic_st, im=dyadic_st)
def test_crational_hash_matches_equal_numbers(re, im):
    z = CRational(re, im)
    w = complex(float(re), float(im))
    assert z == w and hash(z) == hash(w)
    if im == 0:
        assert hash(z) == hash(Fraction(re))
