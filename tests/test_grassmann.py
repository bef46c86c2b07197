"""Berezin calculus and graded-product laws on finite generator tables.

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
    GeneratorTable,
    GrassmannOperator,
    Multivector,
    ParityError,
    TableMismatchError,
    UnknownGeneratorError,
    berezin_integral,
    graded_exp,
    left_derivative,
    product,
)

PAIR = GeneratorTable.odd("xi", "xibar")
MIXED = GeneratorTable([("x", EVEN), ("u", ODD), ("v", ODD)])
MIXED_EXPS = [MIXED.monomial((i, j, k)) for i in range(4) for j in range(2) for k in range(2)]

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
    a = PAIR.scalar(1) + PAIR.term(2, xi=1)
    b = PAIR.scalar(3) + PAIR.term(1, xibar=1)
    out = a * b
    assert out.coefficient() == 3
    assert out.coefficient(xi=1) == 6
    assert out.coefficient(xibar=1) == 1
    assert out.coefficient(xi=1, xibar=1) == 2


def test_odd_square_is_zero():
    xi = PAIR.gen("xi")
    assert (xi * xi).is_zero()
    assert (PAIR.term(3, xi=1, xibar=1) * PAIR.gen("xibar")).is_zero()


def test_anticommutation_sign():
    xi, xibar = PAIR.gen("xi"), PAIR.gen("xibar")
    assert xibar * xi == PAIR.term(-1, xi=1, xibar=1)
    assert xi * xibar + xibar * xi == PAIR.zero()


def test_left_derivative_worked_example():
    a = PAIR.term(1, xi=1, xibar=1)
    assert left_derivative(a, "xi") == PAIR.gen("xibar")
    assert left_derivative(a, "xibar") == PAIR.term(-1, xi=1)


def test_berezin_rightmost_measure_first():
    a = PAIR.term(1, xi=1, xibar=1)
    # [g1, g2] means d_g1 d_g2, so the xibar measure acts first here.
    assert berezin_integral(a, ["xi", "xibar"]) == PAIR.scalar(-1)
    assert berezin_integral(a, ["xibar", "xi"]) == PAIR.scalar(1)
    assert berezin_integral(PAIR.scalar(5), ["xi"]).is_zero()
    assert berezin_integral(PAIR.gen("xi"), ["xi"]) == PAIR.scalar(1)


def test_reproducing_kernel_identity():
    table = GeneratorTable.odd("xi", "xip", "xibar")
    xi, xip, xibar = (table.gen(n) for n in table.names)
    weight = graded_exp(xibar * (xip - xi))
    for psi in (
        table.scalar(CRational(Fraction(2, 3))),
        table.gen("xip"),
        table.term(CRational(1, 2), xip=1) + table.scalar(CRational(-3)),
    ):
        out = berezin_integral(weight * psi, ["xip", "xibar"])
        expected = psi.substitute({"xip": xi})
        assert out == expected


def test_even_powers_are_kept():
    x = MIXED.gen("x")
    cube = x * x * x
    assert cube.coefficient(x=3) == 1
    assert cube * x == MIXED.term(1, x=4)
    assert (x + MIXED.gen("u")) ** 5 == MIXED.term(1, x=5) + MIXED.term(5, x=4, u=1)


def test_exponent_range_is_checked():
    with pytest.raises(ValueError):
        Multivector(MIXED, {((0, -1),): 1})
    with pytest.raises(ValueError):
        Multivector(MIXED, {((1, 2),): 1})
    with pytest.raises(ValueError):
        Multivector(MIXED, {((1, 1), (0, 1)): 1})  # not sorted by slot
    assert Multivector(MIXED, {((0, 9), (1, 1)): 1}).coefficient(x=9, u=1) == 1


def test_substitute_is_parity_checked():
    with pytest.raises(ParityError):
        MIXED.gen("u").substitute({"u": MIXED.gen("x")})


def test_substitute_into_another_table_keeps_unbound_parities():
    # An odd generator renamed onto an even one would square to a^2, not 0.
    with pytest.raises(ParityError):
        GeneratorTable.odd("a").gen("a").substitute({}, table=GeneratorTable([("a", EVEN)]))
    moved = MIXED.gen("u").substitute({}, table=GeneratorTable([("u", ODD)]))
    assert (moved * moved).is_zero()


def test_table_mismatch_rejected():
    with pytest.raises(TableMismatchError):
        PAIR.gen("xi") + MIXED.gen("u")
    with pytest.raises(TableMismatchError):
        product(PAIR.gen("xi"), MIXED.gen("u"))


def test_unknown_generator_rejected():
    with pytest.raises(UnknownGeneratorError):
        PAIR.gen("nope")
    with pytest.raises(UnknownGeneratorError):
        left_derivative(PAIR.gen("xi"), "nope")


def test_graded_exp_requires_even_argument():
    with pytest.raises(ParityError):
        graded_exp(PAIR.gen("xi"))


def test_graded_exp_rejects_non_nilpotent_argument():
    for a in (MIXED.gen("x"), MIXED.scalar(2) + MIXED.gen("x") * MIXED.gen("x")):
        with pytest.raises(ParityError):
            graded_exp(a)
    # An even generator times an odd pair is nilpotent and so allowed.
    uv = MIXED.term(1, x=1, u=1, v=1)
    assert graded_exp(uv) == MIXED.scalar(1) + uv


def test_graded_exp_nilpotent_series():
    assert graded_exp(PAIR.zero()) == PAIR.scalar(1)
    a = PAIR.term(CRational(Fraction(1, 2)), xi=1, xibar=1)
    out = graded_exp(a)
    assert out.coefficient() == 1
    assert out.coefficient(xi=1, xibar=1) == CRational(Fraction(1, 2))


def test_graded_exp_factors_scalar_part():
    import math

    a = PAIR.scalar(math.log(2.0)) + PAIR.term(1, xi=1, xibar=1)
    out = graded_exp(a)
    assert complex(out.coefficient()) == pytest.approx(2.0)
    assert complex(out.coefficient(xi=1, xibar=1)) == pytest.approx(2.0)


def test_operator_words_apply_right_to_left():
    # ("diff","xi") then ("mul","xi") as a word acts as first multiply by
    # xi, then differentiate; on 1 that gives d_xi(xi * 1) = 1.
    op = GrassmannOperator(PAIR, [(1, (("diff", "xi"), ("mul", "xi")))])
    assert op.apply(PAIR.scalar(1)) == PAIR.scalar(1)
    op2 = GrassmannOperator(PAIR, [(1, (("mul", "xi"), ("diff", "xi")))])
    assert op2.apply(PAIR.scalar(1)).is_zero()


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
    odd_terms = {e: c for e, c in a.terms.items() if sum(x for i, x in e if i > 0) % 2 == 1}
    odd = Multivector(MIXED, odd_terms)
    assert (odd * odd).is_zero()


@given(a=monomials(), b=multivectors())
def test_left_derivative_leibniz(a, b):
    sign = -1 if a.parity() == 1 else 1
    lhs = left_derivative(a * b, "u")
    rhs = left_derivative(a, "u") * b + (a * left_derivative(b, "u")) * sign
    assert lhs == rhs


@given(a=multivectors())
def test_berezin_equals_left_derivative(a):
    assert berezin_integral(a, ["u"]) == left_derivative(a, "u")


@given(a=multivectors())
def test_berezin_translation_invariance(a):
    # Restrict to integrands free of v, then shift u by v.
    free = Multivector(MIXED, {e: c for e, c in a.terms.items() if all(i != 2 for i, _ in e)})
    shifted = free.substitute({"u": MIXED.gen("u") + MIXED.gen("v")})
    assert berezin_integral(shifted, ["u"]) == berezin_integral(free, ["u"])


@given(a=multivectors())
def test_double_derivative_vanishes(a):
    assert left_derivative(left_derivative(a, "u"), "u").is_zero()


@given(re=dyadic_st, im=dyadic_st)
def test_crational_hash_matches_equal_numbers(re, im):
    z = CRational(re, im)
    w = complex(float(re), float(im))
    assert z == w and hash(z) == hash(w)
    if im == 0:
        assert hash(z) == hash(Fraction(re))
