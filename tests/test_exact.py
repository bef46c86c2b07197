"""Gaussian rationals against a reference built from a pair of Fractions.

Every ``CRational`` result is compared with the same operation done on
``(re, im)`` pairs of :class:`fractions.Fraction`, over operands of every
exact type on either side, and checked to be in normal form.  Float and
complex operands must give the ``complex`` that ``complex(z) op w`` gives.
"""

import math
import operator
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spindeq import CRational, crational, exact, format_poly
from spindeq.superfield import get_case

fractions_st = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=1000),
    st.integers(-(10**20), 10**20).map(Fraction),
)
crationals = st.builds(CRational, fractions_st, fractions_st)
# Every exact operand type: int, bool, Fraction and CRational.
exact_operands = st.one_of(
    st.integers(-(10**6), 10**6), st.booleans(), fractions_st, crationals
)
floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
float_operands = st.one_of(floats, st.builds(complex, floats, floats))

EXACT_OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


def pair(x) -> tuple[Fraction, Fraction]:
    if isinstance(x, CRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def reference(op, x, y) -> tuple[Fraction, Fraction]:
    (a, b), (c, d) = pair(x), pair(y)
    if op is operator.add:
        return a + c, b + d
    if op is operator.sub:
        return a - c, b - d
    if op is operator.mul:
        return a * c - b * d, a * d + b * c
    norm = c * c + d * d
    return (a * c + b * d) / norm, (b * c - a * d) / norm


def assert_normal(z: CRational) -> None:
    """(a + b*i)/d with d > 0 and gcd(a, b, d) = 1."""
    assert type(z._a) is int and type(z._b) is int and type(z._d) is int
    assert z._d > 0 and math.gcd(z._a, z._b, z._d) == 1


@pytest.mark.parametrize("op", EXACT_OPS, ids=lambda op: op.__name__)
@given(z=crationals, w=exact_operands)
def test_arithmetic_matches_the_fraction_pair_reference(op, z, w):
    for x, y in ((z, w), (w, z)):
        if op is operator.truediv and not y:
            continue
        out = op(x, y)
        assert isinstance(out, CRational)
        assert_normal(out)
        assert pair(out) == reference(op, x, y)


@given(z=crationals, m=st.integers(-(10**6), 10**6), f=fractions_st)
def test_int_products_and_real_quotients_match_the_reference(z, m, f):
    # Ints that share factors with the denominator, zero, negative ints and
    # bools, on either side of a product; real divisors of both signs,
    # including ones that share factors with the dividend.
    d = z._d
    for k in (m, -m, 0, 1, -1, d, -d, d * m, d // 2 or 1, -math.gcd(d, m), True, False):
        for x, y in ((z, k), (k, z)):
            out = x * y
            assert_normal(out)
            assert pair(out) == reference(operator.mul, x, y)
    for real in (f, Fraction(d, 3), Fraction(m or 5, d)):
        if not real:
            continue
        for divisor in (CRational(real, 0), CRational(-real, 0)):
            for x in (z, m, CRational(real)):
                out = x / divisor
                assert_normal(out)
                assert pair(out) == reference(operator.truediv, x, divisor)


def test_int_products_skip_the_lift_and_bools_do_not(monkeypatch):
    lifted = []
    monkeypatch.setattr(exact, "_lift", lambda value: lifted.append(value) or CRational(value))
    z = CRational(Fraction(5, 12), Fraction(-7, 18))  # over 36
    assert pair(z * 8) == pair(8 * z) == (Fraction(10, 3), Fraction(-28, 9))
    assert pair(z * -36) == (Fraction(-15), Fraction(14))
    assert lifted == []
    assert pair(z * True) == pair(z)
    assert lifted == [True]


@given(z=crationals)
def test_negation_bool_and_parts(z):
    re, im = z.re, z.im
    assert type(re) is Fraction and type(im) is Fraction
    neg = -z
    assert_normal(neg)
    assert pair(neg) == (-re, -im)
    assert bool(z) == (re != 0 or im != 0)


@given(z=crationals, w=exact_operands)
def test_equality_matches_the_reference_on_both_sides(z, w):
    same = pair(z) == pair(w)
    assert (z == w) is same and (w == z) is same
    assert (z != w) is not same
    if same:
        assert hash(z) == hash(w)


@given(z=crationals)
def test_values_built_by_different_routes_are_equal_and_hash_alike(z):
    re, im = z.re, z.im
    rebuilt = (CRational(re) * 3 + CRational(0, im) * 3) / 3
    assert_normal(rebuilt)
    assert rebuilt == z and hash(rebuilt) == hash(z) and repr(rebuilt) == repr(z)
    assert z - z == 0 and hash(z - z) == hash(0)


@given(f=fractions_st)
def test_real_values_hash_like_their_fraction(f):
    # Not only dyadic values: any denominator.
    assert hash(CRational(f)) == hash(f)
    assert hash(CRational(f) + CRational(0, 1) - CRational(0, 1)) == hash(f)
    if f.denominator == 1:
        assert hash(CRational(f)) == hash(int(f))


@pytest.mark.parametrize("op", EXACT_OPS, ids=lambda op: op.__name__)
@given(z=crationals, w=float_operands)
def test_float_and_complex_operands_give_complex(op, z, w):
    cz = complex(float(z.re), float(z.im))
    if op is not operator.truediv or w:
        out = op(z, w)
        assert type(out) is complex and out == op(cz, w)
    if op is not operator.truediv or z:
        out = op(w, z)
        # The reflected add and mul compute complex(z) op w; sub and div, w op complex(z).
        expected = op(cz, w) if op in (operator.add, operator.mul) else op(w, cz)
        assert type(out) is complex and out == expected


@given(z=crationals)
def test_division_by_a_zero_value_raises(z):
    for zero in (0, False, Fraction(0), CRational(0), CRational(Fraction(0), Fraction(0))):
        with pytest.raises(ZeroDivisionError):
            z / zero
    for exact in (1, True, Fraction(2, 3)):
        with pytest.raises(ZeroDivisionError):
            exact / CRational(0)


def test_a_pure_imaginary_value_prints_without_its_real_part():
    assert str(CRational(0, 2)) == "2i"


def test_constructor_accepts_what_fraction_accepts():
    assert CRational("3/4", Decimal("-0.5")) == CRational(Fraction(3, 4), Fraction(-1, 2))
    assert CRational(0.75, True) == CRational(Fraction(3, 4), 1)
    assert CRational(" -7 ") == -7
    with pytest.raises(TypeError):
        CRational(None)
    with pytest.raises(ValueError):
        CRational("half")
    assert crational(0.5 - 2j) == CRational(Fraction(1, 2), -2)
    assert crational(Fraction(1, 3)) == CRational(Fraction(1, 3))
    assert_normal(crational(True))
    with pytest.raises(TypeError):
        crational("1")


def test_numpy_scalars_get_not_implemented():
    np = pytest.importorskip("numpy")
    z = CRational(1, 2)
    for scalar in (np.int64(2), np.float32(0.5)):
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__eq__"):
            assert getattr(z, name)(scalar) is NotImplemented


def test_printer_is_pinned():
    z = CRational(Fraction(-3, 4), Fraction(5, 6))
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert repr(z) == "CRational(Fraction(-3, 4), Fraction(5, 6))"
    assert str(z) == "-3/4+5/6i"
    ctx = get_case("bosonic").context
    poly = ctx.parse("((-3/4)*q^2 + (5/6)*p - 7)*(1+i)")
    assert format_poly(poly) == "(-7-7*i) + (5/6+5/6*i)*p + (-3/4-3/4*i)*q^2"
