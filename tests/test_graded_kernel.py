"""The graded-algebra kernel, and the one coefficient domain above it.

The kernel's sign rule is checked on its own against a brute-force
reference: concatenate the factors, bubble-sort them with a sign flip per
swap of two odd factors, and merge equal slots.  Its sum, the one that
every sum, difference and scalar multiple of term maps runs on, is checked
against a plain loop.  The kernel takes any coefficients; a polynomial
holds exact ones only, a float at its exact binary value, so an exact row
compares a float side exactly, and a float that cancels leaves its exact
remainder.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from spindeq import (
    EVEN,
    ODD,
    CRational,
    SymbolContext,
    dequantize,
    get_case,
    quantum_lagrangian,
)
from spindeq import _graded
from spindeq.suite import _exact_check, check_dequantization

CTX = SymbolContext((("x", EVEN), ("u", ODD), ("v", ODD)))
BOSONIC = get_case("bosonic").context


# Slots as in a context: (declaration index, dot order); 1 and 3 are odd, and
# a dotted slot has its base's parity.
KERNEL_ODD = {(b, d): b in (1, 3) for b in range(4) for d in range(2)}
monomials_st = st.dictionaries(
    st.sampled_from(sorted(KERNEL_ODD)), st.integers(1, 3), max_size=5
).map(lambda powers: tuple(sorted((s, 1 if KERNEL_ODD[s] else e) for s, e in powers.items())))


def reference_product(*monomials) -> tuple[int, tuple]:
    """The product of monomials by a stable bubble sort of their factors,
    ``(-1)`` per swap of two odd factors; 0 when an odd slot repeats."""
    factors = [factor for mono in monomials for factor in mono]
    sign = 1
    for end in range(len(factors) - 1, 0, -1):
        for k in range(end):
            if factors[k][0] > factors[k + 1][0]:
                if KERNEL_ODD[factors[k][0]] and KERNEL_ODD[factors[k + 1][0]]:
                    sign = -sign
                factors[k], factors[k + 1] = factors[k + 1], factors[k]
    merged = []
    for slot, e in factors:
        if merged and merged[-1][0] == slot:
            if KERNEL_ODD[slot]:
                return 0, ()
            merged[-1] = (slot, merged[-1][1] + e)
        else:
            merged.append((slot, e))
    return sign, tuple(merged)


@settings(max_examples=500)
@example(a=(((1, 1), 1),), b=(((1, 0), 1), ((3, 0), 1)), slot=(3, 1))  # crossing inside the merge
@example(a=(((3, 0), 1),), b=(((0, 0), 2), ((1, 0), 1)), slot=(1, 1))  # crossing in a's tail
@given(a=monomials_st, b=monomials_st, slot=st.sampled_from(sorted(KERNEL_ODD)))
def test_the_sign_rule_matches_the_bubble_sort_reference(a, b, slot):
    product = reference_product(a, b)
    assert _graded.merge(a, b, KERNEL_ODD) == product
    # The generator from the left.
    sign, mono = reference_product(((slot, 1),), a)
    assert _graded.left_multiply({a: 1}, slot, KERNEL_ODD) == ({mono: sign} if sign else {})
    # The left derivative strikes the factor brought to the front: a = s·slot·rest.
    powers = dict(a)
    if slot not in powers:
        expected = {}
    else:
        e = powers.pop(slot)
        if e > 1:
            powers[slot] = e - 1
        rest = tuple(sorted(powers.items()))
        sign, mono = reference_product(((slot, 1),), rest)
        assert mono == a
        expected = {rest: sign * e}
    assert _graded.left_derivative({a: 1}, slot, KERNEL_ODD) == expected
    # Products add into a given map in place; mul adds into {}.
    sign, mono = product
    terms = {mono: sign} if sign else {}
    assert _graded.mul({a: 1}, {b: 1}, KERNEL_ODD) == terms
    out = {a: 1}
    assert _graded.add_product(out, {a: 1}, {b: 1}, KERNEL_ODD) is out
    assert out == {a: 1 + terms.pop(a, 0), **terms}


@settings(max_examples=500)
@example(mono=(((0, 0), 3), ((1, 0), 1)), slot=(0, 0), c=CRational(2, 1))  # even, exponent 3
@example(mono=(((1, 0), 1), ((3, 1), 1)), slot=(3, 1), c=CRational(1))  # odd, past an odd factor
@example(mono=(((0, 1), 2), ((3, 0), 1)), slot=(3, 0), c=CRational(-1))  # odd, past an even one
@example(mono=(((0, 0), 1),), slot=(2, 0), c=CRational(1))  # absent slot
@example(mono=(), slot=(1, 0), c=CRational(1))  # the constant monomial
@given(
    mono=monomials_st,
    slot=st.sampled_from(sorted(KERNEL_ODD)),
    c=st.builds(CRational, st.integers(-3, 3), st.integers(-3, 3)).filter(bool),
)
def test_the_monomial_derivative_is_the_left_derivative_of_one_term(mono, slot, c):
    # The operator table's derivative step: one monomial to at most one,
    # times an int, equal to the left derivative of the one-term map.
    factor, image = _graded.monomial_derivative(mono, slot, KERNEL_ODD)
    assert type(factor) is int
    expected = _graded.left_derivative({mono: c}, slot, KERNEL_ODD)
    assert ({image: c * factor} if factor else {}) == expected
    assert factor == 0 or abs(factor) == (1 if KERNEL_ODD[slot] else dict(mono)[slot])


# Few monomials and small coefficients, so that sums often cancel.
SUM_MONOMIALS = [(), (((0, 0), 1),), (((1, 0), 1),), (((0, 0), 2), ((1, 0), 1))]
sum_coeff_st = st.builds(CRational, st.integers(-2, 2), st.integers(-1, 1)).filter(bool)
term_maps_st = st.dictionaries(
    st.sampled_from(SUM_MONOMIALS), sum_coeff_st | sum_coeff_st.map(complex)
)
factors_st = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(-3, 3),
    sum_coeff_st,
    st.sampled_from([0.5, -1.0, 1.0, -2.5]),
)


def reference_sum(out: dict, x: dict, k) -> dict:
    """out + k·x by a plain loop over the monomials of x, zeros dropped at the end."""
    total = dict(out)
    for mono, c in x.items():
        total[mono] = total.get(mono, 0) + c * k
    return {mono: c for mono, c in total.items() if c}


@example(out={(): CRational(1)}, x={(): CRational(1)}, k=-1)  # the sum cancels
@example(out={(): CRational(2)}, x={(): CRational(1)}, k=-2)  # an int product cancels
@example(out={(): 0.5 + 0j}, x={(): CRational(1)}, k=-0.5)  # a float product cancels
@given(out=term_maps_st, x=term_maps_st, k=factors_st)
def test_add_into_is_the_plain_sum_without_zeros(out, x, k):
    expected = reference_sum(out, x, k)
    before = dict(x)
    result = _graded.add_into(out, x, k)
    assert result is out and x == before
    assert result == expected
    assert all(result.values())


def test_add_into_multiplies_nothing_at_plus_and_minus_one():
    class Unscalable(CRational):
        __slots__ = ()

        def __mul__(self, other):
            raise AssertionError("add_into multiplied at k = ±1")

        __rmul__ = __mul__

    x = {(): Unscalable(1, 1), (((0, 0), 1),): Unscalable(-2)}
    assert _graded.add_into({}, x, 1) == x
    assert _graded.add_into({(): CRational(1, 1)}, x, -1) == {(((0, 0), 1),): CRational(2)}


def test_an_exact_row_fails_on_a_float_side():
    # A float side is its exact binary value: 0.5 is 1/2, and 0.1 is not 1/10.
    half_x, tenth_x = CTX.parse("x/2"), CTX.parse("x/10")
    assert _exact_check("row", half_x, CTX.sym("x") * Fraction(1, 2)).passed
    assert _exact_check("row", half_x, CTX.sym("x") * 0.5).passed
    row = _exact_check("row", tenth_x, CTX.sym("x") * 0.1)
    gap = CTX.sym("x") * (Fraction(0.1) - Fraction(1, 10))
    assert not row.passed and row.residual == str(gap) != "0"


def test_dequantization_rejects_a_float_lagrangian():
    # A float Lagrangian is checked at its exact binary value: 1.0·L is L,
    # and 1.1·L is not, so its split fails by an exact residual.
    case = get_case("bosonic")
    lagrangian = quantum_lagrangian(case, BOSONIC.parse("p^2/2 + q^2/2"))
    cpi_l, surface = dequantize(lagrangian, case)
    assert all(row.passed for row in check_dequantization(case, lagrangian, cpi_l, surface))
    (row,) = check_dequantization(case, lagrangian * 1.0, cpi_l, surface)
    assert row.name == "decomposition-exact" and row.passed and row.residual == 0
    (row,) = check_dequantization(case, lagrangian * 1.1, cpi_l, surface)
    assert not row.passed and row.residual != 0


def test_a_float_that_cancels_leaves_its_exact_remainder():
    # (c + 1) - c is 1 with c = 1e16: in floats the 1 would be lost.
    c = CTX.const(1e16)
    assert (c + 1) - c == 1
