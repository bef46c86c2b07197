"""One element class, each coefficient exact or float.

The same random element is built twice over one ``SymbolContext``: with
exact Gaussian-rational coefficients, and with their ``complex()`` values.
Products, left derivatives, substitutions and the bosonic CPI operator H̃
must then agree term by term within 1e-12, and the exact side must stay
exact.  Exactness is a property of the coefficients, so an exact claim
checks it where the claim is made; the last tests show why at the input.

The kernel's sign rule is checked on its own against a brute-force
reference: concatenate the factors, bubble-sort them with a sign flip per
swap of two odd factors, and merge equal slots.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spindeq import (
    EVEN,
    ODD,
    CpiSpec,
    CRational,
    GradedPolynomial,
    SymbolContext,
    build_cpi_hamiltonian,
    dequantize,
    get_case,
    partial_derivative,
    quantum_lagrangian,
    substitute,
)
from spindeq import _graded
from spindeq.suite import _exact_check, check_dequantization

CTX = SymbolContext((("x", EVEN), ("u", ODD), ("v", ODD)))
EXPS = [{"x": i, "u": j, "v": k} for i in range(3) for j in range(2) for k in range(2)]
BOSONIC = get_case("bosonic").context
# H̃ of a quadratic H with every kind of term, and monomials in fields and ghosts.
LIOUVILLE = build_cpi_hamiltonian(
    CpiSpec("bosonic", hamiltonian=BOSONIC.parse("p^2/2 + q^2/3 + q*p/5 - 2*p"))
)
FIELD_EXPS = [
    {"q": a, "p": b, "c_q": g, "c_p": h}
    for a in range(3) for b in range(3) for g in range(2) for h in range(2)
]

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=8)
coeff_st = st.builds(CRational, fractions_st, fractions_st)


@st.composite
def both_kinds(draw, ctx=CTX, exps=EXPS, parity=None):
    """One random element as an (exact, float) pair."""
    odd = [name for name in exps[-1] if ctx.decl(name).parity == ODD]
    exps = [e for e in exps if parity is None or sum(e[n] for n in odd) % 2 == parity]
    chosen = draw(st.lists(st.sampled_from(range(len(exps))), max_size=4, unique=True))
    terms = {ctx.monomial(exps[i]): draw(coeff_st) for i in chosen}
    return (
        GradedPolynomial(ctx, terms),
        GradedPolynomial(ctx, {mono: complex(c) for mono, c in terms.items()}),
    )


def agree(exact, floated) -> bool:
    floats = all(isinstance(c, complex) for c in floated.terms.values())
    return exact.is_exact() and floats and all(
        abs(complex(exact.terms.get(m, 0)) - floated.terms.get(m, 0)) <= 1e-12
        for m in exact.terms.keys() | floated.terms.keys()
    )


@given(a=both_kinds(), b=both_kinds())
def test_products_agree(a, b):
    assert agree(a[0] * b[0], a[1] * b[1])


@given(a=both_kinds(), name=st.sampled_from(["x", "u", "v"]))
def test_left_derivatives_agree(a, name):
    assert agree(partial_derivative(a[0], name), partial_derivative(a[1], name))


@given(a=both_kinds(), x=both_kinds(parity=0), u=both_kinds(parity=1))
def test_substitutions_agree(a, x, u):
    via_method = a[1].substitute({"x": x[1], "u": u[1]})
    assert agree(substitute(a[0], {"x": x[0], "u": u[0]}), via_method)


@given(psi=both_kinds(ctx=BOSONIC, exps=FIELD_EXPS))
def test_operator_applications_agree(psi):
    assert agree(LIOUVILLE.apply(psi[0]), LIOUVILLE.apply(psi[1]))


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


def test_an_exact_row_fails_on_a_float_side():
    half_x = CTX.parse("x/2")
    assert _exact_check("row", half_x, CTX.sym("x") * Fraction(1, 2)).passed
    for expected, actual in ((half_x, CTX.sym("x") * 0.5), (CTX.sym("x") * 0.5, half_x)):
        row = _exact_check("row", expected, actual)
        assert not row.passed and row.residual == "inexact side"


def test_dequantization_rejects_a_float_lagrangian():
    case = get_case("bosonic")
    lagrangian = quantum_lagrangian(case, BOSONIC.parse("p^2/2 + q^2/2"))
    cpi_l, surface = dequantize(lagrangian, case)
    assert all(row.passed for row in check_dequantization(case, lagrangian, cpi_l, surface))
    with pytest.raises(ValueError, match="exact"):
        check_dequantization(case, lagrangian * 1.0, cpi_l, surface)


def test_a_float_that_cancels_leaves_no_coefficient_to_inspect():
    # Why the check sits at the input: (c + 1) - c is 1, but in floats the 1
    # is lost, and the zero polynomial left over looks exact.
    c = CTX.const(1e16)
    gap = (c + 1) - c
    assert gap.is_zero() and gap.is_exact()
    exact = CTX.const(10**16)
    assert (exact + 1) - exact == 1
