"""One kernel under two element types: exact and numeric over one context.

The same random element is built as a ``GradedPolynomial`` (exact) and as a
``Multivector`` (numeric) over one ``SymbolContext`` of x (even), u and v
(odd).  Products, left derivatives and substitutions must then give the
same term map for both types, monomial by monomial.
"""

from hypothesis import given
from hypothesis import strategies as st

from spindeq import (
    EVEN,
    ODD,
    CRational,
    GradedPolynomial,
    Multivector,
    SymbolContext,
    partial_derivative,
    substitute,
)

CTX = SymbolContext((("x", EVEN), ("u", ODD), ("v", ODD)))
EXPS = [(i, j, k) for i in range(3) for j in range(2) for k in range(2)]

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=8)
coeff_st = st.builds(CRational, fractions_st, fractions_st)


@st.composite
def both_types(draw, parity=None):
    """One random element as a (Multivector, GradedPolynomial) pair."""
    exps = [e for e in EXPS if parity is None or (e[1] + e[2]) % 2 == parity]
    chosen = draw(st.lists(st.sampled_from(exps), max_size=4, unique=True))
    terms = {CTX.monomial(dict(zip("xuv", e))): draw(coeff_st) for e in chosen}
    return Multivector(CTX, terms), GradedPolynomial(CTX, terms)


def agree(mv, poly) -> bool:
    return type(mv) is Multivector and type(poly) is GradedPolynomial and mv.terms == poly.terms


@given(a=both_types(), b=both_types())
def test_products_agree(a, b):
    assert agree(a[0] * b[0], a[1] * b[1])


@given(a=both_types(), name=st.sampled_from(["x", "u", "v"]))
def test_left_derivatives_agree(a, name):
    assert agree(partial_derivative(a[0], name), partial_derivative(a[1], name))


@given(a=both_types(), x=both_types(parity=0), u=both_types(parity=1))
def test_substitutions_agree(a, x, u):
    via_multivectors = a[0].substitute({"x": x[0], "u": u[0]})
    via_polynomials = substitute(a[1], {"x": x[1], "u": u[1]})
    assert agree(via_multivectors, via_polynomials)
