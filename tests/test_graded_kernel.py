"""One kernel under two faces: the same algebra as a table and as a context.

The generators x (even), u and v (odd) are declared in the same order on
both faces, so generator slot i of the ``GeneratorTable`` is slot (i, 0) of
the ``SymbolContext``.  Products, left derivatives and substitutions must
then give the same term map on both faces, monomial by monomial.
"""

from hypothesis import given
from hypothesis import strategies as st

from spindeq import (
    EVEN,
    ODD,
    CRational,
    GeneratorTable,
    GradedPolynomial,
    Multivector,
    SymbolContext,
    left_derivative,
    partial_derivative,
    substitute,
)

GENERATORS = (("x", EVEN), ("u", ODD), ("v", ODD))
TABLE = GeneratorTable(GENERATORS)
CTX = SymbolContext(GENERATORS)
EXPS = [(i, j, k) for i in range(3) for j in range(2) for k in range(2)]

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=8)
coeff_st = st.builds(CRational, fractions_st, fractions_st)


@st.composite
def both_faces(draw, parity=None):
    """One random element as a (Multivector, GradedPolynomial) pair."""
    exps = [e for e in EXPS if parity is None or (e[1] + e[2]) % 2 == parity]
    chosen = draw(st.lists(st.sampled_from(exps), max_size=4, unique=True))
    terms = {TABLE.monomial(e): draw(coeff_st) for e in chosen}
    as_symbols = {tuple(((i, 0), k) for i, k in mono): c for mono, c in terms.items()}
    return Multivector(TABLE, terms), GradedPolynomial(CTX, as_symbols)


def agree(mv, poly) -> bool:
    as_table = {tuple((slot[0], k) for slot, k in mono): c for mono, c in poly.terms.items()}
    return mv.terms == as_table


@given(a=both_faces(), b=both_faces())
def test_products_agree(a, b):
    assert agree(a[0] * b[0], a[1] * b[1])


@given(a=both_faces(), name=st.sampled_from(["x", "u", "v"]))
def test_left_derivatives_agree(a, name):
    assert agree(left_derivative(a[0], name), partial_derivative(a[1], name))


@given(a=both_faces(), x=both_faces(parity=0), u=both_faces(parity=1))
def test_substitutions_agree(a, x, u):
    via_table = a[0].substitute({"x": x[0], "u": u[0]})
    via_symbols = substitute(a[1], {"x": x[1], "u": u[1]})
    assert agree(via_table, via_symbols)
