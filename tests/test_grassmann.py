"""Berezin calculus and graded-product laws on multivectors over contexts.

Worked examples pin the sign conventions (left derivatives, rightmost
measure first); hypothesis properties then hold over random multivectors
with exact coefficients, so any convention drift fails loudly rather than
by a lucky cancellation.  An operator's tabulated ``apply`` is compared
with the term-by-term loop it replaced, kept here as the reference.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spindeq import _graded, cpi
from spindeq import (
    EVEN,
    ODD,
    CRational,
    GradedPolynomial,
    GrassmannOperator,
    ParityError,
    SymbolContext,
    TableMismatchError,
    UnknownSymbolError,
    berezin_integral,
    crational,
    partial_derivative,
    product,
)
from spindeq.quantum import TABLE, spin_operators
from spindeq.superfield import get_case

PAIR = SymbolContext([("xi", ODD), ("xibar", ODD)])
MIXED = SymbolContext([("x", EVEN), ("u", ODD), ("v", ODD)])
MIXED_EXPS = [
    MIXED.monomial({"x": i, "u": j, "v": k}) for i in range(4) for j in range(2) for k in range(2)
]
# Every monomial of the quantum table's four odd generators.
QUANTUM_EXPS = [
    TABLE.monomial(dict(zip(("xi", "xibar", "xip", "xibarp"), bits)))
    for bits in itertools.product((0, 1), repeat=4)
]


def term(ctx, coeff, **powers):
    """One monomial, e.g. ``term(PAIR, 2, xi=1, xibar=1)``."""
    return GradedPolynomial(ctx, {ctx.monomial(powers): coeff})


def scalar(ctx, value):
    return GradedPolynomial(ctx, {(): value})

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
    return GradedPolynomial(MIXED, {e: draw(coeff_st) for e in chosen})


@st.composite
def monomials(draw, exps=MIXED_EXPS):
    return GradedPolynomial(MIXED, {draw(st.sampled_from(exps)): draw(coeff_st)})


def test_product_worked_example():
    a = scalar(PAIR, 1) + term(PAIR, 2, xi=1)
    b = scalar(PAIR, 3) + term(PAIR, 1, xibar=1)
    out = a * b
    assert out.coefficient({}) == 3
    assert out.coefficient({"xi": 1}) == 6
    assert out.coefficient({"xibar": 1}) == 1
    assert out.coefficient({"xi": 1, "xibar": 1}) == 2


def test_odd_square_is_zero():
    xi = PAIR.sym("xi")
    assert (xi * xi).is_zero()
    assert (term(PAIR, 3, xi=1, xibar=1) * PAIR.sym("xibar")).is_zero()


def test_anticommutation_sign():
    xi, xibar = PAIR.sym("xi"), PAIR.sym("xibar")
    assert xibar * xi == term(PAIR, -1, xi=1, xibar=1)
    assert xi * xibar + xibar * xi == scalar(PAIR, 0)


def test_left_derivative_worked_example():
    a = term(PAIR, 1, xi=1, xibar=1)
    assert partial_derivative(a, "xi") == PAIR.sym("xibar")
    assert partial_derivative(a, "xibar") == term(PAIR, -1, xi=1)


def test_berezin_rightmost_measure_first():
    a = term(PAIR, 1, xi=1, xibar=1)
    # [g1, g2] means d_g1 d_g2, so the xibar measure acts first here.
    assert berezin_integral(a, ["xi", "xibar"]) == scalar(PAIR, -1)
    assert berezin_integral(a, ["xibar", "xi"]) == scalar(PAIR, 1)
    assert berezin_integral(scalar(PAIR, 5), ["xi"]).is_zero()
    assert berezin_integral(PAIR.sym("xi"), ["xi"]) == scalar(PAIR, 1)


def test_reproducing_kernel_identity():
    ctx = SymbolContext([("xi", ODD), ("xip", ODD), ("xibar", ODD)])
    xi, xip, xibar = (ctx.sym(n) for n in ("xi", "xip", "xibar"))
    # The exponent x = ξ̄(ξ′ − ξ) squares to zero, so the weight e^x is 1 + x.
    x = xibar * (xip - xi)
    assert (x * x).is_zero()
    weight = 1 + x
    for psi in (
        scalar(ctx, CRational(Fraction(2, 3))),
        ctx.sym("xip"),
        term(ctx, CRational(1, 2), xip=1) + scalar(ctx, CRational(-3)),
    ):
        out = berezin_integral(weight * psi, ["xip", "xibar"])
        expected = psi.substitute({"xip": xi})
        assert out == expected


def test_even_powers_are_kept():
    x = MIXED.sym("x")
    cube = x * x * x
    assert cube.coefficient({"x": 3}) == 1
    assert cube * x == term(MIXED, 1, x=4)
    assert (x + MIXED.sym("u")) ** 5 == term(MIXED, 1, x=5) + term(MIXED, 5, x=4, u=1)


def test_exponent_range_is_checked():
    x, u = MIXED.slot("x"), MIXED.slot("u")
    with pytest.raises(ValueError):
        GradedPolynomial(MIXED, {((x, -1),): 1})
    with pytest.raises(ValueError):
        GradedPolynomial(MIXED, {((u, 2),): 1})
    with pytest.raises(ValueError):
        GradedPolynomial(MIXED, {((u, 1), (x, 1)): 1})  # not sorted by slot
    with pytest.raises(ValueError):
        GradedPolynomial(MIXED, {((3, 1),): 1})  # not a slot of the context
    assert GradedPolynomial(MIXED, {((x, 9), (u, 1)): 1}).coefficient({"x": 9, "u": 1}) == 1


def test_substitute_is_parity_checked():
    with pytest.raises(ParityError):
        MIXED.sym("u").substitute({"u": MIXED.sym("x")})


def test_table_mismatch_rejected():
    with pytest.raises(TableMismatchError):
        PAIR.sym("xi") + MIXED.sym("u")
    with pytest.raises(TableMismatchError):
        product(PAIR.sym("xi"), MIXED.sym("u"))


def test_unknown_generator_rejected():
    with pytest.raises(UnknownSymbolError):
        PAIR.sym("nope")
    with pytest.raises(UnknownSymbolError):
        partial_derivative(PAIR.sym("xi"), "nope")
    with pytest.raises(UnknownSymbolError):
        berezin_integral(PAIR.sym("xi"), ["nope"])


def test_berezin_integral_and_operators_reject_bad_input():
    with pytest.raises(ParityError):
        berezin_integral(MIXED.sym("u"), ["x"])
    operator = GrassmannOperator(PAIR.sym("xi"), {"xibar": ("xi", 1)})
    with pytest.raises(TableMismatchError):
        operator.apply(MIXED.sym("u"))


def test_operator_words_apply_right_to_left():
    # With xibar acting as d/dxi, the monomial xi*xibar differentiates first
    # and then multiplies, so it sends 1 to xi * d_xi(1) = 0; the symbol
    # 1 - xi*xibar, the normal order of d_xi xi, sends 1 to 1.
    derivatives = {"xibar": ("xi", 1)}
    one = scalar(PAIR, 1)
    xi_xibar = PAIR.sym("xi") * PAIR.sym("xibar")
    assert GrassmannOperator(xi_xibar, derivatives).apply(one).is_zero()
    assert GrassmannOperator(one - xi_xibar, derivatives).apply(one) == one


@given(terms=st.dictionaries(st.sampled_from(QUANTUM_EXPS), coeff_st, max_size=6))
def test_xi_and_its_derivative_anticommute(terms):
    # X multiplies by xi and D differentiates by it, so X D + D X = 1 on any
    # multivector of the quantum table, the primed generators included.
    psi = GradedPolynomial(TABLE, terms)
    derivatives = {"xibar": ("xi", 1)}
    x = GrassmannOperator(TABLE.sym("xi"), derivatives)
    d = GrassmannOperator(TABLE.sym("xibar"), derivatives)
    assert x.apply(d.apply(psi)) + d.apply(x.apply(psi)) == psi


def test_derivative_symbols_keep_the_parity_of_their_generator():
    with pytest.raises(ParityError):
        GrassmannOperator(MIXED.sym("u"), {"x": ("u", 1)})
    with pytest.raises(ParityError):
        GrassmannOperator(MIXED.sym("x"), {"u": ("x", 1)})


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
    odd = GradedPolynomial(MIXED, odd_terms)
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
    free = GradedPolynomial(MIXED, {e: c for e, c in a.terms.items() if all(s[0] != 2 for s, _ in e)})
    shifted = free.substitute({"u": MIXED.sym("u") + MIXED.sym("v")})
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


# -- the operator table --------------------------------------------------------------


def _term_by_term(operator, psi):
    """``operator.apply(psi)`` as computed before operators tabulated their
    action: each symbol term's steps run on all of psi, and the results are
    summed in the symbol's monomial order.  The reference of the table."""
    odd = operator.context.is_odd
    out = {}
    for coeff, steps in operator._terms:
        cur = psi.terms
        for step, slot in steps:
            cur = step(cur, slot, odd)
        _graded.add_into(out, cur, coeff)
    return GradedPolynomial._wrap(operator.context, out)


def _case_monomials(case_name):
    """Monomials over the fields, ghosts, auxiliaries and antighosts of a
    case, odd exponents at most 1 and even ones at most 2."""
    case = get_case(case_name)
    ctx = case.context
    names = [name for f in case.families for name in (f.base, f.ghost, f.aux, f.antighost)]
    tops = [1 if ctx.decl(name).parity == ODD else 2 for name in names]
    return [ctx.monomial(dict(zip(names, exps)))
            for exps in itertools.product(*(range(top + 1) for top in tops))]


_CPI_SPECS = (
    cpi.CpiSpec("bosonic"),
    cpi.CpiSpec("bosonic", hamiltonian=get_case("bosonic").context.parse(
        "(1/4)*q^2 - p^2 + 3*q*p + 2*q")),
    cpi.CpiSpec("grassmann", coefficients={"w": Fraction(13, 10)}),
    cpi.CpiSpec("coadjoint", coefficients={"muB": Fraction(4, 5)}),
)
_CASE_MONOMIALS = {spec.case: _case_monomials(spec.case) for spec in _CPI_SPECS}


@given(data=st.data(), index=st.integers(0, len(_CPI_SPECS) - 1))
def test_tabulated_apply_matches_term_by_term_under_cpi_operators(data, index):
    spec = _CPI_SPECS[index]
    op = cpi.build_cpi_hamiltonian(spec)
    exps = _CASE_MONOMIALS[spec.case]
    for _ in range(2):  # the second round reads entries the first one filled
        terms = data.draw(st.dictionaries(st.sampled_from(exps), coeff_st, max_size=5))
        psi = GradedPolynomial(op.context, terms)
        assert op.apply(psi).terms == _term_by_term(op, psi).terms
        assert all(type(c) is CRational for image in op._table.values() for c in image.values())


@given(terms=st.dictionaries(st.sampled_from(QUANTUM_EXPS), coeff_st, max_size=6))
def test_tabulated_apply_matches_term_by_term_on_spin_words(terms):
    psi = GradedPolynomial(TABLE, terms)
    for op in spin_operators(Fraction(3, 7)):
        assert op.word.apply(psi).terms == _term_by_term(op.word, psi).terms


@given(symbol=multivectors(), psi=multivectors(max_terms=6), factor=coeff_st)
def test_tabulated_apply_matches_term_by_term_with_an_odd_derivative(symbol, psi, factor):
    # v acts as factor times the left derivative by u; x and u multiply.
    op = GrassmannOperator(symbol, {"v": ("u", factor)})
    for scale in (1, Fraction(-2, 3)):
        assert op.apply(psi * scale).terms == _term_by_term(op, psi * scale).terms


def test_a_single_monomial_keeps_its_image_order():
    # closure_matrix reads its basis off the insertion order of each image.
    for spec in _CPI_SPECS:
        op = cpi.build_cpi_hamiltonian(spec)
        for mono in _CASE_MONOMIALS[spec.case][:40]:
            psi = GradedPolynomial(op.context, {mono: CRational(2, -1)})
            assert list(op.apply(psi).terms) == list(_term_by_term(op, psi).terms)


def test_each_operator_has_its_own_table_and_never_sums_into_it():
    spec = _CPI_SPECS[1]
    first, second = (cpi.build_cpi_hamiltonian(spec) for _ in range(2))
    ctx = first.context
    psi = ctx.parse("q^2*c_p + (1/2)*q*p - i*c_q")
    image = first.apply(psi)
    assert first._table and first._table is not second._table and not second._table
    assert second.apply(psi) == image and len(second._table) == len(first._table)
    saved = {mono: dict(entry) for mono, entry in first._table.items()}
    for other in (psi, -psi, psi * 3 + ctx.parse("q^2*c_p"), psi - psi):
        first.apply(other)
    assert {mono: first._table[mono] for mono in saved} == saved
    assert first.apply(psi) == image


def _closure_by_term_by_term(op, seeds):
    """``LiouvilleOperator.closure_matrix`` with every image term by term."""
    basis = list(dict.fromkeys(seeds))
    known, images = set(basis), []
    for seed in basis:
        image = _term_by_term(op, GradedPolynomial(op.context, {seed: 1})).terms
        basis += [mono for mono in image if mono not in known]
        known.update(image)
        images.append(image)
    return tuple(basis), tuple(
        tuple(crational(image.get(mono, 0)) for image in images) for mono in basis)


def test_closure_matrix_keeps_its_basis_and_matrix():
    for spec in _CPI_SPECS:
        op = cpi.build_cpi_hamiltonian(spec)
        ctx, case = op.context, get_case(spec.case)
        names = [name for f in case.families for name in (f.base, f.ghost)]
        seeds = [ctx.monomial({names[0]: 1}), ctx.monomial({names[1]: 1, names[2]: 1}),
                 ctx.monomial({names[0]: 1, names[3]: 1})]
        assert op.closure_matrix(seeds) == _closure_by_term_by_term(op, seeds)
