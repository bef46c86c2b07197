"""Superfield expansions, observable maps, and the dequantization split.

The three registered cases share one shape: each base field expands into
(field, ghost, antighost, auxiliary) components over the odd time partners,
and applying i times the double odd integral to a Lagrangian of superfields
must land on the matching classical-path-integral Lagrangian up to a total
time derivative.
"""

import os
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spindeq import (
    CASES,
    IdentityViolationError,
    TableMismatchError,
    UnsupportedCaseError,
    builtin_hamiltonian,
    builtin_hamiltonians,
    compose_observable_taylor,
    cpi_lagrangian,
    dequantize,
    formal_time_derivative,
    get_case,
    partial_derivative,
    quantum_lagrangian,
    substitute,
    superfield_bindings,
    supertime_integral,
    top_component,
)
from spindeq import _graded, exact, suite, superfield, symbols
from spindeq.symbols import format_poly

SOURCE = os.path.dirname(symbols.__file__)


def test_case_registry():
    assert CASES == ("bosonic", "grassmann", "coadjoint")
    for name in CASES:
        case = get_case(name)
        assert get_case(case) is case
        assert len(case.families) == 2
    with pytest.raises(UnsupportedCaseError):
        get_case("nope")


def test_superfield_component_shapes():
    for name in CASES:
        case = get_case(name)
        ctx = case.context
        zero = ctx.zero()
        for family, sf in zip(case.families, case.superfields):
            base = ctx.sym(family.base)
            assert sf.parity() == base.parity()
            assert substitute(sf, {case.theta: zero, case.thetabar: zero}) == base
            # Odd partners flip parity; the top component restores it.
            theta_part = partial_derivative(substitute(sf, {case.thetabar: zero}), case.theta)
            thetabar_part = partial_derivative(substitute(sf, {case.theta: zero}), case.thetabar)
            top = supertime_integral(sf, case.theta, case.thetabar)
            assert theta_part.parity() == thetabar_part.parity() == 1 - base.parity()
            assert top.parity() == base.parity()


def test_bosonic_components_pin_signs():
    case = get_case("bosonic")
    ctx = case.context
    first, second = case.superfields
    assert first == ctx.parse("q + theta*c_q + thetabar*cbar_p + i*thetabar*theta*lam_p")
    assert second == ctx.parse("p + theta*c_p - thetabar*cbar_q - i*thetabar*theta*lam_q")


def test_grassmann_components_pin_signs():
    case = get_case("grassmann")
    ctx = case.context
    first, second = case.superfields
    assert first == ctx.parse(
        "xi + theta*c_xi - i*thetabar*cbar_xibar - thetabar*theta*lam_xibar"
    )
    assert second == ctx.parse(
        "xibar + theta*c_xibar - i*thetabar*cbar_xi - thetabar*theta*lam_xi"
    )


def test_coadjoint_eta_superfield():
    case = get_case("coadjoint")
    ctx = case.context
    first, second = case.superfields
    assert first == ctx.parse("phi + chi*c_phi + chibar*cbar_eta + i*chibar*chi*Lam_eta")
    composed = substitute(ctx.parse("eta"), superfield_bindings(case))
    assert composed == second
    assert composed == ctx.parse("eta + chi*c_eta - chibar*cbar_phi - i*chibar*chi*Lam_phi")


def test_bindings_include_time_derivatives():
    for name in CASES:
        case = get_case(name)
        bindings = superfield_bindings(case)
        for family in case.families:
            assert bindings[(family.base, 1)] == formal_time_derivative(bindings[(family.base, 0)])


def test_supertime_integral_picks_top_component():
    ctx = get_case("bosonic").context
    pair = ("theta", "thetabar")
    assert supertime_integral(ctx.parse("thetabar*theta*q"), *pair) == ctx.parse("i*q")
    assert supertime_integral(ctx.parse("theta*thetabar*q"), *pair) == ctx.parse("-i*q")
    assert supertime_integral(ctx.parse("q*p + theta*c_q"), *pair).is_zero()


def test_grassmann_substitution_term_count():
    case = get_case("grassmann")
    expanded = substitute(case.context.parse("xi*xibar"), superfield_bindings(case))
    assert len(expanded.terms) == 9


def _bosonic_hamiltonian(degree, rng):
    """Half (rounded up) of the monomials q^a·p^b of each total degree up to
    ``degree``, with random rational coefficients."""
    ctx = get_case("bosonic").context
    h = ctx.zero()
    for k in range(1, degree + 1):
        for a in rng.sample(range(k + 1), (k + 2) // 2):
            c = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
            h = h + ctx.sym("q") ** a * ctx.sym("p") ** (k - a) * c
    return h


def test_taylor_route_matches_substitution():
    # The Taylor route never calls substitute, so it is an independent oracle.
    bosonic = get_case("bosonic").context
    probes = [
        ("bosonic", bosonic.parse("q^2*p + p^3/3")),
        ("bosonic", _bosonic_hamiltonian(12, random.Random(7))),
        ("grassmann", get_case("grassmann").context.parse("xi*xibar")),
        ("coadjoint", get_case("coadjoint").context.parse("-muB*eta")),
    ]
    for name, h in probes:
        bindings = superfield_bindings(name)
        assert compose_observable_taylor(h, bindings) == substitute(h, bindings)


def _degree_twelve_lagrangian(case):
    """A fixed bosonic Hamiltonian of degree 12 and its 49-term Lagrangian."""
    ctx = case.context
    h = ctx.zero()
    for k in range(1, 13):
        for a in range(0, k + 1, 2):
            h = h + ctx.sym("q") ** a * ctx.sym("p") ** (k - a) * Fraction(a + 1, k - a + 2)
    lagrangian = quantum_lagrangian(case, h)
    assert len(lagrangian.terms) == 49
    return h, lagrangian


def _count_products(monkeypatch, name="mul"):
    """``[kernel products, monomial pairs]`` of ``_graded.mul`` or, with
    ``name="add_product"``, of the product that adds into a given term map
    (which ``mul`` also calls), counted until ``monkeypatch.undo()``."""
    counts = [0, 0]
    product = getattr(_graded, name)

    def counted(*args):
        x, y = args[-3:-1]
        counts[0] += 1
        counts[1] += len(x) * len(y)
        return product(*args)

    monkeypatch.setattr(_graded, name, counted)
    return counts


def test_substitution_work_stays_at_the_ladder_figure(monkeypatch):
    # Kernel products are counted, not timed, so the figure repeats exactly.
    # Raising each binding to each exponent per monomial took 257 products
    # and 4,686 monomial pairs here; the ascending ladder of powers takes 102
    # and 1,421.
    case = get_case("bosonic")
    _, lagrangian = _degree_twelve_lagrangian(case)
    bindings = superfield_bindings(case)
    counts = _count_products(monkeypatch)
    out = substitute(lagrangian, bindings)
    monkeypatch.undo()
    assert counts[0] <= 102 and counts[1] <= 1421, counts
    assert out == compose_observable_taylor(lagrangian, bindings)


def test_dequantization_work_stays_at_the_taylor_figure(monkeypatch):
    # The same 49-term Lagrangian: substitution and the supertime integral
    # took 111 kernel products over 1,643 monomial pairs inside dequantize;
    # the top-component rule took 17 over 284 with a part per ordered pair of
    # slots, and takes 7 over 214 with one per unordered pair, each added
    # into one term map.  It never substitutes, and the surface takes one
    # time derivative per bilinear (two here, against four when each β took
    # its own).  The top component takes a derivative pass only for a bound
    # slot that L uses, and for a pair of them: 9 here, against 13 when
    # dot(p), which L lacks, took its own four.  Every part is a unit, so it
    # multiplies by a sign or a quarter turn: no product of two CRationals
    # inside top_component, where each of the 214 pairs took one; its 152
    # int products are the exponents that the derivatives bring down.
    # Dequantize builds 337 CRationals, against 380 with the products, and
    # 622 before int products skipped the lift, exponents of 1 the product
    # and the split its second subtraction.
    case = get_case("bosonic")
    h, lagrangian = _degree_twelve_lagrangian(case)
    case.top_parts  # the parts are built once per case, outside the count
    def never(self, bindings):
        raise AssertionError("dequantize called substitute")

    derivatives = []

    def recorded(p):
        derivatives.append(p)
        return formal_time_derivative(p)

    made = [0]
    make = exact._make

    def counted_make(a, b, d):
        made[0] += 1
        return make(a, b, d)

    passes = [0]
    left_derivative = _graded.left_derivative

    def counted_pass(*args):
        passes[0] += 1
        return left_derivative(*args)

    products = Counter()
    multiply = exact.CRational.__mul__

    def counted_product(z, other):
        products[type(other).__name__] += 1
        return multiply(z, other)

    monkeypatch.setattr(_graded, "left_derivative", counted_pass)
    monkeypatch.setattr(exact.CRational, "__mul__", counted_product)
    raw = top_component(lagrangian, case)
    assert passes == [9] and products == {"int": 152}, (passes, products)
    monkeypatch.undo()
    counts = _count_products(monkeypatch, "add_product")
    monkeypatch.setattr(exact, "_make", counted_make)
    monkeypatch.setattr(symbols.GradedPolynomial, "substitute", never)
    monkeypatch.setattr(superfield, "formal_time_derivative", recorded)
    result = dequantize(lagrangian, case)
    monkeypatch.undo()
    assert counts[0] <= 7 and counts[1] <= 214, counts
    assert made[0] <= 337, made
    assert len(derivatives) == len({format_poly(p) for p in derivatives}) == 2
    substituted = supertime_integral(
        substitute(lagrangian, superfield_bindings(case)), case.theta, case.thetabar
    )
    assert raw == substituted
    assert result.cpi_lagrangian + result.surface_term == substituted
    assert result.cpi_lagrangian == cpi_lagrangian(case, h)


def _sweep_text(h) -> str:
    """H as the dequantization benchmark writes it: one ``(a/b)*q^i*p^j``
    per term, joined by `` + ``."""
    pieces = []
    for mono, c in h.terms.items():
        powers = dict((h.context.key(slot)[0], e) for slot, e in mono)
        a, _, d = c.normal_form
        pieces.append(f"({a}/{d})*q^{powers.get('q', 0)}*p^{powers.get('p', 0)}")
    return " + ".join(pieces)


def test_parse_work_stays_at_the_one_term_figure():
    # Parsing the 48-term H of the Lagrangian above, in the benchmark's text
    # form.  With a term map for every atom, power, product, quotient and
    # parenthesis the parser made 2,116 calls of Python functions in
    # spindeq; carrying one term as a (coefficient, monomial) pair, with
    # atoms read inside the unary rule, it makes 1,733, and builds a term
    # map only for the sum.  Calls are counted, not timed, so the figure
    # repeats exactly.
    case = get_case("bosonic")
    h, _ = _degree_twelve_lagrangian(case)
    text = _sweep_text(h)
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(SOURCE):
            calls[frame.f_code.co_name] += 1

    made = [0]
    make = exact._make

    def counted_make(a, b, d):
        made[0] += 1
        return make(a, b, d)

    exact._make = counted_make
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        parsed = case.context.parse(text)
    finally:
        sys.setprofile(previous)
        exact._make = make
    assert parsed == h
    assert calls["_terms"] == 49 and calls["add_into"] == 47, calls  # one map, one sum
    assert sum(calls.values()) <= 1733, sum(calls.values())
    assert made[0] <= 144, made


def test_negation_and_int_factors_take_no_generic_product(monkeypatch):
    # -p and 1 - p multiplied by a lifted -1, and p * 2 by a lifted 2: the
    # generic product, one three-way gcd (exact._reduced) per coefficient,
    # 49 each on this Lagrangian.  Negation multiplies nothing, and an int
    # factor takes the int product, which needs only gcd(k, d).
    _, p = _degree_twelve_lagrangian(get_case("bosonic"))
    calls = [0]
    reduced = exact._reduced

    def counted(a, b, d):
        calls[0] += 1
        return reduced(a, b, d)

    monkeypatch.setattr(exact, "_reduced", counted)
    results = [-p, 1 - p, p * 2]
    monkeypatch.undo()
    assert calls == [0]
    for result in results:
        assert all(type(c) is exact.CRational for c in result.terms.values())
    minus_one, two = exact.CRational(-1), exact.CRational(2)
    assert results == [p * minus_one, 1 + p * minus_one, p * two]


def _case_factors(case):
    """``(name, dot)`` of every symbol of a case but its supertime pair: a
    constant at dot order 0, the only one it takes, and each family's base
    field, ghost, auxiliary and antighost at dot order 0 to 2."""
    fields = [name for f in case.families for name in (f.base, f.ghost, f.aux, f.antighost)]
    return st.one_of(
        st.tuples(st.sampled_from(case.constants), st.just(0)),
        st.tuples(st.sampled_from(fields), st.integers(0, 2)),
    )


@st.composite
def _lagrangians(draw):
    """A random exact Lagrangian over one case's symbols, free of θ and θ̄,
    every field at dot order 0 to 2 and every constant undotted, with the
    case's kinetic term or without."""
    case = get_case(draw(st.sampled_from(CASES)))
    ctx = case.context
    factor = _case_factors(case)
    out = case.kinetic_term if draw(st.booleans()) else ctx.zero()
    for _ in range(draw(st.integers(1, 5))):
        term = ctx.const(Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 5))))
        for name, dot in draw(st.lists(factor, max_size=4)):
            term = term * ctx.sym(name, dot)
        out = out + term
    return case, out


@given(_lagrangians())
def test_top_component_is_the_supertime_integral_of_the_substitution(drawn):
    case, lagrangian = drawn
    if any(dot > 1 and name in case.base_names for name, dot in lagrangian.symbols_used()):
        # No superfield binding covers a base field at dot order 2, so the
        # split refuses it rather than pass it through unexpanded.
        with pytest.raises(UnsupportedCaseError, match="higher time derivative"):
            dequantize(lagrangian, case)
        return
    raw = supertime_integral(
        substitute(lagrangian, superfield_bindings(case)), case.theta, case.thetabar
    )
    assert top_component(lagrangian, case) == raw
    try:
        result = dequantize(lagrangian, case)
    except IdentityViolationError:
        return  # no CPI Lagrangian plus a total derivative; the split is refused
    assert result.cpi_lagrangian + result.surface_term == raw


def test_dequantize_rejects_the_supertime_pair_before_any_work(monkeypatch):
    def never(*args):
        raise AssertionError("dequantize did work")

    monkeypatch.setattr(_graded, "left_derivative", never)
    for name in CASES:
        case = get_case(name)
        ctx = case.context
        ghost = ctx.sym(case.families[0].ghost)
        for odd_time in (case.theta, case.thetabar):
            lagrangian = case.kinetic_term + ctx.sym(odd_time) * ghost
            with pytest.raises(UnsupportedCaseError) as err:
                dequantize(lagrangian, case)
            assert f"({case.theta}, {case.thetabar})" in str(err.value)
            assert "--lagrangian" in str(err.value)
            # The pair is constant, so a dotted one is refused where it is built.
            for dot in (1, 2):
                with pytest.raises(ValueError, match=f"^'{odd_time}' is a constant"):
                    ctx.sym(odd_time, dot)


def test_case_polynomials_are_derived_once():
    for name in CASES:
        case = get_case(name)
        ctx = case.context
        assert case.kinetic_term == ctx.parse(case.kinetic)
        assert case.shift_term == (None if case.shift is None else ctx.parse(case.shift))
        for key, text in case.hamiltonians:
            assert builtin_hamiltonian(case, key) == ctx.parse(text)
            assert builtin_hamiltonian(case, key) is builtin_hamiltonian(name, key)
        fresh = {}
        for family, sf in zip(case.families, case.superfields):
            fresh[(family.base, 0)] = sf
            fresh[(family.base, 1)] = formal_time_derivative(sf)
        handed_out = superfield_bindings(case)
        assert handed_out == fresh
        handed_out[(case.families[0].base, 0)] = ctx.zero()
        del handed_out[(case.families[1].base, 1)]
        assert superfield_bindings(name) == fresh
    with pytest.raises(UnsupportedCaseError):
        builtin_hamiltonian("grassmann", "harmonic")


def test_builtin_tables():
    for name in CASES:
        table = builtin_hamiltonians(name)
        assert table
        for key in table:
            poly = builtin_hamiltonian(name, key)
            assert not poly.is_zero()
    with pytest.raises(UnsupportedCaseError):
        builtin_hamiltonian("bosonic", "nope")


def test_quantum_lagrangian_forms():
    bos = get_case("bosonic")
    h = builtin_hamiltonian("bosonic", "free")
    assert quantum_lagrangian(bos, h) == bos.context.parse("p*dot(q) - p^2/2")
    gra = get_case("grassmann")
    hg = builtin_hamiltonian("grassmann", "spin")
    assert quantum_lagrangian(gra, hg) == gra.context.parse(
        "i*xibar*dot(xi) - (-(w/2)*(1 - 2*xi*xibar))"
    )
    coa = get_case("coadjoint")
    hc = builtin_hamiltonian("coadjoint", "spin")
    assert quantum_lagrangian(coa, hc) == coa.context.parse("eta*dot(phi) + muB*eta")
    assert quantum_lagrangian(coa, hc, gamma=True) == coa.context.parse(
        "(gamma + eta)*dot(phi) + muB*eta"
    )


def test_dequantize_splits_exactly():
    for name in CASES:
        case = get_case(name)
        h = builtin_hamiltonian(name, "spin" if name != "bosonic" else "harmonic")
        l = quantum_lagrangian(case, h)
        raw = supertime_integral(
            substitute(l, superfield_bindings(case)), case.theta, case.thetabar
        )
        result = dequantize(l, case)
        assert result.cpi_lagrangian + result.surface_term == raw
        assert result.cpi_lagrangian == cpi_lagrangian(case, h)


def test_surface_term_is_a_total_derivative():
    case = get_case("bosonic")
    ctx = case.context
    h = builtin_hamiltonian("bosonic", "harmonic")
    result = dequantize(quantum_lagrangian(case, h), case)
    expected = formal_time_derivative(ctx.parse("-(lam_p*p + i*cbar_p*c_p)"))
    assert result.surface_term == expected


def test_dequantize_rejects_non_lagrangian_input():
    case = get_case("bosonic")
    with pytest.raises(IdentityViolationError) as err:
        dequantize(case.context.parse("dot(lam_p)*dot(q)"), case)
    assert "residual" in err.value.payload
    # Here the surface term brings the leftover in: d/dt(lam_p*cbar_p*c_q)
    # absorbs the raw dot(lam_p)*cbar_p*c_q and adds lam_p*dot(cbar_p)*c_q.
    with pytest.raises(IdentityViolationError) as err:
        dequantize(case.context.parse("dot(q)*cbar_p*c_q"), case)
    assert err.value.payload["residual"] == "lam_p*dot(cbar_p)*c_q"
    with pytest.raises(TableMismatchError):
        dequantize(get_case("coadjoint").context.parse("eta*dot(phi)"), case)


def test_quantum_lagrangian_rejects_a_shift_the_case_lacks():
    for name in ("bosonic", "grassmann"):
        h = builtin_hamiltonian(name, next(iter(builtin_hamiltonians(name))))
        with pytest.raises(UnsupportedCaseError):
            quantum_lagrangian(name, h, gamma=True)


def test_top_parts_without_the_half_fail_every_dequantization_group(monkeypatch):
    # The second-order parts T(½Δ_bΔ_a) taken twice: the three groups share
    # one row builder, and each of them must see the wrong top component.
    for name in CASES:
        case = get_case(name)
        doubled = tuple(
            (b, first, tuple((a, {mono: 2 * c for mono, c in part.items()}) for a, part in pairs))
            for b, first, pairs in case.top_parts
        )
        monkeypatch.setitem(case.__dict__, "top_parts", doubled)
    for group in (suite.check_bosonic_dequantization, suite.check_grassmann_dequantization,
                  suite.check_coadjoint_dequantization):
        rows = group()
        assert all(not row.passed for row in rows if row.name.endswith("-cpi")), group.__name__


@pytest.mark.parametrize("unit", [
    lambda c: -c,  # every part negated
    lambda c: exact.CRational(c.re, -c.im),  # i and -i swapped
], ids=["negated", "conjugated"])
def test_top_parts_with_other_units_fail_every_dequantization_group(unit, monkeypatch):
    # Every part's coefficients are units, so the kernel turns by them
    # instead of multiplying.  Changed units stay units: a wrong sign or a
    # wrong quarter turn must still reach the rows, at every seed.
    units = {(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)}
    for name in CASES:
        case = get_case(name)
        for _b, first, pairs in case.top_parts:
            for part in (first, *(part for _a, part in pairs)):
                assert {c.normal_form for c in part.values()} <= units
        turned = tuple(
            (b, {mono: unit(c) for mono, c in first.items()},
             tuple((a, {mono: unit(c) for mono, c in part.items()}) for a, part in pairs))
            for b, first, pairs in case.top_parts
        )
        monkeypatch.setitem(case.__dict__, "top_parts", turned)
    for group in (suite.check_bosonic_dequantization, suite.check_grassmann_dequantization,
                  suite.check_coadjoint_dequantization):
        for seed in range(3):
            rows = group(seed)
            assert all(not row.passed for row in rows if row.name.endswith("-cpi")), group.__name__
