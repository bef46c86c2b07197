"""Spin-1/2 over one odd generator: operators, symbols, kernels, slicing.

Every operator here exists in four interchangeable forms: a 2x2 matrix, a
word in multiplication/derivative moves on wavefunctions, an ordered symbol
in (xi, xibar), and an integral kernel in (xi, xi').  The tests force all
four to agree, then check that composing symbols is a homomorphism onto
matrix products and that the time-sliced propagator converges at first
order onto the closed-form rotation.  The float oracles are 2x2 tuples of
``complex``; numpy and scipy appear here only as independent references.
The suite's spin rows are exact identities on a generic field and state,
and two sabotaged Hamiltonians must fail the generic-field row; a slicing
row whose error reaches its stated tolerance fails.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from spindeq import (
    EVEN,
    ODD,
    CRational,
    GradedPolynomial,
    MagneticField,
    SpinOperator,
    SpinState,
    SymbolContext,
    apply_kernel,
    compose_symbols,
    hamiltonian,
    integral_kernel,
    kernel_from_symbol,
    kernel_propagate,
    kernel_to_matrix,
    magnetic_evolution,
    operator_from_matrix,
    ordered_symbol,
    pauli_evolve,
    sliced_propagator,
    sliced_symbol,
    slicing_errors,
    spin_operators,
    symbol_to_matrix,
)
from spindeq import quantum
from spindeq.cli import main
from spindeq.exact import I
from spindeq.quantum import TABLE, _operator, _symbol, symbol_structure_constants
from spindeq.suite import check_isomorphism, check_slice_errors, check_slicing

fractions_st = st.fractions(min_value=-3, max_value=3, max_denominator=6)
entry_st = st.builds(CRational, fractions_st, fractions_st)
matrix_st = st.tuples(
    st.tuples(entry_st, entry_st), st.tuples(entry_st, entry_st)
)

BASIS = (SpinState(1, 0), SpinState(0, 1))


def _matmul(m1, m2):
    return tuple(
        tuple(sum((m1[i][k] * m2[k][j] for k in range(2)), CRational(0)) for j in range(2))
        for i in range(2)
    )


def _matrices_equal(m1, m2) -> bool:
    return all(m1[i][j] == m2[i][j] for i in range(2) for j in range(2))


def test_spin_operator_matrices():
    sx, sy, sz, n = spin_operators()
    half = CRational(Fraction(1, 2))
    assert sx.matrix == ((CRational(0), half), (half, CRational(0)))
    assert sy.matrix == ((CRational(0), CRational(0, Fraction(-1, 2))),
                         (CRational(0, Fraction(1, 2)), CRational(0)))
    assert sz.matrix == ((half, CRational(0)), (CRational(0), -half))
    assert n.matrix == ((half, CRational(0)), (CRational(0), -half))


def test_hbar_scales_spin_but_not_occupation():
    plain = spin_operators()
    scaled = spin_operators(hbar=Fraction(3))
    for a, b in zip(plain[:3], scaled[:3]):
        assert _matrices_equal(
            tuple(tuple(e * 3 for e in row) for row in a.matrix), b.matrix
        )
    assert _matrices_equal(plain[3].matrix, scaled[3].matrix)


def test_occupation_operator_squares_to_quarter_identity():
    n = spin_operators()[3]
    quarter = CRational(Fraction(1, 4))
    assert _matrices_equal(
        _matmul(n.matrix, n.matrix), ((quarter, CRational(0)), (CRational(0), quarter))
    )
    for state in BASIS:
        twice = SpinState.from_multivector(n.word.apply(n.word.apply(state.as_multivector())))
        assert twice.c0 == quarter * state.c0
        assert twice.c1 == quarter * state.c1


def test_hamiltonian_matrix_forms():
    mu = Fraction(3, 2)
    diag = hamiltonian(MagneticField(0, 0, 2, mu_b=mu))
    assert diag.matrix == ((CRational(-3), CRational(0)), (CRational(0), CRational(3)))
    zero = hamiltonian(MagneticField(0, 0, 0))
    assert all(e == 0 for row in zero.matrix for e in row)


def test_diagonal_field_symbol_and_kernel_terms():
    b = MagneticField(0, 0, 1)
    sym = ordered_symbol(hamiltonian(b))
    assert sym.coefficient({}) == -1
    assert sym.coefficient({"xi": 1, "xibar": 1}) == 2
    bx, by, mu = Fraction(2), Fraction(-1), Fraction(1, 2)
    kern = integral_kernel(hamiltonian(MagneticField(bx, by, 0, mu_b=mu)))
    assert kern.coefficient({}) == -CRational(mu) * CRational(bx, -by)


def test_matrix_and_word_forms_agree_on_basis():
    ops = list(spin_operators()) + [hamiltonian(MagneticField(1, Fraction(1, 2), -2))]
    for op in ops:
        for state in BASIS:
            via_matrix = op.apply_matrix(state)
            via_words = SpinState.from_multivector(op.word.apply(state.as_multivector()))
            assert via_matrix.c0 == via_words.c0
            assert via_matrix.c1 == via_words.c1


component_st = st.one_of(
    st.integers(-5, 5),
    fractions_st,
    st.floats(-3, 3, allow_nan=False, allow_infinity=False),
)


@given(bx=component_st, by=component_st, bz=component_st, mu_b=component_st)
def test_hamiltonian_forms_agree_for_any_component_types(bx, by, bz, mu_b):
    b = MagneticField(bx, by, bz, mu_b=mu_b)
    op = hamiltonian(b)
    # A float component enters at its exact binary value, so both forms are exact.
    assert all(isinstance(v, (int, Fraction, CRational)) for row in op.matrix for v in row)
    for state in BASIS:
        via_matrix = op.apply_matrix(state)
        via_words = SpinState.from_multivector(op.word.apply(state.as_multivector()))
        assert via_matrix == via_words


def test_su2_commutators_in_matrix_form():
    sx, sy, sz, _ = spin_operators()
    i = CRational(0, 1)
    for a, b, c in ((sx, sy, sz), (sy, sz, sx), (sz, sx, sy)):
        comm = _matmul(a.matrix, b.matrix)
        swapped = _matmul(b.matrix, a.matrix)
        lhs = tuple(tuple(comm[r][s] - swapped[r][s] for s in range(2)) for r in range(2))
        rhs = tuple(tuple(i * c.matrix[r][s] for s in range(2)) for r in range(2))
        assert _matrices_equal(lhs, rhs)


def test_symbol_matrix_round_trip():
    for op in spin_operators():
        assert _matrices_equal(symbol_to_matrix(ordered_symbol(op)), op.matrix)


def test_kernel_matrix_round_trip():
    for op in spin_operators():
        assert _matrices_equal(kernel_to_matrix(integral_kernel(op)), op.matrix)


def test_kernel_from_symbol_matches_direct_kernel():
    ops = list(spin_operators()) + [hamiltonian(MagneticField(2, -1, Fraction(1, 3)))]
    for op in ops:
        assert kernel_from_symbol(ordered_symbol(op)) == integral_kernel(op)


def test_identity_kernel_reproduces_states():
    ident = operator_from_matrix(((1, 0), (0, 1)))
    kern = integral_kernel(ident)
    for state in (SpinState(1, 0), SpinState(Fraction(2, 3), CRational(0, 1))):
        out = apply_kernel(kern, state.as_multivector())
        assert out == state.as_multivector()


def test_kernel_application_matches_matrix():
    op = hamiltonian(MagneticField(1, 2, 3))
    kern = integral_kernel(op)
    for state in BASIS:
        via_kernel = SpinState.from_multivector(apply_kernel(kern, state.as_multivector()))
        via_matrix = op.apply_matrix(state)
        assert via_kernel.c0 == via_matrix.c0
        assert via_kernel.c1 == via_matrix.c1


_FIELD = MagneticField(1, 2, 3)
_SYMBOL = ordered_symbol(hamiltonian(_FIELD))
_KERNEL = integral_kernel(hamiltonian(_FIELD))
_PSI = SpinState(1, 2).as_multivector()
# Each input slot: the call, a valid input and a generator outside its support.
_SUPPORTS = {
    "symbol_to_matrix": (symbol_to_matrix, _SYMBOL, "xip"),
    "kernel_to_matrix": (kernel_to_matrix, _KERNEL, "xibar"),
    "SpinState.from_multivector": (SpinState.from_multivector, _PSI, "xibar"),
    "kernel_from_symbol": (kernel_from_symbol, _SYMBOL, "xip"),
    "compose_symbols-late": (lambda s: compose_symbols(s, _SYMBOL), _SYMBOL, "xibarp"),
    "compose_symbols-early": (lambda s: compose_symbols(_SYMBOL, s), _SYMBOL, "xip"),
    "apply_kernel-kernel": (lambda k: apply_kernel(k, _PSI), _KERNEL, "xibarp"),
    "apply_kernel-wavefunction": (lambda p: apply_kernel(_KERNEL, p), _PSI, "xip"),
}


@pytest.mark.parametrize("slot", sorted(_SUPPORTS))
def test_inputs_outside_their_support_are_rejected(slot):
    call, valid, stray = _SUPPORTS[slot]
    call(valid)
    # TABLE's declarations and one more, so the terms carry over unchanged.
    other = SymbolContext(
        [*((name, EVEN, True) for name in ("mu_b", "bx", "by", "bz", "c0", "c1")),
         *((name, ODD) for name in ("xi", "xibar", "xip", "xibarp", "eta"))]
    )
    for bad in (
        valid + TABLE.sym(stray),
        valid * TABLE.sym(stray),
        GradedPolynomial(other, valid.terms),
    ):
        with pytest.raises(ValueError):
            call(bad)


@given(m1=matrix_st, m2=matrix_st)
def test_symbol_composition_is_matrix_multiplication(m1, m2):
    s1 = ordered_symbol(operator_from_matrix(m1))
    s2 = ordered_symbol(operator_from_matrix(m2))
    assert _matrices_equal(symbol_to_matrix(compose_symbols(s1, s2)), _matmul(m1, m2))


@given(m1=matrix_st, m2=matrix_st, m3=matrix_st)
def test_symbol_composition_is_associative(m1, m2, m3):
    s1, s2, s3 = (ordered_symbol(operator_from_matrix(m)) for m in (m1, m2, m3))
    assert compose_symbols(compose_symbols(s1, s2), s3) == compose_symbols(
        s1, compose_symbols(s2, s3)
    )


def test_identity_symbol_is_neutral():
    ident = ordered_symbol(operator_from_matrix(((1, 0), (0, 1))))
    probe = ordered_symbol(hamiltonian(MagneticField(1, -2, 3)))
    assert compose_symbols(ident, probe) == probe
    assert compose_symbols(probe, ident) == probe


def test_magnetic_field_parsing():
    b = MagneticField.from_text("1/2, 0, -3", mu_b=Fraction(2))
    assert b.bx == Fraction(1, 2) and b.bz == -3
    assert all(isinstance(v, (int, Fraction)) for v in (b.bx, b.by, b.bz, b.mu_b))
    assert b.norm() == pytest.approx(np.sqrt(0.25 + 9.0))
    assert b.larmor_phase(2.0) == pytest.approx(4.0 * b.norm())
    with pytest.raises(ValueError):
        MagneticField.from_text("1,2")
    with pytest.raises(ValueError):
        MagneticField(0, 0, 0).unit()


def test_magnetic_evolution_matches_expm():
    for b, t in [
        (MagneticField(1, 0, 0), 0.9),
        (MagneticField(0.3, -0.4, 0.8, mu_b=1.7), 2.5),
        (MagneticField(0, 0, 0), 1.0),
    ]:
        h = np.array(hamiltonian(b).matrix, dtype=complex)
        expected = scipy.linalg.expm(-1j * t * h)
        assert np.allclose(magnetic_evolution(b, t), expected, atol=1e-12)


def test_pauli_evolution_diagonal_phase_and_unitarity():
    mu_b, bz, t = 1.3, 0.7, 2.1
    out = pauli_evolve(SpinState(1, 0), MagneticField(0, 0, bz, mu_b=mu_b), t)
    assert complex(out.c0) == pytest.approx(np.exp(1j * mu_b * bz * t))
    assert complex(out.c1) == pytest.approx(0.0)
    rng = np.random.default_rng(5)
    for _ in range(5):
        b = MagneticField(*rng.normal(size=3), mu_b=abs(rng.normal()))
        psi = SpinState(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
        evolved = pauli_evolve(psi, b, float(rng.uniform(0.1, 4.0)))
        assert np.linalg.norm([complex(evolved.c0), complex(evolved.c1)]) == pytest.approx(
            np.linalg.norm([complex(psi.c0), complex(psi.c1)]), abs=1e-12
        )


def test_zero_field_slicing_is_identity():
    assert np.allclose(sliced_propagator(MagneticField(0, 0, 0), 2.0, 5), np.eye(2))


def test_sliced_propagator_converges():
    b = MagneticField(0.6, 0.0, 0.8)
    t = 1.2
    exact = magnetic_evolution(b, t)
    errs = [np.abs(np.array(sliced_propagator(b, t, n)) - exact).max() for n in (16, 32, 64)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.2)


def test_a_slicing_row_fails_at_its_stated_tolerance(monkeypatch):
    # A bounded row passes when residual < tolerance.  At e(1000) = 1e-2 the
    # residual equals the tolerance, and at e(125)/e(250) = 1.7 it is 0.3 up
    # to rounding: both rows fail.  One float below 1e-2, e(1000) passes.
    errors = {10: 1.0, 100: 0.5, 125: 0.425, 250: 0.25, 500: 0.125}
    monkeypatch.setattr(quantum, "slicing_errors",
                        lambda b, t, counts: [(n, errors[n]) for n in counts])
    for at_tolerance, passed in ((1e-2, False), (math.nextafter(1e-2, 0), True)):
        errors[1000] = at_tolerance
        rows = {row.name: row for row in check_slicing()}
        for field in ("axis-field", "generic-field"):
            at_1000, ratio = (rows[f"slicing-{field}-{r}"] for r in ("error-at-1000", "ratio-125"))
            assert at_1000.passed is passed and at_1000.tolerance == 1e-2
            assert ratio.residual >= ratio.tolerance == 0.3 and not ratio.passed
            assert rows[f"slicing-{field}-monotone"].passed
    # Each slice error must stay below 1; the errors need only not grow.
    assert [row.passed for row in check_slice_errors([(1, 1.0), (2, 1.0)])] == [False, False, True]


def test_sliced_symbol_single_slice():
    b = MagneticField(Fraction(1, 2), 0, 1)
    t = 0.25
    sym = sliced_symbol(b, t, 1)
    h = hamiltonian(b)
    expected = ordered_symbol(operator_from_matrix(((1, 0), (0, 1)))) + ordered_symbol(
        h
    ) * complex(0, -t)
    assert sym == expected


def test_structure_constants_of_symbol_composition():
    # Basis 1, ξ, ξ̄, ξξ̄.  ξ̄∘ξ = 1 − ξξ̄ is the one anticommutator-like entry.
    assert symbol_structure_constants() == (
        (0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1),
        (1, 0, 1, 1), (1, 2, 3, 1),
        (2, 0, 2, 1), (2, 1, 0, 1), (2, 1, 3, -1), (2, 3, 2, 1),
        (3, 0, 3, 1), (3, 1, 1, 1), (3, 3, 3, 1),
    )


# The monomials 1, ξ, ξ̄, ξξ̄, from their (xi, xibar) exponents.
_BASIS_EXPS = tuple(
    TABLE.monomial(e) for e in ({}, {"xi": 1}, {"xibar": 1}, {"xi": 1, "xibar": 1})
)


@given(m1=matrix_st, m2=matrix_st)
def test_structure_constants_reproduce_composition(m1, m2):
    s1 = ordered_symbol(operator_from_matrix(m1))
    s2 = ordered_symbol(operator_from_matrix(m2))
    out = [CRational(0)] * 4
    for i, j, k, c in symbol_structure_constants():
        out[k] += c * s1.terms.get(_BASIS_EXPS[i], 0) * s2.terms.get(_BASIS_EXPS[j], 0)
    assert GradedPolynomial(TABLE, dict(zip(_BASIS_EXPS, out))) == compose_symbols(s1, s2)


@pytest.mark.parametrize("n", [*range(1, 18), 64, 100])
def test_sliced_symbol_matches_left_fold_of_compositions(n):
    b, t = MagneticField(0.3, -0.4, 0.8), 1.3
    one_slice = 1 + ordered_symbol(hamiltonian(b)) * complex(0, -t / n)
    fold = one_slice
    for _ in range(n - 1):
        fold = compose_symbols(fold, one_slice)
    got = sliced_symbol(b, t, n)
    assert max(
        abs(complex(got.terms.get(e, 0)) - complex(fold.terms.get(e, 0))) for e in _BASIS_EXPS
    ) < 1e-13


def test_sliced_propagator_is_the_exact_power_of_one_slice_to_rounding():
    # Oracle: (I − i·ε·H)^n in exact rationals from the same float entries.
    def matmul(m1, m2):
        return [[sum(m1[i][k] * m2[k][j] for k in range(2)) for j in range(2)] for i in range(2)]

    n = 1000
    for b, t in ((MagneticField(1.0, 0.0, 0.0), 1.0), (MagneticField(0.3, -0.4, 0.8), 1.0)):
        h = np.array(hamiltonian(b).matrix, dtype=complex)
        step = np.eye(2) + h * complex(0, -t / n)
        power = [[CRational(1), CRational(0)], [CRational(0), CRational(1)]]
        square = [[CRational(Fraction(v.real), Fraction(v.imag)) for v in row] for row in step]
        k = n
        while k:
            if k & 1:
                power = matmul(power, square)
            square = matmul(square, square)
            k >>= 1
        exact = np.array([[complex(v) for v in row] for row in power])
        assert np.abs(np.array(sliced_propagator(b, t, n)) - exact).max() < 1e-15


def test_propagate_quantum_takes_a_million_slices(capsys):
    argv = ["propagate-quantum", "--b", "0.3,-0.4,0.8", "--t", "1", "--slices", "1000,1000000"]
    assert main(argv) == 0
    capsys.readouterr()


def test_sliced_propagator_rejects_bad_counts():
    with pytest.raises(ValueError):
        sliced_propagator(MagneticField(1, 0, 0), 1.0, 0)
    with pytest.raises(ValueError):
        sliced_symbol(MagneticField(1, 0, 0), 1.0, -3)


def test_kernel_propagation_tracks_matrix_evolution():
    b = MagneticField(0.3, -0.4, 0.8)
    t = 1.0
    n = 400
    state = SpinState(0.6, 0.8j)
    via_kernel = SpinState.from_multivector(
        kernel_propagate(state.as_multivector(), b, t, n)
    )
    via_matrix = pauli_evolve(state, b, t)
    err = max(
        abs(complex(via_kernel.c0) - complex(via_matrix.c0)),
        abs(complex(via_kernel.c1) - complex(via_matrix.c1)),
    )
    assert err < 5.0 / n


def test_oracles_are_tuples_of_complex_and_match_numpy():
    b, t = MagneticField(0.3, -0.4, 0.8), 1.25
    for matrix in (magnetic_evolution(b, t), sliced_propagator(b, t, 100),
                   magnetic_evolution(MagneticField(0, 0, 0), t)):
        assert isinstance(matrix, tuple) and all(isinstance(row, tuple) for row in matrix)
        assert all(type(v) is complex for row in matrix for v in row)
    # The max over the entries is numpy's max of the elementwise modulus, up
    # to the last bit of numpy's own modulus.
    oracle = np.array(magnetic_evolution(b, t))
    for n, err in slicing_errors(b, t, (10, 100, 1000)):
        assert type(err) is float
        assert err == pytest.approx(np.abs(np.array(sliced_propagator(b, t, n)) - oracle).max(),
                                    rel=1e-15)


def test_field_components_beyond_the_float_range_are_rejected():
    for value in (10**400, Fraction(10**400, 3), -(10**400)):
        with pytest.raises(ValueError, match="finite and fit in a float"):
            MagneticField(value, 0, 0)
    with pytest.raises(ValueError, match="finite and fit in a float"):
        MagneticField(0, 0, 1, mu_b=10**400)


def test_a_real_crational_field_reads_as_the_equal_fraction():
    # CRational, Fraction, int and float components give one float oracle.
    x, mu = Fraction(3, 5), Fraction(7, 4)
    exact = MagneticField(CRational(x), CRational(-1), 0.8, mu_b=CRational(mu))
    plain = MagneticField(x, -1, 0.8, mu_b=mu)
    assert exact.norm() == plain.norm() and exact.unit() == plain.unit()
    assert exact.larmor_phase(1.3) == plain.larmor_phase(1.3)
    assert magnetic_evolution(exact, 1.3) == magnetic_evolution(plain, 1.3)
    assert slicing_errors(exact, 1.3, (10, 100)) == slicing_errors(plain, 1.3, (10, 100))


_GENERIC = MagneticField(*(TABLE.sym(name) for name in ("bx", "by", "bz")), mu_b=TABLE.sym("mu_b"))
_GENERIC_PSI = SpinState(TABLE.sym("c0"), TABLE.sym("c1"))


def test_generic_field_and_state_stay_symbolic():
    op = hamiltonian(_GENERIC)
    assert op.matrix[0][0] == -TABLE.parse("mu_b*bz")
    psi = _GENERIC_PSI.as_multivector()
    assert psi == TABLE.parse("c0 + c1*xi")
    assert op.apply_matrix(_GENERIC_PSI).as_multivector() == op.word.apply(psi)
    # A component is a real number or a polynomial in the constants of
    # TABLE; a complex one would give a non-unitary sliced propagator.
    for bad in (TABLE.sym("xi"), TABLE.parse("bx*xi*xibar"),
                SymbolContext([("bx", EVEN)]).sym("bx"), 1j, CRational(1, 1)):
        with pytest.raises(ValueError):
            MagneticField(bad, 0, 0)
    with pytest.raises(ValueError, match="must be real"):
        MagneticField(0, 0, 1, mu_b=CRational(2, 1))
    with pytest.raises(ValueError, match="numeric field"):
        _GENERIC.norm()


def test_numeric_maps_reject_a_generic_input():
    # Their basis has no constants, so a generic input is rejected whole
    # rather than truncated to its numeric terms.
    op = hamiltonian(_GENERIC)
    for call, arg in (
        (symbol_to_matrix, ordered_symbol(op)),
        (kernel_to_matrix, integral_kernel(op)),
        (SpinState.from_multivector, _GENERIC_PSI.as_multivector()),
        (kernel_from_symbol, ordered_symbol(op)),
        (lambda s: compose_symbols(s, s), ordered_symbol(op)),
        (lambda b: sliced_symbol(b, 1.0, 4), _GENERIC),
        (lambda b: sliced_propagator(b, 1.0, 4), _GENERIC),
        (lambda b: magnetic_evolution(b, 1.0), _GENERIC),
        # Only bx is generic: the one-slice symbol is not truncated to (0, 0, 1).
        (lambda b: sliced_symbol(b, 1.0, 4), MagneticField(TABLE.sym("bx"), 0, 1)),
    ):
        with pytest.raises(ValueError):
            call(arg)


def test_spin_rows_are_exact_and_ignore_the_seed():
    rows = check_isomorphism(seed=0)
    assert [r.to_dict() for r in rows] == [r.to_dict() for r in check_isomorphism(seed=5)]
    assert len(rows) == 8
    for row in rows:
        assert row.passed and row.residual == 0 and type(row.residual) is int, row
        assert row.tolerance is None
        # Both sides are printed polynomials in the generic state's constants.
        assert TABLE.parse(row.expected) == TABLE.parse(row.actual)
        assert {"c0", "c1"} & {name for name, _ in TABLE.parse(row.actual).symbols_used()}


def _sabotaged(coefficients):
    """``hamiltonian`` with its matrix kept and its symbol from ``coefficients(b)``."""

    def build(b):
        return SpinOperator(hamiltonian(b).matrix, _operator(_symbol(*coefficients(b))))

    return build


def _half_for_mu_b(b):
    z, plus, minus = (Fraction(1, 2) * v for v in (b.bz, b.bx + I * b.by, b.bx - I * b.by))
    return -z, -plus, -minus, 2 * z


def _flipped_xi_xibar(b):
    z, plus, minus = (b.mu_b * v for v in (b.bz, b.bx + I * b.by, b.bx - I * b.by))
    return -z, -plus, -minus, -2 * z


@pytest.mark.parametrize("sabotage", [_half_for_mu_b, _flipped_xi_xibar], ids=lambda f: f.__name__)
def test_sabotaged_hamiltonians_fail_the_generic_field_row(monkeypatch, sabotage):
    monkeypatch.setattr(quantum, "hamiltonian", _sabotaged(sabotage))
    rows = {r.name: r for r in check_isomorphism()}
    row = rows["isomorphism-hamiltonian-generic-field"]
    assert not row.passed
    assert row.residual != 0 and row.expected != row.actual
    # Only the Hamiltonian is sabotaged: the spin operators' rows still pass.
    assert all(r.passed for r in rows.values() if r is not row)
