"""Classical-path-integral Hamiltonians as polynomials and as operators.

The polynomial layer is pinned by worked examples for all three cases; the
operator layer is checked against closed-form characteristics: Fourier
modes shift, ghost factors ride along unchanged, monomial eigenvalues come
out real, the matrix-exponential evolution is additive in time and agrees
with the exact rotation, and the exact rotation is the classical flow.
"""

import cmath
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.linalg import expm

from spindeq import cpi, suite
from spindeq.cli import main
from spindeq import (
    CRational,
    CpiSpec,
    GradedPolynomial,
    I,
    FourierWavefunction,
    UnsupportedCaseError,
    bind_constants,
    build_cpi_hamiltonian,
    builtin_hamiltonian,
    characteristics_check,
    cpi_hamiltonian,
    cpi_kinetic,
    cpi_lagrangian,
    evolve,
    exact_flow,
    flow_matrix,
    crational,
    get_case,
    rotate,
)

# The grassmann wavefunction generators, in the order of an exponent tuple.
GRASSMANN_FIELDS = ("xi", "xibar", "c_xi", "c_xibar")


def gen(case, name):
    return get_case(case).context.sym(name)


def test_coadjoint_hamiltonian_is_linear_in_aux():
    case = get_case("coadjoint")
    h = builtin_hamiltonian("coadjoint", "spin")
    assert cpi_hamiltonian(case, h) == case.context.parse("-muB*Lam_phi")


def test_bosonic_hamiltonians():
    case = get_case("bosonic")
    ctx = case.context
    free = cpi_hamiltonian(case, builtin_hamiltonian("bosonic", "free"))
    assert free == ctx.parse("lam_q*p + i*cbar_q*c_p")
    harmonic = cpi_hamiltonian(case, builtin_hamiltonian("bosonic", "harmonic"))
    assert harmonic == ctx.parse("lam_q*p - lam_p*q + i*cbar_q*c_p - i*cbar_p*c_q")
    assert cpi_hamiltonian(case, ctx.zero()).is_zero()


def test_grassmann_hamiltonian():
    case = get_case("grassmann")
    ctx = case.context
    out = cpi_hamiltonian(case, builtin_hamiltonian("grassmann", "spin"))
    assert out == ctx.parse(
        "i*w*(lam_xi*xi - lam_xibar*xibar) - w*(cbar_xi*c_xi - cbar_xibar*c_xibar)"
    )


def test_grassmann_hamiltonian_requires_bilinear_form():
    case = get_case("grassmann")
    with pytest.raises(UnsupportedCaseError):
        cpi_hamiltonian(case, case.context.parse("w*xi"))


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@given(alpha=rationals, beta=rationals)
def test_grassmann_hamiltonian_matches_its_closed_form(alpha, beta):
    # The most general even H in two odd generators, against the closed form
    # read off its equations of motion ξ̇ = iβξ, ξ̄̇ = −iβξ̄.
    case = get_case("grassmann")
    ctx = case.context
    sym = ctx.sym
    h = ctx.const(alpha) + beta * (sym("xi") * sym("xibar"))
    i = ctx.imaginary()
    closed = (i * beta) * (
        sym("lam_xi") * sym("xi")
        - sym("lam_xibar") * sym("xibar")
        + i * sym("cbar_xi") * sym("c_xi")
        - i * sym("cbar_xibar") * sym("c_xibar")
    )
    assert cpi_hamiltonian(case, h) == closed


@pytest.mark.parametrize(
    "case_name, text",
    [("bosonic", "c_q*q"), ("coadjoint", "c_phi*eta^2"), ("bosonic", "dot(q)*p")],
)
def test_cpi_hamiltonian_rejects_symbols_off_phase_space(case_name, text):
    case = get_case(case_name)
    with pytest.raises(UnsupportedCaseError):
        cpi_hamiltonian(case, case.context.parse(text))


def test_lagrangian_is_kinetic_minus_hamiltonian():
    for name, key in [("bosonic", "harmonic"), ("grassmann", "spin"), ("coadjoint", "spin")]:
        case = get_case(name)
        h = builtin_hamiltonian(name, key)
        assert cpi_lagrangian(case, h) == cpi_kinetic(case) - cpi_hamiltonian(case, h)


def test_spec_validation():
    with pytest.raises(ValueError):
        CpiSpec("bosonic", truncation=0)
    ctx = get_case("bosonic").context
    with pytest.raises(UnsupportedCaseError):
        build_cpi_hamiltonian(CpiSpec("bosonic", hamiltonian=ctx.parse("q^5"), truncation=4))


def test_spec_binds_constants_exactly():
    spec = CpiSpec("grassmann", coefficients={"w": 1.5})
    bound = spec.bound_hamiltonian()
    ctx = get_case("grassmann").context
    assert bound == ctx.parse("-3/4 + 3/2*xi*xibar")


def test_spec_default_hamiltonians():
    assert CpiSpec("bosonic").bound_hamiltonian() == get_case("bosonic").context.parse(
        "p^2/2 + q^2/2"
    )
    with pytest.raises(UnsupportedCaseError):
        CpiSpec("grassmann").bound_hamiltonian()


def test_coadjoint_operator_is_minus_mu_b_times_lam_phi():
    # Every case has an operator; the coadjoint one is first order in Λ_φ,
    # with the real spectrum −μB·k on the Fourier modes e^{ikφ}.
    case = get_case("coadjoint")
    op = build_cpi_hamiltonian(CpiSpec("coadjoint", coefficients={"muB": Fraction(4, 5)}))
    assert op.operator.symbol == case.context.parse("-(4/5)*Lam_phi")
    assert op.spectrum_is_real() is True
    assert op.apply(gen("coadjoint", "phi")) == case.context.parse("(4/5)*i")


def test_operator_annihilates_constants():
    for spec in (CpiSpec("bosonic"), CpiSpec("grassmann", coefficients={"w": 2.0})):
        op = build_cpi_hamiltonian(spec)
        assert op.apply(op.context.const(3)).is_zero()


def test_operator_symbol_is_the_cpi_hamiltonian():
    # Every stock Hamiltonian that has an operator (quadratic at most).
    for case, name, coefficients in (
        ("bosonic", "harmonic", None),
        ("bosonic", "free", None),
        ("bosonic", "bilinear", {"alpha": -2}),
        ("grassmann", "spin", {"w": 1.5}),
    ):
        h = builtin_hamiltonian(case, name)
        spec = CpiSpec(case, hamiltonian=h, coefficients=coefficients)
        expected = cpi_hamiltonian(case, spec.bound_hamiltonian())
        assert build_cpi_hamiltonian(spec).operator.symbol == expected


def test_zero_hamiltonian_gives_zero_operator():
    ctx = get_case("bosonic").context
    op = build_cpi_hamiltonian(CpiSpec("bosonic", hamiltonian=ctx.zero()))
    probe = gen("bosonic", "q") * gen("bosonic", "c_p") + 2
    assert op.apply(probe).is_zero()


def test_zero_time_evolution_is_identity():
    spec = CpiSpec("coadjoint", coefficients={"muB": 0.8})
    wave = FourierWavefunction.wrapped_gaussian(center=0.4)
    assert evolve(wave, spec, 0.0).max_difference(wave) == 0.0
    psi = gen("bosonic", "q")
    out = evolve(psi, CpiSpec("bosonic"), 0.0)
    assert complex(out.coefficient({"q": 1})) == pytest.approx(1.0, abs=1e-15)


def _grassmann_monomial(op, exps):
    return GradedPolynomial(op.context, {op.context.monomial(dict(zip(GRASSMANN_FIELDS, exps))): 1})


def test_grassmann_eigenvalues_count_occupation():
    # The float w binds as its exact binary value, and H̃ scales each
    # monomial by exactly w times its occupation.
    w = 1.3
    op = build_cpi_hamiltonian(CpiSpec("grassmann", coefficients={"w": w}))
    # exps = (xi, xibar, c_xi, c_xibar); eigenvalue = w(a - b + j - k).
    for exps, factor in [
        ((1, 0, 0, 0), 1),
        ((0, 1, 0, 0), -1),
        ((1, 0, 1, 0), 2),
        ((1, 1, 0, 1), -1),
        ((0, 0, 0, 0), 0),
    ]:
        mono = _grassmann_monomial(op, exps)
        image = op.apply(mono)
        assert image.is_exact()
        assert image == crational(w) * factor * mono


def test_grassmann_eigenvalues_on_ghost_squares_at_low_truncation():
    w = 0.9
    for truncation in (1, 2):
        spec = CpiSpec("grassmann", coefficients={"w": w}, truncation=truncation)
        op = build_cpi_hamiltonian(spec)
        for exps in ((0, 0, 2, 0), (1, 0, 2, 1), (0, 1, 2, 0)):
            a, b, j, k = exps
            mono = _grassmann_monomial(op, exps)
            assert op.apply(mono) == crational(w) * (a - b + j - k) * mono


def test_bosonic_monomials_mix_under_rotation():
    op = build_cpi_hamiltonian(CpiSpec("bosonic"))
    q, p = op.context.monomial({"q": 1}), op.context.monomial({"p": 1})
    assert op.apply(op.context.sym("q")).terms.keys() - {q}  # not a multiple of q
    basis, matrix = op.closure_matrix([q])
    assert basis == [q, p]
    assert np.allclose(matrix, np.array([[0, 1j], [-1j, 0]]))


def test_operator_applies_to_exact_polynomials():
    op = build_cpi_hamiltonian(CpiSpec("bosonic"))
    ctx = op.context
    image = op.apply(ctx.parse("q^2*c_p"))
    assert image.is_exact() and image == ctx.parse("i*q^2*c_q - 2*i*q*p*c_p")
    floated = op.apply(ctx.parse("q^2*c_p") * 1.0)
    assert not floated.is_exact() and floated == image


def test_spectrum_is_real():
    for spec in (CpiSpec("bosonic"), CpiSpec("grassmann", coefficients={"w": 0.7})):
        assert build_cpi_hamiltonian(spec).spectrum_is_real()
    # The spectrum of H̃ is real exactly when det Hess H >= 0: elliptic,
    # parabolic (a defective closure matrix, spectrum {0}) and hyperbolic.
    ctx = get_case("bosonic").context
    for text, real in (("p^2/2+q^2/2", True), ("p^2/2+q*p/2+q^2/8", True), ("p^2/2", True),
                       ("q*p", False), ("(1/4)*q^2 - p^2 + 3*q*p", False)):
        spec = CpiSpec("bosonic", hamiltonian=ctx.parse(text))
        assert build_cpi_hamiltonian(spec).spectrum_is_real() is real, text


@given(st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=4)] * 5))
def test_spectrum_is_real_iff_the_hessian_determinant_is_not_negative(coeffs):
    # H = a·q²/2 + b·q·p + c·p²/2 + d·q + e·p, so det Hess H = a·c − b².
    a, b, c, d, e = coeffs
    q, p = (get_case("bosonic").context.sym(name) for name in ("q", "p"))
    h = (a / 2) * q**2 + b * q * p + (c / 2) * p**2 + d * q + e * p
    real = build_cpi_hamiltonian(CpiSpec("bosonic", hamiltonian=h)).spectrum_is_real()
    assert real is (a * c - b * b >= 0)


def test_fourier_wavefunction_validation():
    with pytest.raises(ValueError):
        FourierWavefunction({(0, 0, 2, 0): 1.0})
    with pytest.raises(ValueError):
        FourierWavefunction({(0.5, 0, 0, 0): 1.0})
    with pytest.raises(ValueError):
        FourierWavefunction({(0, -1, 0, 0): 1.0})
    wave = FourierWavefunction({(2, 0, 0, 0): 0.0, (1, 1, 1, 0): 2.0})
    assert (2, 0, 0, 0) not in wave.terms
    assert wave.coefficient((1, 1, 1, 0)) == 2.0


def test_wrapped_gaussian_center():
    for center in (-2.0, 0.3, 3.0):
        wave = FourierWavefunction.wrapped_gaussian(center=center)
        assert wave.circular_center() == pytest.approx(center, abs=1e-9)
    assert FourierWavefunction.wrapped_gaussian(center=1.0).max_difference(
        FourierWavefunction.wrapped_gaussian(center=1.0)
    ) == 0.0


def test_coadjoint_evolution_shifts_the_packet():
    mu_b = 0.8
    spec = CpiSpec("coadjoint", coefficients={"muB": mu_b})
    wave = FourierWavefunction.wrapped_gaussian(center=1.0)
    out = evolve(wave, spec, 2.0)
    assert out.circular_center() == pytest.approx(1.0 - mu_b * 2.0, abs=1e-9)


def test_coadjoint_evolution_is_additive_and_periodic():
    mu_b = 0.8
    spec = CpiSpec("coadjoint", coefficients={"muB": mu_b})
    wave = FourierWavefunction.wrapped_gaussian(center=0.4)
    once = evolve(wave, spec, 2.0)
    twice = evolve(evolve(wave, spec, 0.7), spec, 1.3)
    assert once.max_difference(twice) < 1e-12
    period = 2.0 * math.pi / mu_b
    assert evolve(wave, spec, period).max_difference(wave) < 1e-12


def test_coadjoint_ghost_factors_only_pick_up_mode_phases():
    mu_b = 1.1
    spec = CpiSpec("coadjoint", coefficients={"muB": mu_b})
    wave = FourierWavefunction({(2, 1, 1, 0): 1.0, (-1, 0, 0, 1): 0.5})
    out = evolve(wave, spec, 0.9)
    assert out.coefficient((2, 1, 1, 0)) == pytest.approx(cmath.exp(1j * 2 * mu_b * 0.9))
    assert out.coefficient((-1, 0, 0, 1)) == pytest.approx(
        0.5 * cmath.exp(-1j * mu_b * 0.9)
    )


def test_polynomial_evolution_is_additive():
    spec = CpiSpec("bosonic")
    psi = gen("bosonic", "q") + gen("bosonic", "c_p")
    once = evolve(psi, spec, 1.7)
    twice = evolve(evolve(psi, spec, 0.9), spec, 0.8)
    for mono in set(once.terms) | set(twice.terms):
        a = complex(once.terms.get(mono, 0))
        b = complex(twice.terms.get(mono, 0))
        assert a == pytest.approx(b, abs=1e-12)


def test_quartic_evolution_is_rejected():
    # No finite basis closes under a quartic CPI operator.
    ctx = get_case("bosonic").context
    spec = CpiSpec("bosonic", hamiltonian=ctx.parse("p^2/2 + q^4/4"))
    with pytest.raises(UnsupportedCaseError):
        evolve(gen("bosonic", "q"), spec, 1.0)
    with pytest.raises(UnsupportedCaseError):
        build_cpi_hamiltonian(spec)


def test_evolve_type_and_table_guards():
    spec = CpiSpec("coadjoint", coefficients={"muB": 1.0})
    with pytest.raises(UnsupportedCaseError):
        evolve(gen("bosonic", "q"), spec, 1.0)
    bos = CpiSpec("bosonic")
    with pytest.raises(UnsupportedCaseError):
        evolve(gen("grassmann", "xi"), bos, 1.0)


def _ghost_coefficients(psi, spec):
    # The coefficients of the ghost monomials c_1, c_2 of spec's case in psi.
    return [complex(psi.coefficient({f.ghost: 1})) for f in get_case(spec.case).families]


def test_jacobi_fields_all_cases():
    # Ghosts move as Jacobi fields, by the flow exp(t·M) of the fields:
    # ψ(c) = c_1 + 2·c_2 pulled back by the flow is ψ(exp(t·M)·c).
    coad = CpiSpec("coadjoint", coefficients={"muB": 0.8})
    ctx = get_case("coadjoint").context
    ghosts = ctx.parse("c_phi + 2*c_eta")
    assert cpi.pull_back(ghosts, coad, exact_flow(coad, 1)) == ghosts  # M = 0
    w = 1.3
    gra = CpiSpec("grassmann", coefficients={"w": w})
    psi = get_case("grassmann").context.parse("c_xi + c_xibar")
    c0, c1 = _ghost_coefficients(cpi.pull_back(psi, gra, flow_matrix(gra, 1.0)), gra)
    assert c0 == pytest.approx(cmath.exp(1j * w))
    assert c1 == pytest.approx(cmath.exp(-1j * w))
    bos = CpiSpec("bosonic")
    psi = get_case("bosonic").context.sym("c_q")
    out = _ghost_coefficients(cpi.pull_back(psi, bos, flow_matrix(bos, math.pi / 2)), bos)
    assert out[0] == pytest.approx(0, abs=1e-12)
    assert out[1] == pytest.approx(1, abs=1e-12)  # c_q(t) = cos t·c_q + sin t·c_p


def test_flow_matrix_forms():
    assert np.allclose(
        flow_matrix(CpiSpec("bosonic"), 0.5),
        np.array([[math.cos(0.5), math.sin(0.5)], [-math.sin(0.5), math.cos(0.5)]]),
    )
    ctx = get_case("bosonic").context
    bilinear = CpiSpec("bosonic", hamiltonian=ctx.parse("alpha*q*p"), coefficients={"alpha": 0.5})
    assert np.allclose(flow_matrix(bilinear, 2.0), np.diag([math.e, 1.0 / math.e]))
    with pytest.raises(UnsupportedCaseError):
        flow_matrix(CpiSpec("bosonic", hamiltonian=ctx.parse("q^4/4")), 1.0)
    # A linear term shifts the flow off the origin, so it is not linear.
    with pytest.raises(UnsupportedCaseError):
        flow_matrix(CpiSpec("bosonic", hamiltonian=ctx.parse("p^2/2+q^2/2+q")), 1.0)


entries = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))  # p/q, |p|, q <= 3


@given(
    hessian=st.tuples(entries, entries, entries),
    t=st.floats(-4, 4, allow_nan=False, allow_infinity=False),
)
@example(hessian=(Fraction(1), Fraction(0), Fraction(1)), t=4.0)  # det > 0, a rotation
@example(hessian=(Fraction(0), Fraction(3), Fraction(0)), t=-4.0)  # det < 0, a boost
@example(hessian=(Fraction(2), Fraction(2), Fraction(2)), t=3.5)  # det = 0, a shear
@example(hessian=(Fraction(0), Fraction(0), Fraction(0)), t=1.0)  # M = 0
def test_flow_matrix_is_the_matrix_exponential(hessian, t):
    # Reference: scipy's expm of t·M, M = ω·Hess H for H = a/2·q² + b·q·p + c/2·p²,
    # so det M = a·c − b² takes every sign.  Against 50-digit arithmetic on
    # this grid, expm itself is off by up to 1.7e-12 of the largest entry and
    # the closed form by 2.1e-15, so the bound is 1e-11.
    a, b, c = hessian
    ctx = get_case("bosonic").context
    q, p = ctx.sym("q"), ctx.sym("p")
    spec = CpiSpec("bosonic", hamiltonian=(a / 2) * q**2 + b * q * p + (c / 2) * p**2)
    m = np.array([[b, c], [-a, -b]], dtype=float)
    reference = expm(t * m)
    gap = np.abs(np.array(flow_matrix(spec, t)) - reference).max()
    assert gap <= 1e-11 * np.abs(reference).max()


@given(
    w=st.floats(-4, 4, allow_nan=False, allow_infinity=False),
    t=st.floats(-4, 4, allow_nan=False, allow_infinity=False),
)
def test_grassmann_flow_is_the_closed_form_phase(w, t):
    # Reference: the grassmann ghosts pick up opposite phases, diag(e^{iwt}, e^{-iwt}).
    spec = CpiSpec("grassmann", coefficients={"w": w})
    expected = np.diag([cmath.exp(1j * w * t), cmath.exp(-1j * w * t)])
    flow = flow_matrix(spec, t)
    assert np.allclose(flow, expected, rtol=0, atol=1e-12)
    c0 = np.array([0.3 + 0.1j, -0.2j])
    ghosts = get_case("grassmann").context.parse("(3+i)/10*c_xi - i/5*c_xibar")
    moved = _ghost_coefficients(cpi.pull_back(ghosts, spec, flow), spec)
    assert np.allclose(moved, expected @ c0, rtol=0, atol=1e-12)


def test_every_case_defaults_to_its_first_stock_hamiltonian():
    for name, coefficients in (("bosonic", {}), ("grassmann", {"w": 2}), ("coadjoint", {"muB": 3})):
        first = builtin_hamiltonian(name, get_case(name).hamiltonians[0][0])
        assert builtin_hamiltonian(name) == first
        spec = CpiSpec(name, coefficients=coefficients)
        assert spec.bound_hamiltonian() == bind_constants(first, coefficients)


def test_characteristics_check_smoke():
    spec = CpiSpec("coadjoint", coefficients={"muB": 0.8})
    report = characteristics_check(spec, t=0.5)
    assert report["passed"]
    assert all(c["passed"] for c in report["checks"])
    # Packets move over a time; a phase alone does not fix one.
    with pytest.raises(UnsupportedCaseError, match="float time t"):
        suite.check_transport(spec, suite.TRANSPORT_PHASE, 0)


def test_coadjoint_transport_reads_the_cpi_hamiltonian(monkeypatch):
    # The operator side evolves by H̃ and the oracle reads H; with H̃ negated
    # the packets move the wrong way, and the check must see it.
    spec = CpiSpec("coadjoint", coefficients={"muB": 0.8})
    original = cpi.cpi_hamiltonian
    monkeypatch.setattr(cpi, "cpi_hamiltonian", lambda case, h: -original(case, h))
    checks = characteristics_check(spec, t=0.7)["checks"]
    centers = [c for c in checks if c["name"].startswith("cpi-coadjoint-packet-center-")]
    assert len(centers) == 5
    assert not any(c["passed"] for c in centers)


def test_bosonic_transport_bound_keeps_quadratics_with_entries_up_to_three():
    # The largest stretch at t = 0.7 over Hessian entries p/q with |p|, q <= 3
    # is about 17, within MAX_STRETCH, at every truncation.
    ctx = get_case("bosonic").context
    for a, b, c in ((3, 3, -3), (-3, 3, 3), (3, -3, -3), (3, 0, -3), (-3, 0, -3)):
        h = ctx.parse(f"({a})*q^2/2 + ({b})*q*p + ({c})*p^2/2")
        for truncation in (4, 5, 6):
            spec = CpiSpec("bosonic", hamiltonian=h, truncation=truncation)
            assert len(characteristics_check(spec, t=0.7, seed=1)["checks"]) == 5
    with pytest.raises(UnsupportedCaseError, match="max\\|exp\\(-t\\*M\\)\\| <= 30"):
        characteristics_check(CpiSpec("bosonic", hamiltonian=ctx.parse("3*q*p")), t=1.2)


# -- exact rotation ------------------------------------------------------------------

PHASE = (3 - 4 * I) / 5  # e^{−iνt} at νt = atan(4/3)


def _rotate(psi, spec, z):
    return rotate(psi, build_cpi_hamiltonian(spec), cpi.exact_rate(spec), z)


def _largest(poly):
    return max((abs(complex(c)) for c in poly.terms.values()), default=0.0)


def test_float_evolution_matches_the_exact_rotation():
    # At νt = atan(4/3) the rotation is exact, so it checks the float engine
    # (closure matrix and expm) in both polynomial cases.
    bosonic = CpiSpec("bosonic")
    rng = random.Random(7)
    for _ in range(5):
        psi = cpi.random_wavefunction(bosonic, rng, suite._gaussian_rational)
        exact = _rotate(psi, bosonic, PHASE)
        assert exact.is_exact()
        assert _largest(evolve(psi, bosonic, math.atan2(4, 3)) - exact) <= 1e-9
    grassmann = CpiSpec("grassmann", coefficients={"w": Fraction(13, 10)})
    ctx = get_case("grassmann").context
    psi = ctx.parse("xi*c_xi + (2-i)*xibar*c_xi^2 - c_xibar/3 + 5")
    exact = _rotate(psi, grassmann, PHASE)
    assert exact.coefficient({"xi": 1, "c_xi": 1}) == PHASE * PHASE
    assert _largest(evolve(psi, grassmann, math.atan2(4, 3) / 1.3) - exact) <= 1e-9


gaussian = st.builds(CRational, rationals, rationals)
monomials = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1), st.integers(0, 1))


@given(
    terms=st.dictionaries(monomials, gaussian, min_size=1, max_size=4),
    k=st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool),
    u=st.integers(-6, 6),
    v=st.integers(-6, 6),
)
@example(terms={(2, 2, 1, 1): CRational(1)}, k=Fraction(1), u=2, v=1)
def test_rotation_is_the_classical_flow(terms, k, u, v):
    # H = k·(q² + p²)/2 has ν = |k|; every (u − iv)/(u + iv) is a phase
    # e^{−iνt} of modulus 1 and a Gaussian rational.  Exact transport is
    # ψ∘flow(−t), and rotations compose by multiplying their phases.
    if not (u or v):
        u = 1
    z = CRational(u, -v) / CRational(u, v)
    ctx = get_case("bosonic").context
    spec = CpiSpec("bosonic", hamiltonian=(k / 2) * ctx.parse("q^2 + p^2"))
    psi = GradedPolynomial(
        ctx,
        {ctx.monomial(dict(zip(("q", "p", "c_q", "c_p"), exps))): c for exps, c in terms.items()},
    )
    op, nu = build_cpi_hamiltonian(spec), cpi.exact_rate(spec)
    once = rotate(psi, op, nu, z)
    assert once == cpi.pull_back(psi, spec, exact_flow(spec, 1 / z))
    assert rotate(once, op, nu, z) == rotate(psi, op, nu, z * z)


def test_exact_flow_is_the_rational_rotation():
    # Harmonic H at νt = atan(4/3): cos = 3/5 and sin = 4/5.
    flow = exact_flow(CpiSpec("bosonic"), PHASE)
    assert flow == ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5)))
    assert all(isinstance(x, CRational) for row in flow for x in row)
    coadjoint = CpiSpec("coadjoint", coefficients={"muB": Fraction(4, 5)})
    assert exact_flow(coadjoint, 1) == ((1, 0), (0, 1))


def test_rotation_rejects_a_spectrum_it_cannot_certify():
    ctx = get_case("bosonic").context
    q = ctx.sym("q")
    # Parabolic: ν = 0, and H̃ is nilpotent but not zero on q.
    with pytest.raises(UnsupportedCaseError, match="does not have the spectrum"):
        _rotate(q, CpiSpec("bosonic", hamiltonian=ctx.parse("p^2/2")), PHASE)
    with pytest.raises(UnsupportedCaseError, match="nilpotent M"):
        exact_flow(CpiSpec("bosonic", hamiltonian=ctx.parse("p^2/2")), 1)
    # Hyperbolic, or a rate that is not rational: no exact ν.
    for text in ("q*p", "p^2/2 + q^2"):
        with pytest.raises(UnsupportedCaseError, match="square of a rational"):
            _rotate(q, CpiSpec("bosonic", hamiltonian=ctx.parse(text)), PHASE)
    # The operator of ν = 2 with the rate ν = 1: the certificate fails.
    doubled = build_cpi_hamiltonian(CpiSpec("bosonic", hamiltonian=ctx.parse("p^2 + q^2")))
    with pytest.raises(UnsupportedCaseError, match="does not have the spectrum"):
        rotate(q, doubled, 1, PHASE)


def _failing(rows):
    return {row.name for row in rows if not row.passed}


def test_forward_flow_fails_every_bosonic_row(monkeypatch):
    original = cpi.exact_flow
    monkeypatch.setattr(cpi, "exact_flow", lambda spec, z: original(spec, 1 / z))
    bosonic = {f"cpi-bosonic-transport-{n}" for n in range(5)}
    for seed in (0, 1, 2):
        assert _failing(suite.check_cpi_transport(seed)) == bosonic


def _flip_ghost_signs(monkeypatch):
    # Negate the antighost terms of H̃, so the ghosts rotate the wrong way.
    original = cpi.cpi_hamiltonian

    def flipped(case, h):
        out = original(case, h)
        ctx = out.context
        antighosts = {ctx.slot(f.antighost) for f in get_case(case).families}
        return GradedPolynomial(ctx, {
            mono: -c if any(slot in antighosts for slot, _ in mono) else c
            for mono, c in out.terms.items()
        })

    monkeypatch.setattr(cpi, "cpi_hamiltonian", flipped)


# Every grassmann monomial with j ≠ k ghosts changes eigenvalue when the
# ghosts rotate the wrong way, and so does ξc_ξ.
FLIPPED_GRASSMANN = {f"cpi-grassmann-eigen-{e}" for e in suite.GRASSMANN_EXPONENTS if e[2] != e[3]}
FLIPPED_GRASSMANN |= {"cpi-grassmann-phase-xi-cxi"}


def test_flipped_ghost_sign_fails_the_exact_rows(monkeypatch):
    # Every bosonic wavefunction drawn here has ghost terms as well.
    _flip_ghost_signs(monkeypatch)
    expected = FLIPPED_GRASSMANN | {f"cpi-bosonic-transport-{n}" for n in range(5)}
    for seed in (0, 1, 2):
        assert _failing(suite.check_cpi_transport(seed)) == expected


def test_flipped_ghost_sign_fails_the_cli_grassmann_rows(monkeypatch, tmp_path, capsys):
    # propagate-classical runs the same exact rows at a float --omega and --t.
    _flip_ghost_signs(monkeypatch)
    out = tmp_path / "r.json"
    argv = ["propagate-classical", "--case", "grassmann", "--omega", "0.9", "--t", "0.4"]
    assert main([*argv, "--out", str(out)]) == 1
    capsys.readouterr()
    checks = json.loads(out.read_text())["checks"]
    assert {c["name"] for c in checks if not c["passed"]} == FLIPPED_GRASSMANN


@pytest.mark.parametrize(
    "spec, t",
    [
        (CpiSpec("bosonic", truncation=3), 0.4),
        (CpiSpec("grassmann", coefficients={"w": -0.75}), 1.1),
        (CpiSpec("coadjoint", coefficients={"muB": 1.5}), 0.3),
    ],
    ids=lambda value: getattr(value, "case", None),
)
def test_characteristics_check_is_the_dict_view_of_check_transport(spec, t):
    # The benchmark reads these dicts; they are the suite's rows, unchanged.
    report = characteristics_check(spec, t, 4)
    rows = suite.check_transport(spec, t, 4)
    assert report["checks"] == [row.to_dict() for row in rows]
    assert report["passed"] is all(row.passed for row in rows) is True
