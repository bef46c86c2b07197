"""Classical-path-integral Hamiltonians as polynomials and as operators.

The polynomial layer is pinned by worked examples for all three cases; the
operator layer is checked against closed-form characteristics: the
coadjoint Taylor sum shifts φ and keeps the ghosts, monomial eigenvalues
come out real, and exact evolution on the Cayley clock is the classical
flow for every sign of det M and composes by the Cayley sum of its clocks.
scipy's matrix exponential is the float oracle for the 2×2 flow.
"""

import cmath
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.linalg import expm

from spindeq import cpi, suite
from spindeq.cli import main
from spindeq import (
    CRational,
    CpiSpec,
    GradedPolynomial,
    I,
    UnsupportedCaseError,
    bind_constants,
    build_cpi_hamiltonian,
    builtin_hamiltonian,
    characteristics_check,
    cpi_hamiltonian,
    cpi_kinetic,
    cpi_lagrangian,
    evolve,
    crational,
    get_case,
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
    # A truncation that is not an int, a bool included, is refused by name,
    # not taken as a number or left to fail deep inside the wavefunction draw.
    for bad in (2.5, "4", True, False, 3.0, None, 0, -2):
        with pytest.raises(ValueError, match="truncation must be an integer of at least 1"):
            CpiSpec("bosonic", truncation=bad)
    assert CpiSpec("coadjoint", truncation=1).truncation == 1
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
    assert op.symbol == case.context.parse("-(4/5)*Lam_phi")
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
        assert build_cpi_hamiltonian(spec).symbol == expected


def test_zero_hamiltonian_gives_zero_operator():
    ctx = get_case("bosonic").context
    op = build_cpi_hamiltonian(CpiSpec("bosonic", hamiltonian=ctx.zero()))
    probe = gen("bosonic", "q") * gen("bosonic", "c_p") + 2
    assert op.apply(probe).is_zero()


def test_zero_time_evolution_is_identity():
    psi = gen("bosonic", "q") + gen("bosonic", "p") * gen("bosonic", "c_q")
    assert evolve(psi, CpiSpec("bosonic"), 0) == psi


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
        assert op.apply(mono) == crational(w) * factor * mono


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
    assert basis == (q, p)
    assert matrix == ((0, I), (-I, 0))  # exact: H̃q = −i·p and H̃p = i·q


def test_operator_applies_to_exact_polynomials():
    op = build_cpi_hamiltonian(CpiSpec("bosonic"))
    ctx = op.context
    image = op.apply(ctx.parse("q^2*c_p"))
    assert image == ctx.parse("i*q^2*c_q - 2*i*q*p*c_p")
    floated = op.apply(ctx.parse("q^2*c_p") * 1.0)
    assert floated == image


@pytest.mark.parametrize("w", [math.inf, math.nan, complex(1, math.inf)])
def test_a_coefficient_that_is_not_finite_is_refused(w):
    with pytest.raises(ValueError, match="not a finite number"):
        CpiSpec("grassmann", coefficients={"w": w}).bound_hamiltonian()


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


def test_coadjoint_evolution_shifts_the_packet():
    # H̃ = iμB·∂_φ, so exp(−itH̃) sends ψ(φ) to ψ(φ + μB·t): a packet
    # centred at φ = 1 moves to 1 − μB·t, here 1 − 8/5 = −3/5.
    spec = CpiSpec("coadjoint", coefficients={"muB": Fraction(4, 5)})
    ctx = get_case("coadjoint").context
    packet = ctx.parse("(phi - 1)^2 + 3")
    moved = evolve(packet, spec, Fraction(1))  # at det M = 0 the clock is t/2
    assert moved == ctx.parse("(phi + 3/5)^2 + 3")


def test_coadjoint_ghost_factors_only_pick_up_mode_phases():
    # Only the φ part of each term moves (φ ↦ φ + 3/5 at μB = 4/5 and
    # t = 3/4); η and the ghost factors ride along unchanged.
    spec = CpiSpec("coadjoint", coefficients={"muB": Fraction(4, 5)})
    ctx = get_case("coadjoint").context
    psi = ctx.parse("phi^2*eta*c_phi + (2-i)*phi*c_eta + 5")
    moved = evolve(psi, spec, Fraction(3, 8))
    assert moved == ctx.parse("(phi + 3/5)^2*eta*c_phi + (2-i)*(phi + 3/5)*c_eta + 5")


@given(
    terms=st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)),
        st.builds(CRational, rationals, rationals), min_size=1, max_size=4,
    ),
    mu_b=rationals,
    t=st.tuples(rationals, rationals),
)
def test_coadjoint_evolution_is_additive_and_the_classical_flow(terms, mu_b, t):
    spec = CpiSpec("coadjoint", coefficients={"muB": mu_b})
    ctx = get_case("coadjoint").context
    psi = GradedPolynomial(
        ctx,
        {ctx.monomial(dict(zip(("phi", "eta", "c_phi", "c_eta"), e))): c for e, c in terms.items()},
    )
    once = evolve(psi, spec, (t[0] + t[1]) / 2)
    assert evolve(evolve(psi, spec, t[0] / 2), spec, t[1] / 2) == once
    assert once == psi.substitute({"phi": ctx.sym("phi") + mu_b * (t[0] + t[1])})


def test_polynomial_evolution_is_additive():
    # Clocks add by the tangent rule: at det M = 1, clocks 1/3 and 1/4 make
    # (1/3 + 1/4)/(1 − 1/12) = 7/11, and (1 − r²)/(1 + r²) = 0 at r = 1 is a
    # quarter turn, q → −p.
    spec = CpiSpec("bosonic")
    psi = gen("bosonic", "q") * gen("bosonic", "p") + gen("bosonic", "c_p")
    once = evolve(psi, spec, Fraction(7, 11))
    assert evolve(evolve(psi, spec, Fraction(1, 3)), spec, Fraction(1, 4)) == once
    assert evolve(gen("bosonic", "q"), spec, 1) == -gen("bosonic", "p")


def test_quartic_evolution_is_rejected():
    # No finite basis closes under a quartic CPI operator.
    ctx = get_case("bosonic").context
    spec = CpiSpec("bosonic", hamiltonian=ctx.parse("p^2/2 + q^4/4"))
    with pytest.raises(UnsupportedCaseError):
        evolve(gen("bosonic", "q"), spec, 1)
    with pytest.raises(UnsupportedCaseError):
        build_cpi_hamiltonian(spec)


def test_evolve_type_and_table_guards():
    spec = CpiSpec("coadjoint", coefficients={"muB": 1.0})
    with pytest.raises(UnsupportedCaseError, match="context"):
        evolve(gen("bosonic", "q"), spec, 1)
    bos = CpiSpec("bosonic")
    with pytest.raises(UnsupportedCaseError, match="context"):
        evolve(gen("grassmann", "xi"), bos, 1)


def _flow(spec, t):
    """exp(t·M) at the Cayley clock of the float time t."""
    return cpi.expm(spec.vector_field[1], cpi.cayley_clock(spec, t))


def _forward(psi, spec, t):
    """ψ∘flow(t): ``cpi.pull_back`` at the Cayley clock of the float time −t."""
    return cpi.pull_back(psi, spec, cpi.cayley_clock(spec, -t))


def _floats(matrix):
    return np.array([[complex(x) for x in row] for row in matrix])


def _ghost_coefficients(psi, spec):
    # The coefficients of the ghost monomials c_1, c_2 of spec's case in psi.
    return [complex(psi.coefficient({f.ghost: 1})) for f in get_case(spec.case).families]


def test_jacobi_fields_all_cases():
    # Ghosts move as Jacobi fields, by the flow exp(t·M) of the fields:
    # ψ(c) = c_1 + 2·c_2 pulled back by the flow is ψ(exp(t·M)·c).
    coad = CpiSpec("coadjoint", coefficients={"muB": 0.8})
    ctx = get_case("coadjoint").context
    ghosts = ctx.parse("c_phi + 2*c_eta")
    assert _forward(ghosts, coad, 1.0) == ghosts  # M = 0
    w = 1.3
    gra = CpiSpec("grassmann", coefficients={"w": w})
    psi = get_case("grassmann").context.parse("c_xi + c_xibar")
    c0, c1 = _ghost_coefficients(_forward(psi, gra, 1.0), gra)
    assert c0 == pytest.approx(cmath.exp(1j * w))
    assert c1 == pytest.approx(cmath.exp(-1j * w))
    bos = CpiSpec("bosonic")
    psi = get_case("bosonic").context.sym("c_q")
    out = _ghost_coefficients(_forward(psi, bos, math.pi / 2), bos)
    assert out[0] == pytest.approx(0, abs=1e-12)
    assert out[1] == pytest.approx(1, abs=1e-12)  # c_q(t) = cos t·c_q + sin t·c_p


def test_flow_matrix_forms():
    assert np.allclose(
        _floats(_flow(CpiSpec("bosonic"), 0.5)),
        np.array([[math.cos(0.5), math.sin(0.5)], [-math.sin(0.5), math.cos(0.5)]]),
    )
    ctx = get_case("bosonic").context
    bilinear = CpiSpec("bosonic", hamiltonian=ctx.parse("alpha*q*p"), coefficients={"alpha": 0.5})
    assert np.allclose(_floats(_flow(bilinear, 2.0)), np.diag([math.e, 1.0 / math.e]))
    with pytest.raises(UnsupportedCaseError):
        cpi.cayley_clock(CpiSpec("bosonic", hamiltonian=ctx.parse("q^4/4")), 1.0)
    # A linear term shifts the flow off the origin; transport takes that
    # affine flow only where det M = 0.
    with pytest.raises(UnsupportedCaseError, match="linear term in H needs det M = 0"):
        suite.check_transport(
            CpiSpec("bosonic", hamiltonian=ctx.parse("p^2/2+q^2/2+q")), Fraction(1, 2))


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
    # Reference: scipy's expm of τ·M, M = ω·Hess H for H = a/2·q² + b·q·p + c/2·p²,
    # so D = det M = a·c − b² takes every sign, at the float time τ that the
    # Cayley clock r of t encodes: 2·atan(ν·r)/ν for D = ν², 2r for D = 0,
    # and 2·atanh(κ·r)/κ for D = −κ², taken as log((1 + κ|r|)²/(1 + D·r²))/κ
    # with the sign of r, since 1 + D·r² is exact and atanh near 1 is not.
    # scipy's expm is off by up to 1.7e-12 of the largest entry on this grid
    # (against 50-digit arithmetic), and the exact flow not at all, so the
    # bound is 1e-11.
    a, b, c = hessian
    ctx = get_case("bosonic").context
    q, p = ctx.sym("q"), ctx.sym("p")
    spec = CpiSpec("bosonic", hamiltonian=(a / 2) * q**2 + b * q * p + (c / 2) * p**2)
    r = cpi.cayley_clock(spec, t)
    det = a * c - b * b
    if det > 0:
        tau = 2 * math.atan(math.sqrt(det) * r) / math.sqrt(det)
    elif det < 0:
        kappa = math.sqrt(-det)
        tau = math.copysign(math.log((1 + kappa * abs(r)) ** 2 / (1 + det * r * r)) / kappa, r)
    else:
        tau = 2 * r
    m = np.array([[b, c], [-a, -b]], dtype=float)
    reference = expm(float(tau) * m)
    gap = np.abs(_floats(cpi.expm(spec.vector_field[1], r)) - reference).max()
    assert gap <= 1e-11 * np.abs(reference).max()


@given(
    w=st.floats(-4, 4, allow_nan=False, allow_infinity=False),
    t=st.floats(-4, 4, allow_nan=False, allow_infinity=False),
)
def test_grassmann_flow_is_the_closed_form_phase(w, t):
    # Reference: the grassmann ghosts pick up opposite phases, diag(e^{iwt}, e^{-iwt}).
    spec = CpiSpec("grassmann", coefficients={"w": w})
    expected = np.diag([cmath.exp(1j * w * t), cmath.exp(-1j * w * t)])
    flow = _flow(spec, t)
    assert np.allclose(_floats(flow), expected, rtol=0, atol=1e-12)
    c0 = np.array([0.3 + 0.1j, -0.2j])
    ghosts = get_case("grassmann").context.parse("(3+i)/10*c_xi - i/5*c_xibar")
    moved = _ghost_coefficients(_forward(ghosts, spec, t), spec)
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
    # At det M = 0 the clock of t = 0.5 is exactly 1/4.
    rows = suite.check_transport(spec, Fraction(1, 4))
    assert report["checks"] == [row.to_dict() for row in rows]


# Wrong CPI Hamiltonians for the coadjoint H = −μB·η; the classical side
# reads only H, so each row must see at least one of them.
COADJOINT_SABOTAGES = {
    "doubled": lambda h: 2 * h,
    "negated": lambda h: -h,
    "lam-eta": lambda h: h + h.context.sym("Lam_eta"),
    "ghost-mixing": lambda h: h + h.context.sym("cbar_phi") * h.context.sym("c_eta"),
}
MOVING_ROWS = {f"cpi-coadjoint-{name}" for name in
               ("composition", "generator", *(f"transport-{n}" for n in range(5)))}


def test_coadjoint_transport_reads_the_cpi_hamiltonian(monkeypatch):
    # A spec keeps the H̃ it built, so each sabotage reads a fresh spec.
    def fresh():
        return CpiSpec("coadjoint", coefficients={"muB": suite.COADJOINT_MU_B})

    clock = Fraction(3, 8)  # t = 3/4
    original = cpi.cpi_hamiltonian
    for seed in (0, 1, 2):
        names = {row.name for row in suite.check_transport(fresh(), clock, seed)}
        failed = {}
        for label, change in COADJOINT_SABOTAGES.items():
            monkeypatch.setattr(cpi, "cpi_hamiltonian", lambda case, h: change(original(case, h)))
            failed[label] = _failing(suite.check_transport(fresh(), clock, seed))
        assert failed["doubled"] == failed["negated"] == MOVING_ROWS
        assert "cpi-coadjoint-eta-marginal-invariant" in failed["lam-eta"]
        assert "cpi-coadjoint-ghosts-constant" in failed["ghost-mixing"]
        assert set().union(*failed.values()) == names and len(names) == 9
        # H̃ + 1 is not nilpotent: its Taylor sum never ends, so no row may pass.
        monkeypatch.setattr(cpi, "cpi_hamiltonian", lambda case, h: original(case, h) + 1)
        with pytest.raises(UnsupportedCaseError, match="not nilpotent"):
            suite.check_transport(fresh(), clock, seed)
        monkeypatch.setattr(cpi, "cpi_hamiltonian", original)


def test_bosonic_transport_bound_keeps_quadratics_with_entries_up_to_three():
    # The time bound is |nu*t| <= 1e6 and a hyperbolic clock below 1, so the
    # Hessians with entries up to 3 that stretched the old float flow the
    # most are exact at every truncation, and so is 3*q*p at t = 1.2.
    ctx = get_case("bosonic").context
    for a, b, c in ((3, 3, -3), (-3, 3, 3), (3, -3, -3), (3, 0, -3), (-3, 0, -3)):
        h = ctx.parse(f"({a})*q^2/2 + ({b})*q*p + ({c})*p^2/2")
        for truncation in (4, 5, 6):
            spec = CpiSpec("bosonic", hamiltonian=h, truncation=truncation)
            assert characteristics_check(spec, t=0.7, seed=1)["passed"]
    report = characteristics_check(CpiSpec("bosonic", hamiltonian=ctx.parse("3*q*p")), t=1.2)
    assert report["passed"] and all(c["residual"] == 0 for c in report["checks"])


# -- exact evolution on the Cayley clock ----------------------------------------------


def _largest(poly):
    return max((abs(complex(c)) for c in poly.terms.values()), default=0.0)


def test_float_evolution_matches_the_exact_rotation():
    # t = atan(4/3) has the clock 1/2 up to rounding at ν = 1, and
    # t = atan(4/3)/1.3 the clock 5/13 at ν = 13/10, where e^{−iνt} is
    # (3 − 4i)/5; the binary clocks of the float times land next to them.
    bosonic = CpiSpec("bosonic")
    rng = random.Random(7)
    for _ in range(5):
        psi = cpi.random_wavefunction(bosonic, rng)
        exact = evolve(psi, bosonic, Fraction(1, 2))
        near = evolve(psi, bosonic, cpi.cayley_clock(bosonic, math.atan2(4, 3)))
        assert 0 < _largest(near - exact) <= 1e-9
    grassmann = CpiSpec("grassmann", coefficients={"w": Fraction(13, 10)})
    ctx = get_case("grassmann").context
    psi = ctx.parse("xi*c_xi + (2-i)*xibar*c_xi^2 - c_xibar/3 + 5")
    exact = evolve(psi, grassmann, Fraction(5, 13))
    phase = (3 - 4 * I) / 5
    assert exact.coefficient({"xi": 1, "c_xi": 1}) == phase * phase
    near = evolve(psi, grassmann, cpi.cayley_clock(grassmann, math.atan2(4, 3) / 1.3))
    assert _largest(near - exact) <= 1e-9


def test_random_wavefunctions_are_drawn_for_the_even_cases_only():
    # The draws take powers of the base fields up to T - 2; an odd ξ has no ξ².
    with pytest.raises(UnsupportedCaseError, match="even cases bosonic and coadjoint"):
        cpi.random_wavefunction(CpiSpec("grassmann"), random.Random(0))


def _fraction_wavefunction(spec, rng):
    """``random_wavefunction`` with each coefficient built from two
    ``Fraction`` parts: its reference, drawing the same numbers."""
    case = get_case(spec.case)
    top = max(spec.truncation - 1, 1)
    terms = {}
    for _ in range(4):
        powers = {f.base: rng.randrange(top) for f in case.families}
        powers.update({f.ghost: rng.randrange(2) for f in case.families})
        parts = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2))
        terms[case.context.monomial(powers)] = CRational(*parts)
    return GradedPolynomial(case.context, terms)


def test_random_wavefunctions_equal_the_fraction_formula():
    specs = [CpiSpec("bosonic"), CpiSpec("bosonic", truncation=9), CpiSpec("coadjoint")]
    for spec in specs:
        for seed in range(51):
            rng, reference = random.Random(seed), random.Random(seed)
            for _ in range(2):
                psi = cpi.random_wavefunction(spec, rng)
                expected = _fraction_wavefunction(spec, reference)
                assert psi.terms == expected.terms
                assert all(type(c) is CRational for c in psi.terms.values())
            assert rng.getstate() == reference.getstate()


gaussian = st.builds(CRational, rationals, rationals)
monomials = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1), st.integers(0, 1))
clocks = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@given(
    terms=st.dictionaries(monomials, gaussian, min_size=1, max_size=4),
    hessian=st.tuples(entries, entries, entries),
    r=clocks,
    s=clocks,
)
@example(terms={(2, 2, 1, 1): CRational(1)}, hessian=(1, 0, 1), r=Fraction(1, 2), s=Fraction(1, 3))
@example(terms={(2, 1, 1, 0): CRational(2, 1)}, hessian=(0, 3, 0), r=Fraction(1, 5), s=Fraction(-1, 2))
@example(terms={(1, 2, 0, 1): CRational(1, -1)}, hessian=(2, 2, 2), r=Fraction(3, 2), s=Fraction(1))
@example(terms={(1, 1, 1, 1): CRational(1)}, hessian=(2, 0, 1), r=Fraction(1, 3), s=Fraction(1, 4))
def test_rotation_is_the_classical_flow(terms, hessian, r, s):
    # H = a/2·q² + b·q·p + c/2·p², so D = det M = a·c − b² takes every sign
    # (the examples: D = 1, −9, 0 and 2, whose ν = √2 is not rational).  At
    # any rational clock, exact evolution is ψ∘flow(−τ), and clocks compose
    # by the Cayley sum (r + s)/(1 − D·r·s), the tangent addition rule.
    a, b, c = map(Fraction, hessian)
    det = a * c - b * b
    assume(1 + det * r * r and 1 + det * s * s and 1 - det * r * s)
    total = (r + s) / (1 - det * r * s)
    assume(1 + det * total * total)
    ctx = get_case("bosonic").context
    q, p = ctx.sym("q"), ctx.sym("p")
    spec = CpiSpec("bosonic", hamiltonian=(a / 2) * q**2 + b * q * p + (c / 2) * p**2)
    psi = GradedPolynomial(
        ctx,
        {ctx.monomial(dict(zip(("q", "p", "c_q", "c_p"), exps))): c for exps, c in terms.items()},
    )
    once = evolve(psi, spec, r)
    assert once == cpi.pull_back(psi, spec, r)
    assert evolve(once, spec, s) == evolve(psi, spec, total)


def test_exact_flow_is_the_rational_rotation():
    # Harmonic H at clock 1/2: cos ντ = 3/5 and sin ντ = 4/5.  q*p (D = −1)
    # at clock 1/2 stretches by e^{±τ} = 3^{±1}, p^2/2 (D = 0) shears by
    # τ = 2r, and M = 0 stays put.
    flow = cpi.expm(CpiSpec("bosonic").vector_field[1], Fraction(1, 2))
    assert flow == ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5)))
    assert all(isinstance(x, CRational) for row in flow for x in row)
    assert cpi.expm(((1, 0), (0, -1)), Fraction(1, 2)) == ((3, 0), (0, Fraction(1, 3)))
    assert cpi.expm(((0, 1), (0, 0)), Fraction(1, 2)) == ((1, 1), (0, 1))
    assert cpi.expm(((0, 0), (0, 0)), 7) == ((1, 0), (0, 1))
    # The formula needs M² = −det M·I, which holds for a traceless M only.
    for m in (((1, 0), (0, 1)), ((1, 2), (0, 3))):
        with pytest.raises(ValueError, match="traceless"):
            cpi.expm(m, Fraction(1, 2))


@given(
    terms=st.dictionaries(monomials, gaussian, min_size=1, max_size=4),
    k=rationals,
    a=st.integers(-2, 2),
    b=st.integers(-2, 2),
    linear=st.tuples(rationals, rationals),
    t=rationals,
)
def test_nilpotent_evolution_is_the_affine_classical_flow(terms, k, a, b, linear, t):
    # H = k·(a·q + b·p)²/2 + d·q + e·p has det M = 0, so M² = 0 and the flow
    # is flow(−t)·x = (I − t·M)·x − t·v₀ + (t²/2)·M·v₀, ghosts by I − t·M.
    ctx = get_case("bosonic").context
    q, p = ctx.sym("q"), ctx.sym("p")
    d, e = linear
    spec = CpiSpec("bosonic", hamiltonian=(k / 2) * (a * q + b * p) ** 2 + d * q + e * p)
    psi = GradedPolynomial(
        ctx,
        {ctx.monomial(dict(zip(("q", "p", "c_q", "c_p"), exps))): c for exps, c in terms.items()},
    )
    v0, m = spec.vector_field
    back = tuple(tuple((i == j) - t * m[i][j] for j in range(2)) for i in range(2))
    drift = [-t * v0[i] + t * t / 2 * (m[i][0] * v0[0] + m[i][1] * v0[1]) for i in range(2)]
    moved = evolve(psi, spec, t / 2)
    assert moved == cpi.pull_back(psi, spec, t / 2)
    c_q, c_p = ctx.sym("c_q"), ctx.sym("c_p")
    assert moved == psi.substitute({
        "q": back[0][0] * q + back[0][1] * p + drift[0],
        "p": back[1][0] * q + back[1][1] * p + drift[1],
        "c_q": back[0][0] * c_q + back[0][1] * c_p,
        "c_p": back[1][0] * c_q + back[1][1] * c_p,
    })
    assert back == cpi.expm(m, -t / 2)
    rows = suite.check_transport(spec, t / 2)  # the same affine flow, in the rows
    assert all(row.passed for row in rows) and len(rows) == 5


def test_nilpotent_evolution_rejects_an_operator_that_is_not(monkeypatch):
    # At det M = 0 evolution is a Taylor sum; the harmonic H̃ turns q into p
    # and back, so its sum never ends.
    op = build_cpi_hamiltonian(CpiSpec("bosonic"))
    monkeypatch.setattr(cpi, "build_cpi_hamiltonian", lambda spec: op)
    parabolic = CpiSpec("bosonic", hamiltonian=op.context.parse("p^2/2"))
    with pytest.raises(UnsupportedCaseError, match="not nilpotent"):
        evolve(op.context.sym("q"), parabolic, Fraction(1, 4))


def test_nilpotent_evolution_runs_one_chain_of_powers(monkeypatch):
    # At det M = 0 the lower degrees ride along with the top one: φ dies
    # inside the chain of H̃ powers that φ²·c_η needs.
    spec = CpiSpec("coadjoint", coefficients={"muB": Fraction(4, 5)})
    ctx = get_case("coadjoint").context
    calls = []
    apply = cpi.LiouvilleOperator.apply
    monkeypatch.setattr(cpi.LiouvilleOperator, "apply",
                        lambda self, psi: calls.append(psi) or apply(self, psi))
    counts = []
    for text in ("phi^2*c_eta", "phi + phi^2*c_eta"):
        calls.clear()
        evolve(ctx.parse(text), spec, Fraction(1, 3))
        counts.append(len(calls))
    assert counts[0] == counts[1] == 3


def test_rotation_rejects_a_spectrum_it_cannot_certify(monkeypatch):
    ctx = get_case("bosonic").context
    q = ctx.sym("q")
    # The operator of ν = 2, or a nilpotent one, with the rate ν = 1: the
    # certificate (H̃² − 1)q = 0 fails.  A spec keeps the H̃ it built, so
    # each wrong one goes to a fresh harmonic spec.
    for text in ("p^2 + q^2", "p^2/2"):
        wrong = build_cpi_hamiltonian(CpiSpec("bosonic", hamiltonian=ctx.parse(text)))
        monkeypatch.setattr(cpi, "build_cpi_hamiltonian", lambda spec, op=wrong: op)
        with pytest.raises(UnsupportedCaseError, match="does not have the spectrum"):
            evolve(q, CpiSpec("bosonic"), Fraction(1, 2))
    monkeypatch.undo()
    # 1 + D·r² = 0: the clock 1/2 at D = −4 is the infinite time of the flow.
    boost = CpiSpec("bosonic", hamiltonian=ctx.parse("2*q*p+q^2"))
    with pytest.raises(UnsupportedCaseError, match="infinite time"):
        evolve(q, boost, Fraction(1, 2))
    with pytest.raises(UnsupportedCaseError, match="infinite time"):
        cpi.expm(boost.vector_field[1], Fraction(-1, 2))


def test_evolution_stops_at_the_first_power_that_vanishes(monkeypatch):
    # The harmonic H̃ annihilates the energy q² + p², so evolution returns it
    # after the one application that finds H̃ψ = 0; the certificate of degree
    # 2, H̃·(H̃² − 4·D), would take three.
    ctx = get_case("bosonic").context
    psi = ctx.parse("q^2 + p^2")
    calls = []
    apply = cpi.LiouvilleOperator.apply
    monkeypatch.setattr(cpi.LiouvilleOperator, "apply",
                        lambda op, x: calls.append(x) or apply(op, x))
    assert evolve(psi, CpiSpec("bosonic"), Fraction(1, 3)) == psi
    assert calls == [psi]


def test_cayley_clock_is_the_binary_value_of_the_clock():
    ctx = get_case("bosonic").context
    for text, t, expected in (("p^2/2+q^2/2", 0.7, math.tan(0.35)), ("q*p", 3.0, math.tanh(1.5)),
                              ("p^2/2", 0.7, 0.35), ("p^2/2+q^2", 1.0, math.tan(2**-0.5) / 2**0.5)):
        clock = cpi.cayley_clock(CpiSpec("bosonic", hamiltonian=ctx.parse(text)), t)
        assert isinstance(clock, Fraction) and float(clock) == pytest.approx(expected, rel=1e-15)
    # A complex det M, from a complex H, gives a Gaussian-rational clock.
    clock = cpi.cayley_clock(CpiSpec("bosonic", hamiltonian=ctx.parse("i*q^2/2+p^2/2")), 0.7)
    nu = cmath.sqrt(1j)
    assert isinstance(clock, CRational)
    assert complex(clock) == pytest.approx(cmath.tan(0.35 * nu) / nu)


def _failing(rows):
    return {row.name for row in rows if not row.passed}


BOSONIC_ROWS = {f"cpi-bosonic-transport-{n}" for n in range(5)}
# One elliptic, one hyperbolic and one parabolic H, each with a cross term.
SIGNS = ("p^2/2+q^2+q*p/3", "(1/4)*q^2 - p^2 + 3*q*p", "p^2/2+q*p/2+q^2/8")


def test_forward_flow_fails_every_bosonic_row(monkeypatch):
    # The flow the wrong way, exp(+τM), fails every bosonic row and the
    # grassmann phase; at M = 0 the coadjoint flow has only its drift.
    original = cpi.expm
    monkeypatch.setattr(cpi, "expm", lambda m, r: original(m, -r))
    for seed in (0, 1, 2):
        assert _failing(suite.check_cpi_transport(seed)) == BOSONIC_ROWS | {
            "cpi-grassmann-phase-xi-cxi"}
        for text in SIGNS:
            spec = CpiSpec("bosonic", hamiltonian=get_case("bosonic").context.parse(text))
            assert _failing(suite.check_transport(spec, Fraction(1, 3), seed)) == BOSONIC_ROWS


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
    for seed in (0, 1, 2):
        assert _failing(suite.check_cpi_transport(seed)) == FLIPPED_GRASSMANN | BOSONIC_ROWS
        for text in SIGNS:
            spec = CpiSpec("bosonic", hamiltonian=get_case("bosonic").context.parse(text))
            assert _failing(suite.check_transport(spec, Fraction(1, 3), seed)) == BOSONIC_ROWS


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
    rows = suite.check_transport(spec, cpi.cayley_clock(spec, t), 4)
    assert report["checks"] == [row.to_dict() for row in rows]
    assert report["passed"] is all(row.passed for row in rows) is True


def test_each_spec_builds_its_cpi_hamiltonian_once(monkeypatch):
    # Both sides of transport read H̃ from the spec, which builds it once.
    calls = []
    stock = cpi.build_cpi_hamiltonian
    monkeypatch.setattr(cpi, "build_cpi_hamiltonian", lambda spec: calls.append(spec) or stock(spec))
    suite.check_cpi_transport(0)
    assert len(calls) == 3
    calls.clear()
    characteristics_check(CpiSpec("coadjoint", coefficients={"muB": Fraction(4, 5)}))
    assert len(calls) == 1
    spec, q = CpiSpec("bosonic"), gen("bosonic", "q")
    evolve(q, spec, Fraction(1, 3))
    calls.clear()
    assert evolve(q, spec, Fraction(1, 2)) == q.context.parse("3/5*q - 4/5*p")
    assert calls == []


# -- one flow per spec and clock ----------------------------------------------------


def test_a_spec_builds_one_flow_per_clock(monkeypatch):
    # Five bosonic samples pull back through one flow; a second clock adds a
    # second flow, and the first stays.
    calls, original = [], cpi.expm
    monkeypatch.setattr(cpi, "expm", lambda m, r: calls.append(r) or original(m, r))
    spec = CpiSpec("bosonic")
    rows = suite.check_transport(spec, Fraction(1, 2), 0)
    assert len(rows) == suite.SAMPLES and all(row.passed for row in rows)
    assert calls == [Fraction(-1, 2)]
    suite.check_transport(spec, Fraction(1, 2), 1)
    assert len(calls) == 1
    suite.check_transport(spec, Fraction(1, 3), 0)
    q = gen("bosonic", "q")
    assert cpi.pull_back(q, spec, CRational(Fraction(1, 2))) == cpi.pull_back(q, spec, 0.5)
    assert calls == [Fraction(-1, 2), Fraction(-1, 3)]
    # Another spec of the same case builds its own.
    suite.check_transport(CpiSpec("bosonic"), Fraction(1, 2), 0)
    assert len(calls) == 3


def test_a_flow_binds_only_what_moves():
    # At M = 0 the coadjoint flow moves φ alone; the harmonic one moves all four.
    coadjoint = CpiSpec("coadjoint", coefficients={"muB": Fraction(4, 5)})
    assert set(coadjoint.flow(Fraction(3, 8))) == {"phi"}
    assert set(CpiSpec("bosonic").flow(Fraction(1, 2))) == {"q", "p", "c_q", "c_p"}
    assert CpiSpec("bosonic", hamiltonian=get_case("bosonic").context.zero()).flow(1) == {}


def test_a_spec_built_after_expm_is_patched_reads_the_patch(monkeypatch):
    # Flows live on their spec, so a patch reaches every spec built after it
    # and leaves the flows of an earlier spec as they were.
    psi, r = gen("bosonic", "q") * gen("bosonic", "c_p"), Fraction(1, 3)
    earlier = CpiSpec("bosonic")
    back = cpi.pull_back(psi, earlier, r)
    forward = cpi.pull_back(psi, CpiSpec("bosonic"), -r)
    original = cpi.expm
    monkeypatch.setattr(cpi, "expm", lambda m, r: original(m, -r))
    assert cpi.pull_back(psi, CpiSpec("bosonic"), r) == forward != back
    assert cpi.pull_back(psi, earlier, r) == back


def _bound_pull_back(psi, spec, r):
    """ψ∘flow(−τ), τ = 2r, with every field and ghost bound: fields to
    exp(−τM)·φ − τ·v₀ + (τ²/2)·M·v₀, ghosts to exp(−τM)·c.  The reference
    of ``cpi.pull_back``."""
    v0, m = spec.vector_field
    tau = 2 * r
    case = get_case(spec.case)
    ctx = case.context
    bindings = {}
    for row, m_row, v, f in zip(cpi.expm(m, -r), m, v0, case.families):
        shift = -tau * v + tau * tau / 2 * (m_row[0] * v0[0] + m_row[1] * v0[1])
        bindings[f.base] = shift + sum(
            (x * ctx.sym(g.base) for x, g in zip(row, case.families)), ctx.zero())
        bindings[f.ghost] = sum(
            (x * ctx.sym(g.ghost) for x, g in zip(row, case.families)), ctx.zero())
    return psi.substitute(bindings)


@given(
    hessian=st.tuples(entries, entries, entries),
    linear=st.tuples(entries, entries),
    mu_b=rationals,
    r=clocks,
    seed=st.integers(0, 2**16),
)
def test_pull_back_is_the_substitution_with_every_field_and_ghost_bound(
    hessian, linear, mu_b, r, seed
):
    # A quadratic H of every sign of det M, a nilpotent one with a drift, and
    # the coadjoint H, whose flow moves φ alone.
    a, b, c = hessian
    assume(1 + (a * c - b * b) * r * r)
    ctx = get_case("bosonic").context
    q, p = ctx.sym("q"), ctx.sym("p")
    specs = (
        CpiSpec("bosonic", hamiltonian=(a / 2) * q**2 + b * q * p + (c / 2) * p**2),
        CpiSpec("bosonic",
                hamiltonian=Fraction(1, 2) * (a * q + b * p) ** 2 + linear[0] * q + linear[1] * p),
        CpiSpec("coadjoint", coefficients={"muB": mu_b}),
    )
    rng = random.Random(seed)
    for spec in specs:
        for _ in range(2):
            psi = cpi.random_wavefunction(spec, rng)
            assert cpi.pull_back(psi, spec, r) == _bound_pull_back(psi, spec, r)
