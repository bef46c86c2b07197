"""Constrained sphere: brackets and precession.

Every phase function is a polynomial over ``SPHERE``, and its gradient and
brackets are derived.  The derived gradients are checked once against
Richardson-extrapolated central differences; that threshold sits well above
the step-size error floor but far below any sign or factor mistake.
"""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spindeq import (
    CARTESIAN,
    CONSTRAINT_1,
    CONSTRAINT_2,
    HEIGHT,
    PHI,
    P_PHI,
    P_THETA,
    SPHERE,
    THETA,
    GradedPolynomial,
    OrbitState,
    PhaseFunction,
    PoleError,
    SymbolContext,
    classical_trajectory,
    dirac_bracket,
    on_sphere,
    poisson_bracket,
    precession_period,
    precession_rate,
    scaled_dirac_bracket,
    total_hamiltonian,
    wrap_angle,
)
from spindeq import orbit
from spindeq.suite import check_dirac_brackets, check_precession


def constraint_states(n, seed):
    """Seeded states on the constraint surface away from the poles:
    θ in [0.15, π − 0.15], φ in [0, 2π) and λ in [0.5, 2]."""
    rng = random.Random(seed)
    return [
        OrbitState.on_constraint(
            rng.uniform(0.15, math.pi - 0.15), rng.uniform(0.0, 2 * math.pi), rng.uniform(0.5, 2.0)
        )
        for _ in range(n)
    ]


STATES = constraint_states(12, seed=7)

COORDS = ("theta", "phi", "p_theta", "p_phi")

LAM_SIN = SPHERE.parse("lam*sin_theta")


def value(polynomial, state, constants=()):
    return PhaseFunction("value", polynomial, constants)(state)


def richardson_gradient(f, state, step=1e-6):
    """Central differences of f, Richardson-extrapolated over step and step/2."""

    def central(coord, h):
        x = getattr(state, coord)
        up = f(replace(state, **{coord: x + h}))
        down = f(replace(state, **{coord: x - h}))
        return (up - down) / (2.0 * h)

    return tuple(
        (4.0 * central(c, step / 2.0) - central(c, step)) / 3.0 for c in COORDS
    )


def test_state_validation():
    with pytest.raises(ValueError):
        OrbitState(0.0, 0.0)
    with pytest.raises(ValueError):
        OrbitState(math.pi, 0.0)
    with pytest.raises(ValueError):
        OrbitState(1.0, 0.0, lambda_radius=-1.0)


def test_on_constraint_satisfies_both_constraints():
    for state in STATES:
        assert abs(CONSTRAINT_1(state)) == 0.0
        assert abs(CONSTRAINT_2(state)) < 1e-15


def test_cartesian_embedding_radius():
    for state in STATES:
        x, y, z = (f(state) for f in CARTESIAN)
        assert x * x + y * y + z * z == pytest.approx(
            state.lambda_radius**2, abs=1e-12
        )
        assert z == pytest.approx(state.lambda_radius * math.cos(state.theta), abs=1e-15)


def test_analytic_gradients_match_finite_differences():
    # The derived gradient, read off the brackets with the canonical
    # coordinates: (∂θ, ∂φ, ∂p_θ, ∂p_φ) f = ({f, p_θ}, {f, p_φ}, −{f, θ}, −{f, φ}).
    functions = [THETA, PHI, P_THETA, P_PHI, HEIGHT, CONSTRAINT_1, CONSTRAINT_2, *CARTESIAN,
                 total_hamiltonian(0.9, 1.3)]
    for f in functions:
        gradient = (
            poisson_bracket(f, P_THETA), poisson_bracket(f, P_PHI),
            -poisson_bracket(f, THETA), -poisson_bracket(f, PHI),
        )
        for state in STATES[:6]:
            exact = [value(d, state, f.constants) for d in gradient]
            numeric = richardson_gradient(f, state)
            for a, b in zip(exact, numeric):
                assert a == pytest.approx(b, abs=1e-8)


def test_poisson_canonical_pairs():
    assert poisson_bracket(THETA, P_THETA) == 1
    assert poisson_bracket(PHI, P_PHI) == 1
    assert poisson_bracket(THETA, PHI) == 0
    assert poisson_bracket(P_THETA, P_PHI) == 0
    assert poisson_bracket(THETA, P_THETA) == -poisson_bracket(P_THETA, THETA)


def test_constraint_pair_poisson_bracket():
    assert poisson_bracket(CONSTRAINT_1, CONSTRAINT_2) == -LAM_SIN
    state = OrbitState.on_constraint(math.pi / 2, 0.8, lambda_radius=1.0)
    assert value(poisson_bracket(CONSTRAINT_1, CONSTRAINT_2), state) == pytest.approx(
        -1.0, abs=1e-15
    )


def test_bracket_antisymmetry():
    assert poisson_bracket(HEIGHT, HEIGHT) == 0
    assert scaled_dirac_bracket(PHI, HEIGHT) == -scaled_dirac_bracket(HEIGHT, PHI)
    for s in STATES[:3]:
        assert dirac_bracket(PHI, HEIGHT, s) == pytest.approx(
            -dirac_bracket(HEIGHT, PHI, s), abs=1e-9
        )


def test_dirac_bracket_canonical_pair():
    for state in STATES:
        assert dirac_bracket(PHI, HEIGHT, state) == pytest.approx(1.0, abs=1e-9)


def test_constraints_are_central_for_dirac_bracket():
    probes = [THETA, PHI, P_THETA, P_PHI, HEIGHT, *CARTESIAN]
    for state in STATES[:4]:
        for f in probes:
            for constraint in (CONSTRAINT_1, CONSTRAINT_2):
                assert dirac_bracket(f, constraint, state) == pytest.approx(
                    0.0, abs=1e-9
                )


def test_dirac_bracket_so3():
    x1, x2, x3 = CARTESIAN
    for state in STATES[:6]:
        assert dirac_bracket(x1, x2, state) == pytest.approx(x3(state), abs=1e-8)
        assert dirac_bracket(x2, x3, state) == pytest.approx(x1(state), abs=1e-8)
        assert dirac_bracket(x3, x1, state) == pytest.approx(x2(state), abs=1e-8)


def test_dirac_bracket_pole_guard():
    with pytest.raises(PoleError):
        dirac_bracket(PHI, HEIGHT, OrbitState(1e-9, 0.0))
    with pytest.raises(PoleError):
        dirac_bracket(PHI, HEIGHT, OrbitState(math.pi - 1e-9, 0.0))


def test_trajectory_solves_equations_of_motion():
    # The flow freezes η and turns φ at precession_rate, the Dirac brackets
    # {η, H}_D and {φ, H}_D.
    mu_b, b, t = 0.9, 1.3, 0.25
    h = total_hamiltonian(mu_b, b)
    rate = precession_rate(mu_b, b)
    assert rate == -mu_b * b
    for state in STATES[:6]:
        assert dirac_bracket(HEIGHT, h, state) == 0.0
        assert dirac_bracket(PHI, h, state) == pytest.approx(rate, rel=1e-12)
        moved = classical_trajectory(state, mu_b, b, t)
        assert HEIGHT(moved) == HEIGHT(state)
        turned = (moved.phi - state.phi + math.pi) % (2 * math.pi) - math.pi
        assert turned / t == pytest.approx(dirac_bracket(PHI, h, state), rel=1e-12)


def test_precession_angle_row_fails_for_the_opposite_hamiltonian(monkeypatch):
    stock = orbit.total_hamiltonian

    def negated(mu_b, b):
        h = stock(mu_b, b)
        return PhaseFunction("negated", -h.polynomial, h.constants)

    monkeypatch.setattr(orbit, "total_hamiltonian", negated)
    rows = {row.name: row for row in check_precession()}
    assert not rows["precession-angle-equation"].passed
    assert rows["precession-height-equation"].passed


def test_equations_of_motion_are_exact_on_the_sphere():
    # λ·sinθ·{η, H}_D vanishes and λ·sinθ·{φ, H}_D = −λ·sinθ·μB·B, as polynomials.
    h = total_hamiltonian(0.9, 1.3)
    assert scaled_dirac_bracket(HEIGHT, h).is_zero()
    assert scaled_dirac_bracket(PHI, h) == -LAM_SIN * SPHERE.parse("muB*B")


def test_flipped_constraint_correction_fails_every_dirac_row(monkeypatch):
    stock = orbit.scaled_dirac_bracket

    def flipped(f, g):
        # λ·sinθ·{f, g} with the constraint correction subtracted, not added
        return 2 * LAM_SIN * poisson_bracket(f, g) - stock(f, g)

    monkeypatch.setattr(orbit, "scaled_dirac_bracket", flipped)
    rows = check_dirac_brackets()
    assert [row.name for row in rows if not row.passed] == [
        "dirac-canonical-pair", "dirac-constraints-vanish", "dirac-so3-relations"
    ]
    assert all(row.residual != 0 for row in rows)


def test_phase_functions_are_real_polynomials_over_the_sphere():
    other = SymbolContext([("theta", "even")])
    for args in (
        (other.parse("theta"),),
        (SPHERE.parse("i*theta"),),
        (SPHERE.parse("dot(theta)"),),
        (SPHERE.parse("theta"), (("lam", 2.0),)),
    ):
        with pytest.raises(ValueError):
            PhaseFunction("bad", *args)
    with pytest.raises(ValueError, match="muB and B need values"):
        PhaseFunction("energy", SPHERE.parse("muB*cos_theta"))(STATES[0])


def test_trajectory_composition_and_period():
    mu_b, b = 0.9, 1.3
    state = OrbitState.on_constraint(1.1, 0.3, lambda_radius=1.7)
    t1, t2 = 0.6, 1.9
    once = classical_trajectory(state, mu_b, b, t1 + t2)
    twice = classical_trajectory(classical_trajectory(state, mu_b, b, t1), mu_b, b, t2)
    assert once.phi == pytest.approx(twice.phi, abs=1e-12)
    assert once.theta == state.theta
    period = precession_period(mu_b, b)
    assert period == pytest.approx(2.0 * math.pi / (mu_b * b))
    closed = classical_trajectory(state, mu_b, b, period)
    assert closed.phi == pytest.approx(state.phi, abs=1e-12)


def test_conserved_quantities():
    mu_b, b = 0.9, 1.3
    h = total_hamiltonian(mu_b, b)
    state = OrbitState.on_constraint(1.1, 0.3, lambda_radius=1.7)
    assert h(state) == pytest.approx(-1.7 * mu_b * b * math.cos(1.1))
    moved = classical_trajectory(state, mu_b, b, 2.4)
    assert h(moved) == h(state)
    assert HEIGHT(moved) == HEIGHT(state)
    equator = OrbitState.on_constraint(math.pi / 2, 0.0)
    assert h(equator) == pytest.approx(0.0, abs=1e-15)


def test_zero_field_freezes_the_trajectory():
    state = OrbitState.on_constraint(1.1, 0.3, lambda_radius=1.7)
    assert classical_trajectory(state, 0.9, 0.0, 5.0) == state


def test_wrap_angle_range():
    for x in (-7.0, -1.0, 0.0, 1.0, 7.0, 12.56):
        w = wrap_angle(x)
        assert 0.0 <= w < 2.0 * math.pi
        assert math.cos(w) == pytest.approx(math.cos(x), abs=1e-12)


# -- the normal form on the sphere ---------------------------------------------------

NAMES = ("lam", "muB", "B", "theta", "phi", "p_theta", "p_phi",
         "sin_theta", "cos_theta", "sin_phi", "cos_phi")

monomials = st.dictionaries(st.sampled_from(NAMES), st.integers(1, 4), max_size=4)
polynomial_terms = st.lists(st.tuples(st.integers(-5, 5), monomials), max_size=5)


def build(terms):
    return sum(
        (GradedPolynomial(SPHERE, {SPHERE.monomial(mono): c}) for c, mono in terms),
        SPHERE.zero(),
    )


def cosine_degrees(p):
    slots = [SPHERE.slot(name) for name in ("cos_theta", "cos_phi")]
    return [max((dict(mono).get(slot, 0) for mono in p.terms), default=0) for slot in slots]


@given(
    terms=polynomial_terms,
    other=polynomial_terms,
    theta=st.floats(0.15, math.pi - 0.15),
    phi=st.floats(0.0, 2 * math.pi),
    lam=st.floats(0.5, 2.0),
    mu_b=st.floats(-2.0, 2.0),
    b=st.floats(-2.0, 2.0),
)
def test_on_sphere_is_a_normal_form_that_keeps_the_value(terms, other, theta, phi, lam, mu_b, b):
    p = build(terms)
    reduced = on_sphere(p)
    assert on_sphere(reduced) == reduced
    assert max(cosine_degrees(reduced)) <= 1
    assert not {"p_theta", "p_phi"} & {name for name, _ in reduced.symbols_used()}
    # Anything that vanishes on the sphere leaves the normal form alone.
    q = build(other)
    vanishing = (
        SPHERE.parse("sin_theta^2 + cos_theta^2 - 1") * q
        + SPHERE.parse("sin_phi^2 + cos_phi^2 - 1") * q * q
        + CONSTRAINT_1.polynomial * q
        + CONSTRAINT_2.polynomial * q
    )
    assert on_sphere(p + vanishing) == reduced
    state = OrbitState.on_constraint(theta, phi, lam)
    constants = (("muB", mu_b), ("B", b))
    point = {
        "lam": lam, "muB": mu_b, "B": b, "theta": theta, "phi": phi,
        "p_theta": state.p_theta, "p_phi": state.p_phi,
        "sin_theta": math.sin(theta), "cos_theta": math.cos(theta),
        "sin_phi": math.sin(phi), "cos_phi": math.cos(phi),
    }
    size = sum(abs(c) * math.prod(abs(point[n]) ** e for n, e in mono.items())
               for c, mono in terms)
    assert value(reduced, state, constants) == pytest.approx(
        value(p, state, constants), rel=1e-9, abs=1e-9 * (1.0 + size)
    )
