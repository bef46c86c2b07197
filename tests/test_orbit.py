"""Constrained sphere: brackets and precession.

Brackets use analytic gradients, which are checked once against
Richardson-extrapolated central differences; that threshold sits well above
the step-size error floor but far below any sign or factor mistake.
"""

import math
from dataclasses import replace

import pytest

from spindeq import (
    CARTESIAN,
    CONSTRAINT_1,
    CONSTRAINT_2,
    HEIGHT,
    PHI,
    P_PHI,
    P_THETA,
    THETA,
    OrbitState,
    PhaseFunction,
    PoleError,
    classical_trajectory,
    dirac_bracket,
    poisson_bracket,
    precession_period,
    precession_rate,
    random_states,
    total_hamiltonian,
    wrap_angle,
)
from spindeq import orbit
from spindeq.suite import check_precession

STATES = random_states(12, seed=7)

COORDS = ("theta", "phi", "p_theta", "p_phi")


def richardson_gradient(f, state, step=1e-6):
    """Central differences of f.fn, Richardson-extrapolated over step and step/2."""

    def central(coord, h):
        value = getattr(state, coord)
        up = f.fn(replace(state, **{coord: value + h}))
        down = f.fn(replace(state, **{coord: value - h}))
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
        assert z == pytest.approx(state.height, abs=1e-15)


def test_analytic_gradients_match_finite_differences():
    functions = [THETA, PHI, P_THETA, P_PHI, HEIGHT, CONSTRAINT_1, CONSTRAINT_2, *CARTESIAN]
    for f in functions:
        for state in STATES[:6]:
            exact = f.gradient(state)
            numeric = richardson_gradient(f, state)
            for a, b in zip(exact, numeric):
                assert a == pytest.approx(b, abs=1e-8)


def test_poisson_canonical_pairs():
    for state in STATES[:6]:
        assert poisson_bracket(THETA, P_THETA, state) == pytest.approx(1.0, abs=1e-9)
        assert poisson_bracket(PHI, P_PHI, state) == pytest.approx(1.0, abs=1e-9)
        assert poisson_bracket(THETA, PHI, state) == pytest.approx(0.0, abs=1e-9)
        assert poisson_bracket(P_THETA, P_PHI, state) == pytest.approx(0.0, abs=1e-9)
        assert poisson_bracket(THETA, P_THETA, state) == -poisson_bracket(
            P_THETA, THETA, state
        )


def test_constraint_pair_poisson_bracket():
    state = OrbitState.on_constraint(math.pi / 2, 0.8, lambda_radius=1.0)
    assert poisson_bracket(CONSTRAINT_1, CONSTRAINT_2, state) == pytest.approx(
        -1.0, abs=1e-9
    )
    for s in STATES[:4]:
        expected = -s.lambda_radius * math.sin(s.theta)
        assert poisson_bracket(CONSTRAINT_1, CONSTRAINT_2, s) == pytest.approx(
            expected, abs=1e-9
        )


def test_bracket_antisymmetry():
    for s in STATES[:3]:
        assert poisson_bracket(HEIGHT, HEIGHT, s) == pytest.approx(0.0, abs=1e-10)
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
        assert moved.height == state.height
        turned = (moved.phi - state.phi + math.pi) % (2 * math.pi) - math.pi
        assert turned / t == pytest.approx(dirac_bracket(PHI, h, state), rel=1e-12)


def test_precession_angle_row_fails_for_the_opposite_hamiltonian(monkeypatch):
    stock = orbit.total_hamiltonian

    def negated(mu_b, b):
        h = stock(mu_b, b)
        return PhaseFunction("negated", lambda s: -h(s), lambda s: tuple(-g for g in h.gradient(s)))

    monkeypatch.setattr(orbit, "total_hamiltonian", negated)
    rows = {row.name: row for row in check_precession()}
    assert not rows["precession-angle-equation"].passed
    assert rows["precession-height-equation"].passed


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
    assert moved.height == state.height
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


def test_random_states_are_reproducible_and_valid():
    again = random_states(12, seed=7)
    assert again == STATES
    margin = 0.15
    for state in STATES:
        assert margin <= state.theta <= math.pi - margin
        assert 0.5 <= state.lambda_radius <= 2.0
        assert abs(state.p_theta) == 0.0

