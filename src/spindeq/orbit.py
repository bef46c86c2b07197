"""Classical spin on a sphere of radius λ.

States carry spherical angles (θ, φ) with conjugate momenta (p_θ, p_φ).
The sphere arises by imposing the two second-class constraints

    Φ1 = p_θ,          Φ2 = p_φ − λ·cosθ,

whose Poisson bracket {Φ1, Φ2} = −λ·sinθ degenerates at the poles, so all
Dirac brackets carry a pole guard.  On the constraint surface the dynamics
of H = −λ·μB·cosθ is uniform precession of φ at rate μB with everything
else frozen; the closed-form trajectory and the conserved quantities are
exported for use as oracles.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable

from .errors import PoleError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class OrbitState:
    """Point of the (θ, φ, p_θ, p_φ) phase space at sphere radius λ."""

    theta: float
    phi: float
    p_theta: float = 0.0
    p_phi: float = 0.0
    lambda_radius: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.theta < math.pi:
            raise ValueError("theta must lie strictly between 0 and pi")
        if self.lambda_radius <= 0.0:
            raise ValueError("lambda_radius must be positive")

    @classmethod
    def on_constraint(cls, theta: float, phi: float, lambda_radius: float = 1.0):
        """State on the constraint surface: p_θ = 0, p_φ = λ·cosθ."""
        return cls(theta, phi, 0.0, lambda_radius * math.cos(theta), lambda_radius)

    def constraint_residuals(self) -> tuple[float, float]:
        return (
            self.p_theta,
            self.p_phi - self.lambda_radius * math.cos(self.theta),
        )

    @property
    def cartesian(self) -> tuple[float, float, float]:
        lam, th, ph = self.lambda_radius, self.theta, self.phi
        return (
            lam * math.sin(th) * math.cos(ph),
            lam * math.sin(th) * math.sin(ph),
            lam * math.cos(th),
        )

    @property
    def height(self) -> float:
        """η = λ·cosθ, the Darboux partner of φ."""
        return self.lambda_radius * math.cos(self.theta)


@dataclass(frozen=True)
class PhaseFunction:
    """Scalar function of a state with its analytic gradient.

    Gradients are tuples (∂θ, ∂φ, ∂p_θ, ∂p_φ).
    """

    name: str
    fn: Callable
    grad: Callable

    def __call__(self, state) -> float:
        return self.fn(state)

    def gradient(self, state) -> tuple[float, float, float, float]:
        return self.grad(state)


def poisson_bracket(f: PhaseFunction, g: PhaseFunction, at) -> float:
    """{f, g} = f_θ g_{p_θ} − f_{p_θ} g_θ + f_φ g_{p_φ} − f_{p_φ} g_φ."""
    fθ, fφ, fpθ, fpφ = f.gradient(at)
    gθ, gφ, gpθ, gpφ = g.gradient(at)
    return fθ * gpθ - fpθ * gθ + fφ * gpφ - fpφ * gφ


def dirac_bracket(f: PhaseFunction, g: PhaseFunction, at, pole_guard: float = 1e-6) -> float:
    """Bracket on the constrained sphere.

    {f, g}_D = {f, g} − {f, Φ1}·(1/(λ sinθ))·{Φ2, g}
                       + {f, Φ2}·(1/(λ sinθ))·{Φ1, g}

    using the inverse of {Φ_a, Φ_b} = ∓λ·sinθ; configurations with
    |sinθ| ≤ pole_guard raise :class:`PoleError`.
    """
    s = math.sin(at.theta)
    if abs(s) <= pole_guard:
        raise PoleError(
            f"Dirac bracket singular at sin(theta) = {s:.3e}; too close to a pole"
        )
    inv = 1.0 / (at.lambda_radius * s)
    plain = poisson_bracket(f, g, at)
    f1 = poisson_bracket(f, CONSTRAINT_1, at)
    f2 = poisson_bracket(f, CONSTRAINT_2, at)
    g1 = poisson_bracket(CONSTRAINT_1, g, at)
    g2 = poisson_bracket(CONSTRAINT_2, g, at)
    return plain - f1 * inv * g2 + f2 * inv * g1


# -- builtin phase functions -------------------------------------------------------

THETA = PhaseFunction("theta", lambda s: s.theta, lambda s: (1.0, 0.0, 0.0, 0.0))
PHI = PhaseFunction("phi", lambda s: s.phi, lambda s: (0.0, 1.0, 0.0, 0.0))
P_THETA = PhaseFunction("p_theta", lambda s: s.p_theta, lambda s: (0.0, 0.0, 1.0, 0.0))
P_PHI = PhaseFunction("p_phi", lambda s: s.p_phi, lambda s: (0.0, 0.0, 0.0, 1.0))

CONSTRAINT_1 = PhaseFunction("constraint_1", lambda s: s.p_theta, lambda s: (0.0, 0.0, 1.0, 0.0))
CONSTRAINT_2 = PhaseFunction(
    "constraint_2",
    lambda s: s.p_phi - s.lambda_radius * math.cos(s.theta),
    lambda s: (s.lambda_radius * math.sin(s.theta), 0.0, 0.0, 1.0),
)

HEIGHT = PhaseFunction(
    "height",
    lambda s: s.lambda_radius * math.cos(s.theta),
    lambda s: (-s.lambda_radius * math.sin(s.theta), 0.0, 0.0, 0.0),
)

X1 = PhaseFunction(
    "x1",
    lambda s: s.lambda_radius * math.sin(s.theta) * math.cos(s.phi),
    lambda s: (
        s.lambda_radius * math.cos(s.theta) * math.cos(s.phi),
        -s.lambda_radius * math.sin(s.theta) * math.sin(s.phi),
        0.0,
        0.0,
    ),
)
X2 = PhaseFunction(
    "x2",
    lambda s: s.lambda_radius * math.sin(s.theta) * math.sin(s.phi),
    lambda s: (
        s.lambda_radius * math.cos(s.theta) * math.sin(s.phi),
        s.lambda_radius * math.sin(s.theta) * math.cos(s.phi),
        0.0,
        0.0,
    ),
)
X3 = PhaseFunction("x3", HEIGHT.fn, HEIGHT.grad)

CARTESIAN = (X1, X2, X3)


def total_hamiltonian(mu_b: float, b: float) -> PhaseFunction:
    """H = −λ·μB·B·cosθ on the constraint surface."""

    def fn(s):
        return -s.lambda_radius * mu_b * b * math.cos(s.theta)

    def grad(s):
        return (s.lambda_radius * mu_b * b * math.sin(s.theta), 0.0, 0.0, 0.0)

    return PhaseFunction("total_hamiltonian", fn, grad)


# -- closed-form dynamics ----------------------------------------------------------


def wrap_angle(x: float) -> float:
    return x % TWO_PI


def precession_period(mu_b: float, b: float) -> float:
    rate = mu_b * b
    if rate == 0.0:
        raise ValueError("no precession at zero field")
    return TWO_PI / abs(rate)


def trajectory_derivatives(state: OrbitState, mu_b: float, b: float) -> tuple[float, float]:
    """(dθ/dt, dφ/dt) of the closed-form flow: θ frozen, φ̇ = −μB·B."""
    return (0.0, -mu_b * b)


def classical_trajectory(state: OrbitState, mu_b: float, b: float, t: float) -> OrbitState:
    """Precession flow: φ(t) = φ0 − μB·B·t (wrapped), all else frozen."""
    return replace(state, phi=wrap_angle(state.phi - mu_b * b * t))


def equation_residuals(state: OrbitState, mu_b: float, b: float) -> tuple[float, float]:
    """Residuals of d(λcosθ)/dt = 0 and (φ̇ + μB·B)·sinθ = 0 along the flow."""
    theta_dot, phi_dot = trajectory_derivatives(state, mu_b, b)
    height_rate = -state.lambda_radius * math.sin(state.theta) * theta_dot
    return (height_rate, (phi_dot + mu_b * b) * math.sin(state.theta))


def random_states(
    n: int,
    seed: int,
    polar_margin: float = 0.15,
    lambda_range: tuple[float, float] = (0.5, 2.0),
) -> list[OrbitState]:
    """Seeded sample of constraint-surface states away from the poles."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        theta = rng.uniform(polar_margin, math.pi - polar_margin)
        phi = rng.uniform(0.0, TWO_PI)
        lam = rng.uniform(*lambda_range)
        out.append(OrbitState.on_constraint(theta, phi, lam))
    return out
