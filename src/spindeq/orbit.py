"""Classical spin on a sphere of radius λ.

States carry spherical angles (θ, φ) with conjugate momenta (p_θ, p_φ).
The sphere arises by imposing the two second-class constraints

    Φ1 = p_θ,          Φ2 = p_φ − λ·cosθ,

whose Poisson bracket {Φ1, Φ2} = −λ·sinθ degenerates at the poles.  A phase
function is one polynomial over ``SPHERE``; its gradient, its Poisson
brackets and λ·sinθ times its Dirac brackets are derived polynomials, which
``dirac_bracket`` evaluates at a float state behind a pole guard.  On the
constraint surface H = −λ·μB·B·cosθ precesses φ at the rate
{φ, H}_D = −μB·B of ``precession_rate``, with everything else frozen; the
closed-form trajectory and the conserved quantities are exported as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

from .errors import PoleError
from .symbols import EVEN, GradedPolynomial, SymbolContext, partial_derivative, substitute

TWO_PI = 2.0 * math.pi

# λ, μB and B are constants: a state gives λ, and a phase function binds μB and B.
_NAMES = ("lam", "muB", "B", "theta", "phi", "p_theta", "p_phi",
          "sin_theta", "cos_theta", "sin_phi", "cos_phi")
SPHERE = SymbolContext([(name, EVEN, name in _NAMES[:3]) for name in _NAMES])


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


@dataclass(frozen=True)
class PhaseFunction:
    """A real exact polynomial over ``SPHERE`` as a function of a state; its
    ``constants``, ``(name, value)`` pairs, bind μB and B."""

    name: str
    polynomial: GradedPolynomial
    constants: tuple = ()

    def __post_init__(self):
        p = self.polynomial
        if (getattr(p, "context", None) is not SPHERE or not p.is_exact()
                or any(c.im for c in p.terms.values())
                or any(dot for _, dot in p.symbols_used())
                or not {name for name, _ in self.constants} <= {"muB", "B"}):
            raise ValueError(
                f"{self.name!r} must be a real exact polynomial over SPHERE binding muB, B"
            )

    def __call__(self, state) -> float:
        return _evaluate(self.polynomial, state, self.constants)


def _evaluate(p: GradedPolynomial, at, constants=()) -> float:
    bound, θ, φ = dict(constants), at.theta, at.phi
    if not {name for name, _ in p.symbols_used()} & {"muB", "B"} <= bound.keys():
        raise ValueError(f"muB and B need values to evaluate {p}")
    point = (at.lambda_radius, bound.get("muB"), bound.get("B"), θ, φ, at.p_theta, at.p_phi,
             math.sin(θ), math.cos(θ), math.sin(φ), math.cos(φ))
    return sum((float(c.re) * math.prod(point[i] ** e for (i, _), e in mono)
                for mono, c in p.terms.items()), 0.0)


@lru_cache(maxsize=64)
def _gradient(p: GradedPolynomial) -> tuple:
    """(∂θ, ∂φ, ∂p_θ, ∂p_φ) of p, each angle's through the chain rule:
    ∂_θ = ∂_θ|explicit + cosθ·∂_sinθ − sinθ·∂_cosθ, and the same for φ."""
    angles = [
        partial_derivative(p, angle)
        + SPHERE.sym(f"cos_{angle}") * partial_derivative(p, f"sin_{angle}")
        - SPHERE.sym(f"sin_{angle}") * partial_derivative(p, f"cos_{angle}")
        for angle in ("theta", "phi")
    ]
    return (*angles, partial_derivative(p, "p_theta"), partial_derivative(p, "p_phi"))


def poisson_bracket(f: PhaseFunction, g: PhaseFunction) -> GradedPolynomial:
    """{f, g} = f_θ g_{p_θ} − f_{p_θ} g_θ + f_φ g_{p_φ} − f_{p_φ} g_φ, exactly."""
    fθ, fφ, fpθ, fpφ = _gradient(f.polynomial)
    gθ, gφ, gpθ, gpφ = _gradient(g.polynomial)
    return fθ * gpθ - fpθ * gθ + fφ * gpφ - fpφ * gφ


def scaled_dirac_bracket(f: PhaseFunction, g: PhaseFunction) -> GradedPolynomial:
    """λ·sinθ·{f, g}_D, a polynomial: with the inverse of {Φ_a, Φ_b} = ∓λ·sinθ,

        {f, g}_D = {f, g} − {f, Φ1}·(1/(λ sinθ))·{Φ2, g} + {f, Φ2}·(1/(λ sinθ))·{Φ1, g}.
    """
    return (
        _SCALE * poisson_bracket(f, g)
        - poisson_bracket(f, CONSTRAINT_1) * poisson_bracket(CONSTRAINT_2, g)
        + poisson_bracket(f, CONSTRAINT_2) * poisson_bracket(CONSTRAINT_1, g)
    )


def dirac_bracket(f: PhaseFunction, g: PhaseFunction, at) -> float:
    """{f, g}_D at the state ``at``: ``scaled_dirac_bracket`` there, over
    λ·sinθ.  Configurations with |sinθ| ≤ 1e-6, or with λ·sinθ so small
    that its reciprocal is not finite, raise :class:`PoleError`.
    """
    s = math.sin(at.theta)
    if abs(s) <= 1e-6:
        raise PoleError(
            f"Dirac bracket singular at sin(theta) = {s:.3e}; too close to a pole"
        )
    scale = at.lambda_radius * s
    inv = 1.0 / scale if scale else math.inf
    if not math.isfinite(inv):
        raise PoleError(
            f"Dirac bracket singular at lambda*sin(theta) = {scale:.3e}; "
            "its reciprocal is not finite"
        )
    return _evaluate(scaled_dirac_bracket(f, g), at, f.constants + g.constants) * inv


def on_sphere(p: GradedPolynomial) -> GradedPolynomial:
    """p on the constraint surface, p_θ → 0 and p_φ → λ·cosθ, with cos² → 1 − sin²
    for each angle.  Degree at most 1 in each cosine is a unique normal form
    modulo sin² + cos² − 1 (Cox, Little & O'Shea, *Ideals, Varieties, and
    Algorithms*, ch. 2): two polynomials agree on the sphere iff their images do."""
    p = substitute(p, {"p_theta": SPHERE.zero(), "p_phi": HEIGHT.polynomial})
    for angle in ("theta", "phi"):
        cos, one_minus_sin2 = SPHERE.slot(f"cos_{angle}"), 1 - SPHERE.sym(f"sin_{angle}") ** 2
        out = SPHERE.zero()
        for mono, c in p.terms.items():
            k = dict(mono).get(cos, 0) // 2
            rest = {SPHERE.key(slot): e - 2 * k if slot == cos else e for slot, e in mono}
            out = out + GradedPolynomial(SPHERE, {SPHERE.monomial(rest): c}) * one_minus_sin2**k
        p = out
    return p


# -- builtin phase functions -------------------------------------------------------


THETA, PHI, P_THETA, P_PHI = (
    PhaseFunction(name, SPHERE.sym(name)) for name in ("theta", "phi", "p_theta", "p_phi")
)
CONSTRAINT_1 = PhaseFunction("constraint_1", SPHERE.parse("p_theta"))
CONSTRAINT_2 = PhaseFunction("constraint_2", SPHERE.parse("p_phi - lam*cos_theta"))
_SCALE = -poisson_bracket(CONSTRAINT_1, CONSTRAINT_2)  # λ·sinθ

HEIGHT = PhaseFunction("height", SPHERE.parse("lam*cos_theta"))  # η, the partner of φ
X1 = PhaseFunction("x1", SPHERE.parse("lam*sin_theta*cos_phi"))
X2 = PhaseFunction("x2", SPHERE.parse("lam*sin_theta*sin_phi"))
X3 = PhaseFunction("x3", HEIGHT.polynomial)
CARTESIAN = (X1, X2, X3)

_ENERGY = SPHERE.parse("-lam*muB*B*cos_theta")


def total_hamiltonian(mu_b: float, b: float) -> PhaseFunction:
    """H = −λ·μB·B·cosθ on the constraint surface."""
    return PhaseFunction("total_hamiltonian", _ENERGY, (("muB", mu_b), ("B", b)))


# -- closed-form dynamics ----------------------------------------------------------


def wrap_angle(x: float) -> float:
    return x % TWO_PI


def precession_rate(mu_b: float, b: float) -> float:
    """dφ/dt = {φ, H}_D = −μB·B, the one rate of the precession flow."""
    return -mu_b * b


def precession_period(mu_b: float, b: float) -> float:
    rate = precession_rate(mu_b, b)
    if rate == 0.0:
        raise ValueError("no precession at zero field")
    return TWO_PI / abs(rate)


def classical_trajectory(state: OrbitState, mu_b: float, b: float, t: float) -> OrbitState:
    """Precession flow: φ(t) = φ0 + rate·t (wrapped), all else frozen."""
    return replace(state, phi=wrap_angle(state.phi + precession_rate(mu_b, b) * t))
