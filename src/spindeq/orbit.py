"""Classical spin on a sphere of radius λ.

States carry spherical angles (θ, φ) with conjugate momenta (p_θ, p_φ).
The sphere arises by imposing the two second-class constraints

    Φ1 = p_θ,          Φ2 = p_φ − λ·cosθ,

whose Poisson bracket {Φ1, Φ2} = −λ·sinθ degenerates at the poles.  A phase
function is one polynomial over ``SPHERE``; its gradient and its Poisson
brackets with both constraints are derived once and kept on it.  The Dirac
bracket has a pole where {Φ1, Φ2} vanishes, so ``dirac_bracket`` gives the
polynomial λ·sinθ·{f, g}_D in ``on_sphere`` normal form, exact everywhere.
On the constraint surface H = −λ·μB·B·cosθ precesses φ at the rate
{φ, H}_D = −μB·B of ``precession_rate``, with everything else frozen:
``pull_back`` moves a polynomial along that flow, and the float
``classical_trajectory`` tabulates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

from .symbols import EVEN, GradedPolynomial, SymbolContext, partial_derivative, substitute

# λ, μB and B are constants: a state gives λ, and a phase function binds μB and B.
_NAMES = ("lam", "muB", "B", "theta", "phi", "p_theta", "p_phi",
          "sin_theta", "cos_theta", "sin_phi", "cos_phi")
SPHERE = SymbolContext([(name, EVEN, name in _NAMES[:3]) for name in _NAMES])
# (slot of cos, 1 − sin²) for each angle: the reduction cos² → 1 − sin².
_PYTHAGORAS = [(SPHERE.slot(f"cos_{a}"), 1 - SPHERE.sym(f"sin_{a}") ** 2) for a in ("theta", "phi")]


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
    """A real exact polynomial over ``SPHERE``, whose ``constants``,
    ``(name, value)`` pairs, bind μB and B; called on a state, its float value."""

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
        bound, θ, φ = dict(self.constants), state.theta, state.phi
        if not {name for name, _ in self.polynomial.symbols_used()} & {"muB", "B"} <= bound.keys():
            raise ValueError(f"muB and B need values to evaluate {self.polynomial}")
        point = (state.lambda_radius, bound.get("muB"), bound.get("B"), θ, φ, state.p_theta,
                 state.p_phi, math.sin(θ), math.cos(θ), math.sin(φ), math.cos(φ))
        return sum((float(c.re) * math.prod(point[i] ** e for (i, _), e in mono)
                    for mono, c in self.polynomial.terms.items()), 0.0)

    @cached_property
    def gradient(self) -> tuple:
        """(∂θ, ∂φ, ∂p_θ, ∂p_φ), each angle's through the chain rule:
        ∂_θ = ∂_θ|explicit + cosθ·∂_sinθ − sinθ·∂_cosθ, and the same for φ."""
        p = self.polynomial
        angles = [
            partial_derivative(p, angle)
            + SPHERE.sym(f"cos_{angle}") * partial_derivative(p, f"sin_{angle}")
            - SPHERE.sym(f"sin_{angle}") * partial_derivative(p, f"cos_{angle}")
            for angle in ("theta", "phi")
        ]
        return (*angles, partial_derivative(p, "p_theta"), partial_derivative(p, "p_phi"))

    @cached_property
    def constraint_brackets(self) -> tuple:
        """({f, Φ1}, {f, Φ2})."""
        return poisson_bracket(self, CONSTRAINT_1), poisson_bracket(self, CONSTRAINT_2)


def poisson_bracket(f: PhaseFunction, g: PhaseFunction) -> GradedPolynomial:
    """{f, g} = f_θ g_{p_θ} − f_{p_θ} g_θ + f_φ g_{p_φ} − f_{p_φ} g_φ, exactly."""
    fθ, fφ, fpθ, fpφ = f.gradient
    gθ, gφ, gpθ, gpφ = g.gradient
    return fθ * gpθ - fpθ * gθ + fφ * gpφ - fpφ * gφ


def scaled_dirac_bracket(f: PhaseFunction, g: PhaseFunction) -> GradedPolynomial:
    """λ·sinθ·{f, g}_D, a polynomial: with the inverse of {Φ_a, Φ_b} = ∓λ·sinθ,

        {f, g}_D = {f, g} − {f, Φ1}·(1/(λ sinθ))·{Φ2, g} + {f, Φ2}·(1/(λ sinθ))·{Φ1, g},

    so λ·sinθ·{f, g}_D = λ·sinθ·{f, g} + {f, Φ1}·{g, Φ2} − {f, Φ2}·{g, Φ1}.
    """
    (f1, f2), (g1, g2) = f.constraint_brackets, g.constraint_brackets
    return _SCALE * poisson_bracket(f, g) + f1 * g2 - f2 * g1


def dirac_bracket(f: PhaseFunction, g: PhaseFunction) -> GradedPolynomial:
    """λ·sinθ·{f, g}_D on the sphere, in ``on_sphere`` normal form: two
    brackets agree on the sphere iff these polynomials are equal, the poles
    included, where {f, g}_D itself is singular."""
    return on_sphere(scaled_dirac_bracket(f, g))


def on_sphere(p: GradedPolynomial) -> GradedPolynomial:
    """p on the constraint surface, p_θ → 0 and p_φ → λ·cosθ, with cos² → 1 − sin²
    for each angle.  Degree at most 1 in each cosine is a unique normal form
    modulo sin² + cos² − 1 (Cox, Little & O'Shea, *Ideals, Varieties, and
    Algorithms*, ch. 2): two polynomials agree on the sphere iff their images do."""
    if {("p_theta", 0), ("p_phi", 0)} & p.symbols_used():
        p = substitute(p, {"p_theta": SPHERE.zero(), "p_phi": HEIGHT.polynomial})
    for cos, one_minus_sin2 in _PYTHAGORAS:
        kept, reduced = {}, []
        for mono, c in p.terms.items():
            k = dict(mono).get(cos, 0) // 2
            if k:
                rest = tuple((s, e % 2 if s == cos else e) for s, e in mono if s != cos or e % 2)
                reduced.append(GradedPolynomial(SPHERE, {rest: c}) * one_minus_sin2**k)
            else:
                kept[mono] = c
        p = sum(reduced, GradedPolynomial(SPHERE, kept))
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


# -- the precession flow ----------------------------------------------------------


def precession_rate(mu_b, b):
    """dφ/dt = {φ, H}_D = −μB·B, the one rate of the flow, of numbers or polynomials."""
    return -mu_b * b


def pull_back(p: GradedPolynomial, flow) -> GradedPolynomial:
    """p with (cos φ, sin φ) replaced by flow·(cos φ, sin φ), for a 2×2
    ``flow``: p along the precession flow over τ when flow = exp(τ·M) for
    M = ((0, −ν), (ν, 0)), such as ``cpi.expm(M, r)`` at the Cayley clock r.
    p must not hold φ itself, which no polynomial map moves by ντ."""
    if ("phi", 0) in p.symbols_used():
        raise ValueError(f"pull_back turns cos_phi and sin_phi, not phi itself: {p}")
    cos, sin = SPHERE.monomial({"cos_phi": 1}), SPHERE.monomial({"sin_phi": 1})
    return substitute(p, {name: GradedPolynomial(SPHERE, {cos: x, sin: y})
                          for name, (x, y) in zip(("cos_phi", "sin_phi"), flow)})


def classical_trajectory(state: OrbitState, mu_b: float, b: float, t: float) -> OrbitState:
    """The precession flow in floats, for the ``precession`` table:
    φ(t) = φ0 + rate·t mod 2π, all else frozen."""
    return replace(state, phi=(state.phi + precession_rate(mu_b, b) * t) % (2 * math.pi))
