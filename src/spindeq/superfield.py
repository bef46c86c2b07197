"""Superfields and the dequantization transform.

Each of the three cases (bosonic, grassmann, coadjoint) packages a phase
space direction into a multiplet: the base field, its ghost, and the
auxiliary/antighost pair of the conjugate direction, expanded in the two odd
partners of time.  Replacing fields by superfields and integrating over the
odd time partners maps a quantum Lagrangian to the classical-path-integral
Lagrangian up to total time derivatives; ``dequantize`` performs the map and
splits off the total-derivative part exactly.

Supertime measure convention: ``supertime_integral(thetabar*theta * X) =
i*X`` (the rightmost measure acts first, as in :mod:`spindeq.grassmann`).
This is the sign under which the free-particle identity check passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

from . import _graded
from .errors import IdentityViolationError, UnsupportedCaseError
from .exact import CRational
from .symbols import (
    EVEN,
    ODD,
    GradedPolynomial,
    SymbolContext,
    format_poly,
    formal_time_derivative,
    partial_derivative,
    substitute,
)

CASES = ("bosonic", "grassmann", "coadjoint")


@dataclass(frozen=True)
class FieldFamily:
    """One phase-space direction and its enlarged-space partners."""

    base: str
    ghost: str
    aux: str
    antighost: str


@dataclass(frozen=True)
class DequantizationCase:
    name: str
    context: SymbolContext
    families: tuple[FieldFamily, ...]
    theta: str
    thetabar: str
    base_parity: str
    constants: tuple[str, ...]

    @property
    def base_names(self) -> tuple[str, ...]:
        return tuple(f.base for f in self.families)


_REGISTRY: dict[str, DequantizationCase] = {}


def _declare_case(name, families, theta, thetabar, base_parity, constants):
    ctx = SymbolContext()
    ghost_parity = EVEN if base_parity == ODD else ODD
    aux_parity = base_parity
    antighost_parity = ghost_parity
    # Declaration order fixes the canonical monomial order: supertime pair,
    # constants, then auxiliaries and antighosts (operator-like symbols)
    # before the fields and ghosts they act on.
    ctx.declare(theta, ODD, constant=True)
    ctx.declare(thetabar, ODD, constant=True)
    for c in constants:
        ctx.declare(c, EVEN, constant=True)
    for f in families:
        ctx.declare(f.aux, aux_parity)
    for f in families:
        ctx.declare(f.antighost, antighost_parity)
    for f in families:
        ctx.declare(f.base, base_parity)
    for f in families:
        ctx.declare(f.ghost, ghost_parity)
    case = DequantizationCase(
        name, ctx, tuple(families), theta, thetabar, base_parity, tuple(constants)
    )
    _REGISTRY[name] = case
    return case


def get_case(case) -> DequantizationCase:
    """Resolve a case name (or pass a DequantizationCase through)."""
    if isinstance(case, DequantizationCase):
        return case
    if not _REGISTRY:
        _declare_case(
            "bosonic",
            (
                FieldFamily("q", "c_q", "lam_q", "cbar_q"),
                FieldFamily("p", "c_p", "lam_p", "cbar_p"),
            ),
            "theta",
            "thetabar",
            EVEN,
            ("alpha", "hbar"),
        )
        _declare_case(
            "grassmann",
            (
                FieldFamily("xi", "c_xi", "lam_xi", "cbar_xi"),
                FieldFamily("xibar", "c_xibar", "lam_xibar", "cbar_xibar"),
            ),
            "theta",
            "thetabar",
            ODD,
            ("w", "hbar"),
        )
        _declare_case(
            "coadjoint",
            (
                FieldFamily("phi", "c_phi", "Lam_phi", "cbar_phi"),
                FieldFamily("eta", "c_eta", "Lam_eta", "cbar_eta"),
            ),
            "chi",
            "chibar",
            EVEN,
            ("muB", "gamma", "hbar"),
        )
    try:
        return _REGISTRY[case]
    except KeyError:
        raise UnsupportedCaseError(
            f"unknown case {case!r}; expected one of {CASES}"
        ) from None


@dataclass(frozen=True)
class Superfield:
    """Expansion of one field in the odd partners of time.

    ``polynomial = body + θ·theta_component + θ̄·thetabar_component
    + θ̄θ·top_component``; the case-specific signs and factors of i live in
    the components.
    """

    base: str
    body: GradedPolynomial
    theta_component: GradedPolynomial
    thetabar_component: GradedPolynomial
    top_component: GradedPolynomial
    polynomial: GradedPolynomial


def _superfield(case, base, th_comp, thb_comp, top_comp) -> Superfield:
    ctx = case.context
    th = ctx.sym(case.theta)
    thb = ctx.sym(case.thetabar)
    body = ctx.sym(base)
    base_parity = int(ctx.is_odd[ctx.slot(base)])
    for comp, flip in ((body, 0), (th_comp, 1), (thb_comp, 1), (top_comp, 0)):
        p = comp.parity()
        if p is not None and p != (base_parity + flip) % 2:
            raise ValueError(f"superfield component of {base!r} has wrong parity")
    poly = body + th * th_comp + thb * thb_comp + (thb * th) * top_comp
    return Superfield(base, body, th_comp, thb_comp, top_comp, poly)


_SUPERFIELDS: dict[str, list[Superfield]] = {}


def standard_superfields(case) -> list[Superfield]:
    """The case's superfield multiplets, one per phase-space direction.

    Bosonic/coadjoint pattern (even base fields):
        Q  = q  + θ c^q  + θ̄ c̄_p − ... with the conjugate direction's
        auxiliary and antighost entering with the symplectic sign.
    Grassmann pattern (odd base fields):
        Ξ  = ξ  + θ c^ξ  − i θ̄ c̄_ξ̄ − θ̄θ λ_ξ̄, and likewise for Ξ̄.
    """
    case = get_case(case)
    cached = _SUPERFIELDS.get(case.name)
    if cached is not None:
        return cached
    ctx = case.context
    i = ctx.imaginary()
    first, second = case.families
    if case.base_parity == EVEN:
        fields = [
            _superfield(
                case,
                first.base,
                ctx.sym(first.ghost),
                ctx.sym(second.antighost),
                i * ctx.sym(second.aux),
            ),
            _superfield(
                case,
                second.base,
                ctx.sym(second.ghost),
                -ctx.sym(first.antighost),
                -i * ctx.sym(first.aux),
            ),
        ]
    else:
        fields = [
            _superfield(
                case,
                first.base,
                ctx.sym(first.ghost),
                -i * ctx.sym(second.antighost),
                -ctx.sym(second.aux),
            ),
            _superfield(
                case,
                second.base,
                ctx.sym(second.ghost),
                -i * ctx.sym(first.antighost),
                -ctx.sym(first.aux),
            ),
        ]
    _SUPERFIELDS[case.name] = fields
    return fields


def superfield_bindings(case) -> dict:
    """Substitution map sending each base field (and its dot) into superspace."""
    case = get_case(case)
    out = {}
    for family, sf in zip(case.families, standard_superfields(case)):
        out[(family.base, 0)] = sf.polynomial
        out[(family.base, 1)] = formal_time_derivative(sf.polynomial)
    return out


def compose_observable(h: GradedPolynomial, bindings: Mapping) -> GradedPolynomial:
    """Replace fields by superfields in an observable (substitution route).

    ``bindings`` maps symbol names to Superfields or polynomials.
    """
    flat = {}
    for key, value in bindings.items():
        flat[key] = value.polynomial if isinstance(value, Superfield) else value
    return substitute(h, flat)


def compose_observable_taylor(h: GradedPolynomial, bindings: Mapping) -> GradedPolynomial:
    """Same map through the second-order Taylor expansion.

    H(φ+Δ) = H + Δ^a ∂_a H + ½ Δ^b Δ^a ∂_a ∂_b H with left derivatives; the
    series stops there because every Δ carries θ or θ̄ and θ²=θ̄²=0 makes
    triple products vanish.  Agrees with the substitution route for
    polynomial observables.
    """
    ctx = h.context
    deltas = {}
    for key, value in bindings.items():
        name, dot = (key, 0) if isinstance(key, str) else key
        poly = value.polynomial if isinstance(value, Superfield) else value
        deltas[(name, dot)] = poly - ctx.sym(name, dot)
    out = h
    for (a, da_dot), da in deltas.items():
        out = out + da * partial_derivative(h, a, da_dot)
    half = CRational(1) / CRational(2)
    for (a, da_dot), da in deltas.items():
        for (b, db_dot), db in deltas.items():
            second = partial_derivative(partial_derivative(h, b, db_dot), a, da_dot)
            out = out + half * (db * (da * second))
    return out


def supertime_integral(
    g: GradedPolynomial,
    theta: str | None = None,
    thetabar: str | None = None,
    hbar: bool = False,
) -> GradedPolynomial:
    """i·∫dθdθ̄ g, the supertime part of the dequantization rule.

    The rightmost measure integrates first, so this is i·∂_θ ∂_θ̄ g.  With
    ``hbar=True`` the result carries the even constant symbol ``hbar``.
    """
    ctx = g.context
    if theta is None or thetabar is None:
        if ctx.declared("chi"):
            theta, thetabar = "chi", "chibar"
        else:
            theta, thetabar = "theta", "thetabar"
    out = ctx.imaginary() * partial_derivative(partial_derivative(g, thetabar), theta)
    if hbar:
        out = ctx.sym("hbar") * out
    return out


class DequantizationResult(NamedTuple):
    cpi_lagrangian: GradedPolynomial
    surface_term: GradedPolynomial


def dequantize(l: GradedPolynomial, case) -> DequantizationResult:
    """Map a Lagrangian through the superfield substitution and split it.

    Returns ``(cpi_lagrangian, surface_term)`` with
    ``cpi_lagrangian + surface_term`` exactly equal to
    ``i∫dθdθ̄ L(superfields)``.  The surface term is recognized as a linear
    combination of d/dt of bilinears containing an auxiliary or antighost
    symbol; dotted auxiliaries/antighosts cannot appear in a CPI Lagrangian,
    which makes the split unique.  A remainder that cannot be absorbed that
    way raises :class:`IdentityViolationError`.
    """
    case = get_case(case)
    raw = supertime_integral(
        substitute(l, superfield_bindings(case)), case.theta, case.thetabar
    )
    surface = _recognize_surface(raw, case)
    return DequantizationResult(raw - surface, surface)


def _recognize_surface(raw: GradedPolynomial, case: DequantizationCase) -> GradedPolynomial:
    ctx = case.context
    absorbable = {ctx.slot(n)[0] for f in case.families for n in (f.aux, f.antighost)}

    def first_forbidden(mono):
        for idx, ((base, dot), _exp) in enumerate(mono):
            if dot >= 1 and base in absorbable:
                return idx
        return None

    betas: dict = {}
    for mono in sorted(raw.terms):
        idx = first_forbidden(mono)
        if idx is None:
            continue
        coeff = raw.terms[mono]
        (base, dot), exp = mono[idx]
        # Undotting keeps the factor in place, so the merge adds no sign.
        undotted = (((base, dot - 1), exp),) + mono[idx + 1 :]
        sign, key = _graded.merge(mono[:idx], undotted, ctx.is_odd)
        if not sign:
            continue  # strip collides with an odd factor; leave for the residual check
        bilinear = GradedPolynomial(ctx, {key: 1})
        in_derivative = formal_time_derivative(bilinear).terms.get(mono)
        if not in_derivative:
            continue
        beta = coeff / in_derivative
        if key in betas:
            if betas[key] != beta:
                raise IdentityViolationError(
                    "surface-term recognition is inconsistent",
                    payload={"monomial": format_poly(bilinear), "raw": format_poly(raw)},
                )
        else:
            betas[key] = beta
    surface = ctx.zero()
    for key, beta in betas.items():
        surface = surface + beta * formal_time_derivative(GradedPolynomial(ctx, {key: 1}))
    remainder = raw - surface
    leftovers = [m for m in remainder.terms if first_forbidden(m) is not None]
    if leftovers:
        bad = GradedPolynomial(ctx, {m: remainder.terms[m] for m in leftovers})
        raise IdentityViolationError(
            "dequantization result is not a CPI Lagrangian plus a total derivative",
            payload={"residual": format_poly(bad), "raw": format_poly(raw)},
        )
    return surface


# -- builtin Lagrangians and Hamiltonians -----------------------------------------


def builtin_hamiltonians(case) -> dict[str, str]:
    """Expression text for the stock Hamiltonians of each case."""
    case = get_case(case)
    if case.name == "bosonic":
        return {
            "free": "p^2/2",
            "harmonic": "p^2/2 + q^2/2",
            "quartic": "p^2/2 + q^4/4",
            "bilinear": "alpha*q*p",
        }
    if case.name == "grassmann":
        return {"spin": "-(w/2)*(1 - 2*xi*xibar)"}
    return {"spin": "-muB*eta"}


def builtin_hamiltonian(case, name: str) -> GradedPolynomial:
    case = get_case(case)
    table = builtin_hamiltonians(case)
    if name not in table:
        raise UnsupportedCaseError(
            f"no builtin Hamiltonian {name!r} for case {case.name!r}"
        )
    return case.context.parse(table[name])


def quantum_lagrangian(case, hamiltonian: GradedPolynomial, gamma: bool = False) -> GradedPolynomial:
    """The first-order quantum Lagrangian whose dequantization we test.

    bosonic:   L = p·q̇ − H
    grassmann: L = i ξ̄ ξ̇ − H
    coadjoint: L = (γ+η)·φ̇ + μB·η  (γ term included when ``gamma`` is set;
               the stock Hamiltonian is H = −μB·η)
    """
    case = get_case(case)
    ctx = case.context
    if case.name == "bosonic":
        return ctx.parse("p*dot(q)") - hamiltonian
    if case.name == "grassmann":
        return ctx.parse("i*xibar*dot(xi)") - hamiltonian
    kinetic = ctx.parse("(gamma + eta)*dot(phi)" if gamma else "eta*dot(phi)")
    return kinetic - hamiltonian
