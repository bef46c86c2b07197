"""Superfields and the dequantization transform.

Each of the three cases (bosonic, grassmann, coadjoint) packages a phase
space direction into a multiplet: the base field, its ghost, and the
auxiliary/antighost pair of the conjugate direction, expanded in the two odd
partners of time.  The cases differ only by their entry in one table of
:class:`DequantizationCase`: symbols, odd time pair, symplectic form ω,
kinetic term and stock Hamiltonians.  The superfield of a base field φ^a is
one graded formula,

    Φ^a = φ^a + θ c^a + θ̄ ω^{ab} c̄_b + (−1)^{|φ|} i θ̄θ ω^{ab} λ_b,

with |φ| = 1 for odd base fields.  Replacing fields by superfields and
integrating over the odd time partners maps a quantum Lagrangian to the
classical-path-integral Lagrangian up to total time derivatives;
``dequantize`` performs the map and splits off the total-derivative part
exactly.  It never builds L(Φ): every Φ − φ carries θ or θ̄, so the θθ̄
component is read off the second-order Taylor expansion in Φ − φ
(:func:`top_component`), with the supertime parts built once per case.
``substitute`` followed by :func:`supertime_integral` stays the
independent route that ``suite.check_dequantization`` compares with.

Supertime measure convention: ``supertime_integral(thetabar*theta * X) =
i*X`` (the rightmost measure acts first, as in :mod:`spindeq.grassmann`).
This is the sign under which the free-particle identity check passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple

from . import _graded
from .errors import IdentityViolationError, TableMismatchError, UnsupportedCaseError
from .exact import CRational, I
from .symbols import (
    EVEN,
    ODD,
    GradedPolynomial,
    SymbolContext,
    format_poly,
    formal_time_derivative,
    partial_derivative,
)

OMEGA_CANONICAL = ((0, 1), (-1, 0))
_ONE = CRational(1)


@dataclass(frozen=True)
class FieldFamily:
    """One phase-space direction and its enlarged-space partners."""

    base: str
    ghost: str
    aux: str
    antighost: str


@dataclass(frozen=True)
class DequantizationCase:
    """Everything that differs between cases, one entry of the case table.

    ``families`` names the symbols of each phase-space direction,
    ``(theta, thetabar)`` is the odd time pair, and ``omega`` the symplectic
    form ω^{ab} on the base fields.  ``kinetic`` is the first-order kinetic
    term of the quantum Lagrangian and ``shift`` the optional one-form shift
    added to it; ``hamiltonians`` lists the stock Hamiltonians as
    ``(name, text)`` pairs, the case's default first.  The context, the
    superfields with their bindings, the parsed kinetic term, shift and
    stock Hamiltonians, and the CPI kinetic term are derived from these once.
    """

    name: str
    families: tuple[FieldFamily, ...]
    theta: str
    thetabar: str
    base_parity: str
    constants: tuple[str, ...]
    omega: tuple
    kinetic: str
    hamiltonians: tuple[tuple[str, str], ...]
    shift: str | None = None

    @property
    def base_names(self) -> tuple[str, ...]:
        return tuple(f.base for f in self.families)

    @cached_property
    def context(self) -> SymbolContext:
        """The case's symbols.  Declaration order fixes the canonical
        monomial order: supertime pair, constants, then auxiliaries and
        antighosts (operator-like symbols) before the fields and ghosts they
        act on."""
        fams = self.families
        ghost = EVEN if self.base_parity == ODD else ODD
        return SymbolContext(
            [(self.theta, ODD, True), (self.thetabar, ODD, True)]
            + [(c, EVEN, True) for c in self.constants]
            + [(f.aux, self.base_parity) for f in fams]
            + [(f.antighost, ghost) for f in fams]
            + [(f.base, self.base_parity) for f in fams]
            + [(f.ghost, ghost) for f in fams]
        )

    @cached_property
    def superfields(self) -> tuple[GradedPolynomial, ...]:
        """One superfield polynomial per base field, built once:

            Φ^a = φ^a + θ c^a + θ̄ ω^{ab} c̄_b + (−1)^{|φ|} i θ̄θ ω^{ab} λ_b.

        Bosonic: Q = q + θc^q + θ̄c̄_p + iθ̄θλ_p.  Grassmann, with
        ω = ((0, −i), (−i, 0)): Ξ = ξ + θc^ξ − iθ̄c̄_ξ̄ − θ̄θλ_ξ̄.
        """
        ctx, fams = self.context, self.families
        th, thb = ctx.sym(self.theta), ctx.sym(self.thetabar)
        top = ctx.imaginary() * (-1 if self.base_parity == ODD else 1)
        out = []
        for fa, row in zip(fams, self.omega):
            body, ghost = ctx.sym(fa.base), ctx.sym(fa.ghost)
            antighost = sum((w * ctx.sym(fb.antighost) for w, fb in zip(row, fams)), ctx.zero())
            aux = top * sum((w * ctx.sym(fb.aux) for w, fb in zip(row, fams)), ctx.zero())
            out.append(body + th * ghost + thb * antighost + (thb * th) * aux)
        return tuple(out)

    @cached_property
    def bindings(self) -> dict:
        """Each base field and its dot mapped to its superfield, built once;
        :func:`superfield_bindings` hands out copies."""
        out = {}
        for family, sf in zip(self.families, self.superfields):
            out[(family.base, 0)] = sf
            out[(family.base, 1)] = formal_time_derivative(sf)
        return out

    @cached_property
    def top_parts(self) -> tuple:
        """The supertime parts of the second-order Taylor rule, built once.

        With Δ_a = Φ_a − φ_a for each bound slot a (each base field and its
        dot) and T = :func:`supertime_integral`, one entry per bound slot b:
        ``(b, T(Δ_b), ((a, part), ...))`` as term maps, with a running over
        b and the slots listed after it, each unordered pair once.  Since
        ∂_b∂_a L = s·∂_a∂_b L, with s = −1 when both slots are odd, the pair's
        part is T(½Δ_bΔ_a) + s·T(½Δ_aΔ_b) (T(½Δ_bΔ_b) when a = b), listed
        only where nonzero.  Each part has one or two monomials, each with a
        unit coefficient, ±1 or ±i.
        """
        ctx = self.context
        odd = ctx.is_odd
        deltas = [(ctx.slot(key), sf - ctx.sym(*key)) for key, sf in self.bindings.items()]
        half = CRational(1) / CRational(2)

        def top(g):
            return supertime_integral(g, self.theta, self.thetabar)

        def pair(b, db, a, da):
            part = top(half * (db * da))
            if a != b:
                swapped = top(half * (da * db))
                part = part - swapped if odd[a] and odd[b] else part + swapped
            return part.terms

        return tuple(
            (b, top(db).terms, tuple((a, p) for a, da in deltas[k:] if (p := pair(b, db, a, da))))
            for k, (b, db) in enumerate(deltas)
        )

    @cached_property
    def kinetic_term(self) -> GradedPolynomial:
        return self.context.parse(self.kinetic)

    @cached_property
    def cpi_kinetic_term(self) -> GradedPolynomial:
        """The CPI kinetic term Σ_a aux_a·(d base_a/dt) + i·Σ_a
        antighost_a·(d ghost_a/dt), built once."""
        ctx = self.context
        out, i = ctx.zero(), ctx.imaginary()
        for f in self.families:
            out = out + ctx.sym(f.aux) * ctx.sym(f.base, dot=1)
        for f in self.families:
            out = out + i * ctx.sym(f.antighost) * ctx.sym(f.ghost, dot=1)
        return out

    @cached_property
    def shift_term(self) -> GradedPolynomial | None:
        return None if self.shift is None else self.context.parse(self.shift)

    @cached_property
    def stock_hamiltonians(self) -> dict[str, GradedPolynomial]:
        """The stock Hamiltonians parsed once, by name."""
        return {name: self.context.parse(text) for name, text in self.hamiltonians}


def _families(bases, aux="lam"):
    return tuple(FieldFamily(b, f"c_{b}", f"{aux}_{b}", f"cbar_{b}") for b in bases)


_TABLE = {
    case.name: case
    for case in (
        DequantizationCase(
            "bosonic", _families(("q", "p")), "theta", "thetabar", EVEN, ("alpha", "hbar"),
            OMEGA_CANONICAL, "p*dot(q)",
            (("harmonic", "p^2/2 + q^2/2"), ("free", "p^2/2"), ("quartic", "p^2/2 + q^4/4"),
             ("bilinear", "alpha*q*p")),
        ),
        DequantizationCase(
            "grassmann", _families(("xi", "xibar")), "theta", "thetabar", ODD, ("w", "hbar"),
            ((0, -I), (-I, 0)), "i*xibar*dot(xi)", (("spin", "-(w/2)*(1 - 2*xi*xibar)"),),
        ),
        DequantizationCase(
            "coadjoint", _families(("phi", "eta"), aux="Lam"), "chi", "chibar", EVEN,
            ("muB", "gamma", "hbar"), OMEGA_CANONICAL, "eta*dot(phi)", (("spin", "-muB*eta"),),
            shift="gamma*dot(phi)",
        ),
    )
}

CASES = tuple(_TABLE)


def get_case(case) -> DequantizationCase:
    """Resolve a case name (or pass a DequantizationCase through)."""
    if isinstance(case, DequantizationCase):
        return case
    try:
        return _TABLE[case]
    except KeyError:
        raise UnsupportedCaseError(
            f"unknown case {case!r}; expected one of {CASES}"
        ) from None


def superfield_bindings(case) -> dict:
    """Substitution map sending each base field (and its dot) into superspace."""
    return dict(get_case(case).bindings)


def compose_observable_taylor(h: GradedPolynomial, bindings: Mapping) -> GradedPolynomial:
    """Replace fields by superfields in an observable through the
    second-order Taylor expansion, the reference for ``substitute``.

    H(φ+Δ) = H + Δ^a ∂_a H + ½ Δ^b Δ^a ∂_a ∂_b H with left derivatives; the
    series stops there because every Δ carries θ or θ̄ and θ²=θ̄²=0 makes
    triple products vanish.  Agrees with the substitution route for
    polynomial observables.
    """
    ctx = h.context
    deltas = {}
    for key, value in bindings.items():
        name, dot = (key, 0) if isinstance(key, str) else key
        deltas[(name, dot)] = value - ctx.sym(name, dot)
    out = h
    for (a, da_dot), da in deltas.items():
        out = out + da * partial_derivative(h, a, da_dot)
    half = CRational(1) / CRational(2)
    for (a, da_dot), da in deltas.items():
        for (b, db_dot), db in deltas.items():
            second = partial_derivative(partial_derivative(h, b, db_dot), a, da_dot)
            out = out + half * (db * (da * second))
    return out


def supertime_integral(g: GradedPolynomial, theta: str, thetabar: str) -> GradedPolynomial:
    """i·∫dθdθ̄ g over the odd time pair ``(theta, thetabar)``, the supertime
    part of the dequantization rule.

    The rightmost measure integrates first, so this is i·∂_θ ∂_θ̄ g.
    """
    return g.context.imaginary() * partial_derivative(partial_derivative(g, thetabar), theta)


class DequantizationResult(NamedTuple):
    cpi_lagrangian: GradedPolynomial
    surface_term: GradedPolynomial


def top_component(l: GradedPolynomial, case) -> GradedPolynomial:
    """i∫dθdθ̄ L(superfields), read off the second-order Taylor expansion of
    :func:`compose_observable_taylor` without building L(Φ).

    Every Δ_a = Φ_a − φ_a carries θ or θ̄, and T(Y·X) = T(Y)·X for X free of
    θ and θ̄, with T = :func:`supertime_integral`.  So for L free of them

        i∫dθdθ̄ L(Φ) = Σ_a T(Δ_a)·∂_a L + Σ_{a,b} T(½Δ_bΔ_a)·∂_a∂_b L,

    with left derivatives, ∂_b taken first, and the parts T(·) from
    :attr:`DequantizationCase.top_parts`, which sum the pairs (a, b) and
    (b, a) into one: one derivative pass per bound slot that L uses and per
    nonzero unordered pair of such slots, and one kernel product per nonzero
    derivative, added into one term map.  A slot that L lacks has a zero
    derivative, so it takes no pass.  Every coefficient of every part is a
    unit, ±1 or ±i, which the kernel's product applies as a sign or a
    quarter turn (:func:`~spindeq.exact.turn`), with no gcd.  A Lagrangian that mentions θ or θ̄,
    at any dot order, or a base field at dot order 2 or more, which no
    superfield binding covers, raises :class:`UnsupportedCaseError` before
    any work.
    """
    case = get_case(case)
    ctx = case.context
    if l.context is not ctx:
        raise TableMismatchError(f"the Lagrangian is not over the {case.name} case's symbols")
    slots = {slot for mono in l.terms for slot, _ in mono}
    used = {ctx.key(slot) for slot in slots}
    if any(name in (case.theta, case.thetabar) for name, _dot in used):
        raise UnsupportedCaseError(
            f"dequantization needs a Lagrangian free of the supertime pair "
            f"({case.theta}, {case.thetabar}) at every dot order; --lagrangian and "
            f"--hamiltonian may not use them"
        )
    if deep := sorted({name for name, dot in used if dot > 1 and name in case.base_names}):
        raise UnsupportedCaseError(
            f"dequantization binds the base fields at dot orders 0 and 1 only; --lagrangian "
            f"and --hamiltonian may not use a higher time derivative of {deep}"
        )
    odd = ctx.is_odd
    out: dict = {}
    for b, first, pairs in case.top_parts:
        if b not in slots:
            continue
        d_b = _graded.left_derivative(l.terms, b, odd)
        if first:
            _graded.add_product(out, first, d_b, odd)
        for a, part in pairs:
            if a in slots and (d_ab := _graded.left_derivative(d_b, a, odd)):
                _graded.add_product(out, part, d_ab, odd)
    return GradedPolynomial._wrap(ctx, {mono: c for mono, c in out.items() if c})


def dequantize(l: GradedPolynomial, case) -> DequantizationResult:
    """Map a Lagrangian through the superfield substitution and split it.

    Returns ``(cpi_lagrangian, surface_term)`` with
    ``cpi_lagrangian + surface_term`` exactly equal to
    ``i∫dθdθ̄ L(superfields)``, computed by :func:`top_component`.  That
    route never builds L(Φ) with ``substitute``, so
    ``suite.check_dequantization``, which does, checks the split by an
    independent route.  The surface term is recognized as a linear
    combination of d/dt of bilinears containing an auxiliary or antighost
    symbol; dotted auxiliaries/antighosts cannot appear in a CPI Lagrangian,
    which makes the split unique.  A remainder that cannot be absorbed that
    way raises :class:`IdentityViolationError`.
    """
    case = get_case(case)
    return _recognize_surface(top_component(l, case), case)


def _recognize_surface(raw: GradedPolynomial, case: DequantizationCase) -> DequantizationResult:
    """Split ``raw`` into ``(raw − surface, surface)``.  A forbidden
    monomial holds a dotted auxiliary or antighost; one scan over the
    factors of ``raw`` finds each, with the place of its first such factor.
    Each, in sorted order, names a bilinear by undotting that factor; the
    first that appears in its bilinear's time derivative fixes the
    bilinear's β, and the others are skipped, as are those whose undotting
    collides with an odd factor.  Every rejection is the leftover scan's:
    only a forbidden monomial of ``raw`` or a monomial of the surface can be
    forbidden in ``raw − surface``, so it looks at those alone."""
    ctx = case.context
    absorbable = {ctx.slot(n)[0] for f in case.families for n in (f.aux, f.antighost)}
    forbidden = []
    for mono in raw.terms:
        idx = 0
        for (base, dot), _exp in mono:
            if dot and base in absorbable:
                forbidden.append((mono, idx))
                break
            idx += 1
    forbidden.sort()
    found: dict = {}  # bilinear monomial -> (β, its time derivative)
    for mono, idx in forbidden:
        (base, dot), exp = mono[idx]
        # Undotting keeps the factor in place, so the merge adds no sign.
        undotted = (((base, dot - 1), exp),) + mono[idx + 1 :]
        sign, key = _graded.merge(mono[:idx], undotted, ctx.is_odd)
        if not sign or key in found:
            continue
        # The merge leaves the key in normal form, so the bilinear needs no check.
        derivative = formal_time_derivative(GradedPolynomial._wrap(ctx, {key: _ONE})).terms
        if in_derivative := derivative.get(mono):
            found[key] = (raw.terms[mono] / in_derivative, derivative)
    sums: dict = {}
    for beta, derivative in found.values():
        _graded.add_into(sums, derivative, beta)
    surface = raw._new(sums)
    remainder = raw - surface
    left = remainder.terms
    leftovers = {m for m, _ in forbidden if m in left}
    leftovers.update(
        m for m in surface.terms
        if m in left and any(dot and base in absorbable for (base, dot), _ in m)
    )
    if leftovers:
        bad = GradedPolynomial(ctx, {m: left[m] for m in leftovers})
        raise IdentityViolationError(
            "dequantization result is not a CPI Lagrangian plus a total derivative",
            payload={"residual": format_poly(bad), "raw": format_poly(raw)},
        )
    return DequantizationResult(remainder, surface)


# -- builtin Lagrangians and Hamiltonians -----------------------------------------


def builtin_hamiltonians(case) -> dict[str, str]:
    """Expression text for the stock Hamiltonians of each case."""
    return dict(get_case(case).hamiltonians)


def builtin_hamiltonian(case, name: str | None = None) -> GradedPolynomial:
    """A stock Hamiltonian by name; without a name, the case's default (the
    first entry of its table)."""
    case = get_case(case)
    if name is None:
        name = case.hamiltonians[0][0]
    try:
        return case.stock_hamiltonians[name]
    except KeyError:
        raise UnsupportedCaseError(
            f"no builtin Hamiltonian {name!r} for case {case.name!r}; "
            f"expected one of {tuple(builtin_hamiltonians(case))}"
        ) from None


def quantum_lagrangian(case, hamiltonian: GradedPolynomial, gamma: bool = False) -> GradedPolynomial:
    """The first-order quantum Lagrangian whose dequantization we test: the
    case's kinetic term minus H, plus its one-form shift when ``gamma`` is
    set.

    bosonic:   L = p·q̇ − H
    grassmann: L = i ξ̄ ξ̇ − H
    coadjoint: L = (γ+η)·φ̇ − H  (γ term with ``gamma``; the stock
               Hamiltonian is H = −μB·η)
    """
    case = get_case(case)
    kinetic = case.kinetic_term
    if gamma:
        if case.shift_term is None:
            raise UnsupportedCaseError(f"case {case.name!r} has no one-form shift")
        kinetic = kinetic + case.shift_term
    return kinetic - hamiltonian
