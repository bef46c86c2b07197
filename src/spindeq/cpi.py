"""Classical-path-integral (CPI) engine for the three cases.

Symbolic side: builders for the CPI kinetic term, the CPI Hamiltonian
generated by a phase-space Hamiltonian H, and their difference (the CPI
Lagrangian).  These are what ``superfield.dequantize`` must reproduce.  The
CPI Hamiltonian of every case is one formula over the case's symplectic
form ω,

    H̃ = λ_a ω^{ab} ∂_b H + i c̄_a ω^{ad} (∂_b ∂_d H) c^b,

with left derivatives, ∂_d taken first; for odd base fields that order
carries the graded sign.

Operator side: H̃ itself is the operator on wavefunctions over the enlarged
space (fields and ghosts), polynomials over the case's context with exact
coefficients.  Its auxiliary and antighost symbols act as derivatives:

    even base fields:  aux → −i ∂_field,  antighost → +∂_ghost
    odd base fields:   aux → +i ∂_field,  antighost → −∂_ghost

and every other symbol multiplies.  A monomial, read left to right in the
context's canonical order, is the composition of its factors, so its
rightmost factor acts first; auxiliaries and antighosts are declared before
the fields and ghosts, so each monomial multiplies first and then
differentiates.  Evolution solves i dψ/dt = H̃ψ.

Operator application is exact: the graded algebra drops no term, and
every coefficient is a Gaussian rational.  For the supported Hamiltonians
(base-field degree at most 2) H̃ is a derivation: it annihilates constants
and obeys the graded Leibniz rule.  So its spectrum on the monomials of any
degree is made of sums of the eigenvalues of two 2×2 blocks, H̃ on the
field monomials and H̃ on the ghosts (:meth:`LiouvilleOperator.spectrum_is_real`).

The classical side is one exact linear vector field v = v₀ + M·φ
(``CpiSpec.vector_field``), with D = det M rational for every parsed H.  Both
sides are exact on one clock, the Cayley clock r of a time τ: r =
tan(ντ/2)/ν for D = ν², tanh(κτ/2)/κ for D = −κ² and τ/2 for D = 0, so that

    exp(τ·M) = ((1 − D·r²)·I + 2r·M) / (1 + D·r²)

with no square root (the Cayley map; Hairer, Lubich & Wanner, *Geometric
Numerical Integration*, 2nd ed., 2006).  :func:`expm` is that 2×2 flow,
:func:`evolve` is exp(−iτH̃)ψ, exact at any rational r for every quadratic
H, and :func:`cayley_clock` turns a float time into the exact binary value
of r, the one place that bounds a time.  No module of the package loads
numpy or scipy.  This module is the engine only, and both sides of
transport read a spec and r alone: :func:`evolve`, by H̃ as
``CpiSpec.operator`` builds it once per spec, and :func:`pull_back`,
ψ∘flow(−τ) with the ghosts as Jacobi fields, by the flow that
``CpiSpec.flow`` builds once per spec and clock.  ``suite.check_transport``
compares the two, for the CLI, the suite and the benchmark alike.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from . import _graded
from .errors import UnsupportedCaseError
from .exact import I, crational
from .grassmann import GrassmannOperator
from .superfield import builtin_hamiltonian, get_case
from .symbols import (
    ODD,
    GradedPolynomial,
    bind_constants,
    format_poly,
    partial_derivative,
)

DEFAULT_EVEN_TRUNCATION = 4
# Beyond this phase |ν·t| (rad) of a float time t, doubles hold no phase e^{−iνt}.
MAX_PHASE = 1e6
# Past this |det M|², the rate |ν| = |det M|^{1/2} is beyond the float range.
_MAX_NORM = Fraction(sys.float_info.max) ** 4


# -- symbolic builders -------------------------------------------------------------


def cpi_kinetic(case) -> GradedPolynomial:
    """Σ_a aux_a·(d base_a/dt) + i·Σ_a antighost_a·(d ghost_a/dt), which the
    case keeps (``DequantizationCase.cpi_kinetic_term``)."""
    return get_case(case).cpi_kinetic_term


def cpi_hamiltonian(case, hamiltonian: GradedPolynomial) -> GradedPolynomial:
    """CPI Hamiltonian generated by a phase-space Hamiltonian H, with ω the
    case's symplectic form:

        H̃ = Σ_ab aux_a ω^{ab} ∂_b H + i Σ_abd antighost_a ω^{ad} (∂_b ∂_d H) ghost_b

    Derivatives are left derivatives and ∂_b ∂_d H differentiates by d
    first; that order carries the graded sign for odd base fields.  H must
    be even and use only base fields and even constants, undotted; anything
    else raises :class:`UnsupportedCaseError`.
    """
    case = get_case(case)
    ctx = case.context
    allowed = {(name, 0) for name in case.base_names + case.constants}
    odd_part = hamiltonian.parity() != 0 and not hamiltonian.is_zero()
    if odd_part or hamiltonian.symbols_used() - allowed:
        raise UnsupportedCaseError(
            f"the CPI Hamiltonian needs an even H in {list(case.base_names)} and the "
            f"constants; got {format_poly(hamiltonian)}"
        )
    fams = case.families
    i = ctx.imaginary()
    out = ctx.zero()
    for fa, row in zip(fams, case.omega):
        for w, fd in zip(row, fams):
            if not w:
                continue
            grad = partial_derivative(hamiltonian, fd.base)
            out = out + w * (ctx.sym(fa.aux) * grad)
            for fb in fams:
                hess = partial_derivative(grad, fb.base)
                if not hess.is_zero():
                    out = out + w * (i * ctx.sym(fa.antighost) * hess * ctx.sym(fb.ghost))
    return out


def cpi_lagrangian(case, hamiltonian: GradedPolynomial) -> GradedPolynomial:
    return cpi_kinetic(case) - cpi_hamiltonian(case, hamiltonian)


# -- numeric engine ----------------------------------------------------------------


@dataclass(frozen=True)
class CpiSpec:
    """What to evolve: a case, its Hamiltonian, and numeric constants.

    ``hamiltonian`` is a polynomial over the case's base fields, possibly
    with constant symbols; ``coefficients`` binds those to numbers, and the
    bound Hamiltonian is the one source of every rate that transport uses.
    Without ``hamiltonian`` a case takes its default stock one: the harmonic
    oscillator, −(w/2)(1 − 2ξξ̄), or −μB·η.  ``truncation`` T bounds the
    random bosonic and coadjoint wavefunctions that transport draws: their
    exponents of the two base fields stay below max(T − 1, 1); it must be an
    int, not a bool.  A spec keeps what transport derives from it: H̃
    (``operator``), the classical field (``vector_field``) and the flow of
    each exact clock that :func:`pull_back` meets (:meth:`flow`).
    """

    case: str
    hamiltonian: GradedPolynomial | None = None
    coefficients: Mapping | None = None
    truncation: int = DEFAULT_EVEN_TRUNCATION
    _flows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        get_case(self.case)
        t = self.truncation
        if isinstance(t, bool) or not isinstance(t, int) or t < 1:
            raise ValueError(f"truncation must be an integer of at least 1, got {t!r}")

    def bound_hamiltonian(self) -> GradedPolynomial:
        case = get_case(self.case)
        h = self.hamiltonian if self.hamiltonian is not None else builtin_hamiltonian(case)
        values = {k: crational(v) for k, v in (self.coefficients or {}).items()}
        h = bind_constants(h, values)
        leftover = [
            name for (name, _dot) in h.symbols_used() if case.context.decl(name).constant
        ]
        if leftover:
            raise UnsupportedCaseError(
                f"unbound constants {sorted(leftover)}; supply them in coefficients"
            )
        return h

    @functools.cached_property
    def vector_field(self) -> tuple[tuple, tuple]:
        """The classical vector field v(φ) = v₀ + M·φ of the bound Hamiltonian
        on the (first, second) base fields, as nested tuples (v₀, M), read
        once per spec:

            v^a = ω^{ab} ∂_b H,    v₀^a = v^a(0),    M^a_d = ∂_d v^a,

        ∂_b taken first; for odd fields that order carries the graded sign.
        Entries are exact where H is; M is traceless in every case.  H must
        be at most quadratic in the base fields.
        """
        case = get_case(self.case)
        h = self.bound_hamiltonian()
        fields = case.base_names
        grad = [partial_derivative(h, b) for b in fields]
        v = [sum((w * g for w, g in zip(row, grad)), case.context.zero()) for row in case.omega]
        jacobian = [[partial_derivative(va, d) for d in fields] for va in v]
        if not all(x.is_constant() for row in jacobian for x in row):
            raise UnsupportedCaseError(f"transport needs H at most quadratic in {list(fields)}")
        m = tuple(tuple(x.constant_part() for x in row) for row in jacobian)
        return tuple(va.constant_part() for va in v), m

    @functools.cached_property
    def operator(self) -> LiouvilleOperator:
        """H̃ of this spec, by :func:`build_cpi_hamiltonian`, built once per spec."""
        return build_cpi_hamiltonian(self)

    def flow(self, r) -> dict:
        """The bindings by which :func:`pull_back` moves a wavefunction at the
        exact Cayley clock r, built the first time this spec meets r."""
        r = crational(r)
        bindings = self._flows.get(r)
        if bindings is None:
            bindings = self._flows[r] = _flow_bindings(self, r)
        return bindings


class LiouvilleOperator(GrassmannOperator):
    """CPI Hamiltonian of a case as an operator on enlarged-space
    wavefunctions, the polynomials over the case's context in its fields and
    ghosts: H̃'s :class:`GrassmannOperator`."""

    __slots__ = ("case",)

    def __init__(self, case: str, symbol: GradedPolynomial, derivatives: Mapping[str, tuple]):
        super().__init__(symbol, derivatives)
        self.case = case

    def closure_matrix(self, seeds) -> tuple[tuple, tuple]:
        """The basis closure of the seed monomials, seeds first, and the
        exact matrix of the operator on it, as nested tuples: entry [i][j]
        is the coefficient of basis monomial i in the image of monomial j."""
        basis = list(dict.fromkeys(seeds))
        known, images = set(basis), []
        for seed in basis:  # the basis grows while it is walked, up to closure
            image = self.apply(GradedPolynomial(self.context, {seed: 1})).terms
            basis += [mono for mono in image if mono not in known]
            known.update(image)
            images.append(image)
        return tuple(basis), tuple(
            tuple(crational(image.get(mono, 0)) for image in images) for mono in basis
        )

    def spectrum_is_real(self) -> bool:
        """Whether every eigenvalue of H̃ on the wavefunctions is real, exactly.

        H̃ is a derivation, so on a monomial of fields and ghosts its
        eigenvalues are sums of the eigenvalues of two 2×2 blocks of the
        closure matrix: H̃ on the two field monomials and H̃ on the two
        ghosts, modulo constants.  Each eigenvalue alone is in the spectrum,
        so it is real iff each block has a real trace and determinant and
        tr² − 4·det ≥ 0.
        """
        ctx, case = self.context, get_case(self.case)
        for names in (case.base_names, tuple(f.ghost for f in case.families)):
            matrix = self.closure_matrix([ctx.monomial({name: 1}) for name in names])[1]
            (a, b), (c, d) = (row[:2] for row in matrix[:2])
            trace, det = a + d, a * d - b * c
            if trace.im or det.im or (trace * trace - 4 * det).re < 0:
                return False
        return True


def build_cpi_hamiltonian(spec: CpiSpec) -> LiouvilleOperator:
    """Realize the CPI Hamiltonian of ``spec`` as an operator, for every case.

    A Hamiltonian of base-field degree above 2 raises an unsupported-case
    error: its operator raises the degree of every monomial, so no finite
    basis closes under it.
    """
    case = get_case(spec.case)
    h_tilde = cpi_hamiltonian(case, spec.bound_hamiltonian())
    spec.vector_field  # rejects H above quadratic
    aux_factor, antighost_factor = (I, -1) if case.base_parity == ODD else (-I, 1)
    derivatives = {}
    for f in case.families:
        derivatives[f.aux] = (f.base, aux_factor)
        derivatives[f.antighost] = (f.ghost, antighost_factor)
    return LiouvilleOperator(case.name, h_tilde, derivatives)


# -- wavefunctions -----------------------------------------------------------------


def random_wavefunction(spec: CpiSpec, rng: random.Random) -> GradedPolynomial:
    """A wavefunction of four random monomials φ₁^a·φ₂^b·c₁^g·c₂^h in the
    even case's fields and ghosts (q, p, c_q, c_p or φ, η, c_φ, c_η), with a
    and b below max(T − 1, 1) for spec's truncation T, each with a Gaussian
    rational coefficient whose two parts are each n/d, |n| <= 9, 1 <= d <= 9.
    An odd case raises :class:`UnsupportedCaseError`."""
    case = get_case(spec.case)
    if case.base_parity == ODD:
        raise UnsupportedCaseError(
            f"random wavefunctions are drawn for the even cases bosonic and coadjoint, "
            f"not {case.name}")
    top = max(spec.truncation - 1, 1)
    terms = {}
    for _ in range(4):
        powers = {f.base: rng.randrange(top) for f in case.families}
        powers.update({f.ghost: rng.randrange(2) for f in case.families})
        a, p = rng.randint(-9, 9), rng.randint(1, 9)
        b, q = rng.randint(-9, 9), rng.randint(1, 9)
        terms[case.context.monomial(powers)] = (a * q + I * (b * p)) / (p * q)  # a/p + i·b/q
    return GradedPolynomial(case.context, terms)


# -- evolution on the Cayley clock ---------------------------------------------------


def _determinant(m):
    (a, b), (c, d) = m
    return crational(a * d - b * c)


def _cayley(det, r) -> tuple:
    """(cos ντ, sin(ντ)/ν) = ((1 − D·r²)/(1 + D·r²), 2r/(1 + D·r²)) at the
    time τ whose Cayley clock is r, for ν² = D; exact when D and r are."""
    denominator = 1 + det * r * r
    if not denominator:
        raise UnsupportedCaseError(
            f"the Cayley clock r = {r} is the infinite time of det M = {det}: 1 + det*r^2 = 0"
        )
    return (1 - det * r * r) / denominator, 2 * r / denominator


def cayley_clock(spec: CpiSpec, t: float):
    """The Cayley clock r of the float time t for spec's flow generator M,
    D = det M: tan(νt/2)/ν for D = ν², tanh(κt/2)/κ for D = −κ² and t/2 for
    D = 0, in its exact binary value, a ``Fraction`` (a ``CRational`` for a
    complex D).  Transport is then exact at the time τ that r encodes, which
    is t up to rounding.

    Rejects a rate |ν| beyond the float range; |ν·t| > :data:`MAX_PHASE`,
    where doubles hold no phase; and a hyperbolic clock tanh(κt/2) that
    rounds to ±1, or any r with 1 + D·r² <= 0, which is no finite real time.
    """
    det = _determinant(spec.vector_field[1])
    if not det:
        return Fraction(t) / 2
    if det.re ** 2 + det.im ** 2 > _MAX_NORM:
        raise UnsupportedCaseError(
            "transport needs the coefficients of H, and the rates they give, within the float "
            "range (flags --hamiltonian, --omega, --muB)"
        )
    square = det * Fraction(t) ** 2 / 4  # (ν·t/2)², exact
    hyperbolic = not square.im and square.re < 0
    if not hyperbolic and square.re ** 2 + square.im ** 2 > Fraction(MAX_PHASE / 2) ** 4:
        raise UnsupportedCaseError(
            f"transport needs |nu*t| <= {MAX_PHASE:g} for nu^2 = det M, M = omega*Hess H "
            f"(flags --t, --hamiltonian, --omega); got t = {t:g}"
        )
    try:
        half = cmath.sqrt(complex(square))  # |ν·t|/2, or iκ·|t|/2 for D = −κ²
    except OverflowError:  # only a hyperbolic square is unbounded
        half = complex(0, math.inf)
    tanh = math.tanh(half.imag) if hyperbolic else 0
    if not half:
        ratio = 1
    else:  # tan(x)/x and tanh(x)/x are even, so the sign of t is in t/2 alone
        ratio = tanh / half.imag if hyperbolic else cmath.tan(half) / half
    clock = crational(ratio * t / 2)
    infinite = 1 + det * clock * clock
    if abs(tanh) == 1 or (not infinite.im and infinite.re <= 0):
        raise UnsupportedCaseError(
            f"transport needs a hyperbolic clock tanh(kappa*t/2) below 1 for det M = -kappa^2 "
            f"(flag --t); got t = {t:g}"
        )
    return clock if clock.im else clock.re


def expm(m, r) -> tuple:
    """exp(τ·M) for a traceless 2×2 M at the time τ whose Cayley clock is
    r: ((1 − D·r²)·I + 2r·M)/(1 + D·r²) with D = det M, which is I + τ·M at
    D = 0, as a nested tuple; exact when M and r are.  A nonzero trace
    raises ``ValueError``: the formula needs M² = −D·I."""
    if m[0][0] + m[1][1]:
        raise ValueError(f"expm needs a traceless M, got {m}")
    cos, sinc = _cayley(_determinant(m), crational(r))
    return tuple(
        tuple((cos if i == j else 0) + sinc * x for j, x in enumerate(row))
        for i, row in enumerate(m)
    )


def _times_root(poly: list, root) -> list:
    """poly·(x − root), coefficients lowest power first."""
    return [
        (poly[j - 1] if j else 0) - (root * poly[j] if j < len(poly) else 0)
        for j in range(len(poly) + 1)
    ]


def _interpolate(nodes, values) -> list:
    """Coefficients, lowest power first, of the polynomial of least degree
    that takes values[j] at nodes[j] (Lagrange)."""
    out = [0] * len(nodes)
    for j, (node, value) in enumerate(zip(nodes, values)):
        basis, denominator = [1], Fraction(1)
        for k, other in enumerate(nodes):
            if k != j:
                basis = _times_root(basis, other)
                denominator *= node - other
        out = [w + value / denominator * b for w, b in zip(out, basis)]
    return out


@functools.lru_cache(maxsize=64)
def _weights(degree: int, det, r) -> tuple[tuple, tuple]:
    """Coefficients in x, lowest power first, of a polynomial that is
    exp(−iτx) on the spectrum of H̃ on the monomials of total degree d, and
    of a certificate, a polynomial that vanishes there.

    At D = 0 these are the Taylor weights (−iτ)^k/k!, k <= 2d, at τ = 2r,
    and x^{2d+1}: for an H at most quadratic with nilpotent M, such as the
    coadjoint H̃ = −μB·Λ_φ = iμB·∂_φ, each application of H̃ lowers a weight
    that is at most 2d on those monomials, so H̃^{2d+1} annihilates them.

    At D ≠ 0, H̃ keeps d, and H̃² has the eigenvalues D·m², m = d, d−2, … >= 0
    there.  The polynomial is E(x²) + x·O(x²): E interpolates cos(mντ) =
    T_m(c) at y = D·m², and O interpolates −i·sin(mντ)/(mν) =
    −i·σ·U_{m−1}(c)/m at m > 0, with (c, σ) from :func:`_cayley` and T, U
    the Chebyshev polynomials, so every value is rational in r.  The
    certificate is x^{[d even]}·Π_{m>0}(x² − D·m²).
    """
    if not det:
        weights, step = [1], -I * (2 * r)
        for k in range(1, 2 * degree + 1):
            weights.append(weights[-1] * step / k)
        return tuple(weights), (0,) * (2 * degree + 1) + (1,)
    c, sigma = _cayley(det, r)
    cos, sin = [1, c], [0, 1]  # T_m(c) and U_{m−1}(c), m = 0, 1, …
    for _ in range(degree - 1):
        cos.append(2 * c * cos[-1] - cos[-2])
        sin.append(2 * c * sin[-1] - sin[-2])
    ms = range(degree, -1, -2)
    positive = [m for m in ms if m]
    weights = [0] * (degree + 1)
    weights[0::2] = _interpolate([det * m * m for m in ms], [cos[m] for m in ms])
    weights[1::2] = _interpolate(
        [det * m * m for m in positive], [-I * sigma * sin[m] / m for m in positive]
    )
    in_y = [1]
    for m in positive:
        in_y = _times_root(in_y, det * m * m)
    certificate = [0] * (2 * len(in_y) - 1)
    certificate[0::2] = in_y
    return tuple(weights), tuple(certificate if degree % 2 else [0, *certificate])


def _combine(out: dict, coefficients, polys) -> dict:
    """Add Σ_j coefficients[j]·polys[j] into the term map ``out``."""
    for c, poly in zip(coefficients, polys):
        if c:
            _graded.add_into(out, poly.terms, c)
    return out


def evolve(psi, spec: CpiSpec, r) -> GradedPolynomial:
    """exp(−iτH̃)ψ at the time τ whose Cayley clock is r, by spec's H̃;
    exact when ψ, H̃ and r are.

    Each block ψ_d of total degree d in fields and ghosts goes to p(H̃)ψ_d
    with the weights p of :func:`_weights`, cached per (d, D, r) for
    D = det M; at D = 0 all of ψ is one block at its top degree, whose
    Taylor weights extend those of every lower degree.  H̃ is applied until
    the certificate's degree is reached or a power vanishes, and no matrix
    is built.  The certificate is then checked exactly; where it fails, H̃
    is not nilpotent on ψ_d (D = 0) or does not have the spectrum ν·m,
    |m| <= d (D = ν²), and :class:`UnsupportedCaseError` is raised, never a wrong answer.
    """
    operator = spec.operator
    if psi.context is not operator.context:
        raise UnsupportedCaseError("wavefunction context does not match the operator's")
    det, r = _determinant(spec.vector_field[1]), crational(r)
    blocks: dict = {}
    for mono, coeff in psi.terms.items():
        blocks.setdefault(sum(exp for _slot, exp in mono), {})[mono] = coeff
    if not det and blocks:
        blocks = {max(blocks): psi.terms}
    out: dict = {}
    for degree, terms in sorted(blocks.items()):
        weights, certificate = _weights(degree, det, r)
        powers = [psi._new(terms)]  # H̃^j ψ_d
        while len(powers) < len(certificate) and powers[-1].terms:
            powers.append(operator.apply(powers[-1]))
        if _combine({}, certificate, powers):
            claim = (f"does not have the spectrum nu*m, |m| <= {degree}, for nu^2 = det M = {det}"
                     if det else f"is not nilpotent: H̃^{2 * degree + 1} does not annihilate it")
            raise UnsupportedCaseError(f"H̃ on degree {degree} {claim}")
        _combine(out, weights, powers)
    return GradedPolynomial._wrap(operator.context, out)


def pull_back(psi, spec: CpiSpec, r) -> GradedPolynomial:
    """ψ∘flow(−τ) at the time τ whose Cayley clock is r: the case's (first,
    second) base fields and its ghosts, as Jacobi fields, move by
    exp(−τM) = ``expm(M, −r)``, and a drift v₀ ≠ 0, which needs det M = 0,
    moves the fields by −τ·v₀ + (τ²/2)·M·v₀ as well, τ = 2r.  The bindings
    are ``spec.flow(r)``, built once per spec and clock."""
    return psi.substitute(spec.flow(r))


def _flow_bindings(spec: CpiSpec, r) -> dict:
    """The bindings of :func:`pull_back` at the exact clock r: each field and
    ghost to its image under the flow, those it leaves in place left out."""
    v0, m = spec.vector_field
    drift = (0, 0)
    if any(v0):
        if _determinant(m):
            raise UnsupportedCaseError("transport with a linear term in H needs det M = 0 "
                                       "for M = omega*Hess H (flag --hamiltonian)")
        drift = [-2 * r * v + 2 * r * r * (row[0] * v0[0] + row[1] * v0[1])
                 for v, row in zip(v0, m)]
    case = get_case(spec.case)
    ctx = case.context
    fields = [ctx.monomial({f.base: 1}) for f in case.families]
    ghosts = [ctx.monomial({f.ghost: 1}) for f in case.families]
    bindings = {}
    for row, shift, f in zip(expm(m, -r), drift, case.families):
        bindings[f.base] = GradedPolynomial(ctx, {(): shift, **dict(zip(fields, row))})
        bindings[f.ghost] = GradedPolynomial(ctx, dict(zip(ghosts, row)))
    return {name: image for name, image in bindings.items() if image != ctx.sym(name)}


def characteristics_check(spec: CpiSpec, t: float = 0.7, seed: int = 0) -> dict:
    """The rows of ``suite.check_transport`` at the Cayley clock of the
    float time t, as dicts: {"checks": [CheckResult.to_dict(), ...],
    "passed": bool}, the view that the benchmark reads."""
    from . import suite  # suite imports this module

    rows = suite.check_transport(spec, cayley_clock(spec, float(t)), seed)
    return {"checks": [row.to_dict() for row in rows], "passed": all(row.passed for row in rows)}
