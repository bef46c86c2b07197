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
or float coefficients.  Its
auxiliary and antighost symbols act as derivatives:

    even base fields:  aux → −i ∂_field,  antighost → +∂_ghost
    odd base fields:   aux → +i ∂_field,  antighost → −∂_ghost

and every other symbol multiplies.  A monomial, read left to right in the
context's canonical order, is the composition of its factors, so its
rightmost factor acts first; auxiliaries and antighosts are declared before
the fields and ghosts, so each monomial multiplies first and then
differentiates.  Evolution solves i dψ/dt = H̃ψ.

Operator application is exact (the graded algebra drops no term), and on
an exact wavefunction so is its result.  For the supported Hamiltonians
(base-field degree at most 2) H̃ is a derivation: it annihilates constants
and obeys the graded Leibniz rule.  So its spectrum on the monomials of any
degree is made of sums of the eigenvalues of two 2×2 blocks, H̃ on the
field monomials and H̃ on the ghosts (:meth:`LiouvilleOperator.spectrum_is_real`).

The classical side is one exact linear vector field v = v₀ + M·φ
(:func:`vector_field`), whose 2×2 flow is one closed form in nested tuples.
Each side comes in three forms.  At a Gaussian-rational phase e^{−iνt},
ν² = det M, both are exact: :func:`rotate` evolves by Sylvester's formula
on H̃ and :func:`exact_flow` is the flow.  Where H̃ is nilpotent on ψ, as the
coadjoint H̃ = −μB·Λ_φ = iμB·∂_φ is on every polynomial, both are exact at
any rational t: :func:`evolve_nilpotent` sums the Taylor series of
exp(−itH̃), which ends, and :func:`pull_back` takes the flow with its drift.
At any float t, :func:`flow_matrix` is the flow and :func:`evolve` takes
the matrix exponential of H̃ on the closure of ψ's monomials.  numpy and
scipy load only in that float evolution (``closure_matrix``, ``expm``,
``evolve``).  This module is the engine only: ``suite.check_transport``
compares the two sides, for the CLI, the suite and the benchmark alike.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import UnsupportedCaseError
from .exact import I, crational
from .grassmann import GrassmannOperator
from .superfield import builtin_hamiltonian, get_case
from .symbols import (
    ODD,
    GradedPolynomial,
    SymbolContext,
    bind_constants,
    format_poly,
    lift,
    partial_derivative,
)

DEFAULT_EVEN_TRUNCATION = 4
TOLERANCE = 1e-9  # every transport residual
# Beyond this phase (rad), ω·t for grassmann and |t|·max|M| for bosonic, doubles
# cannot hold the phase e^{−iωt} or meet TOLERANCE.
MAX_PHASE = 1e6
# Largest entry of the bosonic back flow exp(−t·M) that transport accepts, and
# MAX_PHASE bounds |t|·max|M| there too: beyond either, the float exponential
# of the closure matrix misses TOLERANCE at the default truncation.
MAX_STRETCH = 30


# -- symbolic builders -------------------------------------------------------------


def cpi_kinetic(case) -> GradedPolynomial:
    """Σ_a aux_a·(d base_a/dt) + i·Σ_a antighost_a·(d ghost_a/dt)."""
    case = get_case(case)
    ctx = case.context
    out = ctx.zero()
    i = ctx.imaginary()
    for f in case.families:
        out = out + ctx.sym(f.aux) * ctx.sym(f.base, dot=1)
    for f in case.families:
        out = out + i * ctx.sym(f.antighost) * ctx.sym(f.ghost, dot=1)
    return out


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
    exponents of the two base fields stay below max(T − 1, 1).
    """

    case: str
    hamiltonian: GradedPolynomial | None = None
    coefficients: Mapping | None = None
    truncation: int = DEFAULT_EVEN_TRUNCATION

    def __post_init__(self):
        get_case(self.case)
        if self.truncation < 1:
            raise ValueError("truncation must be at least 1")

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


def vector_field(spec: CpiSpec) -> tuple[tuple, tuple]:
    """The classical vector field v(φ) = v₀ + M·φ of the bound Hamiltonian
    on the (first, second) base fields, as nested tuples (v₀, M):

        v^a = ω^{ab} ∂_b H,    v₀^a = v^a(0),    M^a_d = ∂_d v^a,

    ∂_b taken first; for odd fields that order carries the graded sign.
    Entries are exact where H is; M is traceless in every case.  H must be
    at most quadratic in the base fields.
    """
    case = get_case(spec.case)
    h = spec.bound_hamiltonian()
    fields = case.base_names
    grad = [partial_derivative(h, b) for b in fields]
    v = [sum((w * g for w, g in zip(row, grad)), case.context.zero()) for row in case.omega]
    jacobian = [[partial_derivative(va, d) for d in fields] for va in v]
    if not all(x.is_constant() for row in jacobian for x in row):
        raise UnsupportedCaseError(f"transport needs H at most quadratic in {list(fields)}")
    m = tuple(tuple(x.constant_part() for x in row) for row in jacobian)
    return tuple(va.constant_part() for va in v), m


def exact_rate(spec: CpiSpec) -> Fraction:
    """ν ≥ 0 with ν² = det M, exactly: the rate of the flow generator M of
    ``spec`` and the unit of H̃'s spectrum.  M is traceless, so
    M² = −ν²·I.  Raises :class:`UnsupportedCaseError` unless det M is the
    square of a rational."""
    return _rate(vector_field(spec)[1])


def _rate(m) -> Fraction:
    (a, b), (c, d) = m
    det = crational(a * d - b * c)
    nu = None
    if not det.im and det.re >= 0:
        nu = Fraction(math.isqrt(det.re.numerator), math.isqrt(det.re.denominator))
    if nu is None or nu * nu != det.re:
        raise UnsupportedCaseError(
            f"exact transport needs det M to be the square of a rational, got {det}"
        )
    return nu


@dataclass(frozen=True)
class LiouvilleOperator:
    """CPI Hamiltonian as an operator on enlarged-space wavefunctions, the
    polynomials over the case's context in its fields and ghosts."""

    case: str
    operator: GrassmannOperator

    @property
    def context(self) -> SymbolContext:
        return self.operator.context

    def apply(self, psi: GradedPolynomial) -> GradedPolynomial:
        return self.operator.apply(psi)

    def closure_matrix(self, seeds):
        """Basis closure of the seed monomials and the matrix of the operator.

        Column j holds the expansion of the operator applied to basis
        monomial j.
        """
        import numpy as np

        basis = list(dict.fromkeys(seeds))
        index = {m: i for i, m in enumerate(basis)}
        columns = []
        for seed in basis:  # the basis grows while it is walked, up to closure
            image = self.apply(GradedPolynomial(self.context, {seed: 1}))
            col = {}
            for mono, coeff in image.terms.items():
                if mono not in index:
                    index[mono] = len(basis)
                    basis.append(mono)
                col[mono] = complex(coeff)
            columns.append(col)
        matrix = np.zeros((len(basis), len(basis)), dtype=complex)
        for j, col in enumerate(columns):
            for mono, value in col.items():
                matrix[index[mono], j] = value
        return basis, matrix

    def spectrum_is_real(self) -> bool:
        """Whether every eigenvalue of H̃ on the wavefunctions is real, exactly.

        H̃ is a derivation, so on a monomial of fields and ghosts its
        eigenvalues are sums of the eigenvalues of two 2×2 blocks: H̃ on the
        two field monomials and H̃ on the two ghosts, modulo constants.  Each
        eigenvalue alone is in the spectrum, so it is real iff each block has
        a real trace and determinant and tr² − 4·det ≥ 0.
        """
        ctx, case = self.context, get_case(self.case)
        for names in (case.base_names, tuple(f.ghost for f in case.families)):
            monos = [ctx.monomial({name: 1}) for name in names]
            images = [self.apply(ctx.sym(name)).terms for name in names]
            (a, b), (c, d) = ([crational(image.get(m, 0)) for image in images] for m in monos)
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
    vector_field(spec)  # rejects H above quadratic
    aux_factor, antighost_factor = (I, -1) if case.base_parity == ODD else (-I, 1)
    derivatives = {}
    for f in case.families:
        derivatives[f.aux] = (f.base, aux_factor)
        derivatives[f.antighost] = (f.ghost, antighost_factor)
    return LiouvilleOperator(case.name, GrassmannOperator(h_tilde, derivatives))


# -- wavefunctions -----------------------------------------------------------------


def random_wavefunction(spec: CpiSpec, rng: random.Random, coefficient) -> GradedPolynomial:
    """A wavefunction of four random monomials φ₁^a·φ₂^b·c₁^g·c₂^h in the
    even case's fields and ghosts (q, p, c_q, c_p or φ, η, c_φ, c_η), with a
    and b below max(T − 1, 1) for spec's truncation T, each with the
    coefficient ``coefficient(rng)``."""
    case = get_case(spec.case)
    top = max(spec.truncation - 1, 1)
    terms = {}
    for _ in range(4):
        powers = {f.base: rng.randrange(top) for f in case.families}
        powers.update({f.ghost: rng.randrange(2) for f in case.families})
        terms[case.context.monomial(powers)] = coefficient(rng)
    return GradedPolynomial(case.context, terms)


# -- evolution ---------------------------------------------------------------------


def expm(a):
    """Matrix exponential, scipy's; scipy is imported on the first call."""
    from scipy import linalg

    return linalg.expm(a)


def evolve(psi, spec: CpiSpec, t: float, operator: LiouvilleOperator | None = None):
    """Solve i dψ/dt = H̃ψ for the float time t, by ``operator`` or else
    spec's H̃: the matrix exponential on the closure of ψ's monomials."""
    if not isinstance(psi, GradedPolynomial):
        raise UnsupportedCaseError("evolve expects a GradedPolynomial")
    if operator is None:
        operator = build_cpi_hamiltonian(spec)
    if psi.context is not operator.context:
        raise UnsupportedCaseError("wavefunction context does not match the operator's")
    if psi.is_zero():
        return psi
    import numpy as np

    basis, matrix = operator.closure_matrix(sorted(psi.terms))
    vec = np.zeros(len(basis), dtype=complex)
    for i, mono in enumerate(basis):
        c = psi.terms.get(mono)
        if c is not None:
            vec[i] = complex(c)
    out = expm(-1j * t * matrix) @ vec
    terms = {mono: out[i] for i, mono in enumerate(basis) if out[i]}
    return GradedPolynomial(operator.context, terms)


def _times_root(poly: list, root: Fraction) -> list:
    """poly·(x − root), coefficients lowest power first."""
    return [
        (poly[j - 1] if j else 0) - (root * poly[j] if j < len(poly) else 0)
        for j in range(len(poly) + 1)
    ]


@functools.lru_cache(maxsize=64)
def _sylvester(degree: int, nu: Fraction, z) -> tuple[tuple, tuple]:
    """Coefficients, lowest power first, of the polynomial of least degree
    that takes the value z^m at each node ν·m, m = −d, −d+2, …, d (the one
    node 0 when ν = 0), and of the certificate polynomial Π_m (x − ν·m)."""
    ms = range(-degree, degree + 1, 2) if nu else (0,)
    certificate = [1]
    for m in ms:
        certificate = _times_root(certificate, nu * m)
    weights = [0] * len(ms)
    value = Fraction(1)
    for _ in ms[1:]:
        value = value / z  # z^m at the first node
    for m in ms:
        basis, denominator = [1], Fraction(1)
        for n in ms:
            if n != m:
                basis = _times_root(basis, nu * n)
                denominator *= nu * (m - n)
        weights = [w + value / denominator * c for w, c in zip(weights, basis)]
        value = value * z * z
    return tuple(weights), tuple(certificate)


def _combine(coefficients, polys) -> dict:
    """The terms of Σ_j coefficients[j]·polys[j]."""
    out: dict = {}
    for c, poly in zip(coefficients, polys):
        if c:
            for mono, v in poly.terms.items():
                out[mono] = out[mono] + c * v if mono in out else c * v
    return {mono: v for mono, v in out.items() if v}


def rotate(psi, operator: LiouvilleOperator, nu, z) -> GradedPolynomial:
    """exp(−i·t·H̃)ψ for the operator H̃ of a quadratic H, with ν from
    :func:`exact_rate`, at the time t where e^{−iνt} = z; exact when ψ, H̃
    and z are.

    H̃ keeps the total degree d of a monomial in fields and ghosts, and on
    the block ψ_d its eigenvalues are ν·m for m = −d, −d+2, …, d (the one
    eigenvalue 0 when ν = 0).  Sylvester's formula (Higham, *Functions of
    Matrices*, SIAM 2008, §1.2) sends ψ_d to Σ_j w_j·H̃^j ψ_d, where the w_j
    interpolate z^m at the nodes ν·m: d applications of H̃ and no matrix.
    One more application checks the certificate Π_m (H̃ − ν·m) ψ_d = 0
    exactly; where it fails, that spectrum is wrong for ψ_d and
    :class:`UnsupportedCaseError` is raised, never a wrong answer.
    """
    ctx, nu, z = operator.context, Fraction(nu), lift(z)
    blocks: dict = {}
    for mono, coeff in psi.terms.items():
        blocks.setdefault(sum(exp for _slot, exp in mono), {})[mono] = coeff
    out: dict = {}  # the blocks share no monomial
    for degree, terms in sorted(blocks.items()):
        weights, certificate = _sylvester(degree, nu, z)
        powers = [psi._new(terms)]  # H̃^j ψ_d
        while len(powers) < len(certificate):
            powers.append(operator.apply(powers[-1]))
        if _combine(certificate, powers):
            raise UnsupportedCaseError(
                f"H̃ on degree {degree} does not have the spectrum nu*m, |m| <= {degree}, "
                f"for nu = {nu}"
            )
        out.update(_combine(weights, powers))
    return GradedPolynomial._wrap(ctx, out)


def evolve_nilpotent(psi, operator: LiouvilleOperator, t) -> GradedPolynomial:
    """exp(−i·t·H̃)ψ as the Taylor sum Σ_k (−it)^k/k!·H̃^k ψ, which ends; exact
    when ψ, H̃ and t are.

    For an H at most quadratic whose M is nilpotent, such as the coadjoint
    H̃ = −μB·Λ_φ = iμB·∂_φ with M = 0, H̃ is a derivation that lowers a
    weight of at most 2d on the monomials of total degree d in fields and
    ghosts (weight 2 on the fields and ghosts that M moves, 1 on the rest),
    so H̃^{2d+1}ψ = 0 for ψ of degree d.  A sum that has not ended by then
    raises :class:`UnsupportedCaseError`, never a truncated answer.
    """
    degree = max((sum(exp for _slot, exp in mono) for mono in psi.terms), default=0)
    powers = [psi]  # H̃^k ψ
    while not powers[-1].is_zero():
        if len(powers) > 2 * degree + 1:
            raise UnsupportedCaseError(
                f"H̃ is not nilpotent on a wavefunction of degree {degree}: "
                f"H̃^{2 * degree + 1} does not annihilate it"
            )
        powers.append(operator.apply(powers[-1]))
    coefficients, step = [1], -I * t
    for k in range(1, len(powers)):
        coefficients.append(coefficients[-1] * step / k)
    return GradedPolynomial._wrap(operator.context, _combine(coefficients, powers))


def _exp_traceless(m, cosh, k) -> tuple:
    """cosh·I + k·M for a 2×2 M, as a nested tuple.  For a traceless M this
    is exp(t·M) at cosh = cosh(s) and k = t·sinh(s)/s with s² = −t²·det M,
    which is I + t·M at s = 0 (Bernstein & So, IEEE TAC 38, 1993); at
    det M = ν² > 0 the pair is (cos νt, sin(νt)/ν).
    """
    (a, b), (c, d) = m
    return ((cosh + k * a, k * b), (k * c, cosh + k * d))


def exact_flow(spec: CpiSpec, z) -> tuple:
    """Linear classical flow exp(t·M) on (first, second) base fields, for the
    time t at which e^{−iνt} = z with ν = :func:`exact_rate`, as a 2×2 nested
    tuple; exact when z is.

    Since M² = −ν²·I, exp(t·M) = cos(νt)·I + (sin(νt)/ν)·M, with
    cos(νt) = (z + 1/z)/2 and sin(νt) = i·(z − 1/z)/2.  At ν = 0 the phase
    fixes no time, so only M = 0, whose flow is I, is accepted.
    """
    m = vector_field(spec)[1]
    nu, z = _rate(m), lift(z)
    if nu:
        inverse = 1 / z
        return _exp_traceless(m, (z + inverse) / 2, I * (z - inverse) / (2 * nu))
    if any(x for row in m for x in row):
        raise UnsupportedCaseError("a nilpotent M needs a time, which the phase at nu = 0 lacks")
    return _exp_traceless(m, 1, 0)


def pull_back(psi, spec: CpiSpec, flow, drift=(0, 0)) -> GradedPolynomial:
    """ψ with the case's (first, second) base fields replaced by the affine
    map flow·φ + ``drift`` and its ghosts by flow·c, for a 2×2 ``flow``:
    ψ∘flow(−t) when flow·φ + drift is the classical flow of φ over −t, as
    ``flow_matrix(spec, −t)`` is with no drift for a homogeneous H."""
    case = get_case(spec.case)
    ctx = case.context
    fields = [ctx.monomial({f.base: 1}) for f in case.families]
    ghosts = [ctx.monomial({f.ghost: 1}) for f in case.families]
    bindings = {}
    for row, shift, f in zip(flow, drift, case.families):
        bindings[f.base] = GradedPolynomial(ctx, {(): shift, **dict(zip(fields, row))})
        bindings[f.ghost] = GradedPolynomial(ctx, dict(zip(ghosts, row)))
    return psi.substitute(bindings)


def flow_matrix(spec: CpiSpec, t: float) -> tuple:
    """Linear classical flow exp(t·M) on (first, second) base fields, as a
    2×2 nested tuple of ``complex`` in closed form; past the float range
    ``cmath.cosh`` raises ``OverflowError``.

    Requires a homogeneous quadratic Hamiltonian so that fields and ghosts
    share one linear flow.
    """
    v0, m = vector_field(spec)
    if any(v0):
        raise UnsupportedCaseError("linear flow needs a homogeneous quadratic Hamiltonian")
    (a, b), (c, d) = m
    s = t * cmath.sqrt(-complex(a * d - b * c))
    cosh, sinhc = (cmath.cosh(s), cmath.sinh(s) / s) if s else (1 + 0j, 1 + 0j)
    return _exp_traceless(m, cosh, sinhc * t)


def characteristics_check(spec: CpiSpec, t: float = 0.7, seed: int = 0) -> dict:
    """The rows of ``suite.check_transport`` at the float time t, as dicts:
    {"checks": [CheckResult.to_dict(), ...], "passed": bool}, the view that
    the benchmark reads."""
    from . import suite  # suite imports this module

    rows = suite.check_transport(spec, float(t), seed)
    return {"checks": [row.to_dict() for row in rows], "passed": all(row.passed for row in rows)}
