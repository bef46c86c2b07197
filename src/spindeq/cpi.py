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

Every case has this operator; the compact-angle case (coadjoint) evolves
Fourier modes e^{ikφ} instead of polynomials.  Its H̃ = −μB·Λ_φ is first
order, so each mode picks up the phase exp(i·k·μB·t): transport along the
classical precession flow.

The classical side is one exact linear vector field v = v₀ + M·φ
(:func:`vector_field`), whose 2×2 flow is one closed form in nested tuples.
Each side comes in two forms.  At a Gaussian-rational phase e^{−iνt},
ν² = det M, both are exact: :func:`rotate` evolves by Sylvester's formula
on H̃ and :func:`exact_flow` is the flow.  At any float t, :func:`flow_matrix`
is the flow and :func:`evolve` takes the matrix exponential of H̃ on the
closure of ψ's monomials.  numpy and scipy load only in that float
evolution (``closure_matrix``, ``expm``, ``evolve``).  This module is the
engine only: ``suite.check_transport`` compares the two sides, for the CLI,
the suite and the benchmark alike.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import index as _as_int_index
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
# Beyond this phase (rad), μB·t for coadjoint and ω·t for grassmann, doubles
# cannot resolve a packet center to TOLERANCE or hold the phase e^{−iωt} at all.
MAX_PHASE = 1e6
# Largest entry of the bosonic back flow exp(−t·M) that transport accepts, and
# MAX_PHASE bounds |t|·max|M| there too: beyond either, the float exponential
# of the closure matrix misses TOLERANCE at the default truncation.
MAX_STRETCH = 30
PACKET_MODES = 48  # the coadjoint test packet has the modes |k| <= PACKET_MODES


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
    random bosonic wavefunctions that transport draws: their exponents of q
    and of p stay below max(T − 1, 1).
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


def mode_rate(operator: LiouvilleOperator) -> float:
    """μB of the coadjoint CPI Hamiltonian H̃ = −μB·Λ_φ, minus its Λ_φ
    coefficient; any other H̃ is unsupported."""
    case = get_case(operator.case)
    aux = case.families[0].aux
    h_tilde = operator.operator.symbol
    mu_b = -h_tilde.coefficient({aux: 1})
    if h_tilde != -mu_b * case.context.sym(aux):
        raise UnsupportedCaseError("coadjoint transport needs H = -muB*eta + constant")
    rate = complex(mu_b)
    if rate.imag:
        raise UnsupportedCaseError(f"transport needs a real rate, got {rate}")
    return rate.real


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


class FourierWavefunction:
    """Wavefunction on the enlarged coadjoint space.

    Terms are keyed (k, eta_exp, c_phi_exp, c_eta_exp) and stand for
    e^{ikφ}·η^a·(c^φ)^g·(c^η)^h with a complex coefficient.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping):
        clean = {}
        for key, coeff in terms.items():
            k, eta_e, cphi_e, ceta_e = key
            try:
                k = _as_int_index(k)
            except TypeError:
                raise ValueError(f"bad Fourier term key {key!r}") from None
            if eta_e < 0 or cphi_e not in (0, 1) or ceta_e not in (0, 1):
                raise ValueError(f"bad Fourier term key {key!r}")
            value = complex(coeff)
            if value:
                clean[(k, eta_e, cphi_e, ceta_e)] = value
        self.terms = clean

    @classmethod
    def wrapped_gaussian(cls, center: float):
        """Periodic Gaussian packet of width σ = 0.35:
        c_k = e^{−σ²k²/2} e^{−ik·center} / 2π for |k| ≤ ``PACKET_MODES``."""
        sigma = 0.35
        terms = {}
        for k in range(-PACKET_MODES, PACKET_MODES + 1):
            terms[(k, 0, 0, 0)] = (
                cmath.exp(-0.5 * sigma * sigma * k * k) * cmath.exp(-1j * k * center) / (2 * cmath.pi)
            )
        return cls(terms)

    def tensor_factor(self, eta_exp=0, c_phi_exp=0, c_eta_exp=0):
        """Same mode content attached to a fixed η/ghost monomial."""
        return FourierWavefunction(
            {
                (k, eta_exp, c_phi_exp, c_eta_exp): c
                for (k, _e, _g, _h), c in self.terms.items()
            }
        )

    def coefficient(self, key) -> complex:
        return self.terms.get(tuple(key), 0j)

    def circular_center(self) -> float:
        """Angle estimate from the k = −1 mode (the circular first moment)."""
        c = self.coefficient((-1, 0, 0, 0))
        if not c:
            raise ValueError("no k=-1 mode; circular center undefined")
        return cmath.phase(c)

    def norm_sq(self) -> float:
        return sum(abs(c) ** 2 for c in self.terms.values())

    def max_difference(self, other) -> float:
        keys = set(self.terms) | set(other.terms)
        if not keys:
            return 0.0
        return max(abs(self.terms.get(k, 0j) - other.terms.get(k, 0j)) for k in keys)

    def __eq__(self, other):
        if not isinstance(other, FourierWavefunction):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return f"FourierWavefunction({len(self.terms)} modes)"


def random_wavefunction(spec: CpiSpec, rng: random.Random, coefficient) -> GradedPolynomial:
    """A bosonic wavefunction of four random monomials q^a·p^b·c_q^g·c_p^h,
    with a and b below max(T − 1, 1) for spec's truncation T, each with the
    coefficient ``coefficient(rng)``."""
    ctx = get_case(spec.case).context
    top = max(spec.truncation - 1, 1)
    terms = {}
    for _ in range(4):
        powers = {
            "q": rng.randrange(top),
            "p": rng.randrange(top),
            "c_q": rng.randrange(2),
            "c_p": rng.randrange(2),
        }
        terms[ctx.monomial(powers)] = coefficient(rng)
    return GradedPolynomial(ctx, terms)


# -- evolution ---------------------------------------------------------------------


def expm(a):
    """Matrix exponential, scipy's; scipy is imported on the first call."""
    from scipy import linalg

    return linalg.expm(a)


def evolve(psi, spec: CpiSpec, t: float, operator: LiouvilleOperator | None = None):
    """Solve i dψ/dt = H̃ψ for time t, by ``operator`` or else spec's H̃.

    Coadjoint: each Fourier mode k gains the exact phase e^{i·k·μB·t}, with
    μB read off H̃ = −μB·Λ_φ.  Polynomial cases: matrix exponential on the
    closure of ψ's monomials.
    """
    case = get_case(spec.case)
    if case.name == "coadjoint":
        if not isinstance(psi, FourierWavefunction):
            raise UnsupportedCaseError("coadjoint evolve expects a FourierWavefunction")
        mu_b = mode_rate(operator or build_cpi_hamiltonian(spec))
        return FourierWavefunction(
            {key: c * cmath.exp(1j * key[0] * mu_b * t) for key, c in psi.terms.items()}
        )
    if not isinstance(psi, GradedPolynomial):
        raise UnsupportedCaseError("polynomial evolve expects a GradedPolynomial")
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


def pull_back(psi, spec: CpiSpec, flow) -> GradedPolynomial:
    """ψ with the case's (first, second) base fields and its ghosts each
    replaced by the 2×2 linear ``flow`` applied to them: ψ∘flow(−t) for
    ``flow_matrix(spec, −t)``.  The flow has no drift, so a wavefunction in
    the fields needs a homogeneous H."""
    case = get_case(spec.case)
    ctx = case.context
    fields = [ctx.sym(f.base) for f in case.families]
    ghosts = [ctx.sym(f.ghost) for f in case.families]
    bindings = {}
    for row, f in zip(flow, case.families):
        bindings[f.base] = sum((x * g for x, g in zip(row, fields)), ctx.zero())
        bindings[f.ghost] = sum((x * g for x, g in zip(row, ghosts)), ctx.zero())
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
