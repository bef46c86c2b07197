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

The classical side is one exact linear vector field, whose 2×2 flow is a
closed-form exponential in nested tuples.  numpy and scipy load only where
polynomial wavefunctions evolve (``closure_matrix``, ``expm``, ``evolve``).
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
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
    partial_derivative,
)

DEFAULT_EVEN_TRUNCATION = 4
TOLERANCE = 1e-9  # every transport residual
MAX_PHASE = 1e6  # beyond this μB·t (rad), doubles cannot resolve a packet center to TOLERANCE
# Largest entry of the bosonic back flow exp(−t·M) that transport accepts, and
# MAX_PHASE bounds |t|·max|M| there too: beyond either, the float exponential
# of the closure matrix misses TOLERANCE at the default truncation.
MAX_STRETCH = 30
PACKET_MODES = 48  # the coadjoint test packet has the modes |k| <= PACKET_MODES
_SAMPLES = 5  # random packet centers (coadjoint) or wavefunctions (bosonic) per check


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


def _vector_field(spec: CpiSpec) -> tuple[tuple, tuple]:
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


def _real(rate) -> float:
    rate = complex(rate)
    if rate.imag:
        raise UnsupportedCaseError(f"transport needs a real rate, got {rate}")
    return rate.real


def _mode_rate(operator: LiouvilleOperator) -> float:
    """μB of the coadjoint CPI Hamiltonian H̃ = −μB·Λ_φ, minus its Λ_φ
    coefficient; any other H̃ is unsupported."""
    case = get_case(operator.case)
    aux = case.families[0].aux
    h_tilde = operator.operator.symbol
    mu_b = -h_tilde.coefficient({aux: 1})
    if h_tilde != -mu_b * case.context.sym(aux):
        raise UnsupportedCaseError("coadjoint transport needs H = -muB*eta + constant")
    return _real(mu_b)


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

    def eigenvalue_on(self, powers) -> complex | None:
        """Eigenvalue on the monomial with the exponents ``powers`` maps
        field and ghost names to, or None if it is not an eigenvector."""
        mono = self.context.monomial(powers)
        image = self.apply(GradedPolynomial(self.context, {mono: 1})).terms
        if image.keys() - {mono}:
            return None
        return complex(image.get(mono, 0))

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
    _vector_field(spec)  # rejects H above quadratic
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
        mu_b = _mode_rate(operator or build_cpi_hamiltonian(spec))
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


def _exp_traceless(m, t: float) -> tuple:
    """exp(t·M) = cosh(s)·I + (sinh(s)/s)·t·M for a traceless 2×2 M, with
    s² = −t²·det M, and I + t·M at s = 0 (Bernstein & So, IEEE TAC 38,
    1993), as a nested tuple of ``complex``.  Past the float range
    ``cmath.cosh`` raises ``OverflowError``.
    """
    (a, b), (c, d) = m
    s = t * cmath.sqrt(-complex(a * d - b * c))
    cosh, sinhc = (cmath.cosh(s), cmath.sinh(s) / s) if s else (1 + 0j, 1 + 0j)
    k = sinhc * t
    return ((cosh + k * a, k * b), (k * c, cosh + k * d))


def jacobi_fields(spec: CpiSpec, c0, t: float) -> tuple:
    """Ghost transport along the classical flow, exp(t·M)·c₀ with the
    graded Hessian M^a_d = ω^{ab} ∂_d ∂_b H of every case.

    grassmann: (e^{iωt}c₀, e^{−iωt}c₁) with ω the bilinear coefficient; for
    the coadjoint H = −μB·η the Hessian is 0, so the ghosts stay constant.
    """
    c0 = tuple(complex(v) for v in c0)
    if len(c0) != 2:
        raise ValueError("expected one ghost component per phase-space direction")
    (a, b), (c, d) = _exp_traceless(_vector_field(spec)[1], t)
    return (a * c0[0] + b * c0[1], c * c0[0] + d * c0[1])


def flow_matrix(spec: CpiSpec, t: float) -> tuple:
    """Linear classical flow exp(t·M) on (first, second) base fields, as a
    2×2 nested tuple of ``complex`` in closed form.

    Requires a homogeneous quadratic Hamiltonian so that fields and ghosts
    share one linear flow.
    """
    v0, m = _vector_field(spec)
    if any(v0):
        raise UnsupportedCaseError("linear flow needs a homogeneous quadratic Hamiltonian")
    return _exp_traceless(m, t)


def characteristics_check(spec: CpiSpec, t: float = 0.7, seed: int = 0) -> dict:
    """Compare operator evolution against transport along classical paths.

    The operator side evolves by H̃; the classical side takes its rates from
    the vector field v of H.  Returns {"checks": [{name, expected, actual,
    residual, passed}, ...], "passed": bool}.  Residual tolerance:
    ``TOLERANCE``.  H̃ is built once and serves every evolution.
    """
    rng = random.Random(seed)
    case = get_case(spec.case)
    operator = build_cpi_hamiltonian(spec)
    v0, m = _vector_field(spec)
    checks = []

    def add(name, expected, actual, residual):
        checks.append(
            {
                "name": name,
                "expected": expected,
                "actual": actual,
                "residual": float(residual),
                "passed": bool(residual <= TOLERANCE),
            }
        )

    if case.name == "coadjoint":
        _mode_rate(operator)  # rejects any H̃ but −μB·Λ_φ, before the μB checks
        mu_b = -_real(v0[0])  # v₀^φ = ∂_η H = −μB
        if not mu_b:
            raise UnsupportedCaseError("coadjoint transport needs muB != 0 for its period check")
        period = 2 * math.pi / mu_b
        if not (abs(mu_b * t) <= MAX_PHASE and math.isfinite(period)):
            raise UnsupportedCaseError(
                f"coadjoint transport needs |muB*t| <= {MAX_PHASE:g} and a finite period "
                f"2*pi/muB (flags --muB, --t); got muB = {mu_b:g}, t = {t:g}"
            )
        for n in range(_SAMPLES):
            center = rng.uniform(0, 2 * math.pi)
            packet = FourierWavefunction.wrapped_gaussian(center)
            moved = evolve(packet, spec, t, operator)
            expected = (center - mu_b * t) % (2 * math.pi)
            actual = moved.circular_center() % (2 * math.pi)
            residual = abs((actual - expected + math.pi) % (2 * math.pi) - math.pi)
            add(f"packet-center-{n}", expected, actual, residual)
        packet = FourierWavefunction.wrapped_gaussian(1.0)
        with_eta = packet.tensor_factor(eta_exp=2)
        moved = evolve(with_eta, spec, t, operator)
        residual = max(
            abs(
                moved.coefficient((k, 2, 0, 0))
                - packet.coefficient((k, 0, 0, 0)) * cmath.exp(1j * k * mu_b * t)
            )
            for k in range(-PACKET_MODES, PACKET_MODES + 1)
        )
        add("eta-marginal-invariant", 0.0, residual, residual)
        back = evolve(packet, spec, period, operator)
        add("period-identity", 0.0, packet.max_difference(back), packet.max_difference(back))
        ghosts = jacobi_fields(spec, (0.3 + 0.1j, -0.2j), t)
        residual = max(abs(ghosts[0] - (0.3 + 0.1j)), abs(ghosts[1] - (-0.2j)))
        add("ghosts-constant", 0.0, residual, residual)
        add(
            "norm-preserved",
            packet.norm_sq(),
            moved.norm_sq(),
            abs(packet.norm_sq() - evolve(packet, spec, t, operator).norm_sq()),
        )
        return {"checks": checks, "passed": all(c["passed"] for c in checks)}

    ctx = case.context
    if case.name == "grassmann":
        names = ("xi", "xibar", "c_xi", "c_xibar")
        w = _real(-1j * m[0][0])  # M^ξ_ξ = iω
        for a in (0, 1):
            for b in (0, 1):
                for j in (0, 1, 2):
                    for k in (0, 1):
                        exps = (a, b, j, k)
                        value = operator.eigenvalue_on(dict(zip(names, exps)))
                        expected = w * (a - b + j - k)
                        if value is None:
                            add(f"eigen-{exps}", expected, None, float("inf"))
                            continue
                        residual = abs(value - expected)
                        add(f"eigen-{exps}", expected, value.real, residual)
        xi_cxi = {"xi": 1, "c_xi": 1}
        moved = evolve(GradedPolynomial(ctx, {ctx.monomial(xi_cxi): 1.0}), spec, t, operator)
        expected_phase = cmath.exp(-1j * w * 2 * t)
        actual = complex(moved.coefficient(xi_cxi))
        add("phase-xi-cxi", expected_phase, actual, abs(actual - expected_phase))
        one = ctx.const(1.0)
        add(
            "constant-annihilated",
            0.0,
            0.0,
            0.0 if operator.apply(one).is_zero() else 1.0,
        )
        return {"checks": checks, "passed": all(c["passed"] for c in checks)}

    # bosonic: operator evolution against substitution along the linear flow
    phase = abs(t) * max(abs(complex(x)) for row in m for x in row)
    try:
        flow_back = flow_matrix(spec, -t)
        stretch = max(abs(x) for row in flow_back for x in row)
    except (OverflowError, ValueError):  # cosh(s) past the float range, or s itself
        stretch = math.inf
    if not (phase <= MAX_PHASE and stretch <= MAX_STRETCH):
        raise UnsupportedCaseError(
            f"bosonic transport needs |t|*max|M| <= {MAX_PHASE:g} and max|exp(-t*M)| <= "
            f"{MAX_STRETCH:g} for M = omega*Hess H (flag --t); got t = {t:g}, "
            f"|t|*max|M| = {phase:.3g}, max|exp(-t*M)| = {stretch:.3g}"
        )
    q, p, c_q, c_p = (ctx.sym(name) for name in ("q", "p", "c_q", "c_p"))
    bindings = {}
    for (x, y), field, ghost in zip(flow_back, ("q", "p"), ("c_q", "c_p")):
        bindings[field], bindings[ghost] = x * q + y * p, x * c_q + y * c_p
    for n in range(_SAMPLES):
        terms = {}
        for _ in range(4):
            a = rng.randrange(max(spec.truncation - 1, 1))
            b = rng.randrange(max(spec.truncation - 1, 1))
            g = rng.randrange(0, 2)
            h_ = rng.randrange(0, 2)
            mono = ctx.monomial({"q": a, "p": b, "c_q": g, "c_p": h_})
            terms[mono] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        psi = GradedPolynomial(ctx, terms)
        gap = evolve(psi, spec, t, operator) - psi.substitute(bindings)
        residual = max((abs(complex(c)) for c in gap.terms.values()), default=0.0)
        add(f"transport-{n}", 0.0, residual, residual)
    return {"checks": checks, "passed": all(c["passed"] for c in checks)}
