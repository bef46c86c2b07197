"""End-to-end identity and oracle checks, shared by the CLI and the tests.

Each ``check_*`` function returns a list of :class:`CheckResult`, the one
result shape from here up to the CLI's JSON report.  Exact symbolic
identities report residual 0 (the integer) only when the two sides are equal
in the exact arithmetic; numeric comparisons report a float residual against
a stated tolerance.  Every group in :data:`ALL_CHECKS` takes ``seed``, and
only ``cpi-transport`` reads it: the spin isomorphism is checked on a
generic state and field, not on samples.

:func:`check_transport` builds every ``cpi-*`` row, for the suite's
``cpi-transport`` group, for ``propagate-classical`` and, through
``cpi.characteristics_check``, for the benchmark, at an exact Cayley clock;
``cpi`` holds only the engine it compares.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import cpi, orbit, quantum, superfield
from .errors import UnsupportedCaseError
from .exact import CRational, I, crational
from .symbols import (
    GradedPolynomial,
    format_poly,
    formal_time_derivative,
    partial_derivative,
    substitute,
)


@dataclass
class CheckResult:
    name: str
    expected: object
    actual: object
    residual: object
    passed: bool
    tolerance: float | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "actual": self.actual,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _exact_check(name, expected_poly, actual_poly) -> CheckResult:
    """An exact identity: it holds only when both sides are exact and equal."""
    exact = expected_poly.is_exact() and actual_poly.is_exact()
    ok = exact and actual_poly == expected_poly
    expected = format_poly(expected_poly)
    return CheckResult(
        name,
        expected,
        expected if ok else format_poly(actual_poly),  # equal sides print alike
        0 if ok else format_poly(actual_poly - expected_poly) if exact else "inexact side",
        ok,
        tolerance=None,
    )


def _first_failing(name, pairs) -> CheckResult:
    """One row for several (expected, actual) identities: the first that
    fails, or the first."""
    return _exact_check(name, *next((pair for pair in pairs if pair[0] != pair[1]), pairs[0]))


def _numeric_check(name, expected, actual, residual, tol) -> CheckResult:
    return CheckResult(name, expected, actual, float(residual), residual <= tol, tol)


# -- dequantization identities -----------------------------------------------------


def _surface_poly(case_name: str):
    """The expected total-derivative part: −d/dt of the conjugate bilinear."""
    case = superfield.get_case(case_name)
    ctx = case.context
    second = case.families[1]
    bilinear = ctx.sym(second.aux) * ctx.sym(second.base) + ctx.imaginary() * ctx.sym(
        second.antighost
    ) * ctx.sym(second.ghost)
    return -formal_time_derivative(bilinear)


def check_dequantization(
    case, lagrangian, cpi_l, surface, hamiltonian=None
) -> list[CheckResult]:
    """Check the split ``(cpi_l, surface)`` of ``lagrangian``.

    The superfield expansion is recomputed here, apart from ``dequantize``,
    and must equal ``cpi_l + surface`` exactly.  Given the Hamiltonian,
    ``cpi_l`` must also equal its CPI Lagrangian.  The inputs must be exact:
    a float term that cancels leaves no coefficient for a row to inspect.
    """
    if not all(p is None or p.is_exact() for p in (lagrangian, cpi_l, surface, hamiltonian)):
        raise ValueError("dequantization is checked exactly; its input must be exact")
    case = superfield.get_case(case)
    raw = superfield.supertime_integral(
        substitute(lagrangian, superfield.superfield_bindings(case)), case.theta, case.thetabar
    )
    out = [_exact_check("decomposition-exact", raw, cpi_l + surface)]
    if hamiltonian is not None:
        out.append(
            _exact_check("matches-cpi-lagrangian", cpi.cpi_lagrangian(case, hamiltonian), cpi_l)
        )
    return out


def check_bosonic_dequantization(seed: int = 0) -> list[CheckResult]:
    out = []
    case = superfield.get_case("bosonic")
    for name in ("free", "harmonic", "quartic", "bilinear"):
        h = superfield.builtin_hamiltonian(case, name)
        l = superfield.quantum_lagrangian(case, h)
        cpi_l, surface = superfield.dequantize(l, case)
        out.append(
            _exact_check(f"bosonic-{name}-cpi", cpi.cpi_lagrangian(case, h), cpi_l)
        )
        out.append(_exact_check(f"bosonic-{name}-surface", _surface_poly("bosonic"), surface))
    return out


def check_grassmann_dequantization(seed: int = 0) -> list[CheckResult]:
    case = superfield.get_case("grassmann")
    h = superfield.builtin_hamiltonian(case, "spin")
    l = superfield.quantum_lagrangian(case, h)
    cpi_l, surface = superfield.dequantize(l, case)
    return [
        _exact_check("grassmann-spin-cpi", cpi.cpi_lagrangian(case, h), cpi_l),
        _exact_check("grassmann-spin-surface", _surface_poly("grassmann"), surface),
    ]


def check_coadjoint_dequantization(seed: int = 0) -> list[CheckResult]:
    case = superfield.get_case("coadjoint")
    ctx = case.context
    h = superfield.builtin_hamiltonian(case, "spin")
    plain = superfield.quantum_lagrangian(case, h)
    cpi_l, surface = superfield.dequantize(plain, case)
    out = [
        _exact_check("coadjoint-cpi", cpi.cpi_lagrangian(case, h), cpi_l),
        _exact_check("coadjoint-surface", _surface_poly("coadjoint"), surface),
    ]
    with_gamma = superfield.quantum_lagrangian(case, h, gamma=True)
    cpi_g, surface_g = superfield.dequantize(with_gamma, case)
    out.append(_exact_check("coadjoint-gamma-cpi", cpi.cpi_lagrangian(case, h), cpi_g))
    extra = -formal_time_derivative(ctx.parse("gamma*Lam_eta"))
    out.append(_exact_check("coadjoint-gamma-extra", extra, surface_g - surface))
    return out


def check_observable_map(seed: int = 0) -> list[CheckResult]:
    """i∫dχdχ̄ H(superfields) reproduces the CPI Hamiltonian for H = −μB·η."""
    case = superfield.get_case("coadjoint")
    ctx = case.context
    h = ctx.parse("-muB*eta")
    bindings = {f.base: sf for f, sf in zip(case.families, case.superfields)}
    lifted = substitute(h, bindings)
    via_integral = superfield.supertime_integral(lifted, case.theta, case.thetabar)
    expected = ctx.parse("-muB*Lam_phi")
    out = [_exact_check("observable-map-liouville", expected, via_integral)]
    taylor = superfield.compose_observable_taylor(h, bindings)
    out.append(_exact_check("observable-map-taylor-route", lifted, taylor))
    return out


# -- spin isomorphism and slicing ---------------------------------------------------


def check_isomorphism(seed: int = 0) -> list[CheckResult]:
    """Matrix and word forms agree exactly on the generic state c0 + c1·ξ:
    Sx, Sy, Sz, N, the Hamiltonian of a generic field, and [S_a, S_b] = i·S_c
    in both forms, whose row reports the first identity that fails."""
    c = quantum.TABLE.sym
    psi = quantum.SpinState(c("c0"), c("c1"))
    mv = psi.as_multivector()

    def forms(op):  # (matrix action, word action) on ψ
        return op.apply_matrix(psi).as_multivector(), op.word.apply(mv)

    def then(a, b):  # b, then a, in matrix form
        return a.apply_matrix(b.apply_matrix(psi)).as_multivector()

    sx, sy, sz, n = quantum.spin_operators()
    rows = {
        f"isomorphism-{label}": [forms(op)]
        for label, op in zip(("Sx", "Sy", "Sz", "N"), (sx, sy, sz, n))
    }
    for a, b, s, label in ((sx, sy, sz, "xy"), (sy, sz, sx, "yz"), (sz, sx, sy, "zx")):
        via_matrix, via_words = forms(s)
        rows[f"su2-commutator-{label}"] = [
            (I * via_matrix, then(a, b) - then(b, a)),
            (I * via_words, a.word.commutator_apply(b.word, mv)),
        ]
    field = quantum.MagneticField(c("bx"), c("by"), c("bz"), mu_b=c("mu_b"))
    rows["isomorphism-hamiltonian-generic-field"] = [forms(quantum.hamiltonian(field))]
    return [_first_failing(name, pairs) for name, pairs in rows.items()]


def check_slicing(seed: int = 0) -> list[CheckResult]:
    out = []
    cases = (
        ("axis-field", quantum.MagneticField(1.0, 0.0, 0.0)),
        ("generic-field", quantum.MagneticField(0.3, -0.4, 0.8)),
    )
    for label, b in cases:
        t = 1.0 / b.norm()  # unit Larmor phase
        errors = dict(quantum.slicing_errors(b, t, (10, 100, 125, 250, 500, 1000)))
        out.append(
            _numeric_check(
                f"slicing-{label}-error-at-1000", 0.0, errors[1000], errors[1000], 1e-2
            )
        )
        for n in (125, 250, 500):
            ratio = errors[n] / errors[2 * n]
            out.append(
                CheckResult(
                    f"slicing-{label}-ratio-{n}",
                    2.0,
                    ratio,
                    abs(ratio - 2.0),
                    1.7 <= ratio <= 2.3,
                    tolerance=0.3,
                )
            )
        mono = [errors[n] for n in (10, 100, 1000)]
        ok = mono[0] > mono[1] > mono[2]
        out.append(
            CheckResult(
                f"slicing-{label}-monotone", "decreasing", mono, 0 if ok else 1, ok
            )
        )
    return out


def check_slice_errors(errors) -> list[CheckResult]:
    """Each ``(n, error)`` of the sliced propagator below 1, and, given two
    or more slice counts, the errors not growing with n."""
    ordered = sorted(errors)
    out = [
        CheckResult(f"slice-error-n={n}", 0.0, err, err, err < 1.0, tolerance=1.0)
        for n, err in ordered
    ]
    if len(ordered) > 1:
        decreasing = all(a >= b for (_, a), (_, b) in zip(ordered, ordered[1:]))
        out.append(
            CheckResult(
                "error-decreases-with-slices",
                "monotone",
                [err for _, err in ordered],
                0 if decreasing else 1,
                decreasing,
            )
        )
    return out


# -- orbit brackets and precession ---------------------------------------------------


def check_dirac_brackets(seed: int = 0) -> list[CheckResult]:
    """The Dirac bracket identities, exact on the sphere: both sides times
    λ·sinθ, in ``orbit.on_sphere`` normal form.  Each row reports the first
    of its identities that fails, or its first."""

    def scaled(f, g):
        return orbit.on_sphere(orbit.scaled_dirac_bracket(f, g))

    lam_sin, x = orbit.SPHERE.parse("lam*sin_theta"), orbit.CARTESIAN
    probes = (orbit.THETA, orbit.PHI, orbit.P_THETA, orbit.P_PHI, *x)
    rows = {
        "dirac-canonical-pair": [(lam_sin, scaled(orbit.PHI, orbit.HEIGHT))],
        "dirac-constraints-vanish": [
            (orbit.SPHERE.zero(), scaled(f, c))
            for f in probes for c in (orbit.CONSTRAINT_1, orbit.CONSTRAINT_2)
        ],
        "dirac-so3-relations": [
            (orbit.on_sphere(lam_sin * x[c].polynomial), scaled(x[a], x[b]))
            for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        ],
    }
    return [_first_failing(name, pairs) for name, pairs in rows.items()]


def check_precession_flow(state, mu_b, b, times) -> list[CheckResult]:
    """Both equations of motion at ``state``, the Dirac brackets {η, H}_D
    and {φ, H}_D against the closed-form flow's rates 0 and
    ``precession_rate``, and height and energy exactly conserved along the
    flow at every one of ``times``."""
    h_fun = orbit.total_hamiltonian(mu_b, b)
    height_rate = orbit.dirac_bracket(orbit.HEIGHT, h_fun, state)
    angle_rate = orbit.dirac_bracket(orbit.PHI, h_fun, state)
    rate = orbit.precession_rate(mu_b, b)
    angle_gap = abs(angle_rate - rate) / max(abs(rate), 1.0)
    out = [
        _numeric_check("precession-height-equation", 0.0, height_rate, abs(height_rate), 0.0),
        _numeric_check("precession-angle-equation", rate, angle_rate, angle_gap, 1e-12),
    ]
    along = [orbit.classical_trajectory(state, mu_b, b, t) for t in times]
    for name, f in (("height", orbit.HEIGHT), ("energy", h_fun)):
        start = f(state)
        worst = max((f(s) for s in along), key=lambda v: abs(v - start))
        out.append(_numeric_check(f"precession-{name}-conserved", start, worst, abs(worst - start), 0.0))
    return out


def check_precession(seed: int = 0) -> list[CheckResult]:
    mu_b, b = 0.9, 1.3
    state = orbit.OrbitState.on_constraint(1.1, 0.3, 1.7)
    period = orbit.precession_period(mu_b, b)
    flow = check_precession_flow(state, mu_b, b, [0.37 * period])
    out = flow[:2]  # the equations of motion; conservation follows the period
    moved = orbit.classical_trajectory(state, mu_b, b, period)
    angle_gap = abs((moved.phi - state.phi + math.pi) % (2 * math.pi) - math.pi)
    out.append(_numeric_check("precession-period-identity", state.phi, moved.phi, angle_gap, 1e-12))
    out += flow[2:]
    composed = orbit.classical_trajectory(
        orbit.classical_trajectory(state, mu_b, b, 0.4), mu_b, b, 0.6
    )
    direct = orbit.classical_trajectory(state, mu_b, b, 1.0)
    gap = abs((composed.phi - direct.phi + math.pi) % (2 * math.pi) - math.pi)
    out.append(_numeric_check("precession-flow-composition", direct.phi, composed.phi, gap, 1e-12))
    return out


# -- CPI transport -------------------------------------------------------------------

GRASSMANN_OMEGA = Fraction(13, 10)
COADJOINT_MU_B = Fraction(4, 5)
SAMPLES = 5  # random wavefunctions per coadjoint or bosonic transport check
# The grassmann monomials ξ^a·ξ̄^b·c_ξ^j·c_ξ̄^k that transport checks as
# eigenvectors of H̃, with eigenvalue ω·(a − b + j − k): their exponents
# (a, b, j, k), in row order, and the generators they belong to.
GRASSMANN_EXPONENTS = tuple(itertools.product((0, 1), (0, 1), (0, 1, 2), (0, 1)))
GRASSMANN_NAMES = ("xi", "xibar", "c_xi", "c_xibar")


def _gaussian_rational(rng) -> CRational:
    return CRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def check_transport(spec: cpi.CpiSpec, clock, seed: int = 0) -> list[CheckResult]:
    """CPI transport of ``spec`` against the classical flow, as the rows
    ``cpi-<case>-…`` of ``propagate-classical``, the suite and the bench.

    Every row is an exact identity at the time τ whose Cayley clock is the
    exact ``clock`` r (``cpi.cayley_clock`` takes a float time to one):
    exp(−iτH̃) by ``cpi.evolve`` against ψ∘flow(−τ), the flow from
    ``cpi.expm``, one code path per case.
    """
    build = {"coadjoint": _coadjoint_transport, "grassmann": _grassmann_transport,
             "bosonic": _bosonic_transport}[superfield.get_case(spec.case).name]
    try:
        return build(spec, clock, seed, cpi.build_cpi_hamiltonian(spec))
    except OverflowError:
        raise UnsupportedCaseError(cpi.FLOAT_RANGE) from None


def _back(psi, spec, r):
    """ψ∘flow(−τ) for the time τ whose Cayley clock is r: the fields and
    ghosts move by exp(−τM), and a drift v₀ ≠ 0, which needs det M = 0,
    moves the fields by −τ·v₀ + (τ²/2)·M·v₀ as well, τ = 2r."""
    v0, m = spec.vector_field
    drift = (0, 0)
    if any(v0):
        (a, b), (c, d) = m
        if a * d - b * c:
            raise UnsupportedCaseError(
                "transport with a linear term in H needs det M = 0 for M = omega*Hess H "
                "(flag --hamiltonian)"
            )
        drift = [-2 * r * v + 2 * r * r * (row[0] * v0[0] + row[1] * v0[1])
                 for v, row in zip(v0, m)]
    return cpi.pull_back(psi, spec, cpi.expm(m, -r), drift)


def _coadjoint_transport(spec, r, seed, operator) -> list[CheckResult]:
    """Rows that each apply H̃ = −μB·Λ_φ, by its Taylor sum, which ends.
    The classical field of H = −μB·η plus a constant has M = 0 and
    v₀ = (−μB, 0), so the flow moves φ by v₀^φ·τ and keeps η and the ghosts.
    On :data:`SAMPLES` Gaussian-rational ψ over (φ, η, c_φ, c_η) drawn from
    ``seed``, exp(−iτH̃)ψ = ψ∘flow(−τ).  On the last of them, ψ₀: the η²
    marginal rides along, clocks r and r/3 compose to 4r/3 (at D = 0 the
    clock is τ/2), and −iH̃ψ₀ = −v₀^φ·∂_φψ₀; and exp(−iτH̃) keeps the ghosts."""
    v0, m = spec.vector_field
    if any(x for row in m for x in row) or v0[1]:
        raise UnsupportedCaseError("coadjoint transport needs H = -muB*eta + constant")
    mu_b = -crational(v0[0])
    if mu_b.im:
        raise UnsupportedCaseError(f"transport needs a real rate, got {complex(mu_b)}")
    ctx = operator.context

    def evolve(psi, clock):
        return cpi.evolve(psi, spec, clock, operator)

    rng = random.Random(seed)
    rows = []
    for n in range(SAMPLES):
        psi = cpi.random_wavefunction(spec, rng, _gaussian_rational)
        moved = evolve(psi, r)
        rows.append(_exact_check(f"cpi-coadjoint-transport-{n}", _back(psi, spec, r), moved))
    eta_sq = ctx.sym("eta") ** 2  # ψ₀ is the last ψ drawn
    rows += [
        _exact_check("cpi-coadjoint-eta-marginal-invariant", eta_sq * moved,
                     evolve(eta_sq * psi, r)),
        _exact_check("cpi-coadjoint-composition", _back(psi, spec, 4 * r / 3),
                     evolve(moved, r / 3)),
    ]
    ghosts = ctx.parse("(3+i)/10*c_phi - i/5*c_eta")
    rows.append(_exact_check("cpi-coadjoint-ghosts-constant", _back(ghosts, spec, r),
                             evolve(ghosts, r)))
    lie = -v0[0] * partial_derivative(psi, "phi")
    rows.append(_exact_check("cpi-coadjoint-generator", lie, -I * operator.apply(psi)))
    return rows


def _grassmann_transport(spec, r, seed, operator) -> list[CheckResult]:
    """H̃ multiplies each monomial of :data:`GRASSMANN_EXPONENTS` by
    ω·(a − b + j − k), with ω = −i·M^ξ_ξ read off the classical field;
    exp(−iτH̃)ξc_ξ = (ξc_ξ)∘flow(−τ) = e^{−2iωτ}ξc_ξ; and H̃ annihilates
    constants."""
    ctx = operator.context
    w = -I * spec.vector_field[1][0][0]  # M^ξ_ξ = iω
    if w.im:
        raise UnsupportedCaseError(f"transport needs a real rate, got {complex(w)}")
    rows = []
    for exps in GRASSMANN_EXPONENTS:
        a, b, j, k = exps
        mono = GradedPolynomial(ctx, {ctx.monomial(dict(zip(GRASSMANN_NAMES, exps))): 1})
        expected = w * (a - b + j - k) * mono
        rows.append(_exact_check(f"cpi-grassmann-eigen-{exps}", expected, operator.apply(mono)))
    xi_cxi = ctx.sym("xi") * ctx.sym("c_xi")
    rows.append(_exact_check("cpi-grassmann-phase-xi-cxi", _back(xi_cxi, spec, r),
                             cpi.evolve(xi_cxi, spec, r, operator)))
    annihilated = operator.apply(ctx.const(1))
    rows.append(_exact_check("cpi-grassmann-constant-annihilated", ctx.zero(), annihilated))
    return rows


def _bosonic_transport(spec, r, seed, operator) -> list[CheckResult]:
    """exp(−iτH̃)ψ against ψ∘flow(−τ) on :data:`SAMPLES` Gaussian-rational
    wavefunctions drawn from ``seed``."""
    rng = random.Random(seed)
    rows = []
    for n in range(SAMPLES):
        psi = cpi.random_wavefunction(spec, rng, _gaussian_rational)
        rows.append(_exact_check(f"cpi-bosonic-transport-{n}", _back(psi, spec, r),
                                 cpi.evolve(psi, spec, r, operator)))
    return rows


def check_cpi_transport(seed: int = 0) -> list[CheckResult]:
    """CPI transport against the classical flow in the three cases.

    Every row is an exact identity: the nine coadjoint rows at μB = 4/5 and
    clock 3/8, which is t = 3/4, on wavefunctions drawn from ``seed``; the
    grassmann eigenvalues ω·(a − b + j − k) and the phase of ξc_ξ at
    ω = 13/10 and clock 5/13; and the bosonic harmonic oscillator at clock
    1/2 on five wavefunctions drawn from ``seed``.  Coefficients are
    Gaussian rationals.  At both of the last two clocks ν·r = 1/2, so
    cos ντ = 3/5 and sin ντ = 4/5.
    """
    grassmann = cpi.CpiSpec("grassmann", coefficients={"w": GRASSMANN_OMEGA})
    coadjoint = cpi.CpiSpec("coadjoint", coefficients={"muB": COADJOINT_MU_B})
    return [
        *check_transport(coadjoint, Fraction(3, 8), seed),
        *check_transport(grassmann, Fraction(5, 13), seed),
        *check_transport(cpi.CpiSpec("bosonic"), Fraction(1, 2), seed),  # harmonic
    ]


# -- aggregation --------------------------------------------------------------------

ALL_CHECKS = (
    ("bosonic-dequantization", check_bosonic_dequantization),
    ("grassmann-dequantization", check_grassmann_dequantization),
    ("coadjoint-dequantization", check_coadjoint_dequantization),
    ("observable-map", check_observable_map),
    ("spin-isomorphism", check_isomorphism),
    ("propagator-slicing", check_slicing),
    ("dirac-brackets", check_dirac_brackets),
    ("precession", check_precession),
    ("cpi-transport", check_cpi_transport),
)


def run_all(seed: int = 0) -> tuple[list[CheckResult], dict[str, float]]:
    """Run every check group; returns (results, per-group wall times)."""
    results: list[CheckResult] = []
    timings: dict[str, float] = {}
    for name, fn in ALL_CHECKS:
        start = time.perf_counter()
        group = fn(seed=seed)
        timings[name] = time.perf_counter() - start
        results.extend(group)
    return results, timings
