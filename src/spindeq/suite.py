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
``cpi.characteristics_check``, for the benchmark; ``cpi`` holds only the
engine it compares.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import cpi, orbit, quantum, superfield
from .errors import UnsupportedCaseError
from .exact import CRational, I, crational
from .symbols import GradedPolynomial, format_poly, formal_time_derivative, substitute


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

# e^{−iνt} at νt = atan(4/3), where cos νt = 3/5 and sin νt = 4/5: the phase at
# which the suite's polynomial transport rows evolve, so both sides are
# Gaussian rationals.
TRANSPORT_PHASE = (3 - 4 * I) / 5
GRASSMANN_OMEGA = Fraction(13, 10)
SAMPLES = 5  # random packet centers (coadjoint) or wavefunctions (bosonic) per check
# The grassmann monomials ξ^a·ξ̄^b·c_ξ^j·c_ξ̄^k that transport checks as
# eigenvectors of H̃, with eigenvalue ω·(a − b + j − k): their exponents
# (a, b, j, k), in row order, and the generators they belong to.
GRASSMANN_EXPONENTS = tuple(itertools.product((0, 1), (0, 1), (0, 1, 2), (0, 1)))
GRASSMANN_NAMES = ("xi", "xibar", "c_xi", "c_xibar")


def _gaussian_rational(rng) -> CRational:
    return CRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def _complex(rng) -> complex:
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def check_transport(spec: cpi.CpiSpec, clock, seed: int = 0) -> list[CheckResult]:
    """CPI transport of ``spec`` against the classical flow, as the rows
    ``cpi-<case>-…`` of ``propagate-classical``, the suite and the bench.

    ``clock`` is a float time t or an exact phase z = e^{−iνt}, ν from
    ``cpi.exact_rate``, and it alone picks the path: the grassmann rows and
    the coadjoint ghosts are exact at either, the coadjoint packets need a
    time, and bosonic transport is exact at a phase and float at a time.
    """
    build = {"coadjoint": _coadjoint_transport, "grassmann": _grassmann_transport,
             "bosonic": _bosonic_transport}[superfield.get_case(spec.case).name]
    try:
        return build(spec, clock, seed, cpi.build_cpi_hamiltonian(spec))
    except OverflowError:
        raise UnsupportedCaseError(
            "transport needs the coefficients of H, and the rates they give, within the float "
            "range (flags --hamiltonian, --omega, --muB)"
        ) from None


def _coadjoint_transport(spec, t, seed, operator) -> list[CheckResult]:
    """Wave packets move at the rate μB = −v₀^φ of the classical field, the
    η-marginal rides along, a period is the identity and the norm is kept,
    all float at the time t; the ghosts stay put exactly, since M = 0."""
    if not isinstance(t, float):
        raise UnsupportedCaseError(f"coadjoint transport moves packets for a float time t, got {t!r}")
    cpi.mode_rate(operator)  # rejects any H̃ but −μB·Λ_φ, before the μB checks
    mu_b = -complex(cpi.vector_field(spec)[0][0]).real  # v₀^φ = ∂_η H = −μB
    if not mu_b:
        raise UnsupportedCaseError("coadjoint transport needs muB != 0 for its period check")
    period = 2 * math.pi / mu_b
    if not (abs(mu_b * t) <= cpi.MAX_PHASE and math.isfinite(period)):
        raise UnsupportedCaseError(
            f"coadjoint transport needs |muB*t| <= {cpi.MAX_PHASE:g} and a finite period "
            f"2*pi/muB (flags --muB, --t); got muB = {mu_b:g}, t = {t:g}"
        )
    rng = random.Random(seed)
    rows = []

    def add(name, expected, actual, residual):
        rows.append(_numeric_check(f"cpi-coadjoint-{name}", expected, actual, residual, cpi.TOLERANCE))

    for n in range(SAMPLES):
        center = rng.uniform(0, 2 * math.pi)
        moved = cpi.evolve(cpi.FourierWavefunction.wrapped_gaussian(center), spec, t, operator)
        expected = (center - mu_b * t) % (2 * math.pi)
        actual = moved.circular_center() % (2 * math.pi)
        add(f"packet-center-{n}", expected, actual,
            abs((actual - expected + math.pi) % (2 * math.pi) - math.pi))
    packet = cpi.FourierWavefunction.wrapped_gaussian(1.0)
    with_eta = cpi.evolve(packet.tensor_factor(eta_exp=2), spec, t, operator)
    gap = max(
        abs(
            with_eta.coefficient((k, 2, 0, 0))
            - packet.coefficient((k, 0, 0, 0)) * cmath.exp(1j * k * mu_b * t)
        )
        for k in range(-cpi.PACKET_MODES, cpi.PACKET_MODES + 1)
    )
    add("eta-marginal-invariant", 0.0, gap, gap)
    gap = packet.max_difference(cpi.evolve(packet, spec, period, operator))
    add("period-identity", 0.0, gap, gap)
    ghosts = superfield.get_case("coadjoint").context.parse("(3+i)/10*c_phi - i/5*c_eta")
    # M = 0 exactly, so the ghost flow is I at every time; ν = 0 makes z = 1.
    moved = cpi.pull_back(ghosts, spec, cpi.exact_flow(spec, 1))
    rows.append(_exact_check("cpi-coadjoint-ghosts-constant", ghosts, moved))
    norm, kept = packet.norm_sq(), cpi.evolve(packet, spec, t, operator).norm_sq()
    add("norm-preserved", norm, kept, abs(norm - kept))
    return rows


def _grassmann_transport(spec, clock, seed, operator) -> list[CheckResult]:
    """Exact rows at any clock: H̃ multiplies each monomial of
    :data:`GRASSMANN_EXPONENTS` by ω·(a − b + j − k), with ω = −i·M^ξ_ξ
    read off the classical field; exp(−itH̃) multiplies ξc_ξ by z^{±2}, the
    sign of ω; and H̃ annihilates constants.  A float time t becomes the
    phase z = e^{−iνt} in its exact binary value, for |ω·t| up to
    ``cpi.MAX_PHASE``."""
    ctx = operator.context
    w = -I * cpi.vector_field(spec)[1][0][0]  # M^ξ_ξ = iω
    if w.im:
        raise UnsupportedCaseError(f"transport needs a real rate, got {complex(w)}")
    nu = abs(w.re)
    if isinstance(clock, float):
        phase = float(nu) * clock
        if not abs(phase) <= cpi.MAX_PHASE:
            raise UnsupportedCaseError(
                f"grassmann transport needs |omega*t| <= {cpi.MAX_PHASE:g} (flags --omega, --t); "
                f"got |omega| = {float(nu):g}, t = {clock:g}"
            )
        clock = crational(cmath.exp(-1j * phase))
    rows = []
    for exps in GRASSMANN_EXPONENTS:
        a, b, j, k = exps
        mono = GradedPolynomial(ctx, {ctx.monomial(dict(zip(GRASSMANN_NAMES, exps))): 1})
        expected = w * (a - b + j - k) * mono
        rows.append(_exact_check(f"cpi-grassmann-eigen-{exps}", expected, operator.apply(mono)))
    xi_cxi = ctx.sym("xi") * ctx.sym("c_xi")
    square = clock * clock
    expected = (square if w == nu else 1 / square) * xi_cxi  # e^{−2iωt}
    rotated = cpi.rotate(xi_cxi, operator, nu, clock)
    rows.append(_exact_check("cpi-grassmann-phase-xi-cxi", expected, rotated))
    annihilated = operator.apply(ctx.const(1))
    rows.append(_exact_check("cpi-grassmann-constant-annihilated", ctx.zero(), annihilated))
    return rows


def _bosonic_transport(spec, clock, seed, operator) -> list[CheckResult]:
    """exp(−itH̃)ψ against ψ∘flow(−t) on :data:`SAMPLES` wavefunctions drawn
    from ``seed``: exact at a phase z (``rotate``, ``exact_flow``,
    Gaussian-rational ψ), and float at a time t (``evolve``,
    ``flow_matrix``, complex ψ) within the bounds where the float
    exponential of the closure matrix meets ``cpi.TOLERANCE``."""
    if isinstance(clock, float):
        m, t = cpi.vector_field(spec)[1], clock
        phase = abs(t) * max(abs(complex(x)) for row in m for x in row)
        try:
            back = cpi.flow_matrix(spec, -t)
            stretch = max(abs(x) for row in back for x in row)
        except (OverflowError, ValueError):  # cosh(s) past the float range, or s itself
            stretch = math.inf
        if not (phase <= cpi.MAX_PHASE and stretch <= cpi.MAX_STRETCH):
            raise UnsupportedCaseError(
                f"bosonic transport needs |t|*max|M| <= {cpi.MAX_PHASE:g} and max|exp(-t*M)| <= "
                f"{cpi.MAX_STRETCH:g} for M = omega*Hess H (flag --t); got t = {t:g}, "
                f"|t|*max|M| = {phase:.3g}, max|exp(-t*M)| = {stretch:.3g}"
            )
        draw = _complex

        def evolve(psi):
            return cpi.evolve(psi, spec, t, operator)
    else:
        nu = cpi.exact_rate(spec)
        back, draw = cpi.exact_flow(spec, 1 / clock), _gaussian_rational

        def evolve(psi):
            return cpi.rotate(psi, operator, nu, clock)
    rng = random.Random(seed)
    rows = []
    for n in range(SAMPLES):
        psi = cpi.random_wavefunction(spec, rng, draw)
        expected, actual = cpi.pull_back(psi, spec, back), evolve(psi)
        name = f"cpi-bosonic-transport-{n}"
        if expected.is_exact() and actual.is_exact():
            rows.append(_exact_check(name, expected, actual))
        else:  # the largest coefficient gap
            gap = max((abs(complex(c)) for c in (actual - expected).terms.values()), default=0.0)
            rows.append(_numeric_check(name, 0.0, gap, gap, cpi.TOLERANCE))
    return rows


def check_cpi_transport(seed: int = 0) -> list[CheckResult]:
    """CPI transport against the classical flow in the three cases.

    The coadjoint packet rows are float, at t = 0.7.  Every other row is an
    exact identity: the coadjoint ghosts, which the exact flow of M = 0
    leaves constant; the grassmann eigenvalues ω·(a − b + j − k) and the
    phase of ξc_ξ at ω = 13/10; and the bosonic harmonic oscillator on five
    wavefunctions drawn from ``seed`` with Gaussian-rational coefficients.
    Phases are taken at :data:`TRANSPORT_PHASE`.
    """
    grassmann = cpi.CpiSpec("grassmann", coefficients={"w": GRASSMANN_OMEGA})
    return [
        *check_transport(cpi.CpiSpec("coadjoint", coefficients={"muB": 0.8}), 0.7, seed),
        *check_transport(grassmann, TRANSPORT_PHASE, seed),
        *check_transport(cpi.CpiSpec("bosonic"), TRANSPORT_PHASE, seed),  # harmonic
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
