"""End-to-end identity and oracle checks, shared by the CLI and the tests.

Each ``check_*`` function returns a list of :class:`CheckResult`, the one
result shape from here up to the CLI's JSON report.  Exact symbolic
identities report residual 0 (the integer) only when the two sides are equal
in the exact arithmetic; numeric comparisons report a float residual against
a stated tolerance.  Every group in :data:`ALL_CHECKS` takes ``seed``; the
deterministic groups ignore it.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import cpi, orbit, quantum, superfield
from .exact import I
from .symbols import format_poly, formal_time_derivative, substitute


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
    diff = actual_poly - expected_poly
    exact = expected_poly.is_exact() and actual_poly.is_exact()
    ok = exact and diff.is_zero()
    return CheckResult(
        name,
        format_poly(expected_poly),
        format_poly(actual_poly),
        0 if ok else format_poly(diff) if exact else "inexact side",
        ok,
        tolerance=None,
    )


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


def _random_exact_field(rng) -> quantum.MagneticField:
    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    return quantum.MagneticField(frac(), frac(), frac(), mu_b=Fraction(1, 2))


def _forms_agree(op: quantum.SpinOperator) -> bool:
    basis = (quantum.SpinState(1, 0), quantum.SpinState(0, 1))
    for state in basis:
        via_matrix = op.apply_matrix(state)
        via_words = op.apply_state_via_words(state)
        if via_matrix.c0 != via_words.c0 or via_matrix.c1 != via_words.c1:
            return False
    return True


def _matmul(a, b) -> tuple:
    """Exact product of two 2×2 matrices given as nested tuples."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


_ISOMORPHISM_SAMPLES = 50  # random exact fields whose two operator forms must agree


def check_isomorphism(seed: int = 0) -> list[CheckResult]:
    out = []
    sx, sy, sz, n = quantum.spin_operators()
    for label, op in (("Sx", sx), ("Sy", sy), ("Sz", sz), ("N", n)):
        agree = _forms_agree(op)
        out.append(
            CheckResult(
                f"isomorphism-{label}",
                "matrix action",
                "word action",
                0 if agree else 1,
                agree,
            )
        )
    # su(2): [S_a, S_b] = i·S_c cyclically, checked in both forms.
    pairs = ((sx, sy, sz, "xy"), (sy, sz, sx, "yz"), (sz, sx, sy, "zx"))
    for a, b, c, label in pairs:
        ab, ba = _matmul(a.matrix, b.matrix), _matmul(b.matrix, a.matrix)
        comm = tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(ab, ba))
        expected = tuple(tuple(I * v for v in row) for row in c.matrix)
        matrix_ok = comm == expected
        word_ok = True
        for state in (quantum.SpinState(1, 0), quantum.SpinState(0, 1)):
            mv = state.as_multivector()
            via_words = a.word.commutator_apply(b.word, mv)
            target = quantum.operator_from_matrix(expected).word.apply(mv)
            if not (via_words - target).is_zero():
                word_ok = False
        ok = matrix_ok and word_ok
        out.append(
            CheckResult(f"su2-commutator-{label}", "i*S_cyclic", "commutator", 0 if ok else 1, ok)
        )
    rng = random.Random(seed)
    bad = 0
    for _ in range(_ISOMORPHISM_SAMPLES):
        op = quantum.hamiltonian(_random_exact_field(rng))
        if not _forms_agree(op):
            bad += 1
    out.append(
        CheckResult(
            f"isomorphism-hamiltonian-{_ISOMORPHISM_SAMPLES}-fields", 0, bad, bad, bad == 0
        )
    )
    return out


def check_slicing(seed: int = 0) -> list[CheckResult]:
    out = []
    cases = (
        ("axis-field", quantum.MagneticField(1.0, 0.0, 0.0), 1.0),
        ("generic-field", quantum.MagneticField(0.3, -0.4, 0.8), None),
    )
    for label, b, t in cases:
        if t is None:
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
    return [
        _exact_check(name, *next((pair for pair in pairs if pair[0] != pair[1]), pairs[0]))
        for name, pairs in rows.items()
    ]


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


def check_transport(spec: cpi.CpiSpec, t: float, seed: int) -> list[CheckResult]:
    """CPI transport of ``spec`` over time ``t`` against the classical flow."""
    return [
        CheckResult(
            f"cpi-{spec.case}-{item['name']}",
            item["expected"],
            item["actual"],
            item["residual"],
            item["passed"],
            tolerance=cpi.TOLERANCE,
        )
        for item in cpi.characteristics_check(spec, t=t, seed=seed)["checks"]
    ]


def check_cpi_transport(seed: int = 0) -> list[CheckResult]:
    specs = (
        cpi.CpiSpec("coadjoint", coefficients={"muB": 0.8}),
        cpi.CpiSpec("grassmann", coefficients={"w": 1.3}),
        cpi.CpiSpec(
            "bosonic",
            hamiltonian=superfield.builtin_hamiltonian("bosonic", "harmonic"),
        ),
    )
    return [check for spec in specs for check in check_transport(spec, 0.7, seed)]


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
