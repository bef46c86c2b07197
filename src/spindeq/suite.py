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

import functools
import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import cpi, orbit, quantum, superfield
from .errors import UnsupportedCaseError
from .exact import I, crational
from .symbols import (
    GradedPolynomial,
    bind_constants,
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


def check_dequantization(
    case, lagrangian, cpi_l, surface, hamiltonian=None
) -> list[CheckResult]:
    """Check the split ``(cpi_l, surface)`` of ``lagrangian``.

    The superfield expansion is recomputed here by an independent route,
    ``substitute`` then ``supertime_integral`` (``dequantize`` reads the top
    component off a Taylor expansion instead), and must equal
    ``cpi_l + surface`` exactly.  Given the Hamiltonian,
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


def _stock_dequantization(case, prefix: str, name: str, plain=None):
    """Rows ``<prefix>-cpi`` and ``<prefix>-surface`` of ``dequantize`` on the
    stock Hamiltonian ``name``, and its surface.  Given ``plain``, the surface
    without the one-form shift, the Lagrangian has the shift and the second
    row is ``<prefix>-extra``: what the shift adds, −d/dt(γ·Λ_η)."""
    case = superfield.get_case(case)
    h = superfield.builtin_hamiltonian(case, name)
    lagrangian = superfield.quantum_lagrangian(case, h, gamma=plain is not None)
    cpi_l, surface = superfield.dequantize(lagrangian, case)
    ctx, conjugate = case.context, case.families[1]
    if plain is None:  # the surface is −d/dt of the conjugate bilinear
        bilinear = ctx.sym(conjugate.aux) * ctx.sym(conjugate.base) + ctx.imaginary() * ctx.sym(
            conjugate.antighost) * ctx.sym(conjugate.ghost)
        second = _exact_check(f"{prefix}-surface", -formal_time_derivative(bilinear), surface)
    else:
        extra = -formal_time_derivative(ctx.parse("gamma*Lam_eta"))
        second = _exact_check(f"{prefix}-extra", extra, surface - plain)
    return [_exact_check(f"{prefix}-cpi", cpi.cpi_lagrangian(case, h), cpi_l), second], surface


def check_bosonic_dequantization(seed: int = 0) -> list[CheckResult]:
    return [row for name in ("free", "harmonic", "quartic", "bilinear")
            for row in _stock_dequantization("bosonic", f"bosonic-{name}", name)[0]]


def check_grassmann_dequantization(seed: int = 0) -> list[CheckResult]:
    return _stock_dequantization("grassmann", "grassmann-spin", "spin")[0]


def check_coadjoint_dequantization(seed: int = 0) -> list[CheckResult]:
    rows, plain = _stock_dequantization("coadjoint", "coadjoint", "spin")
    return rows + _stock_dequantization("coadjoint", "coadjoint-gamma", "spin", plain)[0]


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

PRECESSION_MU_B, PRECESSION_B = Fraction(9, 10), Fraction(13, 10)
_LAM_SIN = orbit.SPHERE.parse("lam*sin_theta")


def check_dirac_brackets(seed: int = 0) -> list[CheckResult]:
    """The Dirac bracket identities, exact on the sphere: both sides times
    λ·sinθ, in ``orbit.on_sphere`` normal form.  Each row reports the first
    of its identities that fails, or its first."""
    x, bracket = orbit.CARTESIAN, orbit.dirac_bracket
    probes = (orbit.THETA, orbit.PHI, orbit.P_THETA, orbit.P_PHI, *x)
    rows = {
        "dirac-canonical-pair": [(_LAM_SIN, bracket(orbit.PHI, orbit.HEIGHT))],
        "dirac-constraints-vanish": [
            (orbit.SPHERE.zero(), bracket(f, c))
            for f in probes for c in (orbit.CONSTRAINT_1, orbit.CONSTRAINT_2)
        ],
        "dirac-so3-relations": [
            (orbit.on_sphere(_LAM_SIN * x[c].polynomial), bracket(x[a], x[b]))
            for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        ],
    }
    return [_first_failing(name, pairs) for name, pairs in rows.items()]


def check_precession_flow(mu_b, b, r, s=None) -> list[CheckResult]:
    """The ``precession-…`` rows for the field ``mu_b``·``b``, exact on the
    sphere with λ symbolic: the ``precession`` subcommand's, and given a
    second Cayley clock ``s`` the suite's two more.  F(X) = λ·sinθ·{X, H}_D.

    With μB and B symbolic and ν = −μB·B from ``orbit.precession_rate``,
    F(X1) = −ν·λ·sinθ·X2 and F(X2) = ν·λ·sinθ·X1 (``-angle-equation``), and
    {X3, H}_D = {H, H}_D = 0 (``-height-equation``).  The flow turns
    (cos φ, sin φ) by ``cpi.expm(M, r)``, M = ((0, −ν), (ν, 0)), at the exact
    μB and B, and keeps X3 and H (``-conserved``).  With F at those values:
    four quarter turns (clock 1/ν) give the identity, and one is ν⁻¹·F, not
    the identity (``-period-identity``); the clocks r and s compose to
    (r + s)/(1 − ν²rs), and the flow's term linear in r, 2r·M, is 2r·F
    (``-flow-composition``)."""
    h = orbit.total_hamiltonian(mu_b, b)
    x1, x2, x3 = orbit.CARTESIAN
    rate = orbit.precession_rate(orbit.SPHERE.sym("muB"), orbit.SPHERE.sym("B"))
    field = [orbit.dirac_bracket(x, h) for x in (x1, x2)]
    nu = orbit.precession_rate(Fraction(mu_b), Fraction(b))
    generator, zero = ((0, -nu), (nu, 0)), orbit.SPHERE.zero()
    flow = functools.cache(lambda clock: cpi.expm(generator, clock))

    def along(x, *clocks):
        p = x.polynomial
        for clock in clocks:
            p = orbit.pull_back(p, flow(clock))
        return p

    rows = [
        ("precession-height-equation",
         [(zero, orbit.dirac_bracket(x3, h)), (zero, orbit.dirac_bracket(h, h))]),
        ("precession-angle-equation", [
            (orbit.on_sphere(-rate * _LAM_SIN * x2.polynomial), field[0]),
            (orbit.on_sphere(rate * _LAM_SIN * x1.polynomial), field[1]),
        ]),
        *((f"precession-{name}-conserved", [(f.polynomial, along(f, r))])
          for name, f in (("height", x3), ("energy", h))),
    ]
    if s is not None:
        field = [bind_constants(f, {"muB": Fraction(mu_b), "B": Fraction(b)}) for f in field]
        period = [(x.polynomial, along(x, *[1 / nu] * 4)) for x in (x1, x2)]
        period.append((field[0], orbit.on_sphere(nu * _LAM_SIN * along(x1, 1 / nu))))
        composition = [(along(x, (r + s) / (1 - nu * nu * r * s)), along(x, r, s))
                       for x in (x1, x2)]
        composition += [(f, orbit.on_sphere(_LAM_SIN * orbit.pull_back(x.polynomial, generator)))
                        for f, x in zip(field, (x1, x2))]
        rows.insert(2, ("precession-period-identity", period))
        rows.append(("precession-flow-composition", composition))
    return [_first_failing(name, pairs) for name, pairs in rows]


def check_precession(seed: int = 0) -> list[CheckResult]:
    """:func:`check_precession_flow` at μB = 9/10 and B = 13/10, so
    ν = −117/100, and the clocks r = 1/(2ν) and s = 1/(4ν)."""
    nu = orbit.precession_rate(PRECESSION_MU_B, PRECESSION_B)
    return check_precession_flow(PRECESSION_MU_B, PRECESSION_B, 1 / (2 * nu), 1 / (4 * nu))


# -- CPI transport -------------------------------------------------------------------

GRASSMANN_OMEGA = Fraction(13, 10)
COADJOINT_MU_B = Fraction(4, 5)
SAMPLES = 5  # random wavefunctions per coadjoint or bosonic transport check
# The grassmann monomials ξ^a·ξ̄^b·c_ξ^j·c_ξ̄^k that transport checks as
# eigenvectors of H̃, with eigenvalue ω·(a − b + j − k): their exponents
# (a, b, j, k), in row order, and the generators they belong to.
GRASSMANN_EXPONENTS = tuple(itertools.product((0, 1), (0, 1), (0, 1, 2), (0, 1)))
GRASSMANN_NAMES = ("xi", "xibar", "c_xi", "c_xibar")


def check_transport(spec: cpi.CpiSpec, clock, seed: int = 0, operator=None) -> list[CheckResult]:
    """CPI transport of ``spec`` against the classical flow, as the rows
    ``cpi-<case>-…`` of ``propagate-classical``, the suite and the bench.

    Every row is an exact identity at the time τ whose Cayley clock is the
    exact ``clock`` r (``cpi.cayley_clock`` takes a float time to one):
    exp(−iτH̃) by ``cpi.evolve`` against ψ∘flow(−τ), the flow from
    ``cpi.expm``, one code path per case.  ``operator``, H̃ of ``spec`` as
    ``cpi.build_cpi_hamiltonian`` gives it, is built here if not given.
    """
    if operator is None:
        operator = cpi.build_cpi_hamiltonian(spec)
    if operator.case == "grassmann":
        return _grassmann_transport(spec, clock, operator)
    if operator.case == "coadjoint":
        return _coadjoint_transport(spec, clock, seed, operator)
    return _bosonic_transport(spec, clock, seed, operator)[0]


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


def _bosonic_transport(spec, r, seed, operator):
    """The rows ``cpi-<case>-transport-<n>`` of an even case: exp(−iτH̃)ψ
    against ψ∘flow(−τ) on :data:`SAMPLES` Gaussian-rational wavefunctions
    drawn from ``seed``; with the last ψ and its image."""
    rng = random.Random(seed)
    rows = []
    for n in range(SAMPLES):
        psi = cpi.random_wavefunction(spec, rng)
        back = _back(psi, spec, r)  # a drift off det M = 0 is rejected here, first
        moved = cpi.evolve(psi, spec, r, operator)
        rows.append(_exact_check(f"cpi-{operator.case}-transport-{n}", back, moved))
    return rows, psi, moved


def _coadjoint_transport(spec, r, seed, operator) -> list[CheckResult]:
    """Rows that each apply H̃ = −μB·Λ_φ, by its Taylor sum, which ends.
    The classical field of H = −μB·η plus a constant has M = 0 and
    v₀ = (−μB, 0), so the flow moves φ by v₀^φ·τ and keeps η and the ghosts.
    The transport rows of :func:`_bosonic_transport`; then, on the last ψ
    drawn, ψ₀: the η² marginal rides along, clocks r and r/3 compose to 4r/3
    (at D = 0 the clock is τ/2), and −iH̃ψ₀ = −v₀^φ·∂_φψ₀; and exp(−iτH̃)
    keeps the ghosts."""
    v0, m = spec.vector_field
    if any(x for row in m for x in row) or v0[1]:
        raise UnsupportedCaseError("coadjoint transport needs H = -muB*eta + constant")
    ctx = operator.context
    mu_b = -crational(v0[0])
    if mu_b.im:  # printed exactly, since a float overflows past 1e308
        rate = format_poly(ctx.const(mu_b))
        raise UnsupportedCaseError(f"transport needs a real rate, got {rate}")
    rows, psi, moved = _bosonic_transport(spec, r, seed, operator)
    eta_sq = ctx.sym("eta") ** 2
    ghosts = ctx.parse("(3+i)/10*c_phi - i/5*c_eta")
    return rows + [
        _exact_check("cpi-coadjoint-eta-marginal-invariant", eta_sq * moved,
                     cpi.evolve(eta_sq * psi, spec, r, operator)),
        _exact_check("cpi-coadjoint-composition", _back(psi, spec, 4 * r / 3),
                     cpi.evolve(moved, spec, r / 3, operator)),
        _exact_check("cpi-coadjoint-ghosts-constant", _back(ghosts, spec, r),
                     cpi.evolve(ghosts, spec, r, operator)),
        _exact_check("cpi-coadjoint-generator", -v0[0] * partial_derivative(psi, "phi"),
                     -I * operator.apply(psi)),
    ]


def _grassmann_transport(spec, r, operator) -> list[CheckResult]:
    """H̃ multiplies each monomial of :data:`GRASSMANN_EXPONENTS` by
    ω·(a − b + j − k), with ω = −i·M^ξ_ξ read off the classical field;
    exp(−iτH̃)ξc_ξ = (ξc_ξ)∘flow(−τ) = e^{−2iωτ}ξc_ξ; and H̃ annihilates
    constants."""
    ctx = operator.context
    w = -I * spec.vector_field[1][0][0]  # M^ξ_ξ = iω
    if w.im:
        rate = format_poly(ctx.const(w))
        raise UnsupportedCaseError(f"transport needs a real rate, got {rate}")
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
