"""Inputs, operations and correctness checks of the three benchmark workloads.

Each workload is a closed loop with one client: the next operation starts
only after the previous one has returned and been checked.  Inputs are made
only from the workload seed, in stratified blocks: every block holds the
same number of inputs of each class, in an order shuffled by the seed, so two
seeds give the same mix of operation sizes and differ only in coefficients
and order.

An operation calls the library through its public functions (and through
``cli.main`` for the command-line path).  ``check`` recomputes what it can
independently and returns a list of problems; an empty list means the
operation's result is correct.  Inputs that hit a defect the library has
today are made apart from the timed blocks (``known_defect_inputs``) and carry
``known_defect``, the reason they may fail.

``BENCHMARK.json`` lists suite-all and dequant-sweep, which between them reach
every layer; cpi-transport runs by name (or with ``--workload all``).  On a
shared two-vCPU host the speed of the machine drifts by 20-40% over minutes,
and cpi-transport's run-to-run spread of ``latency_p50_s`` reached the 25%
bound, so that with it in the list, two sets of runs of the same code could
not be relied on to agree.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from spindeq import DEFAULT_EVEN_TRUNCATION, cli, cpi, superfield
from spindeq.symbols import formal_time_derivative, substitute

SUITE_CHECKS = 83
TRANSPORT_T = 0.7  # the propagate-classical default
TOLERANCE = 1e-9  # the library's transport tolerance, not loosened
MAX_DEGREE = 12

OVERFLOW_DEFECT = (
    "the multiply-first operator word builds a power above the per-generator "
    "truncation and grassmann.product drops it silently"
)


@dataclass(frozen=True)
class Input:
    label: str
    data: dict
    known_defect: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    block: Callable[[random.Random], list[Input]]
    run: Callable[[Input, str], object]
    check: Callable[[Input, object], list[str]]
    defects: Callable[[random.Random], list[Input]] = lambda rng: []


def generate(workload: Workload, seed: int, blocks: int) -> list[Input]:
    rng = random.Random(seed)
    out = []
    for _ in range(blocks):
        items = workload.block(rng)
        rng.shuffle(items)
        out.extend(items)
    return out


def known_defect_inputs(workload: Workload, seed: int) -> list[Input]:
    """The workload's inputs that hit a known defect, made from the seed.

    They are kept out of the timed loop, whose operations must all pass, and
    run once after it; ``run.py`` reports how many of them fail.
    """
    return workload.defects(random.Random(seed))


def _rational(rng: random.Random, top: int) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, top), rng.randint(1, top))


def _text(c: Fraction) -> str:
    return f"({c.numerator}/{c.denominator})"


# -- suite-all ----------------------------------------------------------------------


def _suite_block(rng):
    s = rng.randrange(2**31)
    return [Input(f"all --seed {s}", {"seed": s})]


def _suite_run(inp: Input, out_dir: str):
    path = os.path.join(out_dir, "suite-all-report.json")
    argv = ["all", "--seed", str(inp.data["seed"]), "--out", path]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, path


def _suite_check(inp: Input, result) -> list[str]:
    code, path = result
    problems = [] if code == 0 else [f"exit code {code}"]
    with open(path) as handle:
        report = json.load(handle)
    checks = report["checks"]
    if len(checks) != SUITE_CHECKS:
        problems.append(f"{len(checks)} checks, expected {SUITE_CHECKS}")
    problems += [f"check {c['name']} failed" for c in checks if not c["passed"]]
    if report["parameters"].get("seed") != inp.data["seed"]:
        problems.append("report does not record the seed it was given")
    return problems


# -- dequant-sweep ------------------------------------------------------------------


def _bosonic_hamiltonian(rng: random.Random, degree: int) -> list[tuple]:
    """Half (rounded up) of the monomials q^a·p^b of each total degree
    1 <= a+b <= degree, each with a random rational coefficient.

    Choosing half of every total degree, not half of all monomials, keeps the
    cost of one degree nearly the same from draw to draw (the cost follows the
    total degrees of the terms), so the class that holds the median operation
    has a steady cost."""
    chosen = []
    for k in range(1, degree + 1):
        row = [(a, k - a) for a in range(k + 1)]
        chosen += rng.sample(row, (len(row) + 1) // 2)
    return [(_rational(rng, 9), a, b) for a, b in sorted(chosen)]


def _dequant_block(rng):
    """Every degree twice (22 bosonic inputs, about four in five), two
    grassmann inputs and the coadjoint case without and with the γ shift.
    Twelve inputs are cheaper than the two of degree 6 and twelve dearer, so
    the median operation is the middle of one class, not a gap between two."""
    items = []
    for degree in list(range(2, MAX_DEGREE + 1)) * 2:
        terms = _bosonic_hamiltonian(rng, degree)
        text = " + ".join(f"{_text(c)}*q^{a}*p^{b}" for c, a, b in terms)
        items.append(
            Input(f"bosonic degree {degree}", {"case": "bosonic", "text": text, "terms": terms})
        )
    for _ in range(2):
        w = _rational(rng, 9)
        items.append(
            Input(
                "grassmann spin",
                {"case": "grassmann", "text": f"-({_text(w)}/2)*(1 - 2*xi*xibar)", "w": w},
            )
        )
    for gamma in (False, True):
        r = _rational(rng, 9)
        items.append(
            Input(
                f"coadjoint gamma={gamma}",
                {"case": "coadjoint", "text": f"-{_text(r)}*muB*eta", "r": r, "gamma": gamma},
            )
        )
    return items


def _dequant_run(inp: Input, out_dir: str):
    case = superfield.get_case(inp.data["case"])
    h = case.context.parse(inp.data["text"])
    lagrangian = superfield.quantum_lagrangian(case, h, gamma=inp.data.get("gamma", False))
    cpi_l, surface = superfield.dequantize(lagrangian, case)
    return h, lagrangian, cpi_l, surface


def _expected_hamiltonian(inp: Input):
    """The generated Hamiltonian built from symbols, without the parser."""
    ctx = superfield.get_case(inp.data["case"]).context
    if inp.data["case"] == "bosonic":
        out = ctx.zero()
        for c, a, b in inp.data["terms"]:
            out = out + ctx.sym("q") ** a * ctx.sym("p") ** b * c
        return out
    if inp.data["case"] == "grassmann":
        w = inp.data["w"]
        return ctx.const(-w / 2) + ctx.sym("xi") * ctx.sym("xibar") * w
    return ctx.sym("muB") * ctx.sym("eta") * -inp.data["r"]


def _expected_surface(inp: Input):
    """−d/dt of the conjugate bilinear, plus −d/dt(γ·aux) with the γ shift."""
    case = superfield.get_case(inp.data["case"])
    ctx = case.context
    second = case.families[1]
    bilinear = ctx.sym(second.aux) * ctx.sym(second.base) + ctx.imaginary() * ctx.sym(
        second.antighost
    ) * ctx.sym(second.ghost)
    if inp.data.get("gamma"):
        bilinear = bilinear + ctx.sym("gamma") * ctx.sym(second.aux)
    return -formal_time_derivative(bilinear)


def _dequant_check(inp: Input, result) -> list[str]:
    h, lagrangian, cpi_l, surface = result
    case = superfield.get_case(inp.data["case"])
    raw = superfield.supertime_integral(
        substitute(lagrangian, superfield.superfield_bindings(case)), case.theta, case.thetabar
    )
    residuals = {
        "parsed-hamiltonian": h - _expected_hamiltonian(inp),
        "raw-equals-cpi-plus-surface": raw - (cpi_l + surface),
        "matches-cpi-lagrangian": cpi_l - cpi.cpi_lagrangian(case, h),
        "surface-term": surface - _expected_surface(inp),
    }
    return [f"{name} residual is not 0" for name, r in residuals.items() if not r.is_zero()]


# -- cpi-transport ------------------------------------------------------------------


def _quadratic(rng: random.Random, cross: bool) -> tuple[Fraction, Fraction, Fraction]:
    """Hessian entries (a, b, c) of H = a/2·q² + b·q·p + c/2·p², det ≠ 0.

    A zero determinant makes the operator defective (Jordan blocks), and the
    float eigenvalues of a defective matrix cannot decide "real" at 1e-9.
    """
    while True:
        a, c = _rational(rng, 3), _rational(rng, 3)
        b = _rational(rng, 3) if cross else Fraction(0)
        if a * c - b * b:
            return a, b, c


def _bosonic_spec(rng, truncation: int, cross: bool, defect: str | None = None) -> Input:
    a, b, c = _quadratic(rng, cross)
    text = f"{_text(a / 2)}*q^2 + {_text(c / 2)}*p^2"
    if cross:
        text += f" + {_text(b)}*q*p"
    return Input(
        f"bosonic T={truncation}" + (" q*p" if cross else ""),
        {
            "case": "bosonic",
            "text": text,
            "hessian": (a, b, c),
            "truncation": truncation,
            "seed": rng.randrange(2**31),
        },
        defect,
    )


def _cpi_block(rng):
    """Truncations 2 to 4 without and 2 and 3 with a q*p term, twice each,
    three grassmann and two coadjoint specs: every class of input that the
    library transports correctly today."""
    items = [
        _bosonic_spec(rng, truncation, cross)
        for truncation, cross in [(2, False), (3, False), (4, False), (2, True), (3, True)] * 2
    ]
    for _ in range(3):
        w = float(_rational(rng, 4))
        items.append(
            Input("grassmann", {"case": "grassmann", "w": w, "seed": rng.randrange(2**31)})
        )
    for _ in range(2):
        mu_b = float(_rational(rng, 4))
        items.append(
            Input("coadjoint", {"case": "coadjoint", "muB": mu_b, "seed": rng.randrange(2**31)})
        )
    return items


def _cpi_defects(rng):
    """Truncations 5 and 6 with and without a q*p term, and q*p at the default
    truncation 4: the inputs that hit OVERFLOW_DEFECT."""
    return [
        _bosonic_spec(rng, truncation, cross, OVERFLOW_DEFECT)
        for truncation, cross in [(5, False), (5, True), (6, False), (6, True), (4, True)]
    ]


def _cpi_run(inp: Input, out_dir: str):
    """What ``spindeq propagate-classical`` runs for one spec."""
    data = inp.data
    case = superfield.get_case(data["case"])
    hamiltonian = None
    if case.name == "bosonic":
        hamiltonian = case.context.parse(data["text"])
        coefficients = {"alpha": 1}
    elif case.name == "grassmann":
        coefficients = {"w": data["w"]}
    else:
        coefficients = {"muB": data["muB"]}
    spec = cpi.CpiSpec(
        case.name,
        hamiltonian=hamiltonian,
        coefficients=coefficients,
        truncation=data.get("truncation", DEFAULT_EVEN_TRUNCATION),
    )
    report = cpi.characteristics_check(spec, t=TRANSPORT_T, seed=data["seed"])
    real = None
    if case.name != "coadjoint":
        real = cpi.build_cpi_hamiltonian(spec).spectrum_is_real()
    return report, real


EXPECTED_CPI_CHECKS = {"bosonic": 5, "grassmann": 26, "coadjoint": 9}


def _cpi_check(inp: Input, result) -> list[str]:
    report, real = result
    case = inp.data["case"]
    checks = report["checks"]
    problems = []
    if len(checks) != EXPECTED_CPI_CHECKS[case]:
        problems.append(f"{len(checks)} checks, expected {EXPECTED_CPI_CHECKS[case]}")
    for c in checks:
        residual = c["residual"]
        if not (math.isfinite(residual) and residual <= TOLERANCE):
            problems.append(f"{c['name']} residual {residual:.3g} > {TOLERANCE}")
        elif not c["passed"]:
            problems.append(f"{c['name']} reported failed within tolerance")
    if case == "bosonic":
        a, b, c = inp.data["hessian"]
        # The flow generator Ω·Hess H has eigenvalues ±sqrt(−det); the
        # spectrum is real exactly when the flow is elliptic.
        expected_real = a * c - b * b > 0
    elif case == "grassmann":
        expected_real = True  # eigenvalues ω(a − b + j − k)
    else:
        expected_real = None  # propagate-classical builds no operator here
    if real != expected_real:
        problems.append(f"spectrum_is_real is {real}, expected {expected_real}")
    return problems


# -- registry -----------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload("suite-all", _suite_block, _suite_run, _suite_check),
        Workload("dequant-sweep", _dequant_block, _dequant_run, _dequant_check),
        Workload("cpi-transport", _cpi_block, _cpi_run, _cpi_check, _cpi_defects),
    )
}
