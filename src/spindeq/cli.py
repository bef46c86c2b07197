"""Command-line front end.

Every subcommand turns its flags into suite checks (some also write a CSV
table).  :func:`main` builds the parser on its first call and reuses it for
the rest of the process; the parser holds no handler, so ``main`` looks up
the subcommand's ``_cmd_*`` function by name when it runs.  It times the
run and builds one :class:`RunReport`
(parameters, a list of named checks with expected/actual/residual, wall
time, and the versions of what ran) for a finished run and for a failed one
alike, writes it where ``--out``/``--report`` asks for JSON, and prints it.
It exits 0 only when every check passed; failing check names go to stderr.
A run stopped by an error exits 1 with the error on stderr, and its report
has no checks, an ``error`` object and ``all_passed`` false; a report path
that cannot be written is left as it is.  Randomized checks take
``--seed``, falling back to the SPINDEQ_SEED environment variable, which
must be an integer, and then to 0, and are deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__, cpi, orbit, quantum, suite, superfield
from .errors import IdentityViolationError, SpindeqError, UnsupportedCaseError
from .suite import CheckResult
from .symbols import format_poly

SCHEMA_VERSION = "spindeq.report/1"

# Namespace entries that are not run parameters.
_NOT_PARAMETERS = ("subcommand", "report_path")


def _runtime_versions() -> dict:
    """Versions of spindeq and Python; the package loads no third-party library."""
    return {"spindeq": __version__, "python": ".".join(map(str, sys.version_info[:3]))}


@dataclass
class RunReport:
    subcommand: str
    parameters: dict
    checks: list[CheckResult]
    timing_seconds: float
    extras: dict = field(default_factory=dict)
    versions: dict = field(default_factory=_runtime_versions)
    schema: str = SCHEMA_VERSION
    error: dict | None = None  # class, message and payload of a run that raised

    @property
    def all_passed(self) -> bool:
        return self.error is None and all(c.passed for c in self.checks)

    def failures(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        out = {
            "schema": self.schema,
            "subcommand": self.subcommand,
            "parameters": self.parameters,
            "checks": [c.to_dict() for c in self.checks],
            "timing_seconds": self.timing_seconds,
            "extras": self.extras,
            "versions": self.versions,
            "all_passed": self.all_passed,
        }
        if self.error is not None:
            out["error"] = self.error
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        data = json.loads(text)
        return cls(
            subcommand=data["subcommand"],
            parameters=data["parameters"],
            checks=[CheckResult(c["name"], c["expected"], c["actual"], c["residual"],
                                tolerance=c["tolerance"]) for c in data["checks"]],
            timing_seconds=data["timing_seconds"],
            extras=data.get("extras", {}),
            versions=data.get("versions", {}),
            schema=data["schema"],
            error=data.get("error"),
        )

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")


# Largest --truncation: at 16, bosonic and coadjoint transport draw
# wavefunctions of degree up to 14 in each base field; on a 2-core machine
# bosonic takes 0.7-0.9 s for the harmonic oscillator and 1.2-1.4 s for the
# hyperbolic (1/4)*q^2 - p^2 + 3*q*p, and coadjoint about 25 ms.
MAX_TRUNCATION = 16
# Largest precession --steps: 100,000 steps take about 4 s with --out on a
# 2-core machine, and the run keeps every step's time in memory.
MAX_STEPS = 100_000
# Integer flags that count something, each from 1 to its cap.
_COUNT_CAPS = {"steps": MAX_STEPS, "truncation": MAX_TRUNCATION}


def _prepare_inputs(args) -> None:
    """Reject non-finite numbers, counts outside 1 to their caps, a sphere
    radius that is not positive and orbit states off the sphere; resolve the
    seed."""
    for dest, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"--{dest.replace('_', '-')} must be a finite number, got {value}")
    for flag, cap in _COUNT_CAPS.items():
        if not 1 <= getattr(args, flag, 1) <= cap:
            raise ValueError(f"--{flag} must be from 1 to {cap}, got {getattr(args, flag)}")
    if getattr(args, "lam", 1.0) <= 0:
        raise ValueError(f"--lam must be positive, got {args.lam}")
    if not 0 < getattr(args, "theta0", 1.0) < math.pi:
        raise ValueError(f"--theta0 must lie strictly between 0 and pi, got {args.theta0}")
    if "seed" in vars(args) and args.seed is None:
        text = os.environ.get("SPINDEQ_SEED") or "0"
        try:
            args.seed = int(text)
        except ValueError:
            raise ValueError(f"SPINDEQ_SEED must be an integer, got {text!r}") from None


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


# -- subcommands: each returns (checks, extras) ------------------------------------


def _cmd_verify_dequantization(args):
    case = superfield.get_case(args.case)
    given = [
        f"--{name}" for name in ("hamiltonian", "builtin", "gamma")
        if getattr(args, name) not in (None, False)
    ]
    if args.lagrangian is not None and given:
        raise ValueError(f"--lagrangian cannot be combined with {', '.join(given)}")
    if args.hamiltonian is not None and args.builtin is not None:
        raise ValueError("--hamiltonian cannot be combined with --builtin")
    if args.gamma and case.shift is None:
        raise ValueError(f"--gamma: case {case.name!r} has no one-form shift")
    ctx = case.context
    hamiltonian = None
    if args.lagrangian is not None:
        lagrangian = ctx.parse(args.lagrangian)
    else:
        if args.hamiltonian is not None:
            hamiltonian = ctx.parse(args.hamiltonian)
        else:
            hamiltonian = superfield.builtin_hamiltonian(case, args.builtin)
        lagrangian = superfield.quantum_lagrangian(case, hamiltonian, gamma=args.gamma)
    cpi_l, surface = superfield.dequantize(lagrangian, case)
    checks = suite.check_dequantization(case, lagrangian, cpi_l, surface, hamiltonian)
    extras = {
        # decomposition-exact's expected side: the independently recomputed expansion
        "raw_expansion": checks[0].expected,
        "cpi_lagrangian": format_poly(cpi_l),
        "surface_term": format_poly(surface),
    }
    return checks, extras


def _cmd_propagate_quantum(args):
    try:
        b = quantum.MagneticField.from_text(args.b, mu_b=args.mu_b)
    except ValueError as exc:
        raise ValueError(f"--b {args.b!r}: {exc}") from None
    phase = b.larmor_phase(args.t)
    if not math.isfinite(phase):  # the oracle takes its cos and sin
        raise ValueError(f"--b, --mu-b and --t: the Larmor phase mu_b*|b|*t must be finite, "
                         f"got {args.mu_b}*{b.norm()}*{args.t}")
    try:
        slices = [int(x) for x in args.slices.split(",") if x.strip()]
    except ValueError:
        slices = []
    if not slices or min(slices) < 1 or len(set(slices)) < len(slices):
        raise ValueError("--slices must be a comma-separated list of distinct positive "
                         f"integers, got {args.slices!r}")
    # Repeated squaring forms powers of up to 2n slices, of norm up to
    # (1 + (phase/n)^2)^n; past the largest float they overflow to nan.
    for n in slices:
        step = phase / n
        if n * math.log1p(step * step) > math.log(sys.float_info.max):
            raise ValueError(
                f"--b, --mu-b, --t and --slices: the sliced propagator overflows at n = {n}, "
                f"since n*log1p((mu_b*|b|*t/n)^2) exceeds ln(max float) for mu_b*|b|*t = {phase:g}"
            )
    rows = []
    for n in slices:
        t0 = time.perf_counter()
        [(_, err)] = quantum.slicing_errors(b, args.t, [n])
        rows.append((n, err, time.perf_counter() - t0))
    if args.out:
        _write_csv(args.out, ["n", "max_error_vs_oracle", "wall_time"], rows)
    return suite.check_slice_errors([(n, err) for n, err, _ in rows]), {"rows": rows}


def _cmd_propagate_classical(args):
    case = superfield.get_case(args.case)
    if args.hamiltonian is not None:
        hamiltonian = case.context.parse(args.hamiltonian)
    else:
        hamiltonian = superfield.builtin_hamiltonian(case)
    # A flag binds a constant that H uses, by default to 1, and is recorded;
    # a flag for a constant that H lacks is rejected, and so is a constant
    # that no flag binds.
    in_use = {name for name, _dot in hamiltonian.symbols_used()}
    unbound = sorted(name for name in in_use - {"w", "muB"} if case.context.decl(name).constant)
    if unbound:
        raise UnsupportedCaseError(
            f"unbound constants {unbound}: --hamiltonian may use only the constants that a flag "
            "binds, w (--omega) and muB (--muB)"
        )
    coefficients = {}
    for flag, dest, constant in (("--omega", "omega", "w"), ("--muB", "muB", "muB")):
        value = getattr(args, dest)
        if constant in in_use:
            coefficients[constant] = 1.0 if value is None else value
            setattr(args, dest, coefficients[constant])
        elif value is not None:
            raise ValueError(f"{flag}: the Hamiltonian has no constant {constant!r}")
    spec = cpi.CpiSpec(
        case.name,
        hamiltonian=hamiltonian,
        coefficients=coefficients,
        truncation=args.truncation,
    )
    clock = cpi.cayley_clock(spec, args.t)
    checks = suite.check_transport(spec, clock, args.seed)
    return checks, {
        "operator": format_poly(spec.operator.symbol),
        "spectrum_real": spec.operator.spectrum_is_real(),
        "clock": str(clock),  # the exact Cayley clock r of --t that every row used
    }


def _cmd_precession(args):
    for flags, what, values in (("--muB and --b", "the rate muB*b", (args.muB, args.b)),
                                ("--lam, --muB and --b", "the energy lam*muB*b",
                                 (args.lam, args.muB, args.b))):
        if not math.isfinite(math.prod(values)):
            raise ValueError(f"{flags}: {what} must be finite, got {'*'.join(map(str, values))}")
    phase = args.muB * args.b * args.t  # -nu*t: the table turns phi by nu*t
    if abs(phase) > cpi.MAX_PHASE:  # past it doubles stop resolving the phase, as in transport
        raise ValueError(f"--muB, --b and --t: the phase |muB*b*t| must be at most "
                         f"{cpi.MAX_PHASE:g}, got {args.muB}*{args.b}*{args.t}")
    half = phase / 2
    if args.out:
        state = orbit.OrbitState.on_constraint(args.theta0, args.phi0, args.lam)
        h_fun = orbit.total_hamiltonian(args.muB, args.b)
        rows = []
        for t in (args.t * k / args.steps for k in range(args.steps + 1)):
            s = orbit.classical_trajectory(state, args.muB, args.b, t)
            rows.append((t, s.theta, s.phi, orbit.HEIGHT(s), h_fun(s)))
        _write_csv(args.out, ["t", "theta", "phi", "eta", "H"], rows)
    # The Cayley clock tan(nu*t/2)/nu of --t, exact; tan(x)/x is even and finite.
    clock = Fraction(math.tan(half) / half if half else 1) * Fraction(args.t) / 2
    return suite.check_precession_flow(args.muB, args.b, clock), {"clock": str(clock)}


def _cmd_check_dirac(args):
    return suite.check_dirac_brackets(), {}


def _cmd_all(args):
    results, timings = suite.run_all(seed=args.seed)
    return results, {"group_timings": timings}


# -- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spindeq",
        description="Exact and numeric checks relating quantum and classical spin path integrals.",
    )
    parser.add_argument("--version", action="version", version=f"spindeq {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "verify-dequantization",
        help="map a Lagrangian through superfields and verify the split",
    )
    p.add_argument("--case", required=True, choices=superfield.CASES)
    p.add_argument("--hamiltonian", help="expression over the case's base fields")
    p.add_argument("--builtin", help="name of a stock Hamiltonian")
    p.add_argument("--lagrangian", help="full Lagrangian expression (takes no other input flag)")
    p.add_argument("--gamma", action="store_true", help="include the symbolic one-form shift")
    p.add_argument("--report", dest="report_path", help="write the JSON report here")

    p = sub.add_parser("propagate-quantum", help="time-sliced spin propagator vs closed form")
    p.add_argument("--b", required=True, help="field components BX,BY,BZ")
    p.add_argument("--mu-b", type=float, default=1.0, dest="mu_b")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--slices", required=True, help="comma-separated slice counts")
    p.add_argument("--out", help="write a CSV of (n, max_error_vs_oracle, wall_time)")

    p = sub.add_parser("propagate-classical", help="CPI transport against classical flow")
    p.add_argument("--case", required=True, choices=superfield.CASES)
    p.add_argument("--omega", type=float, help="value of the constant w in H (default 1)")
    p.add_argument("--muB", type=float, help="value of the constant muB in H (default 1)")
    p.add_argument(
        "--t",
        type=float,
        default=0.7,
        help=f"transport time, taken as its exact Cayley clock r; needs |nu*t| <= "
        f"{cpi.MAX_PHASE:g} where nu^2 = det M > 0 for M = omega*Hess H, and a hyperbolic "
        "clock tanh(kappa*t/2) that does not round to 1 where det M = -kappa^2 < 0",
    )
    p.add_argument(
        "--truncation",
        type=int,
        default=cpi.DEFAULT_EVEN_TRUNCATION,
        help="bounds the random bosonic and coadjoint wavefunctions that transport draws: "
        f"exponents of each base field below max(T-1, 1); 1 to {MAX_TRUNCATION}",
    )
    p.add_argument("--hamiltonian", help="expression over the base fields (even case)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="report_path", help="write the JSON report here")

    p = sub.add_parser("precession", help="closed-form precession table and conservation checks")
    p.add_argument("--theta0", type=float, required=True)
    p.add_argument("--phi0", type=float, required=True)
    p.add_argument("--muB", type=float, required=True)
    p.add_argument("--b", type=float, default=1.0, help="field magnitude")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--lam", type=float, default=1.0, help="sphere radius")
    p.add_argument("--steps", type=int, default=100, help=f"time steps, 1 to {MAX_STEPS}")
    p.add_argument("--out", help="write a CSV of (t, theta, phi, eta, H)")

    p = sub.add_parser("check-dirac", help="exact Dirac bracket identities on the sphere")
    p.add_argument("--out", dest="report_path", help="write the JSON report here")

    p = sub.add_parser("all", help="run the complete check suite")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="report_path", help="write the JSON report here")

    return parser


def _parameters(args) -> dict:
    """The run's flags; a number that is not finite, which only a rejected
    run records, as its text, so that the report stays strict JSON."""
    return {
        k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
        for k, v in vars(args).items()
        if k not in _NOT_PARAMETERS
    }


# The parser of every main call in this process, built by the first one.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    start = time.perf_counter()
    checks, extras, error = [], {}, None
    try:
        _prepare_inputs(args)
        # Looked up by name on every call, so a patched handler is the one that runs.
        handler = globals()["_cmd_" + args.subcommand.replace("-", "_")]
        checks, extras = handler(args)
    except (SpindeqError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        error = {"class": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, IdentityViolationError):
            error["payload"] = exc.payload
    report = RunReport(
        args.subcommand, _parameters(args), checks, time.perf_counter() - start, extras, error=error
    )
    try:
        if getattr(args, "report_path", None):
            report.write(args.report_path)
    except OSError as exc:
        if error is None:  # a failed run has printed its own error, and keeps it
            print(f"error: {exc}", file=sys.stderr)
        return 1
    if error is not None:
        return 1
    failures = report.failures()
    for check in report.checks:
        status = "ok" if check.passed else "FAIL"
        print(f"{status:4s} {check.name} (residual {check.residual})")
    print(
        f"{report.subcommand}: {len(report.checks)} checks, "
        f"{len(failures)} failures, {report.timing_seconds:.2f}s"
    )
    if failures:
        print("failed checks: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0
