"""Command-line surface: exit codes, file artifacts, report schema.

Exit-code conventions: 0 when every check passes, 1 on a failed check or a
domain error, 2 on argparse usage errors.  Subprocess calls pin the
installed entry point; in-process calls to main() keep the rest fast.
"""

import csv
import json
import math
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

from spindeq import IdentityViolationError, cli, cpi, superfield
from spindeq.cli import RunReport, SCHEMA_VERSION, main
from spindeq.suite import check_slice_errors


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "spindeq", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_usage_errors_exit_two():
    assert run_cli("--no-such-flag").returncode == 2
    assert run_cli("no-such-subcommand").returncode == 2
    assert run_cli("verify-dequantization").returncode == 2  # --case is required


_HUGE = 10**400


def test_domain_errors_exit_one(capsys):
    proc = run_cli("verify-dequantization", "--case", "bosonic", "--hamiltonian", "nope")
    assert proc.returncode == 1
    assert "error" in proc.stderr.lower()
    rejected = (
        (["precession", "--theta0", "1", "--phi0", "0", "--muB", "1", "--t", "nan"], "--t"),
        (["propagate-quantum", "--b", "nan,0,1", "--t", "1", "--slices", "4"], "--b"),
        (["propagate-quantum", "--b", "0,0,1", "--t", "inf", "--slices", "4"], "--t"),
        (["propagate-classical", "--case", "bosonic", "--t", "nan"], "--t"),
        (["propagate-quantum", "--b", "1/0,0,1", "--t", "1", "--slices", "2"], "--b '1/0,0,1'"),
        (["precession", "--theta0", "1", "--phi0", "0", "--muB", "1", "--t", "1",
          "--steps", "0"], "--steps"),
        (["precession", "--theta0", "1", "--phi0", "0", "--muB", "1", "--t", "1",
          "--lam", "0"], "--lam"),
        (["precession", "--theta0", "1", "--phi0", "0", "--muB", "1", "--t", "1",
          "--lam", "-1"], "--lam"),
        (["precession", "--theta0", "1", "--phi0", "0", "--muB", "10", "--t", "1e308"],
         "--muB, --b and --t"),
        (["precession", "--theta0", "0", "--phi0", "0", "--muB", "1", "--t", "1"], "--theta0"),
        (["propagate-quantum", "--b", "0,0,1", "--t", "1", "--slices", "0"], "--slices"),
        (["propagate-quantum", "--b", "0,0,1", "--t", "1", "--slices", "x"], "--slices"),
        (["propagate-quantum", "--b", "1,0,0", "--t", "1", "--slices", "10,10"], "--slices"),
        (["propagate-classical", "--case", "bosonic", "--truncation", "0"], "--truncation"),
        (["propagate-classical", "--case", "bosonic", "--truncation", "17"], "--truncation"),
        (["verify-dequantization", "--case", "bosonic", "--gamma"], "--gamma"),
        (["verify-dequantization", "--case", "grassmann", "--gamma"], "--gamma"),
        # The sliced propagator's powers would overflow to nan; a field of
        # 1e300 must not overflow the field norm either.
        (["propagate-quantum", "--b", "0,0,1", "--t", "1e300", "--slices", "2"], "--b"),
        (["propagate-quantum", "--b", "1e300,0,0", "--t", "1", "--slices", "2"], "--b"),
        (["propagate-quantum", "--b", "0,0,1", "--t", "1e6", "--slices", "1000000"], "--b"),
        (["propagate-quantum", "--b", "0,0,1", "--t", "2000", "--slices", "1000"], "--b"),
        # Components too large for a float, as an int and as a fraction.
        (["propagate-quantum", "--b", f"{_HUGE},0,0", "--t", "1", "--slices", "2"],
         f"--b '{_HUGE},0,0': "),
        (["propagate-quantum", "--b", f"{_HUGE}/3,0,0", "--t", "1", "--slices", "2"],
         f"--b '{_HUGE}/3,0,0': "),
    )
    for argv, flag in rejected:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + flag), captured.err


def test_precession_steps_are_capped_before_any_work(monkeypatch, capsys):
    def never_run(args):
        raise AssertionError("the handler ran")

    monkeypatch.setattr(cli, "_cmd_precession", never_run)
    argv = ["precession", "--theta0", "1", "--phi0", "0", "--muB", "1", "--t", "1", "--steps"]
    for steps in (cli.MAX_STEPS + 1, 100000000000):
        assert main([*argv, str(steps)]) == 1
        assert capsys.readouterr().err.startswith(f"error: --steps must be from 1 to {cli.MAX_STEPS}")
    with pytest.raises(SystemExit):
        main(["precession", "--help"])
    assert f"time steps, 1 to {cli.MAX_STEPS}" in capsys.readouterr().out


def test_wrong_dequantization_split_fails_decomposition(monkeypatch, capsys):
    dequantize = superfield.dequantize

    def wrong_split(lagrangian, case):
        cpi_l, surface = dequantize(lagrangian, case)
        return cpi_l, surface + superfield.get_case(case).context.parse("q")

    monkeypatch.setattr(superfield, "dequantize", wrong_split)
    code = main(["verify-dequantization", "--case", "bosonic", "--builtin", "harmonic"])
    assert code == 1
    assert capsys.readouterr().err.strip() == "failed checks: decomposition-exact"


def _without_the_half(parts):
    return tuple((b, first, tuple((a, {m: 2 * c for m, c in part.items()}) for a, part in pairs))
                 for b, first, pairs in parts)


def _without_first_order_parts(parts):
    return tuple((b, {}, pairs) for b, _first, pairs in parts)


@pytest.mark.parametrize("wrong_route", [_without_the_half, _without_first_order_parts])
def test_a_wrong_top_component_route_fails_decomposition(wrong_route, tmp_path, monkeypatch,
                                                         capsys):
    # dequantize reads the top component off the Taylor parts and
    # decomposition-exact rebuilds it by substitution, so a wrong part fails
    # the row for each case's default Hamiltonian.
    for name in superfield.CASES:
        case = superfield.get_case(name)
        wrong = wrong_route(case.top_parts)
        monkeypatch.setitem(case.__dict__, "top_parts", wrong)
        path = tmp_path / f"{name}.json"
        assert main(["verify-dequantization", "--case", name, "--report", str(path)]) == 1
        assert capsys.readouterr().err.startswith("failed checks: decomposition-exact")
        row = json.loads(path.read_text())["checks"][0]
        assert row["name"] == "decomposition-exact" and not row["passed"]
        monkeypatch.undo()
        assert main(["verify-dequantization", "--case", name, "--report", str(path)]) == 0
        capsys.readouterr()
        assert json.loads(path.read_text())["checks"][0]["expected"] == row["expected"]


def test_verify_dequantization_rejects_the_supertime_pair(tmp_path, capsys):
    # The top-component rule holds only for a Lagrangian free of theta and
    # thetabar, so one that mentions either is refused before any work.
    for name, flag, text in (
        ("bosonic", "--lagrangian", "theta*q"),
        ("bosonic", "--lagrangian", "p*dot(q) + q*thetabar*c_q"),
        ("grassmann", "--lagrangian", "thetabar*xi"),
        ("coadjoint", "--lagrangian", "chi*c_phi*eta"),
        ("coadjoint", "--hamiltonian", "chibar*c_eta"),
    ):
        case = superfield.get_case(name)
        path = tmp_path / "report.json"
        assert main(["verify-dequantization", "--case", name, flag, text,
                     "--report", str(path)]) == 1
        message = (f"dequantization needs a Lagrangian free of the supertime pair "
                   f"({case.theta}, {case.thetabar}) at every dot order; --lagrangian and "
                   f"--hamiltonian may not use them")
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        data = json.loads(path.read_text())
        assert data["checks"] == [] and data["all_passed"] is False
        assert data["error"] == {"class": "UnsupportedCaseError", "message": message}


def test_verify_dequantization_passes(tmp_path):
    report_path = tmp_path / "report.json"
    proc = run_cli(
        "verify-dequantization", "--case", "grassmann", "--report", str(report_path)
    )
    assert proc.returncode == 0
    assert proc.stdout.count("ok ") >= 2
    data = json.loads(report_path.read_text())
    assert data["schema"] == SCHEMA_VERSION
    assert data["subcommand"] == "verify-dequantization"
    assert data["all_passed"] is True
    assert data["parameters"]["case"] == "grassmann"
    assert {"cpi_lagrangian", "surface_term"} <= set(data["extras"])


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "spindeq" in proc.stdout


def test_propagate_quantum_writes_csv(tmp_path, capsys):
    out = tmp_path / "errors.csv"
    code = main(
        ["propagate-quantum", "--b", "0,0,1", "--t", "1.0", "--slices", "8,16,32",
         "--out", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["n"]) for r in rows] == [8, 16, 32]
    errs = [float(r["max_error_vs_oracle"]) for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert all(float(r["wall_time"]) >= 0 for r in rows)


def test_precession_writes_csv(tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    code = main(
        ["precession", "--theta0", "1.1", "--phi0", "0.3", "--muB", "0.9",
         "--b", "1.3", "--t", "2.0", "--steps", "4", "--out", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert list(rows[0]) == ["t", "theta", "phi", "eta", "H"]
    etas = {r["eta"] for r in rows}
    hs = {r["H"] for r in rows}
    assert len(etas) == 1 and len(hs) == 1  # conserved along the row set
    assert float(rows[0]["t"]) == 0.0 and float(rows[-1]["t"]) == 2.0


def test_precession_at_zero_field_passes(capsys):
    argv = ["precession", "--theta0", "1.1", "--phi0", "0.3", "--muB", "0", "--t", "2.0"]
    assert main(argv) == 0
    capsys.readouterr()


def test_propagate_classical_all_cases(tmp_path, capsys):
    for case in ("bosonic", "grassmann", "coadjoint"):
        out = tmp_path / f"{case}.json"
        code = main(
            ["propagate-classical", "--case", case, "--t", "0.4", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["all_passed"] is True
    capsys.readouterr()


def test_propagate_classical_reports_the_operator_with_its_coefficients(tmp_path, capsys):
    # The report's operator is the CPI Hamiltonian's text, so it parses back
    # and tells H from -H.
    case = superfield.get_case("bosonic")
    reported = []
    for text in ("p^2/2 + q^2/2", "-(p^2/2 + q^2/2)"):
        out = tmp_path / "r.json"
        argv = ["propagate-classical", "--case", "bosonic", f"--hamiltonian={text}", "--out", str(out)]
        assert main(argv) == 0
        operator = json.loads(out.read_text())["extras"]["operator"]
        assert case.context.parse(operator) == cpi.cpi_hamiltonian(case, case.context.parse(text))
        reported.append(operator)
    assert reported[0] != reported[1]
    capsys.readouterr()


def test_propagate_classical_serves_every_accepted_truncation(capsys):
    # Products are exact, so transport agrees with the classical flow at any
    # truncation, with a cross term, and with c_xi^2 at grassmann T = 1.
    runs = [
        ["--case", "bosonic", "--truncation", str(t), "--seed", str(s)]
        for t in (1, 5, 6, 8)
        for s in (0, 1, 2)
    ]
    runs += [
        ["--case", "bosonic", "--hamiltonian", "p^2/2+q^2/2+q*p/3", "--seed", str(s)]
        for s in (1, 2, 3)
    ]
    runs += [["--case", "grassmann", "--truncation", str(t)] for t in (1, 2)]
    for argv in runs:
        assert main(["propagate-classical", *argv]) == 0, argv
    capsys.readouterr()


def test_check_dirac_is_exact_and_takes_no_seed(tmp_path, capsys):
    path = tmp_path / "dirac.json"
    assert main(["check-dirac", "--out", str(path)]) == 0
    capsys.readouterr()
    report = json.loads(path.read_text())
    assert report["parameters"] == {}
    assert [(c["residual"], c["tolerance"]) for c in report["checks"]] == [(0, None)] * 3
    with pytest.raises(SystemExit):
        main(["check-dirac", "--seed", "3"])
    capsys.readouterr()


def test_seed_falls_back_to_environment(tmp_path):
    out = tmp_path / "seeded.json"
    proc = run_cli(
        "propagate-classical", "--case", "grassmann", "--out", str(out),
        env_extra={"SPINDEQ_SEED": "11"},
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["parameters"]["seed"] == 11


def test_flag_overrides_environment(tmp_path):
    out = tmp_path / "seeded.json"
    proc = run_cli(
        "propagate-classical", "--case", "grassmann", "--seed", "4", "--out", str(out),
        env_extra={"SPINDEQ_SEED": "11"},
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["parameters"]["seed"] == 4


def test_propagate_classical_records_its_seed(tmp_path, capsys, monkeypatch):
    out = tmp_path / "report.json"
    argv = ["propagate-classical", "--case", "grassmann", "--out", str(out)]
    monkeypatch.delenv("SPINDEQ_SEED", raising=False)
    for extra, env, seed in (([], None, 0), ([], "7", 7), (["--seed", "5"], "7", 5)):
        if env is not None:
            monkeypatch.setenv("SPINDEQ_SEED", env)
        assert main(argv + extra) == 0
        assert json.loads(out.read_text())["parameters"]["seed"] == seed
    capsys.readouterr()


def test_all_reports_83_unique_checks_and_its_seed(tmp_path, capsys):
    out = tmp_path / "all.json"
    assert main(["all", "--seed", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names)) == 83
    assert report["parameters"] == {"seed": 4}


ALL_ROW_NAMES = (
    [f"bosonic-{h}-{part}" for h in ("free", "harmonic", "quartic", "bilinear")
     for part in ("cpi", "surface")]
    + ["grassmann-spin-cpi", "grassmann-spin-surface", "coadjoint-cpi", "coadjoint-surface",
       "coadjoint-gamma-cpi", "coadjoint-gamma-extra", "observable-map-liouville",
       "observable-map-taylor-route", "isomorphism-Sx", "isomorphism-Sy", "isomorphism-Sz",
       "isomorphism-N", "su2-commutator-xy", "su2-commutator-yz", "su2-commutator-zx",
       "isomorphism-hamiltonian-generic-field"]
    + [f"slicing-{field}-{row}" for field in ("axis-field", "generic-field")
       for row in ("error-at-1000", "ratio-125", "ratio-250", "ratio-500", "monotone")]
    + ["dirac-canonical-pair", "dirac-constraints-vanish", "dirac-so3-relations",
       "precession-height-equation", "precession-angle-equation", "precession-period-identity",
       "precession-height-conserved", "precession-energy-conserved",
       "precession-flow-composition"]
    + [f"cpi-coadjoint-transport-{n}" for n in range(5)]
    + ["cpi-coadjoint-eta-marginal-invariant", "cpi-coadjoint-composition",
       "cpi-coadjoint-ghosts-constant", "cpi-coadjoint-generator"]
    + [f"cpi-grassmann-eigen-({a}, {b}, {j}, {k})" for a in (0, 1) for b in (0, 1)
       for j in (0, 1, 2) for k in (0, 1)]
    + ["cpi-grassmann-phase-xi-cxi", "cpi-grassmann-constant-annihilated"]
    + [f"cpi-bosonic-transport-{n}" for n in range(5)]
)


def test_all_rows_keep_their_names_and_order(tmp_path, capsys):
    out = tmp_path / "all.json"
    assert main(["all", "--seed", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    assert [c["name"] for c in json.loads(out.read_text())["checks"]] == ALL_ROW_NAMES
    assert len(ALL_ROW_NAMES) == 83


def test_explicit_hamiltonian_at_truncation_one_gives_the_stock_rows(tmp_path, capsys):
    # The stock harmonic oscillator, spelled out, must not be held to the
    # truncation: T bounds the transported wavefunctions, not the Hamiltonian.
    base = ["propagate-classical", "--case", "bosonic", "--truncation", "1", "--seed", "3"]
    stock, explicit = tmp_path / "stock.json", tmp_path / "explicit.json"
    assert main(base + ["--out", str(stock)]) == 0
    assert main(base + ["--hamiltonian", "p^2/2+q^2/2", "--out", str(explicit)]) == 0
    capsys.readouterr()
    rows = [json.loads(path.read_text())["checks"] for path in (stock, explicit)]
    assert rows[0] == rows[1] and len(rows[0]) == 5


def test_off_phase_space_hamiltonians_are_rejected(capsys):
    for case, text in (("bosonic", "c_q*q"), ("coadjoint", "c_phi*eta^2")):
        assert main(["verify-dequantization", "--case", case, "--hamiltonian", text]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the CPI Hamiltonian needs an even H")


def test_report_round_trip(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["check-dirac", "--out", str(path)]) == 0
    capsys.readouterr()
    report = RunReport.from_json(path.read_text())
    assert report.schema == SCHEMA_VERSION
    assert report.all_passed
    assert report.failures() == []
    assert json.loads(report.to_json()) == json.loads(path.read_text())


def test_a_report_read_back_gives_the_verdicts_of_the_run(tmp_path, capsys):
    # from_json rebuilds each row from its residual and tolerance, so the
    # verdicts it derives are the ones the run wrote, failing rows included.
    path = tmp_path / "report.json"
    assert main(["all", "--seed", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    failing = RunReport("propagate-quantum", {}, check_slice_errors([(1, 1.0), (2, 1.0)]), 0.0)
    for text in (path.read_text(), failing.to_json()):
        data, report = json.loads(text), RunReport.from_json(text)
        assert [c.passed for c in report.checks] == [c["passed"] for c in data["checks"]]
        assert report.all_passed is data["all_passed"]
        assert json.loads(report.to_json()) == data
    assert report.failures() == ["slice-error-n=1", "slice-error-n=2"]


def test_a_run_stopped_by_an_error_still_writes_its_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = ["verify-dequantization", "--case", "bosonic", "--hamiltonian", "q +* p",
            "--report", str(path)]
    assert main(argv) == 1
    message = "expected a value, got '*' (at position 3)"
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    data = json.loads(path.read_text())
    assert data["schema"] == SCHEMA_VERSION
    assert data["checks"] == [] and data["all_passed"] is False
    assert data["parameters"]["hamiltonian"] == "q +* p"
    assert data["error"] == {"class": "ParseError", "message": message}
    report = RunReport.from_json(path.read_text())
    assert not report.all_passed and report.error == data["error"]
    assert json.loads(report.to_json()) == data
    # A rejected number that is not finite is recorded as text, not as NaN.
    assert main(["propagate-classical", "--case", "bosonic", "--t", "nan", "--out", str(path)]) == 1
    capsys.readouterr()
    data = json.loads(path.read_text(), parse_constant=lambda name: pytest.fail(name))
    assert data["parameters"]["t"] == "nan" and data["error"]["class"] == "ValueError"


@pytest.mark.parametrize(
    "lagrangian, residual",
    [
        # Both monomials name the bilinear lam_q*lam_p, with betas -1 and 2;
        # the first fixes it, and the second is left over.
        ("dot(q)*lam_q + 2*dot(p)*lam_p", "3*dot(lam_q)*lam_p"),
        # Undotting dot(cbar_p) collides with the odd cbar_p before it.
        ("q*cbar_p*dot(cbar_p)", "-lam_p*cbar_p*dot(cbar_p)"),
        # Both monomials give beta -1, so one total derivative absorbs them.
        ("dot(q)*lam_q - dot(p)*lam_p", None),
        # A twice-dotted auxiliary has no binding to miss; the scan refuses it.
        ("dot(dot(lam_q))*q", "dot(lam_q)*dot(lam_p)"),
    ],
)
def test_the_surface_split_on_worked_lagrangians(lagrangian, residual, tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = ["verify-dequantization", "--case", "bosonic", "--lagrangian", lagrangian]
    code = main([*argv, "--report", str(path)])
    captured = capsys.readouterr()
    data = json.loads(path.read_text())
    if residual is None:
        assert code == 0 and data["all_passed"]
        assert [row["name"] for row in data["checks"]] == ["decomposition-exact"]
        return
    assert code == 1 and captured.out == ""
    message = "dequantization result is not a CPI Lagrangian plus a total derivative"
    assert captured.err == f"error: {message}\n"
    assert data["error"]["message"] == message
    assert data["error"]["payload"]["residual"] == residual


def test_an_identity_violation_reports_its_residual(tmp_path, capsys, monkeypatch):
    def violated(lagrangian, case):
        raise IdentityViolationError("not a CPI Lagrangian", payload={"residual": "dot(lam_p)*q"})

    monkeypatch.setattr(superfield, "dequantize", violated)
    path = tmp_path / "report.json"
    assert main(["verify-dequantization", "--case", "bosonic", "--report", str(path)]) == 1
    assert capsys.readouterr().err == "error: not a CPI Lagrangian\n"
    data = json.loads(path.read_text())
    assert data["checks"] == [] and data["all_passed"] is False
    assert data["error"] == {
        "class": "IdentityViolationError",
        "message": "not a CPI Lagrangian",
        "payload": {"residual": "dot(lam_p)*q"},
    }
    # A report path that cannot be written leaves the one error line.
    missing = tmp_path / "no-such-dir" / "report.json"
    assert main(["verify-dequantization", "--case", "bosonic", "--report", str(missing)]) == 1
    assert capsys.readouterr().err == "error: not a CPI Lagrangian\n"
    assert main(["check-dirac", "--out", str(missing)]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 2]")
    assert not missing.exists()


def test_report_names_only_the_numeric_libraries_that_ran(tmp_path, capsys):
    # Every run is exact and loads neither numpy nor scipy, so a report names
    # spindeq and Python only, bosonic transport included.
    for argv in (["verify-dequantization", "--case", "bosonic", "--report"],
                 ["propagate-classical", "--case", "bosonic", "--seed", "1", "--out"]):
        path = tmp_path / "r.json"
        proc = run_cli(*argv, str(path))
        assert proc.returncode == 0, proc.stderr
        versions = json.loads(path.read_text())["versions"]
        assert versions == {"spindeq": cli.__version__,
                            "python": ".".join(map(str, sys.version_info[:3]))}


def test_report_without_versions_still_loads(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["check-dirac", "--out", str(path)]) == 0
    capsys.readouterr()
    data = json.loads(path.read_text())
    del data["versions"]
    assert RunReport.from_json(json.dumps(data)).versions == {}


def test_failing_checks_exit_one_and_name_the_check(capsys):
    # An evolution window this coarse cannot meet the propagation bound.
    code = main(["propagate-quantum", "--b", "0,0,9999", "--t", "1.0", "--slices", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out
    assert captured.err.startswith("failed checks: slice-error-n=1")


def test_propagate_classical_reads_its_rates_off_the_hamiltonian(tmp_path, capsys):
    # The stock grassmann H at w = 3, given as text, transports at rate 3
    # whatever --omega says.
    argv = ["propagate-classical", "--case", "grassmann", "--hamiltonian=-(3/2)*(1-2*xi*xibar)"]
    assert main(argv) == 0
    # H = -2*eta is the stock coadjoint H at muB = 2.
    rows = []
    for extra in (["--hamiltonian=-2*eta"], ["--muB", "2"]):
        out = tmp_path / "coadjoint.json"
        assert main(["propagate-classical", "--case", "coadjoint", "--out", str(out), *extra]) == 0
        rows.append(json.loads(out.read_text())["checks"])
    assert rows[0] == rows[1]
    capsys.readouterr()
    # A coadjoint H that is not -muB*eta plus a constant has no rate to
    # check against.
    assert main(["propagate-classical", "--case", "coadjoint", "--hamiltonian=eta^2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: coadjoint transport"), captured.err


def test_one_slice_count_reports_only_its_error(capsys):
    assert main(["propagate-quantum", "--b", "1,0,0", "--t", "1", "--slices", "2"]) == 0
    out = capsys.readouterr().out
    assert "propagate-quantum: 1 checks, 0 failures" in out
    assert "error-decreases-with-slices" not in out


def test_input_flags_that_would_be_ignored_are_rejected(capsys):
    lagrangian = ["verify-dequantization", "--case", "coadjoint", "--lagrangian", "eta*dot(phi)"]
    verify = ["verify-dequantization", "--case", "bosonic"]
    rejected = (
        (lagrangian + ["--hamiltonian", "eta"], "--lagrangian", "--hamiltonian"),
        (lagrangian + ["--builtin", "spin"], "--lagrangian", "--builtin"),
        (lagrangian + ["--builtin", "nope"], "--lagrangian", "--builtin"),
        (lagrangian + ["--gamma"], "--lagrangian", "--gamma"),
        (verify + ["--hamiltonian", "q^2", "--builtin", "harmonic"], "--hamiltonian", "--builtin"),
        (["propagate-classical", "--case", "bosonic", "--omega", "5"], "--omega", "'w'"),
        (["propagate-classical", "--case", "bosonic", "--muB", "3"], "--muB", "'muB'"),
        (["propagate-classical", "--case", "grassmann", "--muB", "2"], "--muB", "'muB'"),
        (["propagate-classical", "--case", "coadjoint", "--omega", "2"], "--omega", "'w'"),
        (["propagate-classical", "--case", "coadjoint", "--hamiltonian=-2*eta", "--muB", "1"],
         "--muB", "'muB'"),
        (["propagate-classical", "--case", "grassmann", "--hamiltonian=xi*xibar", "--omega", "2"],
         "--omega", "'w'"),
    )
    for argv, flag, named in rejected:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + flag), captured.err
        assert named in captured.err, captured.err
    # An empty value is an input too, not a flag left out.
    for argv in (verify + ["--builtin="], verify + ["--hamiltonian="], verify + ["--lagrangian="],
                 ["propagate-classical", "--case", "bosonic", "--hamiltonian="]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), captured.err


def test_propagate_classical_records_only_the_constants_it_used(tmp_path, capsys):
    # A flag left out records its default 1 only where the Hamiltonian has the constant.
    used = (
        (["--case", "bosonic"], {}),
        (["--case", "grassmann"], {"omega": 1.0}),
        (["--case", "grassmann", "--hamiltonian=-(3/2)*(1-2*xi*xibar)"], {}),
        (["--case", "coadjoint"], {"muB": 1.0}),
        (["--case", "coadjoint", "--muB", "2"], {"muB": 2.0}),
    )
    for argv, constants in used:
        out = tmp_path / "report.json"
        assert main(["propagate-classical", *argv, "--out", str(out)]) == 0
        parameters = json.loads(out.read_text())["parameters"]
        assert {k: parameters[k] for k in ("omega", "muB") if parameters[k] is not None} == constants
    capsys.readouterr()


def test_propagate_classical_rejects_a_constant_without_a_flag(tmp_path, capsys):
    # Only w and muB have a flag, so nothing binds any other constant; a run
    # must not pick a value, and the message names the flags that bind.
    out = tmp_path / "report.json"
    for case, hamiltonian, constant in (("bosonic", "alpha*q*p", "alpha"),
                                        ("bosonic", "hbar*q^2/2", "hbar"),
                                        ("coadjoint", "-muB*eta + gamma*eta", "gamma")):
        argv = ["propagate-classical", "--case", case, "--hamiltonian", hamiltonian,
                "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unbound constants"), captured.err
        assert f"'{constant}'" in captured.err
        assert all(flag in captured.err for flag in ("--hamiltonian", "--omega", "--muB"))
        assert "coefficients" not in captured.err
        report = json.loads(out.read_text())
        assert report["checks"] == [] and report["all_passed"] is False
        assert report["error"]["class"] == "UnsupportedCaseError"


@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_a_seed_in_the_environment_that_is_not_an_integer_is_rejected(value, tmp_path, capsys,
                                                                       monkeypatch):
    monkeypatch.setenv("SPINDEQ_SEED", value)
    out = tmp_path / "report.json"
    assert main(["all", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    message = f"SPINDEQ_SEED must be an integer, got {value!r}"
    assert captured.out == "" and captured.err == f"error: {message}\n"
    report = json.loads(out.read_text())
    assert report["error"] == {"class": "ValueError", "message": message}
    assert report["checks"] == [] and report["all_passed"] is False
    # A --seed flag does not read the environment.
    assert main(["all", "--seed", "2", "--out", str(out)]) == 0
    capsys.readouterr()


def test_bare_verify_dequantization_checks_the_default_stock_hamiltonian(tmp_path, capsys):
    for case in superfield.CASES:
        bare, named = tmp_path / "bare.json", tmp_path / "named.json"
        default = superfield.get_case(case).hamiltonians[0][0]
        assert main(["verify-dequantization", "--case", case, "--report", str(bare)]) == 0
        assert main(["verify-dequantization", "--case", case, "--builtin", default,
                     "--report", str(named)]) == 0
        reports = [json.loads(path.read_text()) for path in (bare, named)]
        assert reports[0]["checks"] == reports[1]["checks"]
        assert reports[0]["extras"] == reports[1]["extras"]
    assert superfield.get_case("bosonic").hamiltonians[0][0] == "harmonic"
    capsys.readouterr()


def test_precession_rejects_a_rate_that_is_not_finite(capsys):
    # muB*b overflows to inf; the run must stop before any check turns nan.
    argv = ["precession", "--theta0", "1", "--phi0", "0", "--muB", "1e308", "--b", "10",
            "--t", "1", "--steps", "2"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --muB and --b"), captured.err


def test_propagate_quantum_rejects_a_larmor_phase_that_is_not_finite(capsys):
    # |b| overflows to inf in the first, mu_b*|b|*t in the second; the
    # closed-form oracle would take cos and sin of inf.
    for argv in (
        ["--b", "1.7e308,1.7e308,0", "--t", "1", "--slices", "2,4"],
        ["--b", "0,0,1", "--mu-b", "1e308", "--t", "10", "--slices", "2,4"],
    ):
        assert main(["propagate-quantum", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --b, --mu-b and --t: the Larmor phase"), captured.err


def test_precession_bounds_its_phase_as_transport_does(capsys):
    # The exact clock is read off math.tan of the phase muB*b*t, which
    # doubles stop resolving past cpi.MAX_PHASE, as in propagate-classical.
    argv = ["precession", "--theta0", "1", "--phi0", "0"]
    assert main([*argv, "--muB", "1e5", "--t", "1e5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --muB, --b and --t: the phase"), captured.err
    assert main([*argv, "--muB", "1e3", "--t", "1e2"]) == 0
    assert capsys.readouterr().out.count("ok   precession-") == 4


def test_precession_rejects_an_energy_that_is_not_finite(capsys):
    # muB*b is finite, but lam*muB*b overflows; three rows would turn nan.
    argv = ["precession", "--theta0", "1", "--phi0", "0", "--muB", "1e308", "--b", "0.5",
            "--lam", "4", "--t", "1", "--steps", "2"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --lam, --muB and --b"), captured.err
    # At radius 1 the energy is finite; a short --t keeps the phase within
    # cpi.MAX_PHASE.
    assert main(argv[:-6] + ["--lam", "1", "--t", "1e-302", "--steps", "2"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "lam, accepted",
    [
        ("1e-320", True),
        ("1e-310", True),
        (repr(math.nextafter(sys.float_info.min, 0)), True),  # the largest subnormal
        (repr(sys.float_info.min), True),
        ("2.3e-308", True),
        ("1e-300", True),
        ("0", False),
        ("-1", False),
    ],
)
def test_precession_takes_every_positive_radius(lam, accepted, capsys):
    # The rows are exact with lam symbolic, so a subnormal radius passes
    # them; a radius that is not positive is no sphere.
    code = main(["precession", "--theta0", "1", "--phi0", "0", "--muB", "1", "--lam", lam,
                 "--t", "1", "--steps", "2"])
    captured = capsys.readouterr()
    if accepted:
        assert code == 0, captured.err
        assert "4 checks, 0 failures" in captured.out
    else:
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: --lam must be positive"), captured.err


def test_precession_passes_at_a_radius_near_the_pole(tmp_path, capsys):
    # lam*sin(theta0) ~ 6e-314 is subnormal; the exact rows need no
    # reciprocal of it, and the table's height and energy stay finite.
    out = tmp_path / "orbit.csv"
    argv = ["precession", "--theta0", "3.14159", "--phi0", "0", "--muB", "1",
            "--lam", "2.3e-308", "--t", "1", "--steps", "2", "--out", str(out)]
    assert main(argv) == 0
    assert "4 checks, 0 failures" in capsys.readouterr().out
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert all(math.isfinite(float(row[k])) for row in rows for k in ("eta", "H"))


def test_precession_checks_at_the_cayley_clock_of_its_time():
    # r = tan(nu*t/2)/nu for nu = -muB*b, exact, and t/2 at zero field.
    for mu_b, expected in (("0.9", math.tan(-0.9 * 1.3) / -1.17), ("0", 1.0)):
        args = cli.build_parser().parse_args(
            ["precession", "--theta0", "1.1", "--phi0", "0.3", "--muB", mu_b, "--b", "1.3",
             "--t", "2"])
        cli._prepare_inputs(args)
        checks, extras = cli._cmd_precession(args)
        assert all(row.passed and row.residual == 0 for row in checks)
        assert float(Fraction(extras["clock"])) == pytest.approx(expected, rel=1e-12)


def test_one_parser_serves_every_main_call(monkeypatch, capsys):
    built = []
    stock = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or stock())
    assert main(["check-dirac"]) == 0
    assert main(["precession", "--theta0", "1", "--phi0", "0", "--muB", "1", "--t", "1",
                 "--steps", "2"]) == 0
    assert main(["check-dirac"]) == 0
    with pytest.raises(SystemExit):
        main(["precession", "--theta0"])
    assert main(["check-dirac"]) == 0
    assert len(built) == 1
    capsys.readouterr()


def test_a_handler_patched_after_the_first_call_runs(monkeypatch, tmp_path, capsys):
    # The parser holds no handler: main looks it up by name on every call.
    assert main(["check-dirac"]) == 0
    monkeypatch.setattr(cli, "_cmd_check_dirac", lambda args: ([], {"patched": True}))
    out = tmp_path / "report.json"
    assert main(["check-dirac", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["extras"] == {"patched": True} and report["checks"] == []
    assert report["parameters"] == {}
    capsys.readouterr()


def test_propagate_classical_builds_the_cpi_hamiltonian_once(monkeypatch, tmp_path, capsys):
    # The rows and extras.operator share one H~.
    calls = []
    stock = cpi.build_cpi_hamiltonian
    monkeypatch.setattr(cpi, "build_cpi_hamiltonian", lambda spec: calls.append(spec) or stock(spec))
    out = tmp_path / "bosonic.json"
    assert main(["propagate-classical", "--case", "bosonic", "--seed", "1", "--out", str(out)]) == 0
    assert len(calls) == 1
    assert json.loads(out.read_text())["extras"]["spectrum_real"] is True
    capsys.readouterr()


@pytest.mark.parametrize(
    "hamiltonian, t, accepted",
    [
        ("p^2/2 + q^2/2", "3e6", False),
        ("p^2/2 + q^2/2", "1e8", False),
        ("p^2/2", "1000", True),
        ("q*p", "10", True),
        ("q*p", "1000", False),  # tanh(500) rounds to 1: the clock of an infinite time
        ("p^2/2 + q^2/2", "1e6", True),
        ("p^2/2", "20", True),
        ("q*p", "3", True),
    ],
)
def test_bosonic_transport_bounds_its_flow(hamiltonian, t, accepted, capsys):
    # Past |nu*t| = 1e6 doubles hold no phase, and a hyperbolic clock that
    # rounds to 1 is no finite time; every accepted run is exact.  No input
    # may warn.
    argv = ["propagate-classical", "--case", "bosonic", f"--hamiltonian={hamiltonian}", "--t", t]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    if accepted:
        assert code == 0, captured.err
        assert "5 checks, 0 failures" in captured.out
        assert captured.out.count("(residual 0)\n") == 5
    else:
        assert code == 1
        assert captured.out == ""
        hyperbolic = hamiltonian == "q*p"
        bound = "a hyperbolic clock tanh(kappa*t/2) below 1" if hyperbolic else "|nu*t| <= 1e+06"
        assert captured.err.startswith(f"error: transport needs {bound}"), captured.err
        assert "--t" in captured.err and "Traceback" not in captured.err


def test_coadjoint_report_carries_its_operator(tmp_path, capsys):
    out = tmp_path / "coadjoint.json"
    assert main(["propagate-classical", "--case", "coadjoint", "--muB", "2", "--out", str(out)]) == 0
    extras = json.loads(out.read_text())["extras"]
    assert extras == {"operator": "-2*Lam_phi", "spectrum_real": True,
                      "clock": str(Fraction(0.7) / 2)}  # at det M = 0 the clock is t/2
    capsys.readouterr()


def test_deep_nesting_and_large_powers_end_cleanly():
    nested = "(" * 2000 + "q" + ")" * 2000
    done = run_cli("verify-dequantization", "--case", "bosonic", "--hamiltonian", nested)
    assert done.returncode == 1
    assert done.stderr.startswith("error: parentheses and dot(...) nested deeper than")
    assert "Traceback" not in done.stderr
    code = main(["verify-dequantization", "--case", "bosonic", "--hamiltonian", "q^99999999"])
    assert code == 0


@pytest.mark.parametrize(
    "hamiltonian, position",
    [("1" * 5000 + "*q", 0), ("p + q^" + "1" * 5000, 6)],
)
def test_numerals_beyond_the_int_string_limit_are_parse_errors(hamiltonian, position, tmp_path,
                                                              capsys):
    # A numeral or exponent longer than Python converts to int is rejected as
    # input, with its position, not as the interpreter's ValueError.
    path = tmp_path / "report.json"
    argv = ["verify-dequantization", "--case", "bosonic", "--hamiltonian", hamiltonian,
            "--report", str(path)]
    assert main(argv) == 1
    message = (
        f"integer literal 111111111111... has 5000 digits, more than the "
        f"{sys.get_int_max_str_digits()} accepted (at position {position})"
    )
    assert capsys.readouterr().err == f"error: {message}\n"
    assert json.loads(path.read_text())["error"] == {"class": "ParseError", "message": message}


@pytest.mark.parametrize("hamiltonian, digits", [("10^5000*q", 5001), ("2^20000*q*p", 6021)])
def test_coefficients_beyond_the_int_string_limit_are_format_errors(hamiltonian, digits, tmp_path,
                                                                    capsys):
    # A coefficient computed by ^ may be too long to print; the run stops with
    # the printer's error, and the report records it.
    path = tmp_path / "report.json"
    argv = ["verify-dequantization", "--case", "bosonic", "--hamiltonian", hamiltonian,
            "--report", str(path)]
    assert main(argv) == 1
    message = (
        f"a coefficient has {digits} digits, more than the "
        f"{sys.get_int_max_str_digits()} that can be printed"
    )
    assert capsys.readouterr().err == f"error: {message}\n"
    assert json.loads(path.read_text())["error"] == {"class": "FormatError", "message": message}


@pytest.mark.parametrize(
    "extra",
    [
        ["--muB", "3e7"],
        ["--muB", "1e8"],
        ["--t", "1e7"],
        ["--muB", "1e308"],
        ["--muB", "1e-310"],
        ["--muB", "1e6", "--t", "1"],
        ["--muB", "1", "--t", "1e6"],
        ["--muB", "1e-300"],
        ["--muB", "0"],
        ["--hamiltonian=-10^400*eta"],
        ["--muB", "0.8", "--truncation", "16"],
    ],
    ids=",".join,
)
def test_coadjoint_transport_is_exact_at_any_rate_and_time(extra, tmp_path, capsys):
    # A float --muB and --t bind as their exact binary values, and the Taylor
    # sum of exp(-itH̃) ends, so there is no phase too large or too small.
    out = tmp_path / "r.json"
    code = main(["propagate-classical", "--case", "coadjoint", *extra, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "9 checks, 0 failures" in captured.out
    checks = json.loads(out.read_text())["checks"]
    assert all(c["residual"] == 0 and type(c["residual"]) is int for c in checks)
    assert all(c["tolerance"] is None for c in checks)


def test_coadjoint_hamiltonian_form_is_checked_before_its_rate(capsys):
    # eta^2 and eta*phi have a field with M != 0; -(1+i)*eta has the right
    # form and a rate that is not real.
    for text, message in (("eta^2", "coadjoint transport needs H = -muB*eta + constant"),
                          ("eta*phi", "coadjoint transport needs H = -muB*eta + constant"),
                          ("-(1+i)*eta", "transport needs a real rate, got (1+i)")):
        assert main(["propagate-classical", "--case", "coadjoint", f"--hamiltonian={text}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
    # Exact at any rate: a complex rate past the float range is still a
    # complex rate, printed exactly, not a float-range problem.
    assert main(["propagate-classical", "--case", "coadjoint", "--hamiltonian=-(10^400)*i*eta"]) == 1
    assert capsys.readouterr().err == f"error: transport needs a real rate, got {10**400}*i\n"


@pytest.mark.parametrize(
    "case, hamiltonian",
    [("bosonic", "10^400*q*p"), ("grassmann", "10^400*xi*xibar")],
)
def test_transport_rejects_coefficients_beyond_the_float_range(case, hamiltonian):
    # H is exact, but the float engine reads its rates as floats; past the
    # float range that is an input error, not a traceback.
    done = run_cli("propagate-classical", "--case", case, f"--hamiltonian={hamiltonian}")
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: transport needs the coefficients of H"), done.stderr
    assert "--hamiltonian" in done.stderr
    assert "Traceback" not in done.stderr


def test_grassmann_rows_are_exact_at_a_float_omega(tmp_path, capsys):
    # --omega and --muB bind as their exact binary values, so all 26
    # grassmann rows and all 9 coadjoint rows are identities.
    out = tmp_path / "r.json"
    for argv, count, name in ((["--case", "grassmann", "--omega", "1.3", "--t", "0.4"], 26, "cpi-grassmann-"),
                              (["--case", "coadjoint", "--muB", "0.8"], 9, "cpi-coadjoint-")):
        assert main(["propagate-classical", *argv, "--out", str(out)]) == 0
        exact = [c for c in json.loads(out.read_text())["checks"] if c["tolerance"] is None]
        assert len(exact) == count and all(c["name"].startswith(name) for c in exact)
        assert all(type(c["residual"]) is int and c["residual"] == 0 for c in exact)
    capsys.readouterr()


def test_grassmann_transport_bounds_its_phase():
    # Past |nu*t| = 1e6 rad, nu = |omega|, doubles hold no phase
    # e^{-i*omega*t}; a tiny omega is exact, and its weights divide by
    # det M = omega^2 exactly.
    done = run_cli("propagate-classical", "--case", "grassmann", "--omega", "1e200")
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: transport needs |nu*t| <= 1e+06"), done.stderr
    assert "--omega" in done.stderr and "--t" in done.stderr
    assert "Traceback" not in done.stderr
    done = run_cli("propagate-classical", "--case", "grassmann", "--omega", "1e-300")
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout.count("(residual 0)\n") == 26
    assert "26 checks, 0 failures" in done.stdout


# The hyperbolic H on which the float engine failed 5 of 5 true identities
# at truncation 8 and above.
HYPERBOLIC = "--hamiltonian=(1/4)*q^2 - p^2 + 3*q*p"


@pytest.mark.parametrize("truncation", ["6", "8", "12", "16"])
def test_hyperbolic_transport_is_exact_at_every_truncation(truncation, tmp_path, capsys):
    out = tmp_path / "r.json"
    argv = ["propagate-classical", "--case", "bosonic", HYPERBOLIC, "--seed", "1",
            "--truncation", truncation, "--out", str(out)]
    assert main(argv) == 0, capsys.readouterr().err
    capsys.readouterr()
    checks = json.loads(out.read_text())["checks"]
    assert len(checks) == 5
    assert all(type(c["residual"]) is int and c["residual"] == 0 for c in checks)
    assert all(c["tolerance"] is None for c in checks)


def test_propagate_classical_records_the_clock_that_reruns_its_rows(tmp_path, capsys):
    # extras["clock"] is the exact Cayley clock r of --t; check_transport at
    # r alone gives the report's rows again.
    from spindeq import suite

    for case, extra in (("bosonic", [HYPERBOLIC, "--t", "1.3"]), ("grassmann", ["--omega", "0.9"]),
                        ("coadjoint", ["--muB", "0.8"])):
        out = tmp_path / "r.json"
        assert main(["propagate-classical", "--case", case, *extra, "--seed", "2",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        parameters = report["parameters"]
        spec_h = parameters["hamiltonian"]
        ctx = superfield.get_case(case).context
        coefficients = {k: parameters[f] for k, f in (("w", "omega"), ("muB", "muB"))
                        if parameters.get(f) is not None}
        spec = cpi.CpiSpec(case, hamiltonian=None if spec_h is None else ctx.parse(spec_h),
                           coefficients=coefficients, truncation=parameters["truncation"])
        rows = suite.check_transport(spec, Fraction(report["extras"]["clock"]), 2)
        assert [row.to_dict() for row in rows] == report["checks"]
    capsys.readouterr()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--hamiltonian=p^2/2+q^2/2+q"], "transport with a linear term in H needs det M = 0"),
        (["--hamiltonian=2*q*p+q^2", "--t", "20"], "transport needs a hyperbolic clock"),
        (["--hamiltonian=10^400*(q^2-p^2)/2"],
         "transport needs the coefficients of H, and the rates they give, within the float range"),
        (["--hamiltonian=q*p", "--t", "1e200"], "transport needs a hyperbolic clock"),
    ],
)
def test_transport_rejects_a_drift_off_det_zero_and_an_infinite_clock(extra, message, capsys):
    # D != 0 with a drift has no degree-preserving H̃; at D = -4, t = 20 the
    # clock tanh(2t/2)/2 rounds to 1/2, where 1 + D*r^2 = 0.  A rate beyond
    # the float range is refused, and at D = -1, t = 1e200 the square
    # -(t/2)^2 overflows a float, so tanh(t/2) is taken as 1.
    assert main(["propagate-classical", "--case", "bosonic", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}"), captured.err


def test_verify_dequantization_rejects_a_second_time_derivative_of_a_base_field(tmp_path,
                                                                                capsys):
    # The superfield bindings cover the base fields at dot orders 0 and 1, so
    # a higher derivative of one is refused, not left unexpanded.
    path = tmp_path / "report.json"
    for name, text, fields in (("bosonic", "p*dot(dot(q))", "['q']"),
                               ("grassmann", "xibar*dot(dot(xi))", "['xi']"),
                               ("coadjoint", "eta*dot(dot(phi))", "['phi']")):
        assert main(["verify-dequantization", "--case", name, "--lagrangian", text,
                     "--report", str(path)]) == 1
        message = ("dequantization binds the base fields at dot orders 0 and 1 only; "
                   f"--lagrangian and --hamiltonian may not use a higher time derivative of "
                   f"{fields}")
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        data = json.loads(path.read_text())
        assert data["checks"] == [] and data["all_passed"] is False
        assert data["error"] == {"class": "UnsupportedCaseError", "message": message}
