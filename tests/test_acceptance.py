"""End-to-end acceptance gate.

One test per advertised guarantee, each printing a single PASS/FAIL line
(straight to the terminal, bypassing capture) and enforcing the stated
tolerance and runtime budget.  These call the same check functions the
``spindeq`` command runs, so a green run here matches a green CLI run.
"""

import json
import subprocess
import sys
import time

from spindeq.suite import (
    check_bosonic_dequantization,
    check_coadjoint_dequantization,
    check_cpi_transport,
    check_dirac_brackets,
    check_grassmann_dequantization,
    check_isomorphism,
    check_observable_map,
    check_precession,
    check_slicing,
)


def _run(capsys, label, fn, budget_seconds):
    start = time.perf_counter()
    results = fn()
    elapsed = time.perf_counter() - start
    failures = [r for r in results if not r.passed]
    ok = not failures and elapsed < budget_seconds
    with capsys.disabled():
        detail = f"{len(results)} checks, {elapsed:.2f}s"
        if failures:
            detail += f"; first failure: {failures[0].name} (residual {failures[0].residual})"
        print(f"{'PASS' if ok else 'FAIL'} {label} [{detail}]")
    assert not failures, [f.name for f in failures]
    assert elapsed < budget_seconds, f"{elapsed:.2f}s exceeds {budget_seconds}s budget"


def test_criterion_01_bosonic_dequantization_exact(capsys):
    # Four stock Hamiltonians; residual must be the exactly-zero polynomial.
    _run(capsys, "bosonic dequantization identity", check_bosonic_dequantization, 1.0)


def test_criterion_02_grassmann_dequantization_exact(capsys):
    # Symbolic precession rate; surface term is minus d/dt of the pinned bilinears.
    _run(capsys, "grassmann dequantization identity", check_grassmann_dequantization, 1.0)


def test_criterion_03_coadjoint_dequantization_exact(capsys):
    # Zero and symbolic one-form shift; the shift contributes exactly one extra
    # total derivative.
    _run(capsys, "coadjoint dequantization identity", check_coadjoint_dequantization, 1.0)


def test_criterion_04_observable_map(capsys):
    # i * double odd integral of the composed Hamiltonian equals the
    # first-order generator, exactly.
    _run(capsys, "superfield observable map", check_observable_map, 1.0)


def test_criterion_05_representation_isomorphism(capsys):
    # Matrix and word forms agree exactly on a generic state, for the spin
    # operators and a generic field; su(2) commutators hold in both forms.
    _run(
        capsys,
        "spin operator isomorphism",
        lambda: check_isomorphism(seed=0),
        10.0,
    )


def test_criterion_06_sliced_propagator_convergence(capsys):
    # Max-element error <= 1e-2 at n=1000 and halving the step scales the
    # error by [1.7, 2.3] across n in {125, 250, 500}.
    _run(capsys, "sliced propagator convergence", check_slicing, 1.0)


def test_criterion_07_dirac_brackets(capsys):
    # Canonical pair, constraints central and so(3), each an exact polynomial
    # identity on the sphere (times lam*sin(theta)) with residual 0.
    _run(capsys, "dirac bracket identities", check_dirac_brackets, 5.0)


def test_criterion_08_precession(capsys):
    # Both equations of motion hold as exact Dirac-bracket identities, and the
    # Cayley-clock flow conserves height and energy, composes its clocks and
    # closes after four quarter turns.
    _run(capsys, "precession closed form", check_precession, 1.0)


def test_criterion_09_cpi_transport(capsys):
    # Fourier modes shift by -muB*t, ghosts ride along, grassmann monomial
    # phases match the classical solutions through the operator oracle.
    _run(capsys, "cpi transport vs characteristics", lambda: check_cpi_transport(seed=0), 5.0)


def test_criterion_10_cli_full_suite(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "spindeq", "all", "--out", str(report_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and elapsed < 60.0
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} spindeq all exits 0 [{elapsed:.2f}s]")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60.0
    report = json.loads(report_path.read_text())
    assert report["all_passed"] is True
    assert report["schema"] == "spindeq.report/1"
