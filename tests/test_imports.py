"""Import policy: the package never loads numpy or scipy.

The exact checks (dequantization, Dirac brackets, precession, the spin
isomorphism, transport in every case) never touch a float matrix, and the
spin-1/2 oracles and the classical 2x2 flows are tuples, so importing the
package, running those, ``spindeq all``, ``propagate-quantum`` or
``propagate-classical`` of any case must not load the numeric libraries.
Each probe runs in a fresh interpreter, because this test process has
loaded both long before.
"""

import inspect
import subprocess
import sys
from fractions import Fraction

import pytest

from spindeq import cpi

_PROBE = """
import sys
from spindeq.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print(sorted(name for name in ("numpy", "scipy") if name in sys.modules))
"""


def _loaded_after(code, *args):
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_import_loads_neither_numeric_library():
    code = "import sys, spindeq; print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    assert _loaded_after(code) == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["--version"],
        ["verify-dequantization", "--case", "bosonic"],
        ["verify-dequantization", "--case", "grassmann"],
        ["verify-dequantization", "--case", "coadjoint"],
        ["check-dirac"],
        ["precession", "--theta0", "1", "--phi0", "0", "--muB", "1", "--t", "1",
         "--steps", "4"],
        ["all"],
        ["propagate-classical", "--case", "grassmann", "--omega", "1.3"],  # exact at any --t
    ],
    ids=" ".join,
)
def test_exact_subcommands_load_neither_numeric_library(argv):
    assert _loaded_after(_PROBE, *argv) == "[]"


def test_importing_the_cli_builds_no_parser():
    # The parser is built by the first main call, never at import.
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or "
        "init(self, *a, **k)\n"
        "import spindeq.cli\n"
        "print(len(built), spindeq.cli._parser)"
    )
    assert _loaded_after(code) == "0 None"


def test_propagate_quantum_loads_neither_numeric_library():
    argv = ["propagate-quantum", "--b", "0.3,-0.4,0.8", "--t", "1", "--slices", "10,100"]
    assert _loaded_after(_PROBE, *argv) == "[]"


def test_coadjoint_transport_loads_neither_numeric_library():
    # An exact Taylor sum, an exact affine flow and an exact spectrum, at
    # any rate and time.
    for extra in (["--muB", "0.8"], ["--muB", "1e308"], ["--hamiltonian=-10^400*eta"]):
        argv = ["propagate-classical", "--case", "coadjoint", *extra]
        assert _loaded_after(_PROBE, *argv) == "[]", extra


_GROUP_PROBE = """
import sys
from spindeq import suite
assert all(row.passed for row in suite.{group}())
print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))
"""


@pytest.mark.parametrize("group", ["check_isomorphism", "check_slicing"])
def test_spin_groups_load_neither_numeric_library(group):
    # The spin rows are exact, and the slicing oracles are 2x2 tuples.
    assert _loaded_after(_GROUP_PROBE.format(group=group)) == "[]"


def test_cpi_transport_group_loads_neither_numeric_library():
    # The bosonic and grassmann rows evolve by the exact rotation, and the
    # coadjoint rows by the exact Taylor sum.
    assert _loaded_after(_GROUP_PROBE.format(group="check_cpi_transport")) == "[]"


def test_bosonic_transport_loads_neither_numeric_library():
    # Exact evolution on the Cayley clock at a float --t, for every sign of
    # det M, and the exact closure matrix of spectrum_real.
    for extra in ([], ["--hamiltonian=(1/4)*q^2 - p^2 + 3*q*p", "--t", "1.5"],
                  ["--hamiltonian=p^2/2"]):
        argv = ["propagate-classical", "--case", "bosonic", "--seed", "1", *extra]
        assert _loaded_after(_PROBE, *argv) == "[]", extra


def test_expm_stays_a_module_level_function():
    # The benchmark's tracer wraps cpi.expm by name: the exact 2x2 flow at a
    # Cayley clock, here the harmonic one at r = 1/2.
    assert inspect.isfunction(cpi.expm)
    assert cpi.expm.__module__ == "spindeq.cpi"
    half = Fraction(1, 2)
    assert cpi.expm(((0, 1), (-1, 0)), half) == ((Fraction(3, 5), Fraction(4, 5)),
                                                  (Fraction(-4, 5), Fraction(3, 5)))
