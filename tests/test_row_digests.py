"""Every exact row of ``spindeq all`` pinned by a digest, at seeds 0-5.

The 73 exact rows (all but the 10 slicing rows, whose last bits come from
the C math library) each hash their six reports, one per seed: name, both
sides as printed, residual, tolerance and verdict.  A refactor that moves
any of them fails here and names the row.  A change
that means to change a row pins its digest again, with
``PYTHONPATH=src python tests/test_row_digests.py`` printing the current tables.

The rows of ``propagate-classical --case C --seed S`` at its default
``--t 0.7`` are pinned too, one digest per run, for each case and seeds 0-2:
they run at the exact binary value of the Cayley clock of a float time,
which the suite's rational clocks never reach.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

from spindeq import CASES, cli, suite

SEEDS = range(6)
NUMERIC = ("slicing-",)  # rows whose floats come from libm

DIGESTS = {
    "bosonic-free-cpi": "4551ed9436284622",
    "bosonic-free-surface": "0e5b4c78b0b4e78d",
    "bosonic-harmonic-cpi": "1565c402ac5965b3",
    "bosonic-harmonic-surface": "aafad40ac029bf0e",
    "bosonic-quartic-cpi": "b5aa807e9ffae600",
    "bosonic-quartic-surface": "f5f8ee66bd1472ee",
    "bosonic-bilinear-cpi": "e6b567d2bc13a646",
    "bosonic-bilinear-surface": "8d5ceb1a39771b52",
    "grassmann-spin-cpi": "d14e65fd629db168",
    "grassmann-spin-surface": "b741f47277ab958e",
    "coadjoint-cpi": "46ed711a5d52026f",
    "coadjoint-surface": "a2edc1f08d1d06ef",
    "coadjoint-gamma-cpi": "67c7bf5adc8efda1",
    "coadjoint-gamma-extra": "8e59f06ccedfbe2e",
    "observable-map-liouville": "adb623b924e6a98e",
    "observable-map-taylor-route": "af060a5579f69442",
    "isomorphism-Sx": "a07a5f0ce1c9e992",
    "isomorphism-Sy": "50a54a4e59408cf9",
    "isomorphism-Sz": "cf3fc013546151a3",
    "isomorphism-N": "e13faaa71d562ddd",
    "su2-commutator-xy": "d1d0df330854a481",
    "su2-commutator-yz": "fd9ac9074c06ec69",
    "su2-commutator-zx": "1a3bc337664a9554",
    "isomorphism-hamiltonian-generic-field": "c5a2d677f8ba1ed0",
    "dirac-canonical-pair": "573837fa32b2086c",
    "dirac-constraints-vanish": "f4b3154be8df9ee5",
    "dirac-so3-relations": "2301c33c36406417",
    "precession-height-equation": "bf5bb52cf03e1e3b",
    "precession-angle-equation": "02216e837da418d9",
    "precession-period-identity": "cefff860798a5c96",
    "precession-height-conserved": "21b87328567c754b",
    "precession-energy-conserved": "0f89a8d3b8b0634c",
    "precession-flow-composition": "ee9dda77195626d3",
    "cpi-coadjoint-transport-0": "6a5ffa5777f4f502",
    "cpi-coadjoint-transport-1": "3343956183da7a3f",
    "cpi-coadjoint-transport-2": "6aa1236fd7776936",
    "cpi-coadjoint-transport-3": "4753ed325c5aad2f",
    "cpi-coadjoint-transport-4": "4f0118f35f71f7bb",
    "cpi-coadjoint-eta-marginal-invariant": "d0d9ccbb9f3f3f59",
    "cpi-coadjoint-composition": "1e3ac851adb08ac7",
    "cpi-coadjoint-ghosts-constant": "6721578d72c60814",
    "cpi-coadjoint-generator": "c395b46048ce24c3",
    "cpi-grassmann-eigen-(0, 0, 0, 0)": "82eb4f67dba5a2c8",
    "cpi-grassmann-eigen-(0, 0, 0, 1)": "9253587d7dced1fc",
    "cpi-grassmann-eigen-(0, 0, 1, 0)": "24d863157e275a71",
    "cpi-grassmann-eigen-(0, 0, 1, 1)": "96dc9e2a6578283a",
    "cpi-grassmann-eigen-(0, 0, 2, 0)": "3397fc940948779d",
    "cpi-grassmann-eigen-(0, 0, 2, 1)": "353dabfc523c66f1",
    "cpi-grassmann-eigen-(0, 1, 0, 0)": "73db0ec118d470bc",
    "cpi-grassmann-eigen-(0, 1, 0, 1)": "9833f3b936724367",
    "cpi-grassmann-eigen-(0, 1, 1, 0)": "6286a095ff8e1f94",
    "cpi-grassmann-eigen-(0, 1, 1, 1)": "3c6d458e6e75f3e1",
    "cpi-grassmann-eigen-(0, 1, 2, 0)": "a3c9fb3f3c13eae4",
    "cpi-grassmann-eigen-(0, 1, 2, 1)": "9fe8a5a89b8600ca",
    "cpi-grassmann-eigen-(1, 0, 0, 0)": "5e10a8227ae0848e",
    "cpi-grassmann-eigen-(1, 0, 0, 1)": "bfed43a4fc3dbd1f",
    "cpi-grassmann-eigen-(1, 0, 1, 0)": "0f8df1e2fcd0fdd1",
    "cpi-grassmann-eigen-(1, 0, 1, 1)": "0ca9c28915f7659c",
    "cpi-grassmann-eigen-(1, 0, 2, 0)": "1d07aaba86e9dff9",
    "cpi-grassmann-eigen-(1, 0, 2, 1)": "851637f55f3fa83b",
    "cpi-grassmann-eigen-(1, 1, 0, 0)": "66c83ecc429c8c11",
    "cpi-grassmann-eigen-(1, 1, 0, 1)": "12271ec2b3895649",
    "cpi-grassmann-eigen-(1, 1, 1, 0)": "820ed8a6e07fbc43",
    "cpi-grassmann-eigen-(1, 1, 1, 1)": "8ab9b2b222df157a",
    "cpi-grassmann-eigen-(1, 1, 2, 0)": "c30289725f536924",
    "cpi-grassmann-eigen-(1, 1, 2, 1)": "5d51f19f95872c8d",
    "cpi-grassmann-phase-xi-cxi": "362d083265e14a84",
    "cpi-grassmann-constant-annihilated": "afb29065525935f2",
    "cpi-bosonic-transport-0": "bf9a59946a57233d",
    "cpi-bosonic-transport-1": "0ec3d3afaf4e9251",
    "cpi-bosonic-transport-2": "886f094c03a746a1",
    "cpi-bosonic-transport-3": "6888697a45277556",
    "cpi-bosonic-transport-4": "dabfd58e732146f3",
}


CLASSICAL_SEEDS = range(3)

CLASSICAL_DIGESTS = {
    "--case bosonic --seed 0": "28832213a1714a71",
    "--case bosonic --seed 1": "619fae3459a2ca8d",
    "--case bosonic --seed 2": "3126bd06cde7a685",
    "--case grassmann --seed 0": "5ca8cb3ec4d77a56",
    "--case grassmann --seed 1": "5ca8cb3ec4d77a56",
    "--case grassmann --seed 2": "5ca8cb3ec4d77a56",
    "--case coadjoint --seed 0": "ea8cf37f60ada48f",
    "--case coadjoint --seed 1": "943bdae716f60d0b",
    "--case coadjoint --seed 2": "5d419591a3f9df9f",
}


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


def row_digests() -> dict:
    reports: dict = {}
    for seed in SEEDS:
        for row in suite.run_all(seed)[0]:
            if not row.name.startswith(NUMERIC):
                reports.setdefault(row.name, []).append(row.to_dict())
    return {name: _digest(rows) for name, rows in reports.items()}


def classical_digests() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        path = os.path.join(tmp, "report.json")
        for case in CASES:
            for seed in CLASSICAL_SEEDS:
                run = f"--case {case} --seed {seed}"
                assert cli.main(["propagate-classical", *run.split(), "--out", path]) == 0
                with open(path) as handle:
                    out[run] = _digest(json.load(handle)["checks"])
    return out


def _moved(digests: dict, pinned: dict) -> list:
    assert list(digests) == list(pinned)
    return [name for name, digest in pinned.items() if digests[name] != digest]


def test_every_exact_row_keeps_its_digest():
    moved = _moved(row_digests(), DIGESTS)
    assert not moved, f"rows that changed: {moved}"


def test_propagate_classical_at_a_float_time_keeps_its_rows():
    moved = _moved(classical_digests(), CLASSICAL_DIGESTS)
    assert not moved, f"propagate-classical runs whose rows changed: {moved}"


if __name__ == "__main__":
    for table in (row_digests(), classical_digests()):
        for name, digest in table.items():
            print(f'    "{name}": "{digest}",')
        print()
