"""The benchmark's workloads still run and check clean on the current source.

``bench/workloads.py`` pins what the library returns: the number of rows,
their names and the types of their residuals.  Running the first input
block of seed 0 of every workload in process makes a change to any of these
fail here rather than in a benchmark run.
"""

import importlib.util
import os
import sys

import pytest

WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "workloads.py")


@pytest.fixture
def workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("spindeq_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_workload_checks_clean_on_its_first_block(workloads, tmp_path):
    assert set(workloads.WORKLOADS) == {"suite-all", "dequant-sweep", "cpi-transport"}
    for name, workload in workloads.WORKLOADS.items():
        for inp in workloads.generate(workload, 0, 1):
            problems = workload.check(inp, workload.run(inp, str(tmp_path)))
            assert problems == [], (name, inp.label, problems)
