"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests

Run from the root of the checkout.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"ops_per_s", "latency_p50_s", "latency_tail_s", "setup_s", "peak_rss_mb"}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(workload):
    done = _bench("--workload", workload, "--seed", "7", "--seconds", "0.01", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert set(result["metrics"]) == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_frac =" in done.stdout
    if workload == "cpi-transport":
        assert "known-defect inputs, run once untimed:" in done.stdout


def test_traced_run_prints_every_per_layer_metric():
    done = _bench("--workload", "dequant-sweep", "--seed", "7", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "suite-all", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_inputs_repeat_for_a_seed_and_the_known_defect_classes_run_apart():
    w = workloads.WORKLOADS["cpi-transport"]
    first = workloads.generate(w, 3, 2)
    assert first == workloads.generate(w, 3, 2)
    assert first != workloads.generate(w, 4, 2)
    assert not any(i.known_defect for i in first)
    defects = workloads.known_defect_inputs(w, 3)
    assert defects == workloads.known_defect_inputs(w, 3)
    assert all(i.known_defect for i in defects)
    assert {i.label for i in defects} == {
        "bosonic T=5", "bosonic T=5 q*p", "bosonic T=6", "bosonic T=6 q*p", "bosonic T=4 q*p"}


def _traced(workload, seed, pick=lambda inputs: inputs):
    w = workloads.WORKLOADS[workload]
    inputs = pick(workloads.generate(w, seed, 1))
    out_dir = os.path.join(ROOT, run.OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    tracer, _outcome, _untraced, _traced = run.traced_run(w, inputs, out_dir)
    return tracer


def test_self_times_of_a_traced_operation_sum_to_its_root_span():
    tracer = _traced("cpi-transport", 5, lambda inputs: [
        next(i for i in inputs if i.label == "bosonic T=4")])
    assert tracer.span_op.count(0) == len(tracer.span_op) > 1
    root_total = tracer.total_time[layers.ROOT]
    assert root_total > 0
    assert sum(tracer.self_time.values()) == pytest.approx(root_total, rel=1e-9, abs=1e-12)
    # Every span lies inside its parent and belongs to its parent's operation.
    for i in range(len(tracer.span_start)):
        parent = tracer.span_parent[i]
        if parent < 0:
            assert tracer.names[tracer.span_name[i]] == layers.ROOT
            continue
        assert tracer.span_start[parent] <= tracer.span_start[i]
        assert tracer.span_end[i] <= tracer.span_end[parent]
        assert tracer.span_op[i] == tracer.span_op[parent]


@pytest.mark.parametrize("workload", ["dequant-sweep", "cpi-transport"])
def test_per_layer_counts_repeat_exactly_for_a_seed(workload):
    first = _traced(workload, 11).layer_metrics()
    second = _traced(workload, 11).layer_metrics()
    counts = [name for name in first if not name.endswith("_s")]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_uninstall_restores_the_library():
    from spindeq import cpi, grassmann, quantum, suite

    before = (grassmann.product, quantum.product, cpi.expm, suite.ALL_CHECKS,
              grassmann.Multivector.__init__)
    tracer = layers.Tracer()
    tracer.install()
    assert quantum.product is not before[1]
    tracer.uninstall()
    after = (grassmann.product, quantum.product, cpi.expm, suite.ALL_CHECKS,
             grassmann.Multivector.__init__)
    assert after == before


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_and_at_least_p90():
    latencies = [float(i) for i in range(1, 201)]
    value, percentile, beyond = run.tail(latencies)
    assert (value, percentile, beyond) == (190.0, 95.0, 10)
    assert sum(x > value for x in latencies) == 10
    assert run.tail(latencies[:100]) == (90.0, 90.0, 10)
    assert run.tail(latencies[:20]) == (18.0, 90.0, 2)
    assert run.tail(latencies[:19]) == (18.0, 100.0 * 18 / 19, 1)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    for n in range(1, 120):
        value, percentile, _ = run.tail(latencies[:n])
        assert percentile >= 90.0
        assert value >= latencies[(n - 1) // 2]
