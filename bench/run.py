"""The spindeq benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn, each in its own process.

Run from the root of a source checkout (it imports ``src/spindeq``).  One
client in one process sends the next operation only after the previous one
returned; inputs come from ``--seed`` alone (see ``workloads.py``).

``--trace 0`` runs operations for ``--seconds`` seconds and reports the
end-to-end metrics: ``ops_per_s`` (operations over the time spent inside
them, checks excluded), ``latency_p50_s``, ``latency_tail_s`` (the highest
percentile with at least ten samples beyond it, and at least p90),
``setup_s`` (median of several fresh interpreters importing spindeq and
generating the inputs) and ``peak_rss_mb``.
``failed_frac`` is printed and is ``failed / attempted`` of the result line.

``--trace 1`` runs a fixed set of operations (``TRACE_BLOCKS`` input blocks),
each first untraced and then traced, and reports the per-layer metrics of
``layers.py`` summed over the traced operations, the import times from
``-X importtime`` and the tracing overhead.  Its counts repeat exactly for a
fixed seed.

Every operation's result is checked; a failed check or an exception counts as
a failed operation, and ``correct`` is false when any operation fails.  Inputs
that hit a known defect of the library (``workloads.known_defect_inputs``)
are not part of the loop: they run once after it, untimed, and the run
prints and records how many of them fail.  The last line of standard output
is the JSON result; the full result, with provenance and the failing inputs,
is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
BLOCKS = 16  # input blocks generated per run; the loop wraps around if it runs out
TRACE_BLOCKS = 2
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
TAIL_BEYOND = 10
OUT_DIR = ".bench_out"


def _unit(name: str) -> str:
    for suffix, unit in (("ops_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"),
                         ("_bytes", "bytes"), (".yield", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that has
    at least TAIL_BEYOND samples beyond it, or of p90 (nearest rank) when that
    one is lower, as it is below 10 * TAIL_BEYOND samples.

    The p90 floor keeps the tail above the median when a run has few samples
    (a suite-all run has about twenty), and makes it move by one rank, not
    jump, as the sample count changes."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 10)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def _git_sha(root: str) -> str:
    """HEAD from the .git directory, read as files; "unknown" outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _provenance(root: str, workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(root: str, workload: str, seed: int) -> float:
    """Median cold start: fresh interpreter to imported spindeq and inputs."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe_setup.py")
    env = _child_env(root)
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, probe, workload, str(seed), str(BLOCKS)],
            env=env, cwd=root, capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return statistics.median(samples)


def measure_imports(root: str) -> tuple[float, float]:
    """Median cumulative import time of spindeq and of scipy.linalg inside it."""
    env = _child_env(root)
    totals, scipy_linalg = [], []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import spindeq"],
            env=env, cwd=root, capture_output=True, text=True, check=True, timeout=120,
        )
        cumulative = {}
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _self, cum, name = line[len("import time:"):].split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) / 1e6
        totals.append(cumulative["spindeq"])
        scipy_linalg.append(cumulative.get("scipy.linalg", 0.0))
    return statistics.median(totals), statistics.median(scipy_linalg)


class Outcome:
    """Operations attempted and failed in one pass, and the failing inputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_input: dict[str, dict] = {}

    def record(self, inp, problems: list[str]) -> None:
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        entry = self.by_input.setdefault(
            inp.label, {"input": inp.label, "known_defect": inp.known_defect, "failed": 0,
                        "example": problems[0]}
        )
        entry["failed"] += 1

    def failures(self) -> list[dict]:
        return sorted(self.by_input.values(), key=lambda e: e["input"])


def run_one(workload, inp, out_dir: str, outcome: Outcome, tracer=None, op_id=0) -> float:
    """Run and check one operation; returns the time spent inside it."""
    if tracer is not None:
        tracer.begin_op(op_id)
    error = None
    start = time.perf_counter()
    try:
        result = workload.run(inp, out_dir)
    except Exception as exc:  # a failed operation, not a failed benchmark
        error = exc
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
    if error is None:
        try:
            problems = workload.check(inp, result)
        except Exception as exc:
            error = exc
            problems = [f"raised {type(exc).__name__} in check: {exc}"]
    else:
        problems = [f"raised {type(error).__name__}: {error}"]
    outcome.record(inp, problems)
    return elapsed


def timed_run(workload, inputs, seconds: float, out_dir: str) -> tuple[list[float], Outcome]:
    run_one(workload, inputs[0], out_dir, Outcome())  # warm-up, not counted
    latencies: list[float] = []
    outcome = Outcome()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        latencies.append(run_one(workload, inputs[i % len(inputs)], out_dir, outcome))
        i += 1
        if time.perf_counter() >= deadline:
            return latencies, outcome


def traced_run(workload, inputs, out_dir: str):
    """Each input once untraced and then once traced, so that drift in the
    machine's speed affects both alike; per-layer figures sum the traced runs."""
    import layers

    run_one(workload, inputs[0], out_dir, Outcome())  # warm-up, not counted
    tracer = layers.Tracer()
    outcome = Outcome()
    untraced = traced = 0.0
    for op_id, inp in enumerate(inputs):
        untraced += run_one(workload, inp, out_dir, Outcome())
        tracer.install()
        try:
            traced += run_one(workload, inp, out_dir, outcome, tracer, op_id)
        finally:
            tracer.uninstall()
    return tracer, outcome, len(inputs) / untraced, len(inputs) / traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spindeq", "__init__.py")):
        print("error: run from the root of a spindeq checkout (no src/spindeq)", file=sys.stderr)
        return 2
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        print("error: --seconds must be a positive number", file=sys.stderr)
        return 2
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"  # before numpy loads its BLAS
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    if args.workload == "all":
        # Each workload in a process of its own, one after the other.
        codes = [
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in workloads.WORKLOADS
        ]
        return max(codes)
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload.name}-seed{args.seed}-trace{args.trace}")

    if args.trace:
        inputs = workloads.generate(workload, args.seed, TRACE_BLOCKS)
        tracer, outcome, untraced, traced = traced_run(workload, inputs, out_dir)
        tracer.write_spans(stem + "-spans.tsv")
        import_s, scipy_s = measure_imports(root)
        metrics = tracer.layer_metrics()
        metrics.update({
            "setup.import_s": import_s,
            "setup.scipy_import_s": scipy_s,
            "trace.untraced_ops_per_s": untraced,
            "trace.traced_ops_per_s": traced,
            "trace.overhead_ops_per_s": untraced - traced,
        })
        print(f"{workload.name}: traced {len(inputs)} operations, seed {args.seed}")
    else:
        setup_s = measure_setup(root, workload.name, args.seed)
        inputs = workloads.generate(workload, args.seed, BLOCKS)
        latencies, outcome = timed_run(workload, inputs, args.seconds, out_dir)
        tail_value, tail_pct, beyond = tail(latencies)
        metrics = {
            "ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_value,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"{workload.name}: {len(latencies)} operations in a closed loop, "
              f"one client, seed {args.seed}")
        print(f"  latency_tail_s is p{tail_pct:.2f}: {beyond} of {len(latencies)} samples beyond")

    # The inputs that hit a known defect run once, after the measurement and
    # apart from it, so that a fix shows as fewer of them failing.
    defects = Outcome()
    for inp in workloads.known_defect_inputs(workload, args.seed):
        run_one(workload, inp, out_dir, defects)

    failed_frac = outcome.failed / outcome.attempted
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {_unit(name)}")
    print(f"  failed_frac = {failed_frac:.6g} ({outcome.failed} of {outcome.attempted})")
    for entry in outcome.failures():
        print(f"  FAILED {entry['failed']} x {entry['input']}, e.g. {entry['example']}")
    if defects.attempted:
        print(f"  known-defect inputs, run once untimed: {defects.failed} of "
              f"{defects.attempted} fail")
        for entry in defects.failures():
            print(f"    {entry['input']}: {entry['example']}")

    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }
    record = dict(result)
    record["provenance"] = _provenance(root, workload.name, args.seed)
    record["provenance"]["operations"] = outcome.attempted
    record["failed_frac"] = failed_frac
    record["failures"] = outcome.failures()
    record["known_defects"] = {
        "attempted": defects.attempted,
        "failed": defects.failed,
        "failures": defects.failures(),
    }
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
