"""One cold start: import spindeq and generate a workload's inputs.

Run by ``run.py`` in a fresh interpreter.  Prints the CLOCK_MONOTONIC time
(system-wide on Linux) at which the inputs are ready, so the parent can
subtract the time it started this process.

    python3 bench/probe_setup.py WORKLOAD SEED BLOCKS
"""

import sys
import time

import workloads

name, seed, blocks = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
workloads.generate(workloads.WORKLOADS[name], seed, blocks)
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
