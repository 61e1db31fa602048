"""Set-up probe: import orbicover, build one workload's inputs, print one
JSON line with the in-process times, and exit.

    python3 bench/setup_probe.py <workload> <seed>

``run.py`` starts this in a fresh interpreter and times it from the spawn to
the printed line, which is what a command-line user pays before any work.
"""

import os
import sys
import time

t0 = time.perf_counter()
_bench = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(_bench), "src"), _bench]

import orbicover  # noqa: E402,F401

t1 = time.perf_counter()

import ops  # noqa: E402

cases = ops.WORKLOADS[sys.argv[1]].inputs(int(sys.argv[2]))
t2 = time.perf_counter()
print('{"import_orbicover_s": %r, "inputs_s": %r, "cases": %d}' % (t1 - t0, t2 - t1, len(cases)), flush=True)
