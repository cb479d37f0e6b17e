"""Set-up probe for one in-process workload, run in a fresh interpreter.

Imports the library from the source tree, makes the warm-up inputs, makes
one warm-up call into each layer the workload uses, then prints ``ready``
and the seconds it spent making inputs.  ``run.py`` times this from
process start to that line and subtracts the input time.

    python3 perfbench/setup_probe.py stars
"""

import sys
from time import perf_counter

from source import use_source_tree

use_source_tree()

import workloads  # noqa: E402  (needs the source tree on the path)

t0 = perf_counter()
inputs = workloads.warm_up_inputs(sys.argv[1])
making_s = perf_counter() - t0
workloads.warm_up(inputs)
print(f"ready {making_s!r}", flush=True)
