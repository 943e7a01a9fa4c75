"""Set-up probe: a fresh interpreter imports solitonlab.cli and builds one
workload's inputs, then prints ``ready``.  ``run.py`` times it from start to
that line.

    python3 perfbench/probe.py WORKLOAD SEED
"""

import sys

import workloads

workloads.WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]))
print("ready", flush=True)
