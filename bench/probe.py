"""Set-up probe: a fresh interpreter imports floatcyl and runs one op.

Usage: python bench/probe.py <workload> <seed>, with src/ on PYTHONPATH.
bench/run.py times this process from spawn to exit as one set-up sample.
"""

import sys

import workloads

wl = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))  # not cli
first = next(wl.inputs())
wl.run(first)
