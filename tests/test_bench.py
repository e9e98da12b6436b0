"""The benchmark's in-process workloads run against the library as it is.

``bench/workloads.py`` is loaded by its path, as a file and not as a
package, so the tests' import scan does not take it for a third-party
module.  A few ops of each workload go through ``run``, ``traced`` and
``check``, and each op's output matches the record that
``bench/fingerprint.json`` stores for the default seed.  ``bench/smoke.py``
checks the rest of the benchmark, the command-line workload included.
"""

import importlib.util
import itertools
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"floatcyl_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.mark.parametrize("name, ops", [("sweep", 40), ("map", 3),
                                       ("boundary", 20)])
def test_workload_runs_traces_and_checks(workloads, name, ops):
    seed = 0  # bench/run.py's default, the seed of the stored fingerprints
    refs = json.loads((BENCH / "fingerprint.json").read_text())[name]
    wl = workloads.make(name, seed, {}, BENCH.parent)
    tracer = _load("tracing").Tracer()
    for i, inp in enumerate(itertools.islice(wl.inputs(), ops)):
        out = wl.run(inp)
        wl.check(inp, out)
        workloads.compare_fingerprint(refs[i], wl.fingerprint(inp, out))
        traced = wl.traced(inp, tracer)
        wl.check(inp, traced, tracer)
        workloads.compare_fingerprint(refs[i], wl.fingerprint(inp, traced))
    assert tracer.spans and all(end >= start
                                for _, start, end, *_ in tracer.spans)
