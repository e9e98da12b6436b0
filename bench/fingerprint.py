"""Write bench/fingerprint.json: default-seed outputs of every workload.

Usage (from the repository root): python3 bench/fingerprint.py

Each workload's first ``fingerprint_ops`` ops at the default seed are run
untraced and reduced with the workload's ``fingerprint``: root counts and
stabilities, region labels, boundary answers, CLI exit codes and stdout.
bench/run.py compares against these records whenever it runs the default
seed.  The stored file was taken from the library this benchmark was
written against; regenerate it only when an output change is intended.
"""

import json

import run

run.load_library()
import workloads  # noqa: E402

records = {}
for name in run.NAMES:
    wl = workloads.make(name, run.DEFAULT_SEED, run.child_env(), run.ROOT)
    records[name] = [wl.fingerprint(inp, wl.run(inp)) for inp, _ in
                     zip(wl.inputs(), range(wl.fingerprint_ops))]
# one record per line, so a changed op shows as one changed line
run.FINGERPRINT.write_text("{\n" + ",\n".join(
    f" {json.dumps(name)}: [\n  " + ",\n  ".join(json.dumps(r) for r in recs)
    + "\n ]" for name, recs in records.items()) + "\n}\n")
