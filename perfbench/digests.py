"""Reference SimStats digests for the benchmark's correctness check.

An evaluation is correct when the SHA-256 of its lossless counter
record (:func:`repro.io.stats_to_record`, the same digest the run
manifest stores as ``record_sha256``) equals the digest the reference
path (:func:`repro.kernel.reference_path`: pure-Python profiler,
planners and replay) gives for the same inputs.

The three paper-app workloads have fixed inputs, so their reference
digests are recorded once per setting in ``digests.json`` next to
this file.  Re-record them after an intended modelling change::

    python3 perfbench/digests.py            # ~40 s on a 2-CPU Xeon VM

``ingest-stream`` builds its inputs from the seed, so ``run.py``
computes its reference digests in the same run instead.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, Optional

import checkout

DIGEST_FILE = Path(__file__).with_name("digests.json")


def stats_digest(stats) -> str:
    from repro import io as repro_io

    record = repro_io.stats_to_record(stats)
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def load_reference(workload) -> Optional[Dict[str, str]]:
    """The recorded digests for *workload* at its current setting."""
    if not DIGEST_FILE.is_file():
        return None
    entry = json.loads(DIGEST_FILE.read_text()).get(workload.name)
    if entry is None or entry["setting"] != workload.setting():
        return None
    return entry["digests"]


def record(name: str) -> Dict[str, object]:
    """Run *name* serially on the reference path and digest every
    evaluation (the jobs count is an execution knob: parallel results
    are bit-identical to serial ones)."""
    from repro import kernel

    import workloads

    workload = workloads.WORKLOADS[name](jobs=1)
    workdir = checkout.WORK / f"record-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        with kernel.reference_path():
            inputs = workload.setup(0, workdir)
            outcome = workload.outcome(inputs, workload.run(inputs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "setting": workload.setting(),
        "digests": {
            key: stats_digest(stats)
            for key, stats in sorted(outcome.evaluations.items())
        },
    }


def main() -> int:
    checkout.use_checkout_source()
    import workloads

    data = {}
    for name, cls in workloads.WORKLOADS.items():
        if not issubclass(cls, workloads.PaperWorkload):
            continue
        started = time.perf_counter()
        data[name] = record(name)
        print(f"{name}: {len(data[name]['digests'])} digests "
              f"in {time.perf_counter() - started:.1f} s")
        DIGEST_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
