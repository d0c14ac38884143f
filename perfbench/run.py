"""Run one workload of the I-SPY benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig10 --seed 1 --seconds 20 --trace 0

The run warms up, then repeats *iterations* — set up fresh inputs, run
the workload, check its outputs — until ``--seconds`` is used up, and
prints one JSON object as its last line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``
(medians over untraced iterations).  ``--trace 1`` alternates untraced
and traced iterations and reports the per-layer metrics (medians over
the traced ones); the two kinds together give ``obs.trace_overhead``.

Host times are reported *calibrated*: a fixed CPU kernel of the
workload's kind is timed between iterations, and each host-time sample
is scaled by the kernel's reference time over its time around it, so a
shared host's speed swings (±25% over tens of seconds on a 2-CPU
Xeon VM) cancel out.  The raw samples are kept too.  Every run writes
``perfbench/results/<workload>-trace<T>-seed<S>.json`` with the host
fingerprint, every raw and calibrated sample and its spread, the
calibration times and the span summary (a traced run also writes every
span of its last traced iteration to ``...-seed<S>.spans.jsonl``);
``report.py`` prints them.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

_LOAD_AT_START = os.getloadavg()

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List  # noqa: E402

import checkout  # noqa: E402

#: bound on one iteration's measured work; exceeding it fails the
#: iteration's operations
ITERATION_BOUND_S = 120.0
#: hard cap on iterations per run
MAX_ITERATIONS = 200
#: set-up samples per run: runs with fewer iterations set up again
SETUP_SAMPLES = 3
#: each calibration kernel's time at the reference host speed (on a
#: 2-CPU Xeon VM: ``mixed`` in a quiet phase, ``interpreter`` in a busy
#: one); host seconds are reported at this speed.  Changing a value
#: rescales every time metric of the workloads that use the kernel.
REFERENCE_CALIBRATION_S = {"mixed": 0.067, "interpreter": 0.1}


def mixed_kernel() -> float:
    """Seconds for a fixed mix of interpreter and NumPy work, the two
    kinds the paper-app pipeline does (median of three timings).  Its
    arrays are small (1.6 MB), so it never sets the run's peak resident
    memory."""
    import numpy as np

    timings = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(400_000):
            total += i * i % 7
        values = np.arange(200_000, dtype=np.int64)
        for _ in range(50):
            values = (values * 7 + 3) % 1_000_003
        timings.append(time.perf_counter() - started)
    return statistics.median(timings)


@functools.lru_cache(maxsize=None)
def _interpreter_inputs() -> tuple:
    """The interpreter kernel's fixed inputs (about 2 MB), built once."""
    rng = random.Random(20240615)
    blob = rng.randbytes(64 * 20_000)
    doc = [
        {"ip": rng.getrandbits(40), "name": f"f{i}", "tags": [i, 3 * i, "x" * (i % 7)]}
        for i in range(4_000)
    ]
    text = " ".join(
        f"blk{rng.getrandbits(16)}:{rng.getrandbits(8)}" for _ in range(20_000)
    )
    return blob, doc, text


def _interpreter_pass(blob: bytes, doc: list, text: str) -> int:
    """A record-parsing loop feeding a dict, a JSON round trip, a keyed
    sort, a regex scan and a tight integer loop."""
    record = struct.Struct("<QBB")
    counts: Dict[int, int] = {}
    for off in range(0, len(blob), 64):
        ip, a, b = record.unpack_from(blob, off)
        counts[ip & 0xFFFFF] = counts.get(ip & 0xFFFFF, 0) + a + b
    rows = json.loads(json.dumps(doc))
    rows.sort(key=lambda row: (row["tags"][1] % 97, row["name"]))
    found = re.findall(r"blk(\d+):(\d+)", text)
    total = sum(int(x) for x, _ in found) + len({x for x, _ in found})
    for i in range(100_000):
        total += i * i % 7
    return total + len(counts) + len(rows)


def interpreter_kernel() -> float:
    """Seconds for a fixed piece of pure-interpreter work (median of
    three timings of two passes each).

    For a workload bound by per-record Python code.  Against
    ``ingest-stream`` on a shared 2-CPU Xeon VM, over 40+ iterations,
    the workload's time followed this kernel's with a log-log slope of
    0.94-1.04, but followed the NumPy half of ``mixed_kernel`` with a
    slope near 3: that half barely slows when the host does, so the
    mixed kernel left ``ingest-stream`` under-corrected.
    """
    inputs = _interpreter_inputs()
    timings = []
    for _ in range(3):
        started = time.perf_counter()
        _interpreter_pass(*inputs)
        _interpreter_pass(*inputs)
        timings.append(time.perf_counter() - started)
    return statistics.median(timings)


KERNELS = {"mixed": mixed_kernel, "interpreter": interpreter_kernel}


def host_fingerprint() -> dict:
    from repro import kernel
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_kernel": kernel.numpy_enabled(),
        "gcc": shutil.which("gcc") is not None,
        "cffi": importlib.util.find_spec("cffi") is not None,
        "loadavg_at_start": list(_LOAD_AT_START),
    }


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def spread(values: List[float]) -> dict:
    """One metric's samples in run order, their median, quartiles and range."""
    ordered = sorted(values)
    quartiles = (
        statistics.quantiles(ordered, n=4) if len(ordered) > 1
        else [ordered[0]] * 3
    )
    return {
        "values": list(values),
        "n": len(ordered),
        "median": statistics.median(ordered),
        "q1": quartiles[0],
        "q3": quartiles[2],
        "min": ordered[0],
        "max": ordered[-1],
    }


class Run:
    """One benchmark run: repeated iterations of one workload."""

    def __init__(self, workload, seed: int, reference):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.workroot = checkout.WORK / str(os.getpid())
        self.iterations: List[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.notes: List[str] = []
        self.sim: Dict[str, float] = {}
        self.span_rows: List[dict] = []
        #: every span of the last traced iteration
        self.spans: List[dict] = []
        #: digests awaiting reference digests computed after the loop
        self.pending: List[Dict[str, str]] = []
        #: (set-up seconds, calibration) of set-ups made only to sample
        #: set-up time
        self.extra_setups_done: List[tuple] = []
        #: the workload's calibration kernel and its reference time
        self.kernel = workload.calibration_kernel
        self.reference_s = REFERENCE_CALIBRATION_S[self.kernel]
        #: every calibration kernel time, in run order
        self.calibrations: List[float] = []
        #: peak resident KiB of the process and its workers, read when
        #: the measured iterations end
        self.peak_kib = 0

    def calibrate(self) -> float:
        self.calibrations.append(KERNELS[self.kernel]())
        return self.calibrations[-1]

    def iterate(self, index: int, traced: bool) -> None:
        import spans
        import workloads

        workdir = self.workroot / f"iteration-{index}"
        workdir.mkdir(parents=True)
        recorder = spans.SpanRecorder(workdir) if traced else None
        patches = spans.instrument(recorder) if traced else None
        before = self.calibrations[-1]
        gc.collect()
        sample = {"traced": traced}
        try:
            started = time.perf_counter()
            inputs = self.workload.setup(self.seed, workdir)
            sample["setup_s"] = time.perf_counter() - started
            children = _children_cpu()
            cpu = time.process_time()
            started = time.perf_counter()
            try:
                with workloads.time_bound(ITERATION_BOUND_S):
                    result = self.workload.run(inputs)
            except Exception:  # an operation failure, not a crash
                ops = self.workload.operations()
                self.attempted += ops
                self.failed += ops
                self.problems.append(
                    f"iteration {index} raised:\n{traceback.format_exc()}"
                )
                return
            sample["wall_s"] = time.perf_counter() - started
            sample["worker_cpu_s"] = _children_cpu() - children
            sample["cpu_s"] = time.process_time() - cpu + sample["worker_cpu_s"]
        finally:
            if patches is not None:
                patches.restore()
        sample["calibration_s"] = (before + self.calibrate()) / 2
        try:
            outcome = self.workload.outcome(inputs, result)
            self.check(index, outcome)
            sample["simulated_insns"] = outcome.simulated_insns
            if traced:
                sample["layers"] = self.layers(
                    recorder, inputs, outcome, sample, workdir
                )
            self.iterations.append(sample)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def check(self, index: int, outcome) -> None:
        from digests import stats_digest

        attempted, failed = outcome.extra
        self.attempted += attempted + len(outcome.evaluations)
        self.failed += failed
        if failed:
            self.problems.append(f"iteration {index}: {failed} ingest checks failed")
        digests = {k: stats_digest(s) for k, s in outcome.evaluations.items()}
        if self.reference is None:  # computed after the loop
            self.pending.append(digests)
        else:
            self.compare(digests)
        for note in outcome.notes:
            if note not in self.notes:
                self.notes.append(note)
        if self.sim and self.sim != outcome.sim:
            self.failed += 1
            self.problems.append(f"iteration {index}: simulated metrics changed")
        self.sim = outcome.sim

    def compare(self, digests: Dict[str, str]) -> None:
        for key, digest in digests.items():
            if self.reference.get(key) != digest:
                self.failed += 1
                self.problems.append(f"{key}: digest differs from the reference path")

    def layers(self, recorder, inputs, outcome, sample, workdir) -> Dict[str, float]:
        import spans

        trace = recorder.collect()
        self.spans = trace
        self.span_rows = spans.span_summary(trace)
        records = inputs["records"] if isinstance(inputs, dict) else 0
        layers = spans.layer_metrics(trace, records_ingested=records)
        layers.update(outcome.layers)
        jobs = getattr(self.workload, "jobs", 1)
        layers["analysis.worker_cpu_s"] = sample["worker_cpu_s"]
        layers["analysis.parallel_eff"] = sample["cpu_s"] / (sample["wall_s"] * jobs)
        store = workdir / "store"
        layers["io.bytes_written"] = float(_tree_bytes(store)) if store.is_dir() else 0.0
        registry = getattr(inputs, "perf", None)  # paper-app evaluators
        if registry is not None:
            # the PerfRegistry merges worker stage counts back: tracing
            # must have seen every synthesis it counted
            expected = registry.calls("synthesize")
            if layers["workloads.synth_calls"] != expected:
                self.failed += 1
                self.problems.append(
                    f"traced {layers['workloads.synth_calls']:.0f} syntheses, "
                    f"PerfRegistry counted {expected}"
                )
        return layers

    def extra_setups(self, wanted: int) -> None:
        """Set up again until *wanted* untraced set-up samples exist."""
        for index in range(wanted - len(self.setup_samples())):
            workdir = self.workroot / f"setup-{index}"
            workdir.mkdir(parents=True)
            before = self.calibrations[-1]
            try:
                gc.collect()
                started = time.perf_counter()
                self.workload.setup(self.seed, workdir)
                seconds = time.perf_counter() - started
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            self.extra_setups_done.append(
                (seconds, (before + self.calibrate()) / 2)
            )

    def setup_samples(self) -> List[tuple]:
        """(raw set-up seconds, calibration) of every untraced set-up."""
        return [
            (s["setup_s"], s["calibration_s"])
            for s in self.iterations if not s["traced"]
        ] + self.extra_setups_done

    def finish_reference(self) -> None:
        """Reference-path digests for seed-built inputs, then the check."""
        if self.reference is not None:
            return
        from digests import stats_digest

        workdir = self.workroot / "reference"
        workdir.mkdir(parents=True)
        try:
            inputs = self.workload.setup(self.seed, workdir)
            self.reference = {
                k: stats_digest(s)
                for k, s in self.workload.reference(inputs).items()
            }
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for digests in self.pending:
            self.compare(digests)


def calibrated(seconds: float, calibration_s: float, reference_s: float) -> float:
    """Host seconds at the reference host speed."""
    return seconds * reference_s / calibration_s


def time_samples(run: Run, import_s: float, import_calibration: float) -> dict:
    """Raw and calibrated samples of every host-time metric."""
    out = {}
    setups = run.setup_samples()
    out["setup_s.raw"] = [import_s + s for s, _ in setups]
    out["setup_s"] = [
        calibrated(import_s, import_calibration, run.reference_s)
        + calibrated(s, c, run.reference_s)
        for s, c in setups
    ]
    for traced in (False, True):
        chosen = [s for s in run.iterations if s["traced"] == traced]
        if not chosen:
            continue
        tag = ".traced" if traced else ""
        for key in ("wall_s", "cpu_s"):
            out[f"{key}{tag}.raw"] = [s[key] for s in chosen]
            out[f"{key}{tag}"] = [
                calibrated(s[key], s["calibration_s"], run.reference_s)
                for s in chosen
            ]
        out[f"minsn_per_s{tag}.raw"] = [
            s["simulated_insns"] / s["wall_s"] / 1e6 for s in chosen
        ]
        out[f"minsn_per_s{tag}"] = [
            s["simulated_insns"]
            / calibrated(s["wall_s"], s["calibration_s"], run.reference_s) / 1e6
            for s in chosen
        ]
    return out


def end_to_end(run: Run, samples: dict) -> Dict[str, float]:
    return {
        "wall_s": statistics.median(samples["wall_s"]),
        "setup_s": statistics.median(samples["setup_s"]),
        "cpu_s": statistics.median(samples["cpu_s"]),
        "minsn_per_s": statistics.median(samples["minsn_per_s"]),
        "peak_rss_mb": run.peak_kib / 1024.0,
        "ispy_speedup": run.sim["ispy_speedup"],
        "ispy_pct_of_ideal": run.sim["ispy_pct_of_ideal"],
    }


def per_layer(run: Run, samples: dict, units: Dict[str, str]) -> Dict[str, float]:
    """Medians over traced iterations; times and rates calibrated like
    the end-to-end ones (by unit: ``s`` and ``.../s``)."""

    def scaled(name: str, sample: dict) -> float:
        value = sample["layers"][name]
        factor = calibrated(1.0, sample["calibration_s"], run.reference_s)
        if units[name] == "s":
            return value * factor
        if units[name].endswith("/s"):
            return value / factor
        return value

    traced = [s for s in run.iterations if s["traced"]]
    out = {
        name: statistics.median(scaled(name, s) for s in traced)
        for name in traced[0]["layers"]
    }
    out["failed_frac"] = run.failed / run.attempted
    out["obs.trace_overhead"] = (
        statistics.median(samples["wall_s.traced"])
        / statistics.median(samples["wall_s"])
        - 1.0
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    checkout.use_checkout_source()
    import digests
    import workloads
    from repro.baselines import protocol as zoo
    import repro.analysis.jobs  # noqa: F401  (imported lazily by prewarm)
    import repro.sim.streaming  # noqa: F401  (imported lazily by replays)

    zoo.prefetcher_names()  # the zoo members import on first lookup
    import_s = time.perf_counter() - _STARTED

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    reference = None
    if isinstance(workload, workloads.PaperWorkload):
        reference = digests.load_reference(workload)
        if reference is None:
            print(f"error: no reference digests for {workload.name} at its "
                  "current setting; run python3 perfbench/digests.py",
                  file=sys.stderr)
            return 2

    run = Run(workload, args.seed, reference)
    import_calibration = run.calibrate()
    needed = 2 if args.trace else 1
    try:
        (run.workroot / "warm-up").mkdir(parents=True)
        workload.warm_up(args.seed, run.workroot / "warm-up")
        run.calibrate()
        started = time.perf_counter()
        for index in range(MAX_ITERATIONS):
            run.iterate(index, traced=bool(args.trace) and index % 2 == 1)
            elapsed = time.perf_counter() - started
            # start another iteration if at least half of one still fits
            if (len(run.iterations) >= needed
                    and elapsed + 0.5 * elapsed / (index + 1) > args.seconds):
                break
        measured_s = time.perf_counter() - started
        run.peak_kib = max(  # ru_maxrss is in KiB on Linux
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        run.extra_setups(SETUP_SAMPLES)
        run.finish_reference()
    finally:
        shutil.rmtree(run.workroot, ignore_errors=True)

    kinds = {s["traced"] for s in run.iterations}
    if kinds != ({False, True} if args.trace else {False}):
        print("\n".join(run.problems), file=sys.stderr)
        print("error: no successful iteration to report", file=sys.stderr)
        return 1
    samples = time_samples(run, import_s, import_calibration)
    if args.trace:
        declared = spec["per_layer"]
        values = per_layer(run, samples, {m["name"]: m["unit"] for m in declared})
    else:
        values = end_to_end(run, samples)
        declared = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }

    record = {
        "finished_at": time.time(),
        "workload": workload.name,
        "workload_setting": workload.describe(),
        "seed": args.seed,
        "seed_note": workload.seed_note,
        "trace": args.trace,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "import_s": import_s,
        "host": host_fingerprint(),
        "calibration_kernel": run.kernel,
        "reference_calibration_s": run.reference_s,
        "calibration_s": spread(run.calibrations),
        "iterations": len(run.iterations),
        "samples": {key: spread(values) for key, values in samples.items()},
        "metrics": metrics,
        "spans": run.span_rows,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "notes": run.notes,
    }
    checkout.RESULTS.mkdir(parents=True, exist_ok=True)
    out = checkout.RESULTS / f"{workload.name}-trace{args.trace}-seed{args.seed}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    if run.spans:
        keep = ("id", "parent", "name", "pid", "start", "end")
        with open(out.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as handle:
            for span in run.spans:
                row = {k: span[k] for k in keep}
                row["attrs"] = {
                    k: v for k, v in span.items()
                    if k not in keep and k not in ("dur", "self", "ancestors")
                }
                handle.write(json.dumps(row) + "\n")

    for problem in run.problems:
        print(f"FAILED: {problem}")
    for note in run.notes:
        print(f"note: {note}")
    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(run.iterations)} iterations in {measured_s:.1f} s; "
          f"results in {out.relative_to(checkout.ROOT)}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
