"""The benchmark's four workloads, each driving the program's public API.

A workload has three steps per iteration:

``setup(seed, workdir)``
    builds the iteration's inputs (app synthesis, trace generation,
    ChampSim files) — timed as ``setup_s``;
``run(inputs)``
    the measured work — timed as ``wall_s`` / ``cpu_s``;
``outcome(inputs, result)``
    untimed: one SimStats per (app, variant) evaluation for the
    digest check, the simulated end-to-end metrics and the model-side
    per-layer metrics.

Every iteration starts from a fresh :class:`Evaluator` (cold
in-memory caches); see ``README.md`` for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import gzip
import lzma
import signal
import statistics
import time
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import perf as perf_mod
from repro.analysis import experiments as exp
from repro.analysis import metrics
from repro.baselines import protocol as zoo
from repro.profiling import profiler
from repro.runconfig import RunConfig
from repro.workloads import apps as repro_apps
from repro.workloads import ingest as ing

#: every variant the per-layer simulated-machine metrics can name
VARIANTS = exp.MATRIX_PREFETCHERS

#: the coalescing widths of Fig. 19
COALESCE_BITS = (1, 2, 4, 8, 16, 32, 64)

#: records in the truncated ChampSim copies of ``ingest-stream``
TRUNCATED_RECORDS = 50_000


@contextmanager
def time_bound(seconds: float):
    """Raise :class:`TimeoutError` in the enclosed block after *seconds*.

    Nests: an enclosing bound keeps running and still fires first when
    it is the earlier one.
    """

    def expire(signum, frame):
        raise TimeoutError("operation exceeded its time bound")

    previous = signal.signal(signal.SIGALRM, expire)
    outer, _ = signal.getitimer(signal.ITIMER_REAL)
    signal.setitimer(signal.ITIMER_REAL, min(seconds, outer) if outer else seconds)
    started = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            left = outer - (time.monotonic() - started)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-3))


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def machine_metrics(per_app: Dict[str, Dict[str, object]]) -> Dict[str, float]:
    """Per-variant MPKI, prefetch accuracy and miss coverage, each the
    mean over the apps; variants a workload does not run read 0."""
    out: Dict[str, float] = {}
    for variant in VARIANTS:
        if variant == "ideal":
            continue
        ran = [stats for stats in per_app.values() if variant in stats]
        out[f"sim.l1i_mpki.{variant}"] = _mean(s[variant].l1i_mpki for s in ran)
        if variant == "baseline":
            continue
        out[f"sim.prefetch_accuracy.{variant}"] = _mean(
            s[variant].prefetch_accuracy for s in ran
        )
        out[f"sim.prefetch_coverage.{variant}"] = _mean(
            metrics.mpki_reduction(s["baseline"], s[variant]) for s in ran
        )
    out["sim.cond_fp_rate"] = _mean(
        getattr(s["ispy"], "false_positive_rate", 0.0) for s in per_app.values()
    )
    return out


def planner_metrics(results, profiles) -> Dict[str, float]:
    """Default-config I-SPY plan size, coverage and conditional share
    (means over apps) and the profiles' sampled misses (sum)."""
    return {
        "core.plan_instrs": _mean(len(r.plan) for r in results),
        "core.coverage": _mean(r.report.coverage for r in results),
        "core.conditional_frac": _mean(
            r.report.conditional_fraction for r in results
        ),
        "profiling.sampled_misses": float(
            sum(p.sampled_miss_count for p in profiles)
        ),
    }


@dataclasses.dataclass
class Outcome:
    """What one iteration produced, read after the timer stopped."""

    #: "app/variant" -> SimStats, checked against reference digests
    evaluations: Dict[str, object]
    #: ispy_speedup, ispy_pct_of_ideal (end-to-end, simulated)
    sim: Dict[str, float]
    #: model-side per-layer metrics (deterministic)
    layers: Dict[str, float]
    #: simulated instructions over every profile and replay pass
    simulated_insns: float
    #: operations beyond the evaluations, as (attempted, failed)
    extra: Tuple[int, int] = (0, 0)
    #: findings worth printing that are not failures
    notes: List[str] = dataclasses.field(default_factory=list)


class PaperWorkload:
    """Common shape of the three workloads over the paper's apps.

    Their inputs are the registry apps, whose seeds are fixed, so
    ``--seed`` is recorded but changes nothing here.
    """

    name = ""
    #: the host-speed kernel of ``run.py`` that calibrates its times
    calibration_kernel = "mixed"
    apps: Tuple[str, ...] = exp.SWEEP_APPS
    jobs = 1
    uses_store = False
    seed_note = (
        "inputs are the paper apps at their fixed registry seeds; "
        "--seed is recorded and does not change them"
    )
    settings = exp.ExperimentSettings(
        profile_length=12_000, eval_length=20_000, warmup=8_000, scale=0.15
    )

    def __init__(self, jobs: Optional[int] = None):
        if jobs is not None:
            self.jobs = jobs

    def setting(self) -> dict:
        """What the simulated results depend on (keys the digests)."""
        return {
            "apps": list(self.apps),
            "settings": dataclasses.asdict(self.settings),
        }

    def describe(self) -> dict:
        return dict(self.setting(), jobs=self.jobs)

    def setup(self, seed: int, workdir: Path):
        config = RunConfig(
            settings=self.settings,
            jobs=self.jobs,
            store=str(workdir / "store") if self.uses_store else None,
            perf=perf_mod.PerfRegistry(),
        )
        evaluator = config.evaluator()
        for name in self.apps:
            evaluator[name].app
            evaluator[name].eval_trace
        return evaluator

    def run(self, evaluator, apps=None):
        raise NotImplementedError

    def warm_up(self, seed: int, workdir: Path) -> None:
        """Run the workload's code once on its first app, serially.

        Fills the program's process-level caches and lazy state, so
        the timed iterations measure the steady state.
        """
        evaluator = RunConfig(
            settings=self.settings, perf=perf_mod.PerfRegistry()
        ).evaluator()
        self.run(evaluator, apps=self.apps[:1])

    def variants(self) -> Tuple[str, ...]:
        raise NotImplementedError

    def operations(self) -> int:
        """Operations one iteration attempts (all fail if it raises)."""
        return len(self.apps) * len(self.variants())

    def insns_per_block(self, evaluator) -> float:
        """Mean instructions per simulated block of the apps' eval traces."""
        blocks = insns = 0
        for name in self.apps:
            evaluation = evaluator[name]
            program = evaluation.app.program
            counts = np.zeros(max(b.block_id for b in program) + 1, dtype=np.int64)
            for block in program:
                counts[block.block_id] = block.instruction_count
            ids = np.asarray(evaluation.eval_trace.block_ids, dtype=np.int64)
            insns += int(counts[ids].sum())
            blocks += len(ids)
        return insns / blocks

    def outcome(self, evaluator, result) -> Outcome:
        # read before anything below could add work to the registry
        registry = evaluator.perf
        blocks = (
            registry.units("profile")
            + registry.units("simulate")
            + registry.units("sweep:batch")
        )
        per_app = {
            name: {v: evaluator[name].stats_for(v) for v in self.variants()}
            for name in self.apps
        }
        evaluations = {
            f"{name}/{variant}": stats
            for name, runs in per_app.items()
            for variant, stats in runs.items()
        }
        layers = machine_metrics(per_app)
        layers.update(planner_metrics(
            [evaluator[name].ispy_result() for name in self.apps],
            [evaluator[name].profile for name in self.apps],
        ))
        layers["ispy_over_asmdb"] = self.over_asmdb(evaluator, result)
        layers["ingest.rejected_ok"] = layers["ingest.unclean_rejects"] = 0.0
        sim = {
            "ispy_speedup": _mean(evaluator[n].speedup("ispy") for n in self.apps),
            "ispy_pct_of_ideal": _mean(
                evaluator[n].percent_of_ideal("ispy") for n in self.apps
            ),
        }
        return Outcome(
            evaluations, sim, layers, blocks * self.insns_per_block(evaluator)
        )

    def over_asmdb(self, evaluator, result) -> float:
        """I-SPY over AsmDB speedup; 0 where AsmDB does not run."""
        return 0.0


class Fig10(PaperWorkload):
    """Fig. 10 on all nine apps: baseline, ideal, AsmDB and I-SPY."""

    name = "fig10"
    apps = tuple(repro_apps.APP_NAMES)

    def run(self, evaluator, apps=None):
        return exp.fig10_speedup(evaluator, apps=apps or self.apps)

    def variants(self):
        return ("baseline", "ideal", "asmdb", "ispy")

    def over_asmdb(self, evaluator, rows) -> float:
        return _mean(r["ispy_speedup"] for r in rows) / _mean(
            r["asmdb_speedup"] for r in rows
        )


class SweepCoalesce(PaperWorkload):
    """Fig. 19: seven coalescing widths on the three sweep apps."""

    name = "sweep-coalesce"

    def run(self, evaluator, apps=None):
        return exp.fig19_coalesce_size(
            evaluator, bits=COALESCE_BITS, apps=apps or self.apps
        )

    def variants(self):
        # the sweep's default-width point is the plain "ispy" variant
        return ("baseline", "ideal", "ispy")

    def operations(self) -> int:
        return len(self.apps) * (len(self.variants()) + len(COALESCE_BITS))

    def outcome(self, evaluator, rows) -> Outcome:
        out = super().outcome(evaluator, rows)
        configs = [
            dataclasses.replace(exp.DEFAULT_CONFIG, coalesce_bits=b)
            for b in COALESCE_BITS
        ]
        for name in self.apps:
            evaluation = evaluator[name]
            sweep = evaluation.run_plans([evaluation.ispy_plan(c) for c in configs])
            for bits, stats in zip(COALESCE_BITS, sweep):
                out.evaluations[f"{name}/ispy-cb{bits}"] = stats
        return out


class MatrixJobs2(PaperWorkload):
    """``repro matrix``: all 11 prefetchers on wordpress, 2 workers,
    fresh store.

    One app, so that a run holds several iterations: on three apps one
    iteration took 11-17 s on a shared 2-CPU VM, a run held one, and
    ten runs' ``wall_s`` spread by up to 0.17.
    """

    name = "matrix-jobs2"
    apps = exp.SWEEP_APPS[:1]
    jobs = 2
    uses_store = True

    def run(self, evaluator, apps=None):
        # exactly what ``repro matrix --jobs 2`` does
        apps = apps or self.apps
        if evaluator.jobs != 1:
            evaluator.prewarm(apps=apps, variants=VARIANTS)
        return exp.matrix_prefetchers(evaluator, apps=apps)

    def variants(self):
        return VARIANTS

    def over_asmdb(self, evaluator, rows) -> float:
        speedup = {r["prefetcher"]: r["speedup"] for r in rows}
        return speedup["ispy"] / speedup["asmdb"]


class IngestStream:
    """A ChampSim trace from the seed through ingest, shards, profile,
    plan and shard-streamed replay, plus corrupted copies."""

    name = "ingest-stream"
    #: most of its time is per-record Python code (the ChampSim reader
    #: and block reconstruction) rather than NumPy kernels
    calibration_kernel = "interpreter"
    app = "wordpress"
    scale = 0.3
    blocks = 60_000
    warmup = 12_000
    shard_insns = 100_000
    #: bound on one untrusted-file ingest (a hang is a failure)
    file_bound_s = 10.0
    seed_note = (
        "the seed sets the trace's address base, its register and "
        "memory operand bytes, and where the corrupted copies are cut "
        "or garbled; the control flow is the app's fixed eval walk"
    )

    def operations(self) -> int:
        # the clean file, five corrupted copies, three evaluations
        return 1 + 5 + 3

    def describe(self) -> dict:
        return {
            "app": self.app,
            "scale": self.scale,
            "trace_blocks": self.blocks,
            "warmup": self.warmup,
            "shard_insns": self.shard_insns,
        }

    def setup(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        app = repro_apps.build_app(self.app, scale=self.scale)
        trace = app.trace(self.blocks, seed=app.spec.seed + 31337, input_name="eval")
        ips, taken = [], []
        for ip, _size, is_taken in ing.expand_block_trace(app.program, trace):
            ips.append(ip)
            taken.append(is_taken)
        # relocate by a multiple of 4 GiB: cache set indices stay put
        base = int(rng.integers(1, 1 << 12)) << 32
        records = np.zeros(len(ips), dtype=[
            ("ip", "<u8"), ("is_branch", "u1"), ("taken", "u1"),
            ("operands", "u1", ing.CHAMPSIM_RECORD_BYTES - 10),
        ])
        records["ip"] = np.asarray(ips, dtype=np.uint64) + np.uint64(base)
        records["taken"] = np.asarray(taken, dtype=np.uint8)
        records["is_branch"] = records["taken"]
        records["operands"] = rng.integers(
            0, 256, size=records["operands"].shape, dtype=np.uint8
        )
        clean = workdir / "trace.champsim"
        raw = records.tobytes()
        clean.write_bytes(raw)
        return {
            "clean": clean,
            "records": len(records),
            "corrupt": self._corrupt(rng, workdir, raw, records),
            "probes": self._compressed_probes(rng, workdir, raw),
            "shards": workdir / "shards",
        }

    @staticmethod
    def _corrupt(rng, workdir: Path, raw: bytes, records) -> List[Path]:
        """Copies the ingester must reject with a clean ValueError."""
        size = ing.CHAMPSIM_RECORD_BYTES
        paths = []
        for index in range(2):
            # cut mid-record near the end of a fixed-length prefix, so
            # every seed asks the reader for the same amount of work
            whole = TRUNCATED_RECORDS - int(rng.integers(1, 100))
            path = workdir / f"truncated{index}.champsim"
            path.write_bytes(raw[: whole * size + int(rng.integers(1, size))])
            paths.append(path)
        prefix = records[:2_000]
        bad = int(rng.integers(0, len(prefix)))
        lines = [f'{{"ip": {int(r["ip"])}, "taken": {bool(r["taken"])}}}'.lower()
                 for r in prefix]
        lines[bad] = lines[bad][: int(rng.integers(1, len(lines[bad])))]
        jsonl = workdir / "garbled.jsonl"
        jsonl.write_text("\n".join(lines) + "\n")
        rows = [f"{hex(int(r['ip']))},,{int(r['taken'])}" for r in prefix]
        rows[bad] = "0x" + "g" * int(rng.integers(1, 9)) + rows[bad][2:]
        csv = workdir / "garbled.csv"
        csv.write_text("ip,size,taken\n" + "\n".join(rows) + "\n")
        empty = workdir / "empty.champsim"
        empty.write_bytes(b"")
        return paths + [jsonl, csv, empty]

    @staticmethod
    def _compressed_probes(rng, workdir: Path, raw: bytes) -> List[Path]:
        """Truncated and bit-flipped gzip/xz copies of a trace prefix.

        These currently raise EOFError / BadGzipFile instead of a
        ValueError; they are counted in ``ingest.unclean_rejects``
        rather than as operations (see README.md).
        """
        prefix = raw[: 4_096 * ing.CHAMPSIM_RECORD_BYTES]
        paths = []
        for suffix, packed in (("gz", gzip.compress(prefix, mtime=0)),
                               ("xz", lzma.compress(prefix))):
            cut = workdir / f"truncated.champsim.{suffix}"
            cut.write_bytes(packed[: int(rng.integers(16, len(packed) - 16))])
            flip = bytearray(packed)
            flip[int(rng.integers(len(flip) // 2, len(flip) - 8))] ^= 0xFF
            flipped = workdir / f"flipped.champsim.{suffix}"
            flipped.write_bytes(bytes(flip))
            paths += [cut, flipped]
        return paths

    def warm_up(self, seed: int, workdir: Path) -> None:
        """One whole untimed iteration (see PaperWorkload.warm_up)."""
        self.run(self.setup(seed, workdir))

    def run(self, inputs):
        workload = ing.ingest_trace_file(inputs["clean"])
        rejected, unclean = 0, []
        for path in inputs["corrupt"]:
            try:
                with time_bound(self.file_bound_s):
                    ing.ingest_trace_file(path)
            except ValueError:
                rejected += 1
        for path in inputs["probes"]:
            try:
                with time_bound(self.file_bound_s):
                    ing.ingest_trace_file(path)
                unclean.append(f"{path.name}: accepted")
            except ValueError:
                pass
            except (OSError, EOFError, lzma.LZMAError, zlib.error) as exc:
                unclean.append(f"{path.name}: {type(exc).__name__}")
        ing.write_ingested(workload, inputs["shards"], self.shard_insns)
        program, sharded = ing.load_ingested(inputs["shards"])
        return self.replay(program, sharded) + (workload, rejected, unclean)

    def replay(self, program, sharded):
        """Profile, plan and stream-replay one ingested trace."""
        profile = profiler.profile_execution(program, sharded)
        result = zoo.get_prefetcher("ispy").train_result(
            zoo.ProfileView(program, profile)
        )
        view = zoo.ProfileView(program)
        ctx = zoo.ReplayContext(warmup=self.warmup)
        ispy = zoo.PlanReplay(result.plan)
        stats = {
            "baseline": zoo.PlanReplay(None).simulate(view, sharded, ctx),
            "ispy": ispy.simulate(view, sharded, ctx),
            "ideal": zoo.get_prefetcher("ideal").simulate(view, sharded, ctx),
        }
        # what AppEvaluation.run_plan attaches for Fig. 21
        stats["ispy"].false_positive_rate = ispy.conditional_false_positive_rate
        return stats, result, profile

    def reference(self, inputs) -> Dict[str, object]:
        """The same pipeline's statistics, for the digest check."""
        from repro import kernel

        workload = ing.ingest_trace_file(inputs["clean"])
        ing.write_ingested(workload, inputs["shards"], self.shard_insns)
        with kernel.reference_path():
            stats, _result, _profile = self.replay(*ing.load_ingested(inputs["shards"]))
        return {f"ingested/{v}": s for v, s in stats.items()}

    def outcome(self, inputs, result) -> Outcome:
        stats, plan_result, profile, workload, rejected, unclean = result
        attempted = 1 + len(inputs["corrupt"])
        failed = len(inputs["corrupt"]) - rejected
        if workload.report["records"] != inputs["records"]:
            failed += 1
        layers = machine_metrics({"ingested": stats})
        layers.update(planner_metrics([plan_result], [profile]))
        layers["ingest.rejected_ok"] = float(rejected)
        layers["ingest.unclean_rejects"] = float(len(unclean))
        layers["ispy_over_asmdb"] = 0.0
        sim = {
            "ispy_speedup": metrics.speedup(stats["baseline"], stats["ispy"]),
            "ispy_pct_of_ideal": metrics.percent_of_ideal(
                stats["baseline"], stats["ispy"], stats["ideal"]
            ),
        }
        return Outcome(
            {f"ingested/{v}": s for v, s in stats.items()},
            sim,
            layers,
            # one profiling pass and three replays over every record
            4.0 * inputs["records"],
            extra=(attempted, failed),
            notes=[f"compressed corrupt copy not rejected with ValueError: {u}"
                   for u in unclean],
        )


WORKLOADS = {
    w.name: w for w in (Fig10, SweepCoalesce, MatrixJobs2, IngestStream)
}
