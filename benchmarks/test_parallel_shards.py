"""Parallel sharded-replay benchmark: sequential vs exact.

Times whole-trace sequential replay against the parallel shard
executor (``--parallel-shards exact``) on the same wordpress
workload the perf-smoke benchmark uses (stretched to a 600k-block
evaluation trace so per-run fixed costs amortize), replaying from an
on-disk sharded trace so workers mmap their shards instead of
receiving them by pickle.

Honesty note — this benchmark is routinely run on a **single-CPU**
container (``os.cpu_count() == 1``), where real multi-worker wall
times cannot show a speedup: every worker shares one core, so adding
workers adds overhead and nothing else.  The numbers recorded here are
therefore split into two clearly separated sections:

* ``measured`` — actual wall times observed on this host, including
  the 1-worker decomposition into parallelizable worker-busy seconds
  and inherently serial parent seconds (pool round wall vs total
  wall).  On hosts with more than one CPU the sweep extends to real
  multi-worker runs and records their measured speedups alongside the
  model.  Exact-mode runs are asserted bit-identical to sequential.
* ``projection`` — an Amdahl model ``t(n) = serial + busy / n`` built
  from that measured decomposition.  It is a model, not a measurement,
  and is labeled as such in the JSON.

The decomposition records what exact mode leaves serial.  It
runs the summarize / compose / scan rounds for **every** cache level
(``l1-summary``, ``l1-scan``, ``l2-scan``, ``l3-scan``) in workers and
ships the accounting back as per-shard deltas.  The per-shard fix-up
fold (counter deltas, the order-dependent float timing chain,
checkpoint IO) is consumed as each l3-scan result lands, so it
overlaps the round instead of trailing it — but it still runs in the
parent, so the projection floors the round time at the fold's own
duration.  What remains strictly serial is LRU-state composition
between rounds plus argument marshalling and the data-traffic
pre-decode.
"""

from __future__ import annotations

import os
import sys
import time

from repro import kernel
from repro.analysis.experiments import Evaluator, ExperimentSettings
from repro.analysis.reporting import render_table
from repro.perf import PerfRegistry
from repro.sim.cpu import CoreSimulator
from repro.sim.parallel import ParallelConfig
from repro.sim.trace import ShardedTrace, write_trace_shards

from .conftest import write_json, write_result

EVAL_LENGTH = 600_000
WARMUP = 30_000
NUM_SHARDS = 16
SEQ_REPEATS = 3
PAR_REPEATS = 2
PROJECTED_WORKERS = (2, 4, 8, 16)

#: The worker-pool rounds — the parallelizable part of the wall.  Everything else the parent does (compose, the accounting
#: fold, the float timing chain, checkpoint IO, and the data-traffic
#: pre-decode when a workload has one) is counted as serial.
ROUND_STAGES = (
    "parallel:l1-summary",
    "parallel:l1-scan",
    "parallel:l2-scan",
    "parallel:l3-scan",
)


def _best_sequential(program, sharded):
    best = None
    stats = None
    for _ in range(SEQ_REPEATS):
        core = CoreSimulator(program)
        t0 = time.perf_counter()
        stats = core.run(sharded, warmup=WARMUP)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, stats


def _best_parallel(program, sharded, workers):
    """Best-of wall time plus the perf decomposition of the best run."""
    best = None
    stats = None
    registry = None
    for _ in range(PAR_REPEATS):
        perf = PerfRegistry()
        core = CoreSimulator(program)
        t0 = time.perf_counter()
        run_stats = core.run(
            sharded,
            warmup=WARMUP,
            parallel=ParallelConfig("exact", workers=workers, perf=perf),
        )
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best, stats, registry = elapsed, run_stats, perf
    return best, stats, registry


def _rounds_wall(registry):
    return sum(registry.seconds(stage) for stage in ROUND_STAGES)


def test_parallel_shards(results_dir, tmp_path_factory):
    evaluation = Evaluator(ExperimentSettings(eval_length=EVAL_LENGTH))[
        "wordpress"
    ]
    program = evaluation.app.program
    trace = evaluation.eval_trace
    total = trace.instruction_count(program)
    shard_dir = tmp_path_factory.mktemp("parallel-shards")
    write_trace_shards(trace, program, shard_dir, total // NUM_SHARDS)
    sharded = ShardedTrace(shard_dir)

    # single-CPU hosts stop at 2 workers (the walls only demonstrate
    # overhead there); real multi-core hosts extend the sweep so the
    # JSON carries *measured* multi-worker speedups next to the model
    cpus = os.cpu_count() or 1
    measured_workers = [1, 2]
    if cpus > 1:
        measured_workers += [
            n for n in (4, 8) if n <= max(cpus, 4) and n not in measured_workers
        ]

    with kernel.force_numpy_kernel():
        t_seq, seq = _best_sequential(program, sharded)
        walls = {}
        decomposition = None
        for workers in measured_workers:
            wall, stats, registry = _best_parallel(program, sharded, workers)
            walls[workers] = wall
            # the executor's contract: bit-identical statistics
            assert stats == seq, f"exact mode diverged at workers={workers}"
            if workers == 1:
                rounds = _rounds_wall(registry)
                busy = registry.seconds("parallel:busy")
                decomposition = {
                    "wall_seconds": wall,
                    "busy_seconds": busy,
                    "rounds_wall_seconds": rounds,
                    "serial_seconds": wall - rounds,
                    "serial_fraction": (wall - rounds) / wall,
                    # the accounting fold overlaps the l3-scan round
                    # (its wall hides inside rounds_wall) but runs in
                    # the parent, so no worker count compresses it —
                    # the projection floors round time at this value
                    "fold_seconds": registry.seconds("parallel:fold"),
                    "utilization": registry.worker_utilization(),
                }
        serial = decomposition["serial_seconds"]
        busy = decomposition["busy_seconds"]
        fold = decomposition["fold_seconds"]
        projected = {
            n: t_seq / (serial + max(busy / n, fold))
            for n in PROJECTED_WORKERS
        }
        exact = {
            "measured_walls": {str(k): v for k, v in walls.items()},
            "decomposition": decomposition,
            "projected_speedup": {str(n): s for n, s in projected.items()},
        }
        if cpus > 1:
            # real walls, not the model — only meaningful with >1 CPU
            exact["measured_speedup"] = {
                str(k): t_seq / v for k, v in walls.items() if k > 1
            }
        modes = {"exact": exact}
        # scaling sanity: the model must improve monotonically with
        # workers
        speedups = [projected[n] for n in PROJECTED_WORKERS]
        assert speedups == sorted(speedups)
        # the multi-level decomposition's acceptance bar: the parent's
        # serial remainder (compose + fold + timing chain + checkpoints)
        # stays under 15% of the 1-worker wall, projecting >= 3x at 8
        assert decomposition["serial_fraction"] < 0.15, (
            "exact-mode parent fold grew back above 15% serial"
        )
        assert projected[8] > 3.0

    payload = {
        "host": {
            "cpu_count": cpus,
            "python": sys.version.split()[0],
        },
        "workload": {
            "app": "wordpress",
            "eval_length": EVAL_LENGTH,
            "warmup": WARMUP,
            "instructions": total,
            "num_shards": sharded.num_shards,
            "trace_format": "on-disk sharded (mmap)",
        },
        "measured": {
            "sequential_seconds": t_seq,
            "modes": modes,
        },
        "projection": {
            "method": (
                "Amdahl from the 1-worker decomposition: "
                "t(n) = serial + max(busy/n, fold), "
                "speedup(n) = sequential / t(n); serial = wall - "
                "pool-round wall, busy = worker task seconds "
                "(parallel:busy), fold = the parent's accounting fold "
                "(parallel:fold), which overlaps the l3-scan round but "
                "cannot compress below its own duration"
            ),
            "caveat": (
                "projected, not measured: this host has "
                f"{cpus} CPU(s)"
                + (
                    "; measured_speedup entries are real walls"
                    if cpus > 1
                    else ", so real multi-worker walls cannot "
                    "demonstrate speedup here"
                )
            ),
            "exact_mode_serial_remainder": (
                "exact mode runs summarize/compose/scan rounds for all "
                "three cache levels in workers and ships the accounting "
                "back as per-shard deltas; the fix-up fold (counter "
                "deltas, the order-dependent float timing chain, "
                "checkpoint IO) overlaps the l3-scan round but is "
                "parent-serial, so projections floor round time at its "
                "duration; strictly serial work is LRU-state composition "
                "between rounds plus argument marshalling"
            ),
        },
    }
    write_json(results_dir, "parallel_shards", payload)

    rows = [
        {
            "configuration": "sequential",
            "wall_s": round(t_seq, 3),
            "projected_8w_speedup": "",
        }
    ]
    for mode, entry in modes.items():
        for workers, wall in entry["measured_walls"].items():
            rows.append(
                {
                    "configuration": f"{mode} workers={workers}",
                    "wall_s": round(wall, 3),
                    "projected_8w_speedup": (
                        f"{entry['projected_speedup']['8']:.2f}x"
                        if workers == "1"
                        else ""
                    ),
                }
            )
    table = render_table(
        rows,
        title=(
            f"parallel sharded replay (cpu_count={cpus}; "
            "projections are Amdahl models, not measurements)"
        ),
    )
    write_result(results_dir, "parallel_shards", table)
