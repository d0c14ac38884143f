"""Plan-batched sweep benchmark: one trace pass vs per-variant replay.

Times a fig18-style five-variant minimum-distance sweep on the
wordpress workload two ways — five independent ``columnar-plan``
replays (the sequential backend every variant would otherwise use)
against one ``columnar-plan-batch`` pass over the same trace — and
asserts the batch's contract along the way: every variant's statistics,
final cache residency, and engine state are ``==`` the per-variant
run, both whole-trace and composed with ``--shard-insns`` streaming.

Honesty note — the recorded speedup is a real measured wall-clock
ratio, best-of-N both sides.  Both sides run the same compiled plan
walk (``plan_walk`` in ``replay_kernel.c``), one variant at a time;
the batch walks the shards in the outer loop and the variants in the
inner one, so each shard's plan-independent precompute (the
counting-Bloom prefix sums, the per-site context windows and the
trace decode) is built once per shard instead of once per variant.
That shared precompute is the whole of the measured gain: the walk
itself, the plan-dependent decision tables and the cache-state
hand-off scale with the variant count on both sides of the ratio.
"""

from __future__ import annotations

import sys
import time

from repro import kernel
from repro.analysis.experiments import Evaluator, ExperimentSettings
from repro.analysis.reporting import render_table
from repro.core.config import DEFAULT_CONFIG
from repro.sim.cpu import CoreSimulator
from repro.sim.streaming import run_plan_batch

from .conftest import write_json, write_result

APP = "wordpress"
MINIMA = (5, 13, 27, 54, 108)
REPEATS = 3
SHARD_INSNS = 200_000

#: regression floor for the measured end-to-end ratio (the committed
#: ratio itself is guarded by scripts/bench_diff.py at 0.9x)
SPEEDUP_FLOOR = 1.5


def _snapshot(core):
    levels = {}
    for name in ("l1i", "l2", "l3"):
        cache = getattr(core.hierarchy, name)
        levels[name] = (
            {s: list(st._stack) for s, st in cache._sets.items()},
            sorted(cache._pending_prefetched),
        )
    engine = core.engine
    return (
        core.stats,
        levels,
        core.hierarchy.fill_port.busy_until,
        dict(engine.inflight),
        engine.true_positive_firings,
        engine.false_positive_firings,
    )


def _solo_pass(program, evaluation, plans, warmup, shard_insns=None):
    # Like the batched pass, the timer covers the replays only: building
    # the simulators and reading their final state stay outside it.
    cores = [
        CoreSimulator(
            program, plan=plan, data_traffic=evaluation._eval_data_traffic()
        )
        for plan in plans
    ]
    t0 = time.perf_counter()
    for core in cores:
        core.run(evaluation.eval_trace, warmup=warmup, shard_insns=shard_insns)
    elapsed = time.perf_counter() - t0
    for core in cores:
        assert core.last_replay_backend == "columnar-plan"
    return elapsed, [_snapshot(c) for c in cores]


def _batched_pass(program, evaluation, plans, warmup, shard_insns=None):
    cores = [
        CoreSimulator(
            program, plan=plan, data_traffic=evaluation._eval_data_traffic()
        )
        for plan in plans
    ]
    t0 = time.perf_counter()
    reasons = run_plan_batch(
        cores, evaluation.eval_trace, warmup=warmup, shard_insns=shard_insns
    )
    elapsed = time.perf_counter() - t0
    assert reasons == [None] * len(plans), reasons
    return elapsed, [_snapshot(c) for c in cores]


def test_batched_sweep(results_dir):
    evaluation = Evaluator(ExperimentSettings.medium())[APP]
    program = evaluation.app.program
    warmup = evaluation.settings.warmup
    plans = [
        evaluation.ispy_plan(
            DEFAULT_CONFIG.with_window(m, DEFAULT_CONFIG.max_prefetch_distance)
        )
        for m in MINIMA
    ]
    blocks = len(evaluation.eval_trace.block_ids)

    with kernel.force_numpy_kernel():
        # warm the decode caches once so neither side pays them
        _solo_pass(program, evaluation, plans[:1], warmup)
        _batched_pass(program, evaluation, plans, warmup)

        t_solo, solo_snaps = min(
            (_solo_pass(program, evaluation, plans, warmup)
             for _ in range(REPEATS)),
            key=lambda r: r[0],
        )
        t_batch, batch_snaps = min(
            (_batched_pass(program, evaluation, plans, warmup)
             for _ in range(REPEATS)),
            key=lambda r: r[0],
        )

        # the contract: bit-identical per variant, whole-trace...
        assert batch_snaps == solo_snaps

        # ...and composed with sharded streaming
        t_solo_sh, solo_sh = _solo_pass(
            program, evaluation, plans, warmup, shard_insns=SHARD_INSNS
        )
        t_batch_sh, batch_sh = _batched_pass(
            program, evaluation, plans, warmup, shard_insns=SHARD_INSNS
        )
        assert batch_sh == solo_sh
        assert solo_sh == solo_snaps  # sharding is invisible, both sides

    speedup = t_solo / t_batch
    assert speedup >= SPEEDUP_FLOOR, (
        f"batched sweep speedup {speedup:.2f}x fell below the "
        f"{SPEEDUP_FLOOR}x floor"
    )

    payload = {
        "host": {"python": sys.version.split()[0]},
        "workload": {
            "app": APP,
            "eval_blocks": blocks,
            "warmup": warmup,
            "variants": len(MINIMA),
            "sweep": {"kind": "fig18-min-distance", "minima": list(MINIMA)},
        },
        "measured": {
            "per_variant_seconds": t_solo,
            "batched_seconds": t_batch,
            "speedup": speedup,
            "sharded": {
                "shard_insns": SHARD_INSNS,
                "per_variant_seconds": t_solo_sh,
                "batched_seconds": t_batch_sh,
                "speedup": t_solo_sh / t_batch_sh,
            },
        },
        "bit_identity": {
            "verified": True,
            "scope": (
                "stats, per-set LRU residency of all three levels, "
                "pending-prefetch sets, fill-port clock, engine "
                "inflight map and firing counters; whole-trace and "
                f"shard_insns={SHARD_INSNS}"
            ),
        },
        "note": (
            "both sides run the compiled plan walk per variant; the "
            "batch builds each shard's plan-independent precompute "
            "(counting-Bloom prefix sums, context windows, trace "
            "decode) once for all variants instead of once per variant"
        ),
    }
    write_json(results_dir, "batched_sweep", payload)

    rows = [
        {
            "configuration": f"per-variant columnar-plan x{len(MINIMA)}",
            "wall_s": round(t_solo, 3),
            "speedup": "1.00x",
        },
        {
            "configuration": "columnar-plan-batch",
            "wall_s": round(t_batch, 3),
            "speedup": f"{speedup:.2f}x",
        },
        {
            "configuration": f"per-variant, shard_insns={SHARD_INSNS}",
            "wall_s": round(t_solo_sh, 3),
            "speedup": "",
        },
        {
            "configuration": f"batched, shard_insns={SHARD_INSNS}",
            "wall_s": round(t_batch_sh, 3),
            "speedup": f"{t_solo_sh / t_batch_sh:.2f}x",
        },
    ]
    table = render_table(
        rows,
        title=(
            f"plan-batched sweep ({APP}, {len(MINIMA)} variants, "
            "bit-identity verified)"
        ),
    )
    write_result(results_dir, "batched_sweep", table)
