"""Process-parallel shard replay: workers, pool and LRU stitching.

This module is the worker side of the parallel sharded-replay
executor (:mod:`repro.sim.streaming` holds the drivers).  Workers
consume the on-disk shard format (:class:`~repro.sim.trace.
ShardedTrace`) directly — shard columns are memory-mapped from disk,
never pickled through the pool — and each worker emits spans absorbed
onto per-worker timelines via :meth:`~repro.obs.trace.Tracer.absorb`.

One mode, **exact** (no-plan columnar backends only), runs the summarize /
compose / scan pattern once per cache level — the whole hierarchy is
LRU-with-demand-fill, so the same composition law stitches every
level — and finishes with a parallel accounting reduction:

1. ``l1-summary``: every worker summarizes its shard's L1I access
   stream as the per-set *distinct lines by last access* (capped at
   the associativity) — the only part of a shard that can influence
   the L1 state any later shard starts from.  The parent composes the
   summaries left-to-right with :func:`compose_lru_state` into the
   **exact** L1 start state of every shard.
2. ``l1-scan``: workers replay the exact per-access L1 sweep from
   that true start state.  Knowing the exact L1 outcomes fixes the
   shard's L2 access stream (instruction misses merged with the
   parent-decoded data-traffic lines), so the same task also returns
   the shard's L2 summary and its L1/program counter contribution.
3. ``l2-scan``: the parent composes the L2 start states; workers run
   the exact L2 sweep, which fixes the L3 stream (the L2 misses), and
   return the L3 summary plus the L2 counters.
4. ``l3-scan``: the parent composes the L3 start states; workers run
   the exact L3 sweep and return everything the parent's fold still
   needs — the per-level miss histogram, each instruction miss's
   block and hit level, the per-block cycle increments, and the L3
   counters.

The parent's remaining serial work is composition plus an accounting
reduction: integer counters are order-independent deltas
(:class:`~repro.sim.stats.CarryUpdate`) applied per shard, and the
only per-event serial piece left is the float timing chain
(:func:`~repro.sim.array_replay._timing_fold` — float addition is not
associative, so the ``now``/``busy``/stall sequence must replay in
reference order).  Because every sweep runs the identical
``_lru_stream`` from the identical start state and the timing fold is
the identical float sequence, the result is bit-identical to
sequential replay *by construction*, checkpoints included.

The composition law: for an LRU set with ``ways`` ways, start state
``S`` (oldest-first) and a shard whose distinct accessed lines in that
set, ordered by last access (oldest first), are ``D``, the end state
is ``([s for s in S if s not in D] + D)[-ways:]`` — every line of
``D`` ends more recent than every surviving line of ``S``, in exactly
its last-access order, and only ``D``'s last ``ways`` entries can
survive, so capping the summary at the associativity is lossless.
The law never mentions L1: it holds for any LRU-with-demand-fill
level, which is exactly why rounds 2–4 can reuse it for L2 and L3
once the preceding round has fixed that level's access stream.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import kernel
from ..obs.trace import Tracer, get_tracer, use_tracer

PARALLEL_MODES = ("exact",)


@dataclass
class ParallelConfig:
    """How to fan one trace's shards across worker processes.

    ``mode`` is ``"exact"`` (bit-identical, no-plan columnar backends;
    other configurations fall back to sequential replay).
    ``workers`` of ``None`` or ``<= 0`` means one per CPU.
    ``perf`` receives the pool's busy/idle accounting (the process
    registry when None).
    """

    mode: str = "exact"
    workers: Optional[int] = None
    perf: object = None

    def __post_init__(self) -> None:
        if self.mode not in PARALLEL_MODES:
            raise ValueError(
                f"parallel mode must be one of {PARALLEL_MODES}, "
                f"got {self.mode!r}"
            )

    def resolve_workers(self) -> int:
        if self.workers is None or int(self.workers) <= 0:
            return os.cpu_count() or 1
        return int(self.workers)


# -- LRU state stitching -----------------------------------------------------


def compose_lru_state(
    state: Dict[int, Dict[int, None]],
    summary: List[list],
    ways: int,
) -> Dict[int, Dict[int, None]]:
    """Advance an L1 LRU state across one whole shard, from its
    summary (per-set distinct lines by last access, oldest first).

    Pure: the input state is never mutated; untouched sets are shared.
    The returned per-set dicts preserve recency order (oldest first),
    matching :func:`~repro.sim.array_replay._lru_stream` exactly.
    """
    new_state = dict(state)
    for set_index, d_lines in summary:
        recency = new_state.get(set_index)
        if recency:
            dset = set(d_lines)
            merged = [line for line in recency if line not in dset]
            merged.extend(d_lines)
        else:
            merged = list(d_lines)
        new_state[set_index] = {line: None for line in merged[-ways:]}
    return new_state


# -- worker side -------------------------------------------------------------

#: Per-worker-process state installed by :func:`_init_worker`.
_W: dict = {}


def _init_worker(payload: dict) -> None:
    """Pool initializer: install the run description in this worker."""
    from .trace import ShardedTrace

    global _W
    kernel.set_numpy_kernel(payload["numpy"])
    state = dict(payload)
    state["sharded"] = ShardedTrace(payload["shard_dir"])
    state["view"] = None
    if payload["numpy"] and kernel.HAVE_NUMPY:
        from .columnar import columnar_view

        state["view"] = columnar_view(payload["program"])
    _W = state


def _lru_summary(lines, num_sets: int, ways: int) -> List[list]:
    """Per-set distinct lines by last access, oldest first, capped at
    the associativity — the summary :func:`compose_lru_state`
    consumes.  Level-agnostic: pass the geometry of whichever level's
    access stream *lines* is."""
    import numpy as np

    # Distinct lines, most-recently-accessed first: first occurrence
    # in the reversed stream is the last access in the forward stream.
    reversed_lines = lines[::-1]
    uniq, first_pos = np.unique(reversed_lines, return_index=True)
    mru_first = uniq[np.argsort(first_pos)]
    buckets: Dict[int, list] = {}
    for line in mru_first.tolist():
        bucket = buckets.setdefault(line % num_sets, [])
        if len(bucket) < ways:
            bucket.append(line)
    return [[s, bucket[::-1]] for s, bucket in buckets.items()]


def _copy_state(state: dict) -> dict:
    """A worker's private copy of a composed start state.  The sweep
    mutates the per-set recency dicts, and across the pool boundary
    pickling already copied them — the explicit copy is for in-process
    callers (tests, and any future thread pool)."""
    return {set_index: dict(recency) for set_index, recency in state.items()}


def _memo(name: str, key, compute, keep: int = 4):
    """Per-worker memo for pure per-shard derivations.  Workers have no
    task affinity, so this is best-effort: whichever worker re-draws a
    shard it has seen skips the recompute (with one worker that is
    every round after the first).  Keyed on the full inputs, bounded to
    the *keep* most recent shards."""
    cache = _W.setdefault(name, {})
    if key in cache:
        return cache[key]
    value = compute()
    cache[key] = value
    while len(cache) > keep:
        del cache[next(iter(cache))]
    return value


def _shard_gather(index: int):
    """One shard's rows and L1I access stream (memory-mapped ids)."""
    from .array_replay import _gather_l1

    def compute():
        view = _W["view"]
        rows = view.rows_for(_W["sharded"].shard_array(index))
        return (rows,) + _gather_l1(view, rows)

    return _memo("gather_memo", index, compute)


def _shard_l2_stream(index: int, l1_hits_bytes: bytes, data_stream: tuple):
    """Rebuild one shard's exact L2 access stream from the round-2 L1
    hit flags and the parent-decoded data lines.  Workers are
    stateless across rounds (any pool process may pick up any task),
    so rounds 3 and 4 re-derive the stream instead of carrying it —
    memoized, so a worker that already derived (or originally built)
    this shard's stream reuses it."""
    import numpy as np

    from .array_replay import _flags, _merge_l2_stream

    def compute():
        rows, _counts, _cum, block_of_access, l1_lines = _shard_gather(index)
        miss_pos = np.flatnonzero(~_flags(l1_hits_bytes))
        return (rows,) + _merge_l2_stream(
            l1_lines[miss_pos],
            block_of_access[miss_pos],
            data_stream[0],
            data_stream[1],
            len(rows),
        )

    return _memo("l2_stream_memo", (index, l1_hits_bytes), compute)


def _task_l1_summary(index: int) -> List[list]:
    """Round 1: the shard's L1 summary (see the composition law)."""
    geom = _W["machine"].l1i
    l1_lines = _shard_gather(index)[4]
    return _lru_summary(l1_lines, geom.num_sets, geom.ways)


def _task_l1_scan(
    index: int,
    state: dict,
    data_stream: tuple,
    reset_local: Optional[int],
) -> dict:
    """Round 2: the exact per-access L1 sweep from the composed true
    start state.  The exact L1 outcomes fix the shard's L2 access
    stream, so this round also returns the L2 summary (for the
    parent's L2 composition) and the shard's L1/program counter
    contribution (reset-aware, matching ``array_shard_replay``)."""
    import numpy as np

    from .array_replay import _flags, _lru_stream, _merge_l2_stream

    machine = _W["machine"]
    view = _W["view"]
    rows, counts_pe, cum_pe, block_of_access, l1_lines = _shard_gather(index)
    geom = machine.l1i
    hits_b, evicts_b, _state = _lru_stream(
        l1_lines.tolist(),
        (l1_lines % geom.num_sets).tolist(),
        geom.ways,
        _copy_state(state),
    )
    l1_hits = _flags(hits_b)
    miss_pos = np.flatnonzero(~l1_hits)
    miss_blocks = block_of_access[miss_pos]
    hits_bytes = bytes(hits_b)
    # build the L2 stream through the memo rounds 3 and 4 read, so a
    # worker that ran this shard's round 2 never re-derives it
    _rows, l2_lines, _l2_blocks, _l2_is_instr = _memo(
        "l2_stream_memo",
        (index, hits_bytes),
        lambda: (rows,) + _merge_l2_stream(
            l1_lines[miss_pos], miss_blocks, data_stream[0],
            data_stream[1], len(rows),
        ),
    )
    l2_geom = machine.l2
    total_accesses = int(cum_pe[-1])
    evicts = _flags(evicts_b)
    if reset_local is None:
        l1_hit_count = int(l1_hits.sum())
        counters = {
            "l1_dh": l1_hit_count,
            "l1_dm": total_accesses - l1_hit_count,
            "l1_ev": int(evicts.sum()),
            "l1i_accesses": total_accesses,
            "l1i_misses": len(miss_pos),
            "program_instructions": int(view.instruction_counts[rows].sum()),
        }
    else:
        first_access = int(cum_pe[reset_local])
        post_hits = int(l1_hits[first_access:].sum())
        counters = {
            "l1_dh": post_hits,
            "l1_dm": (total_accesses - first_access) - post_hits,
            "l1_ev": int(evicts[first_access:].sum()),
            "l1i_accesses": int(counts_pe[reset_local:].sum()),
            "l1i_misses": int((miss_blocks >= reset_local).sum()),
            "program_instructions": int(
                view.instruction_counts[rows[reset_local:]].sum()
            ),
        }
    return {
        "l1_hits": hits_bytes,
        "l2_summary": _lru_summary(l2_lines, l2_geom.num_sets, l2_geom.ways),
        "counters": counters,
    }


def _task_l2_scan(
    index: int,
    state: dict,
    l1_hits: bytes,
    data_stream: tuple,
    reset_local: Optional[int],
) -> dict:
    """Round 3: the exact L2 sweep from the composed L2 start state.
    The exact L2 outcomes fix the L3 stream (the L2 misses, in
    order), so this round also returns the L3 summary and the shard's
    L2 counter contribution."""
    import numpy as np

    from .array_replay import _flags, _lru_stream

    machine = _W["machine"]
    _rows, l2_lines, l2_blocks, _l2_is_instr = _shard_l2_stream(
        index, l1_hits, data_stream
    )
    geom = machine.l2
    hits_b, evicts_b, _state = _lru_stream(
        l2_lines.tolist(),
        (l2_lines % geom.num_sets).tolist(),
        geom.ways,
        _copy_state(state),
    )
    l2_hits = _flags(hits_b)
    l3_lines = l2_lines[~l2_hits]
    l3_geom = machine.l3
    l2_from = (
        0 if reset_local is None
        else int(np.searchsorted(l2_blocks, reset_local, side="left"))
    )
    post_hits = int(l2_hits[l2_from:].sum())
    counters = {
        "l2_dh": post_hits,
        "l2_dm": (len(l2_lines) - l2_from) - post_hits,
        "l2_ev": int(_flags(evicts_b)[l2_from:].sum()),
    }
    return {
        "l2_hits": bytes(hits_b),
        "l3_summary": _lru_summary(l3_lines, l3_geom.num_sets, l3_geom.ways),
        "counters": counters,
    }


def _task_l3_scan(
    index: int,
    state: dict,
    l1_hits: bytes,
    l2_hits_bytes: bytes,
    data_stream: tuple,
    reset_local: Optional[int],
) -> dict:
    """Round 4: the exact L3 sweep from the composed L3 start state,
    plus everything the parent's accounting fold still needs: the L3
    counters, the per-level instruction-miss histogram, each miss's
    block and hit level, and the per-block cycle increments for the
    (inherently serial) float timing chain."""
    import numpy as np

    from .array_replay import _LEVEL_NAMES, _flags, _lru_stream

    machine = _W["machine"]
    view = _W["view"]
    rows, l2_lines, l2_blocks, l2_is_instr = _shard_l2_stream(
        index, l1_hits, data_stream
    )
    l2_hits = _flags(l2_hits_bytes)
    l3_sel = ~l2_hits
    l3_lines = l2_lines[l3_sel]
    l3_blocks = l2_blocks[l3_sel]
    l3_is_instr = l2_is_instr[l3_sel]
    geom = machine.l3
    hits_b, evicts_b, _state = _lru_stream(
        l3_lines.tolist(),
        (l3_lines % geom.num_sets).tolist(),
        geom.ways,
        _copy_state(state),
    )
    l3_hits = _flags(hits_b)

    # Hit level of every instruction miss — stable merging preserved
    # the instruction subsequence's order at both levels, so boolean
    # gathers line back up with the L1 miss positions.
    l2_hit_instr = l2_hits[l2_is_instr]
    n_miss = len(l2_hit_instr)
    lev = np.empty(n_miss, dtype=np.int64)
    lev[l2_hit_instr] = 1
    rest = np.flatnonzero(~l2_hit_instr)
    lev[rest] = np.where(l3_hits[l3_is_instr], 2, 3)
    miss_blocks = l2_blocks[l2_is_instr]

    l3_from = (
        0 if reset_local is None
        else int(np.searchsorted(l3_blocks, reset_local, side="left"))
    )
    post_hits = int(l3_hits[l3_from:].sum())
    counters = {
        "l3_dh": post_hits,
        "l3_dm": (len(l3_lines) - l3_from) - post_hits,
        "l3_ev": int(_flags(evicts_b)[l3_from:].sum()),
    }
    levels: Dict[str, int] = {}
    for block, level in zip(miss_blocks.tolist(), lev.tolist()):
        if reset_local is None or block >= reset_local:
            name = _LEVEL_NAMES[level]
            levels[name] = levels.get(name, 0) + 1
    cpi = 1.0 / machine.base_ipc
    incr = view.instruction_counts[rows].astype(np.float64) * cpi
    return {
        "counters": counters,
        "miss_levels": levels,
        "miss_blocks": miss_blocks.astype(np.int64).tobytes(),
        "levels": lev.astype(np.int8).tobytes(),
        "incr": incr.tobytes(),
    }


def _task_ideal(index: int, reset_local: Optional[int]) -> Tuple[int, int]:
    """Ideal-mode shard sums: (line accesses, retired instructions),
    counted from the warmup reset when it lands in this shard."""
    view = _W["view"]
    rows = view.rows_for(_W["sharded"].shard_array(index))
    if reset_local is not None:
        rows = rows[reset_local:]
    return (
        int(view.line_counts[rows].sum()),
        int(view.instruction_counts[rows].sum()),
    )


_TASKS = {
    "l1-summary": _task_l1_summary,
    "l1-scan": _task_l1_scan,
    "l2-scan": _task_l2_scan,
    "l3-scan": _task_l3_scan,
    "ideal": _task_ideal,
}


def _pool_task(stage: str, args: tuple):
    """Top-level pool entry: run one task, timing its busy seconds and
    (when the parent is tracing) recording its spans for absorption."""
    fn = _TASKS[stage]
    started = time.perf_counter()
    events = None
    if _W["tracing"]:
        tracer = Tracer(process_label="shard-worker")
        with use_tracer(tracer):
            with tracer.span(f"sim:parallel-{stage}", index=args[0]):
                result = fn(*args)
        events = tracer.snapshot()
    else:
        result = fn(*args)
    return result, time.perf_counter() - started, events


# -- parent side -------------------------------------------------------------


def pool_payload(core, shard_dir) -> dict:
    """The picklable run description shipped to every worker."""
    return {
        "program": core.program,
        "machine": core.machine,
        "shard_dir": str(shard_dir),
        "numpy": kernel.numpy_enabled(),
        "tracing": get_tracer().enabled,
    }


class ShardPool:
    """A process pool running shard tasks round by round.

    ``run_round`` submits one task per argument tuple, collects the
    results in submission order, and books the round into *perf*:
    per-shard worker seconds (``parallel:shard``), the round's wall
    time (``parallel:<stage>``), and the busy/idle split
    (``parallel:busy`` / ``parallel:idle``) the ``--timing`` report
    turns into a worker-utilization line.

    A *consume* callback receives ``(position, result)`` for each task
    as its future resolves — still in submission order, but while
    later tasks are executing, so per-result parent work (the exact
    executor's accounting fold) overlaps the round instead of running
    after it.  Its return value replaces the stored result, letting
    the consumer drop bulky payloads it has already folded.
    """

    def __init__(self, payload: dict, workers: int):
        self.workers = max(1, int(workers))
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(payload,),
        )

    def run_round(
        self, stage: str, argtuples, perf, tracer, consume=None
    ) -> list:
        argtuples = list(argtuples)
        started = time.perf_counter()
        futures = [
            self._pool.submit(_pool_task, stage, args) for args in argtuples
        ]
        results = []
        busy = 0.0
        for position, future in enumerate(futures):
            result, seconds, events = future.result()
            busy += seconds
            perf.add("parallel:shard", seconds)
            if events:
                tracer.absorb(events)
            if consume is not None:
                result = consume(position, result)
            results.append(result)
        wall = time.perf_counter() - started
        perf.add(f"parallel:{stage}", wall, units=len(argtuples))
        perf.add("parallel:busy", busy)
        perf.add("parallel:idle", max(0.0, self.workers * wall - busy))
        return results

    def shutdown(self) -> None:
        self._pool.shutdown()

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.shutdown()
        return False
