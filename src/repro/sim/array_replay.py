"""Array replay: the columnar no-observer fast paths.

Replays a :class:`BlockTrace` over the Table I hierarchy and produces
**bit-identical** :class:`SimStats` to :class:`CoreSimulator`'s
per-event reference loop, for runs with no observer hooks: the no-plan
baseline/ideal/profiling replays (:func:`array_replay`,
:func:`ideal_replay`) and — since the plan-aware kernel —
plan-bearing evaluations as well (:func:`plan_replay`, covering the
I-SPY `Cprefetch`/`Lprefetch`/`CLprefetch` variants and the AsmDB
baseline).

The decomposition exploits the fact that, without prefetches, every
cache level is plain LRU-with-demand-fill and the three levels are
connected only through their access *streams*:

1. the L1I access stream is a CSR gather of each executed block's
   cache lines (``repro.sim.columnar``);
2. exact per-access LRU outcomes come from the compiled sweep
   (``lru_sweep`` in ``replay_kernel.c``, loaded by
   :mod:`repro.sim.native`) over the carry's dense per-level state —
   LRU state is inherently sequential, so this one loop runs in C and
   everything around it is vectorized;
3. the L2 stream merges instruction L1 misses with the data-traffic
   stream (replayed through the *real* :class:`DataTrafficModel`, so
   the RNG and fractional-accumulator sequences match exactly), and
   the L3 stream is the L2 misses — each solved by the same sweep;
4. timing replays the reference loop's float operations in the exact
   same order: per-block ``now += count * cpi`` advances are sequential
   ``np.add.accumulate`` segments (ufunc accumulate is a strict
   left-to-right fold, matching repeated ``+=``), and the fill-port
   stall arithmetic at each missing block runs scalar, in line order.

The plan-bearing replay vectorizes every *decision* (conditional
fire/suppress outcomes, Fig. 21 ground truth, coalesced targets) and
hands the sequential rest — prefetch issue, the L1I demand walk, L2/L3
fills, data traffic, the in-flight map and the fill-port timing fold —
to the compiled ``plan_walk``.  Both kernels replay the reference's
operations in its order and are built without float contraction or
fast-math, so every float is produced by the identical operation
sequence and every counter from the identical event set: equality with
the reference is exact, not approximate — the differential tests in
``tests/sim/test_array_replay.py`` assert ``==``, never ``approx``.

Replay state lives in dense per-level arrays (:class:`DenseLevel`) that
the kernels update in place across shards.  Caches adopt it as is; the
Python-shaped views (:class:`LRUStack` sets, recency dicts, checkpoint
lists) are rebuilt only by the converters on :class:`DenseLevel`, for
the readers that need them.  With no C compiler the simulator does not
come here: it runs the reference loop (see :mod:`repro.sim.native`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs.trace import get_tracer
from . import native
from .columnar import columnar_view
from .hierarchy import MemoryHierarchy
from .params import MachineParams
from .replacement import LRUStack
from .stats import SimStats
from .trace import BlockTrace, Program

#: miss-level codes used internally (index into the tables below)
_LEVEL_NAMES = ("l1", "l2", "l3", "memory")


@dataclass
class ReplayEvents:
    """Per-event outputs for the vectorized profiler."""

    #: cycle at which each trace index began fetching (``on_block``)
    block_cycles: np.ndarray
    #: one entry per L1I demand miss, in stream order (``on_miss``)
    miss_trace_index: np.ndarray
    miss_block_ids: np.ndarray
    miss_lines: np.ndarray
    miss_cycles: np.ndarray


class DenseLevel:
    """One cache level's replay state, in the compiled kernel's layout.

    Way ``k`` of set ``s`` is ``tags[s * ways + k]``; the first
    ``fill[s]`` ways are valid, MRU first, and ``pend`` flags the lines
    filled by a prefetch and not yet demanded (each flag moves with its
    tag).  ``touched`` marks every set the reference simulator would
    have created — any probe creates one, even when nothing is filled.

    The methods below are the only converters to and from the
    Python-shaped state other code reads, one per reader: cache
    adoption (:meth:`cache_state`), checkpoints (:meth:`mru_lists`,
    :meth:`pending_lines`, :meth:`load_mru_lists`) and the parallel
    executor's recency dicts (:meth:`to_recency`, :meth:`load_recency`).
    """

    __slots__ = ("num_sets", "ways", "pd", "tags", "fill", "pend", "touched")

    def __init__(self, num_sets: int, ways: int, pd: int = 0):
        self.num_sets = num_sets
        self.ways = ways
        self.pd = pd
        self.tags = np.zeros(num_sets * ways, dtype=np.int64)
        self.fill = np.zeros(num_sets, dtype=np.int64)
        self.pend = np.zeros(num_sets * ways, dtype=np.uint8)
        self.touched = np.zeros(num_sets, dtype=np.uint8)

    def _valid(self) -> np.ndarray:
        """``(num_sets, ways)`` mask of occupied ways."""
        return np.arange(self.ways) < self.fill[:, None]

    def mru_lists(self) -> List[Tuple[int, List[int]]]:
        """``(set, lines MRU first)`` for every touched set, by index."""
        touched = np.flatnonzero(self.touched)
        tags = self.tags.reshape(self.num_sets, self.ways)[touched]
        return [
            (s, row[:f])
            for s, f, row in zip(
                touched.tolist(), self.fill[touched].tolist(), tags.tolist()
            )
        ]

    def pending_lines(self) -> List[int]:
        mask = (self.pend.reshape(self.num_sets, self.ways) != 0) & self._valid()
        return sorted(self.tags.reshape(self.num_sets, self.ways)[mask].tolist())

    def load_mru_lists(self, entries, pending=()) -> None:
        """Replace the state with *entries* (``(set, lines MRU first)``
        pairs, empty lists allowed) and the *pending* lines."""
        self.tags[:] = 0
        self.fill[:] = 0
        self.pend[:] = 0
        self.touched[:] = 0
        pending = set(pending)
        ways = self.ways
        for set_index, lines in entries:
            set_index = int(set_index)
            lines = [int(line) for line in lines]
            if not 0 <= set_index < self.num_sets or len(lines) > ways:
                raise ValueError(f"bad cache set {set_index} in replay state")
            base = set_index * ways
            self.touched[set_index] = 1
            self.fill[set_index] = len(lines)
            self.tags[base:base + len(lines)] = lines
            for k, line in enumerate(lines):
                if line in pending:
                    self.pend[base + k] = 1

    def cache_state(self) -> Tuple[Dict[int, LRUStack], set]:
        """The :class:`~repro.sim.cache.Cache` structures: per-set
        :class:`LRUStack` objects and the pending-prefetch set."""
        sets: Dict[int, LRUStack] = {}
        for set_index, lines in self.mru_lists():
            stack = LRUStack(self.ways)
            stack._stack = lines
            sets[set_index] = stack
        return sets, set(self.pending_lines())

    def to_recency(self) -> Dict[int, Dict[int, None]]:
        """Per-set ordered ``{line: None}`` dicts, oldest first, for the
        sets holding lines (the parallel executor's composition form)."""
        return {
            set_index: dict.fromkeys(reversed(lines))
            for set_index, lines in self.mru_lists()
            if lines
        }

    def load_recency(self, state: Dict[int, Dict[int, None]]) -> None:
        self.load_mru_lists(
            (set_index, list(reversed(list(recency))))
            for set_index, recency in state.items()
        )


def _lru_stream(
    lines: List[int],
    sets: List[int],
    ways: int,
    state: Optional[Dict[int, Dict[int, None]]] = None,
) -> Tuple[bytearray, bytearray, Dict[int, Dict[int, None]]]:
    """Dict-state adapter over the compiled LRU sweep.

    Demand fill on every miss, MRU insertion, LRU victim.  Returns
    per-access hit and eviction flags plus the final per-set recency
    state (oldest first); a given *state* continues a previous sweep
    and is updated in place.  The replay itself sweeps dense state
    (:func:`repro.sim.native.lru_sweep`); this form serves the parallel
    executor, whose composition law works on recency dicts.
    """
    if state is None:
        state = {}
    lines_a = np.asarray(lines, dtype=np.int64)
    sets_a = np.asarray(sets, dtype=np.int64)
    num_sets = 1 + max(
        max(state, default=0), int(sets_a.max()) if len(sets_a) else 0
    )
    level = DenseLevel(num_sets, ways)
    level.load_recency(state)
    hits, evicts = native.lru_sweep(level, lines_a, sets_a)
    state.clear()
    state.update(level.to_recency())
    return bytearray(hits.tobytes()), bytearray(evicts.tobytes()), state


class _DataRecorder:
    """Stands in for the hierarchy while replaying the data model.

    ``DataTrafficModel.advance`` only ever calls ``data_access``; by
    running the *real* model against this recorder, the RNG stream and
    fractional accumulator behave exactly as in the reference replay,
    and the recorded lines feed the merged L2 stream.
    """

    __slots__ = ("data_access",)

    def __init__(self, append):
        self.data_access = append


def _record_data_stream(data_traffic, instr_counts: List[int]):
    """Record the model's per-block data lines (reference-driven)."""
    lines: List[int] = []
    counts: List[int] = []
    recorder = _DataRecorder(lines.append)
    advance = data_traffic.advance
    previous = 0
    for count in instr_counts:
        advance(count, recorder)
        here = len(lines)
        counts.append(here - previous)
        previous = here
    return lines, counts


def _fast_data_eligible(model) -> bool:
    """Is *model* the exact class/RNG the word-decoder replicates?

    Subclasses (or replaced ``_rng`` objects) may override the draw
    sequence, so anything but the stock configuration records through
    the model itself instead.
    """
    import random as _random

    from .datatraffic import DataTrafficModel

    return (
        type(model) is DataTrafficModel
        and type(model._rng) is _random.Random
        and model.hot_lines.bit_length() <= 32
        and model.working_set_lines.bit_length() <= 32
    )


#: Memoized decode results for :func:`_fast_data_stream`.  The decode
#: is a pure function of the model's configuration, its RNG state and
#: the per-block instruction counts, so repeated evaluations of the
#: same (app, seed) pair — every best-of-N benchmark repeat, every
#: plan compared on one evaluation trace — reuse the stream instead of
#: re-deriving it word by word.  Entries also record the model's final
#: (accumulator, access count, RNG state) so a cache hit leaves the
#: model bit-identical to a cold decode.  Bounded FIFO.
_STREAM_CACHE: Dict[tuple, tuple] = {}
# Sized above the shard counts the streaming driver produces on the
# benchmark workloads: with the former limit of 8, an 11-shard run
# evicted every entry before its first reuse and the decode re-derived
# each shard's stream on every benchmark repeat.
_STREAM_CACHE_LIMIT = 32


def _fast_data_stream(model, instr_counts: List[int]):
    """Replay :class:`DataTrafficModel` from raw MT19937 words.

    CPython's ``random`` and NumPy's ``MT19937`` share the same core
    generator, so the model's exact access stream can be decoded from
    a bulk ``random_raw`` draw: ``random()`` is two raw words
    (``(w0>>5)*2**26 + (w1>>6)`` over 2^53) and ``randrange(n)`` is
    ``w >> (32 - n.bit_length())`` with rejection — bit-for-bit the
    sequences ``Random`` produces, at a fraction of the per-call cost.
    The model object (fractional accumulator, access counter and RNG
    state) is left exactly as if ``advance`` had been called per block.
    """
    from .datatraffic import DATA_LINE_BASE

    rate = model.rate
    acc = model._accumulator

    cache_key = (
        model._rng.getstate()[1],
        acc,
        rate,
        model.hot_weight,
        model.hot_lines,
        model.working_set_lines,
        tuple(instr_counts),
    )
    hit = _STREAM_CACHE.get(cache_key)
    if hit is not None:
        lines, counts, total, final_acc, final_state = hit
        model._accumulator = final_acc
        model.accesses += total
        if final_state is not None:
            model._rng.setstate(final_state)
        return lines, counts
    counts: List[int] = []
    append_count = counts.append
    total = 0
    for owed in (np.asarray(instr_counts, dtype=np.int64) * rate).tolist():
        acc += owed
        count = int(acc)
        acc -= count
        append_count(count)
        total += count
    if not total:
        model._accumulator = acc
        _stream_cache_put(cache_key, ([], counts, 0, acc, None))
        return [], counts

    state = model._rng.getstate()
    bit_gen = np.random.MT19937()
    bit_gen.state = {
        "bit_generator": "MT19937",
        "state": {
            "key": np.asarray(state[1][:-1], dtype=np.uint64),
            "pos": state[1][-1],
        },
    }
    # ~3.6 words per access on average; the decode loop tops up the
    # buffer whenever a rejection run outpaces the estimate.
    words = bit_gen.random_raw(4 * total + 64).tolist()

    hot_weight = model.hot_weight
    hot_lines = model.hot_lines
    working_set = model.working_set_lines
    hot_shift = 32 - hot_lines.bit_length()
    cold_shift = 32 - working_set.bit_length()
    inv53 = 1.0 / 9007199254740992.0

    lines: List[int] = []
    append_line = lines.append
    pointer = 0
    capacity = len(words)
    for _ in range(total):
        if pointer + 2 > capacity:
            words.extend(bit_gen.random_raw(4096).tolist())
            capacity = len(words)
        w0 = words[pointer]
        w1 = words[pointer + 1]
        pointer += 2
        if ((w0 >> 5) * 67108864.0 + (w1 >> 6)) * inv53 < hot_weight:
            bound, shift = hot_lines, hot_shift
        else:
            bound, shift = working_set, cold_shift
        while True:
            if pointer == capacity:
                words.extend(bit_gen.random_raw(4096).tolist())
                capacity = len(words)
            offset = words[pointer] >> shift
            pointer += 1
            if offset < bound:
                break
        append_line(DATA_LINE_BASE + offset)

    # Leave the model exactly as the reference would: accumulator,
    # access count, and the RNG advanced by the words consumed.
    model._accumulator = acc
    model.accesses += total
    resync = np.random.MT19937()
    resync.state = {
        "bit_generator": "MT19937",
        "state": {
            "key": np.asarray(state[1][:-1], dtype=np.uint64),
            "pos": state[1][-1],
        },
    }
    resync.random_raw(pointer)
    final = resync.state["state"]
    final_state = (
        3,
        tuple(int(k) for k in final["key"]) + (int(final["pos"]),),
        None,
    )
    model._rng.setstate(final_state)
    _stream_cache_put(cache_key, (lines, counts, total, acc, final_state))
    return lines, counts


def _stream_cache_put(key: tuple, entry: tuple) -> None:
    """FIFO-bounded insert; callers treat cached lists as read-only."""
    if len(_STREAM_CACHE) >= _STREAM_CACHE_LIMIT:
        _STREAM_CACHE.pop(next(iter(_STREAM_CACHE)))
    _STREAM_CACHE[key] = entry


def _decode_data_stream(data_traffic, instr_counts: List[int]):
    """The model's per-block data lines, fast-decoded when eligible.

    Advances the model exactly as per-block ``advance`` calls would —
    including when called once per shard, since both decoders resume
    from the model's live RNG/accumulator state.
    """
    if data_traffic is None:
        return [], []
    if _fast_data_eligible(data_traffic):
        return _fast_data_stream(data_traffic, instr_counts)
    return _record_data_stream(data_traffic, instr_counts)


def _flags(buffer) -> np.ndarray:
    return np.frombuffer(bytes(buffer), dtype=np.uint8).astype(bool)


def ideal_replay(
    program: Program,
    trace: BlockTrace,
    machine: MachineParams,
    stats: SimStats,
    warmup: int = 0,
) -> SimStats:
    """The all-hits upper bound: counters only, no hierarchy state."""
    view = columnar_view(program)
    rows = view.trace_rows(trace)
    length = len(rows)
    eff = warmup if 0 < warmup < length else 0
    cpi = 1.0 / machine.base_ipc

    stats.clear()
    stats.l1i_accesses = int(view.line_counts[rows[eff:]].sum())
    program_instructions = int(view.instruction_counts[rows[eff:]].sum())
    stats.program_instructions = program_instructions
    stats.compute_cycles = program_instructions * cpi
    return stats


class ArrayCarry:
    """Cross-shard state for the no-plan columnar replay.

    Holds everything the next shard's replay depends on: per-level LRU
    residency, the float time/fill-port/stall accumulators, and the
    running counters.  Counters follow the reference loop's convention
    — values since the last warmup reset — so a carry snapshot at any
    shard boundary is exactly the state the reference loop would hold
    at that trace position, and replaying shard-by-shard is
    bit-identical to replaying the whole trace at once.
    """

    __slots__ = (
        "l1", "l2", "l3",
        "now", "busy", "frontend_stalls",
        "l1_dh", "l1_dm", "l1_ev",
        "l2_dh", "l2_dm", "l2_ev",
        "l3_dh", "l3_dm", "l3_ev",
        "l1i_accesses", "l1i_misses", "program_instructions",
        "miss_level_counts",
    )

    def __init__(self, machine: MachineParams):
        self.l1 = DenseLevel(machine.l1i.num_sets, machine.l1i.ways)
        self.l2 = DenseLevel(machine.l2.num_sets, machine.l2.ways)
        self.l3 = DenseLevel(machine.l3.num_sets, machine.l3.ways)
        self.now = 0.0
        self.busy = 0.0
        self.frontend_stalls = 0.0
        self.l1_dh = self.l1_dm = self.l1_ev = 0
        self.l2_dh = self.l2_dm = self.l2_ev = 0
        self.l3_dh = self.l3_dm = self.l3_ev = 0
        self.l1i_accesses = 0
        self.l1i_misses = 0
        self.program_instructions = 0
        self.miss_level_counts: Dict[str, int] = {}


def _sweep(level: DenseLevel, lines: np.ndarray):
    """One level's compiled LRU sweep; set indices from NumPy ``%``."""
    return native.lru_sweep(level, lines, lines % level.num_sets)


def _gather_l1(view, rows: np.ndarray):
    """The L1I access stream of a shard: a CSR gather of each executed
    block's cache lines.  Returns ``(counts_pe, cum_pe,
    block_of_access, l1_lines)`` — shared by the sequential kernel and
    the parallel executor's workers, so both derive the identical
    stream."""
    n_local = len(rows)
    counts_pe = view.line_counts[rows]
    cum_pe = np.zeros(n_local + 1, dtype=np.int64)
    np.cumsum(counts_pe, out=cum_pe[1:])
    total_accesses = int(cum_pe[-1])
    block_of_access = np.repeat(np.arange(n_local, dtype=np.int64), counts_pe)
    gather = (
        np.repeat(view.line_starts[rows] - cum_pe[:-1], counts_pe)
        + np.arange(total_accesses, dtype=np.int64)
    )
    return counts_pe, cum_pe, block_of_access, view.line_data[gather]


def _merge_l2_stream(
    miss_lines: np.ndarray,
    miss_blocks: np.ndarray,
    data_lines_py,
    data_counts_py,
    n_local: int,
):
    """One shard's L2 access stream: per retired block, that block's
    instruction L1 misses first, then its data lines.

    Returns ``(l2_lines, l2_blocks, l2_is_instr)``.  Shared by the
    sequential kernel and the parallel executor's workers (every round
    that touches L2 or L3 re-derives the identical stream from the L1
    hit flags and the pre-decoded data lines)."""
    n_miss = len(miss_lines)
    if data_lines_py:
        data_lines = np.asarray(data_lines_py, dtype=np.int64)
        data_blocks = np.repeat(
            np.arange(n_local, dtype=np.int64),
            np.asarray(data_counts_py, dtype=np.int64),
        )
        merge_key = np.concatenate([miss_blocks * 2, data_blocks * 2 + 1])
        merge_lines = np.concatenate([miss_lines, data_lines])
        order = np.argsort(merge_key, kind="stable")
        l2_lines = merge_lines[order]
        l2_blocks = merge_key[order] >> 1
        l2_is_instr = (merge_key[order] & 1) == 0
    else:
        l2_lines = miss_lines
        l2_blocks = miss_blocks
        l2_is_instr = np.ones(n_miss, dtype=bool)
    return l2_lines, l2_blocks, l2_is_instr


def _timing_fold(
    machine: MachineParams,
    incr: np.ndarray,
    mb_list: List[int],
    lev_list: List[int],
    now: float,
    busy: float,
    frontend_stalls: float,
    count_from: int,
    n_local: int,
    block_cycles: Optional[np.ndarray] = None,
    miss_cycles: Optional[list] = None,
) -> Tuple[float, float, float]:
    """The reference float timing sequence over one shard, segment-
    accelerated: between miss blocks ``now`` advances through an
    ``np.add.accumulate`` over the per-block cycle increments, at each
    miss the fill-port/stall recurrence runs per miss.

    This is the one inherently sequential piece of the replay — every
    float add depends on the entry ``now``/``busy``, and float addition
    is not associative — so the parallel executor runs exactly this
    fold in the parent while workers precompute everything else.
    Returns the exit ``(now, busy, frontend_stalls)``.
    """
    record_events = block_cycles is not None
    penalty = (
        0.0,
        float(machine.l2_latency),
        float(machine.l3_latency),
        float(machine.memory_latency),
    )
    occupancy = (
        0.0,
        machine.l2_fill_occupancy,
        machine.l3_fill_occupancy,
        machine.memory_fill_occupancy,
    )
    n_miss = len(mb_list)
    segment = 0
    i = 0
    # When nobody wants per-block cycle events, only segment *totals*
    # matter — a plain Python loop runs the identical left-associated
    # float-add sequence ``np.add.accumulate`` would, without a buffer
    # allocation per segment (segments between misses are short, so the
    # per-call overhead dominates the accumulate path).  Deliberately
    # not ``sum()``: since 3.12 it compensates float summation, which
    # changes the bits.
    incr_py = None if record_events else incr.tolist()
    while i < n_miss:
        block = mb_list[i]
        if block > segment:
            if record_events:
                buffer = np.empty(block - segment + 1, dtype=np.float64)
                buffer[0] = now
                buffer[1:] = incr[segment:block]
                np.add.accumulate(buffer, out=buffer)
                block_cycles[segment:block] = buffer[:-1]
                now = float(buffer[-1])
            else:
                for value in incr_py[segment:block]:
                    now += value
        if record_events:
            block_cycles[block] = now
        stall = 0.0
        while i < n_miss and mb_list[i] == block:
            level = lev_list[i]
            start = now + stall
            if start < busy:
                start = busy
            busy = start + occupancy[level]
            stall = (start + penalty[level]) - now
            if record_events:
                miss_cycles[i] = now + stall
            i += 1
        if block >= count_from:
            frontend_stalls += stall
        now += stall
        now += float(incr[block]) if record_events else incr_py[block]
        segment = block + 1
    if segment < n_local:
        # Advance through the trailing miss-free blocks so the next
        # shard resumes at the exact whole-trace `now`.  Splitting one
        # left-to-right fold at a shard boundary preserves the order,
        # so the value is bit-identical.
        if record_events:
            buffer = np.empty(n_local - segment + 1, dtype=np.float64)
            buffer[0] = now
            buffer[1:] = incr[segment:n_local]
            np.add.accumulate(buffer, out=buffer)
            block_cycles[segment:n_local] = buffer[:-1]
            now = float(buffer[-1])
        else:
            for value in incr_py[segment:n_local]:
                now += value
    return now, busy, frontend_stalls


def array_shard_replay(
    view,
    rows: np.ndarray,
    machine: MachineParams,
    carry: ArrayCarry,
    data_traffic=None,
    offset: int = 0,
    eff: int = 0,
    record_events: bool = False,
) -> Optional[ReplayEvents]:
    """Replay one shard (trace rows at global positions ``offset ..
    offset+len(rows)``) of the no-plan columnar path, continuing from
    and updating *carry*.

    *eff* is the global warmup-reset index (0 when no reset fires).
    When the boundary falls inside this shard, counters restart from
    the local boundary exactly as the reference loop's mid-run reset
    does; otherwise this shard's counts accumulate onto the carry.
    With ``record_events`` the per-shard observer view is returned,
    with ``miss_trace_index`` already global.
    """
    n_local = len(rows)
    reset_local = eff - offset if offset <= eff < offset + n_local else None
    cpi = 1.0 / machine.base_ipc

    # -- L1I access stream (CSR gather of each block's lines) ----------
    counts_pe, cum_pe, block_of_access, l1_lines = _gather_l1(view, rows)
    total_accesses = int(cum_pe[-1])
    l1_hits, l1_evicts = _sweep(carry.l1, l1_lines)

    miss_pos = np.flatnonzero(~l1_hits)
    miss_lines = l1_lines[miss_pos]
    miss_blocks = block_of_access[miss_pos]
    n_miss = len(miss_pos)

    # -- data-traffic stream (exact model replay, per retired block) ---
    data_lines_py, data_counts_py = _decode_data_stream(
        data_traffic, view.instruction_counts[rows].tolist()
    )

    # -- L2 stream: per block, instruction misses then data lines ------
    l2_lines, l2_blocks, l2_is_instr = _merge_l2_stream(
        miss_lines, miss_blocks, data_lines_py, data_counts_py, n_local
    )
    l2_hits, l2_evicts = _sweep(carry.l2, l2_lines)

    # -- L3 stream: the L2 misses, in order ----------------------------
    l3_sel = ~l2_hits
    l3_lines = l2_lines[l3_sel]
    l3_blocks = l2_blocks[l3_sel]
    l3_is_instr = l2_is_instr[l3_sel]
    l3_hits, l3_evicts = _sweep(carry.l3, l3_lines)

    # -- hit level of every instruction miss ---------------------------
    # Stable merging preserved the instruction subsequence's order at
    # both levels, so boolean gathers line back up with `miss_pos`.
    l2_hit_instr = l2_hits[l2_is_instr]
    lev = np.empty(n_miss, dtype=np.int64)
    lev[l2_hit_instr] = 1
    rest = np.flatnonzero(~l2_hit_instr)
    lev[rest] = np.where(l3_hits[l3_is_instr], 2, 3)

    # -- timing: the reference float sequence, segment-accelerated -----
    incr = view.instruction_counts[rows].astype(np.float64) * cpi
    mb_list = miss_blocks.tolist()
    lev_list = lev.tolist()
    block_cycles = np.empty(n_local, dtype=np.float64) if record_events else None
    miss_cycles = [0.0] * n_miss if record_events else None

    # Stalls before the reset boundary are discarded by the reset, so
    # the reset shard restarts the float accumulator from 0.0 — the
    # exact value the reference holds right after clearing.
    if reset_local is None:
        frontend_stalls = carry.frontend_stalls
        count_from = 0
    else:
        frontend_stalls = 0.0
        count_from = reset_local
    carry.now, carry.busy, carry.frontend_stalls = _timing_fold(
        machine,
        incr,
        mb_list,
        lev_list,
        carry.now,
        carry.busy,
        frontend_stalls,
        count_from,
        n_local,
        block_cycles,
        miss_cycles,
    )

    # -- counters (reference semantics: values since the last reset) ---
    if reset_local is None:
        l1_hit_count = int(l1_hits.sum())
        carry.l1_dh += l1_hit_count
        carry.l1_dm += total_accesses - l1_hit_count
        carry.l1_ev += int(l1_evicts.sum())
        carry.l1i_accesses += total_accesses
        carry.l1i_misses += n_miss
        carry.program_instructions += int(view.instruction_counts[rows].sum())
        levels = carry.miss_level_counts
        for level in lev_list:
            name = _LEVEL_NAMES[level]
            levels[name] = levels.get(name, 0) + 1
        l2_from = 0
        l3_from = 0
    else:
        first_access = int(cum_pe[reset_local])
        l1_post_hits = int(l1_hits[first_access:].sum())
        carry.l1_dh = l1_post_hits
        carry.l1_dm = (total_accesses - first_access) - l1_post_hits
        carry.l1_ev = int(l1_evicts[first_access:].sum())
        carry.l1i_accesses = int(counts_pe[reset_local:].sum())
        carry.l1i_misses = int((miss_blocks >= reset_local).sum())
        carry.program_instructions = int(
            view.instruction_counts[rows[reset_local:]].sum()
        )
        levels = {}
        for block, level in zip(mb_list, lev_list):
            if block >= reset_local:
                name = _LEVEL_NAMES[level]
                levels[name] = levels.get(name, 0) + 1
        carry.miss_level_counts = levels
        l2_from = int(np.searchsorted(l2_blocks, reset_local, side="left"))
        l3_from = int(np.searchsorted(l3_blocks, reset_local, side="left"))

    l2_post_hits = int(l2_hits[l2_from:].sum())
    l2_dh = l2_post_hits
    l2_dm = (len(l2_lines) - l2_from) - l2_post_hits
    l2_ev = int(l2_evicts[l2_from:].sum())
    l3_post_hits = int(l3_hits[l3_from:].sum())
    l3_dh = l3_post_hits
    l3_dm = (len(l3_lines) - l3_from) - l3_post_hits
    l3_ev = int(l3_evicts[l3_from:].sum())
    if reset_local is None:
        carry.l2_dh += l2_dh
        carry.l2_dm += l2_dm
        carry.l2_ev += l2_ev
        carry.l3_dh += l3_dh
        carry.l3_dm += l3_dm
        carry.l3_ev += l3_ev
    else:
        carry.l2_dh, carry.l2_dm, carry.l2_ev = l2_dh, l2_dm, l2_ev
        carry.l3_dh, carry.l3_dm, carry.l3_ev = l3_dh, l3_dm, l3_ev

    if not record_events:
        return None
    return ReplayEvents(
        block_cycles=block_cycles,
        miss_trace_index=miss_blocks + offset if offset else miss_blocks,
        miss_block_ids=view.block_ids[rows[miss_blocks]],
        miss_lines=miss_lines,
        miss_cycles=np.asarray(miss_cycles, dtype=np.float64),
    )


def array_finish(
    carry: ArrayCarry,
    machine: MachineParams,
    stats: SimStats,
    hierarchy: Optional[MemoryHierarchy] = None,
) -> None:
    """Populate *stats* (and *hierarchy*) from a completed carry."""
    cpi = 1.0 / machine.base_ipc
    stats.clear()
    stats.l1i_accesses = carry.l1i_accesses
    stats.l1i_misses = carry.l1i_misses
    stats.frontend_stall_cycles = carry.frontend_stalls
    stats.program_instructions = carry.program_instructions
    stats.compute_cycles = carry.program_instructions * cpi
    stats.miss_level_counts = dict(carry.miss_level_counts)

    if hierarchy is not None:
        hierarchy.install_carry_summary(carry)
        # Reference parity: prefetch-hit bookkeeping feeds this field.
        stats.prefetches_useful = hierarchy.l1i.stats.prefetch_hits


def array_replay(
    program: Program,
    trace: BlockTrace,
    machine: MachineParams,
    stats: SimStats,
    data_traffic=None,
    warmup: int = 0,
    hierarchy: Optional[MemoryHierarchy] = None,
    record_events: bool = False,
) -> Optional[ReplayEvents]:
    """Replay *trace* with no prefetch plan; populate *stats* exactly.

    The whole-trace path is the single-shard case of
    :func:`array_shard_replay` — sharded replays (``repro.sim.
    streaming``) run the same kernel per chunk with the carry threaded
    through, which is what keeps the two bit-identical.

    When *hierarchy* is given its caches, cache statistics and fill
    port are left in the identical final state the reference loop
    would produce.  With ``record_events`` the per-block cycles and
    per-miss events (the observer view) are returned for the profiler.
    """
    view = columnar_view(program)
    rows = view.trace_rows(trace)
    length = len(rows)
    # The reference clears counters when `index == warmup`; a boundary
    # outside the trace never fires, so statistics then cover the run.
    eff = warmup if 0 < warmup < length else 0
    carry = ArrayCarry(machine)
    events = array_shard_replay(
        view, rows, machine, carry, data_traffic, 0, eff, record_events
    )
    array_finish(carry, machine, stats, hierarchy)
    return events


class PlanContext:
    """Per-run immutable precompute for the plan-bearing replay.

    Everything here is a pure function of (program, machine, engine
    plan/tracker configuration, hierarchy policy) — independent of the
    trace — so sharded replays build it once and reuse it for every
    shard.
    """

    def __init__(
        self,
        program: Program,
        machine: MachineParams,
        engine,
        hierarchy: Optional[MemoryHierarchy] = None,
    ):
        view = columnar_view(program)
        self.view = view
        self.machine = machine
        self.cpi = 1.0 / machine.base_ipc
        self.prefetch_cpi = 1.0 / machine.issue_width

        # Plan-independent tables are cached on the view so the
        # variants of a sweep build them once, not once each.
        statics = getattr(view, "_plan_static_cache", None)
        if statics is None:
            statics = {}
            setattr(view, "_plan_static_cache", statics)

        # -- compiled site table, mapped onto program rows --------------
        compiled = engine.plan.compiled_sites()
        row_by_id = statics.get("row_by_id")
        if row_by_id is None:
            row_by_id = dict(
                zip(view.block_ids.tolist(), range(view.num_blocks))
            )
            statics["row_by_id"] = row_by_id
        self.row_by_id = row_by_id
        site_rows = {}
        for block_id, instrs in compiled.items():
            row = row_by_id.get(block_id)
            if row is not None and instrs:
                site_rows[row] = instrs
        self.site_rows = site_rows
        self.is_site = np.zeros(view.num_blocks, dtype=bool)
        if site_rows:
            self.is_site[list(site_rows)] = True
        self.row_nexec = np.zeros(view.num_blocks, dtype=np.int64)
        for row, instrs in site_rows.items():
            self.row_nexec[row] = len(instrs)

        # -- counting-Bloom static tables -------------------------------
        self.tracker = engine.tracker
        self.exact_hist = engine.exact_history
        self.exact_depth = (
            self.exact_hist.maxlen if self.exact_hist is not None else 0
        )
        if self.tracker is not None:
            tracker = self.tracker
            self.depth = tracker.depth
            self.hash_bits = tracker.hash_bits
            positions = tracker.positions
            # the positions table is cached per (program, hash_bits), so
            # its identity keys the derived contribution tables; the
            # entry pins the table so the id cannot be recycled
            ckey = ("contrib", self.hash_bits, id(positions))
            entry = statics.get(ckey)
            if entry is None:
                contrib_rows = np.zeros(
                    (view.num_blocks, self.hash_bits), dtype=np.int32
                )
                hashed_row = np.zeros(view.num_blocks, dtype=bool)
                for block_id, row in row_by_id.items():
                    pos = positions.get(block_id)
                    if pos is not None:
                        hashed_row[row] = True
                        for bit in pos:
                            contrib_rows[row, bit] += 1
                max_single = (
                    int(contrib_rows.max()) if contrib_rows.size else 0
                )
                entry = (positions, contrib_rows, hashed_row, max_single)
                statics[ckey] = entry
            self.contrib_rows = entry[1]
            self.hashed_row = entry[2]
            self.max_single = entry[3]
        else:
            self.depth = 0
            self.hash_bits = 0
            self.contrib_rows = None
            self.hashed_row = None
            self.max_single = 0

        # -- geometry scalars and per-row tables ------------------------
        l1_geom = machine.l1i
        l2_geom = machine.l2
        l3_geom = machine.l3
        self.l1_ns = l1_geom.num_sets
        self.l2_ns = l2_geom.num_sets
        self.l3_ns = l3_geom.num_sets
        self.l1_ways = l1_geom.ways
        self.l2_ways = l2_geom.ways
        self.l3_ways = l3_geom.ways
        if hierarchy is not None:
            self.pd1 = hierarchy.l1i.prefetch_insertion_depth()
            self.pd2 = hierarchy.l2.prefetch_insertion_depth()
            self.pd3 = hierarchy.l3.prefetch_insertion_depth()
        else:  # pragma: no cover - CoreSimulator always passes hierarchy
            self.pd1 = self.l1_ways // 2
            self.pd2 = self.l2_ways // 2
            self.pd3 = self.l3_ways // 2
        incr_row = statics.get(("incr", self.cpi))
        if incr_row is None:
            incr_row = view.instruction_counts.astype(np.float64) * self.cpi
            statics[("incr", self.cpi)] = incr_row
        #: compute cycles per program row (the kernel's ``incr_row``)
        self.incr_row = incr_row
        #: per-CSR-entry set indices of each level, for the kernel
        self.line_sets = tuple(
            view.line_sets(ns) for ns in (self.l1_ns, self.l2_ns, self.l3_ns)
        )
        self.penalty = (
            0.0,
            float(machine.l2_latency),
            float(machine.l3_latency),
            float(machine.memory_latency),
        )
        self.occupancy = (
            0.0,
            machine.l2_fill_occupancy,
            machine.l3_fill_occupancy,
            machine.memory_fill_occupancy,
        )


class PlanCarry:
    """Cross-shard state for the plan-bearing replay.

    Dense per-level cache state (:class:`DenseLevel`, updated in place
    by the compiled walk), the in-flight arrival map as two arrays in
    insertion order, the float accumulators, the since-last-reset
    counters, and two id tails that stand in for the sliding context
    windows at shard boundaries:

    * ``tracker_tail`` — the last ``depth`` *hashed* retired block ids,
      oldest first.  Prepending them as a virtual prefix reproduces the
      counting-Bloom window (and its transient overflow peaks) for
      every site occurrence in the next shard exactly.
    * ``exact_tail`` — the last ``exact_depth`` retired block ids, the
      Fig. 21 ground-truth window carried across the boundary.
    """

    __slots__ = (
        "l1", "l2", "l3",
        "inflight_lines", "inflight_arrivals",
        "now", "busy", "frontend_stalls", "late_stall",
        "late_hits", "sim_misses", "issued", "resident",
        "c2", "c3", "cm",
        "l1_dh", "l1_dm", "l1_ph", "l1_pf", "l1_pu", "l1_ev",
        "l2_dh", "l2_dm", "l2_ph", "l2_pf", "l2_pu", "l2_ev",
        "l3_dh", "l3_dm", "l3_ph", "l3_pf", "l3_pu", "l3_ev",
        "l1i_accesses", "program_instructions",
        "suppressed", "executed", "tp", "fp",
        "tracker_tail", "exact_tail",
    )

    def __init__(self, ctx: PlanContext):
        self.l1 = DenseLevel(ctx.l1_ns, ctx.l1_ways, ctx.pd1)
        self.l2 = DenseLevel(ctx.l2_ns, ctx.l2_ways, ctx.pd2)
        self.l3 = DenseLevel(ctx.l3_ns, ctx.l3_ways, ctx.pd3)
        self.inflight_lines = np.empty(0, dtype=np.int64)
        self.inflight_arrivals = np.empty(0, dtype=np.float64)
        self.now = 0.0
        self.busy = 0.0
        self.frontend_stalls = 0.0
        self.late_stall = 0.0
        for name in native.WALK_COUNTERS:
            setattr(self, name, 0)
        self.l1i_accesses = 0
        self.program_instructions = 0
        self.suppressed = 0
        self.executed = 0
        self.tp = 0
        self.fp = 0
        self.tracker_tail: list = []
        self.exact_tail: list = []

    def inflight(self) -> Dict[int, float]:
        """The in-flight map as a dict, in insertion order."""
        return dict(
            zip(self.inflight_lines.tolist(), self.inflight_arrivals.tolist())
        )

    def set_inflight(self, inflight: Dict[int, float]) -> None:
        self.inflight_lines = np.fromiter(
            inflight.keys(), dtype=np.int64, count=len(inflight)
        )
        self.inflight_arrivals = np.fromiter(
            inflight.values(), dtype=np.float64, count=len(inflight)
        )


def _plan_shard_precompute(ctx: PlanContext, carry: PlanCarry, rows, offset,
                           eff, shared: Optional[dict] = None):
    """Vectorized per-shard decision tables for the plan replay.

    Returns ``None`` — without mutating *carry* or any external state —
    when the shard would overflow a runtime-hash counter (the caller
    must fall back to the reference loop, which raises at the exact
    same push).  Otherwise returns the shard's site-plan entries and
    counter deltas for :func:`plan_shard_replay` to apply.

    The carried tails make every window computation exact: counting-
    Bloom windows are prefix-sum differences over a virtual sequence
    (``tracker_tail`` entries prepended to the shard), and the Fig. 21
    membership test runs ``searchsorted`` over ``exact_tail`` + shard
    occurrences, so both see precisely the entries the whole-trace
    arrays would have shown them.
    """
    view = ctx.view
    n_local = len(rows)
    reset_local = eff - offset if offset <= eff < offset + n_local else None

    site_rows = ctx.site_rows
    if site_rows:
        site_pos = np.flatnonzero(ctx.is_site[rows])
    else:
        site_pos = np.empty(0, dtype=np.int64)

    # occurrences of each site row, ascending (stable sort by row)
    occ_by_row: Dict[int, np.ndarray] = {}
    if len(site_pos):
        srows = rows[site_pos]
        order = np.argsort(srows, kind="stable")
        sorted_rows = srows[order]
        sorted_pos = site_pos[order]
        bounds = np.flatnonzero(np.diff(sorted_rows)) + 1
        for chunk_rows, chunk_pos in zip(
            np.split(sorted_rows, bounds), np.split(sorted_pos, bounds)
        ):
            occ_by_row[int(chunk_rows[0])] = chunk_pos

    tracker = ctx.tracker
    tp = 0
    fp = 0
    suppressed = 0
    fires_by_row: Dict[int, list] = {}
    new_hashed: list = []
    if tracker is not None:
        depth = ctx.depth
        hash_bits = ctx.hash_bits
        n_tail = len(carry.tracker_tail)
        # The prefix-sum machinery (and every per-row window derived
        # from it) depends only on (hash table, depth, carried tail) —
        # not the plan — so a plan batch hands in a *shared* memo and
        # variants with matching configuration build it once.
        mkey = (
            "bloom", hash_bits, depth, tuple(carry.tracker_tail),
            id(ctx.contrib_rows), tracker.max_count,
        )
        mach = shared.get(mkey) if shared is not None else None
        if mach is None:
            hashed_t = ctx.hashed_row[rows]
            contrib_shard = np.where(
                hashed_t[:, None], ctx.contrib_rows[rows], 0
            )
            if n_tail:
                tail_rows = np.array(
                    [ctx.row_by_id[b] for b in carry.tracker_tail],
                    dtype=np.int64,
                )
                hashed_v = np.concatenate(
                    [np.ones(n_tail, dtype=bool), hashed_t]
                )
                contrib_v = np.concatenate(
                    [ctx.contrib_rows[tail_rows], contrib_shard]
                )
            else:
                hashed_v = hashed_t
                contrib_v = contrib_shard
            n_virt = n_tail + n_local
            prefix = np.zeros((n_virt + 1, hash_bits), dtype=np.int64)
            np.cumsum(contrib_v, axis=0, out=prefix[1:])
            hashed_count = np.zeros(n_virt + 1, dtype=np.int64)
            np.cumsum(hashed_v, out=hashed_count[1:])
            hashed_idx = np.flatnonzero(hashed_v)

            hashed_local = np.flatnonzero(hashed_t)
            new_hashed = [
                int(b)
                for b in view.block_ids[rows[hashed_local[-depth:]]].tolist()
            ]

            # Overflow guard: the reference increments every bit of the
            # new entry *before* evicting the FIFO tail, so the
            # transient peak is a (depth+1)-entry window over this
            # shard's pushes.  A depth-entry tail covers every such
            # window (at most depth prior entries precede an in-shard
            # push).  If any peak would exceed the counter maximum, the
            # reference raises OverflowError mid-push; bail out
            # (pre-mutation) and let it do exactly that.
            overflow = False
            if (
                ctx.max_single
                and (depth + 1) * ctx.max_single > tracker.max_count
            ):
                pushes = hashed_idx[hashed_idx >= n_tail]
                if len(pushes):
                    push_rank = hashed_count[pushes + 1]
                    starts = np.zeros(len(pushes), dtype=np.int64)
                    deep = push_rank > depth + 1
                    starts[deep] = hashed_idx[push_rank[deep] - (depth + 1)]
                    peaks = prefix[pushes + 1] - prefix[starts]
                    overflow = int(peaks.max()) > tracker.max_count
            mach = {
                "prefix": prefix,
                "hashed_count": hashed_count,
                "hashed_idx": hashed_idx,
                "new_hashed": new_hashed,
                "overflow": overflow,
                "window": {},
                "fires": {},
            }
            if shared is not None:
                shared[mkey] = mach
        if mach["overflow"]:
            return None
        prefix = mach["prefix"]
        hashed_count = mach["hashed_count"]
        hashed_idx = mach["hashed_idx"]
        new_hashed = mach["new_hashed"]
        window_memo = mach["window"]
        fires_memo = mach["fires"]

        def window_counts(ts_v: np.ndarray) -> np.ndarray:
            """Counter values visible to a site executing at each
            (virtual-sequence) position."""
            rank = hashed_count[ts_v]
            starts = np.zeros(len(ts_v), dtype=np.int64)
            deep = rank > depth
            if deep.any():
                starts[deep] = hashed_idx[rank[deep] - depth]
            return prefix[ts_v] - prefix[starts]

        exact_depth = ctx.exact_depth
        n_ex = len(carry.exact_tail)
        if exact_depth and n_ex:
            ex_rows = np.array(
                [ctx.row_by_id[b] for b in carry.exact_tail], dtype=np.int64
            )
            virt_rows = np.concatenate([ex_rows, rows])
        else:
            n_ex = 0
            virt_rows = rows
        if shared is not None:
            occ_cache = shared.setdefault(
                ("exact", exact_depth, tuple(carry.exact_tail)), {}
            )
        else:
            occ_cache = {}

        for row, instrs in site_rows.items():
            if all(instr.context_mask is None for instr in instrs):
                continue
            ts = occ_by_row.get(row)
            if ts is None:
                continue
            window = window_memo.get(row)
            if window is None:
                window = window_counts(ts + n_tail)
                window_memo[row] = window
            if reset_local is None:
                ts_count = np.ones(len(ts), dtype=bool)
            else:
                ts_count = ts >= reset_local
            fires_list = []
            for instr in instrs:
                mask = instr.context_mask
                if mask is None:
                    fires_list.append(None)
                    continue
                fires = fires_memo.get((row, mask))
                if fires is None:
                    if mask >> hash_bits:
                        # Bits beyond the tracker width can never be set.
                        fires = np.zeros(len(ts), dtype=bool)
                    elif mask == 0:
                        fires = np.ones(len(ts), dtype=bool)
                    else:
                        bits = [
                            b for b in range(hash_bits) if (mask >> b) & 1
                        ]
                        fires = (window[:, bits] > 0).all(axis=1)
                    fires_memo[(row, mask)] = fires
                fires_list.append(fires)
                suppressed += int((~fires & ts_count).sum())
                if ctx.exact_hist is not None and instr.context_blocks:
                    # Fig. 21 ground truth: every context block occurs
                    # in the exact last-`exact_depth` retired window.
                    present = np.ones(len(ts), dtype=bool)
                    for context_block in instr.context_blocks:
                        crow = ctx.row_by_id.get(context_block)
                        if crow is None:
                            present[:] = False
                            break
                        occ = occ_cache.get(crow)
                        if occ is None:
                            occ = np.flatnonzero(virt_rows == crow)
                            occ_cache[crow] = occ
                        ts_v = ts + n_ex
                        lo = np.searchsorted(
                            occ, ts_v - exact_depth, side="left"
                        )
                        hi = np.searchsorted(occ, ts_v, side="left")
                        present &= (hi - lo) > 0
                    tp += int((fires & present).sum())
                    fp += int((fires & ~present).sum())
            fires_by_row[row] = fires_list

    # -- per-execution site plan ---------------------------------------
    # Every occurrence of a site executes one *combination*: the lines
    # its fired instructions target, in instruction order, and its
    # pipeline-slot cost (suppressed instructions still occupy slots).
    # Conditional sites see only a handful of distinct fire/suppress
    # combinations across all their occurrences, so the decisions pack
    # into a per-occurrence code and occurrences index a shared table:
    # ``plan_id[t]`` is the combination block *t* executes, or -1.
    plan_id = np.full(n_local, -1, dtype=np.int64)
    combos: list = []
    prefetch_cpi = ctx.prefetch_cpi
    for row, instrs in site_rows.items():
        ts = occ_by_row.get(row)
        if ts is None:
            continue
        cost = len(instrs) * prefetch_cpi
        fires_list = fires_by_row.get(row)
        if fires_list is None:
            plan_id[ts] = len(combos)
            combos.append(
                (tuple(chain.from_iterable(instr.targets for instr in instrs)),
                 cost)
            )
            continue
        codes = np.zeros(len(ts), dtype=np.int64)
        always = 0
        for j, fires in enumerate(fires_list):
            if fires is None:
                always |= 1 << j
            else:
                codes |= fires.astype(np.int64) << j
        uniq, inverse = np.unique(codes, return_inverse=True)
        plan_id[ts] = len(combos) + inverse.reshape(-1)
        for code in uniq.tolist():
            fired = always | code
            combos.append((
                tuple(chain.from_iterable(
                    instr.targets
                    for j, instr in enumerate(instrs)
                    if (fired >> j) & 1
                )),
                cost,
            ))

    if len(site_pos):
        sel = site_pos if reset_local is None else site_pos[
            site_pos >= reset_local
        ]
        executed = int(ctx.row_nexec[rows[sel]].sum())
    else:
        executed = 0

    if reset_local is None:
        l1i_accesses = int(view.line_counts[rows].sum())
        program_instructions = int(view.instruction_counts[rows].sum())
    else:
        l1i_accesses = int(view.line_counts[rows[reset_local:]].sum())
        program_instructions = int(
            view.instruction_counts[rows[reset_local:]].sum()
        )

    return {
        "reset_local": reset_local,
        "plan_id": plan_id,
        "combos": combos,
        "suppressed": suppressed,
        "executed": executed,
        "tp": tp,
        "fp": fp,
        "new_hashed": new_hashed,
        "l1i_accesses": l1i_accesses,
        "program_instructions": program_instructions,
    }


def plan_shard_replay(
    ctx: PlanContext,
    carry: PlanCarry,
    rows,
    offset: int = 0,
    eff: int = 0,
    data_traffic=None,
    shared: Optional[dict] = None,
) -> bool:
    """Replay one shard of the plan-bearing path, continuing from and
    updating *carry*.

    Returns ``False`` — before mutating the carry or the data-traffic
    model — when a runtime-hash counter would overflow in this shard;
    the caller must finish the remaining trace with the reference loop
    (which raises at the same push).  Variants replayed over the same
    shard may pass one *shared* memo, so their plan-independent
    precompute is built once.
    """
    pre = _plan_shard_precompute(ctx, carry, rows, offset, eff, shared)
    if pre is None:
        return False

    view = ctx.view
    reset_local = pre["reset_local"]

    # -- data-traffic stream (exact model replay, per retired block) ---
    # Past this point the replay mutates external state (the traffic
    # model's RNG/accumulator), so every bail-out has already happened.
    data_lines_py, data_counts_py = _decode_data_stream(
        data_traffic, view.instruction_counts[rows].tolist()
    )
    # Identical model states decode to the same list objects, so the
    # variants of a batch convert each stream once (the memo entry
    # holds the list, so its id cannot be recycled).
    dkey = ("data", id(data_lines_py), ctx.l2_ns, ctx.l3_ns)
    data = shared.get(dkey) if shared is not None else None
    if data is None:
        data_line = np.asarray(data_lines_py, dtype=np.int64)
        if data_counts_py:
            data_count = np.asarray(data_counts_py, dtype=np.int64)
        else:
            data_count = np.zeros(len(rows), dtype=np.int64)
        data = (data_lines_py, data_line, data_count,
                data_line % ctx.l2_ns, data_line % ctx.l3_ns)
        if shared is not None:
            shared[dkey] = data
    _lines_py, data_line, data_count, data_s2, data_s3 = data

    combos = pre["combos"]
    combo_start = np.zeros(len(combos) + 1, dtype=np.int64)
    np.cumsum([len(lines) for lines, _cost in combos], out=combo_start[1:])
    tgt_line = np.fromiter(
        chain.from_iterable(lines for lines, _cost in combos),
        dtype=np.int64, count=int(combo_start[-1]),
    )

    # -- the sequential core: one compiled walk over the shard ---------
    counters = np.array(
        [getattr(carry, name) for name in native.WALK_COUNTERS],
        dtype=np.int64,
    )
    floats = np.array(
        [getattr(carry, name) for name in native.WALK_FLOATS],
        dtype=np.float64,
    )
    line_s1, line_s2, line_s3 = ctx.line_sets
    carry.inflight_lines, carry.inflight_arrivals = native.plan_walk(
        (carry.l1, carry.l2, carry.l3),
        (carry.inflight_lines, carry.inflight_arrivals),
        counters,
        floats,
        boundary=-1 if reset_local is None else reset_local,
        penalty=ctx.penalty,
        occupancy=ctx.occupancy,
        rows=rows,
        plan_id=pre["plan_id"],
        combo_start=combo_start,
        combo_cost=[cost for _lines, cost in combos],
        tgt_line=tgt_line,
        tgt_s1=tgt_line % ctx.l1_ns,
        tgt_s2=tgt_line % ctx.l2_ns,
        tgt_s3=tgt_line % ctx.l3_ns,
        line_start=view.line_starts,
        line_data=view.line_data,
        line_s1=line_s1,
        line_s2=line_s2,
        line_s3=line_s3,
        incr_row=ctx.incr_row,
        data_count=data_count,
        data_line=data_line,
        data_s2=data_s2,
        data_s3=data_s3,
    )
    for name, value in zip(native.WALK_COUNTERS, counters.tolist()):
        setattr(carry, name, value)
    for name, value in zip(native.WALK_FLOATS, floats.tolist()):
        setattr(carry, name, value)

    # Vectorized counters follow the same since-last-reset convention
    # as the loop counters: the shard containing the reset replaces the
    # carry with its post-reset counts, any other shard adds its total.
    if reset_local is None:
        carry.suppressed += pre["suppressed"]
        carry.executed += pre["executed"]
        carry.l1i_accesses += pre["l1i_accesses"]
        carry.program_instructions += pre["program_instructions"]
    else:
        carry.suppressed = pre["suppressed"]
        carry.executed = pre["executed"]
        carry.l1i_accesses = pre["l1i_accesses"]
        carry.program_instructions = pre["program_instructions"]
    # Fig. 21 engine counters never reset at the warmup boundary.
    carry.tp += pre["tp"]
    carry.fp += pre["fp"]

    if ctx.tracker is not None:
        carry.tracker_tail = (
            carry.tracker_tail + pre["new_hashed"]
        )[-ctx.depth:]
    if ctx.exact_hist is not None and ctx.exact_depth:
        ids_tail = [
            int(b)
            for b in view.block_ids[rows[-ctx.exact_depth:]].tolist()
        ]
        carry.exact_tail = (carry.exact_tail + ids_tail)[-ctx.exact_depth:]
    return True


def _plan_finish(
    ctx: PlanContext,
    carry: PlanCarry,
    stats: SimStats,
    hierarchy: Optional[MemoryHierarchy],
    engine,
) -> None:
    """Populate *stats*, *hierarchy* and the *engine* runtime state
    from a completed plan carry."""
    stats.clear()
    stats.l1i_accesses = carry.l1i_accesses
    stats.l1i_misses = carry.sim_misses
    stats.frontend_stall_cycles = carry.frontend_stalls
    stats.late_prefetch_hits = carry.late_hits
    stats.late_prefetch_stall_cycles = carry.late_stall
    stats.prefetches_issued = carry.issued
    stats.prefetches_resident = carry.resident
    stats.prefetches_suppressed = carry.suppressed
    stats.prefetch_instructions_executed = carry.executed
    stats.program_instructions = carry.program_instructions
    stats.compute_cycles = (
        carry.program_instructions * ctx.cpi
        + carry.executed * ctx.prefetch_cpi
    )
    miss_level_counts: Dict[str, int] = {}
    if carry.c2:
        miss_level_counts["l2"] = carry.c2
    if carry.c3:
        miss_level_counts["l3"] = carry.c3
    if carry.cm:
        miss_level_counts["memory"] = carry.cm
    stats.miss_level_counts = miss_level_counts

    if hierarchy is not None:
        for cache, level, prefix in (
            (hierarchy.l1i, carry.l1, "l1"),
            (hierarchy.l2, carry.l2, "l2"),
            (hierarchy.l3, carry.l3, "l3"),
        ):
            cache.adopt(
                level,
                demand_hits=getattr(carry, prefix + "_dh"),
                demand_misses=getattr(carry, prefix + "_dm"),
                evictions=getattr(carry, prefix + "_ev"),
                prefetch_fills=getattr(carry, prefix + "_pf"),
                prefetch_hits=getattr(carry, prefix + "_ph"),
                prefetch_unused_evictions=getattr(carry, prefix + "_pu"),
            )
        hierarchy.fill_port.busy_until = carry.busy
        stats.prefetches_useful = hierarchy.l1i.stats.prefetch_hits

    engine.restore_runtime_state(
        carry.inflight(),
        list(carry.tracker_tail),
        list(carry.exact_tail),
        carry.tp,
        carry.fp,
    )


def plan_replay(
    program: Program,
    trace: BlockTrace,
    machine: MachineParams,
    stats: SimStats,
    engine,
    data_traffic=None,
    warmup: int = 0,
    hierarchy: Optional[MemoryHierarchy] = None,
) -> bool:
    """Columnar replay of a plan-bearing simulation; populate exactly.

    Returns True when *stats*, the *hierarchy* and the *engine*'s
    runtime state (in-flight map, tracker window, Fig. 21 counters)
    have been left bit-identical to the reference
    :class:`PrefetchEngine`/:class:`FetchEngine` composition.  Returns
    False — **before mutating anything** — when the run is ineligible
    (pre-seeded engine state, or a runtime-hash configuration whose
    counters would overflow mid-replay), in which case the caller must
    take the reference loop.

    The whole-trace path is the single-shard case of
    :func:`plan_shard_replay`.  The decomposition: every *decision*
    that feeds the sequential core loop is precomputed with arrays —

    * conditional fire/suppress outcomes come from a vectorized
      counting-Bloom model: per-block contribution vectors, prefix
      sums, and sliding-window (LBR-depth) counter values as
      prefix-sum differences, evaluated at each site occurrence;
    * exact-context (Fig. 21) ground truth comes from per-block
      occurrence arrays and ``searchsorted`` window membership;
    * coalescing targets are compiled per site once
      (:meth:`PrefetchPlan.compiled_sites`);
    * the data-traffic stream is bulk-decoded from raw MT19937 words.

    What remains inherently sequential — LRU state, the in-flight map,
    fill-port serialization and half-priority prefetch insertion — runs
    in the compiled walk (``plan_walk``) over dense carried state, which
    replays the reference's float operations in the identical order, so
    equality is exact, never approximate.
    """
    if not engine.is_pristine():
        get_tracer().instant("sim:plan-fallback", reason="engine-state")
        return False

    view = columnar_view(program)
    rows = view.trace_rows(trace)
    n = len(rows)
    eff = warmup if 0 < warmup < n else 0
    ctx = PlanContext(program, machine, engine, hierarchy)
    carry = PlanCarry(ctx)
    if not plan_shard_replay(ctx, carry, rows, 0, eff, data_traffic):
        get_tracer().instant("sim:plan-fallback", reason="bloom-overflow")
        return False
    _plan_finish(ctx, carry, stats, hierarchy, engine)
    return True
