"""Randomized differential tests: sharded streaming vs whole-trace replay.

Sharding a replay must never change the answer.  For every backend
(reference loop, ideal, array, plan) and every shard budget — one
instruction per shard, an awkward prime, one shard for the whole
trace — the merged sharded run must be ``==`` the whole-trace run:
every statistic, every float, the final cache residency, and the
prefetch engine's runtime state.

Inputs come from the seeded factories in ``tests/conftest.py``; the
seed alone reproduces any failure.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernel
from repro.sim.columnar import columnar_view
from repro.sim.cpu import CoreSimulator
from repro.sim.datatraffic import make_data_traffic
from repro.sim.parallel import PARALLEL_MODES, ParallelConfig, compose_lru_state
from repro.sim.trace import (
    ShardedTrace,
    shard_bounds,
    trace_shard_bounds,
    write_trace_shards,
)

from ..conftest import (
    adversarial_workloads,
    engine_state,
    hierarchy_state,
    make_random_plan,
    make_random_program,
    make_random_trace,
    needs_kernel,
)

#: one instruction (every block its own shard), an awkward prime, and a
#: budget so large the whole trace fits in one shard.
SHARD_SIZES = (1, 37, 10**9)

BACKENDS = ("reference", "columnar")


def _gate(backend):
    return kernel.reference_path if backend == "reference" else (
        kernel.force_numpy_kernel
    )


def _replay(program, trace, backend, plan=None, ideal=False,
            traffic_seed=None, warmup=0, shard_insns=None, parallel=None):
    data_traffic = None
    if traffic_seed is not None:
        data_traffic = make_data_traffic(
            rate_per_instruction=0.05, working_set_kib=64, seed=traffic_seed
        )
    with _gate(backend)():
        core = CoreSimulator(
            program, plan=plan, data_traffic=data_traffic, ideal=ideal
        )
        stats = core.run(trace, warmup=warmup, shard_insns=shard_insns,
                         parallel=parallel)
    return core, stats


def _assert_sharding_invisible(program, trace, backend, plan=None,
                               ideal=False, traffic_seed=None, warmup=0,
                               shard_sizes=SHARD_SIZES):
    """Whole-trace and every sharded budget agree exactly."""
    whole_core, whole_stats = _replay(
        program, trace, backend, plan=plan, ideal=ideal,
        traffic_seed=traffic_seed, warmup=warmup,
    )
    for shard_insns in shard_sizes:
        core, stats = _replay(
            program, trace, backend, plan=plan, ideal=ideal,
            traffic_seed=traffic_seed, warmup=warmup,
            shard_insns=shard_insns,
        )
        context = f"backend={backend} shard_insns={shard_insns}"
        assert stats == whole_stats, context
        assert core.last_replay_backend == whole_core.last_replay_backend, (
            context
        )
        if not ideal:
            assert hierarchy_state(core) == hierarchy_state(whole_core), (
                context
            )
        assert engine_state(core) == engine_state(whole_core), context
    return whole_stats


class TestBaseline:
    """No plan, no data traffic: the pure L1I replay."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("fanout", (1, 4, 16))
    def test_fanout_sweep(self, backend, fanout):
        rng = random.Random(1000 + fanout)
        program = make_random_program(rng, n_blocks=48)
        trace = make_random_trace(rng, 48, length=600, fanout=fanout)
        _assert_sharding_invisible(program, trace, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_blocks", (8, 160))
    def test_miss_density_sweep(self, backend, n_blocks):
        """Small programs fit the L1I (hits), large ones thrash."""
        rng = random.Random(2000 + n_blocks)
        program = make_random_program(rng, n_blocks=n_blocks)
        trace = make_random_trace(rng, n_blocks, length=600)
        _assert_sharding_invisible(program, trace, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_warmup_crossing_shard_boundaries(self, backend):
        """The warmup reset lands mid-shard, at a boundary, and after
        the last shard — the telescoping merge must absorb all three."""
        rng = random.Random(3)
        program = make_random_program(rng, n_blocks=32)
        trace = make_random_trace(rng, 32, length=400)
        for warmup in (1, 37, 399):
            _assert_sharding_invisible(program, trace, backend,
                                       warmup=warmup)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ideal_mode(self, backend):
        rng = random.Random(4)
        program = make_random_program(rng, n_blocks=64)
        trace = make_random_trace(rng, 64, length=500)
        _assert_sharding_invisible(program, trace, backend, ideal=True,
                                   warmup=50)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_data_traffic_rng_continuity(self, backend):
        """The data-traffic model's Mersenne Twister must advance
        identically across shard boundaries."""
        rng = random.Random(5)
        program = make_random_program(rng, n_blocks=48)
        trace = make_random_trace(rng, 48, length=500)
        _assert_sharding_invisible(program, trace, backend,
                                   traffic_seed=12345)


class TestPlans:
    """Plan-bearing replay: engine state crosses shard boundaries."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_sites", (4, 12))
    def test_plan_density_sweep(self, backend, n_sites):
        rng = random.Random(6000 + n_sites)
        program = make_random_program(rng, n_blocks=48)
        trace = make_random_trace(rng, 48, length=600, fanout=3)
        plan = make_random_plan(rng, program, n_sites=n_sites)
        _assert_sharding_invisible(program, trace, backend, plan=plan)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_plan_with_warmup_and_traffic(self, backend):
        rng = random.Random(7)
        program = make_random_program(rng, n_blocks=64)
        trace = make_random_trace(rng, 64, length=700, fanout=2)
        plan = make_random_plan(rng, program, n_sites=8)
        _assert_sharding_invisible(program, trace, backend, plan=plan,
                                   traffic_seed=999, warmup=100)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_sweep(self, seed):
        """Eight fully random configurations across both backends."""
        rng = random.Random(8000 + seed)
        n_blocks = rng.choice((12, 48, 120))
        program = make_random_program(rng, n_blocks=n_blocks)
        trace = make_random_trace(
            rng, n_blocks, length=rng.choice((300, 800)),
            fanout=rng.choice((1, 2, 4, 16)),
        )
        plan = make_random_plan(rng, program, n_sites=rng.randint(0, 10))
        warmup = rng.choice((0, 53))
        for backend in BACKENDS:
            _assert_sharding_invisible(program, trace, backend, plan=plan,
                                       warmup=warmup)


class TestShardCut:
    """The greedy instruction-budget cut itself."""

    @pytest.mark.parametrize("seed", range(4))
    def test_python_and_columnar_cuts_agree(self, seed):
        rng = random.Random(9000 + seed)
        program = make_random_program(rng, n_blocks=40)
        trace = make_random_trace(rng, 40, length=500)
        view = columnar_view(program)
        rows = view.trace_rows(trace)
        for shard_insns in (1, 7, 37, 1000, 10**9):
            expected = trace_shard_bounds(trace, program, shard_insns)
            assert view.shard_bounds(rows, shard_insns) == expected

    def test_cut_invariants(self):
        rng = random.Random(10)
        counts = [rng.randint(1, 50) for _ in range(300)]
        bounds = shard_bounds(counts, 100)
        # contiguous cover of the whole trace
        assert bounds[0][0] == 0
        assert bounds[-1][1] == len(counts)
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start
        # every shard except possibly the last meets the budget
        for start, stop in bounds[:-1]:
            assert sum(counts[start:stop]) >= 100

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            shard_bounds([1, 2, 3], 0)


#: The four replay backend configurations: the pure-Python reference
#: loop, the no-plan columnar kernel, the columnar-ideal path, and the
#: plan-bearing columnar path (exact mode serves the two no-plan
#: columnar ones in parallel; the rest must fall back unchanged).
PARALLEL_CONFIGS = {
    "reference": dict(backend="reference"),
    "columnar": dict(backend="columnar", traffic_seed=321, warmup=60),
    "columnar-ideal": dict(backend="columnar", ideal=True, warmup=60),
    "columnar-plan": dict(backend="columnar", plan=True),
}

#: 1 worker, 2 workers, and "many" relative to the 2-3 shard budgets.
WORKER_COUNTS = (1, 2, 4)


class TestParallel:
    """Parallel-vs-sequential differential sweep (PR 6 tentpole).

    Exact mode must be ``==`` sequential sharded replay — statistics,
    final cache residency and engine state — whether it runs the
    two-round stitched executor or falls back (plan backends,
    disabled kernel, single shard).
    """

    def _case(self, config_name, length=360):
        spec = dict(PARALLEL_CONFIGS[config_name])
        rng = random.Random(hash(config_name) % 10_000)
        program = make_random_program(rng, n_blocks=40)
        trace = make_random_trace(rng, 40, length=length, fanout=3)
        if spec.pop("plan", False):
            spec["plan"] = make_random_plan(rng, program, n_sites=6)
        return program, trace, spec

    @pytest.mark.parametrize("config_name", sorted(PARALLEL_CONFIGS))
    def test_exact_bit_identity_sweep(self, config_name):
        """shard sizes {1, 37, whole} x worker counts {1, 2, 4}."""
        program, trace, spec = self._case(config_name)
        ideal = spec.get("ideal", False)
        for shard_insns in SHARD_SIZES:
            seq_core, seq_stats = _replay(
                program, trace, shard_insns=shard_insns, **spec
            )
            for workers in WORKER_COUNTS:
                core, stats = _replay(
                    program, trace, shard_insns=shard_insns,
                    parallel=ParallelConfig(mode="exact", workers=workers),
                    **spec,
                )
                context = (
                    f"config={config_name} shard_insns={shard_insns} "
                    f"workers={workers}"
                )
                assert stats == seq_stats, context
                assert core.last_replay_backend == (
                    seq_core.last_replay_backend
                ), context
                if not ideal:
                    assert hierarchy_state(core) == hierarchy_state(
                        seq_core
                    ), context
                assert engine_state(core) == engine_state(seq_core), context

    def test_single_shard_falls_back_to_sequential(self):
        """A one-shard trace never pays for a pool."""
        rng = random.Random(77)
        program = make_random_program(rng, n_blocks=24)
        trace = make_random_trace(rng, 24, length=200)
        seq_core, seq_stats = _replay(
            program, trace, "columnar", shard_insns=10**9
        )
        core, stats = _replay(
            program, trace, "columnar", shard_insns=10**9,
            parallel=ParallelConfig(mode="exact", workers=4),
        )
        assert stats == seq_stats
        assert hierarchy_state(core) == hierarchy_state(seq_core)

    @pytest.mark.parametrize("mode", PARALLEL_MODES)
    def test_on_disk_sharded_trace(self, mode, tmp_path):
        """Workers consume the on-disk shard format directly."""
        rng = random.Random(88)
        program = make_random_program(rng, n_blocks=40)
        trace = make_random_trace(rng, 40, length=500, fanout=3)
        total = sum(
            program.block(b).instruction_count for b in trace.block_ids
        )
        sharded = write_trace_shards(trace, program, tmp_path, total // 8)
        _seq_core, seq_stats = _replay(
            program, trace, "columnar", shard_insns=total // 8
        )
        with kernel.force_numpy_kernel():
            core = CoreSimulator(program)
            stats = core.run(
                sharded, parallel=ParallelConfig(mode=mode, workers=2)
            )
        assert stats == seq_stats

    def test_rejects_unknown_mode(self):
        for mode in ("sloppy", "tolerant"):
            with pytest.raises(ValueError):
                ParallelConfig(mode=mode)


class TestComposeLRUState:
    """The stitching law against the real per-access LRU sweep."""

    @staticmethod
    def _summary_of(lines, sets, ways):
        """A shard's per-set distinct-lines-by-last-access summary,
        built naively (the worker builds it vectorized)."""
        per_set = {}
        for line, set_index in zip(lines, sets):
            bucket = per_set.setdefault(set_index, [])
            if line in bucket:
                bucket.remove(line)
            bucket.append(line)
        return [[s, bucket[-ways:]] for s, bucket in per_set.items()]

    @needs_kernel
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lru_stream_exactly(self, seed):
        """Composing a shard's summary onto any start state yields the
        same end state — same lines, same recency order, same dict
        insertion order — as streaming every access through the LRU."""
        from repro.sim.array_replay import _lru_stream

        rng = random.Random(400 + seed)
        num_sets, ways = 8, rng.choice((2, 4))
        state = {}
        chunks = []
        for _ in range(4):
            lines = [rng.randrange(64) for _ in range(rng.randint(1, 120))]
            chunks.append(lines)
        for lines in chunks:
            sets = [line % num_sets for line in lines]
            _hits, _evicts, streamed = _lru_stream(
                lines, sets, ways,
                {k: dict(v) for k, v in state.items()},
            )
            composed = compose_lru_state(
                state, self._summary_of(lines, sets, ways), ways
            )
            assert {
                k: list(v) for k, v in streamed.items() if v
            } == {k: list(v) for k, v in composed.items() if v}
            state = composed

    def test_empty_summary_is_identity(self):
        state = {0: {5: None, 9: None}}
        assert compose_lru_state(state, [], 4) == state

    def test_pure_no_input_mutation(self):
        state = {0: {1: None, 2: None}}
        before = {k: list(v) for k, v in state.items()}
        compose_lru_state(state, [[0, [3, 4]], [1, [7]]], 2)
        assert {k: list(v) for k, v in state.items()} == before


class TestWorkerRoundsInProcess:
    """The exact-mode round tasks, run in this process (no pool).

    These call the very functions the pool dispatches —
    ``_init_worker`` plus the four ``_task_*`` rounds — directly, so
    the round logic is (a) checked against a sequential replay and the
    naive summary oracle and (b) visible to coverage, which cannot see
    into forked pool workers.
    """

    @pytest.fixture()
    def rig(self, tmp_path):
        from repro.sim import parallel

        rng = random.Random(424242)
        program = make_random_program(rng, n_blocks=64)
        trace = make_random_trace(rng, 64, length=500, fanout=3)
        total = sum(
            program.block(b).instruction_count for b in trace.block_ids
        )
        sharded = write_trace_shards(trace, program, tmp_path, total // 6)
        assert sharded.num_shards >= 4
        with kernel.force_numpy_kernel():
            core = CoreSimulator(program)
            parallel._init_worker(
                parallel.pool_payload(core, tmp_path)
            )
            yield parallel, core, program, trace, sharded

    @staticmethod
    def _chain(parallel, machine, num_shards, resets):
        """Drive all four rounds in-process, exactly as the parent
        does: compose each level's start states between rounds."""
        data = ([], [])
        l1_states, state = {}, {}
        for index in range(num_shards):
            l1_states[index] = state
            state = compose_lru_state(
                state, parallel._task_l1_summary(index), machine.l1i.ways
            )
        l1_final = state
        r2 = [
            parallel._task_l1_scan(
                index, l1_states[index], data, resets[index]
            )
            for index in range(num_shards)
        ]
        l2_states, state = {}, {}
        for index, out in enumerate(r2):
            l2_states[index] = state
            state = compose_lru_state(
                state, out["l2_summary"], machine.l2.ways
            )
        l2_final = state
        r3 = [
            parallel._task_l2_scan(
                index, l2_states[index], r2[index]["l1_hits"], data,
                resets[index],
            )
            for index in range(num_shards)
        ]
        l3_states, state = {}, {}
        for index, out in enumerate(r3):
            l3_states[index] = state
            state = compose_lru_state(
                state, out["l3_summary"], machine.l3.ways
            )
        l3_final = state
        r4 = [
            parallel._task_l3_scan(
                index, l3_states[index], r2[index]["l1_hits"],
                r3[index]["l2_hits"], data, resets[index],
            )
            for index in range(num_shards)
        ]
        return r2, r3, r4, (l1_final, l2_final, l3_final)

    @staticmethod
    def _fold(r2, r3, r4, resets):
        """Apply each shard's CarryUpdate onto a bare counter carry."""
        from types import SimpleNamespace

        from repro.sim.stats import CarryUpdate

        carry = SimpleNamespace(
            l1_dh=0, l1_dm=0, l1_ev=0, l2_dh=0, l2_dm=0, l2_ev=0,
            l3_dh=0, l3_dm=0, l3_ev=0, l1i_accesses=0, l1i_misses=0,
            program_instructions=0, miss_level_counts={},
        )
        for index, (out2, out3, out4) in enumerate(zip(r2, r3, r4)):
            CarryUpdate.combine(
                resets[index] is not None,
                (out2["counters"], out3["counters"], out4["counters"]),
                out4["miss_levels"],
            ).apply(carry)
        return carry

    def test_l1_summary_matches_naive_oracle(self, rig):
        parallel, core, _program, _trace, sharded = rig
        geom = core.machine.l1i
        for index in range(sharded.num_shards):
            l1_lines = parallel._shard_gather(index)[4]
            naive = TestComposeLRUState._summary_of(
                l1_lines.tolist(),
                (l1_lines % geom.num_sets).tolist(),
                geom.ways,
            )
            vectorized = parallel._task_l1_summary(index)
            assert {s: tuple(b) for s, b in vectorized} == {
                s: tuple(b) for s, b in naive
            }, f"shard {index}"

    @needs_kernel
    def test_shard_l2_stream_is_the_l1_miss_stream(self, rig):
        import numpy as np

        from repro.sim.array_replay import _flags

        parallel, _core, _program, _trace, sharded = rig
        machine = _core.machine
        num = sharded.num_shards
        resets = {index: None for index in range(num)}
        r2, _r3, _r4, _finals = self._chain(parallel, machine, num, resets)
        for index in range(num):
            hits = _flags(r2[index]["l1_hits"])
            _rows, l2_lines, l2_blocks, l2_is_instr = (
                parallel._shard_l2_stream(index, r2[index]["l1_hits"],
                                          ([], []))
            )
            # no data model: the L2 stream is exactly the L1 misses
            assert bool(l2_is_instr.all())
            assert len(l2_lines) == int((~hits).sum())
            assert (np.diff(l2_blocks) >= 0).all(), "merge order broken"

    @needs_kernel
    def test_round_chain_reproduces_sequential_accounting(self, rig):
        parallel, core, program, trace, sharded = rig
        machine = core.machine
        num = sharded.num_shards
        resets = {index: None for index in range(num)}
        seq_core, seq_stats = _replay(program, trace, "columnar")
        r2, r3, r4, finals = self._chain(parallel, machine, num, resets)
        carry = self._fold(r2, r3, r4, resets)

        assert carry.l1i_accesses == seq_stats.l1i_accesses
        assert carry.l1i_misses == seq_stats.l1i_misses
        assert carry.program_instructions == seq_stats.program_instructions
        assert carry.miss_level_counts == seq_stats.miss_level_counts
        hier = seq_core.hierarchy
        for prefix, cache in (("l1", hier.l1i), ("l2", hier.l2),
                              ("l3", hier.l3)):
            assert getattr(carry, f"{prefix}_dh") == cache.stats.demand_hits
            assert getattr(carry, f"{prefix}_dm") == cache.stats.demand_misses
            assert getattr(carry, f"{prefix}_ev") == cache.stats.evictions

        # the composed end states are the sequential residency
        resident = hierarchy_state(seq_core)
        for level, final in zip(("l1i", "l2", "l3"), finals):
            composed = {
                s: list(reversed(list(d))) for s, d in final.items() if d
            }
            expected = {
                s: lines for s, lines in resident[level].items() if lines
            }
            assert composed == expected, level

    def test_ideal_task_sums_shard_columns(self, rig):
        parallel, _core, program, _trace, sharded = rig
        ids = sharded.shard(0).block_ids
        lines, instructions = parallel._task_ideal(0, None)
        assert instructions == sum(
            program.block(b).instruction_count for b in ids
        )
        assert lines == sum(len(program.lines_of(b)) for b in ids)
        cut = len(ids) // 2
        post_lines, post_instructions = parallel._task_ideal(0, cut)
        assert post_instructions == sum(
            program.block(b).instruction_count for b in ids[cut:]
        )
        assert post_lines == sum(len(program.lines_of(b)) for b in ids[cut:])

    def test_pool_task_entry_times_and_traces(self, rig):
        parallel, *_ = rig
        result, seconds, events = parallel._pool_task("ideal", (0, None))
        assert seconds >= 0
        assert events is None, "no tracer, no shipped spans"
        parallel._W["tracing"] = True
        try:
            traced, _seconds, events = parallel._pool_task("ideal", (0, None))
        finally:
            parallel._W["tracing"] = False
        assert traced == result
        assert events, "worker spans recorded for parent absorption"

    @needs_kernel
    def test_reset_counters_match_sequential_warmup(self, rig):
        parallel, core, program, trace, sharded = rig
        machine = core.machine
        num = sharded.num_shards
        # land the warmup reset strictly inside shard 1, exactly as
        # the driver computes the per-shard local reset index
        start, stop = sharded.bounds[1]
        eff = start + (stop - start) // 2
        resets = {
            index: eff - s if s <= eff < e else None
            for index, (s, e) in enumerate(sharded.bounds)
        }
        _seq_core, seq_stats = _replay(
            program, trace, "columnar", warmup=eff
        )
        r2, r3, r4, _finals = self._chain(parallel, machine, num, resets)
        carry = self._fold(r2, r3, r4, resets)
        assert carry.l1i_accesses == seq_stats.l1i_accesses
        assert carry.l1i_misses == seq_stats.l1i_misses
        assert carry.program_instructions == seq_stats.program_instructions
        assert carry.miss_level_counts == seq_stats.miss_level_counts


class TestOnDiskShards:
    """write_trace_shards / ShardedTrace round trip and replay."""

    def test_round_trip_materializes_identically(self, tmp_path):
        rng = random.Random(11)
        program = make_random_program(rng, n_blocks=32)
        trace = make_random_trace(rng, 32, length=400)
        trace.metadata["note"] = "round-trip"
        sharded = write_trace_shards(trace, program, tmp_path, 50)
        reread = ShardedTrace(tmp_path)
        assert reread.num_shards == sharded.num_shards
        assert reread.bounds == trace_shard_bounds(trace, program, 50)
        materialized = reread.materialize()
        assert materialized.block_ids == trace.block_ids
        assert materialized.metadata == trace.metadata

    def test_shard_array_matches_shard(self, tmp_path):
        """The memory-mapped column view agrees with the materialized
        BlockTrace for every shard."""
        rng = random.Random(13)
        program = make_random_program(rng, n_blocks=32)
        trace = make_random_trace(rng, 32, length=300)
        sharded = write_trace_shards(trace, program, tmp_path, 40)
        for index in range(sharded.num_shards):
            assert (
                sharded.shard_array(index).tolist()
                == sharded.shard(index).block_ids
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_on_disk_replay_with_at_least_eight_shards(
        self, backend, tmp_path
    ):
        """The acceptance bar: a >= 8-shard on-disk trace replays
        bit-identically to the in-memory whole trace, per backend."""
        rng = random.Random(12)
        program = make_random_program(rng, n_blocks=48)
        trace = make_random_trace(rng, 48, length=800, fanout=3)
        plan = make_random_plan(rng, program, n_sites=6)
        total_insns = sum(
            program.block(b).instruction_count for b in trace.block_ids
        )
        sharded = write_trace_shards(
            trace, program, tmp_path, total_insns // 10
        )
        assert sharded.num_shards >= 8

        whole_core, whole_stats = _replay(program, trace, backend, plan=plan)
        with _gate(backend)():
            core = CoreSimulator(program, plan=plan)
            stats = core.run(sharded)
        assert stats == whole_stats
        assert core.last_replay_backend == whole_core.last_replay_backend
        assert hierarchy_state(core) == hierarchy_state(whole_core)
        assert engine_state(core) == engine_state(whole_core)


class TestAdversarialApps:
    """The zoo's stress generators run through the same invariants.

    Hash saturation, Bloom-heavy miss storms and phase-changing call
    chains are exactly the inputs that would expose a sharding or
    parallelism bug the benign factories miss — so the randomized
    sweep samples them from the shared conftest strategy."""

    @settings(max_examples=8, deadline=None)
    @given(case=adversarial_workloads(), seed=st.integers(0, 2**16))
    def test_sharding_invisible(self, case, seed):
        name, app, trace = case
        plan = make_random_plan(random.Random(seed), app.program, n_sites=5)
        for backend in BACKENDS:
            _assert_sharding_invisible(
                app.program, trace, backend, plan=plan,
                shard_sizes=(37, 10**9),
            )

    @settings(max_examples=6, deadline=None)
    @given(case=adversarial_workloads())
    def test_parallel_exact_bit_identity(self, case):
        name, app, trace = case
        seq_core, seq_stats = _replay(
            app.program, trace, "columnar", shard_insns=37
        )
        core, stats = _replay(
            app.program, trace, "columnar", shard_insns=37,
            parallel=ParallelConfig(mode="exact", workers=2),
        )
        assert stats == seq_stats, name
        assert hierarchy_state(core) == hierarchy_state(seq_core), name
        assert engine_state(core) == engine_state(seq_core), name
