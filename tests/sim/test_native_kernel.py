"""The compiled replay kernel: its LRU sweep against a Python oracle,
its build cache under concurrency, the reference fallback when no
compiler exists, lazy cache adoption, and sharded plan replay with a
mid-shard warmup boundary and a checkpoint resume.

Every comparison is ``==``: the compiled tier must equal the reference
simulator bit for bit.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernel
from repro.core.instructions import PrefetchInstr
from repro.io import ArtifactStore
from repro.obs.trace import Tracer, use_tracer
from repro.sim import native
from repro.sim.array_replay import DenseLevel
from repro.sim.columnar import columnar_view
from repro.sim.cpu import CoreSimulator
from repro.sim.datatraffic import make_data_traffic
from repro.sim.params import line_of
from repro.sim.streaming import StoreCheckpointer

from ..conftest import (
    engine_state,
    hierarchy_state,
    make_random_plan,
    make_random_program,
    make_random_trace,
    needs_kernel,
)

SRC = Path(__file__).resolve().parents[2] / "src"


def test_kernel_loads_when_a_compiler_exists():
    """A host with a compiler must run the compiled tier, so the suites
    can never pass on the reference path alone."""
    status = native.status()
    if native.find_compiler() is None:
        assert status.reason == "no-compiler"
    else:
        assert status.compiled, status
    assert status.source_sha256 == native.source_sha256()


# -- lru_sweep against a tiny Python LRU ------------------------------------


def _oracle_sweep(state, lines, sets, ways):
    """Per-set MRU-first lists; demand fill, LRU victim."""
    hits, evicts = [], []
    for line, set_index in zip(lines, sets):
        stack = state.setdefault(set_index, [])
        if line in stack:
            stack.remove(line)
            stack.insert(0, line)
            hits.append(True)
            evicts.append(False)
        else:
            stack.insert(0, line)
            evicted = len(stack) > ways
            if evicted:
                stack.pop()
            hits.append(False)
            evicts.append(evicted)
    return hits, evicts


@st.composite
def _access_chunks(draw):
    """Two chunks of accesses over few lines (so sets fill and evict),
    with back-to-back repeats of one line."""
    def chunk():
        runs = draw(st.lists(
            st.tuples(st.integers(0, 23), st.integers(1, 3)), max_size=60
        ))
        return [line for line, repeat in runs for _ in range(repeat)]

    return chunk(), chunk()


@needs_kernel
class TestLruSweepOracle:
    @given(
        chunks=_access_chunks(),
        ways=st.integers(1, 4),
        num_sets=st.integers(1, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_python_lru_with_carried_state(
        self, chunks, ways, num_sets
    ):
        level = DenseLevel(num_sets, ways)
        state: dict = {}
        for lines in chunks:
            sets = [line % num_sets for line in lines]
            hits, evicts = native.lru_sweep(level, lines, sets)
            want_hits, want_evicts = _oracle_sweep(state, lines, sets, ways)
            assert hits.tolist() == want_hits
            assert evicts.tolist() == want_evicts
            # carried state: same sets touched, same MRU-first order
            assert dict(level.mru_lists()) == state

    def test_rejects_what_c_would_index_by(self):
        level = DenseLevel(4, 2)
        with pytest.raises(ValueError, match="negative cache line"):
            native.lru_sweep(level, [3, -1], [3, 3])
        with pytest.raises(ValueError, match="set index"):
            native.lru_sweep(level, [3, 9], [3, 4])
        with pytest.raises(ValueError, match="length"):
            native.lru_sweep(level, [3, 9], [3])


# -- build cache -------------------------------------------------------------

_LOAD_SCRIPT = """
import os, sys
from pathlib import Path
from repro.sim import native
native.CACHE_DIR = Path(sys.argv[1])
status = native.status()
assert status.compiled, status
print(status.path, os.stat(status.path).st_ino)
"""


@needs_kernel
def test_concurrent_builds_load_one_file(tmp_path):
    """Two processes building from an empty cache at once serialize on
    the lock and load the very same library file."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _LOAD_SCRIPT, str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            text=True,
        )
        for _ in range(2)
    ]
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        outputs.append(out.strip())
    assert outputs[0] == outputs[1]
    libraries = [p.name for p in tmp_path.iterdir() if p.suffix == ".so"]
    assert len(libraries) == 1
    assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty library cache; the kernel reloads on both sides."""
    monkeypatch.setattr(native, "CACHE_DIR", tmp_path)
    native.reset()
    yield tmp_path
    monkeypatch.undo()
    native.reset()


def test_failed_build_is_a_reason_not_a_crash(fresh_cache, monkeypatch):
    monkeypatch.setattr(native, "find_compiler", lambda: "/bin/false")
    tracer = Tracer()
    with use_tracer(tracer):
        status = native.status()
        native.status()
    assert not status.compiled and status.reason == "kernel-build-failed"
    fallbacks = [
        e for e in tracer.snapshot() if e["name"] == "sim:kernel-fallback"
    ]
    assert len(fallbacks) == 1  # traced once, not per call
    assert not list(fresh_cache.glob("*.so"))
    with pytest.raises(RuntimeError, match="kernel-build-failed"):
        native.lru_sweep(DenseLevel(1, 1), [1], [0])


@needs_kernel
def test_unloadable_library_is_a_reason_not_a_crash(fresh_cache):
    compiler = native.find_compiler()
    path = native._library_path(compiler, native.source_sha256())
    path.write_bytes(b"not a shared library")
    assert native.status().reason == "kernel-load-failed"


# -- the reference fallback --------------------------------------------------


def _workload(seed=7):
    """A program larger than the L1I, a random plan, and next-block
    prefetches that arrive late: issues, late hits and a non-empty
    in-flight map at the end of the run."""
    rng = random.Random(seed)
    program = make_random_program(rng, n_blocks=600, sizes=(64, 128, 192, 256))
    trace = make_random_trace(rng, 600, length=3000, fanout=4)
    plan = make_random_plan(rng, program, n_sites=120)
    ids = trace.block_ids
    plan.extend(
        PrefetchInstr(
            site_block=ids[t],
            base_line=line_of(program.block(ids[t + 1]).address),
        )
        for t in rng.sample(range(len(ids) - 1), 40)
    )
    return program, trace, plan


def _traffic():
    return make_data_traffic(
        rate_per_instruction=0.05, working_set_kib=64, seed=3
    )


def _run(program, trace, plan=None, **run_args):
    core = CoreSimulator(program, plan=plan, data_traffic=_traffic())
    core.run(trace, **run_args)
    return core


@pytest.fixture
def no_compiler(monkeypatch):
    """Hide every C compiler; the kernel reloads on both sides."""

    def hide():
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        native.reset()

    yield hide
    monkeypatch.undo()
    native.reset()


class TestNoCompiler:
    @needs_kernel
    def test_runs_take_reference_with_the_reason(self, no_compiler):
        program, trace, plan = _workload()
        with kernel.force_numpy_kernel():
            compiled = [
                _run(program, trace, plan=p, warmup=300)
                for p in (None, plan)
            ]
            no_compiler()
            tracer = Tracer()
            with use_tracer(tracer):
                cores = [
                    _run(program, trace, plan=p, warmup=300)
                    for p in (None, plan)
                ]
        assert [c.last_replay_backend for c in compiled] == [
            "columnar", "columnar-plan"
        ]
        for core in cores:
            assert core.last_replay_backend == "reference"
            assert core.last_fallback_reason == "no-compiler"
        events = tracer.snapshot()
        runs = [e for e in events if e["name"] == "sim:run"]
        assert [e["args"]["fallback"] for e in runs] == ["no-compiler"] * 2
        fallbacks = [e for e in events if e["name"] == "sim:kernel-fallback"]
        assert len(fallbacks) == 1
        assert fallbacks[0]["args"]["reason"] == "no-compiler"
        assert native.status().manifest_fields()["compiled"] is False
        # the reference tier gives equal statistics and state
        for ref, fast in zip(cores, compiled):
            assert fast.stats == ref.stats
            assert hierarchy_state(fast) == hierarchy_state(ref)
            assert engine_state(fast) == engine_state(ref)

    def test_sharded_runs_fall_back_too(self, no_compiler):
        program, trace, plan = _workload()
        no_compiler()
        with kernel.force_numpy_kernel():
            core = _run(program, trace, plan=plan, shard_insns=200)
        assert core.last_replay_backend == "reference"
        assert core.last_fallback_reason == "no-compiler"


# -- lazy adoption -----------------------------------------------------------


@needs_kernel
@pytest.mark.parametrize("with_plan", (False, True))
def test_adopted_state_is_lazy_and_exact(with_plan):
    program, trace, plan = _workload(11)
    plan = plan if with_plan else None
    with kernel.force_numpy_kernel():
        fast = _run(program, trace, plan=plan, warmup=300)
    with kernel.reference_path():
        ref = _run(program, trace, plan=plan, warmup=300)
    levels = ("l1i", "l2", "l3")
    for name in levels:
        cache = getattr(fast.hierarchy, name)
        # nothing has read the Python-shaped state yet
        assert "_sets" not in cache.__dict__
        assert not cache.is_pristine()
        assert "_sets" not in cache.__dict__
    for name in levels:
        fast_cache = getattr(fast.hierarchy, name)
        ref_cache = getattr(ref.hierarchy, name)
        assert fast_cache.resident_lines() == ref_cache.resident_lines()
        assert fast_cache.stats == ref_cache.stats
    assert hierarchy_state(fast) == hierarchy_state(ref)
    assert not fast.hierarchy.is_pristine()


# -- sharded plan replay: mid-shard warmup, checkpoint resume ---------------


class _KillAfter(StoreCheckpointer):
    """Dies right after its k-th checkpoint save."""

    def __init__(self, store, parts, kill_at):
        super().__init__(store, parts)
        self.kill_at = kill_at
        self.saves = 0

    def save(self, index, payload):
        super().save(index, payload)
        self.saves += 1
        if self.saves >= self.kill_at:
            raise KeyboardInterrupt("simulated crash")


@needs_kernel
@pytest.mark.parametrize("kill_at", (1, 2, 3))
def test_sharded_plan_resume_equals_whole_trace_reference(tmp_path, kill_at):
    program, trace, plan = _workload(19)
    view = columnar_view(program)
    rows = view.trace_rows(trace)
    shard_insns = int(view.instruction_counts[rows].sum()) // 6
    bounds = view.shard_bounds(rows, shard_insns)
    assert len(bounds) >= 5
    start, stop = bounds[2]
    warmup = start + (stop - start) // 2  # inside a middle shard
    assert start < warmup < stop

    with kernel.reference_path():
        ref = _run(program, trace, plan=plan, warmup=warmup)

    store = ArtifactStore(tmp_path)
    parts = {"case": "mid-shard-warmup", "kill_at": kill_at}
    with kernel.force_numpy_kernel():
        with pytest.raises(KeyboardInterrupt):
            _run(
                program, trace, plan=plan, warmup=warmup,
                shard_insns=shard_insns,
                checkpointer=_KillAfter(store, parts, kill_at),
            )
        core = CoreSimulator(program, plan=plan, data_traffic=_traffic())
        tracer = Tracer()
        with use_tracer(tracer):
            core.run(
                trace, warmup=warmup, shard_insns=shard_insns,
                checkpointer=StoreCheckpointer(store, parts),
            )
    assert any(e["name"] == "sim:resume" for e in tracer.snapshot())
    assert core.last_replay_backend == "columnar-plan"
    assert ref.stats.late_prefetch_hits and ref.engine.inflight
    assert core.stats == ref.stats
    assert hierarchy_state(core) == hierarchy_state(ref)
    assert engine_state(core) == engine_state(ref)
    # the in-flight map's insertion order survives the checkpoint
    assert list(core.engine.inflight.items()) == list(
        ref.engine.inflight.items()
    )
