"""Differential tests: batched site selection against the per-line oracle.

:func:`select_sites` must return, for every requested line, exactly the
:class:`SiteSelection` the reference :func:`select_site` computes under
``kernel.reference_path()`` — candidates, fan-outs and distances
included — on the paper apps, the adversarial apps and handcrafted
edges, in every estimator / fan-out mode the planners use, whatever
the chunking.  Plus the memo: repeated calls share one pass, and a
change to any input selection reads misses it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from functools import lru_cache

import pytest

from repro import kernel
from repro.core import injection
from repro.core.config import DEFAULT_CONFIG, ISpyConfig
from repro.core.injection import (
    MAX_OCCURRENCES,
    frequent_miss_lines,
    select_site,
    select_sites,
)
from repro.obs.trace import Tracer, use_tracer
from repro.profiling.pebs import MissSample
from repro.profiling.profiler import ExecutionProfile, profile_execution
from repro.workloads.adversarial import ADVERSARIAL_APP_NAMES
from repro.workloads.apps import APP_NAMES, build_app

from ..conftest import adversarial_app

#: (max_fanout, fanout_mode, distance_estimator): I-SPY, AsmDB, and the
#: two crossed combinations
MODES = (
    (None, "execution", "cycles"),
    (0.99, "path", "ipc"),
    (0.5, "execution", "ipc"),
    (0.9, "path", "cycles"),
)

MODE_IDS = ["-".join(map(str, mode)) for mode in MODES]

#: lists every sampled miss line, not just the frequent ones
ALL_LINES = replace(DEFAULT_CONFIG, min_miss_samples=1)

EDGE_CONFIG = ISpyConfig(
    min_prefetch_distance=0.0,
    max_prefetch_distance=200.0,
    min_miss_samples=1,
)


@lru_cache(maxsize=None)
def _app_profile(name):
    if name in ADVERSARIAL_APP_NAMES:
        app = adversarial_app(name)
    else:
        app = build_app(name, scale=0.15)
    trace = app.trace(6_000)
    return profile_execution(
        app.program, trace, data_traffic=app.data_traffic()
    )


def _make_profile(block_ids, miss_events):
    """A handcrafted profile: 10 cycles and 4 instructions per trace
    step; *miss_events* is a list of (trace_index, line) pairs."""
    cycles = [float(10 * i) for i in range(len(block_ids))]
    samples = [
        MissSample(
            trace_index=index,
            block_id=block_ids[index],
            line=line,
            cycle=cycles[index] + 1.0,
        )
        for index, line in miss_events
    ]
    return ExecutionProfile(
        program_name="edge-case",
        block_ids=list(block_ids),
        block_cycles=cycles,
        miss_samples=samples,
        edge_counts=Counter(zip(block_ids, block_ids[1:])),
        block_counts=Counter(block_ids),
        cumulative_instructions=[4 * i for i in range(len(block_ids))],
    )


def _lines(profile, config=DEFAULT_CONFIG):
    return [line for line, _ in frequent_miss_lines(profile, config)]


def _assert_matches_reference(profile, lines, config, mode):
    max_fanout, fanout_mode, estimator = mode
    kwargs = dict(
        max_fanout=max_fanout,
        fanout_mode=fanout_mode,
        distance_estimator=estimator,
    )
    with kernel.reference_path():
        expected = {line: select_site(profile, line, config, **kwargs)
                    for line in lines}
    with kernel.force_numpy_kernel():
        profile.arrays().selection_memo.clear()
        batched = select_sites(profile, lines, config, **kwargs)
    assert list(batched) == list(lines)
    for line in lines:
        assert batched[line] == expected[line], line
    return batched


def _site_selection_spans(tracer):
    return [
        event["args"]
        for event in tracer.snapshot()
        if event["ph"] == "X" and event["name"] == "analysis:site-selection"
    ]


class TestApps:
    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("name", APP_NAMES + ADVERSARIAL_APP_NAMES)
    def test_matches_per_line_reference(self, name, mode):
        profile = _app_profile(name)
        lines = _lines(profile, ALL_LINES)
        assert lines, "no sampled misses — workload too small"
        _assert_matches_reference(profile, lines, DEFAULT_CONFIG, mode)

    @pytest.mark.parametrize("mode", MODES[:2], ids=("ispy", "asmdb"))
    def test_small_chunk_budget_splits_lines(self, monkeypatch, mode):
        monkeypatch.setattr(injection, "CHUNK_ENTRIES", 64)
        profile = _app_profile("verilator")
        lines = _lines(profile)
        tracer = Tracer()
        with use_tracer(tracer):
            _assert_matches_reference(profile, lines, DEFAULT_CONFIG, mode)
        (args,) = _site_selection_spans(tracer)
        assert args["lines"] == len(lines)
        assert args["chunks"] > 3
        assert args["memo_hit"] is False


class TestEdgeCases:
    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_handcrafted_lines(self, mode):
        # line 10: a miss at trace index 0 (empty window) and one later;
        # line 20: its only window block is the missing block itself;
        # line 30: plain site 3 -> miss one step later;
        # line 40: no samples at all.
        block_ids = [5, 5, 5, 9, 1, 2, 3, 4, 8, 8, 8, 8]
        profile = _make_profile(
            block_ids, [(0, 10), (2, 20), (7, 30), (7, 10)]
        )
        lines = [10, 20, 30, 40]
        batched = _assert_matches_reference(profile, lines, EDGE_CONFIG, mode)
        assert batched[20].candidates[0].block_id == 5
        assert batched[40].sample_count == 0
        assert batched[40].chosen is None

    def test_empty_window_only(self):
        profile = _make_profile([7, 1, 2], [(0, 10)])
        for mode in MODES:
            batched = _assert_matches_reference(
                profile, [10], EDGE_CONFIG, mode
            )
            assert batched[10].candidates == ()
            assert batched[10].miss_block == 7

    def test_empty_profile(self):
        profile = _make_profile([], [])
        for mode in MODES:
            batched = _assert_matches_reference(
                profile, [10], EDGE_CONFIG, mode
            )
            assert batched[10].sample_count == 0

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_subsampled_site_executions(self, mode):
        # Block 3 executes more than MAX_OCCURRENCES times, so its
        # fan-out comes from the label subsample; misses only in the
        # second half make the subsample's stride matter.
        block_ids = [3, 1] * (MAX_OCCURRENCES + 700)
        half = len(block_ids) // 2
        misses = [(index, 50) for index in range(half + 1, len(block_ids), 14)]
        profile = _make_profile(block_ids, misses)
        assert len(profile.occurrences(3)) > MAX_OCCURRENCES
        batched = _assert_matches_reference(profile, [50], EDGE_CONFIG, mode)
        assert 3 in {c.block_id for c in batched[50].candidates}

    def test_paths_cut_short_by_trace_end(self):
        # Site 3 executes within six blocks of the trace end, so some
        # of its path signatures are truncated.
        block_ids = [9, 3, 4, 5, 6, 7, 8, 2, 3, 4, 3, 5, 3]
        profile = _make_profile(block_ids, [(2, 60), (9, 60), (11, 60)])
        batched = _assert_matches_reference(
            profile, [60], EDGE_CONFIG, (0.99, "path", "cycles")
        )
        assert batched[60].candidates

    def test_path_ids_name_next_block_signatures(self):
        # Padded with a real block id, the cut-short signatures at the
        # trace end would equal the run of 3s after index 1.
        block_ids = [9, 3, 3, 3, 3, 3, 3, 3, 8, 2, 3, 3]
        profile = _make_profile(block_ids, [])
        ids, count = profile.arrays().path_ids(6)
        signatures = [tuple(block_ids[i + 1 : i + 7]) for i in range(12)]
        assert count == len(set(signatures))
        for i in range(12):
            for j in range(12):
                same = signatures[i] == signatures[j]
                assert (ids[i] == ids[j]) == same, (i, j)

    def test_no_eligible_candidate_under_threshold(self):
        block_ids = [3, 4, 1, 3, 4, 2] * 6
        misses = [(i, 70) for i, b in enumerate(block_ids) if b == 1]
        profile = _make_profile(block_ids, misses)
        for fanout_mode in ("execution", "path"):
            batched = _assert_matches_reference(
                profile, [70], EDGE_CONFIG, (0.0, fanout_mode, "cycles")
            )
            assert batched[70].candidates
            assert batched[70].chosen is None


class TestMemo:
    def _profile(self):
        app = build_app("wordpress", scale=0.15)
        return profile_execution(app.program, app.trace(4_000))

    def test_repeat_call_hits_memo(self):
        profile = self._profile()
        lines = _lines(profile)
        tracer = Tracer()
        with kernel.force_numpy_kernel(), use_tracer(tracer):
            first = select_sites(profile, lines, DEFAULT_CONFIG)
            second = select_sites(profile, lines[:3], DEFAULT_CONFIG)
        assert all(second[line] is first[line] for line in lines[:3])
        hits = [args["memo_hit"] for args in _site_selection_spans(tracer)]
        assert hits == [False, True]

    @pytest.mark.parametrize(
        "changed",
        [
            dict(config=DEFAULT_CONFIG.with_window(20.0, 200.0)),
            dict(config=DEFAULT_CONFIG.with_window(27.0, 150.0)),
            dict(distance_estimator="ipc"),
            dict(max_fanout=0.5),
            dict(max_fanout=0.99, fanout_mode="path"),
        ],
        ids=("min-bound", "max-bound", "estimator", "threshold", "mode"),
    )
    def test_changed_input_misses_memo(self, changed):
        profile = self._profile()
        lines = _lines(profile)
        config = changed.pop("config", DEFAULT_CONFIG)
        tracer = Tracer()
        with kernel.force_numpy_kernel(), use_tracer(tracer):
            select_sites(profile, lines, DEFAULT_CONFIG)
            fresh = select_sites(profile, lines, config, **changed)
        hits = [args["memo_hit"] for args in _site_selection_spans(tracer)]
        assert hits == [False, False]
        with kernel.reference_path():
            for line in lines:
                expected = select_site(profile, line, config, **changed)
                assert fresh[line] == expected

