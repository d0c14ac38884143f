"""Tests for the per-stage timing registry (repro.perf)."""

from __future__ import annotations

import pickle
import time

from repro.perf import REGISTRY, PerfRegistry, cpu_seconds, registry


class TestStageCounter:
    def test_stage_accumulates_calls_seconds_units(self):
        reg = PerfRegistry()
        with reg.stage("simulate", units=100):
            pass
        with reg.stage("simulate", units=50):
            time.sleep(0.002)
        entry = reg.counter("simulate")
        assert entry.calls == 2
        assert entry.units == 150
        assert entry.seconds > 0.0

    def test_stage_records_time_on_exception(self):
        reg = PerfRegistry()
        try:
            with reg.stage("simulate"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert reg.calls("simulate") == 1

    def test_stage_detail_gets_the_same_seconds_and_units(self):
        reg = PerfRegistry()
        with reg.stage("simulate", units=40) as timed:
            time.sleep(0.002)
            timed.detail = "simulate:columnar"
        assert timed.seconds > 0.0
        assert reg.counter("simulate:columnar") == reg.counter("simulate")

    def test_count_is_instantaneous(self):
        reg = PerfRegistry()
        reg.count("store-hit:stats")
        reg.count("store-hit:stats")
        assert reg.calls("store-hit:stats") == 2
        assert reg.seconds("store-hit:stats") == 0.0

    def test_units_per_second(self):
        reg = PerfRegistry()
        reg.add("simulate", seconds=2.0, units=100)
        assert reg.counter("simulate").units_per_second == 50.0

    def test_missing_counter_accessors_default_to_zero(self):
        reg = PerfRegistry()
        assert reg.calls("nope") == 0
        assert reg.seconds("nope") == 0.0
        assert reg.units("nope") == 0


class TestSnapshotMerge:
    def test_snapshot_roundtrip_through_pickle(self):
        reg = PerfRegistry()
        reg.add("profile", seconds=1.5, units=1000)
        snapshot = pickle.loads(pickle.dumps(reg.snapshot()))
        other = PerfRegistry()
        other.merge(snapshot)
        assert other.calls("profile") == 1
        assert other.seconds("profile") == 1.5
        assert other.units("profile") == 1000

    def test_merge_accumulates_into_existing(self):
        parent = PerfRegistry()
        parent.add("simulate", seconds=1.0, units=10)
        worker = PerfRegistry()
        worker.add("simulate", seconds=2.0, units=20)
        worker.add("profile", seconds=0.5)
        parent.merge(worker.snapshot())
        assert parent.calls("simulate") == 2
        assert parent.seconds("simulate") == 3.0
        assert parent.units("simulate") == 30
        assert parent.calls("profile") == 1

    def test_reset(self):
        reg = PerfRegistry()
        reg.count("x")
        reg.reset()
        assert reg.calls("x") == 0

    def test_merge_disjoint_snapshots(self):
        parent = PerfRegistry()
        parent.add("profile", seconds=1.0, units=5)
        worker = PerfRegistry()
        worker.add("simulate", seconds=2.0, units=20)
        parent.merge(worker.snapshot())
        assert parent.calls("profile") == 1
        assert parent.calls("simulate") == 1
        assert parent.seconds("simulate") == 2.0
        assert set(parent.snapshot()) == {"profile", "simulate"}

    def test_merge_empty_snapshot_is_noop(self):
        reg = PerfRegistry()
        reg.count("x")
        reg.merge(PerfRegistry().snapshot())
        assert reg.calls("x") == 1
        assert set(reg.snapshot()) == {"x"}


class TestBackendCounts:
    def test_counts_by_backend_suffix(self):
        reg = PerfRegistry()
        reg.count("simulate:columnar")
        reg.count("simulate:columnar")
        reg.count("simulate:reference")
        reg.count("simulate")  # the stage timer itself is not a backend
        assert reg.backend_counts() == {"columnar": 2, "reference": 1}

    def test_bare_prefix_counter_excluded(self):
        reg = PerfRegistry()
        reg.count("simulate:")  # pathological: prefix with empty suffix
        reg.count("simulate:columnar")
        assert reg.backend_counts() == {"columnar": 1}

    def test_empty_registry(self):
        assert PerfRegistry().backend_counts() == {}

    def test_custom_prefix(self):
        reg = PerfRegistry()
        reg.count("store-hit:stats")
        reg.count("simulate:columnar")
        assert reg.backend_counts(prefix="store-hit:") == {"stats": 1}


class TestReport:
    def test_report_lists_stages_and_total(self):
        reg = PerfRegistry()
        reg.add("simulate", seconds=2.0, units=100)
        reg.count("store-hit:stats")
        text = reg.report()
        assert "simulate" in text
        assert "store-hit:stats" in text
        assert "total" in text
        assert "2.000" in text

    def test_report_on_empty_registry(self):
        assert "total" in PerfRegistry().report()

    def test_report_with_elapsed_time_shows_parallel_efficiency(self):
        reg = PerfRegistry()
        reg.add("simulate", seconds=7.0)
        text = reg.report(wall_s=2.0, cpu_s=3.0, jobs=2)
        assert "2.000s elapsed wall, 3.000s cpu" in text
        assert "parallel efficiency: 0.75" in text
        assert "7.000s summed" not in text


def test_cpu_seconds_counts_this_process():
    before = cpu_seconds()
    deadline = time.process_time() + 0.02
    while time.process_time() < deadline:
        pass
    assert cpu_seconds() - before >= 0.015


def test_registry_helper_prefers_override():
    override = PerfRegistry()
    assert registry(override) is override
    assert registry(None) is REGISTRY
