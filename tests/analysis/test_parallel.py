"""Parallel evaluation and artifact-cache integration tests.

The contract under test: whatever the job count and whatever the
cache state, an (app, variant) simulation yields bit-identical
statistics — and a warm cache replaces simulation entirely.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    DEFAULT_PREWARM_VARIANTS,
    Evaluator,
    ExperimentSettings,
)
from repro.analysis.jobs import (
    reset_budget_warnings,
    resolve_jobs,
    split_worker_budget,
)
from repro.io import ArtifactStore, stats_to_record
from repro.perf import PerfRegistry
from repro.runconfig import RunConfig

APPS = ("wordpress", "kafka")
VARIANTS = ("baseline", "ideal", "asmdb", "ispy")

SETTINGS = ExperimentSettings(
    profile_length=12_000, eval_length=15_000, warmup=3_000, scale=0.25
)


@pytest.fixture(scope="module")
def serial_evaluator():
    evaluator = Evaluator(SETTINGS)
    evaluator.prewarm(apps=APPS, variants=VARIANTS)
    return evaluator


@pytest.fixture(scope="module")
def serial_records(serial_evaluator):
    return {
        (name, variant): stats_to_record(
            serial_evaluator[name].stats_for(variant)
        )
        for name in APPS
        for variant in VARIANTS
    }


class TestParallelEqualsSerial:
    def test_two_workers_bit_identical(self, serial_records):
        evaluator = Evaluator(config=RunConfig(settings=SETTINGS, jobs=2))
        evaluator.prewarm(apps=APPS, variants=VARIANTS)
        for name in APPS:
            for variant in VARIANTS:
                assert (
                    stats_to_record(evaluator[name].stats_for(variant))
                    == serial_records[(name, variant)]
                ), f"{name}/{variant} diverged under jobs=2"

    def test_parallel_prewarm_populates_memory_caches(self):
        evaluator = Evaluator(config=RunConfig(settings=SETTINGS, jobs=2))
        evaluator.prewarm(apps=["wordpress"], variants=VARIANTS)
        perf = PerfRegistry()
        evaluator.perf = perf
        for evaluation in evaluator._apps.values():
            evaluation.perf = perf
        # every variant must now come from the in-memory/persistent
        # caches — no further simulation in the parent
        for variant in VARIANTS:
            evaluator["wordpress"].stats_for(variant)
        assert perf.calls("simulate") == 0

    def test_ephemeral_store_created_for_parallel_runs(self):
        evaluator = Evaluator(config=RunConfig(settings=SETTINGS, jobs=2))
        assert evaluator.store is None
        evaluator._ensure_store()
        assert isinstance(evaluator.store, ArtifactStore)
        assert evaluator._ephemeral_store is not None


class TestInheritedApps:
    """Workers inherit the parent's synthesized apps and traces, and
    the profile-free variants run in the first wave."""

    def test_apps_synthesized_once_each_in_the_parent(self):
        perf = PerfRegistry()
        evaluator = Evaluator(
            config=RunConfig(settings=SETTINGS, jobs=2, perf=perf)
        )
        evaluator.prewarm(apps=APPS, variants=VARIANTS)
        # the parent built both apps, so any worker synthesis would
        # push the merged count past one per app
        assert all(evaluator[name]._app is not None for name in APPS)
        assert perf.calls("synthesize") == len(APPS)

    def test_first_wave_holds_the_profile_free_variants(self):
        from repro.analysis.experiments import MATRIX_PREFETCHERS
        from repro.analysis.jobs import _needs_profile

        early = [v for v in MATRIX_PREFETCHERS if not _needs_profile(v)]
        assert early == ["baseline", "ideal", "fdip", "nextline"]

    def test_bit_identical_with_fresh_and_warm_store(
        self, tmp_path, serial_evaluator
    ):
        variants = VARIANTS + ("nextline",)
        expected = {
            variant: stats_to_record(
                serial_evaluator["wordpress"].stats_for(variant)
            )
            for variant in variants
        }
        for state in ("fresh", "warm"):
            perf = PerfRegistry()
            evaluator = Evaluator(
                config=RunConfig(
                    settings=SETTINGS, jobs=2, store=tmp_path / "cache",
                    perf=perf,
                )
            )
            evaluator.prewarm(apps=["wordpress"], variants=variants)
            for variant in variants:
                assert (
                    stats_to_record(evaluator["wordpress"].stats_for(variant))
                    == expected[variant]
                ), f"{variant} diverged with a {state} store"
            if state == "warm":
                assert perf.calls("simulate") == 0

    @pytest.mark.parametrize("inherit", (False, True))
    def test_worker_with_or_without_inherited_app(
        self, tmp_path, serial_records, inherit
    ):
        from repro.analysis import jobs
        from repro.obs.trace import set_tracer

        table = {}
        if inherit:
            evaluation = Evaluator(SETTINGS)["wordpress"]
            table["wordpress"] = (evaluation.app, evaluation.eval_trace)
        jobs._inherit(table)
        try:
            _, _, stats, snapshot, _ = jobs.evaluate_variant(
                "wordpress", "baseline", SETTINGS, str(tmp_path)
            )
        finally:
            jobs._inherit({})
            set_tracer(None)
        assert stats_to_record(stats) == serial_records[("wordpress", "baseline")]
        synthesized = snapshot.get("synthesize", (0, 0.0, 0))[0]
        assert synthesized == (0 if inherit else 1)


class TestPersistentWarmRun:
    def test_second_run_skips_profiling_and_simulation(
        self, tmp_path, serial_records
    ):
        cold_perf = PerfRegistry()
        cold = Evaluator(
            config=RunConfig(
                settings=SETTINGS, store=tmp_path / "cache", perf=cold_perf
            )
        )
        cold.prewarm(apps=["wordpress"], variants=VARIANTS)
        assert cold_perf.calls("simulate") == len(VARIANTS)
        assert cold_perf.calls("profile") == 1

        warm_perf = PerfRegistry()
        warm = Evaluator(
            config=RunConfig(
                settings=SETTINGS, store=tmp_path / "cache", perf=warm_perf
            )
        )
        warm.prewarm(apps=["wordpress"], variants=VARIANTS)
        assert warm_perf.calls("simulate") == 0
        assert warm_perf.calls("profile") == 0
        assert warm_perf.calls("synthesize") == 0
        assert warm_perf.calls("store-hit:stats") == len(VARIANTS)
        for variant in VARIANTS:
            assert (
                stats_to_record(warm["wordpress"].stats_for(variant))
                == serial_records[("wordpress", variant)]
            )


class TestKeyGranularity:
    """Sweep points must never alias each other's cached artifacts."""

    def evaluation(self):
        return Evaluator(SETTINGS)["wordpress"]

    def test_key_depends_on_settings(self):
        a = self.evaluation()
        b = Evaluator(
            ExperimentSettings(
                profile_length=12_000,
                eval_length=15_000,
                warmup=4_000,  # only the warmup differs
                scale=0.25,
            )
        )["wordpress"]
        assert a._stats_key(None, 16, False, None) != b._stats_key(
            None, 16, False, None
        )

    def test_key_depends_on_run_parameters(self):
        ev = self.evaluation()
        base = ev._stats_key(None, 16, False, None)
        assert ev._stats_key(None, 8, False, None) != base
        assert ev._stats_key(None, 16, True, None) != base
        assert ev._stats_key(None, 16, False, None, ideal=True) != base

    def test_key_depends_on_trace_identity(self):
        ev = self.evaluation()
        app = ev.app
        t1 = app.trace(2_000, seed=1, input_name="a")
        t2 = app.trace(2_000, seed=2, input_name="a")
        t3 = app.trace(2_000, seed=1, input_name="b")
        keys = {
            ev._stats_key(None, 16, False, t)
            for t in (None, t1, t2, t3)
        }
        assert len(keys) == 4

    def test_plan_keys_depend_on_planner_parameters(self):
        from repro.baselines import get_prefetcher
        from repro.core.config import DEFAULT_CONFIG

        ev = self.evaluation()

        def plan_key(prefetcher):
            return ev._key("plan", **prefetcher.plan_key_parts())

        assert plan_key(
            get_prefetcher("asmdb", fanout_threshold=0.90)
        ) != plan_key(get_prefetcher("asmdb", fanout_threshold=0.95))
        assert plan_key(get_prefetcher("ispy")) != plan_key(
            get_prefetcher("ispy", config=DEFAULT_CONFIG.conditional_only())
        )

    def test_sweep_stats_do_not_alias(self, tmp_path):
        """Fig. 3-style sweep: distinct thresholds, distinct artifacts."""
        perf = PerfRegistry()
        evaluator = Evaluator(
            config=RunConfig(
                settings=SETTINGS, store=tmp_path / "cache", perf=perf
            )
        )
        ev = evaluator["wordpress"]
        low = ev.run_plan(ev.asmdb_plan(0.5))
        high = ev.run_plan(ev.asmdb_plan(0.99))
        # the two planner outputs genuinely differ, and so must the
        # cached stats entries (no aliasing between sweep points)
        assert stats_to_record(low) != stats_to_record(high)
        assert perf.calls("simulate") == 2


def test_resolve_jobs():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(1) == 1
    assert resolve_jobs(0) >= 1
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(-2) >= 1


class TestWorkerBudget:
    """One budget shared by --jobs and --parallel-shards pools."""

    @pytest.fixture(autouse=True)
    def _fresh_warning_dedup(self):
        """Each test sees a process that has warned about nothing."""
        reset_budget_warnings()
        yield
        reset_budget_warnings()

    def test_no_budget_resolves_independently(self):
        jobs, shard_workers = split_worker_budget(2, 3, None)
        assert (jobs, shard_workers) == (2, 3)

    def test_budget_split_evenly(self):
        assert split_worker_budget(2, None, 8) == (2, 4)
        assert split_worker_budget(1, None, 8) == (1, 8)
        assert split_worker_budget(3, None, 8) == (3, 2)

    def test_jobs_alone_oversubscribing_warns_and_floors_shards(self):
        with pytest.warns(RuntimeWarning, match="oversubscribes"):
            jobs, shard_workers = split_worker_budget(4, None, 2)
        assert (jobs, shard_workers) == (4, 1)

    def test_requested_shard_workers_clamped_with_warning(self):
        with pytest.warns(RuntimeWarning, match="clamping"):
            jobs, shard_workers = split_worker_budget(2, 8, 8)
        assert (jobs, shard_workers) == (2, 4)

    def test_identical_oversubscription_warns_once_per_process(self):
        """Re-validating the same budget split (once per sweep job,
        once per benchmark repeat...) must not repeat the warning."""
        import warnings

        with pytest.warns(RuntimeWarning, match="clamping"):
            split_worker_budget(2, 8, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert split_worker_budget(2, 8, 8) == (2, 4)
        reset_budget_warnings()
        with pytest.warns(RuntimeWarning, match="clamping"):
            split_worker_budget(2, 8, 8)

    def test_distinct_oversubscription_still_warns(self):
        with pytest.warns(RuntimeWarning, match="clamping"):
            split_worker_budget(2, 8, 8)
        with pytest.warns(RuntimeWarning, match="clamping"):
            split_worker_budget(2, 16, 8)

    def test_record_captures_split_provenance(self):
        record: dict = {}
        with pytest.warns(RuntimeWarning, match="clamping"):
            split_worker_budget(2, 8, 8, record=record)
        assert record == {
            "worker_budget": 8, "jobs": 2, "shard_workers": 4,
            "clamped": True,
        }
        record = {}
        split_worker_budget(2, 3, 8, record=record)
        assert record == {
            "worker_budget": 8, "jobs": 2, "shard_workers": 3,
            "clamped": False,
        }
        record = {}
        split_worker_budget(2, 3, None, record=record)
        assert record == {
            "worker_budget": None, "jobs": 2, "shard_workers": 3,
            "clamped": False,
        }

    def test_within_budget_passes_through_silently(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert split_worker_budget(2, 3, 8) == (2, 3)

    def test_both_flags_set_together_end_to_end(self):
        """--jobs 2 --shard-insns N --parallel-shards exact
        --worker-budget 2: the sweep fans out *and* each worker's
        shard pool respects its one-process share, bit-identically."""
        config = RunConfig(
            settings=SETTINGS,
            jobs=2,
            shard_insns=4_000,
            parallel_shards="exact",
            worker_budget=2,
        )
        evaluator = Evaluator(config=config)
        assert evaluator.parallel is not None
        assert evaluator.parallel.mode == "exact"
        assert evaluator.parallel.resolve_workers() == 1
        evaluator.prewarm(apps=["wordpress"], variants=("baseline", "ideal"))
        serial = Evaluator(SETTINGS)
        for variant in ("baseline", "ideal"):
            assert (
                stats_to_record(evaluator["wordpress"].stats_for(variant))
                == stats_to_record(serial["wordpress"].stats_for(variant))
            ), f"{variant} diverged under jobs x parallel-shards"

    def test_parallel_without_shards_warns_and_stays_sequential(self):
        with pytest.warns(RuntimeWarning, match="requires shard_insns"):
            evaluator = Evaluator(
                config=RunConfig(settings=SETTINGS, parallel_shards="exact")
            )
        assert evaluator.parallel is None


def test_default_prewarm_variants_are_known():
    evaluator = Evaluator(SETTINGS)
    evaluation = evaluator["wordpress"]
    for variant in DEFAULT_PREWARM_VARIANTS:
        # stats_for would raise KeyError on an unknown name; probing
        # the dispatch table must not require running simulations
        assert variant in (
            "baseline", "ideal", "asmdb", "ispy", "ispy-conditional",
            "ispy-coalescing", "contiguous8", "noncontiguous8", "nextline",
        )
    assert evaluation.name == "wordpress"
