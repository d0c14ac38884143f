"""Tests for run manifests (repro.obs.manifest)."""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiments import Evaluator, ExperimentSettings
from repro.obs.manifest import (
    MANIFEST_FORMAT,
    MANIFEST_VERSION,
    ManifestError,
    RunManifest,
    validate_manifest,
)
from repro.perf import PerfRegistry
from repro.runconfig import RunConfig

from ..conftest import needs_kernel

SETTINGS = ExperimentSettings(
    profile_length=6_000, eval_length=8_000, warmup=1_500, scale=0.15
)


@pytest.fixture(scope="module")
def evaluator():
    # a private registry: the global one may carry parallel-round
    # entries from earlier test files, and the manifest reports them
    ev = Evaluator(config=RunConfig(settings=SETTINGS, perf=PerfRegistry()))
    ev.prewarm(apps=["wordpress"], variants=("baseline", "ispy"))
    return ev


@pytest.fixture(scope="module")
def manifest(evaluator):
    return RunManifest.collect(evaluator, command="evaluate")


class TestCollect:
    def test_validates_clean(self, manifest):
        assert manifest.validate() == []

    def test_identity_fields(self, manifest):
        import repro

        payload = manifest.payload
        assert payload["format"] == MANIFEST_FORMAT
        assert payload["version"] == MANIFEST_VERSION
        assert payload["repro_version"] == repro.__version__
        assert payload["command"] == "evaluate"
        assert payload["settings"]["scale"] == SETTINGS.scale
        assert payload["settings"]["eval_length"] == SETTINGS.eval_length
        assert payload["jobs"] == 1

    def test_kernel_gate_recorded(self, manifest):
        from repro import kernel

        section = manifest.payload["kernel"]
        assert section["numpy_available"] == kernel.HAVE_NUMPY
        assert section["numpy_enabled"] == kernel.numpy_enabled()

    def test_compiled_kernel_recorded(self, manifest):
        from repro.sim import native

        section = manifest.payload["kernel"]
        status = native.status()
        assert section["compiled"] is status.compiled
        assert section["source_sha256"] == native.source_sha256()
        assert section["compiler"] == status.compiler

    def test_apps_carry_variant_digests(self, manifest):
        apps = manifest.payload["apps"]
        assert set(apps) == {"wordpress"}
        variants = apps["wordpress"]["variants"]
        assert {"baseline", "ispy"} <= set(variants)
        for record in variants.values():
            assert len(record["record_sha256"]) == 64
            assert record["cycles"] > 0

    def test_digest_is_deterministic(self, evaluator, manifest):
        again = RunManifest.collect(evaluator, command="evaluate")
        a = manifest.payload["apps"]["wordpress"]["variants"]
        b = again.payload["apps"]["wordpress"]["variants"]
        assert a == b

    def test_backend_counts_are_simulate_counts(self, manifest):
        counts = manifest.payload["backend_counts"]
        assert sum(counts.values()) >= 2  # baseline + ispy at minimum
        assert all(isinstance(v, int) for v in counts.values())

    def test_storeless_run_records_absent_store(self, manifest):
        section = manifest.payload["store"]
        assert section["present"] is False
        assert section["hit_rate"] is None

    def test_store_counters_flow_through(self, tmp_path):
        config = RunConfig(settings=SETTINGS, store=tmp_path / "cache")
        ev = config.evaluator()
        ev.prewarm(apps=["wordpress"], variants=("baseline",))
        payload = RunManifest.collect(ev).payload
        section = payload["store"]
        assert section["present"] is True
        assert section["root"] == str(ev.store.root)
        # a cold run looks everything up and misses
        assert sum(section["misses"].values()) > 0
        assert section["hit_rate"] is not None


class TestParallelSection:
    """Round accounting and worker-budget provenance (schema v2)."""

    def test_sequential_run_has_empty_parallel_section(self, manifest):
        section = manifest.payload["parallel"]
        assert section["mode"] is None
        assert section["workers"] is None
        assert section["rounds"] == {}
        assert section["worker_budget"] is None
        assert section["clamped"] is False

    @needs_kernel
    def test_parallel_run_records_rounds_and_budget(self):
        from repro import kernel

        if not kernel.numpy_enabled():
            pytest.skip(
                "the exact executor needs the numpy kernel; without it "
                "sharded runs fall back to sequential streaming"
            )
        config = RunConfig(
            settings=SETTINGS, shard_insns=2_000, parallel_shards="exact",
            worker_budget=1,
        )
        ev = Evaluator(config=config)
        ev.prewarm(apps=["wordpress"], variants=("baseline",))
        parallel_manifest = RunManifest.collect(ev, command="evaluate")
        assert parallel_manifest.validate() == []
        section = parallel_manifest.payload["parallel"]
        assert section["mode"] == "exact"
        assert section["worker_budget"] == 1
        assert section["clamped"] is False
        for stage in ("l1-summary", "l1-scan", "l2-scan", "l3-scan"):
            entry = section["rounds"][stage]
            assert entry["calls"] >= 1
            assert entry["units"] >= 1
            assert entry["seconds"] >= 0
        # pool bookkeeping stays out of the per-round table
        assert "busy" not in section["rounds"]
        assert "shard" not in section["rounds"]

    def test_rounds_entries_are_schema_checked(self, manifest):
        payload = json.loads(json.dumps(manifest.payload))
        payload["parallel"]["rounds"] = {"l1-scan": {"calls": 1}}
        errors = validate_manifest(payload)
        assert any("rounds['l1-scan']" in error for error in errors)


class TestValidation:
    def test_missing_field_reported(self, manifest):
        payload = json.loads(json.dumps(manifest.payload))
        del payload["kernel"]
        errors = validate_manifest(payload)
        assert any("manifest.kernel: missing" in e for e in errors)

    def test_wrong_type_reported(self, manifest):
        payload = json.loads(json.dumps(manifest.payload))
        payload["settings"]["scale"] = "big"
        errors = validate_manifest(payload)
        assert any("manifest.settings.scale" in e for e in errors)

    def test_bool_does_not_satisfy_int(self, manifest):
        payload = json.loads(json.dumps(manifest.payload))
        payload["jobs"] = True
        errors = validate_manifest(payload)
        assert any("manifest.jobs" in e and "bool" in e for e in errors)

    def test_bad_variant_record_reported(self, manifest):
        payload = json.loads(json.dumps(manifest.payload))
        payload["apps"]["wordpress"]["variants"]["baseline"].pop("record_sha256")
        errors = validate_manifest(payload)
        assert any("record_sha256" in e for e in errors)

    def test_unknown_format_rejected(self, manifest):
        payload = json.loads(json.dumps(manifest.payload))
        payload["format"] = "not-a-manifest"
        assert validate_manifest(payload)

    def test_non_dict_payload(self):
        assert validate_manifest([1, 2, 3])


class TestWriteLoad:
    def test_roundtrip(self, manifest, tmp_path):
        target = manifest.write(tmp_path / "m.json")
        loaded = RunManifest.load(target)
        assert loaded.payload == manifest.payload

    def test_write_refuses_invalid(self, manifest, tmp_path):
        broken = RunManifest(json.loads(json.dumps(manifest.payload)))
        del broken.payload["stages"]
        with pytest.raises(ManifestError):
            broken.write(tmp_path / "m.json")
        assert not (tmp_path / "m.json").exists()

    def test_load_refuses_tampered(self, manifest, tmp_path):
        target = manifest.write(tmp_path / "m.json")
        payload = json.loads(target.read_text())
        payload["version"] = 99
        target.write_text(json.dumps(payload))
        with pytest.raises(ManifestError):
            RunManifest.load(target)

    def test_written_json_is_sorted_and_indented(self, manifest, tmp_path):
        text = manifest.write(tmp_path / "m.json").read_text()
        assert text == json.dumps(manifest.payload, indent=2, sort_keys=True) + "\n"
