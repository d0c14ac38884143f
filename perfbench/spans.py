"""Spans recorded from outside the program, around its public entry points.

The traced run wraps each layer's public functions and methods (the
list is :func:`instrument`) in a thin timer that records one span:
its name, start, end, the enclosing span and a few attributes read
from the call's arguments or result.  Nothing under ``src/`` is
edited; the wrappers are installed for one traced iteration and
removed again, so untraced iterations run the program untouched.

Worker processes of the parallel evaluator are forked, so they inherit
the wrappers.  A worker appends each finished top-level span tree to
``spans-<pid>.jsonl`` in the spool directory; the parent reads those
files back once the pool has exited (:meth:`SpanRecorder.collect`).

A layer's *self* time is its span time minus the time its child spans
cover; :func:`layer_metrics` turns the span list into the per-layer
metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional


class SpanRecorder:
    """In-memory span list of one traced iteration (all processes)."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.root_pid = os.getpid()
        self._pid = self.root_pid
        self._spans: List[dict] = []
        self._stack: List[dict] = []

    def _own_process(self) -> None:
        # a forked worker starts with a copy of the parent's state
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._spans = []
            self._stack = []

    def open(self, name: str) -> dict:
        self._own_process()
        span = {
            "id": len(self._spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "pid": self._pid,
            "start": time.perf_counter(),
        }
        self._spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict, attrs: Optional[dict] = None) -> None:
        span["end"] = time.perf_counter()
        if attrs:
            span.update(attrs)
        self._stack.pop()
        if self._pid != self.root_pid and not self._stack:
            path = self.spool_dir / f"spans-{self._pid}.jsonl"
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(self._spans) + "\n")
            self._spans = []

    def collect(self) -> List[dict]:
        """Every span of the iteration: the parent's plus the spooled
        worker trees, with ids made unique across processes."""
        spans = [dict(s) for s in self._spans if "end" in s]
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                tree = json.loads(line)
                offset = len(spans)
                for span in tree:
                    span["id"] += offset
                    if span["parent"] is not None:
                        span["parent"] += offset
                spans.extend(tree)
        return spans


def _wrap(recorder: SpanRecorder, name: str, fn: Callable,
          describe: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.close(span, {"ok": False})
            raise
        attrs = {"ok": True}
        if describe is not None:
            attrs.update(describe(args, kwargs, result))
        recorder.close(span, attrs)
        return result

    return wrapper


class Patches:
    """Installed wrappers, and how to take each one out again."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: List[tuple] = []

    def function(self, module, attr: str, name: str, describe=None) -> None:
        """Wrap a module-level function in every ``repro`` module that
        imported it by name."""
        original = getattr(module, attr)
        wrapper = _wrap(self.recorder, name, original, describe)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and (
                vars(mod).get(attr) is original
            ):
                setattr(mod, attr, wrapper)
                self._undo.append((mod, attr, original))

    def method(self, cls, attr: str, name: str, describe=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, _wrap(self.recorder, name, original, describe))
        self._undo.append((cls, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _subclasses(cls) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _replay_attrs(args, kwargs, result) -> dict:
    core, trace = args[0], args[1]
    from repro.sim.trace import ShardedTrace

    attrs = {"backend": core.last_replay_backend, "blocks": len(trace)}
    if isinstance(trace, ShardedTrace):
        attrs["shards"] = trace.num_shards
    return attrs


def _batch_attrs(args, kwargs, result) -> dict:
    return {
        "width": len(args[0]),
        "blocks": len(args[1]),
        "fallbacks": sum(reason is not None for reason in result),
    }


def _profile_attrs(args, kwargs, result) -> dict:
    return {"blocks": len(args[1])}


def _load_attrs(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _prewarm_attrs(args, kwargs, result) -> dict:
    names, variants = args[1], args[2]
    return {"jobs": len(names) + len(names) * len(variants), "workers": args[3]}


def instrument(recorder: SpanRecorder) -> Patches:
    """Install span wrappers around every layer's public entry points."""
    from repro import io as repro_io
    from repro.analysis import jobs
    from repro.baselines import protocol as zoo
    from repro.core import coalesce, context, injection
    from repro.profiling import profiler
    from repro.sim import streaming
    from repro.sim.cpu import CoreSimulator
    from repro.workloads import apps, ingest
    from repro.workloads.synthesis import SyntheticApp

    zoo.prefetcher_names()  # imports every zoo member
    planners = {"ispy": "core.plan_ispy", "asmdb": "baselines.plan_asmdb"}
    patches = Patches(recorder)
    patches.function(apps, "build_app", "workloads.build_app")
    patches.method(SyntheticApp, "trace", "workloads.trace")
    patches.function(ingest, "ingest_trace_file", "ingest.parse")
    patches.function(ingest, "write_ingested", "ingest.persist")
    patches.function(ingest, "load_ingested", "ingest.load")
    patches.function(profiler, "profile_execution", "profiling.profile",
                     _profile_attrs)
    patches.function(injection, "select_site", "core.select_site")
    patches.function(context, "discover_context", "core.context")
    patches.function(coalesce, "coalesce_prefetches", "core.coalesce")
    for cls in _subclasses(zoo.Prefetcher):
        if "train_result" in cls.__dict__ and cls not in (
            zoo.Prefetcher, zoo.PlanReplay
        ):
            patches.method(cls, "train_result",
                           planners.get(cls.planner, "baselines.plan_other"))
        if "simulate" in cls.__dict__:
            if cls is zoo.Prefetcher:
                kind = "sim.plan_replay"
            elif cls.planner == "ideal":
                kind = "sim.ideal_replay"
            else:
                kind = "baselines.hw_replay"
            patches.method(cls, "simulate", kind)
    patches.method(CoreSimulator, "run", "sim.run", _replay_attrs)
    patches.function(streaming, "run_plan_batch", "sim.batch", _batch_attrs)
    for attr in list(vars(repro_io.ArtifactStore)):
        if attr.startswith("save_"):
            patches.method(repro_io.ArtifactStore, attr, "io.save")
        elif attr.startswith("load_"):
            patches.method(repro_io.ArtifactStore, attr, "io.load", _load_attrs)
    patches.function(jobs, "run_prewarm_jobs", "analysis.prewarm",
                     _prewarm_attrs)
    return patches


# ---------------------------------------------------------------------------
# span list -> per-layer metrics
# ---------------------------------------------------------------------------


class SpanTable:
    """Durations, self times and ancestry of one iteration's spans."""

    def __init__(self, spans: List[dict]):
        self.spans = spans
        by_id = {s["id"]: s for s in spans}
        children_time: Dict[int, float] = {}
        for span in spans:
            span["dur"] = span["end"] - span["start"]
            parent = span["parent"]
            if parent is not None:
                children_time[parent] = children_time.get(parent, 0.0) + span["dur"]
        for span in spans:
            span["self"] = span["dur"] - children_time.get(span["id"], 0.0)
            names = set()
            parent = span["parent"]
            while parent is not None:
                names.add(by_id[parent]["name"])
                parent = by_id[parent]["parent"]
            span["ancestors"] = names

    def select(self, name: str, under: Optional[str] = None, **attrs) -> List[dict]:
        return [
            s for s in self.spans
            if s["name"] == name
            and (under is None or under in s["ancestors"])
            and all(s.get(k) == v for k, v in attrs.items())
        ]

    def total(self, name: str, self_time: bool = False, **filters) -> float:
        key = "self" if self_time else "dur"
        return float(sum(s[key] for s in self.select(name, **filters)))

    def count(self, name: str, **filters) -> int:
        return len(self.select(name, **filters))

    def attr_sum(self, name: str, attr: str, **filters) -> float:
        return float(sum(s.get(attr, 0) for s in self.select(name, **filters)))


def _rate(units: float, seconds: float) -> float:
    return units / seconds if seconds > 0 else 0.0


#: replay backends named in the per-layer metrics
BACKENDS = ("reference", "columnar", "columnar-plan", "columnar-plan-batch")


def layer_metrics(spans: List[dict], records_ingested: int = 0) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced iteration.

    *records_ingested* is the number of instruction records the
    successful ``ingest_trace_file`` calls parsed (for the rate).
    """
    t = SpanTable(spans)
    replay_self = sum(
        t.total(name, self_time=True)
        for name in ("sim.run", "sim.plan_replay", "sim.ideal_replay")
    )
    replays = {
        f"sim.replays.{backend}": float(t.count("sim.run", backend=backend))
        for backend in BACKENDS
    }
    batch_width = t.attr_sum("sim.batch", "width")
    replays["sim.replays.columnar-plan-batch"] += batch_width - t.attr_sum(
        "sim.batch", "fallbacks"
    )
    streamed = [s for s in t.select("sim.run") if "shards" in s]
    loads = t.select("io.load")
    parses = t.select("ingest.parse", ok=True)
    out = {
        "workloads.synth_s": t.total("workloads.build_app"),
        "workloads.synth_calls": float(t.count("workloads.build_app")),
        "workloads.trace_s": t.total("workloads.trace"),
        "ingest.parse_s": t.total("ingest.parse"),
        "ingest.persist_s": t.total("ingest.persist"),
        "ingest.load_s": t.total("ingest.load"),
        "ingest.records_per_s": _rate(
            records_ingested, sum(s["dur"] for s in parses)
        ),
        "profiling.s": t.total("profiling.profile"),
        "profiling.kblocks_per_s": _rate(
            t.attr_sum("profiling.profile", "blocks") / 1000.0,
            t.total("profiling.profile"),
        ),
        "core.plan_ispy_s": t.total("core.plan_ispy"),
        "core.plan_ispy_calls": float(t.count("core.plan_ispy")),
        "core.select_site_s": t.total("core.select_site", under="core.plan_ispy"),
        "core.context_s": t.total("core.context"),
        "core.coalesce_s": t.total("core.coalesce"),
        "baselines.plan_asmdb_s": t.total("baselines.plan_asmdb"),
        "baselines.plan_other_s": t.total("baselines.plan_other"),
        "baselines.hw_replay_s": t.total("baselines.hw_replay", self_time=True),
        "sim.replay_s": replay_self,
        "sim.replay_kblocks_per_s": _rate(
            t.attr_sum("sim.run", "blocks") / 1000.0, t.total("sim.run")
        ),
        "sim.batch_s": t.total("sim.batch"),
        "sim.batch_width": (
            batch_width / t.count("sim.batch") if t.count("sim.batch") else 0.0
        ),
        "sim.batch_fallback_frac": (
            t.attr_sum("sim.batch", "fallbacks") / batch_width
            if batch_width else 0.0
        ),
        "sim.stream_shards": float(sum(s["shards"] for s in streamed)),
        "sim.stream_replay_s": sum(s["dur"] for s in streamed),
        "analysis.prewarm_s": t.total("analysis.prewarm"),
        "analysis.jobs_run": t.attr_sum("analysis.prewarm", "jobs"),
        "io.save_s": t.total("io.save"),
        "io.load_s": t.total("io.load"),
        "io.hit_rate": (
            sum(1 for s in loads if s.get("hit")) / len(loads) if loads else 0.0
        ),
    }
    out.update(replays)
    return out


def span_summary(spans: List[dict]) -> List[dict]:
    """Per span name: calls, inclusive and self seconds, processes."""
    t = SpanTable(spans)
    rows = []
    for name in sorted({s["name"] for s in spans}):
        chosen = t.select(name)
        rows.append({
            "name": name,
            "calls": len(chosen),
            "seconds": sum(s["dur"] for s in chosen),
            "self_seconds": sum(s["self"] for s in chosen),
            "processes": len({s["pid"] for s in chosen}),
            "median_ms": statistics.median(s["dur"] for s in chosen) * 1e3,
        })
    return rows
