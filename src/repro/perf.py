"""Per-stage wall-clock instrumentation for the evaluation pipeline.

The harness spends its time in a handful of well-defined stages —
workload synthesis, LBR/PEBS profiling, offline plan analysis and
trace-replay simulation — plus, once the persistent artifact store is
active, cache hits that *replace* those stages.  A
:class:`PerfRegistry` accumulates one :class:`StageCounter` per stage
name: call count, wall-clock seconds and an optional work-unit count
(replayed blocks, so the report can show blocks/sec).

Usage::

    from repro import perf

    with perf.REGISTRY.stage("simulate", units=len(trace)):
        core.run(trace)

    print(perf.REGISTRY.report())

Registries are cheap plain objects.  Worker processes of the parallel
evaluator time their own work into a private registry, ship a
:meth:`~PerfRegistry.snapshot` back with the job result, and the
parent :meth:`~PerfRegistry.merge`\\ s it, so ``--timing`` output
covers all cores.  Counters measure wall-clock per stage *execution*,
and stages nest (planning may profile, profiling may synthesize), so
summed stage seconds are neither elapsed time nor CPU time.  The
report therefore closes with the run's elapsed wall time beside the
CPU seconds of the parent and its reaped workers (:func:`cpu_seconds`)
and the parallel efficiency those two imply.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional


try:
    import resource
except ImportError:  # pragma: no cover - non-Unix hosts
    resource = None


def cpu_seconds() -> float:
    """User + system CPU seconds of this process and its reaped children
    (pool workers count once their pool has shut down)."""
    if resource is None:  # pragma: no cover - non-Unix hosts
        return time.process_time()
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


@dataclass
class StageCounter:
    """Accumulated cost of one pipeline stage."""

    calls: int = 0
    seconds: float = 0.0
    units: int = 0

    @property
    def units_per_second(self) -> float:
        return self.units / self.seconds if self.seconds > 0 else 0.0

    def add(self, seconds: float, units: int = 0) -> None:
        self.calls += 1
        self.seconds += seconds
        self.units += units


@dataclass
class StageTimer:
    """Handle yielded by :meth:`PerfRegistry.stage`."""

    #: a second counter credited with the stage's seconds and units
    detail: Optional[str] = None
    #: elapsed seconds, set when the stage exits
    seconds: float = 0.0


@dataclass
class PerfRegistry:
    """A named collection of stage counters."""

    counters: Dict[str, StageCounter] = field(default_factory=dict)

    def counter(self, name: str) -> StageCounter:
        entry = self.counters.get(name)
        if entry is None:
            entry = self.counters[name] = StageCounter()
        return entry

    @contextmanager
    def stage(self, name: str, units: int = 0) -> Iterator["StageTimer"]:
        """Time a with-block into the counter for *name*.

        The yielded :class:`StageTimer` may name a ``detail`` counter
        that is credited with the same seconds and units (the replay
        backend under ``simulate``), and holds the elapsed ``seconds``
        once the block has exited.
        """
        timer = StageTimer()
        started = time.perf_counter()
        try:
            yield timer
        finally:
            timer.seconds = time.perf_counter() - started
            self.counter(name).add(timer.seconds, units)
            if timer.detail is not None:
                self.counter(timer.detail).add(timer.seconds, units)

    def count(self, name: str, units: int = 0) -> None:
        """Record an instantaneous event (e.g. a cache hit)."""
        self.counter(name).add(0.0, units)

    def add(self, name: str, seconds: float, units: int = 0) -> None:
        self.counter(name).add(seconds, units)

    # -- aggregation across processes ---------------------------------

    def snapshot(self) -> Dict[str, tuple]:
        """A picklable summary, suitable for shipping between
        processes and for :meth:`merge`."""
        return {
            name: (c.calls, c.seconds, c.units)
            for name, c in self.counters.items()
        }

    def merge(self, snapshot: Dict[str, tuple]) -> None:
        """Fold another registry's :meth:`snapshot` into this one."""
        for name, (calls, seconds, units) in snapshot.items():
            entry = self.counter(name)
            entry.calls += calls
            entry.seconds += seconds
            entry.units += units

    def reset(self) -> None:
        self.counters.clear()

    # -- convenience accessors ----------------------------------------

    def calls(self, name: str) -> int:
        entry = self.counters.get(name)
        return entry.calls if entry else 0

    def seconds(self, name: str) -> float:
        entry = self.counters.get(name)
        return entry.seconds if entry else 0.0

    def units(self, name: str) -> int:
        entry = self.counters.get(name)
        return entry.units if entry else 0

    def backend_counts(self, prefix: str = "simulate:") -> Dict[str, int]:
        """Simulate calls per replay backend.

        Each replay's ``simulate`` stage also credits its seconds and
        blocks to a ``simulate:<backend>`` counter — ``reference`` for
        the pure-Python loop, ``columnar`` for the plan-free array
        kernel, ``columnar-plan`` for plan-bearing array replay and
        ``columnar-plan-batch`` for a batched sweep's share — so the
        ``--timing`` report can show which implementation actually
        served each replay, and at what cost.
        """
        return {
            name[len(prefix):]: entry.calls
            for name, entry in self.counters.items()
            if name.startswith(prefix) and len(name) > len(prefix)
        }

    def total_seconds(self) -> float:
        """Wall-clock work recorded across every stage."""
        return sum(entry.seconds for entry in self.counters.values())

    def parallel_rounds(self) -> Dict[str, dict]:
        """Per-round accounting of the parallel shard executor.

        One entry per ``parallel:<round>`` stage the pool ran —
        ``l1-summary``/``l1-scan``/``l2-scan``/``l3-scan`` for array
        replay, ``ideal`` for the ideal frontend, plus setup stages
        like ``write-shards`` and ``data-decode`` — excluding the
        aggregate busy/idle/per-task counters.  Feeds the run
        manifest's parallel section.
        """
        skip = ("parallel:busy", "parallel:idle", "parallel:shard")
        rounds: Dict[str, dict] = {}
        for name in sorted(self.counters):
            if not name.startswith("parallel:") or name in skip:
                continue
            entry = self.counters[name]
            rounds[name[len("parallel:"):]] = {
                "calls": entry.calls,
                "seconds": entry.seconds,
                "units": entry.units,
            }
        return rounds

    # -- reporting ------------------------------------------------------

    def report(
        self,
        title: str = "per-stage timing",
        wall_s: Optional[float] = None,
        cpu_s: Optional[float] = None,
        jobs: int = 1,
    ) -> str:
        """Render the counters as an aligned text table.

        With the run's elapsed *wall_s* and *cpu_s* (parent plus
        workers), the table closes with those two and the parallel
        efficiency ``cpu / (wall x jobs)``; without them, with the
        summed stage seconds, labelled as such.
        """
        header = ("stage", "calls", "seconds", "units", "units/sec")
        rows = [header]
        for name in sorted(self.counters):
            entry = self.counters[name]
            rows.append(
                (
                    name,
                    str(entry.calls),
                    f"{entry.seconds:.3f}",
                    str(entry.units) if entry.units else "-",
                    f"{entry.units_per_second:,.0f}" if entry.units else "-",
                )
            )
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = [title]
        for index, row in enumerate(rows):
            lines.append(
                "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            )
            if index == 0:
                lines.append("  ".join("-" * w for w in widths))
        if wall_s is None or cpu_s is None:
            lines.append(
                f"total: {self.total_seconds():.3f}s summed stage seconds "
                "(stages nest; not elapsed time)"
            )
        else:
            lines.append(
                f"total: {wall_s:.3f}s elapsed wall, {cpu_s:.3f}s cpu "
                f"(parent + workers), {jobs} job{'s' if jobs != 1 else ''}"
            )
            if wall_s > 0:
                lines.append(
                    f"parallel efficiency: {cpu_s / (wall_s * jobs):.2f} "
                    f"(cpu / (wall x jobs))"
                )
        backends = self.backend_counts()
        if backends:
            summary = "  ".join(
                f"{name}={calls}" for name, calls in sorted(backends.items())
            )
            lines.append(f"replay backends: {summary}")
        utilization = self.worker_utilization()
        if utilization is not None:
            busy = self.seconds("parallel:busy")
            idle = self.seconds("parallel:idle")
            lines.append(
                f"shard workers: {utilization:.0%} busy "
                f"({busy:.3f}s busy / {idle:.3f}s idle across "
                f"{self.units('parallel:shard') or self.calls('parallel:shard')}"
                f" shard tasks)"
            )
        return "\n".join(lines)

    def worker_utilization(self) -> Optional[float]:
        """Busy fraction of the parallel shard pool's worker-seconds,
        or None when no parallel rounds ran."""
        busy = self.seconds("parallel:busy")
        idle = self.seconds("parallel:idle")
        total = busy + idle
        if total <= 0.0:
            return None
        return busy / total


#: Process-wide default registry (the CLI's ``--timing`` view).
REGISTRY = PerfRegistry()


def registry(override: Optional[PerfRegistry] = None) -> PerfRegistry:
    """The registry to use: *override* if given, else the global one."""
    return override if override is not None else REGISTRY
