"""The Fig. 5 limit study: Contiguous-8 vs Non-contiguous-8.

The paper motivates coalescing by comparing two miss-triggered
prefetchers over an n-line window following each miss:

* **Contiguous-n** prefetches *all* n lines following a missed line
  (classic next-n-line behaviour);
* **Non-contiguous-n** prefetches only those of the n following lines
  that the profile says also miss — the window's *miss subset*.

Non-contiguous-n wins (by ~7.6% in the paper) because the skipped
lines never displace useful cache contents.

:func:`simulate_window_prefetcher` implements both as run-time
mechanisms triggered on each L1I miss (the paper's formulation);
:func:`build_window_plan` additionally expresses the same windows as
injected coalesced instructions, which the coalescing tests use.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from dataclasses import replace

from ..core.config import DEFAULT_CONFIG, ISpyConfig
from ..core.injection import frequent_miss_lines, select_sites
from ..core.instructions import PrefetchInstr, PrefetchPlan
from ..profiling.profiler import ExecutionProfile
from ..sim.hierarchy import MemoryHierarchy
from ..sim.params import MachineParams
from ..sim.stats import SimStats
from ..sim.trace import BlockTrace, Program
from .protocol import (
    Prefetcher,
    ProfileView,
    ReplayContext,
    register_prefetcher,
)


def simulate_window_prefetcher(
    program: Program,
    trace: BlockTrace,
    profile: Optional[ExecutionProfile] = None,
    window: int = 8,
    contiguous: bool = True,
    machine: Optional[MachineParams] = None,
    data_traffic=None,
    warmup: int = 0,
    config: Optional[ISpyConfig] = None,
) -> SimStats:
    """Replay with a miss-triggered n-line window prefetcher.

    On every demand L1I miss of line L, prefetch lines L+1 … L+n —
    all of them (``contiguous=True``) or only the subset the profile
    recorded as miss lines (``contiguous=False``; requires *profile*).
    """
    if window < 1:
        raise ValueError("window must be at least one line")
    if not contiguous and profile is None:
        raise ValueError("non-contiguous mode needs a profile")
    machine = machine or MachineParams()
    config = config or DEFAULT_CONFIG

    miss_set: Set[int] = set()
    if profile is not None:
        miss_set = {line for line, _ in frequent_miss_lines(profile, config)}

    hierarchy = MemoryHierarchy(machine)
    stats = SimStats()
    cpi = 1.0 / machine.base_ipc
    lines_of = {block.block_id: block.lines for block in program}
    instr_counts = {block.block_id: block.instruction_count for block in program}
    inflight: Dict[int, float] = {}

    now = 0.0
    program_instructions = 0
    for index, block_id in enumerate(trace):
        if index == warmup and warmup > 0:
            stats.clear()
            hierarchy.l1i.stats.reset()
            program_instructions = 0
        stall = 0.0
        for line in lines_of[block_id]:
            stats.l1i_accesses += 1
            arrival = inflight.pop(line, None)
            if arrival is not None and arrival > now + stall:
                stall += arrival - (now + stall)
                stats.late_prefetch_hits += 1
                hierarchy.l1i.access(line)
                continue
            result = hierarchy.fetch(line)
            if result.was_l1_miss:
                stats.l1i_misses += 1
                stats.record_miss_level(result.level)
                completion = hierarchy.fill_port.request(
                    now + stall, result.level
                )
                stall = completion - now
                for offset in range(1, window + 1):
                    target = line + offset
                    if not contiguous and target not in miss_set:
                        continue
                    if hierarchy.l1i.contains(target) or target in inflight:
                        continue
                    level = hierarchy.residence_level(target)
                    hierarchy.prefetch_fill(target)
                    stats.prefetches_issued += 1
                    arrival = hierarchy.fill_port.request(now + stall, level)
                    if arrival > now + stall:
                        inflight[target] = arrival
        if stall:
            stats.frontend_stall_cycles += stall
            now += stall
        count = instr_counts[block_id]
        program_instructions += count
        now += count * cpi
        if data_traffic is not None:
            data_traffic.advance(count, hierarchy)

    stats.program_instructions = program_instructions
    stats.compute_cycles = program_instructions * cpi
    stats.prefetches_useful = hierarchy.l1i.stats.prefetch_hits
    return stats


def _full_vector(window: int) -> int:
    return (1 << window) - 1


def build_window_plan(
    program: Program,
    profile: ExecutionProfile,
    window: int = 8,
    contiguous: bool = True,
    config: Optional[ISpyConfig] = None,
) -> PrefetchPlan:
    """Build a Contiguous-n (``contiguous=True``) or Non-contiguous-n
    plan from the profile's miss set."""
    if window < 1:
        raise ValueError("window must be at least one line")
    config = config or DEFAULT_CONFIG
    selections = select_sites(
        profile,
        [line for line, _ in frequent_miss_lines(profile, config)],
        config,
    )
    miss_lines: Set[int] = set(selections)
    name = f"{'contiguous' if contiguous else 'non-contiguous'}-{window}"
    plan = PrefetchPlan(name=name)
    emitted: Set[int] = set()

    for line, selection in selections.items():
        if line in emitted:
            # Already covered as a member of an earlier window.
            continue
        if selection.chosen is None:
            continue
        if contiguous:
            vector = _full_vector(window)
            members = [line + offset for offset in range(window + 1)]
        else:
            vector = 0
            members = [line]
            for offset in range(1, window + 1):
                if line + offset in miss_lines:
                    vector |= 1 << (offset - 1)
                    members.append(line + offset)
        emitted.update(m for m in members if m in miss_lines)
        plan.add(
            PrefetchInstr(
                site_block=selection.chosen.block_id,
                base_line=line,
                bit_vector=vector,
                vector_bits=window,
                covers=tuple(m for m in members if m in miss_lines),
            )
        )
    return plan


def build_contiguous_plan(
    program: Program,
    profile: ExecutionProfile,
    window: int = 8,
    config: Optional[ISpyConfig] = None,
) -> PrefetchPlan:
    return build_window_plan(program, profile, window, True, config)


def build_noncontiguous_plan(
    program: Program,
    profile: ExecutionProfile,
    window: int = 8,
    config: Optional[ISpyConfig] = None,
) -> PrefetchPlan:
    return build_window_plan(program, profile, window, False, config)


class WindowPrefetcher(Prefetcher):
    """Contiguous-n / Non-contiguous-n through the zoo protocol.

    Training builds the injected-plan formulation
    (:func:`build_window_plan`, used by the coalescing tests and the
    footprint accounting); simulation runs the paper's miss-triggered
    run-time mechanism (:func:`simulate_window_prefetcher`), which is
    why ``supports_plan_replay`` is False — the two formulations are
    deliberately not the same experiment.

    ``sim_config`` filters which profiled lines count as the window's
    miss subset at run time; it defaults to the training ``config``
    (the registered ``noncontiguous8`` variant relaxes it to *all*
    profiled misses, the Fig. 5 formulation).
    """

    planner = "window"
    produces_plan = True
    supports_plan_replay = False
    supports_sharding = False
    supports_batch = False

    def __init__(
        self,
        window: int = 8,
        contiguous: bool = True,
        config: Optional[ISpyConfig] = None,
        sim_config: Optional[ISpyConfig] = None,
    ) -> None:
        self.window = window
        self.contiguous = contiguous
        self.config = config
        self.sim_config = sim_config if sim_config is not None else config
        prefix = "contiguous" if contiguous else "noncontiguous"
        self.name = f"{prefix}{window}"

    @property
    def cache_token(self) -> str:
        return f"window@{self.window}c{self.contiguous}"

    def train_result(self, view: ProfileView) -> PrefetchPlan:
        return build_window_plan(
            view.program,
            view.profile,
            window=self.window,
            contiguous=self.contiguous,
            config=self.config,
        )

    def plan_key_parts(self) -> Dict[str, object]:
        return {
            "planner": "window",
            "window": self.window,
            "contiguous": self.contiguous,
        }

    def simulate(
        self,
        view: ProfileView,
        trace: BlockTrace,
        ctx: Optional[ReplayContext] = None,
    ) -> SimStats:
        ctx = ctx or ReplayContext()
        self._reject_sharding(ctx)
        return simulate_window_prefetcher(
            view.program,
            trace,
            profile=view.profile,
            window=self.window,
            contiguous=self.contiguous,
            machine=ctx.machine,
            data_traffic=ctx.data_traffic,
            warmup=ctx.warmup,
            config=self.sim_config,
        )


def _noncontiguous8(**overrides: object) -> WindowPrefetcher:
    # the Fig. 5 study filters the window on *all* profiled misses,
    # not just the hot lines the planners target
    overrides.setdefault(
        "sim_config", replace(DEFAULT_CONFIG, min_miss_samples=1)
    )
    return WindowPrefetcher(window=8, contiguous=False, **overrides)


register_prefetcher("contiguous8", WindowPrefetcher)
register_prefetcher("noncontiguous8", _noncontiguous8)
