"""Prefetch injection-site selection (paper Sections II-B/C, IV).

For every frequently-missing cache line, choose the basic block to
inject a prefetch into.  A good site:

* executes inside the prefetch window before the miss — early enough
  to hide the fill latency, late enough not to be evicted (Fig. 18);
* *covers* the miss — it appears before most of the line's misses;
* ideally has low *fan-out* — most of its executions actually lead
  to the miss (otherwise I-SPY makes the prefetch conditional, and
  AsmDB refuses the site).

Candidates are scored from the profile and sorted (the paper notes
the selection is O(n log n)).  :func:`select_sites` runs that
selection for every miss line of a planner at once; :func:`select_site`
is the per-line form, and on the reference tier the oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import kernel
from ..cfg.fanout import (
    label_occurrences,
    path_fanout,
    sites_in_window,
    window_entries,
    window_probes,
)
from ..obs.trace import get_tracer
from ..profiling.profiler import ExecutionProfile
from .config import ISpyConfig

#: candidates scored per miss line
MAX_CANDIDATES = 12
#: executions of one site labelled per fan-out estimate (the
#: :func:`~repro.cfg.fanout.label_occurrences` subsample)
MAX_OCCURRENCES = 20000
#: blocks that identify a path out of a site (path fan-out)
PATH_LENGTH = 6
#: window-probe or site-execution entries one batched chunk holds at
#: most; lines are grouped into chunks under it, so the chunk arrays,
#: the bulk of the pass's memory, stay bounded as profiles grow
CHUNK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class CandidateSite:
    """A scored injection candidate for one miss line."""

    block_id: int
    coverage: float          # fraction of the line's misses it precedes
    fanout: float            # fraction of its executions not leading to the miss
    mean_distance: float     # average cycle distance to the miss

    @property
    def accuracy_estimate(self) -> float:
        """Expected fraction of useful prefetches if unconditional."""
        return 1.0 - self.fanout


@dataclass(frozen=True)
class SiteSelection:
    """Result of site selection for one miss line."""

    line: int
    miss_block: int
    sample_count: int
    chosen: Optional[CandidateSite]
    candidates: Tuple[CandidateSite, ...]


def rank_candidates(
    profile: ExecutionProfile,
    line: int,
    config: ISpyConfig,
    max_candidates: int = MAX_CANDIDATES,
    distance_estimator: str = "cycles",
) -> List[CandidateSite]:
    """Score the blocks that execute in the prefetch window before
    misses of *line*, best-coverage first.

    ``distance_estimator`` is "cycles" for I-SPY (exact LBR timing) or
    "ipc" for AsmDB (average-IPC estimation, Section IV).  This is the
    per-sample reference scan; the columnar tier ranks every line at
    once inside :func:`select_sites`.
    """
    samples = profile.samples_for_line(line)
    if not samples:
        return []
    appearance: Counter = Counter()
    distance_sum: Dict[int, float] = {}
    for sample in samples:
        for block, distance in sites_in_window(
            profile,
            sample.trace_index,
            config.min_prefetch_distance,
            config.max_prefetch_distance,
            estimator=distance_estimator,
        ):
            appearance[block] += 1
            distance_sum[block] = distance_sum.get(block, 0.0) + distance

    total = len(samples)
    candidates: List[CandidateSite] = []
    for block, count in appearance.most_common(max_candidates):
        labels = label_occurrences(
            profile, block, line, config.max_prefetch_distance
        )
        candidates.append(
            CandidateSite(
                block_id=block,
                coverage=count / total,
                fanout=labels.fanout,
                mean_distance=distance_sum[block] / count,
            )
        )
    # O(n log n): best coverage first, fan-out breaks ties.
    candidates.sort(key=lambda c: (-c.coverage, c.fanout))
    return candidates


def select_site(
    profile: ExecutionProfile,
    line: int,
    config: ISpyConfig,
    max_fanout: Optional[float] = None,
    fanout_mode: str = "execution",
    distance_estimator: str = "cycles",
) -> SiteSelection:
    """Choose the injection site for *line*.

    ``max_fanout`` implements the AsmDB-style threshold: candidates
    with higher fan-out are discarded entirely (the coverage/accuracy
    trade-off of Fig. 3).  I-SPY passes None — it takes the best
    coverage site at *any* fan-out and relies on conditional
    execution for accuracy.

    ``fanout_mode`` picks the estimator used against the threshold:
    ``"execution"`` weights by execution frequency; ``"path"`` counts
    distinct control-flow paths once each, the paper's literal
    definition and what a link-time analyzer sees.
    """
    _check_modes(fanout_mode, distance_estimator)
    if kernel.numpy_enabled():
        return select_sites(
            profile,
            [line],
            config,
            max_fanout=max_fanout,
            fanout_mode=fanout_mode,
            distance_estimator=distance_estimator,
        )[line]
    candidates = rank_candidates(
        profile, line, config, distance_estimator=distance_estimator
    )
    fanouts = [c.fanout for c in candidates]
    if max_fanout is not None and fanout_mode == "path":
        fanouts = [
            path_fanout(
                profile,
                c.block_id,
                line,
                config.max_prefetch_distance,
                path_length=PATH_LENGTH,
                max_occurrences=MAX_OCCURRENCES,
            )
            for c in candidates
        ]
    return _selection(
        line, profile.samples_for_line(line), candidates, fanouts, max_fanout
    )


def _check_modes(fanout_mode: str, distance_estimator: str) -> None:
    if fanout_mode not in ("execution", "path"):
        raise ValueError("fanout_mode must be 'execution' or 'path'")
    if distance_estimator not in ("cycles", "ipc"):
        raise ValueError("estimator must be 'cycles' or 'ipc'")


def _selection(
    line: int,
    samples,
    candidates: List[CandidateSite],
    fanouts: Sequence[float],
    max_fanout: Optional[float],
) -> SiteSelection:
    """Pick among ranked *candidates*; *fanouts* are the estimates the
    ``max_fanout`` threshold is applied to, one per candidate."""
    eligible = candidates
    if max_fanout is not None:
        eligible = [
            c for c, fanout in zip(candidates, fanouts) if fanout <= max_fanout
        ]
    chosen: Optional[CandidateSite] = None
    if eligible:
        # Among near-best-coverage candidates, prefer the *earliest*
        # site (largest cycle distance): a farther site hides more of
        # an L3/memory fill, and the window's max bound already caps
        # how early it can be (Section II-B timeliness).
        best_coverage = eligible[0].coverage
        near_best = [c for c in eligible if c.coverage >= 0.9 * best_coverage]
        chosen = max(near_best, key=lambda c: c.mean_distance)
    return SiteSelection(
        line=line,
        miss_block=samples[0].block_id if samples else -1,
        sample_count=len(samples),
        chosen=chosen,
        candidates=tuple(candidates),
    )


def select_sites(
    profile: ExecutionProfile,
    lines: Iterable[int],
    config: ISpyConfig,
    *,
    max_fanout: Optional[float] = None,
    fanout_mode: str = "execution",
    distance_estimator: str = "cycles",
) -> Dict[int, SiteSelection]:
    """:func:`select_site` for every line in *lines*, as one array pass.

    Returns ``{line: selection}`` in the order of *lines*, each
    selection equal to the per-line reference.  On the columnar tier
    the selections are memoized per line on the profile's
    :class:`~repro.profiling.profiler.ProfileArrays`, keyed by every
    input selection reads (window bounds, estimator, fan-out threshold
    and mode), so planners and sweep points that ask again share one
    pass.  ``min_miss_samples`` only decides which lines a planner asks
    for, so it is no part of the key.  ``SiteSelection`` is frozen, so
    sharing is safe.
    """
    _check_modes(fanout_mode, distance_estimator)
    lines = list(dict.fromkeys(lines))
    tracer = get_tracer()
    with tracer.span("analysis:site-selection", lines=len(lines)) as span:
        if not kernel.numpy_enabled():
            span.set(chunks=0, memo_hit=False)
            return {
                line: select_site(
                    profile,
                    line,
                    config,
                    max_fanout=max_fanout,
                    fanout_mode=fanout_mode,
                    distance_estimator=distance_estimator,
                )
                for line in lines
            }
        key = (
            config.min_prefetch_distance,
            config.max_prefetch_distance,
            distance_estimator,
            max_fanout,
            fanout_mode,
        )
        memo = profile.arrays().selection_memo.setdefault(key, {})
        missing = [line for line in lines if line not in memo]
        chunks = 0
        if missing:
            chunks = _select_columnar(
                profile,
                missing,
                config,
                max_fanout,
                max_fanout is not None and fanout_mode == "path",
                distance_estimator,
                memo,
            )
        span.set(chunks=chunks, memo_hit=not missing)
        return {line: memo[line] for line in lines}


def _select_columnar(
    profile: ExecutionProfile,
    lines: List[int],
    config: ISpyConfig,
    max_fanout: Optional[float],
    paths: bool,
    distance_estimator: str,
    memo: Dict[int, SiteSelection],
) -> int:
    """Select sites for *lines* into *memo*; returns the chunk count.

    Lines go in chunks whose window probes stay under
    :data:`CHUNK_ENTRIES`; each chunk is ranked in one pass and its
    candidates' fan-outs are labelled in sub-chunks under the same
    budget, so the chunk arrays stay bounded as profiles grow.
    """
    import numpy as np

    arrays = profile.arrays()
    samples = [arrays.line_samples(line) for line in lines]
    miss_idx = np.concatenate([indices for indices, _ in samples])
    starts = window_probes(
        profile, miss_idx, config.max_prefetch_distance, distance_estimator
    )[3]
    counts = [len(indices) for indices, _ in samples]
    bounds = _chunk_bounds(
        np.bincount(
            np.repeat(np.arange(len(lines)), counts),
            weights=miss_idx - starts,
            minlength=len(lines),
        )
    )
    chunks = 0
    for start, stop in zip(bounds[:-1], bounds[1:]):
        chunks += _select_chunk(
            profile,
            lines[start:stop],
            samples[start:stop],
            config,
            max_fanout,
            paths,
            distance_estimator,
            memo,
        )
    return chunks


def _select_chunk(
    profile: ExecutionProfile,
    lines: List[int],
    samples,
    config: ISpyConfig,
    max_fanout: Optional[float],
    paths: bool,
    distance_estimator: str,
    memo: Dict[int, SiteSelection],
) -> int:
    """Rank and choose for one chunk of lines; returns its fan-out
    sub-chunk count.

    Ranking: one :func:`window_entries` pass over every sampled miss
    of every line, ``unique`` over ``(line, block)`` keys, and one
    ``lexsort`` by ``(line, -count, first_seen)`` — the order of
    ``Counter.most_common``.  ``bincount`` sums the distances in entry
    order, the reference's dict accumulation order, so
    ``mean_distance`` is bit-identical.

    Fan-out: every candidate's (subsampled) executions are labelled
    against its line by one ``searchsorted`` of ``line*n + execution``
    keys into the ``line*n + miss_index`` keys; path fan-out counts
    distinct :meth:`~repro.profiling.profiler.ProfileArrays.path_ids`
    per (line, candidate) pair.
    """
    import numpy as np

    arrays = profile.arrays()
    n = len(arrays.block_ids)
    counts = np.array([len(indices) for indices, _ in samples], dtype=np.int64)
    miss_idx = np.concatenate([indices for indices, _ in samples])
    miss_cycles = np.concatenate([cycles for _, cycles in samples])
    sample_line = np.repeat(np.arange(len(lines), dtype=np.int64), counts)
    blocks, distances, ordinals = window_entries(
        profile,
        miss_idx,
        config.min_prefetch_distance,
        config.max_prefetch_distance,
        estimator=distance_estimator,
    )

    # Rank: the top MAX_CANDIDATES (line, block) keys of every line.
    span = int(blocks.max()) + 1 if len(blocks) else 1
    keys, first_seen, inverse, key_counts = np.unique(
        sample_line[ordinals] * span + blocks,
        return_index=True,
        return_inverse=True,
        return_counts=True,
    )
    distance_sums = np.bincount(
        inverse.reshape(-1), weights=distances, minlength=len(keys)
    )
    key_lines = keys // span
    order = np.lexsort((first_seen, -key_counts, key_lines))
    ranked_lines = key_lines[order]
    rank = np.arange(len(order)) - np.searchsorted(ranked_lines, ranked_lines)
    top = order[rank < MAX_CANDIDATES]
    pair_line = key_lines[top]
    pair_block = keys[top] % span

    # Fan-out: label each pair's (subsampled) site executions.
    rows = np.searchsorted(arrays.occurrence_ids, pair_block)
    executions = arrays.occurrence_counts[rows]
    taken = np.minimum(executions, MAX_OCCURRENCES)
    miss_keys = sample_line * n + miss_idx
    line_ends = np.cumsum(counts)
    if paths:
        path_ids, path_count = arrays.path_ids(PATH_LENGTH)
    positives = np.zeros(len(top), dtype=np.int64)
    path_all = np.ones(len(top), dtype=np.int64)
    path_hit = np.zeros(len(top), dtype=np.int64)
    line_entries = np.bincount(pair_line, weights=taken, minlength=len(lines))
    pair_bounds = np.searchsorted(pair_line, _chunk_bounds(line_entries))
    for start, stop in zip(pair_bounds[:-1], pair_bounds[1:]):
        width = taken[start:stop]
        pair = np.repeat(np.arange(stop - start), width)
        offsets = np.zeros(len(width), dtype=np.int64)
        np.cumsum(width[:-1], out=offsets[1:])
        local = np.arange(len(pair), dtype=np.int64) - offsets[pair]
        # The reference subsample: ``int(i * (len / max))``.
        step = executions[start:stop] / MAX_OCCURRENCES
        local = np.where(
            (executions[start:stop] > MAX_OCCURRENCES)[pair],
            (local * step[pair]).astype(np.int64),
            local,
        )
        at = arrays.occurrence_order[
            arrays.occurrence_starts[rows[start:stop]][pair] + local
        ]
        owner = pair_line[start:stop][pair]
        position = np.searchsorted(miss_keys, owner * n + at, side="right")
        gaps = (
            miss_cycles[np.minimum(position, len(miss_keys) - 1)]
            - arrays.block_cycles[at]
        )
        label = (position < line_ends[owner]) & (
            gaps <= config.max_prefetch_distance
        )
        positives[start:stop] = np.bincount(
            pair[label], minlength=stop - start
        )
        if paths:
            path_keys = pair * path_count + path_ids[at]
            path_all[start:stop] = np.bincount(
                np.unique(path_keys) // path_count, minlength=stop - start
            )
            path_hit[start:stop] = np.bincount(
                np.unique(path_keys[label]) // path_count,
                minlength=stop - start,
            )
    fanouts = 1.0 - positives / taken
    # the estimate the max_fanout threshold is applied to
    thresholds = 1.0 - path_hit / path_all if paths else fanouts

    # Per line: sort, threshold, pick.
    pair_starts = np.searchsorted(pair_line, np.arange(len(lines) + 1))
    columns = list(
        zip(
            pair_block.tolist(),
            key_counts[top].tolist(),
            fanouts.tolist(),
            distance_sums[top].tolist(),
            thresholds.tolist(),
        )
    )
    for index, line in enumerate(lines):
        total = int(counts[index])
        ranked = sorted(
            (
                (
                    CandidateSite(
                        block, count / total, fanout, distance / count
                    ),
                    threshold,
                )
                for block, count, fanout, distance, threshold in columns[
                    pair_starts[index] : pair_starts[index + 1]
                ]
            ),
            key=lambda item: (-item[0].coverage, item[0].fanout),
        )
        memo[line] = _selection(
            line,
            profile.samples_for_line(line),
            [candidate for candidate, _ in ranked],
            [threshold for _, threshold in ranked],
            max_fanout,
        )
    return len(pair_bounds) - 1


def _chunk_bounds(weights) -> List[int]:
    """Greedy boundaries splitting consecutive items into runs whose
    summed *weights* stay under :data:`CHUNK_ENTRIES` (an item heavier
    than the budget runs alone)."""
    bounds = [0]
    filled = 0.0
    for index, weight in enumerate(weights.tolist()):
        if filled and filled + weight > CHUNK_ENTRIES:
            bounds.append(index)
            filled = 0.0
        filled += weight
    bounds.append(len(weights))
    return bounds


def frequent_miss_lines(
    profile: ExecutionProfile, config: ISpyConfig
) -> List[Tuple[int, int]]:
    """(line, sample_count) pairs above the noise floor, heaviest first."""
    counts = profile.miss_counts_by_line()
    heavy = [
        (line, count)
        for line, count in counts.items()
        if count >= config.min_miss_samples
    ]
    heavy.sort(key=lambda item: -item[1])
    return heavy
