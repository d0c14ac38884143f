"""Fan-out analysis of candidate injection sites (paper Section II-C).

The paper defines *fan-out* of an injection site as the percentage of
paths from the site that do **not** lead to the target miss.  On a
dynamic profile, the natural estimator is over executions: the
fraction of the site's executions that were not followed by a sampled
miss of the target line within the prefetch window.

:func:`label_occurrences` produces the per-execution lead-to-miss
labels that both fan-out estimation and context discovery
(:mod:`repro.core.context`) consume.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .. import kernel
from ..profiling.profiler import ExecutionProfile


@dataclass(frozen=True)
class OccurrenceLabels:
    """Executions of one site, labelled against one miss line."""

    site: int
    line: int
    indices: Tuple[int, ...]      # trace indices of site executions
    leads_to_miss: Tuple[bool, ...]

    @property
    def positives(self) -> int:
        return sum(self.leads_to_miss)

    @property
    def total(self) -> int:
        return len(self.indices)

    @property
    def miss_probability(self) -> float:
        """P(miss | site executed) — the site's base rate."""
        return self.positives / self.total if self.total else 0.0

    @property
    def fanout(self) -> float:
        """Fraction of executions NOT leading to the miss."""
        return 1.0 - self.miss_probability


def label_occurrences(
    profile: ExecutionProfile,
    site: int,
    line: int,
    max_cycles: float,
    max_occurrences: int = 20000,
) -> OccurrenceLabels:
    """Label each execution of *site*: did a miss of *line* follow
    within *max_cycles*?"""
    if kernel.numpy_enabled():
        return _label_occurrences_columnar(
            profile, site, line, max_cycles, max_occurrences
        )
    return _label_occurrences_reference(
        profile, site, line, max_cycles, max_occurrences
    )


def _label_occurrences_reference(
    profile: ExecutionProfile,
    site: int,
    line: int,
    max_cycles: float,
    max_occurrences: int,
) -> OccurrenceLabels:
    """Bisect over the (sorted) site occurrences and miss samples."""
    occurrences = profile.occurrences(site)
    if len(occurrences) > max_occurrences:
        step = len(occurrences) / max_occurrences
        occurrences = [
            occurrences[int(i * step)] for i in range(max_occurrences)
        ]
    samples = profile.samples_for_line(line)
    miss_indices = [s.trace_index for s in samples]
    cycles = profile.block_cycles

    labels: List[bool] = []
    for index in occurrences:
        position = bisect.bisect_right(miss_indices, index)
        if position >= len(samples):
            labels.append(False)
            continue
        labels.append(samples[position].cycle - cycles[index] <= max_cycles)
    return OccurrenceLabels(
        site=site,
        line=line,
        indices=tuple(occurrences),
        leads_to_miss=tuple(labels),
    )


def _label_occurrences_columnar(
    profile: ExecutionProfile,
    site: int,
    line: int,
    max_cycles: float,
    max_occurrences: int,
) -> OccurrenceLabels:
    """Array form: one batched ``searchsorted`` replaces the bisects.

    ``searchsorted(..., side="right")`` is ``bisect_right``; the
    subsample index ``(i * step)`` truncates identically under
    ``astype(int64)`` and Python ``int()``, so indices and labels match
    the reference exactly.
    """
    import numpy as np

    arrays = profile.arrays()
    occurrences = arrays.occurrences_of(site)
    if len(occurrences) > max_occurrences:
        step = len(occurrences) / max_occurrences
        pick = (np.arange(max_occurrences, dtype=np.float64) * step).astype(
            np.int64
        )
        occurrences = occurrences[pick]
    miss_indices, miss_cycles = arrays.line_samples(line)

    n_misses = len(miss_indices)
    if n_misses:
        positions = np.searchsorted(miss_indices, occurrences, side="right")
        clipped = np.minimum(positions, n_misses - 1)
        # The gap is garbage where no later miss exists; the in-range
        # mask zeroes those labels, exactly the reference's early False.
        gaps = miss_cycles[clipped] - arrays.block_cycles[occurrences]
        labels = (positions < n_misses) & (gaps <= max_cycles)
    else:
        labels = np.zeros(len(occurrences), dtype=bool)
    return OccurrenceLabels(
        site=site,
        line=line,
        indices=tuple(occurrences.tolist()),
        leads_to_miss=tuple(labels.tolist()),
    )


def dynamic_fanout(
    profile: ExecutionProfile,
    site: int,
    line: int,
    max_cycles: float,
) -> float:
    """The site's fan-out with respect to misses of *line*."""
    return label_occurrences(profile, site, line, max_cycles).fanout


def path_fanout(
    profile: ExecutionProfile,
    site: int,
    line: int,
    max_cycles: float,
    path_length: int = 6,
    max_occurrences: int = 20000,
) -> float:
    """Static-analysis-style fan-out: the fraction of distinct *paths*
    out of the site that do not lead to the miss.

    This is the paper's literal definition (Section II-C: "the
    percentage of paths that do not lead to a target miss from a given
    injection site") — each distinct control-flow path counts once,
    regardless of how often it executes.  It is what a link-time
    analyzer like AsmDB computes, and it is far harsher on
    heavily-branching sites than the execution-weighted estimate: a
    dispatcher with hundreds of observed paths of which three reach
    the miss has ~99% path fan-out even if those three paths are hot.

    Paths are identified by their next ``path_length`` blocks.
    """
    labels = label_occurrences(
        profile, site, line, max_cycles, max_occurrences=max_occurrences
    )
    if not labels.total:
        return 1.0
    blocks = profile.block_ids
    paths_to_miss = set()
    all_paths = set()
    for index, positive in zip(labels.indices, labels.leads_to_miss):
        signature = tuple(blocks[index + 1 : index + 1 + path_length])
        all_paths.add(signature)
        if positive:
            paths_to_miss.add(signature)
    if not all_paths:
        return 1.0
    return 1.0 - len(paths_to_miss) / len(all_paths)


def sites_in_window(
    profile: ExecutionProfile,
    miss_index: int,
    min_cycles: float,
    max_cycles: float,
    estimator: str = "cycles",
) -> List[Tuple[int, float]]:
    """Blocks executed within the prefetch window before a miss.

    Returns (block_id, cycle_distance) pairs, nearest first, where
    ``min_cycles <= distance <= max_cycles`` — the paper's timeliness
    constraint (Section II-B).

    ``estimator`` selects how the cycle distance is measured:

    * ``"cycles"`` — exact per-block cycle timestamps from the LBR
      profile (I-SPY's approach, Section IV);
    * ``"ipc"`` — instruction counts scaled by the application's
      average CPI (AsmDB's approach).  Mis-estimates the window
      wherever local IPC diverges from the average — precisely the
      imprecision the paper calls out.
    """
    if estimator not in ("cycles", "ipc"):
        raise ValueError("estimator must be 'cycles' or 'ipc'")
    blocks = profile.block_ids
    if estimator == "cycles":
        cycles = profile.block_cycles
        miss_position = cycles[miss_index]

        def distance_to(index: int) -> float:
            return miss_position - cycles[index]

    else:
        cumulative = profile.cumulative_instructions
        average_cpi = profile.average_cpi
        miss_instr = cumulative[miss_index]

        def distance_to(index: int) -> float:
            return (miss_instr - cumulative[index]) * average_cpi

    results: List[Tuple[int, float]] = []
    seen = set()
    index = miss_index - 1
    while index >= 0:
        distance = distance_to(index)
        if distance > max_cycles:
            break
        if distance >= min_cycles:
            block = blocks[index]
            if block not in seen:
                seen.add(block)
                results.append((block, distance))
        index -= 1
    return results


def window_entries(
    profile: ExecutionProfile,
    miss_indices: Sequence[int],
    min_cycles: float,
    max_cycles: float,
    estimator: str = "cycles",
):
    """Batched :func:`sites_in_window` over many misses.

    Returns ``(blocks, distances, ordinals)`` arrays holding the
    concatenation of ``sites_in_window(profile, i, ...)`` for each *i*
    in *miss_indices*, in that order, nearest-first within each window
    — entry-for-entry the sequence the per-miss calls would produce —
    plus, per entry, the position in *miss_indices* of the miss whose
    window it came from.  One numpy pass replaces
    ``len(miss_indices)`` window scans, which is what makes candidate
    ranking amortize its array overhead.

    Per window the reference scans backward and stops at the first
    occurrence whose distance exceeds ``max_cycles``; the window is
    therefore exactly the elements *after the last* too-far occurrence.
    A ``searchsorted`` lower bound (padded by a slack that dwarfs
    float rounding) limits each window's probe region, and the exact
    per-element distance comparisons are evaluated inside it, so every
    accept/reject decision uses the identical IEEE operation.
    """
    import numpy as np

    empty = (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
        np.empty(0, dtype=np.int64),
    )
    if not len(miss_indices):
        return empty
    arrays = profile.arrays()
    miss_idx = np.asarray(miss_indices, dtype=np.int64)
    values, scale, positions, starts = window_probes(
        profile, miss_idx, max_cycles, estimator
    )
    lengths = miss_idx - starts
    ordinals = np.flatnonzero(lengths > 0)
    starts = starts[ordinals]
    lengths = lengths[ordinals]
    positions = positions[ordinals]
    if not len(starts):
        return empty
    total = int(lengths.sum())

    # Flatten every probe region into one index vector.
    seg_starts = np.zeros(len(starts), dtype=np.int64)
    np.cumsum(lengths[:-1], out=seg_starts[1:])
    flat_local = np.arange(total, dtype=np.int64) - np.repeat(
        seg_starts, lengths
    )
    flat_idx = np.repeat(starts, lengths) + flat_local
    if scale is None:
        distances = np.repeat(positions, lengths) - values[flat_idx]
    else:
        distances = (np.repeat(positions, lengths) - values[flat_idx]) * scale

    # Window = strictly after the last too-far occurrence (everything
    # before the probe region is too far by the slack construction).
    beyond = distances > max_cycles
    marker = np.where(beyond, flat_local, np.int64(-1))
    last_beyond = np.maximum.reduceat(marker, seg_starts)
    keep = (flat_local > np.repeat(last_beyond, lengths)) & (
        distances >= min_cycles
    )
    kept = np.flatnonzero(keep)
    if not len(kept):
        return empty

    segment = np.repeat(
        np.arange(len(starts), dtype=np.int64), lengths
    )[kept]
    blocks = arrays.block_ids[flat_idx[kept]]
    distances = distances[kept]
    trace_pos = flat_idx[kept]

    # First-seen dedup, nearest-first: keep each (window, block)'s
    # highest trace position.  ``unique`` returns first occurrences, so
    # run it over the reversed key stream to pick the last.
    span = int(blocks.max()) + 1
    keys = segment * span + blocks
    _, first_rev = np.unique(keys[::-1], return_index=True)
    selected = len(keys) - 1 - first_rev
    order = np.lexsort((-trace_pos[selected], segment[selected]))
    selected = selected[order]
    return blocks[selected], distances[selected], ordinals[segment[selected]]


def window_probes(profile, miss_idx, max_cycles: float, estimator: str):
    """``(values, scale, positions, starts)``: the per-position distance
    basis of *estimator*, the misses' positions on it, and where each
    miss's probe region starts — a ``searchsorted`` lower bound padded
    by a slack that dwarfs float rounding.  ``miss - start`` bounds the
    entries :func:`window_entries` yields for a miss."""
    import numpy as np

    arrays = profile.arrays()
    if estimator == "cycles":
        values = arrays.block_cycles
        scale = None
        positions = values[miss_idx]
        threshold = positions - (max_cycles + 1.0)
    elif estimator == "ipc":
        values = arrays.cumulative_instructions
        scale = profile.average_cpi
        positions = values[miss_idx]
        threshold = positions - ((max_cycles + 1.0) / scale + 2.0)
    else:
        raise ValueError("estimator must be 'cycles' or 'ipc'")
    starts = np.searchsorted(values, threshold, side="left")
    return values, scale, positions, starts
