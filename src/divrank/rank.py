"""Sorting machinery for weighted top-n assignment with tie groups.

All maximizers of sum_j w[j] * z[sigma(j)] over injective slot assignments
share one structure: sort z descending; each tie group occupies a contiguous
slot block, its members interchangeable within the block, and the group
straddling the rank-n cut contributes any subset of the right size. The
helpers here expose that structure and the diversity extremes over it from
the top of z only; when none of the n + 1 largest scores ties, the top n is
the unique optimum and unconstrained_extremes builds no tie groups.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np


# The result records of this module and dual.DualEvaluation are NamedTuples,
# immutable like the frozen dataclasses elsewhere: one of each is built per
# dual evaluation, and a frozen dataclass's __init__ takes about twice as long.
class SortedScores(NamedTuple):
    """The largest scores sorted non-increasing, through the tie group
    holding rank n, with tie groups as ranges over `order`.

    order: local indices, score-descending, exact ties by ascending index.
    values: z[order].
    starts/ends: half-open tie-group ranges [starts[g], ends[g]) into order.
      Two adjacent sorted scores share a group when they differ by <= tau
      (single-linkage chaining).

    order and values are a prefix of the full sort, and every group in it
    is exactly what the full sort gives; the last one holds rank n. So
    order is the top-n candidate set with its boundary ties, and the last
    group straddles the cut when it ends past n. It sorts the scores at or
    above the n-th (unconstrained_extremes) or a sampled threshold
    (sort_scores) when the chain holding rank n ends there, else all of z.
    """

    order: np.ndarray
    values: np.ndarray
    starts: np.ndarray
    ends: np.ndarray

    @property
    def unique(self) -> bool:
        """Every group meeting the top n is a single candidate, so the
        optimal assignment is unique and its diversity min equals max."""
        return self.order.shape[0] == self.starts.shape[0]


# Selection aims its block at target = 2(n + SELECT_SLACK) scores.
SELECT_SLACK = 32
# The threshold is the SAMPLE_RANK-th largest of every step-th score, with
# step = target // SAMPLE_RANK, so about target scores lie at or above it.
SAMPLE_RANK = 4
# unconstrained_extremes partitions up to this many scores; above it one call
# in three tying makes sort_scores' sampled block faster on average.
PARTITION_CAP = 2048


def _grouped(z: np.ndarray, order: np.ndarray, tau: float, n: int,
             partial: bool) -> SortedScores | None:
    """Tie groups over z[order], cut after the group holding rank n; a
    partial order (the top block of a selection) yields None when that
    group's chain reaches the block's edge."""
    values = z[order]
    size = values.shape[0]
    # edge[i]: a group starts at i (i < size) or ends at i (i > 0).
    edge = np.empty(size + 1, dtype=bool)
    edge[0] = edge[size] = True
    np.greater(values[:-1] - values[1:], tau, out=edge[1:size])
    bounds = edge.nonzero()[0]
    g = int(bounds.searchsorted(n))  # bounds[g]: end of the group holding rank n
    end = int(bounds[g])
    if end == size and partial:
        return None
    return SortedScores(order[:end], values[:end], bounds[:g], bounds[1:g + 1])


def _sampled_threshold(pool: np.ndarray, target: int) -> float:
    """A score with about `target` scores of pool at or above it, read off a
    strided sample; the smallest score when pool holds at most target."""
    if pool.shape[0] <= target:
        return pool.min()
    sample = pool[::target // SAMPLE_RANK].copy()
    sample.partition(sample.shape[0] - SAMPLE_RANK)
    return sample[-SAMPLE_RANK]


def sort_scores(z: np.ndarray, tau: float, n: int) -> SortedScores:
    """The top of z, sorted descending and split into tie groups at gap >
    tau, through the group holding rank n; n must lie in 1..len(z).

    Only the block of scores at or above a threshold read off a strided
    sample (O(m)) is sorted, so no exact tie group is cut at its edge; see
    SortedScores. A block that comes out large is searched again above the
    threshold if that still holds rank n; otherwise rank n ties the
    threshold and the whole block belongs to the answer. A block missing
    rank n, or whose tau > 0 chain at rank n reaches its edge, falls back
    to sorting all of z.
    """
    z = np.asarray(z, dtype=np.float64)
    tau = float(tau)
    m = z.shape[0]
    if not 1 <= n <= m:
        raise ValueError(f"n={n} out of range for {m} scores")
    target = 2 * (n + SELECT_SLACK)
    pool = z  # sampled from; narrowed past a threshold that let in too many
    while target < m:
        t = _sampled_threshold(pool, target)
        block = (z >= t).nonzero()[0]
        if block.shape[0] > 2 * target:
            above = block[z[block] > t]
            if above.shape[0] >= n:
                pool = z[above]  # strictly smaller: t itself is gone
                continue
        if block.shape[0] >= n:
            # Ascending indices: the stable sort breaks ties by index. At
            # tau = 0 no chain runs past the block: the rest lie below it.
            ss = _grouped(z, block[(-z[block]).argsort(kind="stable")], tau,
                          n, tau > 0.0 and block.shape[0] < m)
            if ss is not None:
                return ss
        break
    return _grouped(z, (-z).argsort(kind="stable"), tau, n, False)


def extremal_diversity(ss: SortedScores, largest: bool, a: np.ndarray,
                       w: np.ndarray) -> tuple[float, np.ndarray]:
    """Extreme of sum_j w[j] * a[slot j] over all optimal assignments: the
    largest when `largest`, else the smallest. ss is a SortedScores for
    n = len(w), so its last group holds rank n.

    Per tie group the slot block's weights are fixed, so the extreme places
    high-a members on heavy slots (max) or low-a members there (min): one
    stable sort by group, then by -a or a, cut at n, which also picks the
    members of a last group straddling the cut that receive its slots
    before n. Returns (value, slots) with slots in local indices.
    """
    n = w.shape[0]
    slots = ss.order[:n]
    if not ss.unique:
        group = ss.starts.searchsorted(np.arange(ss.order.shape[0]), "right")
        av = a[ss.order]
        slots = ss.order[np.lexsort((-av if largest else av, group))[:n]]
    return float(w.dot(a[slots])), slots


class UnconstrainedResult(NamedTuple):
    """slots_min/slots_max: candidate per slot of the tied optima with the
    smallest and the largest diversity."""

    value: float
    min_div: float
    max_div: float
    slots_min: np.ndarray
    slots_max: np.ndarray


def unconstrained_extremes(c: np.ndarray, a: np.ndarray, w: np.ndarray,
                           tau: float = 0.0) -> UnconstrainedResult:
    """Best weighted relevance ignoring the diversity bound, plus the
    diversity range among the tied optima (scores within tau tie).

    Up to PARTITION_CAP scores (never NaN) the n + 1 largest come from one
    argpartition, or from the stable sort where sort_scores sorts all of c;
    with every gap among them above tau, that top n is the answer. Ties are
    grouped over that sort, or over the scores at or above the n-th when the
    cut is clean or tau = 0; other ties and larger sets go to sort_scores.
    """
    n, m = w.shape[0], c.shape[0]
    ss = None
    if n < m <= PARTITION_CAP:
        if m <= 2 * (n + SELECT_SLACK):
            top = (-c).argsort(kind="stable")
        else:
            top = c.argpartition(m - n - 1)[m - n - 1:]
            top = top[(-c[top]).argsort()]  # used as is only if nothing ties
        values = c[top[:n + 1]]
        gaps = values[:-1] - values[1:] > tau
        if np.count_nonzero(gaps) == n:
            s, div = top[:n], float(w.dot(a[top[:n]]))
            return UnconstrainedResult(float(w.dot(values[:n])), div, div, s, s)
        if top.shape[0] == m:  # the full stable sort
            ss = _grouped(c, top, tau, n, False)
        elif gaps[-1] or tau == 0.0:
            block = (c >= values[n - 1]).nonzero()[0]
            ss = _grouped(c, block[(-c[block]).argsort(kind="stable")], tau,
                          n, False)
    if ss is None:
        ss = sort_scores(c, tau, n)
    value = float(w.dot(ss.values[:n]))
    min_div, slots_min = extremal_diversity(ss, False, a, w)
    max_div, slots_max = ((min_div, slots_min) if ss.unique else
                          extremal_diversity(ss, True, a, w))
    return UnconstrainedResult(value, min_div, max_div, slots_min, slots_max)
