"""Sorting machinery for weighted top-n assignment with tie groups.

All maximizers of sum_j w[j] * z[sigma(j)] over injective slot assignments
share one structure: sort z descending; each tie group occupies a contiguous
slot block, its members interchangeable within the block, and the group
straddling the rank-n cut contributes any subset of the right size. The
helpers here expose that structure and the diversity extremes over it.
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
    group straddles the cut when it ends past n. The prefix comes from
    sorting only the scores at or above a threshold, widened until the
    chain holding rank n ends inside it.
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


# Selection aims its block at 2k scores, k = n + SELECT_SLACK, and grows k by
# SELECT_GROWTH while the tie chain holding rank n reaches the block's edge.
SELECT_SLACK = 32
SELECT_GROWTH = 4
# The threshold is the SAMPLE_RANK-th largest of every step-th score, with
# step = 2k // SAMPLE_RANK, so about 2k scores lie at or above it.
SAMPLE_RANK = 4


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

    Only a block of the largest scores a little past rank n is sorted; see
    SortedScores for what that returns. The block is every score at or
    above a threshold read off a strided sample (O(m)), so nothing outside
    it ties a member, and an exact tie group is never cut at its edge.
    When the sample misjudges the layout and the block comes out large,
    the scores strictly above the threshold are searched again if they
    still hold rank n; otherwise rank n ties the threshold and the whole
    block belongs to the answer.
    """
    z = np.asarray(z, dtype=np.float64)
    tau = float(tau)
    m = z.shape[0]
    if not 1 <= n <= m:
        raise ValueError(f"n={n} out of range for {m} scores")
    k = n + SELECT_SLACK
    # The sample's source: every score, or only those above a threshold
    # that let in too many.
    pool = z
    while 2 * k < m:
        t = _sampled_threshold(pool, 2 * k)
        block = (z >= t).nonzero()[0]
        if block.shape[0] > SELECT_GROWTH * k:
            above = block[z[block] > t]
            if above.shape[0] >= n:
                pool = z[above]  # strictly smaller: t itself is gone
                continue
        elif block.shape[0] < n:
            k *= SELECT_GROWTH
            continue
        # Ascending indices, so the stable sort breaks ties by index. Scores
        # outside lie strictly below the block, so at tau = 0 no tie chain
        # runs past its edge.
        ss = _grouped(z, block[(-z[block]).argsort(kind="stable")], tau, n,
                      tau > 0.0 and block.shape[0] < m)
        if ss is not None:
            return ss
        k *= SELECT_GROWTH
        pool = z
    return _grouped(z, (-z).argsort(kind="stable"), tau, n, False)


def extremal_diversity(ss: SortedScores, largest: bool, a: np.ndarray,
                       w: np.ndarray) -> tuple[float, np.ndarray]:
    """Extreme of sum_j w[j] * a[slot j] over all optimal assignments: the
    largest when `largest`, else the smallest. ss comes from sort_scores
    with n = len(w), so its last group holds rank n.

    Per tie group the slot block's weights are fixed, so the extreme places
    high-a members on heavy slots (max) or low-a members there (min): one
    stable sort by group, then by -a or a, cut at n, which also picks the
    members of a last group straddling the cut that receive its slots
    before n. Returns (value, slots) with slots in local indices.
    """
    n = w.shape[0]
    slots = ss.order[:n]
    if not ss.unique:
        group = np.repeat(np.arange(ss.starts.shape[0]), ss.ends - ss.starts)
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
    diversity range among the tied optima (scores within tau tie)."""
    n = w.shape[0]
    ss = sort_scores(c, tau, n)
    value = float(w.dot(ss.values[:n]))
    min_div, slots_min = extremal_diversity(ss, False, a, w)
    max_div, slots_max = ((min_div, slots_min) if ss.unique else
                          extremal_diversity(ss, True, a, w))
    return UnconstrainedResult(value, min_div, max_div, slots_min, slots_max)
