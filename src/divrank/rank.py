"""Sorting machinery for weighted top-n assignment with tie groups.

All maximizers of sum_j w[j] * z[sigma(j)] over injective slot assignments
share one structure: sort z descending; each tie group occupies a contiguous
slot block, its members interchangeable within the block, and the group
straddling the rank-n cut contributes any subset of the right size. The
helpers here expose that structure and the diversity extremes over it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Instance

MIN_DIVERSITY = "min"
MAX_DIVERSITY = "max"


@dataclass(frozen=True)
class SortedScores:
    """Scores sorted non-increasing, with tie groups as ranges over `order`.

    order: local indices, score-descending, exact ties by ascending index.
    values: z[order].
    starts/ends: half-open tie-group ranges [starts[g], ends[g]) into order.
      Two adjacent sorted scores share a group when they differ by <= tau
      (single-linkage chaining).
    boundary_group: group straddling the rank-n cut when n was supplied and
      the cut splits a group, else None.
    """

    order: np.ndarray
    values: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    tau: float
    boundary_group: int | None = None


@dataclass(frozen=True)
class TopSet:
    """Top-n membership with boundary ties.

    certain: members of groups fully above the rank-n cut.
    tied: members of the straddling group (empty when the cut is clean).
    slots_in_tied: how many of the tied members receive slots.
    top_end: offset into the sorted order such that order[:top_end] is the
      full top-n candidate set including boundary ties.
    """

    certain: np.ndarray
    tied: np.ndarray
    slots_in_tied: int
    top_end: int


def sort_scores(z: np.ndarray, tau: float = 0.0, n: int | None = None) -> SortedScores:
    """Sort scores descending and split into tie groups at gap > tau."""
    z = np.asarray(z, dtype=np.float64)
    order = np.argsort(-z, kind="stable")
    values = z[order]
    if values.shape[0] > 1:
        brk = np.flatnonzero((values[:-1] - values[1:]) > tau)
        starts = np.concatenate(([0], brk + 1))
        ends = np.concatenate((brk + 1, [values.shape[0]]))
    else:
        starts = np.zeros(1, dtype=np.intp)
        ends = np.full(1, values.shape[0], dtype=np.intp)
    boundary: int | None = None
    if n is not None and 1 <= n <= values.shape[0]:
        g = int(np.searchsorted(starts, n - 1, side="right") - 1)
        if ends[g] > n:
            boundary = g
    return SortedScores(order=order, values=values, starts=starts, ends=ends,
                        tau=float(tau), boundary_group=boundary)


def top_n_with_ties(ss: SortedScores, n: int) -> TopSet:
    """Candidates competing for the top n slots: clean winners plus the
    boundary tie group (members with at most n-1 strictly larger scores)."""
    size = ss.order.shape[0]
    if not 1 <= n <= size:
        raise ValueError(f"n={n} out of range for {size} scores")
    g = int(np.searchsorted(ss.starts, n - 1, side="right") - 1)
    if ss.ends[g] == n:
        return TopSet(certain=ss.order[:n], tied=ss.order[:0],
                      slots_in_tied=0, top_end=n)
    start = int(ss.starts[g])
    end = int(ss.ends[g])
    return TopSet(certain=ss.order[:start], tied=ss.order[start:end],
                  slots_in_tied=n - start, top_end=end)


def extremal_diversity(ss: SortedScores, ts: TopSet, a: np.ndarray,
                       w: np.ndarray, direction: str) -> tuple[float, np.ndarray]:
    """Extreme of sum_j w[j] * a[slot j] over all optimal assignments.

    Per tie group the slot block's weights are fixed, so the extreme places
    high-a members on heavy slots (max) or low-a members there (min); the
    boundary group additionally picks which members receive slots at all.
    Returns (value, slots) with slots in local indices.
    """
    if direction not in (MIN_DIVERSITY, MAX_DIVERSITY):
        raise ValueError(f"unknown direction {direction!r}")
    n = w.shape[0]
    # Fast path: every group intersecting the top-n is a singleton.
    g_last = int(np.searchsorted(ss.starts, n - 1, side="right") - 1)
    if g_last == n - 1 and ss.ends[g_last] == n:
        slots = ss.order[:n]
        return float(np.dot(w, a[slots])), slots

    slots = np.empty(n, dtype=ss.order.dtype)
    g = 0
    while g < ss.starts.shape[0] and ss.starts[g] < n:
        start = int(ss.starts[g])
        end = int(ss.ends[g])
        members = ss.order[start:end]
        k = min(end, n) - start
        if members.shape[0] == 1:
            slots[start] = members[0]
        else:
            av = a[members]
            if direction == MAX_DIVERSITY:
                # Largest-a members, descending against descending weights.
                pick = np.argsort(-av, kind="stable")[:k]
            else:
                pick = np.argsort(av, kind="stable")[:k]
            slots[start:start + k] = members[pick]
        g += 1
    return float(np.dot(w, a[slots])), slots


@dataclass(frozen=True)
class UnconstrainedResult:
    """slots_min/slots_max: candidate per slot of the tied optima with the
    smallest and the largest diversity."""

    value: float
    min_div: float
    max_div: float
    slots_min: np.ndarray
    slots_max: np.ndarray


def unconstrained_extremes(c: np.ndarray, a: np.ndarray, w: np.ndarray) -> UnconstrainedResult:
    """Best weighted relevance ignoring the diversity bound, plus the
    diversity range attainable among the tied optima."""
    n = w.shape[0]
    ss = sort_scores(c, 0.0, n)
    value = float(np.dot(w, ss.values[:n]))
    ts = top_n_with_ties(ss, n)
    min_div, slots_min = extremal_diversity(ss, ts, a, w, MIN_DIVERSITY)
    max_div, slots_max = extremal_diversity(ss, ts, a, w, MAX_DIVERSITY)
    return UnconstrainedResult(value=value, min_div=min_div, max_div=max_div,
                               slots_min=slots_min, slots_max=slots_max)


def solve_unconstrained(inst: Instance) -> UnconstrainedResult:
    return unconstrained_extremes(inst.c, inst.a, inst.w)
