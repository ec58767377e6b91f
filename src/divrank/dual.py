"""Dual function of the upper-bounded ranking problem and its kink geometry.

For scores z = c - lambda * a, the dual is
    g(lambda) = max over assignments of sum_j w[j] * z[slot j]  +  b2 * lambda,
a piecewise-linear convex function of lambda >= 0. Its one-sided derivatives
are b2 minus the extreme weighted diversities over the tied maximizers, and
its kinks are the crossing points of candidate score lines that change the
top-n assignment.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rank import (MAX_DIVERSITY, MIN_DIVERSITY, SortedScores, TopSet,
                   extremal_diversity, sort_scores, top_n_with_ties)

log = logging.getLogger(__name__)

# Relative tolerance below which two diversity slopes count as parallel.
PARALLEL_RTOL = 1e-15
# Relative tie tolerance applied when evaluating at a traced kink.
KINK_TIE_RTOL = 1e-9
# Pairs per block of the kink step's temporaries (512 KiB per float array).
KINK_BLOCK = 1 << 16


@dataclass(frozen=True)
class OneSidedInstance:
    """Reduced problem: maximize relevance subject to diversity <= b2 only."""

    c: np.ndarray
    a: np.ndarray
    w: np.ndarray
    b2: float

    @property
    def m(self) -> int:
        return self.c.shape[0]

    @property
    def n(self) -> int:
        return self.w.shape[0]


class ActiveSet(NamedTuple):
    """Surviving candidates: original indices plus sliced score arrays.
    A NamedTuple like DualEvaluation: screening builds one per drop."""

    indices: np.ndarray
    c: np.ndarray
    a: np.ndarray

    @classmethod
    def full(cls, inst: OneSidedInstance) -> "ActiveSet":
        return cls(indices=np.arange(inst.m), c=inst.c, a=inst.a)

    @property
    def size(self) -> int:
        return self.indices.shape[0]

    def keep(self, rows: np.ndarray) -> "ActiveSet":
        """Survivors at the given positions."""
        return ActiveSet(indices=self.indices.take(rows), c=self.c.take(rows),
                         a=self.a.take(rows))


class DualEvaluation(NamedTuple):
    """g and its one-sided derivatives at a point, with the extreme-diversity
    maximizing assignments as slot arrays of original candidate indices."""

    lam: float
    g: float
    g_minus: float
    g_plus: float
    z: np.ndarray
    sorted: SortedScores
    topset: TopSet
    min_div: float
    max_div: float
    slots_min: np.ndarray
    slots_max: np.ndarray
    tau: float


def kink_tie_tol(z: np.ndarray) -> float:
    """Absolute tie tolerance used at traced kinks: 1e-9 * max|z|."""
    if z.size == 0:
        return 0.0
    return KINK_TIE_RTOL * float(np.abs(z).max())


def eval_dual(inst: OneSidedInstance, lam: float, active: ActiveSet,
              tau: float = 0.0) -> DualEvaluation:
    """Evaluate g and both one-sided derivatives at lam over the active set.

    tau widens tie detection; pass 0 except at a traced kink where float
    noise hides the expected tie.
    """
    n = inst.n
    z = active.a * -lam  # c + (-lam) a is c - lam a bit for bit, in one array
    z += active.c
    ss = sort_scores(z, tau, n)
    g = float(inst.w.dot(ss.values[:n])) + inst.b2 * lam
    ts = top_n_with_ties(ss, n)
    min_div, slots_min = extremal_diversity(ss, ts, active.a, inst.w, MIN_DIVERSITY)
    slots_min = active.indices[slots_min]
    if ts.unique:  # one optimal assignment
        max_div, slots_max = min_div, slots_min
    else:
        max_div, slots_max = extremal_diversity(ss, ts, active.a, inst.w, MAX_DIVERSITY)
        slots_max = active.indices[slots_max]
    return DualEvaluation(float(lam), g, inst.b2 - max_div, inst.b2 - min_div,
                          z, ss, ts, min_div, max_div, slots_min, slots_max,
                          float(tau))


def _one_sided_top(ev: DualEvaluation, active: ActiveSet,
                   forward: bool) -> np.ndarray:
    """Top-n membership on the requested side of ev.lam.

    A boundary tie resolves directionally: moving right, the tied members
    with the smallest diversity slope a stay on top (their scores decay
    slowest); moving left, the largest. Members leaving on that side are
    excluded so their below-the-cut crossings are not mistaken for kinks.
    """
    ts = ev.topset
    if ts.slots_in_tied == 0:
        return ev.sorted.order[:ts.top_end]
    av = active.a[ts.tied]
    if forward:
        pick = np.argsort(av, kind="stable")[:ts.slots_in_tied]
    else:
        pick = np.argsort(-av, kind="stable")[:ts.slots_in_tied]
    return np.concatenate((ts.certain, ts.tied[pick]))


def _nearest_crossing(ev: DualEvaluation, active: ActiveSet,
                      forward: bool) -> float:
    """Smallest positive distance to a score-line crossing against the top
    set; +inf when there is none.

    A pair (i, j in top set) crosses at offset (z_i - z_j) / (a_i - a_j)
    going right, or (z_i - z_j) / (a_j - a_i) going left; only strictly
    positive offsets matter, i.e. numerator and denominator of the same
    strict sign. Pairs tied within the evaluation's tau and near-parallel
    pairs are excluded. The rows i are taken in blocks of
    KINK_BLOCK // |top set| (at least one), so the temporaries stay at
    about KINK_BLOCK pairs for any m; every pair sees the same float
    operations in any block, so the minimum does not depend on the block.
    """
    t_idx = _one_sided_top(ev, active, forward)
    z, a = ev.z, active.a
    z_top, a_top = z[t_idx], a[t_idx]
    a_tol = PARALLEL_RTOL * max(float(a.max()), -float(a.min())) if a.size else 0.0
    z_tol = ev.tau
    rows = max(KINK_BLOCK // t_idx.size, 1)
    best = math.inf
    for lo in range(0, z.shape[0], rows):
        num = z[lo:lo + rows, None] - z_top
        den = a[lo:lo + rows, None] - a_top
        if not forward:
            np.negative(den, out=den)
        valid = ((num > z_tol) & (den > a_tol)) | ((num < -z_tol) & (den < -a_tol))
        if valid.any():
            best = min(best, float((num[valid] / den[valid]).min()))
    return best


def kink_right(ev: DualEvaluation, active: ActiveSet) -> float:
    """Nearest kink of g strictly to the right of ev.lam; +inf if none."""
    return ev.lam + _nearest_crossing(ev, active, forward=True)


def kink_left(ev: DualEvaluation, active: ActiveSet) -> float | None:
    """Nearest kink of g strictly to the left of ev.lam, within the domain
    [0, ev.lam); None when g is affine on [0, ev.lam]."""
    lam = ev.lam - _nearest_crossing(ev, active, forward=False)
    return lam if lam >= 0.0 else None  # -inf when there is no crossing


def _argmin_g(inst: OneSidedInstance, active: ActiveSet, lam: np.ndarray) -> int:
    """Index of the smallest g over the active set among the points lam,
    from one sort of the len(lam) x |active| score matrix."""
    z = active.c - lam[:, None] * active.a
    z.sort(axis=1)
    return int((z[:, :-inst.n - 1:-1].dot(inst.w) + inst.b2 * lam).argmin())


def lowest_crossing(inst: OneSidedInstance, active: ActiveSet,
                    lo: float, hi: float) -> float | None:
    """The crossing of two active score lines strictly inside (lo, hi) at
    which g over the active set is smallest; None when no two lines cross
    there.

    When every candidate that can reach the top n inside the bracket is
    active, each kink of g there is one of these crossings, so the pick is
    a minimizer of g up to the rounding of the crossing itself. With the K
    crossings sorted, g is evaluated in one batch at every step-th of them
    (step = isqrt(K)) and in a second batch at those between the best
    sample's two neighbours: g is convex, so its minimum over the crossings
    lies between them. Each batch scores at most 2 sqrt(K) x |active|
    points, the order of the |active| x |active| pair matrix, since K is
    below |active|^2 / 2.
    """
    a, c = active.a, active.c
    da = a[:, None] - a
    # One orientation per pair, parallel ones skipped as in the kink step.
    pair = da > PARALLEL_RTOL * float(np.abs(a).max())
    lam = (c[:, None] - c)[pair] / da[pair]
    lam = lam[(lam > lo) & (lam < hi)]
    if lam.size == 0:
        return None
    lam.sort()
    step = math.isqrt(lam.size)
    best = _argmin_g(inst, active, lam[::step]) * step
    near = lam[max(best - step + 1, 0):best + step]
    return float(near[_argmin_g(inst, active, near)])


def trace_kinks(inst: OneSidedInstance, start: float = 0.0,
                active: ActiveSet | None = None,
                limit: int | None = None) -> np.ndarray:
    """All kinks of g reachable by stepping right from `start`.

    Each step evaluates with the relaxed kink tie tolerance so the tie group
    at the current kink is excluded from the next step's pair set.
    """
    if active is None:
        active = ActiveSet.full(inst)
    if limit is None:
        limit = active.size * (active.size - 1) // 2 + 1
    lam = float(start)
    out: list[float] = []
    for _ in range(limit + 1):
        z = active.c - lam * active.a
        ev = eval_dual(inst, lam, active, tau=kink_tie_tol(z))
        nxt = kink_right(ev, active)
        if not math.isfinite(nxt):
            return np.asarray(out)
        out.append(nxt)
        lam = nxt
    raise RuntimeError("kink trace exceeded the pair-count bound; "
                       "scores may be degenerate")
