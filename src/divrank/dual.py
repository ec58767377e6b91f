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
from dataclasses import dataclass

import numpy as np

from .rank import (MAX_DIVERSITY, MIN_DIVERSITY, SortedScores, TopSet,
                   extremal_diversity, sort_scores, top_n_with_ties)

log = logging.getLogger(__name__)

# Relative tolerance below which two diversity slopes count as parallel.
PARALLEL_RTOL = 1e-15
# Relative tie tolerance applied when evaluating at a traced kink.
KINK_TIE_RTOL = 1e-9


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


@dataclass(frozen=True)
class ActiveSet:
    """Surviving candidates: original indices plus sliced score arrays."""

    indices: np.ndarray
    c: np.ndarray
    a: np.ndarray

    @classmethod
    def full(cls, inst: OneSidedInstance) -> "ActiveSet":
        return cls(indices=np.arange(inst.m), c=inst.c, a=inst.a)

    @property
    def size(self) -> int:
        return self.indices.shape[0]

    def keep(self, mask: np.ndarray) -> "ActiveSet":
        return ActiveSet(indices=self.indices[mask], c=self.c[mask], a=self.a[mask])


@dataclass(frozen=True)
class DualEvaluation:
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
    return KINK_TIE_RTOL * float(np.max(np.abs(z)))


def eval_dual(inst: OneSidedInstance, lam: float, active: ActiveSet,
              tau: float = 0.0) -> DualEvaluation:
    """Evaluate g and both one-sided derivatives at lam over the active set.

    tau widens tie detection; pass 0 except at a traced kink where float
    noise hides the expected tie.
    """
    n = inst.n
    z = active.c - lam * active.a
    ss = sort_scores(z, tau, n)
    g = float(np.dot(inst.w, ss.values[:n])) + inst.b2 * lam
    ts = top_n_with_ties(ss, n)
    min_div, slots_min = extremal_diversity(ss, ts, active.a, inst.w, MIN_DIVERSITY)
    max_div, slots_max = extremal_diversity(ss, ts, active.a, inst.w, MAX_DIVERSITY)
    return DualEvaluation(
        lam=float(lam), g=g,
        g_minus=inst.b2 - max_div, g_plus=inst.b2 - min_div,
        z=z, sorted=ss, topset=ts,
        min_div=min_div, max_div=max_div,
        slots_min=active.indices[slots_min], slots_max=active.indices[slots_max],
        tau=float(tau),
    )


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


def _crossing_offsets(ev: DualEvaluation, active: ActiveSet,
                      forward: bool) -> np.ndarray:
    """Positive distances to score-line crossings against the top set.

    A pair (i, j in top set) crosses at offset (z_i - z_j) / (a_i - a_j)
    going right, or (z_i - z_j) / (a_j - a_i) going left; only strictly
    positive offsets matter, i.e. numerator and denominator of the same
    strict sign. Pairs tied within the evaluation's tau and near-parallel
    pairs are excluded.
    """
    t_idx = _one_sided_top(ev, active, forward)
    num = ev.z[:, None] - ev.z[t_idx][None, :]
    den = active.a[:, None] - active.a[t_idx][None, :]
    if not forward:
        den = -den
    a_tol = PARALLEL_RTOL * float(np.max(np.abs(active.a))) if active.a.size else 0.0
    z_tol = ev.tau
    valid = ((num > z_tol) & (den > a_tol)) | ((num < -z_tol) & (den < -a_tol))
    if not np.any(valid):
        return np.empty(0)
    return num[valid] / den[valid]


def kink_right(ev: DualEvaluation, active: ActiveSet) -> float:
    """Nearest kink of g strictly to the right of ev.lam; +inf if none."""
    offs = _crossing_offsets(ev, active, forward=True)
    if offs.size == 0:
        return np.inf
    return ev.lam + float(np.min(offs))


def kink_left(ev: DualEvaluation, active: ActiveSet) -> float | None:
    """Nearest kink of g strictly to the left of ev.lam, within the domain
    [0, ev.lam); None when g is affine on [0, ev.lam]."""
    offs = _crossing_offsets(ev, active, forward=False)
    if offs.size == 0:
        return None
    lam = ev.lam - float(np.min(offs))
    if lam < 0.0:
        return None
    return lam


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
        if not np.isfinite(nxt):
            return np.asarray(out)
        out.append(nxt)
        lam = nxt
    raise RuntimeError("kink trace exceeded the pair-count bound; "
                       "scores may be degenerate")
