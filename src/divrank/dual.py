"""Dual function of the upper-bounded ranking problem and its kink geometry.

For scores z = c - lambda * a, the dual is
    g(lambda) = max over assignments of sum_j w[j] * z[slot j]  +  b2 * lambda,
a piecewise-linear convex function of lambda >= 0. Its one-sided derivatives
are b2 minus the extreme weighted diversities over the tied maximizers, and
its kinks are the crossing points of candidate score lines that change the
top-n assignment.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# sort_scores and extremal_diversity are re-exported for benchmark/spans.py.
from .rank import extremal_diversity, sort_scores, unconstrained_extremes

# Relative tolerance below which two diversity slopes count as parallel.
PARALLEL_RTOL = 1e-15
# Relative tie tolerance applied when evaluating at a traced kink.
KINK_TIE_RTOL = 1e-9
# Pairs per block of the kink step, laid out (top member, row): 512 KiB per
# float temporary, two of them and a boolean mask live at once.
KINK_BLOCK = 1 << 16
# Bit pattern of +inf: as unsigned integers, non-negative floats order below
# it as their values do, and negative ones and NaNs above it.
_INF_BITS = np.float64(math.inf).view(np.uint64)


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
    maximizing assignments as slot arrays of positions in the active set it
    was evaluated over (active.indices maps them to candidates). They are
    also the top sets just right (slots_min) and just left (slots_max) of
    lam, which the kink step pairs against."""

    lam: float
    g: float
    g_minus: float
    g_plus: float
    z: np.ndarray
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
    """g at lam over the active set, unconstrained_extremes of c - lam a plus
    b2 lam, and its one-sided derivatives b2 - max_div and b2 - min_div.

    tau widens tie detection; pass 0 except at a traced kink where float
    noise hides the expected tie.
    """
    z = active.a * -lam  # c + (-lam) a is c - lam a bit for bit, in one array
    z += active.c
    value, min_div, max_div, slots_min, slots_max = unconstrained_extremes(
        z, active.a, inst.w, tau)
    return DualEvaluation(float(lam), value + inst.b2 * lam, inst.b2 - max_div,
                          inst.b2 - min_div, z, min_div, max_div, slots_min,
                          slots_max, float(tau))


def _nearest_crossing(ev: DualEvaluation, active: ActiveSet,
                      forward: bool) -> float:
    """Smallest positive distance to a score-line crossing against the top
    set on the requested side of ev.lam; +inf when there is none.

    That top set is ev's min-diversity assignment going right and its
    max-diversity one going left: at a boundary tie, the tied members with
    the smallest slope a stay on top moving right (their scores decay
    slowest), the largest moving left, and those are the members each
    extreme gives slots to. Members leaving on that side are excluded so
    their below-the-cut crossings are not mistaken for kinks.

    A pair (i, j in top set) crosses at offset (z_i - z_j) / (a_i - a_j)
    going right, or (z_i - z_j) / (a_j - a_i) going left (bit for bit the
    negated a_i - a_j); only strictly positive offsets matter, i.e.
    numerator and denominator of the same strict sign. Pairs tied within
    the evaluation's tau and near-parallel pairs are excluded. Rounding is
    monotone, so a row with z_i - min z[top] < -tau has every numerator
    below -tau: its pairs count exactly when the denominator is below
    -a_tol, and only the few rows at or near the top need the four-way sign
    test. Each excluded pair's denominator is zeroed, so its quotient is an
    infinity or a NaN. Read as unsigned integers, those bit patterns and
    every negative float rank above the non-negative quotients, so one
    unsigned minimum finds the nearest crossing without gathering pairs.

    The rows are taken in blocks of KINK_BLOCK // |top set| (at least one),
    laid out (top member, row) so that each operation runs along the rows;
    the temporaries stay at about KINK_BLOCK pairs for any m, and every
    pair sees the same float operations in any block, so the minimum does
    not depend on the block.
    """
    t_idx = ev.slots_min if forward else ev.slots_max
    z, a = ev.z, active.a
    z_top, a_top = z[t_idx, None], a[t_idx, None]
    z_min = float(z_top.min())
    a_tol = PARALLEL_RTOL * max(float(a.max()), -float(a.min())) if a.size else 0.0
    z_tol = ev.tau
    rows = max(KINK_BLOCK // t_idx.size, 1)
    best = _INF_BITS
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(0, z.shape[0], rows):
            zb, ab = z[lo:lo + rows], a[lo:lo + rows]
            num = zb - z_top
            den = ab - a_top if forward else a_top - ab
            valid = den < -a_tol  # the rule for rows below the top set
            near = (zb - z_min >= -z_tol).nonzero()[0]
            if near.shape[0]:
                nn, dn = num[:, near], den[:, near]
                valid[:, near] = (((nn > z_tol) & (dn > a_tol))
                                  | ((nn < -z_tol) & (dn < -a_tol)))
            den *= valid
            num /= den
            best = min(best, num.view(np.uint64).min())
            del num, den, valid  # freed before the next block allocates
    # +inf when every valid quotient overflowed, or when there is none.
    return float(best.view(np.float64)) if best < _INF_BITS else math.inf


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
    with np.errstate(over="ignore"):  # a crossing past the float range is inf
        lam = (c[:, None] - c)[pair] / da[pair]
    lam = lam[(lam > lo) & (lam < hi)]
    if lam.size == 0:
        return None
    lam.sort()
    step = math.isqrt(lam.size)
    best = _argmin_g(inst, active, lam[::step]) * step
    near = lam[max(best - step + 1, 0):best + step]
    return float(near[_argmin_g(inst, active, near)])

