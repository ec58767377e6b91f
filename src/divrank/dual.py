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
# lowest_crossing scores up to this many crossings in one batch, more in two.
ONE_BATCH = 64
# The kink step probes at most this many rows, so smaller sets (gate 7's
# m = 3000) get one full pass; the probe pays off above about 10,000 rows.
KINK_PROBE = 4096
# Bit pattern of +inf: as unsigned integers, non-negative floats order below
# it as their values do, and negative ones and NaNs above it.
_INF_BITS = np.float64(math.inf).view(np.uint64)


@dataclass(frozen=True)
class OneSidedInstance:
    """Reduced problem: maximize relevance subject to diversity <= b2 only.
    b1 is the other bound in the same sign convention; only primal recovery
    reads it."""

    c: np.ndarray
    a: np.ndarray
    w: np.ndarray
    b2: float
    b1: float = -math.inf

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
    """g and its one-sided derivatives at a point over active, with the
    extreme-diversity maximizing assignments as slot arrays of positions in
    active (active.indices maps them to candidates). They are also the top
    sets just right (slots_min) and just left (slots_max) of lam, which the
    kink step pairs against."""

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
    active: ActiveSet


def scores(lines, lam) -> np.ndarray:
    """c - lam a of an instance or active set, formed as c + (-lam) a, the
    same bits; lam may be a column of points."""
    z = lines.a * -lam
    z += lines.c
    return z


def max_abs(x: np.ndarray) -> float:
    """max|x| of a non-empty array from its extremes, with no |x| temporary."""
    return max(float(x.max()), -float(x.min()))


def kink_tie_tol(z: np.ndarray) -> float:
    """Absolute tie tolerance used at traced kinks: 1e-9 * max|z|."""
    return KINK_TIE_RTOL * max_abs(z)


def eval_dual(inst: OneSidedInstance, lam: float, active: ActiveSet,
              tau: float = 0.0, z: np.ndarray | None = None) -> DualEvaluation:
    """g at lam over the active set, unconstrained_extremes of c - lam a plus
    b2 lam, and its one-sided derivatives b2 - max_div and b2 - min_div.

    tau widens tie detection; pass 0 except at a traced kink where float
    noise hides the expected tie; z, if given, is scores(active, lam).
    """
    z = scores(active, lam) if z is None else z
    value, min_div, max_div, slots_min, slots_max = unconstrained_extremes(
        z, active.a, inst.w, tau)
    return DualEvaluation(float(lam), value + inst.b2 * lam, inst.b2 - max_div,
                          inst.b2 - min_div, z, min_div, max_div, slots_min,
                          slots_max, float(tau), active)


def _least_offset(num: np.ndarray, den: np.ndarray, forward: bool,
                  a_tol: float, z_tol: float) -> float:
    """Least positive num / den over pairs whose gaps share a strict sign
    beyond z_tol and a_tol (den negated going left), +inf for none; num and
    den, not empty, are overwritten. Failing pairs get den = 0: as unsigned
    integers the infinities and NaNs that gives, and negative quotients,
    rank above the non-negative ones, so one unsigned minimum finds it."""
    if not forward:
        np.negative(den, out=den)
    valid = ((num > z_tol) & (den > a_tol)) | ((num < -z_tol) & (den < -a_tol))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        den *= valid
        num /= den
    bits = num.view(np.uint64)
    # +inf when every valid quotient overflowed, or when there is none.
    return float(min(bits[bits.argmin()], _INF_BITS).view(np.float64))


def _nearest_crossing(ev: DualEvaluation, forward: bool) -> float:
    """Smallest positive distance to a score-line crossing against the top
    set on the requested side of ev.lam; +inf when there is none.

    That top set is ev's min-diversity assignment going right, its
    max-diversity one going left (at a boundary tie the members with the
    smallest a stay on top moving right, the largest moving left). Its slot
    order holds up to the first crossing, of two members adjacent in it or
    of a row with the last slot l, not argmin z. Pair (i, j) crosses at (z_i
    - z_j) / (a_i - a_j), the denominator negated going left, if both share
    a strict sign beyond ev.tau and the parallel tolerance.

    Above KINK_PROBE rows the adjacent pairs and every ceil(m /
    KINK_PROBE)-th row against l give a bound t0, and only rows with z_i >=
    z_l - s a_l - slack - t0 A (s = +-t0, A = max|a|) get offsets against l:
    each row more than ev.tau above l, and each whose offset q_i is below
    t0. For those, t0 normal gives (z_i - z_l) - s (a_i - a_l) >= -6 eps t0
    A exactly (eps = 2**-53), and forming the bound rounds by at most eps
    (3|z_l| + 6 t0 A) more; a slack of 16 eps (|z_l| + t0 A) covers both
    and the ulps lost to underflow, so the step returns the full pass's
    bits. When t0 or the slack is not normal, or the bound is not finite,
    every row is kept.
    """
    t_idx = ev.slots_min if forward else ev.slots_max
    z, a = ev.z, ev.active.a
    m, last, upper, lower = z.shape[0], t_idx[-1], t_idx[:-1], t_idx[1:]
    a_max = max_abs(a)
    a_tol = PARALLEL_RTOL * a_max
    probe = slice(None, None, -(-m // KINK_PROBE))
    k = z[probe].shape[0]
    num, den = np.empty((2, k + upper.shape[0]))
    np.subtract(z[probe], z[last], out=num[:k])
    np.subtract(z[lower], z[upper], out=num[k:])
    np.subtract(a[probe], a[last], out=den[:k])
    np.subtract(a[lower], a[upper], out=den[k:])
    t0 = _least_offset(num, den, forward, a_tol, ev.tau)
    if k == m:
        return t0
    z_last, s = float(z[last]), t0 if forward else -t0
    slack = 2.0**-49 * (abs(z_last) + t0 * a_max)  # 16 eps (|z_l| + t0 A)
    bound = z_last + float(a[last]) * -s - slack - t0 * a_max
    if min(t0, slack) >= 2.0**-1022 and math.isfinite(bound):
        rows = np.flatnonzero(z >= bound)
    else:
        rows = slice(None)
    return min(t0, _least_offset(z[rows] - z_last, a[rows] - a[last], forward,
                                 a_tol, ev.tau))


def kink_right(ev: DualEvaluation) -> float:
    """Nearest kink of g strictly to the right of ev.lam; +inf if none."""
    return ev.lam + _nearest_crossing(ev, forward=True)


def kink_left(ev: DualEvaluation) -> float:
    """Nearest kink of g strictly left of ev.lam, within [0, ev.lam); 0.0,
    the end of the domain, when g is affine on [0, ev.lam]."""
    return max(ev.lam - _nearest_crossing(ev, forward=False), 0.0)


def _argmin_g(inst: OneSidedInstance, active: ActiveSet, lam: np.ndarray) -> int:
    """Index of the smallest g over the active set among the points lam,
    from one sort of the len(lam) x |active| score matrix."""
    z = scores(active, lam[:, None])
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
    crossings sorted, g is evaluated in one batch at all of them if K <=
    ONE_BATCH, else at every isqrt(K)-th and then, g being convex, at those
    between the best sample's two neighbours. A batch scores at most 2
    sqrt(K) x |active| points, the order of the |active|^2 pair matrix.
    """
    a, c = active.a, active.c
    da = a[:, None] - a
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lam = (c[:, None] - c) / da  # inf past the float range
    # One orientation per pair, parallel ones skipped as in the kink step.
    inside = (da > PARALLEL_RTOL * float(np.abs(a).max())) & (lam > lo)
    lam = lam[inside & (lam < hi)]
    if lam.size == 0:
        return None
    lam.sort()
    if lam.size > ONE_BATCH:
        step = math.isqrt(lam.size)
        best = _argmin_g(inst, active, lam[::step]) * step
        lam = lam[max(best - step + 1, 0):best + step]
    return float(lam[_argmin_g(inst, active, lam)])
