"""Solver pipeline: reduce the two-sided bound to one side, minimize the dual
by bisection with exact kink tracing, screen hopeless candidates on the fly,
and recover the optimal primal mixture in closed form.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dual import (ActiveSet, DualEvaluation, OneSidedInstance, eval_dual,
                   kink_left, kink_right, kink_tie_tol, lowest_crossing, max_abs,
                   scores)
from .model import (STATUS_LOWER_ACTIVE, STATUS_UNCONSTRAINED,
                    STATUS_UPPER_ACTIVE, ExtremeAssignment, Instance,
                    PrimalMixture, Solution, SolveStats, complement)
from .rank import SELECT_SLACK, unconstrained_extremes

# The pre-screen picks its witnesses from a strided sample of about this
# many candidates.
PRESCREEN_SAMPLE = 8192

# Doubling stops past this many units of lambda (see _unit) and falls back
# to the bracket: beyond it c - lambda * a keeps too few bits of c for g to
# be trusted. It bounds precision, not feasibility.
LAMBDA_LIMIT = 2.0 ** 41

# The search gives up on exactness when the bracket is this many units of
# lambda narrow, or after this many evaluations of g. The cap is a safety
# bound: solves take at most a few dozen evaluations.
BRACKET_FLOOR = 1e-10
MAX_EVALUATIONS = 200


class InfeasibleError(Exception):
    """No assignment satisfies b1 <= weighted diversity <= b2."""

    def __init__(self, message: str, report: Optional["FeasibilityReport"] = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class FeasibilityReport:
    """Whether [b1, b2] is reachable, with the extreme weighted diversities
    over all assignments. solve() attaches it to InfeasibleError; the dual
    search itself decides feasibility."""

    feasible: bool
    div_min: float
    div_max: float


@dataclass(frozen=True)
class SolveOptions:
    """Options of the dual search: screening drops candidates that cannot
    reach the top n inside the bracket. The search's bracket floor and
    evaluation cap are fixed (BRACKET_FLOOR, MAX_EVALUATIONS); the floor is
    measured in solve()'s unit of lambda, the power of two nearest
    max|c| / max|a| (see _unit)."""

    screening: bool = True


@dataclass
class DualSearchState:
    """The dual search's bracket, survivors, counts and result (the trial
    point is the search's own). At its end, lambda_star is lambda* and
    evaluation the evaluation there, or lambda_star is None and evaluation
    is at the bracket's finite end when the search gave up on exactness."""

    lambda_min: float
    lambda_max: float
    active: ActiveSet
    iterations: int = 0
    screen_events: int = 0
    lambda_star: Optional[float] = None
    evaluation: Optional[DualEvaluation] = None


@dataclass(frozen=True)
class Reduction:
    """The active bound's status, with the one-sided instance left to solve
    or, when an unconstrained optimum already meets the bounds, the optimal
    mixture."""

    status: str
    one_sided: Optional[OneSidedInstance] = None
    mixture: Optional[PrimalMixture] = None


def _diversity_extreme(inst: Instance | OneSidedInstance, *,
                       largest: bool) -> tuple[float, np.ndarray]:
    """Largest or smallest weighted diversity over all assignments, and its
    slots: the top n of a, or of -a, with ties by ascending index, so the
    heaviest slot takes the most extreme value."""
    a = inst.a
    un = unconstrained_extremes(a if largest else -a, a, inst.w)
    return (un.max_div, un.slots_max) if largest else (un.min_div, un.slots_min)


def precheck_feasibility(inst: Instance) -> FeasibilityReport:
    """Range of weighted diversity over all assignments, and whether it
    meets [b1, b2]."""
    div_min = _diversity_extreme(inst, largest=False)[0]
    div_max = _diversity_extreme(inst, largest=True)[0]
    feasible = max(inst.b1, div_min) <= min(inst.b2, div_max)
    return FeasibilityReport(feasible=feasible, div_min=div_min, div_max=div_max)


def _mix_extremes(c: np.ndarray, w: np.ndarray, s1: np.ndarray, s2: np.ndarray,
                 d1: float, d2: float, target: float) -> PrimalMixture:
    """Mixture rho * s1 + (1 - rho) * s2 of two slot arrays with diversities
    d1 <= d2, rho clamped to [0, 1] so the diversity meets target where the
    pair can reach it. Equal objectives are reported as they are, not
    re-rounded through the mix."""
    if d2 - d1 <= 0.0:
        rho = 1.0
    else:
        num, den = target - d2, d1 - d2
        if not math.isfinite(den):
            # The differences overflow; those of the halves do not, and
            # halving a normal float is exact.
            num, den = 0.5 * target - 0.5 * d2, 0.5 * d1 - 0.5 * d2
        rho = float(min(1.0, max(0.0, num / den)))
    obj1 = float(w.dot(c[s1]))
    obj2 = float(w.dot(c[s2]))
    objective = obj1 if obj1 == obj2 else rho * obj1 + (1.0 - rho) * obj2
    return PrimalMixture(x1=ExtremeAssignment(tuple(s1.tolist())),
                         x2=ExtremeAssignment(tuple(s2.tolist())), rho=rho,
                         objective=objective, diversity=rho * d1 + (1.0 - rho) * d2)


def reduce_two_sided(inst: Instance, active: Optional[ActiveSet] = None) -> Reduction:
    """Decide which bound (if any) the optimum presses against.

    If every unconstrained optimum exceeds b2, only the upper bound matters
    (UpperActive). If every unconstrained optimum falls below b1, flip the
    sign of the diversity scores and treat -b1 as an upper bound, -b2 as the
    other (LowerActive). Either way one_sided is left to solve. Otherwise
    some unconstrained optimum is already feasible and the reduction carries
    the optimal mixture instead; among the tied optima the vertex
    diversities are discrete, so the feasible witness may be a strict
    mixture of the two diversity extremes. The unconstrained optimum is
    selected over active if given: a set, in index order, of every candidate
    whose c reaches the n-th largest, like _prescreen's survivors.
    """
    lines = inst if active is None else active
    un = unconstrained_extremes(lines.c, lines.a, inst.w)
    if un.min_div > inst.b2:
        return Reduction(STATUS_UPPER_ACTIVE, one_sided=OneSidedInstance(
            inst.c, inst.a, inst.w, inst.b2, inst.b1))
    if un.max_div < inst.b1:
        return Reduction(STATUS_LOWER_ACTIVE, one_sided=OneSidedInstance(
            inst.c, -inst.a, inst.w, -inst.b1, -inst.b2))
    s_min, s_max = un.slots_min, un.slots_max
    if active is not None:
        s_min, s_max = active.indices[s_min], active.indices[s_max]
    if un.min_div >= inst.b1:
        mixture = _mix_extremes(inst.c, inst.w, s_min, s_min, un.min_div,
                                un.min_div, un.min_div)
        return Reduction(STATUS_UNCONSTRAINED, mixture=mixture)
    # min_div < b1 <= max_div: clamp the mixture to the lower bound.
    mixture = _mix_extremes(inst.c, inst.w, s_min, s_max, un.min_div,
                            un.max_div, inst.b1)
    return Reduction(STATUS_LOWER_ACTIVE, mixture=mixture)


def _optimal(ev: DualEvaluation) -> bool:
    # At the domain boundary lambda=0 only the right derivative exists.
    if ev.lam == 0.0:
        return ev.g_plus >= 0.0
    return ev.g_minus <= 0.0 <= ev.g_plus


def _magnitudes(inst: Instance) -> tuple[float, float]:
    """(max|c|, max|a|), read off each array's extremes: the same for
    either sign of a."""
    return max_abs(inst.c), max_abs(inst.a)


def _unit(c_max: float, a_max: float) -> float:
    """2**k, the power of two nearest c_max / a_max on a log scale, with k
    clamped to [-1022, 1023] so the unit is a normal float; 1.0 when either
    is 0. lambda* lies near the unit, so the search doubles from it and
    measures its limit and floor in it; scaling lambda by a power of two is
    exact. k is computed from exponent and mantissa so that scaling c or a
    by a power of two shifts k by exactly that power."""
    if c_max == 0.0 or a_max == 0.0:
        return 1.0
    mc, ec = math.frexp(c_max)
    ma, ea = math.frexp(a_max)
    k = ec - ea + round(math.log2(mc / ma))
    return math.ldexp(1.0, min(max(k, -1022), 1023))


def _reaches_witnesses(z1: np.ndarray, low1: float, z2: np.ndarray,
                       witness: np.ndarray) -> np.ndarray:
    """Screening rule: keep a candidate whose score at either end of the
    bracket, z1 at one and z2 at the other, reaches the witness set's
    minimum score there; the caller passes the first end's, low1.

    It is sound for any witness set T of n candidates: the minimum of their
    score lines is concave, so a candidate strictly below it at both ends
    has n lines above it everywhere inside, stays out of the top n, and
    carries zero weight at the optimum. The witnesses themselves always
    stay, so at least n candidates survive."""
    low2 = z2[witness]
    kept = z2 >= low2[low2.argmin()]  # argmin then index: min costs more
    kept |= z1 >= low1
    return kept


def screen_candidates(state: DualSearchState, inst: OneSidedInstance,
                      ev: DualEvaluation) -> np.ndarray:
    """Drop candidates that miss the top n at both bracket endpoints.

    The rule is _reaches_witnesses' with T the top set of ev, the tau = 0
    evaluation at one endpoint, on the bracket's side of it (slots_min at
    the left end, slots_max at the right). There the candidates reaching
    T's minimum, the n-th largest score held by the last slot, are exactly
    the top set with boundary ties; at a far end of 0 the scores are c.
    ev.active is screened into state.active. The pre-screen's drops (see
    _prescreen) wait for the first trial to confirm its bracket [0, unit]:
    while no call has reported and ev.active lacks some of the m
    candidates, a call reports them with its own. Returns every drop
    reported, as ascending original indices (empty for none).
    """
    act = ev.active
    pending = not state.screen_events and act.size < inst.m
    dropped = np.empty(0, dtype=np.intp)
    if math.isfinite(state.lambda_max) and act.size > inst.n:
        left = ev.lam == state.lambda_min  # else ev is at the right end
        other = state.lambda_max if left else state.lambda_min
        witness = ev.slots_min if left else ev.slots_max
        far = act.c if other == 0.0 else scores(act, other)
        kept = _reaches_witnesses(ev.z, ev.z[witness[-1]], far, witness)
        keep = kept.nonzero()[0]
        if keep.shape[0] < act.size:
            dropped = act.indices[~kept]
            state.active = act.keep(keep)  # positions beat a boolean mask
    if pending:
        dropped = complement(state.active.indices, inst.m)
    state.screen_events += dropped.shape[0] > 0
    return dropped


def _prescreen(inst: OneSidedInstance | Instance, unit: float = 1.0) -> ActiveSet:
    """Survivors of the screening rule (_reaches_witnesses) over
    [0, unit]. The witnesses are the n candidates whose smaller end score,
    min(c, c - unit a), is largest among every step-th candidate, where
    step keeps that sample near PRESCREEN_SAMPLE: such a witness set has
    both of its thresholds high. Survivors keep ascending index order and
    every candidate scoring at least the n-th largest at lambda = unit, so
    an evaluation at unit over them equals the full-width one."""
    c = inst.c
    z = scores(inst, unit)
    step = max(inst.m // max(PRESCREEN_SAMPLE, inst.n), 1)
    q = np.minimum(c[::step], z[::step])
    cut = q.shape[0] - inst.n
    witness = q.argpartition(cut)[cut:] * step
    kept = _reaches_witnesses(z, z[witness].min(), c, witness)
    keep = kept.nonzero()[0]
    return ActiveSet(keep, c.take(keep), inst.a.take(keep))


def solve_dual_bisection(inst: OneSidedInstance, opts: Optional[SolveOptions] = None,
                         unit: float = 1.0, active: Optional[ActiveSet] = None) -> DualSearchState:
    """Minimize g over lambda >= 0, with lambda measured in units of unit,
    a power of two near lambda* (see _unit).

    Bisection on the sign of the one-sided derivatives, after doubling from
    unit, brackets the minimizer; once the bracket is narrower than
    1e-2 (unit + lambda_max) at the first closed bracket, stepping to the
    nearest kink on the side of the minimum (to 0 if g is affine down to
    it) and testing the subgradient condition there, with the kink tie
    tolerance, lands on lambda* exactly.
    Optional screening shrinks the active candidate set using the bracket;
    the first time it leaves at most n + SELECT_SLACK survivors, the next
    trial point is their crossing in the bracket where g is smallest, and a
    kink step from it follows whether or not the bracket is narrow.
    Screening starts before the first trial at lambda = unit, over the
    provisional bracket [0, unit] (_prescreen, or active if given); if that
    trial leaves the bracket open, its survivors are discarded and doubling
    runs on all m candidates.

    The search decides feasibility: a closed bracket exhibits an assignment
    with diversity at most b2, and with the unconstrained optimum above b2 it
    spans the bound. If the first trial leaves the bracket open, one range
    check, div_min > b2, raises InfeasibleError; otherwise doubling goes on
    up to LAMBDA_LIMIT units, or until it overflows, and ends with no
    lambda*. The search also ends with no lambda* at a bracket BRACKET_FLOOR
    units wide or after MAX_EVALUATIONS evaluations of g; its evaluation is
    then one more, not counted in iterations, at the bracket's finite end
    with the kink tie tolerance. Returns the final state, with lambda_star
    and evaluation set.
    """
    opts = opts or SolveOptions()
    if active is None:
        active = _prescreen(inst, unit) if opts.screening else ActiveSet.full(inst)
    state = DualSearchState(lambda_min=0.0, lambda_max=np.inf, active=active)
    lam = unit
    # Bracket width below which a kink step follows each trial; fixed at
    # the first closed bracket, 0 (no step) until then.
    big_delta = 0.0
    crossed = False  # the batched crossing step runs at most once
    picked = False  # lam is the crossing that step picked

    while state.iterations < MAX_EVALUATIONS:
        ev = eval_dual(inst, lam, state.active, tau=0.0)
        state.iterations += 1
        if _optimal(ev):
            if lam == unit and opts.screening:
                screen_candidates(state, inst, ev)
            state.lambda_star, state.evaluation = lam, ev
            return state
        # g_plus < 0: the minimum lies strictly to the right; else g_minus > 0
        # and it lies strictly to the left.
        forward = ev.g_plus < 0.0
        if picked or state.lambda_max - state.lambda_min < big_delta:
            k = kink_right(ev) if forward else kink_left(ev)
            # A kink nearer than half an ulp rounds onto lam itself; the
            # kink tolerance still certifies it there.
            if math.isfinite(k):
                ev_k = _eval_at_kink(inst, k, state.active)
                state.iterations += 1
                if _optimal(ev_k):
                    state.lambda_star, state.evaluation = k, ev_k
                    return state
        picked = False
        if forward:
            state.lambda_min = lam
        else:
            state.lambda_max = lam
        if math.isinf(state.lambda_max):
            # The first trial left the bracket open: settle feasibility,
            # and drop the pre-screen, whose bracket [0, unit] was wrong.
            if lam == unit:
                if _diversity_extreme(inst, largest=False)[0] > inst.b2:
                    raise InfeasibleError("every assignment's diversity exceeds b2")
                state.active = ActiveSet.full(inst)
            lam *= 2.0
            if lam / unit > LAMBDA_LIMIT:  # inf too, once lam overflows
                break
            continue
        if not big_delta:
            big_delta = 1e-2 * (unit + state.lambda_max)
        lam = 0.5 * (state.lambda_min + state.lambda_max)
        if opts.screening:
            screen_candidates(state, inst, ev)
            if not crossed and state.active.size <= inst.n + SELECT_SLACK:
                # Inside the bracket only survivors reach the top n, so every
                # kink of g there is a crossing of two survivors' lines.
                crossed = True
                pick = lowest_crossing(inst, state.active,
                                       state.lambda_min, state.lambda_max)
                if pick is not None:
                    lam, picked = pick, True
        if state.lambda_max - state.lambda_min <= BRACKET_FLOOR * unit:
            break

    lo, hi = state.lambda_min, state.lambda_max
    state.evaluation = _eval_at_kink(inst, hi if math.isfinite(hi) else lo,
                                     state.active)
    return state


def _eval_at_kink(inst: OneSidedInstance, lam: float,
                  active: ActiveSet) -> DualEvaluation:
    """eval_dual at lam with the kink tie tolerance of the scores there."""
    z = scores(active, lam)
    return eval_dual(inst, lam, active, tau=kink_tie_tol(z), z=z)


def recover_primal(ev: DualEvaluation, inst: OneSidedInstance) -> PrimalMixture:
    """Mix the two diversity-extreme maximizers at ev.lam toward b2, or
    toward their largest diversity if lower. At lambda* they straddle b2,
    so the bound holds with equality and the objective equals g(lambda*).
    At an inexact end whose face misses [inst.b1, inst.b2] the global
    diversity extremes are mixed instead: a closed bracket or the search's
    range check makes them straddle the band."""
    s1, s2 = ev.active.indices[ev.slots_min], ev.active.indices[ev.slots_max]
    d1, d2 = ev.min_div, ev.max_div
    if max(inst.b1, d1) > min(inst.b2, d2):
        d1, s1 = _diversity_extreme(inst, largest=False)
        d2, s2 = _diversity_extreme(inst, largest=True)
    return _mix_extremes(inst.c, inst.w, s1, s2, d1, d2, min(inst.b2, d2))


def _rounding_allowance(inst: OneSidedInstance, lam: float, g: float,
                        c_max: float, a_max: float) -> float:
    """How far rounding can move g(lam), and a diversity judged against b2
    (a move lam multiplies): a few units in the last place of the
    magnitudes involved, with c_max, a_max = max|c|, max|a| of inst."""
    scale = (float(inst.w.sum()) * (c_max + 2.0 * (lam * a_max))
             + lam * abs(inst.b2) + abs(g))
    return (inst.n + 2) * math.ulp(1.0) * scale


def solve(inst: Instance, opts: Optional[SolveOptions] = None) -> Solution:
    """Full pipeline. Raises InfeasibleError, with the attainable diversity
    range, when no assignment satisfies the diversity bounds; the dual search
    decides that, so feasible solves run no separate range pass. The
    Solution, its SolveStats included, is the whole report: an inexact end
    shows as stats.exact False with its duality_gap. Wall time covers the
    whole call but for wrapping the result in its Solution record, not JSON
    I/O."""
    t0 = time.perf_counter_ns()
    opts = opts or SolveOptions()
    c_max, a_max = _magnitudes(inst)
    unit = _unit(c_max, a_max)
    # The upper pre-screen keeps the top n of c (see reduce_two_sided).
    screened = _prescreen(inst, unit) if opts.screening else None
    red = reduce_two_sided(inst, screened)
    one = red.one_sided
    if one is None:
        stats = SolveStats()
        stats.wall_time_us = (time.perf_counter_ns() - t0) / 1e3
        return Solution(status=red.status, lambda_star=0.0,
                        mixture=red.mixture, stats=stats)

    upper = red.status == STATUS_UPPER_ACTIVE
    try:
        state = solve_dual_bisection(one, opts, unit, screened if upper else None)
    except InfeasibleError:
        pre = precheck_feasibility(inst)
        raise InfeasibleError(
            f"diversity range [{pre.div_min:.6g}, {pre.div_max:.6g}] misses "
            f"[{inst.b1:.6g}, {inst.b2:.6g}]", pre) from None
    ev = state.evaluation
    mixture = recover_primal(ev, one)
    # At lambda* strong duality makes g and the objective equal in exact
    # arithmetic; elsewhere g bounds the optimum from above.
    gap = abs(ev.g - mixture.objective) + _rounding_allowance(
        one, ev.lam, ev.g, c_max, a_max)
    # Negating a dot product is exact, so on the lower-as-upper path this is
    # the original diversity.
    if red.status == STATUS_LOWER_ACTIVE:
        mixture = replace(mixture, diversity=-mixture.diversity)
    survivors = ev.active.indices
    dropped = one.m - survivors.shape[0]
    stats = SolveStats(iterations=state.iterations,
                       screen_events=state.screen_events, dropped=dropped,
                       exact=state.lambda_star is not None, duality_gap=gap,
                       survivors=survivors if dropped else None)
    stats.wall_time_us = (time.perf_counter_ns() - t0) / 1e3
    return Solution(status=red.status, lambda_star=ev.lam,
                    mixture=mixture, stats=stats)
