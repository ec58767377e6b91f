"""Solver pipeline: reduce the two-sided bound to one side, minimize the dual
by bisection with exact kink tracing, screen hopeless candidates on the fly,
and recover the optimal primal mixture in closed form.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .dual import (ActiveSet, DualEvaluation, OneSidedInstance, eval_dual,
                   kink_left, kink_right, kink_tie_tol, lowest_crossing)
from .model import (STATUS_LOWER_ACTIVE, STATUS_UNCONSTRAINED,
                    STATUS_UPPER_ACTIVE, ExtremeAssignment, Instance,
                    PrimalMixture, Solution, SolveStats)
from .rank import SELECT_SLACK, unconstrained_extremes

log = logging.getLogger(__name__)

# Reduction kinds.
REDUCE_UPPER = "upper"
REDUCE_LOWER_AS_UPPER = "lower_as_upper"
REDUCE_ALREADY_OPTIMAL = "already_optimal"

# The pre-screen picks its witnesses from a strided sample of about this
# many candidates.
PRESCREEN_SAMPLE = 8192

# Doubling stops past this (rescaled) lambda and falls back to the bracket:
# beyond it c - lambda * a keeps too few bits of c for g to be trusted. It
# bounds precision, not feasibility.
LAMBDA_LIMIT = 2.0 ** 41

# The search gives up on exactness when the (rescaled) bracket is this
# narrow, or after this many evaluations of g. The cap is a safety bound:
# solves take at most a few dozen evaluations.
BRACKET_FLOOR = 1e-10
MAX_EVALUATIONS = 200


class InfeasibleError(Exception):
    """No assignment satisfies b1 <= weighted diversity <= b2."""

    def __init__(self, message: str, report: Optional["FeasibilityReport"] = None):
        super().__init__(message)
        self.report = report


class BracketOnlyError(Exception):
    """Exact recovery was asked for but only a bracket is available."""


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
    evaluation cap are fixed (BRACKET_FLOOR, MAX_EVALUATIONS), measured on
    lambda after solve() rescales `a` by the power of two nearest
    max|c| / max|a|."""

    screening: bool = True


@dataclass
class DualSearchState:
    lambda_min: float
    lambda_max: float
    lam: float
    active: ActiveSet
    iterations: int = 0
    screen_events: int = 0
    dropped: list[np.ndarray] = field(default_factory=list)
    # Survivor mask of the pre-screen over all m candidates, held until the
    # first trial confirms its bracket [0, 1] and the next screen reports it.
    prescreened: Optional[np.ndarray] = None
    bracket_history: list[tuple[float, float]] = field(default_factory=list)


@dataclass(frozen=True)
class Reduction:
    kind: str
    one_sided: Optional[OneSidedInstance] = None
    mixture: Optional[PrimalMixture] = None
    status: Optional[str] = None


@dataclass(frozen=True)
class BisectionResult:
    """The search's end: state.active is the set the evaluation ran over."""

    lambda_star: Optional[float]
    evaluation: Optional[DualEvaluation]
    bracket: tuple[float, float]
    state: DualSearchState


def _extreme_slots(a: np.ndarray, n: int, *, largest: bool) -> np.ndarray:
    """Positions of the n largest values of a, largest first, or of the n
    smallest, smallest first, so the heaviest slot takes the most extreme
    value; only those n are sorted."""
    if largest:
        cut = a.shape[0] - n
        slots = a.argpartition(cut)[cut:]
        return slots[(-a[slots]).argsort(kind="stable")]
    slots = a.argpartition(n - 1)[:n]
    return slots[a[slots].argsort(kind="stable")]


def _div_min(inst: Instance) -> float:
    """Smallest weighted diversity: the heaviest slots take the smallest
    diversity scores."""
    return float(np.dot(inst.w, inst.a[_extreme_slots(inst.a, inst.n, largest=False)]))


def _div_max(inst: Instance) -> float:
    """Largest weighted diversity, from the n largest diversity scores."""
    return float(np.dot(inst.w, inst.a[_extreme_slots(inst.a, inst.n, largest=True)]))


def precheck_feasibility(inst: Instance) -> FeasibilityReport:
    """Range of weighted diversity over all assignments, and whether it
    meets [b1, b2]."""
    div_min, div_max = _div_min(inst), _div_max(inst)
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
        rho = float(min(1.0, max(0.0, (target - d2) / (d1 - d2))))
    obj1 = float(w.dot(c[s1]))
    obj2 = float(w.dot(c[s2]))
    objective = obj1 if obj1 == obj2 else rho * obj1 + (1.0 - rho) * obj2
    return PrimalMixture(x1=ExtremeAssignment(tuple(s1.tolist())),
                         x2=ExtremeAssignment(tuple(s2.tolist())), rho=rho,
                         objective=objective, diversity=rho * d1 + (1.0 - rho) * d2)


def reduce_two_sided(inst: Instance) -> Reduction:
    """Decide which bound (if any) the optimum presses against.

    If every unconstrained optimum exceeds b2, only the upper bound matters.
    If every unconstrained optimum falls below b1, flip the sign of the
    diversity scores and treat -b1 as an upper bound. Otherwise some
    unconstrained optimum is already feasible; among the tied optima the
    vertex diversities are discrete, so the feasible witness may be a strict
    mixture of the two diversity extremes.
    """
    un = unconstrained_extremes(inst.c, inst.a, inst.w)
    if un.min_div > inst.b2:
        return Reduction(kind=REDUCE_UPPER,
                         one_sided=OneSidedInstance(inst.c, inst.a, inst.w, inst.b2))
    if un.max_div < inst.b1:
        return Reduction(kind=REDUCE_LOWER_AS_UPPER,
                         one_sided=OneSidedInstance(inst.c, -inst.a, inst.w, -inst.b1))
    if un.min_div >= inst.b1:
        mixture = _mix_extremes(inst.c, inst.w, un.slots_min, un.slots_min,
                               un.min_div, un.min_div, un.min_div)
        return Reduction(kind=REDUCE_ALREADY_OPTIMAL, mixture=mixture,
                         status=STATUS_UNCONSTRAINED)
    # min_div < b1 <= max_div: clamp the mixture to the lower bound.
    mixture = _mix_extremes(inst.c, inst.w, un.slots_min, un.slots_max,
                           un.min_div, un.max_div, inst.b1)
    return Reduction(kind=REDUCE_ALREADY_OPTIMAL, mixture=mixture,
                     status=STATUS_LOWER_ACTIVE)


def _optimal(ev: DualEvaluation) -> bool:
    # At the domain boundary lambda=0 only the right derivative exists.
    if ev.lam == 0.0:
        return ev.g_plus >= 0.0
    return ev.g_minus <= 0.0 <= ev.g_plus


def _magnitudes(inst: OneSidedInstance) -> tuple[float, float]:
    """(max|c|, max|a|), read off each array's extremes."""
    return (max(float(inst.c.max()), -float(inst.c.min())),
            max(float(inst.a.max()), -float(inst.a.min())))


def _scale_exponent(c_max: float, a_max: float) -> int:
    """k such that 2**k is the power of two nearest c_max / a_max on a log
    scale; 0 when either is 0. Multiplying a by 2**k puts lambda* near the
    scale of 1, where doubling from 1 and the absolute BRACKET_FLOOR work,
    and is exact in floating point. Computed from exponent and mantissa so
    that scaling c or a by a power of two shifts k by exactly that power."""
    if c_max == 0.0 or a_max == 0.0:
        return 0
    mc, ec = math.frexp(c_max)
    ma, ea = math.frexp(a_max)
    return ec - ea + round(math.log2(mc / ma))


def _reaches_witnesses(z1: np.ndarray, z2: np.ndarray,
                       witness: np.ndarray) -> np.ndarray:
    """Screening rule: keep a candidate whose score at either end of the
    bracket, z1 at one and z2 at the other, reaches the witness set's
    minimum score there.

    It is sound for any witness set T of n candidates: the minimum of their
    score lines is concave, so a candidate strictly below it at both ends
    has n lines above it everywhere inside, stays out of the top n, and
    carries zero weight at the optimum. The witnesses themselves always
    stay, so at least n candidates survive."""
    kept = z1 >= z1[witness].min()
    kept |= z2 >= z2[witness].min()
    return kept


def screen_candidates(state: DualSearchState, inst: OneSidedInstance,
                      ev: DualEvaluation) -> np.ndarray:
    """Drop candidates that miss the top n at both bracket endpoints.

    The rule is _reaches_witnesses' with T the top n of ev, the evaluation
    over state.active at one endpoint; ev is evaluated with tau = 0, so at
    its endpoint the candidates reaching T's minimum, the n-th largest
    score, are exactly its top set with boundary ties. Drops of the
    pre-screen (see _prescreen), held back until the first trial confirms
    its bracket [0, 1], are reported with this call's. Returns the dropped
    original indices.
    """
    act = state.active
    n = inst.n
    # Survivor mask over all m while the pre-screen's drops are unreported.
    full, state.prescreened = state.prescreened, None
    dropped = None
    if math.isfinite(state.lambda_max) and act.size > n:
        other = state.lambda_max if ev.lam == state.lambda_min else state.lambda_min
        # At lambda = 0 the scores c - 0 * a compare exactly as c does.
        v = act.c - other * act.a if other else act.c
        kept = _reaches_witnesses(ev.z, v, ev.sorted.order[:n])
        keep = kept.nonzero()[0]
        if keep.shape[0] < act.size:
            # Positional indexing beats a boolean mask when many drop.
            gone = act.indices.take((~kept).nonzero()[0])
            if full is None:
                dropped = gone
            else:
                full[gone] = False
            state.active = act.keep(keep)
    if full is not None:
        dropped = (~full).nonzero()[0]
    if dropped is None or dropped.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    state.screen_events += 1
    state.dropped.append(dropped)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("screened %d candidates, %d remain", dropped.size, state.active.size)
    return dropped


def _prescreen(inst: OneSidedInstance) -> tuple[ActiveSet, np.ndarray]:
    """Survivors of the screening rule (_reaches_witnesses) over [0, 1],
    and their mask over all m. The witnesses are the n candidates whose
    smaller end score, min(c, c - a), is largest among every step-th
    candidate, where step keeps that sample near PRESCREEN_SAMPLE: such a
    witness set has both of its thresholds high. Survivors keep ascending
    index order and every candidate scoring at least the n-th largest at
    lambda = 1, so an evaluation at 1 over them equals the full-width one."""
    c = inst.c
    z = c - inst.a  # bit for bit eval_dual's c + (-1) a
    step = max(inst.m // max(PRESCREEN_SAMPLE, inst.n), 1)
    q = np.minimum(c[::step], z[::step])
    cut = q.shape[0] - inst.n
    kept = _reaches_witnesses(c, z, q.argpartition(cut)[cut:] * step)
    keep = kept.nonzero()[0]
    return ActiveSet(keep, c.take(keep), inst.a.take(keep)), kept


def solve_dual_bisection(inst: OneSidedInstance,
                         opts: Optional[SolveOptions] = None) -> BisectionResult:
    """Minimize g over lambda >= 0.

    Bisection on the sign of the one-sided derivatives brackets the
    minimizer; once the bracket is narrower than 1e-2 (1 + lambda_max) at
    the first closed bracket, stepping to the nearest kink on the side of
    the minimum and testing the subgradient condition there, with the kink
    tie tolerance, lands on lambda* exactly.
    Optional screening shrinks the active candidate set using the bracket;
    the first time it leaves at most n + SELECT_SLACK survivors, the next
    trial point is their crossing in the bracket where g is smallest, and a
    kink step from it follows whether or not the bracket is narrow.
    Screening starts before the first trial at lambda = 1, over the
    provisional bracket [0, 1]; if that trial leaves the bracket open, the
    survivors are discarded and doubling runs on all m candidates.

    The search decides feasibility: a closed bracket exhibits an assignment
    with diversity at most b2, and with the unconstrained optimum above b2 it
    spans the bound. If the first trial leaves the bracket open, one range
    check, div_min > b2, raises InfeasibleError; otherwise doubling goes on
    up to LAMBDA_LIMIT and ends with no lambda*. The search also ends with
    no lambda* at a bracket BRACKET_FLOOR wide or after MAX_EVALUATIONS
    evaluations of g.
    """
    opts = opts or SolveOptions()
    if opts.screening:
        active, prescreened = _prescreen(inst)
    else:
        active, prescreened = ActiveSet.full(inst), None
    state = DualSearchState(lambda_min=0.0, lambda_max=np.inf, lam=1.0,
                            active=active, prescreened=prescreened)
    # Bracket width below which a kink step follows each trial; fixed at
    # the first closed bracket.
    big_delta = None
    crossed = not opts.screening  # the batched crossing step runs at most once
    picked = False  # state.lam is the crossing that step picked

    while state.iterations < MAX_EVALUATIONS:
        state.bracket_history.append((state.lambda_min, state.lambda_max))
        ev = eval_dual(inst, state.lam, state.active, tau=0.0)
        state.iterations += 1
        if _optimal(ev):
            if state.prescreened is not None:
                screen_candidates(state, inst, ev)
            return BisectionResult(state.lam, ev,
                                   (state.lambda_min, state.lambda_max), state)
        # g_plus < 0: the minimum lies strictly to the right; else g_minus > 0
        # and it lies strictly to the left.
        forward = ev.g_plus < 0.0
        if picked or (big_delta is not None
                      and state.lambda_max - state.lambda_min < big_delta):
            if forward:
                k = kink_right(ev, state.active)
            else:
                k = kink_left(ev, state.active)
                if k is None and state.lambda_min == 0.0:
                    k = 0.0  # affine down to the boundary
            # A kink nearer than half an ulp rounds onto state.lam itself;
            # the kink tolerance still certifies it there.
            if k is not None and math.isfinite(k):
                zk = state.active.c - k * state.active.a
                ev_k = eval_dual(inst, k, state.active, tau=kink_tie_tol(zk))
                state.iterations += 1
                if _optimal(ev_k):
                    bracket = ((state.lam, state.lambda_max) if forward
                               else (state.lambda_min, state.lam))
                    return BisectionResult(k, ev_k, bracket, state)
        picked = False
        if forward:
            state.lambda_min = state.lam
            if math.isinf(state.lambda_max):
                # The first trial left the bracket open: settle feasibility,
                # and drop the pre-screen, whose bracket [0, 1] was wrong.
                if state.lam == 1.0:
                    if _div_min(inst) > inst.b2:
                        raise InfeasibleError("every assignment's diversity exceeds b2")
                    if state.prescreened is not None:
                        state.active, state.prescreened = ActiveSet.full(inst), None
                state.lam *= 2.0
                if state.lam > LAMBDA_LIMIT:
                    break
            else:
                state.lam = 0.5 * (state.lambda_min + state.lambda_max)
        else:
            state.lambda_max = state.lam
            if big_delta is None:
                big_delta = 1e-2 * (1.0 + state.lambda_max)
            state.lam = 0.5 * (state.lambda_min + state.lambda_max)
        if opts.screening and math.isfinite(state.lambda_max):
            screen_candidates(state, inst, ev)
            if not crossed and state.active.size <= inst.n + SELECT_SLACK:
                # Inside the bracket only survivors reach the top n, so every
                # kink of g there is a crossing of two survivors' lines.
                crossed = True
                pick = lowest_crossing(inst, state.active,
                                       state.lambda_min, state.lambda_max)
                if pick is not None:
                    state.lam, picked = pick, True
        if state.lambda_max - state.lambda_min <= BRACKET_FLOOR:
            break

    return BisectionResult(None, None, (state.lambda_min, state.lambda_max), state)


def recover_primal(lambda_star: Optional[float],
                   evaluation: Optional[DualEvaluation],
                   inst: OneSidedInstance, active: ActiveSet) -> PrimalMixture:
    """Mix the two diversity-extreme maximizers at lambda* so the upper
    bound holds with equality; both are dual-optimal, so the mixture's
    objective equals g(lambda*) and strong duality is exact. active is the
    set the evaluation ran over; its indices turn the evaluation's slot
    positions into candidates."""
    if lambda_star is None or evaluation is None:
        raise BracketOnlyError("no exact lambda*; only a bracket is available")
    return _mix_extremes(inst.c, inst.w, active.indices[evaluation.slots_min],
                         active.indices[evaluation.slots_max],
                         evaluation.min_div, evaluation.max_div, inst.b2)


def _rounding_allowance(inst: OneSidedInstance, lam: float, g: float,
                        c_max: float, a_max: float) -> float:
    """How far rounding can move g(lam), and a diversity judged against b2
    (a move lam multiplies): a few units in the last place of the
    magnitudes involved, with c_max, a_max = max|c|, max|a| of inst."""
    scale = (float(inst.w.sum()) * (c_max + 2.0 * lam * a_max)
             + lam * abs(inst.b2) + abs(g))
    return (inst.n + 2) * math.ulp(1.0) * scale


def _bracket_fallback(inst: OneSidedInstance, result: BisectionResult,
                      b1: float, c_max: float,
                      a_max: float) -> tuple[PrimalMixture, float, float]:
    """Feasible mixture from an inexact bracket, with a weak-duality gap
    bound. Reached when the search ends without lambda*: after
    MAX_EVALUATIONS, at a bracket BRACKET_FLOOR wide, or past LAMBDA_LIMIT.
    b1 is the lower diversity bound expressed in the reduced sign
    convention; c_max, a_max are max|c|, max|a| of inst."""
    lo, hi = result.bracket
    lam_hat = hi if np.isfinite(hi) else lo
    active = result.state.active
    z = active.c - lam_hat * active.a
    ev = eval_dual(inst, lam_hat, active, tau=kink_tie_tol(z))
    s1, s2 = active.indices[ev.slots_min], active.indices[ev.slots_max]
    d1, d2 = ev.min_div, ev.max_div
    # When the maximizing face at lam_hat reaches the feasible band, the
    # largest feasible diversity among mixtures of its extremes carries the
    # best original objective (they tie on (c - lam a)' X w).
    if max(b1, d1) > min(inst.b2, d2):
        # Give up on near-optimality: mix the global diversity extremes,
        # which a closed bracket or the search's range check guarantees
        # straddle the feasible band.
        s1 = _extreme_slots(inst.a, inst.n, largest=False)
        s2 = _extreme_slots(inst.a, inst.n, largest=True)
        d1 = float(np.dot(inst.w, inst.a[s1]))
        d2 = float(np.dot(inst.w, inst.a[s2]))
    mixture = _mix_extremes(inst.c, inst.w, s1, s2, d1, d2, min(inst.b2, d2))
    # g(lam_hat) bounds the optimum in exact arithmetic; rounding moves it.
    slack = _rounding_allowance(inst, lam_hat, ev.g, c_max, a_max)
    return mixture, max(0.0, ev.g - mixture.objective) + slack, lam_hat


def solve(inst: Instance, opts: Optional[SolveOptions] = None) -> Solution:
    """Full pipeline. Raises InfeasibleError, with the attainable diversity
    range, when no assignment satisfies the diversity bounds; the dual search
    decides that, so feasible solves run no separate range pass. Wall time
    covers the whole call but for wrapping the result in its Solution
    record, not JSON I/O."""
    t0 = time.perf_counter_ns()
    opts = opts or SolveOptions()
    red = reduce_two_sided(inst)
    if red.kind == REDUCE_ALREADY_OPTIMAL:
        stats = SolveStats()
        stats.wall_time_us = (time.perf_counter_ns() - t0) / 1e3
        return Solution(status=red.status, lambda_star=0.0,
                        mixture=red.mixture, stats=stats)

    one = red.one_sided
    c_max, a_max = _magnitudes(one)
    shift = _scale_exponent(c_max, a_max)
    if shift:
        one = OneSidedInstance(one.c, np.ldexp(one.a, shift), one.w,
                               math.ldexp(one.b2, shift))
        a_max = math.ldexp(a_max, shift)
    try:
        result = solve_dual_bisection(one, opts)
    except InfeasibleError:
        pre = precheck_feasibility(inst)
        raise InfeasibleError(
            f"diversity range [{pre.div_min:.6g}, {pre.div_max:.6g}] misses "
            f"[{inst.b1:.6g}, {inst.b2:.6g}]", pre) from None
    if result.lambda_star is not None:
        mixture = recover_primal(result.lambda_star, result.evaluation, one,
                                 result.state.active)
        lambda_star = result.lambda_star
        exact = True
        # Strong duality makes the two equal in exact arithmetic.
        g = result.evaluation.g
        gap = abs(g - mixture.objective) + _rounding_allowance(
            one, lambda_star, g, c_max, a_max)
    else:
        b1_red = inst.b1 if red.kind == REDUCE_UPPER else -inst.b2
        mixture, gap, lambda_star = _bracket_fallback(
            one, result, math.ldexp(b1_red, shift), c_max, a_max)
        exact = False
        log.warning("bisection ended with bracket %s; returning endpoint "
                    "assignment with duality gap <= %.3g", result.bracket, gap)
    status = STATUS_UPPER_ACTIVE
    # Undo the power-of-two scaling of a exactly: lambda grows with it and the
    # diversity shrinks against it. Negating a dot product is exact too, so on
    # the lower-as-upper path this is the original diversity.
    lambda_star = math.ldexp(lambda_star, shift)
    if shift or red.kind == REDUCE_LOWER_AS_UPPER:
        diversity = math.ldexp(mixture.diversity, -shift)
        if red.kind == REDUCE_LOWER_AS_UPPER:
            diversity = -diversity
            status = STATUS_LOWER_ACTIVE
        mixture = replace(mixture, diversity=diversity)
    dropped = np.concatenate(result.state.dropped or [np.empty(0, dtype=np.intp)])
    stats = SolveStats(
        iterations=result.state.iterations,
        screen_events=result.state.screen_events,
        dropped=int(dropped.size),
        exact=exact,
        duality_gap=gap,
        dropped_indices=dropped,
    )
    stats.wall_time_us = (time.perf_counter_ns() - t0) / 1e3
    return Solution(status=status, lambda_star=lambda_star,
                    mixture=mixture, stats=stats)
