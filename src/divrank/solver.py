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
from .rank import SELECT_SLACK, solve_unconstrained

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
    """Knobs for the dual search.

    big_delta: bracket width below which kink tracing is attempted; None
      picks 1e-2 * (1 + lambda) at the first finite bracket.
    small_delta: bracket width at which the search gives up on exactness.

    solve() measures both widths on lambda after rescaling `a` by the power
    of two nearest max|c| / max|a|; for scores of similar magnitude that
    factor is 1.
    """

    screening: bool = True
    big_delta: Optional[float] = None
    small_delta: float = 1e-10
    max_iterations: int = 200

    def __post_init__(self):
        # Comparisons written so that NaN fails them.
        if not 0.0 <= self.small_delta < np.inf:
            raise ValueError("small_delta must be finite and >= 0")
        if self.big_delta is not None and not self.big_delta > self.small_delta:
            raise ValueError("big_delta must exceed small_delta")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class DualSearchState:
    lambda_min: float
    lambda_max: float
    lam: float
    active: ActiveSet
    big_delta: Optional[float]
    small_delta: float
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
    lambda_star: Optional[float]
    evaluation: Optional[DualEvaluation]
    bracket: tuple[float, float]
    state: DualSearchState


def _div_min(inst: Instance) -> float:
    """Smallest weighted diversity: the heaviest slots take the smallest
    diversity scores; only those n values are sorted."""
    low = np.sort(np.partition(inst.a, inst.n - 1)[:inst.n])
    return float(np.dot(inst.w, low))


def _div_max(inst: Instance) -> float:
    """Largest weighted diversity, from the n largest diversity scores."""
    cut = inst.m - inst.n
    high = np.sort(np.partition(inst.a, cut)[cut:])
    return float(np.dot(inst.w, high[::-1]))


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
    un = solve_unconstrained(inst)
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
    scale of 1, where doubling from 1 and the absolute small_delta work,
    and is exact in floating point. Computed from exponent and mantissa so
    that scaling c or a by a power of two shifts k by exactly that power."""
    if c_max == 0.0 or a_max == 0.0:
        return 0
    mc, ec = math.frexp(c_max)
    ma, ea = math.frexp(a_max)
    return ec - ea + round(math.log2(mc / ma))


def screen_candidates(state: DualSearchState, inst: OneSidedInstance,
                      ev: DualEvaluation) -> np.ndarray:
    """Drop candidates that miss the top n at both bracket endpoints.

    The rule holds for any witness set T of n candidates: the minimum of
    their score lines is concave, so a candidate strictly below it at both
    ends of the bracket has n lines above it everywhere inside, stays out of
    the top n, and carries zero weight at the optimum. Here T is the top n
    of ev, the evaluation over state.active at one endpoint; ev is evaluated
    with tau = 0, so at its endpoint the candidates scoring at least the
    threshold, its n-th largest score, are exactly its top set with boundary
    ties. The strict inequalities keep the witnesses themselves, so the
    active set never shrinks below n. Drops of the pre-screen (see
    _prescreen), held back until the first trial confirms its bracket
    [0, 1], are reported with this call's. Returns the dropped original
    indices.
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
        kept = v >= v[ev.sorted.order[:n]].min()
        kept[ev.sorted.order[:ev.topset.top_end]] = True
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
    """Survivors of screen_candidates' rule over [0, 1], and their mask
    over all m. The witnesses are the n candidates whose smaller end score,
    min(c, c - a), is largest among every step-th candidate, where step
    keeps that sample near PRESCREEN_SAMPLE: such a witness set has both
    of its thresholds high. Survivors keep ascending index order and every
    candidate scoring at least the n-th largest at lambda = 1, so an
    evaluation at 1 over them equals the full-width one."""
    c = inst.c
    z = c - inst.a  # bit for bit eval_dual's c + (-1) a
    step = max(inst.m // max(PRESCREEN_SAMPLE, inst.n), 1)
    q = np.minimum(c[::step], z[::step])
    cut = q.shape[0] - inst.n
    witness = q.argpartition(cut)[cut:] * step
    kept = c >= c[witness].min()
    kept |= z >= z[witness].min()
    keep = kept.nonzero()[0]
    return ActiveSet(keep, c.take(keep), inst.a.take(keep)), kept


def solve_dual_bisection(inst: OneSidedInstance,
                         opts: Optional[SolveOptions] = None) -> BisectionResult:
    """Minimize g over lambda >= 0.

    Bisection on the sign of the one-sided derivatives brackets the
    minimizer; once the bracket is narrow, stepping to the nearest kink and
    testing the subgradient condition there lands on lambda* exactly.
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
    up to LAMBDA_LIMIT and ends with no lambda*.
    """
    opts = opts or SolveOptions()
    if opts.screening:
        active, prescreened = _prescreen(inst)
    else:
        active, prescreened = ActiveSet.full(inst), None
    state = DualSearchState(
        lambda_min=0.0, lambda_max=np.inf, lam=1.0, active=active,
        big_delta=opts.big_delta, small_delta=opts.small_delta,
        prescreened=prescreened,
    )
    crossed = not opts.screening  # the batched crossing step runs at most once
    picked = False  # state.lam is the crossing that step picked

    while state.iterations < opts.max_iterations:
        state.bracket_history.append((state.lambda_min, state.lambda_max))
        ev = eval_dual(inst, state.lam, state.active, tau=0.0)
        state.iterations += 1
        if _optimal(ev):
            if state.prescreened is not None:
                screen_candidates(state, inst, ev)
            return BisectionResult(state.lam, ev,
                                   (state.lambda_min, state.lambda_max), state)
        narrow = picked or (state.big_delta is not None
                            and state.lambda_max - state.lambda_min < state.big_delta)
        picked = False
        if ev.g_plus < 0.0:
            # Minimum lies strictly to the right.
            if narrow:
                kr = kink_right(ev, state.active)
                if math.isfinite(kr) and kr > state.lam:
                    zk = state.active.c - kr * state.active.a
                    ev_k = eval_dual(inst, kr, state.active, tau=kink_tie_tol(zk))
                    state.iterations += 1
                    if _optimal(ev_k):
                        return BisectionResult(kr, ev_k,
                                               (state.lam, state.lambda_max), state)
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
            # g_minus > 0: minimum lies strictly to the left.
            if narrow:
                kl = kink_left(ev, state.active)
                if kl is None and state.lambda_min == 0.0:
                    kl = 0.0  # affine down to the boundary
                if kl is not None and kl < state.lam:
                    zk = state.active.c - kl * state.active.a
                    ev_k = eval_dual(inst, kl, state.active, tau=kink_tie_tol(zk))
                    state.iterations += 1
                    if _optimal(ev_k):
                        return BisectionResult(kl, ev_k,
                                               (state.lambda_min, state.lam), state)
            state.lambda_max = state.lam
            if state.big_delta is None:
                state.big_delta = 1e-2 * (1.0 + state.lambda_max)
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
        if state.lambda_max - state.lambda_min <= opts.small_delta:
            break

    return BisectionResult(None, None, (state.lambda_min, state.lambda_max), state)


def recover_primal(lambda_star: Optional[float],
                   evaluation: Optional[DualEvaluation],
                   inst: OneSidedInstance) -> PrimalMixture:
    """Mix the two diversity-extreme maximizers at lambda* so the upper
    bound holds with equality; both are dual-optimal, so the mixture's
    objective equals g(lambda*) and strong duality is exact."""
    if lambda_star is None or evaluation is None:
        raise BracketOnlyError("no exact lambda*; only a bracket is available")
    return _mix_extremes(inst.c, inst.w, evaluation.slots_min, evaluation.slots_max,
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
    bound. Reached when the search ends without lambda*: at the iteration
    cap, at a bracket narrower than small_delta, or past LAMBDA_LIMIT. b1 is
    the lower diversity bound expressed in the reduced sign convention;
    c_max, a_max are max|c|, max|a| of inst."""
    lo, hi = result.bracket
    lam_hat = hi if np.isfinite(hi) else lo
    z = result.state.active.c - lam_hat * result.state.active.a
    ev = eval_dual(inst, lam_hat, result.state.active, tau=kink_tie_tol(z))
    s1, s2, d1, d2 = ev.slots_min, ev.slots_max, ev.min_div, ev.max_div
    # When the maximizing face at lam_hat reaches the feasible band, the
    # largest feasible diversity among mixtures of its extremes carries the
    # best original objective (they tie on (c - lam a)' X w).
    if max(b1, d1) > min(inst.b2, d2):
        # Give up on near-optimality: mix the global diversity extremes,
        # which a closed bracket or the search's range check guarantees
        # straddle the feasible band.
        order = np.argsort(inst.a, kind="stable")
        s1, s2 = order[:inst.n], order[::-1][:inst.n]
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
        mixture = recover_primal(result.lambda_star, result.evaluation, one)
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
