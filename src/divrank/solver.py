"""Solver pipeline: reduce the two-sided bound to one side, minimize the dual
by bisection with exact kink tracing, screen hopeless candidates on the fly,
and recover the optimal primal mixture in closed form.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .dual import (ActiveSet, DualEvaluation, OneSidedInstance, eval_dual,
                   kink_left, kink_right, kink_tie_tol)
from .model import (STATUS_LOWER_ACTIVE, STATUS_UNCONSTRAINED,
                    STATUS_UPPER_ACTIVE, ExtremeAssignment, Instance,
                    PrimalMixture, Solution, SolveStats)
from .rank import solve_unconstrained

log = logging.getLogger(__name__)

# Reduction kinds.
REDUCE_UPPER = "upper"
REDUCE_LOWER_AS_UPPER = "lower_as_upper"
REDUCE_ALREADY_OPTIMAL = "already_optimal"

# Runaway guard for the doubling phase, scaled by the score magnitudes.
LAMBDA_CAP_FACTOR = 1e12


class InfeasibleError(Exception):
    """No assignment satisfies b1 <= weighted diversity <= b2."""

    def __init__(self, message: str, report: Optional["FeasibilityReport"] = None):
        super().__init__(message)
        self.report = report


class BracketOnlyError(Exception):
    """Exact recovery was asked for but only a bracket is available."""


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    div_min: float
    div_max: float


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for the dual search.

    big_delta: bracket width below which kink tracing is attempted; None
      picks 1e-2 * (1 + lambda) at the first finite bracket.
    small_delta: bracket width at which the search gives up on exactness.
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
    bracket_history: list[tuple[float, float]] = field(default_factory=list)
    top_candidates: Optional[np.ndarray] = None


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


def precheck_feasibility(inst: Instance) -> FeasibilityReport:
    """Range of weighted diversity over all assignments, and whether it
    meets [b1, b2]. Heaviest slots take the smallest (largest) diversity
    scores for the minimum (maximum)."""
    a_sorted = np.sort(inst.a)
    div_min = float(np.dot(inst.w, a_sorted[:inst.n]))
    div_max = float(np.dot(inst.w, a_sorted[::-1][:inst.n]))
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
    obj1 = float(np.dot(w, c[s1]))
    obj2 = float(np.dot(w, c[s2]))
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


def _lambda_cap(inst: OneSidedInstance) -> float:
    a_abs = np.abs(inst.a)
    a_max = float(np.max(a_abs)) if a_abs.size else 0.0
    if a_max <= 0.0:
        return np.inf
    c_max = float(np.max(np.abs(inst.c))) if inst.c.size else 0.0
    return LAMBDA_CAP_FACTOR * (1.0 + c_max / a_max)


def screen_candidates(state: DualSearchState, inst: OneSidedInstance) -> np.ndarray:
    """Drop candidates that miss the top n at both bracket endpoints.

    With i_1..i_n the top n at the last evaluated point and thresholds
    theta = min_k (c - lambda a)[i_k] at each endpoint, any candidate
    strictly below both thresholds stays out of the top n for every lambda
    in the bracket, hence carries zero weight at the optimum. The strict
    inequalities keep the top-n witnesses themselves, so the active set
    never shrinks below n. Returns the dropped original indices.
    """
    if state.top_candidates is None or not np.isfinite(state.lambda_max):
        return np.empty(0, dtype=np.intp)
    act = state.active
    top = state.top_candidates
    theta_lo = float(np.min(inst.c[top] - state.lambda_min * inst.a[top]))
    theta_hi = float(np.min(inst.c[top] - state.lambda_max * inst.a[top]))
    v_lo = act.c - state.lambda_min * act.a
    v_hi = act.c - state.lambda_max * act.a
    drop = (v_lo < theta_lo) & (v_hi < theta_hi)
    if not np.any(drop):
        return np.empty(0, dtype=np.intp)
    dropped = act.indices[drop]
    state.active = act.keep(~drop)
    state.screen_events += 1
    state.dropped.append(dropped)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("screened %d candidates, %d remain", dropped.size, state.active.size)
    return dropped


def solve_dual_bisection(inst: OneSidedInstance,
                         opts: Optional[SolveOptions] = None) -> BisectionResult:
    """Minimize g over lambda >= 0.

    Bisection on the sign of the one-sided derivatives brackets the
    minimizer; once the bracket is narrow, stepping to the nearest kink and
    testing the subgradient condition there lands on lambda* exactly.
    Optional screening shrinks the active candidate set using the bracket.
    """
    opts = opts or SolveOptions()
    state = DualSearchState(
        lambda_min=0.0, lambda_max=np.inf, lam=1.0,
        active=ActiveSet.full(inst),
        big_delta=opts.big_delta, small_delta=opts.small_delta,
    )
    n = inst.n
    cap = _lambda_cap(inst)

    while state.iterations < opts.max_iterations:
        state.bracket_history.append((state.lambda_min, state.lambda_max))
        ev = eval_dual(inst, state.lam, state.active, tau=0.0)
        state.iterations += 1
        if _optimal(ev):
            return BisectionResult(state.lam, ev,
                                   (state.lambda_min, state.lambda_max), state)
        narrow = (state.big_delta is not None
                  and state.lambda_max - state.lambda_min < state.big_delta)
        if ev.g_plus < 0.0:
            # Minimum lies strictly to the right.
            if narrow:
                kr = kink_right(ev, state.active)
                if np.isfinite(kr) and kr > state.lam:
                    zk = state.active.c - kr * state.active.a
                    ev_k = eval_dual(inst, kr, state.active, tau=kink_tie_tol(zk))
                    state.iterations += 1
                    if _optimal(ev_k):
                        return BisectionResult(kr, ev_k,
                                               (state.lam, state.lambda_max), state)
            state.lambda_min = state.lam
            if np.isinf(state.lambda_max):
                state.lam *= 2.0
                if state.lam > cap:
                    raise InfeasibleError(
                        "dual descends beyond the runaway cap; instance is "
                        "degenerate or numerically infeasible")
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
        if opts.screening and np.isfinite(state.lambda_max):
            state.top_candidates = state.active.indices[ev.sorted.order[:n]]
            screen_candidates(state, inst)
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


def _bracket_fallback(inst: OneSidedInstance, result: BisectionResult,
                      b1: float) -> tuple[PrimalMixture, float, float]:
    """Feasible mixture from an inexact bracket, with a weak-duality gap
    bound. Only reachable when tracing never landed exactly. b1 is the lower
    diversity bound expressed in the reduced sign convention."""
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
        # which the precheck guarantees straddle the feasible band.
        order = np.argsort(inst.a, kind="stable")
        s1, s2 = order[:inst.n], order[::-1][:inst.n]
        d1 = float(np.dot(inst.w, inst.a[s1]))
        d2 = float(np.dot(inst.w, inst.a[s2]))
    mixture = _mix_extremes(inst.c, inst.w, s1, s2, d1, d2, min(inst.b2, d2))
    return mixture, max(0.0, ev.g - mixture.objective), lam_hat


def solve(inst: Instance, opts: Optional[SolveOptions] = None) -> Solution:
    """Full pipeline. Raises InfeasibleError when no assignment satisfies
    the diversity bounds. Wall time covers the whole call but for wrapping
    the result in its Solution record, not JSON I/O."""
    t0 = time.perf_counter_ns()
    opts = opts or SolveOptions()
    pre = precheck_feasibility(inst)
    if not pre.feasible:
        raise InfeasibleError(
            f"diversity range [{pre.div_min:.6g}, {pre.div_max:.6g}] misses "
            f"[{inst.b1:.6g}, {inst.b2:.6g}]", pre)
    red = reduce_two_sided(inst)
    if red.kind == REDUCE_ALREADY_OPTIMAL:
        stats = SolveStats()
        stats.wall_time_us = (time.perf_counter_ns() - t0) / 1e3
        return Solution(status=red.status, lambda_star=0.0,
                        mixture=red.mixture, stats=stats)

    one = red.one_sided
    result = solve_dual_bisection(one, opts)
    if result.lambda_star is not None:
        mixture = recover_primal(result.lambda_star, result.evaluation, one)
        lambda_star = result.lambda_star
        exact = True
        gap = 0.0
    else:
        b1_red = inst.b1 if red.kind == REDUCE_UPPER else -inst.b2
        mixture, gap, lambda_star = _bracket_fallback(one, result, b1_red)
        exact = False
        log.warning("bisection ended with bracket %s; returning endpoint "
                    "assignment with duality gap <= %.3g", result.bracket, gap)
    status = STATUS_UPPER_ACTIVE
    if red.kind == REDUCE_LOWER_AS_UPPER:
        # Negating a dot product is exact, so this is the original diversity.
        mixture = replace(mixture, diversity=-mixture.diversity)
        status = STATUS_LOWER_ACTIVE
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
    return Solution(status=status, lambda_star=float(lambda_star),
                    mixture=mixture, stats=stats)
