"""Independent ground-truth solvers for testing and the verify command.

The oracles deliberately avoid the production dual/solver code paths: the
dual is re-evaluated from scratch with plain sorts, the minimizer is located
on the exhaustive O(m^2) grid of candidate crossing ratios, and tiny
instances are settled by enumerating every injective assignment and every
two-assignment mixture, answered with the solver's own PrimalMixture record
(None when no mixture meets the bounds). trace_kinks is the exception: it
walks g's kinks with the production kink step, so that tests can hold that
step against oracle_kink_set.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dual import (ActiveSet, OneSidedInstance, eval_dual, kink_right,
                   kink_tie_tol, scores)
from .model import ExtremeAssignment, Instance, PrimalMixture

# Largest m accepted by the breakpoint oracle (the grid is O(m^2)).
BREAKPOINT_SIZE_CAP = 2000
# Largest m accepted by the kink-set oracle (a dense scan of every gap).
KINK_SCAN_CAP = 200
# Largest (m, n) accepted by the brute-force oracle.
BRUTE_FORCE_CAP = (7, 3)
# Relative tolerance by which oracle_support widens the top-n threshold.
SUPPORT_RTOL = 1e-9
# Candidate ratios closer than this, relative to their size, are merged into
# one kink; purely relative, so the grid resolves kinks at any scale.
MERGE_RTOL = 1e-12


class SizeCapError(ValueError):
    """Instance too large for an exhaustive oracle."""


class UnboundedDualError(ValueError):
    """g decreases for all lambda: the one-sided problem is infeasible."""


@dataclass(frozen=True)
class OracleDualResult:
    lambda_star: float
    g_star: float
    breakpoints: np.ndarray  # 0 followed by all positive candidate ratios
    g_minus: Optional[float]  # slope just left of lambda*, None at lambda*=0
    g_plus: float  # slope just right of lambda*


def _g_value(inst: OneSidedInstance, lam: float) -> float:
    z = inst.c - lam * inst.a
    top = np.sort(z)[::-1][:inst.n]
    return float(np.dot(inst.w, top)) + inst.b2 * lam


def _slope_at(inst: OneSidedInstance, lam: float) -> float:
    """Derivative of g on the linear piece containing lam (lam not a kink)."""
    z = inst.c - lam * inst.a
    idx = np.argsort(-z, kind="stable")[:inst.n]
    return inst.b2 - float(np.dot(inst.w, inst.a[idx]))


def _candidate_grid(inst: OneSidedInstance) -> np.ndarray:
    """0 plus every positive pairwise crossing ratio, merged at MERGE_RTOL.

    Each pair is taken once, with a_i > a_j as in dual.lowest_crossing (the
    other orientation's quotient has the same bits). A sorted ratio within
    MERGE_RTOL of the ratio before it, not of the last kept one, is merged:
    a chain of near-equal ratios keeps only its first, however far it spans."""
    a, c = inst.a, inst.c
    da = a[:, None] - a
    mask = da > 1e-15 * float(np.max(np.abs(a)))
    r = (c[:, None] - c)[mask] / da[mask]
    r = np.unique(r[np.isfinite(r) & (r > 0.0)])
    r = r[np.diff(r, prepend=-np.inf) > MERGE_RTOL * r]
    return np.concatenate(([0.0], r))


def _gap_midpoints(grid: np.ndarray) -> np.ndarray:
    """A point inside each gap: gap i follows grid[i], the last is unbounded."""
    return np.append(0.5 * (grid[:-1] + grid[1:]), grid[-1] + 1.0 + grid[-1])


def oracle_dual_breakpoints(inst: OneSidedInstance) -> OracleDualResult:
    """Exact dual minimizer from the exhaustive crossing-ratio grid.

    Between consecutive grid points g is linear (every kink is a grid point)
    and its slope is nondecreasing by convexity, so the first gap with
    nonnegative slope pins lambda*: the left end of that gap, favoring the
    smallest minimizer on a flat stretch. Exact up to float arithmetic.
    """
    if inst.m > BREAKPOINT_SIZE_CAP:
        raise SizeCapError(f"m={inst.m} exceeds the breakpoint oracle cap "
                           f"{BREAKPOINT_SIZE_CAP}")
    grid = _candidate_grid(inst)
    mids = _gap_midpoints(grid)
    if _slope_at(inst, mids[-1]) < 0.0:
        raise UnboundedDualError("g decreases on the final piece; "
                                 "upper bound unattainable")
    lo, hi = 0, grid.shape[0] - 1
    if _slope_at(inst, mids[0]) >= 0.0:
        first = 0
    else:
        # Invariant: slope(gap lo) < 0 <= slope(gap hi).
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _slope_at(inst, mids[mid]) >= 0.0:
                hi = mid
            else:
                lo = mid
        first = hi
    lam_star = float(grid[first])
    g_minus = None if first == 0 else _slope_at(inst, mids[first - 1])
    g_plus = _slope_at(inst, mids[first])
    return OracleDualResult(
        lambda_star=lam_star,
        g_star=_g_value(inst, lam_star),
        breakpoints=grid,
        g_minus=g_minus,
        g_plus=g_plus,
    )


def oracle_kink_set(inst: OneSidedInstance) -> np.ndarray:
    """True kinks of g: grid points whose neighboring pieces change slope.

    Evaluates the slope on every gap (dense scan), so keep m small.
    """
    if inst.m > KINK_SCAN_CAP:
        raise SizeCapError(f"m={inst.m} exceeds the kink-scan cap {KINK_SCAN_CAP}")
    grid = _candidate_grid(inst)
    mids = _gap_midpoints(grid)
    z = inst.c[None, :] - mids[:, None] * inst.a[None, :]
    idx = np.argsort(-z, axis=1, kind="stable")[:, :inst.n]
    slopes = inst.b2 - inst.a[idx] @ inst.w
    jump = np.abs(np.diff(slopes))
    scale = 1.0 + np.abs(slopes[:-1])
    is_kink = jump > 1e-12 * scale
    return grid[1:][is_kink]


def trace_kinks(inst: OneSidedInstance) -> np.ndarray:
    """All kinks of g, found by stepping right from 0: at most one per pair
    of candidates, since two score lines cross at most once.

    Each step evaluates with the relaxed kink tie tolerance so the tie group
    at the current kink is excluded from the next step's pair set.
    """
    active = ActiveSet.full(inst)
    lam = 0.0
    out: list[float] = []
    for _ in range(inst.m * (inst.m - 1) // 2 + 2):
        ev = eval_dual(inst, lam, active, tau=kink_tie_tol(scores(active, lam)))
        nxt = kink_right(ev)
        if not math.isfinite(nxt):
            return np.asarray(out)
        out.append(nxt)
        lam = nxt
    raise RuntimeError("kink trace exceeded the pair-count bound; "
                       "scores may be degenerate")


def brute_force_tiny(inst: Instance) -> Optional[PrimalMixture]:
    """Exhaustive optimum over all assignments and two-assignment mixtures.

    An optimal solution always exists in that family: the feasible region is
    the polytope cut by two parallel hyperplanes, so some optimal point lies
    on an edge between two assignment vertices. Returns None when no mixture
    meets the bounds.
    """
    if inst.m > BRUTE_FORCE_CAP[0] or inst.n > BRUTE_FORCE_CAP[1]:
        raise SizeCapError(f"(m={inst.m}, n={inst.n}) exceeds brute-force cap "
                           f"{BRUTE_FORCE_CAP}")
    verts = np.array(list(itertools.permutations(range(inst.m), inst.n)),
                     dtype=np.intp)
    obj_v = inst.c[verts] @ inst.w
    div_v = inst.a[verts] @ inst.w

    d1 = div_v[:, None]
    d2 = div_v[None, :]
    denom = d1 - d2
    with np.errstate(divide="ignore", invalid="ignore"):
        r_a = (inst.b1 - d2) / denom
        r_b = (inst.b2 - d2) / denom
    lo = np.where(denom > 0.0, r_a, r_b)
    hi = np.where(denom > 0.0, r_b, r_a)
    flat = denom == 0.0
    flat_ok = flat & (inst.b1 <= d2) & (d2 <= inst.b2)
    lo = np.where(flat, np.where(flat_ok, 0.0, 1.0), lo)
    hi = np.where(flat, np.where(flat_ok, 1.0, 0.0), hi)
    lo = np.maximum(lo, 0.0)
    hi = np.minimum(hi, 1.0)
    ok = lo <= hi
    if not np.any(ok):
        return None
    slope = obj_v[:, None] - obj_v[None, :]
    rho_best = np.where(slope >= 0.0, hi, lo)
    val = obj_v[None, :] + rho_best * slope
    val = np.where(ok, val, -np.inf)
    flat_idx = int(np.argmax(val))
    i, j = divmod(flat_idx, val.shape[1])
    rho = float(rho_best[i, j])
    return PrimalMixture(x1=ExtremeAssignment(tuple(verts[i].tolist())),
                         x2=ExtremeAssignment(tuple(verts[j].tolist())),
                         rho=rho, objective=float(val[i, j]),
                         diversity=float(rho * div_v[i] + (1.0 - rho) * div_v[j]))


def oracle_support(inst: OneSidedInstance, lambda_star: float) -> np.ndarray:
    """Candidates that any optimal solution may use: the top n scores at
    lambda*, widened by a relative tolerance to absorb the tie group."""
    z = inst.c - lambda_star * inst.a
    thr = np.partition(z, inst.m - inst.n)[inst.m - inst.n]
    tol = SUPPORT_RTOL * max(1.0, float(np.max(np.abs(z))))
    return np.flatnonzero(z >= thr - tol)
