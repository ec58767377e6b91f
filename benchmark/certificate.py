"""Correctness certificate for one solved request, independent of the solver.

A solution passes when
  1. both slot vectors hold n distinct candidates in range;
  2. the mixture's diversity, recomputed from the slots, lies in [b1, b2]
     to 1e-9 relative and matches the reported diversity;
  3. the objective recomputed from the slots matches the reported one;
  4. the objective equals the dual bound g(lambda*), recomputed here with a
     plain np.sort in the active sign convention (the top-n value for an
     unconstrained optimum). By weak duality every feasible mixture scores at
     most g(lambda) for any lambda >= 0, so equality proves optimality.
"""
from __future__ import annotations

import numpy as np

from divrank.dual import OneSidedInstance
from divrank.model import (STATUS_LOWER_ACTIVE, STATUS_UNCONSTRAINED,
                           STATUS_UPPER_ACTIVE, Solution)
from divrank.oracle import oracle_dual_breakpoints

REL_TOL = 1e-9


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= REL_TOL * (1.0 + max(abs(x), abs(y)))


def _top_value(z: np.ndarray, w: np.ndarray) -> float:
    return float(np.dot(w, np.sort(z)[::-1][:w.shape[0]]))


def dual_bound(raw, status: str, lam: float) -> float:
    """g(lam) for the bound that ``status`` says is active."""
    if status == STATUS_UPPER_ACTIVE:
        return _top_value(raw.c - lam * raw.a, raw.w) + raw.b2 * lam
    if status == STATUS_LOWER_ACTIVE:
        # Lower bound as an upper bound on the negated diversity.
        return _top_value(raw.c + lam * raw.a, raw.w) - raw.b1 * lam
    return _top_value(raw.c, raw.w)


def certify(raw, sol: Solution) -> list[str]:
    """Reasons the solution fails the certificate; empty when it passes."""
    problems: list[str] = []
    if not sol.stats.exact:
        problems.append("solver reported an inexact answer")
    mix = sol.mixture
    slots = []
    for name, x in (("x1", mix.x1), ("x2", mix.x2)):
        s = np.asarray(x.slots, dtype=np.int64)
        if (s.shape != (raw.n,) or s.min() < 0 or s.max() >= raw.m
                or np.unique(s).shape[0] != raw.n):
            return problems + [f"{name} slots are not {raw.n} distinct "
                               "candidates in range"]
        slots.append(s)
    rho = float(mix.rho)
    if not 0.0 <= rho <= 1.0:
        return problems + [f"rho={rho} outside [0, 1]"]
    s1, s2 = slots
    w = raw.w
    div = rho * float(np.dot(w, raw.a[s1])) + (1.0 - rho) * float(np.dot(w, raw.a[s2]))
    tol = REL_TOL * (1.0 + max(abs(raw.b1), abs(raw.b2)))
    if not raw.b1 - tol <= div <= raw.b2 + tol:
        problems.append(f"diversity {div!r} outside [{raw.b1!r}, {raw.b2!r}]")
    if not _close(div, sol.diversity):
        problems.append(f"reported diversity {sol.diversity!r} != recomputed {div!r}")
    obj = rho * float(np.dot(w, raw.c[s1])) + (1.0 - rho) * float(np.dot(w, raw.c[s2]))
    if not _close(obj, sol.objective):
        problems.append(f"reported objective {sol.objective!r} != recomputed {obj!r}")
    lam = float(sol.lambda_star)
    if sol.status not in (STATUS_UNCONSTRAINED, STATUS_UPPER_ACTIVE, STATUS_LOWER_ACTIVE):
        problems.append(f"unexpected status {sol.status!r}")
    elif not (np.isfinite(lam) and lam >= 0.0):
        problems.append(f"lambda*={lam!r} is not a finite nonnegative number")
    else:
        bound = dual_bound(raw, sol.status, lam)
        if not _close(obj, bound):
            problems.append(f"objective {obj!r} != dual bound g(lambda*)={bound!r}")
    return problems


def oracle_agrees(raw, sol: Solution) -> bool:
    """Compare against the exhaustive breakpoint oracle (m <= 2000)."""
    if sol.status == STATUS_UPPER_ACTIVE:
        one = OneSidedInstance(raw.c, raw.a, raw.w, raw.b2)
    elif sol.status == STATUS_LOWER_ACTIVE:
        one = OneSidedInstance(raw.c, -raw.a, raw.w, -raw.b1)
    else:
        return _close(sol.objective, _top_value(raw.c, raw.w))
    return _close(sol.objective, oracle_dual_breakpoints(one).g_star)
