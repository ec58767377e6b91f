"""Differential property tests of solve(), screening on and off, against the
independent oracles on adversarial instances: scores on coarse grids,
duplicated (c, a) rows, constant or zero diversity, n = m, b1 = b2 and
bounds sitting exactly on a vertex diversity. On such inputs many score
lines are parallel or cross at one point. A seeded batch of tied draws at
m = 1000-2000 holds the same checks where full-width evaluations select
their top n from a sampled threshold instead of sorting every score."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rel_close
from divrank.model import STATUS_UNCONSTRAINED, default_weights, validate_instance
from divrank.oracle import brute_force_tiny, oracle_dual_breakpoints
from divrank.rank import unconstrained_extremes
from divrank.solver import (InfeasibleError, SolveOptions,
                            precheck_feasibility, reduce_two_sided, solve)

OPTIONS = (SolveOptions(), SolveOptions(screening=False))


@st.composite
def adversarial_instances(draw, max_m: int, max_n: int):
    m = draw(st.integers(1, max_m))
    n = draw(st.one_of(st.just(min(m, max_n)), st.integers(1, min(m, max_n))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = draw(st.sampled_from((0.25, 0.5, 1.0)))
    span = draw(st.integers(1, 8))
    c_span = draw(st.sampled_from((span, 4 * span, 40)))
    c = rng.integers(-c_span, c_span + 1, size=m) * step
    a_kind = draw(st.sampled_from(("grid",) * 4 + ("constant", "zero")))
    if a_kind == "grid":
        a = rng.integers(-span, span + 1, size=m) * step
    else:
        a = np.full(m, 0.0 if a_kind == "zero" else draw(st.sampled_from((-1.5, 1.0))))
    dup = draw(st.integers(0, m // 2))  # copy dup rows over others
    if dup:
        src = rng.integers(0, m, size=dup)
        dst = rng.integers(0, m, size=dup)
        c[dst], a[dst] = c[src], a[src]
    w = (default_weights(n) if draw(st.booleans())
         else np.arange(n, 0, -1, dtype=np.float64))
    # Vertex diversities: two injective assignments' weighted diversities,
    # the lower one as b2 and the higher as b1, so that the bound binds more
    # often than not.
    v_lo, v_hi = sorted(float(w.dot(a[rng.permutation(m)[:n]])) for _ in range(2))
    bound_kind = draw(st.sampled_from(("b2_vertex", "b1_vertex", "equal",
                                       "equal_vertex", "b2_random", "b1_random")))
    lo = float(w.dot(np.sort(a)[:n])) - 1.0
    hi = float(w.dot(np.sort(a)[::-1][:n])) + 1.0
    if bound_kind == "b2_vertex":
        b1, b2 = lo, v_lo
    elif bound_kind == "b1_vertex":
        b1, b2 = v_hi, hi
    elif bound_kind == "equal_vertex":
        b1 = b2 = v_lo
    elif bound_kind == "equal":
        b1 = b2 = float(rng.uniform(lo, hi))
    elif bound_kind == "b2_random":
        b1, b2 = lo, float(rng.uniform(lo, hi))
    else:
        b1, b2 = float(rng.uniform(lo, hi)), hi
    return validate_instance(m, n, c, a, w, b1, b2)


def _g(one, lam: float) -> float:
    """Dual value by a plain full sort, independent of the solver."""
    z = np.sort(one.c - lam * one.a)[::-1][:one.n]
    return float(one.w.dot(z)) + one.b2 * lam


def _solved(inst):
    """Both option sets' solutions, or None when the precheck refuses.
    solve() decides feasibility in its dual search; its verdict, and the
    report it raises, must agree with the precheck."""
    pre = precheck_feasibility(inst)
    if not pre.feasible:
        for opts in OPTIONS:
            with pytest.raises(InfeasibleError) as err:
                solve(inst, opts)
            assert err.value.report == pre
        return None
    sols = [solve(inst, opts) for opts in OPTIONS]
    for sol in sols:
        assert sol.stats.exact
        tol = 1e-9 * (1.0 + abs(inst.b1) + abs(inst.b2))
        assert inst.b1 - tol <= sol.diversity <= inst.b2 + tol
    return sols


def tied_instance_at_large_m(seed: int):
    """m in 1000..2000, n up to 100: Gaussian scores (alpha = 0.5) rounded to
    coarse grids, so ties straddle the rank-n cut, with a tenth of the rows
    duplicated. Four draws in five put one bound between the unconstrained
    optimum's diversity range and the global extreme on its side, so that it
    binds; the fifth puts b2, or b1 = b2, on a random vertex diversity."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1000, 2001))
    n = int(rng.integers(1, 101))
    a_step, c_step = rng.choice((0.125, 0.25, 0.5), size=2)
    e = rng.standard_normal((m, 2))
    a = np.round(e[:, 0] / a_step) * a_step
    c = np.round((0.5 * e[:, 0] + np.sqrt(0.75) * e[:, 1]) / c_step) * c_step
    dst, src = rng.integers(0, m, size=(2, m // 10))
    c[dst], a[dst] = c[src], a[src]
    w = default_weights(n) if seed % 2 else np.arange(n, 0, -1, dtype=np.float64)
    a_sorted = np.sort(a)
    div_lo = float(w.dot(a_sorted[:n]))
    div_hi = float(w.dot(a_sorted[::-1][:n]))
    top = unconstrained_extremes(c, a, w)
    u = float(rng.uniform(0.2, 0.8))
    kind = seed % 5
    if kind < 2:
        b1, b2 = div_lo - 1.0, top.min_div - u * (top.min_div - div_lo)
    elif kind < 4:
        b1, b2 = top.max_div + u * (div_hi - top.max_div), div_hi + 1.0
    else:
        v = float(w.dot(a[rng.permutation(m)[:n]]))
        b1, b2 = (v, v) if seed % 2 else (div_lo - 1.0, v)
    return validate_instance(m, n, c, a, w, b1, b2)


def _agrees_with_breakpoint_oracle(inst) -> bool:
    """Checks both solutions; True when the oracle ran, that is when the
    instance is feasible and its bound binds."""
    sols = _solved(inst)
    if sols is None:
        return False
    red = reduce_two_sided(inst)
    if red.one_sided is None:
        best = float(inst.w.dot(np.sort(inst.c)[::-1][:inst.n]))
        for sol in sols:
            assert rel_close(sol.objective, best, 1e-12)
        return False
    ora = oracle_dual_breakpoints(red.one_sided)
    for sol in sols:
        assert sol.status != STATUS_UNCONSTRAINED
        assert rel_close(sol.objective, ora.g_star)
        # lambda* may be any point of a flat bottom; g there is the minimum.
        assert rel_close(_g(red.one_sided, sol.lambda_star), ora.g_star)
    return True


@settings(max_examples=500)
@given(adversarial_instances(max_m=60, max_n=12))
def test_matches_breakpoint_oracle(inst):
    _agrees_with_breakpoint_oracle(inst)


@settings(max_examples=300)
@given(adversarial_instances(max_m=60, max_n=60))
def test_matches_breakpoint_oracle_at_large_n(inst):
    """n = m or any n in 1..m, for m up to 60: top sets as wide as the
    candidate set, where kink steps and crossing steps pair most rows."""
    _agrees_with_breakpoint_oracle(inst)


def test_matches_breakpoint_oracle_at_large_m():
    """30 tied draws at m = 1000-2000. Every draw whose bound is built to
    bind reaches the dual search, so at least 24 are checked there."""
    searched = sum(_agrees_with_breakpoint_oracle(tied_instance_at_large_m(seed))
                   for seed in range(30))
    assert searched >= 24


@settings(max_examples=300)
@given(adversarial_instances(max_m=7, max_n=3))
def test_matches_brute_force(inst):
    sols = _solved(inst)
    bf = brute_force_tiny(inst)
    if sols is None:
        assert bf is None
        return
    assert bf is not None
    for sol in sols:
        assert rel_close(sol.objective, bf.objective)
