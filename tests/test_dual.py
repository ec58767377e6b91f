"""Dual function values, one-sided derivatives, and kink geometry."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divrank.dual as dual
from conftest import random_one_sided_arrays
from divrank.dual import (PARALLEL_RTOL, ActiveSet, OneSidedInstance, eval_dual,
                          kink_left, kink_right, kink_tie_tol, lowest_crossing,
                          trace_kinks)
from divrank.oracle import oracle_dual_breakpoints, oracle_kink_set


def make(c, a, w, b2):
    inst = OneSidedInstance(c=np.asarray(c, float), a=np.asarray(a, float),
                            w=np.asarray(w, float), b2=float(b2))
    return inst, ActiveSet.full(inst)


class TestEvalDual:
    def test_values_on_running_instance(self):
        inst, act = make([3, 2, 0], [1, -1, 0], [1], 0.0)
        ev0 = eval_dual(inst, 0.0, act)
        assert (ev0.g, ev0.g_minus, ev0.g_plus) == (3.0, -1.0, -1.0)
        ev = eval_dual(inst, 0.5, act, tau=kink_tie_tol(inst.c - 0.5 * inst.a))
        assert (ev.g, ev.g_minus, ev.g_plus) == (2.5, -1.0, 1.0)
        assert set(ev.sorted.order[:ev.topset.top_end].tolist()) == {0, 1}
        ev2 = eval_dual(inst, 2.0, act)
        assert (ev2.g, ev2.g_minus, ev2.g_plus) == (4.0, 1.0, 1.0)

    def test_extreme_assignments_at_tie(self):
        inst, act = make([3, 2, 0], [1, -1, 0], [1], 0.0)
        ev = eval_dual(inst, 0.5, act, tau=1e-9 * 2.5)
        assert ev.slots_min.tolist() == [1] and ev.min_div == -1.0
        assert ev.slots_max.tolist() == [0] and ev.max_div == 1.0

    def test_derivative_identities_random(self):
        for rep in range(60):
            c, a, w, n = random_one_sided_arrays((401, rep))
            inst, act = make(c, a, w, 0.3)
            lam = float(np.random.default_rng((402, rep)).uniform(0, 3))
            ev = eval_dual(inst, lam, act)
            assert ev.g_minus <= ev.g_plus + 1e-12
            z = c - lam * a
            top = np.sort(z)[::-1][:n]
            assert ev.g == pytest.approx(float(np.dot(w, top)) + 0.3 * lam, rel=1e-12)
            assert ev.g_minus == pytest.approx(0.3 - ev.max_div, rel=1e-12)
            assert ev.g_plus == pytest.approx(0.3 - ev.min_div, rel=1e-12)


class TestKinkStepping:
    def test_rising_outsider_detected(self):
        # The only kink is candidate 1 overtaking candidate 0 at lambda = 1.
        inst, act = make([3, 2], [1, 0], [1], 0.0)
        ev = eval_dual(inst, 0.0, act)
        assert kink_right(ev, act) == 1.0

    def test_nearest_right_kink(self):
        inst, act = make([3, 2, 0], [1, -1, 0], [1], 0.0)
        assert kink_right(eval_dual(inst, 0.0, act), act) == 0.5

    def test_no_crossings_is_infinite(self):
        inst, act = make([3, 2], [0, 0], [1], 0.0)
        assert kink_right(eval_dual(inst, 0.0, act), act) == np.inf

    def test_nearest_left_kink(self):
        inst, act = make([3, 2, 0], [1, -1, 0], [1], 0.0)
        assert kink_left(eval_dual(inst, 2.0, act), act) == 0.5

    def test_left_of_first_kink_is_none(self):
        inst, act = make([3, 2, 0], [1, -1, 0], [1], 0.0)
        assert kink_left(eval_dual(inst, 0.25, act), act) is None

    def test_constant_diversity_left_none(self):
        inst, act = make([3, 2, 0], [0, 0, 0], [1], 0.0)
        assert kink_left(eval_dual(inst, 5.0, act), act) is None

    def test_kinks_bracket_current_point(self):
        for rep in range(40):
            c, a, w, n = random_one_sided_arrays((403, rep), m_max=15)
            inst, act = make(c, a, w, 0.0)
            lam = float(np.random.default_rng((404, rep)).uniform(0, 2))
            ev = eval_dual(inst, lam, act)
            kr = kink_right(ev, act)
            kl = kink_left(ev, act)
            assert kr > lam
            if kl is not None:
                assert 0.0 <= kl < lam


def reference_offsets(ev, active, forward):
    """Every positive crossing offset against the top set, from one
    m x |top set| pass: the kink step before it was blocked."""
    t_idx = dual._one_sided_top(ev, active, forward)
    num = ev.z[:, None] - ev.z[t_idx][None, :]
    den = active.a[:, None] - active.a[t_idx][None, :]
    if not forward:
        den = -den
    a_tol = PARALLEL_RTOL * float(np.abs(active.a).max()) if active.a.size else 0.0
    z_tol = ev.tau
    valid = ((num > z_tol) & (den > a_tol)) | ((num < -z_tol) & (den < -a_tol))
    return num[valid] / den[valid]


@st.composite
def kink_cases(draw):
    """(instance, active set, lam, tau) on grid scores: ties across the
    rank-n cut, duplicated rows and parallel lines are all common."""
    m = draw(st.integers(1, 60))
    n = draw(st.integers(1, min(m, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = draw(st.sampled_from((0.25, 0.5, 1.0)))
    span = draw(st.integers(1, 6))
    c = rng.integers(-4 * span, 4 * span + 1, size=m) * step
    a = rng.integers(-span, span + 1, size=m) * step  # few slopes: parallels
    dup = draw(st.integers(0, m // 2))
    if dup:
        src, dst = rng.integers(0, m, size=(2, dup))
        c[dst], a[dst] = c[src], a[src]
    inst = OneSidedInstance(c, a, np.linspace(1.0, 0.5, n), 0.0)
    act = ActiveSet.full(inst)
    if m > n and draw(st.booleans()):  # a screened active set
        act = act.keep(np.sort(rng.permutation(m)[:draw(st.integers(n, m))]))
    # lam at a crossing of two lines (a tie, often at the cut) or on a grid.
    i, j = rng.integers(0, m, size=2)
    if a[i] != a[j] and draw(st.booleans()):
        lam = abs((c[i] - c[j]) / (a[i] - a[j]))
    else:
        lam = draw(st.sampled_from((0.0, 0.25, 0.5, 1.0, 1.5, 3.0)))
    z = act.c - lam * act.a
    tau = kink_tie_tol(z) if draw(st.booleans()) else 0.0
    return inst, act, float(lam), tau


class TestBlockedKinkStep:
    @settings(max_examples=400)
    @given(kink_cases())
    def test_equals_one_pass_minimum_bit_for_bit(self, case):
        inst, act, lam, tau = case
        ev = eval_dual(inst, lam, act, tau=tau)
        right = reference_offsets(ev, act, True)
        left = reference_offsets(ev, act, False)
        want_right = ev.lam + float(right.min()) if right.size else np.inf
        want_left = ev.lam - float(left.min()) if left.size else None
        if want_left is not None and want_left < 0.0:
            want_left = None
        top = dual._one_sided_top(ev, act, True).size
        for block in (1, 7, top, 3 * top + 1, 1 << 16):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dual, "KINK_BLOCK", block)
                assert kink_right(ev, act) == want_right, block
                assert kink_left(ev, act) == want_left, block

    def test_memory_is_bounded_at_large_m(self):
        rng = np.random.default_rng(451)
        m, n = 100_000, 10
        inst, act = make(rng.normal(size=m), rng.normal(size=m),
                         np.linspace(1.0, 0.1, n), 0.0)
        ev = eval_dual(inst, 0.7, act)
        # One m x n pass holds about 18 MiB of temporaries here.
        for step in (kink_right, kink_left):
            tracemalloc.start()
            try:
                step(ev, act)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20, (step.__name__, peak)


class TestPiecewiseStructure:
    def test_affine_between_adjacent_kinks(self):
        for rep in range(40):
            c, a, w, n = random_one_sided_arrays((405, rep), m_max=25)
            inst, act = make(c, a, w, 0.7)
            ev0 = eval_dual(inst, 0.0, act)
            kr = kink_right(ev0, act)
            hi = kr if np.isfinite(kr) else 2.0
            pts = np.linspace(0.0, hi, 5)[1:-1]
            gs = [eval_dual(inst, p, act).g for p in pts]
            slope = (gs[2] - gs[0]) / (pts[2] - pts[0])
            mid = gs[0] + slope * (pts[1] - pts[0])
            assert abs(mid - gs[1]) <= 1e-12 * (1.0 + abs(gs[1]))

    def test_one_sided_derivatives_monotone(self):
        for rep in range(40):
            c, a, w, n = random_one_sided_arrays((406, rep), m_max=25)
            inst, act = make(c, a, w, -0.2)
            rng = np.random.default_rng((407, rep))
            l1, l2 = np.sort(rng.uniform(0, 4, size=2))
            if l1 == l2:
                continue
            e1 = eval_dual(inst, float(l1), act)
            e2 = eval_dual(inst, float(l2), act)
            assert e1.g_plus <= e2.g_minus + 1e-9

    def test_finite_differences_match_slope(self):
        checked = 0
        for rep in range(30):
            c, a, w, n = random_one_sided_arrays((408, rep), m_max=25,
                                                 tie_prone=False)
            inst, act = make(c, a, w, 0.4)
            grid = oracle_dual_breakpoints(inst).breakpoints
            rng = np.random.default_rng((409, rep))
            for _ in range(5):
                i = int(rng.integers(0, grid.size))
                left = grid[i]
                right = grid[i + 1] if i + 1 < grid.size else left + 1.0
                if right - left < 1e-5:
                    continue
                lam = float(0.5 * (left + right))
                h = 1e-7 * (1.0 + lam)
                if lam - h <= left or lam + h >= right:
                    continue
                ev = eval_dual(inst, lam, act)
                assert ev.g_minus == pytest.approx(ev.g_plus, abs=1e-12)
                fd = (eval_dual(inst, lam + h, act).g
                      - eval_dual(inst, lam - h, act).g) / (2.0 * h)
                assert fd == pytest.approx(ev.g_plus, abs=1e-6)
                checked += 1
        assert checked >= 50

    def test_traced_points_have_strict_jumps(self):
        traced_any = 0
        for rep in range(30):
            c, a, w, n = random_one_sided_arrays((410, rep), m_max=15)
            inst, act = make(c, a, w, 0.0)
            for lam in trace_kinks(inst):
                z = c - lam * a
                ev = eval_dual(inst, float(lam), act, tau=kink_tie_tol(z))
                assert ev.g_minus < ev.g_plus
                traced_any += 1
        assert traced_any > 30


class TestTraceCompleteness:
    def test_matches_dense_slope_scan(self):
        for rep in range(60):
            c, a, w, n = random_one_sided_arrays((411, rep), m_max=40)
            inst, _ = make(c, a, w, float(np.random.default_rng((412, rep)).normal()))
            traced = trace_kinks(inst)
            expected = oracle_kink_set(inst)
            assert traced.size == expected.size, (rep, traced, expected)
            if traced.size:
                scale = 1.0 + np.abs(expected)
                assert np.all(np.abs(traced - expected) <= 1e-12 * scale)

    def test_affine_dual_has_no_kinks(self):
        inst, _ = make([3, 2, 1], [0, 0, 0], [1], 0.0)
        assert trace_kinks(inst).size == 0

    def test_tie_tolerance_scale(self):
        z = np.array([4.0, -8.0, 1.0])
        assert kink_tie_tol(z) == 1e-9 * 8.0
        assert kink_tie_tol(np.empty(0)) == 0.0


def plain_g(inst, lam):
    z = np.sort(inst.c - lam * inst.a)[::-1][:inst.n]
    return float(inst.w.dot(z)) + inst.b2 * lam


def crossing_count(inst, lo, hi):
    """Pairs of score lines crossing strictly inside (lo, hi)."""
    i, j = np.triu_indices(inst.m, 1)
    da = inst.a[i] - inst.a[j]
    ok = da != 0.0
    lam = (inst.c[i] - inst.c[j])[ok] / da[ok]
    return int(((lam > lo) & (lam < hi)).sum())


class TestLowestCrossing:
    def test_pick_minimizes_g_over_oracle_grid_in_bracket(self):
        sampled = 0
        for rep in range(80):
            c, a, w, n = random_one_sided_arrays((431, rep), m_max=40)
            rng = np.random.default_rng((432, rep))
            # b2 above the smallest diversity keeps g bounded below.
            b2 = float(w.dot(np.sort(a)[:n])) + abs(float(rng.normal()))
            inst, act = make(c, a, w, b2)
            grid = oracle_dual_breakpoints(inst).breakpoints
            if grid.size < 2:  # no positive crossing at all
                continue
            k = int(rng.integers(1, grid.size))
            j = k + int(rng.integers(0, 40))
            lo = 0.5 * (grid[k - 1] + grid[k])
            hi = 0.5 * (grid[j] + grid[j + 1]) if j + 1 < grid.size else grid[-1] + 1.0
            inside = grid[(grid > lo) & (grid < hi)]
            pick = lowest_crossing(inst, act, lo, hi)
            assert pick is not None and lo < pick < hi
            best = min(plain_g(inst, lam) for lam in inside)
            assert plain_g(inst, pick) <= best + 1e-12 * (1.0 + abs(best))
            sampled += crossing_count(inst, lo, hi) >= 4  # two batches
        assert sampled > 55

    def test_sampling_finds_the_lowest_of_all_crossings(self):
        # 40 lines in general position cross 780 times, so g is sampled at
        # every 27th crossing before the neighbourhood of the best sample.
        for rep in range(20):
            rng = np.random.default_rng((433, rep))
            c, a = rng.normal(size=40), rng.normal(size=40)
            inst, act = make(c, a, [1.0, 0.6, 0.3], 0.5 * float(rng.normal()))
            i, j = np.triu_indices(40, 1)
            lam = (c[i] - c[j]) / (a[i] - a[j])
            lo, hi = float(lam.min()) - 1.0, float(lam.max()) + 1.0
            best = min(plain_g(inst, x) for x in lam)
            pick = lowest_crossing(inst, act, lo, hi)
            assert plain_g(inst, pick) <= best + 1e-12 * (1.0 + abs(best))

    def test_parallel_lines_have_no_crossing(self):
        inst, act = make([3.0, 2.0, 1.0, 0.5], [1.0, 1.0, 1.0, 1.0], [1.0, 0.5], 0.0)
        assert lowest_crossing(inst, act, 0.0, 100.0) is None

    def test_bracket_between_crossings_is_none(self):
        # Lines 3 - lam and 2 + lam cross at 0.5, 3 - lam and 0 at 3.
        inst, act = make([3.0, 2.0, 0.0], [1.0, -1.0, 0.0], [1.0], 0.0)
        assert lowest_crossing(inst, act, 0.5, 0.9) is None
        assert lowest_crossing(inst, act, 0.4, 0.6) == 0.5
