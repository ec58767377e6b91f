"""Dual function values, one-sided derivatives, and kink geometry."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import random_one_sided_arrays
from divrank.dual import (ActiveSet, OneSidedInstance, eval_dual, kink_left,
                          kink_right, kink_tie_tol, lowest_crossing, trace_kinks)
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
