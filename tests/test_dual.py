"""Dual function values, one-sided derivatives, and kink geometry."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import random_one_sided_arrays
from divrank.dual import (ActiveSet, OneSidedInstance, eval_dual, kink_left,
                          kink_right, kink_tie_tol, trace_kinks)
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
