"""End-to-end solver: reduction, bisection, screening, primal recovery."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import random_tiny_instance, rel_close, strict_weights
from divrank.dual import ActiveSet, OneSidedInstance, eval_dual
from divrank.model import (STATUS_LOWER_ACTIVE, STATUS_UNCONSTRAINED,
                           STATUS_UPPER_ACTIVE, validate_instance)
from divrank.oracle import brute_force_tiny, oracle_dual_breakpoints
from divrank.rank import solve_unconstrained
from divrank.solver import (REDUCE_ALREADY_OPTIMAL, REDUCE_LOWER_AS_UPPER,
                            REDUCE_UPPER, DualSearchState, InfeasibleError,
                            SolveOptions, precheck_feasibility, recover_primal,
                            reduce_two_sided, screen_candidates, solve,
                            solve_dual_bisection)
from divrank.datagen import GenConfig, gen_synthetic


def running_instance(b1=-0.5, b2=0.5):
    return validate_instance(3, 1, [3.0, 2.0, 0.0], [1.0, -1.0, 0.0],
                             [1.0], b1, b2)


class TestPrecheck:
    def test_symmetric_range(self):
        rep = precheck_feasibility(running_instance())
        assert rep.feasible and (rep.div_min, rep.div_max) == (-1.0, 1.0)

    def test_unreachable_bounds(self):
        rep = precheck_feasibility(running_instance(2.0, 3.0))
        assert not rep.feasible

    def test_zero_diversity(self):
        inst = validate_instance(2, 1, [1.0, 0.0], [0.0, 0.0], [1.0], -1.0, 1.0)
        rep = precheck_feasibility(inst)
        assert rep.feasible and rep.div_min == rep.div_max == 0.0

    def test_weighted_extremes(self):
        inst = validate_instance(3, 2, [0.0, 0.0, 0.0], [3.0, -2.0, 1.0],
                                 [2.0, 1.0], 0.0, 0.0)
        rep = precheck_feasibility(inst)
        assert rep.div_min == 2.0 * (-2.0) + 1.0 * 1.0
        assert rep.div_max == 2.0 * 3.0 + 1.0 * 1.0


class TestReduction:
    def test_upper_bound_binds(self):
        red = reduce_two_sided(running_instance())
        assert red.kind == REDUCE_UPPER
        assert red.one_sided.b2 == 0.5
        np.testing.assert_array_equal(red.one_sided.a, [1.0, -1.0, 0.0])

    def test_slack_bounds_already_optimal(self):
        red = reduce_two_sided(running_instance(-3.0, 3.0))
        assert red.kind == REDUCE_ALREADY_OPTIMAL
        assert red.status == STATUS_UNCONSTRAINED
        assert red.mixture.rho == 1.0
        assert red.mixture.x1.slots == (0,)

    def test_lower_bound_becomes_upper(self):
        inst = validate_instance(3, 1, [3.0, 2.0, 0.0], [-1.0, 1.0, 0.0],
                                 [1.0], 0.5, 3.0)
        red = reduce_two_sided(inst)
        assert red.kind == REDUCE_LOWER_AS_UPPER
        np.testing.assert_array_equal(red.one_sided.a, [1.0, -1.0, 0.0])
        assert red.one_sided.b2 == -0.5

    def test_tied_face_needs_mixture(self):
        # Tied optima reach diversity only in {-1, +1}; b1 = b2 = 0 sits
        # strictly between, so the witness is a strict mixture on the face.
        inst = validate_instance(2, 1, [3.0, 3.0], [1.0, -1.0], [1.0], 0.0, 0.0)
        red = reduce_two_sided(inst)
        assert red.kind == REDUCE_ALREADY_OPTIMAL
        assert red.status == STATUS_LOWER_ACTIVE
        assert red.mixture.rho == pytest.approx(0.5)
        assert red.mixture.diversity == 0.0
        sol = solve(inst)
        assert sol.status == STATUS_LOWER_ACTIVE
        assert sol.lambda_star == 0.0
        assert sol.objective == pytest.approx(3.0)

    def test_lower_clamp_keeps_top_n_value(self):
        # Three candidates tie for two slots, so the tied optima reach every
        # diversity in [min_div, max_div] by mixing; a b1 inside clamps the
        # mixture to b1 and must not move the objective off the top-n value.
        inst0 = validate_instance(4, 2, [2.7, 2.7, 2.7, 1.3],
                                  [0.37, -1.13, 0.91, 0.2], [1.0, 0.63],
                                  -10.0, 10.0)
        un = solve_unconstrained(inst0)
        assert un.min_div < un.max_div
        rng = np.random.default_rng(510)
        for b1 in un.min_div + rng.uniform(1e-3, 1.0, 50) * (un.max_div - un.min_div):
            inst = validate_instance(4, 2, inst0.c, inst0.a, inst0.w, b1, 10.0)
            sol = solve(inst)
            assert sol.status == STATUS_LOWER_ACTIVE and sol.lambda_star == 0.0
            assert abs(sol.diversity - b1) <= 1e-12 * abs(b1)
            assert sol.objective == un.value


class TestBisection:
    def test_lands_on_kink(self):
        one = OneSidedInstance(np.array([3.0, 2.0, 0.0]),
                               np.array([1.0, -1.0, 0.0]), np.array([1.0]), 0.0)
        res = solve_dual_bisection(one)
        assert res.lambda_star == pytest.approx(0.5, abs=1e-12)
        assert res.evaluation.g == pytest.approx(2.5, abs=1e-12)

    def test_two_candidate_kink(self):
        one = OneSidedInstance(np.array([3.0, 2.0]), np.array([1.0, 0.0]),
                               np.array([1.0]), 0.5)
        res = solve_dual_bisection(one)
        assert res.lambda_star == pytest.approx(1.0, abs=1e-12)
        assert res.evaluation.g == pytest.approx(2.5, abs=1e-12)

    def test_traces_down_to_zero_when_bound_slack_enough(self):
        one = OneSidedInstance(np.array([3.0, 2.0, 0.0]),
                               np.array([1.0, -1.0, 0.0]), np.array([1.0]), 2.0)
        res = solve_dual_bisection(one)
        assert res.lambda_star == 0.0
        assert res.evaluation.g == pytest.approx(3.0, abs=1e-12)

    def test_flat_stretch_returns_some_minimizer(self):
        # With b2 = 1 the dual is flat on [0, 0.5]; any subgradient point
        # there is optimal, and the minimum value is what matters.
        one = OneSidedInstance(np.array([3.0, 2.0, 0.0]),
                               np.array([1.0, -1.0, 0.0]), np.array([1.0]), 1.0)
        res = solve_dual_bisection(one)
        ora = oracle_dual_breakpoints(one)
        assert res.evaluation.g == pytest.approx(ora.g_star, abs=1e-12)
        assert 0.0 <= res.lambda_star <= 0.5 + 1e-12

    def test_oracle_lambda_always_in_bracket(self):
        for rep in range(40):
            inst = gen_synthetic(GenConfig(m=60, n=5, seed=(501, rep)))
            red = reduce_two_sided(inst)
            ora = oracle_dual_breakpoints(red.one_sided)
            res = solve_dual_bisection(red.one_sided)
            for lo, hi in res.state.bracket_history:
                assert lo <= ora.lambda_star * (1 + 1e-12) + 1e-12
                assert ora.lambda_star <= hi * (1 + 1e-12) + 1e-12
            assert rel_close(res.lambda_star, ora.lambda_star, 1e-9)

    def test_iteration_cap_falls_back_to_bracket(self):
        one = OneSidedInstance(np.array([3.0, 2.0, 0.0]),
                               np.array([1.0, -1.0, 0.0]), np.array([1.0]), 0.0)
        res = solve_dual_bisection(one, SolveOptions(max_iterations=1))
        assert res.lambda_star is None
        lo, hi = res.bracket
        assert lo <= 0.5 <= hi

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(small_delta=-1.0)
        with pytest.raises(ValueError):
            SolveOptions(big_delta=1e-12, small_delta=1e-10)
        with pytest.raises(ValueError):
            SolveOptions(max_iterations=0)
        for small in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SolveOptions(small_delta=small)
        with pytest.raises(ValueError):
            SolveOptions(big_delta=float("nan"))


class TestScreening:
    def test_drops_only_doubly_dominated(self):
        c = np.array([3.0, 2.0, 0.0])
        a = np.array([1.0, -1.0, 0.0])
        one = OneSidedInstance(c, a, np.array([1.0]), 0.5)
        state = DualSearchState(lambda_min=0.4, lambda_max=0.6, lam=0.5,
                                active=ActiveSet.full(one), big_delta=None,
                                small_delta=1e-10)
        state.top_candidates = np.array([0])
        dropped = screen_candidates(state, one)
        assert dropped.tolist() == [2]
        assert state.active.indices.tolist() == [0, 1]
        assert state.screen_events == 1

    def test_noop_without_finite_upper_bracket(self):
        one = OneSidedInstance(np.array([3.0, 2.0]), np.array([1.0, 0.0]),
                               np.array([1.0]), 0.5)
        state = DualSearchState(lambda_min=0.0, lambda_max=np.inf, lam=1.0,
                                active=ActiveSet.full(one), big_delta=None,
                                small_delta=1e-10)
        state.top_candidates = np.array([0])
        assert screen_candidates(state, one).size == 0

    def test_inert_diversity_reduces_to_top_n_of_c(self):
        rng = np.random.default_rng(502)
        c = rng.normal(size=12)
        one = OneSidedInstance(c, np.zeros(12), np.array([1.0, 0.5]), 0.1)
        state = DualSearchState(lambda_min=0.3, lambda_max=0.9, lam=0.6,
                                active=ActiveSet.full(one), big_delta=None,
                                small_delta=1e-10)
        top2 = np.argsort(-c, kind="stable")[:2]
        state.top_candidates = top2
        dropped = screen_candidates(state, one)
        assert set(dropped.tolist()) == set(range(12)) - set(top2.tolist())

    def test_on_off_results_identical(self):
        for rep in range(40):
            inst = gen_synthetic(GenConfig(m=80, n=6, seed=(503, rep)))
            on = solve(inst, SolveOptions(screening=True))
            off = solve(inst, SolveOptions(screening=False))
            assert rel_close(on.objective, off.objective, 1e-12)
            assert on.lambda_star == pytest.approx(off.lambda_star, rel=1e-12)

    def test_never_drops_optimal_support(self):
        for rep in range(60):
            inst = gen_synthetic(GenConfig(m=50, n=5, seed=(504, rep)))
            sol = solve(inst)
            dropped = sol.stats.dropped_indices
            assert isinstance(dropped, np.ndarray) and dropped.dtype.kind == "i"
            assert np.unique(dropped).size == dropped.size == sol.stats.dropped
            assert np.all((dropped >= 0) & (dropped < inst.m))
            assert not (set(dropped.tolist()) & sol.mixture.support())


class TestRecoverPrimal:
    def eval_at(self, one, lam, tau=0.0):
        act = ActiveSet.full(one)
        return eval_dual(one, lam, act, tau=tau)

    def test_balanced_mixture(self):
        one = OneSidedInstance(np.array([3.0, 2.0, 0.0]),
                               np.array([1.0, -1.0, 0.0]), np.array([1.0]), 0.0)
        ev = self.eval_at(one, 0.5, tau=1e-9 * 2.5)
        mix = recover_primal(0.5, ev, one)
        assert mix.rho == pytest.approx(0.5)
        assert mix.x1.slots == (1,) and mix.x2.slots == (0,)
        assert mix.objective == pytest.approx(2.5)
        assert mix.diversity == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_tight_point(self):
        one = OneSidedInstance(np.array([3.0, 2.0, 0.0]),
                               np.array([1.0, -1.0, 0.0]), np.array([1.0]), 1.0)
        ev = self.eval_at(one, 0.0)
        mix = recover_primal(0.0, ev, one)
        assert mix.rho == 1.0
        assert mix.x1.slots == mix.x2.slots == (0,)

    def test_bound_at_max_diversity_vertex(self):
        one = OneSidedInstance(np.array([3.0, 2.0, 0.0]),
                               np.array([1.0, -1.0, 0.0]), np.array([1.0]), 1.0)
        ev = self.eval_at(one, 0.5, tau=1e-9 * 2.5)
        mix = recover_primal(0.5, ev, one)
        assert mix.rho == 0.0
        assert mix.diversity == pytest.approx(1.0)

    def test_rejects_bracket_only(self):
        one = OneSidedInstance(np.array([3.0, 2.0]), np.array([1.0, 0.0]),
                               np.array([1.0]), 0.5)
        from divrank.solver import BracketOnlyError
        with pytest.raises(BracketOnlyError):
            recover_primal(None, None, one)


class TestSolvePipeline:
    def test_running_instance(self):
        sol = solve(running_instance())
        assert sol.status == STATUS_UPPER_ACTIVE
        assert sol.lambda_star == pytest.approx(0.5, abs=1e-12)
        assert sol.objective == pytest.approx(2.75, abs=1e-12)
        assert sol.mixture.rho == pytest.approx(0.25, abs=1e-12)
        assert sol.diversity == pytest.approx(0.5, abs=1e-12)
        assert sol.stats.exact and sol.stats.duality_gap == 0.0

    def test_slack_bounds(self):
        sol = solve(running_instance(-3.0, 3.0))
        assert sol.status == STATUS_UNCONSTRAINED
        assert sol.lambda_star == 0.0 and sol.mixture.rho == 1.0
        assert sol.objective == 3.0

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError) as err:
            solve(running_instance(2.0, 3.0))
        assert err.value.report is not None
        assert not err.value.report.feasible

    def test_lower_active_via_sign_flip(self):
        inst = validate_instance(3, 1, [3.0, 2.0, 0.0], [-1.0, 1.0, 0.0],
                                 [1.0], -0.5, 10.0)
        sol = solve(inst)
        assert sol.status == STATUS_LOWER_ACTIVE
        assert sol.diversity == pytest.approx(-0.5, abs=1e-12)
        assert sol.objective == pytest.approx(2.75, abs=1e-12)

    def test_lower_active_reports_original_values_exactly(self):
        # The bisection runs on the negated diversity scores; the reported
        # objective and diversity are those of the two slot vectors in the
        # original data, bit for bit.
        for rep in range(30):
            base = gen_synthetic(GenConfig(m=60, n=5, seed=(511, rep)))
            inst = validate_instance(base.m, base.n, base.c, -base.a, base.w,
                                     base.b1, base.b2)
            sol = solve(inst)
            assert sol.status == STATUS_LOWER_ACTIVE and sol.lambda_star > 0.0
            mix = sol.mixture
            s1, s2 = list(mix.x1.slots), list(mix.x2.slots)
            rho = mix.rho
            o1, o2 = float(inst.w @ inst.c[s1]), float(inst.w @ inst.c[s2])
            d1, d2 = float(inst.w @ inst.a[s1]), float(inst.w @ inst.a[s2])
            assert sol.objective == (o1 if o1 == o2 else rho * o1 + (1.0 - rho) * o2)
            assert sol.diversity == rho * d1 + (1.0 - rho) * d2

    def test_status_invariants_random(self):
        for rep in range(120):
            inst = random_tiny_instance((505, rep))
            if inst is None:
                continue
            try:
                sol = solve(inst)
            except InfeasibleError:
                continue
            if not sol.stats.exact:
                continue
            assert inst.b1 - 1e-9 <= sol.diversity <= inst.b2 + 1e-9
            if sol.status == STATUS_UNCONSTRAINED:
                assert sol.lambda_star == 0.0 and sol.mixture.rho == 1.0
            elif sol.status == STATUS_UPPER_ACTIVE:
                assert abs(sol.diversity - inst.b2) <= 1e-9 * (1 + abs(inst.b2))
            elif sol.status == STATUS_LOWER_ACTIVE:
                assert abs(sol.diversity - inst.b1) <= 1e-9 * (1 + abs(inst.b1))
            assert 0.0 <= sol.mixture.rho <= 1.0
            assert sol.lambda_star >= 0.0

    def test_matches_brute_force(self):
        for rep in range(150):
            inst = random_tiny_instance((506, rep))
            if inst is None:
                continue
            bf = brute_force_tiny(inst)
            try:
                sol = solve(inst)
            except InfeasibleError:
                assert not bf.feasible
                continue
            assert bf.feasible
            assert rel_close(sol.objective, bf.objective, 1e-9)

    def test_weak_duality_random_lambdas(self):
        for rep in range(30):
            inst = gen_synthetic(GenConfig(m=30, n=4, seed=(507, rep)))
            red = reduce_two_sided(inst)
            one = red.one_sided
            sol = solve(inst)
            act = ActiveSet.full(one)
            rng = np.random.default_rng((508, rep))
            for lam in rng.uniform(0.0, 5.0, size=6):
                g = eval_dual(one, float(lam), act).g
                assert sol.objective <= g + 1e-9 * (1.0 + abs(g))

    def test_scale_equivariance(self):
        # Scaling relevance by t > 0 rescales the objective and the dual
        # price; the bounds and the optimal support are untouched.
        for rep in range(25):
            inst = gen_synthetic(GenConfig(m=40, n=5, seed=(509, rep)))
            t = 7.3
            scaled = validate_instance(inst.m, inst.n, t * inst.c, inst.a,
                                       inst.w, inst.b1, inst.b2)
            base = solve(inst)
            up = solve(scaled)
            assert up.lambda_star == pytest.approx(t * base.lambda_star,
                                                   rel=1e-9, abs=1e-12)
            assert up.objective == pytest.approx(t * base.objective, rel=1e-9)
            assert up.mixture.support() == base.mixture.support()

    def test_inexact_fallback_is_feasible_with_gap_bound(self):
        inst = running_instance()
        sol = solve(inst, SolveOptions(max_iterations=1))
        assert not sol.stats.exact
        assert sol.stats.duality_gap >= 0.0
        assert inst.b1 - 1e-9 <= sol.diversity <= inst.b2 + 1e-9
        # The reported answer underestimates the optimum by at most the gap.
        assert sol.objective + sol.stats.duality_gap >= 2.75 - 1e-12

    def test_stats_populated(self):
        sol = solve(running_instance())
        assert sol.stats.iterations >= 1
        assert sol.stats.wall_time_us > 0.0
        assert sol.stats.dropped == len(sol.stats.dropped_indices)
