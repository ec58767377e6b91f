"""End-to-end solver: reduction, bisection, screening, primal recovery."""
from __future__ import annotations

import itertools
import logging
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (discard_path_instance, first_trial_optimal_instance,
                      random_tiny_instance, rel_close, strict_weights)
from divrank.dual import ActiveSet, OneSidedInstance, eval_dual
from divrank.model import (STATUS_LOWER_ACTIVE, STATUS_UNCONSTRAINED,
                           STATUS_UPPER_ACTIVE, default_weights,
                           validate_instance)
from divrank.oracle import brute_force_tiny, oracle_dual_breakpoints
from divrank.rank import sort_scores, unconstrained_extremes
from divrank.solver import (DualSearchState, InfeasibleError, SolveOptions,
                            precheck_feasibility, recover_primal,
                            reduce_two_sided, screen_candidates, solve,
                            solve_dual_bisection)
from divrank.datagen import GenConfig, gen_synthetic
import divrank.solver as solver_module


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

    def test_matches_full_sort_bit_for_bit(self):
        for rep in range(300):
            rng = np.random.default_rng((512, rep))
            m = int(rng.integers(1, 400))
            n = m if rep % 5 == 0 else int(rng.integers(1, min(m, 40) + 1))
            a = rng.normal(size=m) * 10.0 ** rng.uniform(-5, 5)
            if rep % 2:
                a = np.round(a, 0)  # duplicates
            inst = validate_instance(m, n, np.zeros(m), a, strict_weights(rng, n),
                                     -1e300, 1e300)
            a_sorted = np.sort(inst.a)
            pre = precheck_feasibility(inst)
            assert pre.div_min == float(np.dot(inst.w, a_sorted[:n]))
            assert pre.div_max == float(np.dot(inst.w, a_sorted[::-1][:n]))

    def test_extremes_break_ties_by_ascending_index(self, monkeypatch):
        # Both extremes are top-n selections through rank, whose tie rule
        # puts the lower index first among equal values.
        calls = []
        real = solver_module.unconstrained_extremes
        monkeypatch.setattr(solver_module, "unconstrained_extremes",
                            lambda *args: calls.append(1) or real(*args))
        inst = validate_instance(5, 3, np.zeros(5), [1.2, 1.2, 0.0, 0.5, 0.7],
                                 None, -10.0, 10.0)
        d_max, s_max = solver_module._diversity_extreme(inst, largest=True)
        assert s_max.tolist() == [0, 1, 4]
        assert d_max == float(np.dot(inst.w, [1.2, 1.2, 0.7]))
        inst = validate_instance(5, 2, np.zeros(5), [0.5, 0.0, 0.0, 1.0, 0.0],
                                 None, -10.0, 10.0)
        d_min, s_min = solver_module._diversity_extreme(inst, largest=False)
        assert s_min.tolist() == [1, 2] and d_min == 0.0
        assert len(calls) == 2

    @pytest.mark.parametrize("b1, b2, status", [
        (-3.0, -2.0, STATUS_UPPER_ACTIVE),  # top candidate's a = 1 > b2 > div_min
        (2.0, 3.0, STATUS_LOWER_ACTIVE),  # below b1 and so is div_max
    ], ids=["-3.0--2.0-upper", "2.0-3.0-lower_as_upper"])
    def test_infeasible_sides_report_the_full_range(self, b1, b2, status):
        inst = running_instance(b1, b2)
        red = reduce_two_sided(inst)
        assert red.status == status and red.one_sided is not None
        pre = precheck_feasibility(inst)
        assert not pre.feasible
        assert (pre.div_min, pre.div_max) == (-1.0, 1.0)
        with pytest.raises(InfeasibleError) as err:
            solve(inst)
        assert err.value.report == pre
        assert str(err.value) == f"diversity range [-1, 1] misses [{b1:g}, {b2:g}]"

    def test_one_sided_verdict_matches_two_sided(self):
        # solve() checks only the side the reduction names, inside its dual
        # search; its verdict and report equal the two-sided precheck's.
        seen = set()
        for rep in range(300):
            inst = random_tiny_instance((513, rep))
            red = reduce_two_sided(inst)
            # Already-optimal reductions, of either status, share one label.
            kind = red.status if red.one_sided is not None else "optimal"
            pre = precheck_feasibility(inst)
            for opts in (SolveOptions(), SolveOptions(screening=False)):
                if pre.feasible:
                    solve(inst, opts)
                else:
                    with pytest.raises(InfeasibleError) as err:
                        solve(inst, opts)
                    assert err.value.report == pre
            seen.add((kind, pre.feasible))
        assert len(seen) == 5  # every kind feasible, both sides infeasible


@pytest.fixture
def div_min_calls(monkeypatch):
    """One entry per smallest-diversity pass: the dual search's range check,
    the precheck behind an InfeasibleError's report, or the global extremes
    recover_primal mixes when an inexact end's face misses the band."""
    calls = []
    real = solver_module._diversity_extreme

    def counted(inst, *, largest):
        if not largest:
            calls.append(1)
        return real(inst, largest=largest)

    monkeypatch.setattr(solver_module, "_diversity_extreme", counted)
    return calls


@pytest.fixture
def evaluations(monkeypatch):
    """Every DualEvaluation the dual search gets from eval_dual, in order:
    its trials (tau = 0) and kink evaluations (tau > 0)."""
    evs = []
    real = solver_module.eval_dual
    monkeypatch.setattr(solver_module, "eval_dual",
                        lambda *args, **kw: evs.append(out := real(*args, **kw)) or out)
    return evs


def far_kink_instance():
    """Feasible (objective 0 at candidate 1 alone), but the two score lines
    cross only at lambda* = 2**50, past the doubling limit."""
    return validate_instance(2, 1, [1.0, 0.0], [1.0 + 2.0 ** -50, 1.0], [1.0],
                             -5.0, 1.0)


def near_parallel_instance(key):
    """m <= 7, n <= 3, c and a on a 0.1 grid with 0-2 units of 2**-k added
    to a, for one k in [30, 52]: score lines parallel but for a few bits
    cross at lambda up to about 2**53. b2 is the smallest vertex diversity."""
    rng = np.random.default_rng(key)
    m = int(rng.integers(1, 8))
    n = int(rng.integers(1, min(m, 3) + 1))
    c = np.round(rng.normal(size=m), 1)
    k = int(rng.integers(30, 53))
    a = np.round(rng.normal(size=m), 1) + rng.integers(0, 3, size=m) * 2.0 ** -k
    w = strict_weights(rng, n)
    b2 = float(np.dot(w, np.sort(a)[:n]))
    return validate_instance(m, n, c, a, w, b2 - 1.0, b2)


def exact_optimum(inst):
    """The optimum over mixtures of two assignments with diversity in
    [b1, b2], in exact rational arithmetic over the float data: the upper
    concave hull of the vertices' (diversity, objective) points, read at its
    peak moved into the band. None when no mixture reaches the band."""
    c, a, w = ([Fraction(x) for x in arr] for arr in (inst.c, inst.a, inst.w))
    best = {}
    for perm in itertools.permutations(range(inst.m), inst.n):
        div = sum(wj * a[i] for wj, i in zip(w, perm))
        obj = sum(wj * c[i] for wj, i in zip(w, perm))
        best[div] = max(obj, best.get(div, obj))
    hull = []
    for p in sorted(best.items()):
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
                                  >= (p[0] - hull[-2][0]) * (hull[-1][1] - hull[-2][1])):
            hull.pop()
        hull.append(p)
    b1, b2 = Fraction(inst.b1), Fraction(inst.b2)
    if b2 < hull[0][0] or b1 > hull[-1][0]:
        return None
    t = min(max(max(hull, key=lambda p: p[1])[0], b1), b2)
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        if x0 <= t <= x1:
            return y0 + (y1 - y0) * (t - x0) / (x1 - x0)
    return hull[0][1]  # a single vertex


def rescaled(inst, i, j):
    """inst with c times 2**i and a, b1, b2 times 2**j."""
    return validate_instance(inst.m, inst.n, np.ldexp(inst.c, i),
                             np.ldexp(inst.a, j), inst.w,
                             math.ldexp(inst.b1, j), math.ldexp(inst.b2, j))


class TestFeasibilityInSearch:
    """solve() runs no precheck: a closed bracket proves feasibility, and a
    bracket the first trial leaves open gets one range check."""

    def test_solves_emit_no_log_record(self, caplog):
        # Solution and SolveStats are the whole report: an inexact end shows
        # as stats.exact False, a screen in screen_events and dropped.
        caplog.set_level(logging.DEBUG)
        inexact = solve(far_kink_instance())
        screened = solve(gen_synthetic(GenConfig(m=200, n=5, seed=(521, 0))))
        assert not inexact.stats.exact and screened.stats.screen_events > 0
        assert caplog.records == []

    def test_far_kink_is_solved_not_refused(self):
        inst = far_kink_instance()
        bf = brute_force_tiny(inst)
        assert bf is not None and bf.objective == 0.0
        for opts in (SolveOptions(), SolveOptions(screening=False)):
            sol = solve(inst, opts)
            assert sol.objective == bf.objective
            assert inst.b1 <= sol.diversity <= inst.b2
            assert not sol.stats.exact
            assert sol.lambda_star == solver_module.LAMBDA_LIMIT
            # g(2**41) = 1 - 2**-9, plus the rounding slack.
            assert 1.0 - 2.0 ** -9 <= sol.stats.duality_gap <= 1.01

    def test_near_parallel_family_is_never_refused(self):
        inexact = 0
        for rep in range(400):
            inst = near_parallel_instance((520, rep))
            bf = brute_force_tiny(inst)
            if bf is None or not precheck_feasibility(inst).feasible:
                continue
            for opts in (SolveOptions(), SolveOptions(screening=False)):
                sol = solve(inst, opts)
                assert sol.stats.iterations < solver_module.MAX_EVALUATIONS // 4
                tol = 1e-12 * (1.0 + abs(inst.b2))
                assert inst.b1 <= sol.diversity <= inst.b2 + tol
                if not sol.stats.exact:
                    inexact += 1
                    assert sol.objective + sol.stats.duality_gap >= bf.objective
        assert inexact > 0

    def test_gap_covers_the_exact_optimum(self):
        # At lambda* near 2**30 one ulp of a diversity sum moves g by about
        # 1e-7, so an exact exit's answer can be that far off; the reported
        # gap must say so. (915, 219) is one such draw.
        keys = [(915, 219)] + [(523, rep) for rep in range(150)]
        far = 0
        for key in keys:
            inst = near_parallel_instance(key)
            opt = exact_optimum(inst)
            if opt is None:
                continue
            for opts in (SolveOptions(), SolveOptions(screening=False)):
                sol = solve(inst, opts)
                if sol.stats.iterations == 0:
                    # Answered by the reduction: no dual search, and an
                    # objective off the exact one only by its own sum's rounding.
                    continue
                assert abs(Fraction(sol.objective) - opt) <= Fraction(sol.stats.duality_gap)
                far += sol.stats.exact and sol.lambda_star > 2.0 ** 20
        assert far > 0
        sol = solve(near_parallel_instance((915, 219)))
        assert sol.stats.exact and sol.lambda_star == 2.0 ** 30
        assert sol.stats.duality_gap > 1e-7 * abs(sol.objective)

    def test_fallback_gap_allows_for_rounding(self):
        # a[1] exceeds a[2] by 8 ulps, so the lines of candidates 1 and 2
        # cross near lambda = 2**49, and the two ways of summing diversity
        # disagree in the last bit on whether slots (3, 4, 1) meet b2: the
        # brute force admits them, the solver does not. At lam_hat = 2**41
        # that one bit moves the bound by about 1e-3, which the gap covers.
        a = [0.5, 0.30000000000000043, 0.3, -1.6999999999999995,
             -0.19999999999999957]
        w = [2.0534172384602307, 1.0867952166134134, 0.8251478470180061]
        b2 = -3.460623994599672
        inst = validate_instance(5, 3, [1.4, 0.0, -0.3, 0.2, 1.1], a, w,
                                 b2 - 1.0, b2)
        bf = brute_force_tiny(inst)
        assert bf.x1.slots == (3, 4, 1) and bf.rho == 1.0
        for opts in (SolveOptions(), SolveOptions(screening=False)):
            sol = solve(inst, opts)
            assert not sol.stats.exact and sol.objective < bf.objective
            assert sol.objective + sol.stats.duality_gap >= bf.objective

    @pytest.mark.parametrize("i", [0, 200, -200, 498, -498])
    @pytest.mark.parametrize("j", [0, 200, -200, 498, -498])
    def test_range_check_is_exact_under_rescaling(self, i, j, div_min_calls):
        mirror = validate_instance(3, 1, [3.0, 2.0, 0.0], [-1.0, 1.0, 0.0],
                                   [1.0], 1.0, 3.0)
        cases = [running_instance(-3.0, -2.0), running_instance(2.0, 3.0),
                 running_instance(-3.0, -1.0), running_instance(-1.0, -1.0),
                 mirror]
        # lambda* = 2 on these, so the first trial leaves the bracket open;
        # the bound sits on the vertex diversity or one ulp past it.
        upper = [(-1.0, 0.5), (-1.0, math.nextafter(0.5, 0.0))]
        lower = [(-0.5, 1.0), (math.nextafter(-0.5, 0.0), 1.0)]
        doubling = [validate_instance(2, 1, [1.0, 0.0], [1.0, 0.5], [1.0], *b)
                    for b in upper]
        doubling += [validate_instance(2, 1, [1.0, 0.0], [-1.0, -0.5], [1.0], *b)
                     for b in lower]
        for k, base in enumerate(cases + doubling):
            feasible = precheck_feasibility(base).feasible
            inst = rescaled(base, i, j)
            div_min_calls.clear()
            try:
                solve(inst)
                verdict = True
            except InfeasibleError:
                verdict = False
            assert verdict == feasible
            if k >= len(cases) and feasible:
                assert len(div_min_calls) == 1  # the check ran and passed

    def test_feasible_solves_make_no_range_pass(self, div_min_calls,
                                                 evaluations):
        for rep in range(20):
            inst = gen_synthetic(GenConfig(m=200, n=5, seed=(521, rep)))
            div_min_calls.clear()
            evaluations.clear()
            sol = solve(inst)
            assert sol.stats.exact
            # The first trial closed the bracket or ended the search.
            assert evaluations[0].g_plus >= 0.0
            assert len(div_min_calls) == 0
        doubled = 0
        for rep in range(100):
            inst = near_parallel_instance((522, rep))
            if not precheck_feasibility(inst).feasible:
                continue
            div_min_calls.clear()
            solve(inst)
            assert len(div_min_calls) <= 1
            doubled += len(div_min_calls)
        assert doubled > 0
        div_min_calls.clear()
        with pytest.raises(InfeasibleError):
            solve(running_instance(-3.0, -2.0))
        assert len(div_min_calls) == 2  # the search's check, then the report


class TestReduction:
    def test_upper_bound_binds(self):
        red = reduce_two_sided(running_instance())
        assert red.status == STATUS_UPPER_ACTIVE and red.one_sided is not None
        assert red.one_sided.b2 == 0.5
        np.testing.assert_array_equal(red.one_sided.a, [1.0, -1.0, 0.0])

    def test_slack_bounds_already_optimal(self):
        red = reduce_two_sided(running_instance(-3.0, 3.0))
        assert red.one_sided is None
        assert red.status == STATUS_UNCONSTRAINED
        assert red.mixture.rho == 1.0
        assert red.mixture.x1.slots == (0,)

    def test_lower_bound_becomes_upper(self):
        inst = validate_instance(3, 1, [3.0, 2.0, 0.0], [-1.0, 1.0, 0.0],
                                 [1.0], 0.5, 3.0)
        red = reduce_two_sided(inst)
        assert red.status == STATUS_LOWER_ACTIVE and red.one_sided is not None
        np.testing.assert_array_equal(red.one_sided.a, [1.0, -1.0, 0.0])
        assert (red.one_sided.b1, red.one_sided.b2) == (-3.0, -0.5)

    def test_tied_face_needs_mixture(self):
        # Tied optima reach diversity only in {-1, +1}; b1 = b2 = 0 sits
        # strictly between, so the witness is a strict mixture on the face.
        inst = validate_instance(2, 1, [3.0, 3.0], [1.0, -1.0], [1.0], 0.0, 0.0)
        red = reduce_two_sided(inst)
        assert red.one_sided is None
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
        un = unconstrained_extremes(inst0.c, inst0.a, inst0.w)
        assert un.min_div < un.max_div
        rng = np.random.default_rng(510)
        for b1 in un.min_div + rng.uniform(1e-3, 1.0, 50) * (un.max_div - un.min_div):
            inst = validate_instance(4, 2, inst0.c, inst0.a, inst0.w, b1, 10.0)
            sol = solve(inst)
            assert sol.status == STATUS_LOWER_ACTIVE and sol.lambda_star == 0.0
            assert abs(sol.diversity - b1) <= 1e-12 * abs(b1)
            assert sol.objective == un.value


@pytest.fixture
def magnitude_calls(monkeypatch):
    """One entry per call of the solver's max|c|, max|a| pass."""
    calls = []
    real = solver_module._magnitudes
    monkeypatch.setattr(solver_module, "_magnitudes",
                        lambda inst: calls.append(1) or real(inst))
    return calls


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

    def test_oracle_lambda_always_in_bracket(self, evaluations):
        for rep in range(40):
            inst = gen_synthetic(GenConfig(m=60, n=5, seed=(501, rep)))
            red = reduce_two_sided(inst)
            ora = oracle_dual_breakpoints(red.one_sided)
            evaluations.clear()
            res = solve_dual_bisection(red.one_sided)
            # Every trial that moved an end of the bracket kept lambda* inside.
            for ev in evaluations:
                if ev.tau == 0.0 and ev.g_plus < 0.0:
                    assert ev.lam <= ora.lambda_star * (1 + 1e-12) + 1e-12
                if ev.tau == 0.0 and ev.g_minus > 0.0:
                    assert ora.lambda_star <= ev.lam * (1 + 1e-12) + 1e-12
            assert rel_close(res.lambda_star, ora.lambda_star, 1e-9)

    def test_iteration_cap_falls_back_to_bracket(self, monkeypatch):
        monkeypatch.setattr(solver_module, "MAX_EVALUATIONS", 1)
        one = OneSidedInstance(np.array([3.0, 2.0, 0.0]),
                               np.array([1.0, -1.0, 0.0]), np.array([1.0]), 0.0)
        res = solve_dual_bisection(one)
        assert res.lambda_star is None
        lo, hi = res.lambda_min, res.lambda_max
        assert lo <= 0.5 <= hi
        # One evaluation at the bracket's finite end, with the kink
        # tolerance, not counted as an iteration.
        assert res.evaluation.lam == (hi if math.isfinite(hi) else lo)
        assert res.evaluation.tau > 0.0
        assert res.iterations == 1

    def test_runaway_cap_stops_doubling(self, magnitude_calls, evaluations):
        # b2 below every diversity: g falls forever. The range check after
        # the first trial raises before any doubling.
        one = OneSidedInstance(np.array([1000.0, 0.0]), np.array([1.0, 0.5]),
                               np.array([1.0]), 0.0)
        with pytest.raises(InfeasibleError, match="diversity exceeds b2"):
            solve_dual_bisection(one)
        assert len(evaluations) == 1
        assert len(magnitude_calls) == 0

    def test_magnitudes_read_once_per_solve(self, magnitude_calls):
        # Before the reduction, so an unconstrained solve reads them too.
        insts = [gen_synthetic(GenConfig(m=200, n=5, seed=(514, rep)))
                 for rep in range(10)]
        for inst in (*insts, running_instance(-2.0, 2.0)):
            for opts in (SolveOptions(), SolveOptions(screening=False)):
                magnitude_calls.clear()
                solve(inst, opts)
                assert len(magnitude_calls) == 1


@st.composite
def prescreen_cases(draw):
    """One-sided instances with exact ties (coarse grids, duplicated rows),
    constant a, n = m, and Gaussian scores scaled far from 1."""
    m = draw(st.integers(1, 400))
    n = draw(st.one_of(st.just(m), st.integers(1, min(m, 12))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("gaussian", "grid", "constant_a", "scaled")))
    c, a = rng.normal(size=m), rng.normal(size=m)
    if kind == "grid":
        c, a = np.round(c * 2.0) / 2.0, np.round(a * 2.0) / 2.0
        dup = rng.integers(0, m, size=(2, m // 3))
        c[dup[1]], a[dup[1]] = c[dup[0]], a[dup[0]]
    elif kind == "constant_a":
        a = np.full(m, draw(st.sampled_from((0.0, -1.0, 2.0))))
    elif kind == "scaled":
        c = c * 2.0 ** draw(st.integers(-60, 60))
    w = np.sort(rng.uniform(0.1, 2.0, size=n))[::-1] + np.arange(n, 0, -1) * 1e-3
    return OneSidedInstance(c, a, w, float(rng.normal()))


def _sorted_top(ev):
    """ev's sorted scores through the group holding rank n, recomputed from
    ev.z (ev's slot arrays hold n entries): their order is the top set with
    its boundary ties."""
    return sort_scores(ev.z, ev.tau, ev.slots_min.shape[0])


class TestScreening:
    def test_drops_only_doubly_dominated(self):
        c = np.array([3.0, 2.0, 0.0])
        a = np.array([1.0, -1.0, 0.0])
        one = OneSidedInstance(c, a, np.array([1.0]), 0.5)
        state = DualSearchState(lambda_min=0.4, lambda_max=0.6,
                                active=ActiveSet.full(one))
        ev = eval_dual(one, 0.4, state.active)
        assert sort_scores(ev.z, ev.tau, 1).order[:1].tolist() == [0]
        dropped = screen_candidates(state, one, ev)
        assert dropped.tolist() == [2]
        assert state.active.indices.tolist() == [0, 1]
        assert state.screen_events == 1

    def test_keeps_members_tied_at_the_cut(self):
        # At 0.5 candidates 0 and 1 tie for the single slot; 1 falls below
        # the witness 0 at 0.75 but stays, since it ties at the cut.
        one = OneSidedInstance(np.array([1.0, 2.0, 0.0]), np.array([-1.0, 1.0, 0.0]),
                               np.array([1.0]), 0.5)
        state = DualSearchState(lambda_min=0.5, lambda_max=0.75,
                                active=ActiveSet.full(one))
        ev = eval_dual(one, 0.5, state.active)
        ss = sort_scores(ev.z, ev.tau, 1)
        assert ss.order[ss.starts[-1]:].tolist() == [0, 1]  # the straddling group
        assert screen_candidates(state, one, ev).tolist() == [2]
        assert state.active.indices.tolist() == [0, 1]

    def test_noop_without_finite_upper_bracket(self):
        one = OneSidedInstance(np.array([3.0, 2.0]), np.array([1.0, 0.0]),
                               np.array([1.0]), 0.5)
        state = DualSearchState(lambda_min=0.0, lambda_max=np.inf,
                                active=ActiveSet.full(one))
        ev = eval_dual(one, 0.0, state.active)
        assert screen_candidates(state, one, ev).size == 0

    def test_inert_diversity_reduces_to_top_n_of_c(self):
        rng = np.random.default_rng(502)
        c = rng.normal(size=12)
        one = OneSidedInstance(c, np.zeros(12), np.array([1.0, 0.5]), 0.1)
        state = DualSearchState(lambda_min=0.3, lambda_max=0.9,
                                active=ActiveSet.full(one))
        top2 = np.argsort(-c, kind="stable")[:2]
        ev = eval_dual(one, 0.9, state.active)
        assert sort_scores(ev.z, ev.tau, 2).order[:2].tolist() == top2.tolist()
        dropped = screen_candidates(state, one, ev)
        assert set(dropped.tolist()) == set(range(12)) - set(top2.tolist())

    @settings(max_examples=300)
    @given(prescreen_cases(), st.integers(0, 16), st.integers(1, 16), st.booleans())
    def test_side_witnesses_keep_every_top_set_inside(self, one, lo8, width8, at_lo):
        # A dyadic bracket, so the scores at its ends and middle are exact
        # on the grid cases.
        lo, hi = lo8 / 8.0, (lo8 + width8) / 8.0
        mid = 0.5 * (lo + hi)
        full = ActiveSet.full(one)
        state = DualSearchState(lambda_min=lo, lambda_max=hi, active=full)
        dropped = screen_candidates(state, one, eval_dual(one, lo if at_lo else hi, full))
        survivors = state.active.indices
        for lam in (lo, mid, hi):
            assert np.isin(_sorted_top(eval_dual(one, lam, full)).order,
                           survivors).all()
        assert not np.isin(dropped, survivors).any()
        assert sorted(dropped.tolist() + survivors.tolist()) == list(range(one.m))

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
            assert np.all(np.diff(dropped) > 0)
            assert np.all((dropped >= 0) & (dropped < inst.m))
            assert not (set(dropped.tolist()) & sol.mixture.support())


def _global_view(ev, active):
    """Every field of an evaluation, and its sorted scores, in original
    indices."""
    ss = _sorted_top(ev)
    idx = active.indices
    return (ev.lam, ev.g, ev.g_minus, ev.g_plus, ev.min_div, ev.max_div,
            idx[ev.slots_min].tolist(), idx[ev.slots_max].tolist(), ev.tau,
            idx[ss.order].tolist(), ss.values.tolist(), ss.starts.tolist(),
            ss.ends.tolist(), ss.unique)


class TestPrescreen:
    """Screening over [0, 1] before the first trial at lambda = 1."""

    @settings(max_examples=300)
    @given(prescreen_cases())
    def test_first_trial_over_survivors_equals_full_width(self, one):
        survivors = solver_module._prescreen(one)
        kept = np.zeros(one.m, dtype=bool)
        kept[survivors.indices] = True
        assert survivors.indices.tolist() == kept.nonzero()[0].tolist()
        assert survivors.size >= one.n
        full = ActiveSet.full(one)
        assert (_global_view(eval_dual(one, 1.0, survivors), survivors)
                == _global_view(eval_dual(one, 1.0, full), full))
        # Sound on all of [0, 1]: every top-n member with boundary ties
        # survives, ties at lambda = 0 included.
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert kept[_sorted_top(eval_dual(one, lam, full)).order].all()

    @pytest.mark.parametrize("m, n", [(20_000, 10), (100_000, 30),
                                      (20_000, 9_000), (9_000, 8_500)])
    def test_sampled_witnesses_at_large_m(self, m, n):
        # Past PRESCREEN_SAMPLE candidates the witnesses come from a strided
        # sample, which must still hold n of them.
        inst = gen_synthetic(GenConfig(m=m, n=n, seed=(530, m, n)))
        one = reduce_two_sided(inst).one_sided
        survivors = solver_module._prescreen(one)
        assert survivors.size < m
        full = ActiveSet.full(one)
        assert (_global_view(eval_dual(one, 1.0, survivors), survivors)
                == _global_view(eval_dual(one, 1.0, full), full))

    def test_discard_path_matches_both_oracles(self, evaluations):
        inst = discard_path_instance()
        bf = brute_force_tiny(inst)
        ora = oracle_dual_breakpoints(reduce_two_sided(inst).one_sided)
        for opts in (SolveOptions(), SolveOptions(screening=False)):
            sol = solve(inst, opts)
            assert sol.stats.exact and sol.lambda_star == 2.0
            assert sol.objective == bf.objective == ora.g_star == 0.5
            assert sol.diversity == 0.75
            assert sol.stats.dropped == 0
        # Screened: one survivor at lambda = 1, then all four at 2.
        evaluations.clear()
        solve(inst)
        assert [ev.active.size for ev in evaluations] == [1, 4]

    def test_drops_reported_when_the_first_trial_is_optimal(self):
        inst = first_trial_optimal_instance()
        sol = solve(inst)
        assert sol.stats.exact and sol.lambda_star == 1.0
        assert sol.stats.iterations == 1
        assert sol.objective == brute_force_tiny(inst).objective
        assert sol.stats.dropped_indices.tolist() == [2, 3]

    @pytest.mark.parametrize("outcome", ["optimal", "open", "closed"])
    def test_prescreen_drops_reported_once(self, outcome, screen_reports,
                                          evaluations):
        # The first trial ends the search, leaves the bracket open (the
        # pre-screen's survivors are discarded), or closes it.
        inst = {"optimal": first_trial_optimal_instance,
                "open": discard_path_instance,
                "closed": lambda: gen_synthetic(GenConfig(m=3000, n=10,
                                                          seed=(534, 0)))}[outcome]()
        stats = solve(inst).stats
        first = evaluations[0]
        assert stats.exact and first.active.size < inst.m
        assert sum(screen_reports) == stats.dropped
        assert sum(1 for k in screen_reports if k) == stats.screen_events
        if outcome == "optimal":
            assert stats.iterations == 1
            assert screen_reports == [2]
        elif outcome == "open":
            assert first.g_plus < 0.0 and evaluations[1].active.size == inst.m
        else:
            assert first.g_minus > 0.0 and screen_reports[0] > 0

    def test_dropped_and_active_partition_the_candidates(self, monkeypatch):
        reports = []
        real = solver_module.screen_candidates
        monkeypatch.setattr(solver_module, "screen_candidates",
                            lambda *args: reports.append(out := real(*args)) or out)
        for m in (40, 3000, 100_000):
            inst = gen_synthetic(GenConfig(m=m, n=10, seed=(531, m)))
            reports.clear()
            stats = solve(inst).stats
            dropped = np.concatenate(reports).tolist()
            active = (list(range(m)) if stats.survivors is None
                      else stats.survivors.tolist())
            assert len(set(dropped)) == len(dropped) == stats.dropped
            assert sorted(dropped) == stats.dropped_indices.tolist()
            assert not set(dropped) & set(active)
            assert sorted(dropped + active) == list(range(m))

    def test_nothing_dropped_without_screening(self):
        inst = gen_synthetic(GenConfig(m=3000, n=10, seed=(533, 0)))
        assert solve(inst).stats.dropped > 0
        optimal = running_instance(-2.0, 2.0)
        assert reduce_two_sided(optimal).one_sided is None
        for sol in (solve(inst, SolveOptions(screening=False)), solve(optimal)):
            stats = sol.stats
            assert stats.dropped == stats.screen_events == 0
            assert stats.survivors is None
            assert stats.dropped_indices.dtype.kind == "i"
            assert stats.dropped_indices.size == 0


@pytest.fixture
def screen_reports(monkeypatch):
    """Lengths of the arrays screen_candidates returns, the counts the
    benchmark's tracer sums into its dropped and active-set metrics."""
    lengths = []
    real = solver_module.screen_candidates
    monkeypatch.setattr(solver_module, "screen_candidates",
                        lambda *args: lengths.append(len(out := real(*args))) or out)
    return lengths


class TestScreenReports:
    def test_reported_drops_equal_stats(self, screen_reports, evaluations):
        inst = gen_synthetic(GenConfig(m=100_000, n=10, seed=(532, 0)))
        sol = solve(inst)
        assert sol.stats.dropped > 0.99 * inst.m
        assert sum(screen_reports) == sol.stats.dropped
        screen_reports.clear()
        sol = solve(inst, SolveOptions(screening=False))
        assert sum(screen_reports) == sol.stats.dropped == 0
        # b2 just above the smallest diversity puts lambda* far past 1, so
        # the pre-screen's survivors are discarded and drops come later.
        lo = solver_module._diversity_extreme(inst, largest=False)[0]
        tight = validate_instance(inst.m, inst.n, inst.c, inst.a, inst.w,
                                  lo - 1.0, lo + 1e-3 * (inst.b2 - lo))
        screen_reports.clear()
        evaluations.clear()
        sol = solve(tight)
        sizes = [ev.active.size for ev in evaluations]
        assert sizes[0] < inst.m and sizes[1] == inst.m  # the discard path
        assert sum(screen_reports) == sol.stats.dropped > 0


class TestCrossingStep:
    """The batched step over the survivors' crossings only proposes a trial
    point; where it finds no crossing the search runs as plain bisection."""

    @staticmethod
    def search(one, monkeypatch, evaluations, step):
        """The search's result, the step's returns, and (lambda, tau) of
        every evaluation."""
        calls = []

        def spy(*args):
            calls.append(step(*args))
            return calls[-1]

        evaluations.clear()
        with monkeypatch.context() as mp:
            mp.setattr(solver_module, "lowest_crossing", spy)
            res = solve_dual_bisection(one)
        return res, calls, [(ev.lam, ev.tau) for ev in evaluations]

    def assert_search_unchanged(self, one, monkeypatch, evaluations):
        res, calls, points = self.search(one, monkeypatch, evaluations,
                                         solver_module.lowest_crossing)
        assert calls == [None]  # the step ran and found nothing
        plain, _, plain_points = self.search(one, monkeypatch, evaluations,
                                             lambda *args: None)
        assert points == plain_points
        assert res.iterations == plain.iterations
        assert res.lambda_star == plain.lambda_star
        return res, points

    def test_parallel_survivors_leave_search_unchanged(self, monkeypatch,
                                                        evaluations):
        # Every line has slope -1, so g is affine with slope 1 and lambda* = 0.
        one = OneSidedInstance(np.array([3.0, 2.0, 1.0, 0.5]), np.ones(4),
                               np.array([1.0, 0.5]), 2.5)
        res, _ = self.assert_search_unchanged(one, monkeypatch, evaluations)
        assert res.lambda_star == 0.0

    def test_bracket_without_crossing_leaves_search_unchanged(self, monkeypatch,
                                                              evaluations):
        # The only crossing is at 1, the first trial point; the bracket
        # (0, 1) it leaves holds none.
        one = OneSidedInstance(np.array([2.0, 0.0]), np.array([1.0, -1.0]),
                               np.array([1.0]), 2.0)
        res, points = self.assert_search_unchanged(one, monkeypatch, evaluations)
        # The first trial, at 1, closed the bracket on the right.
        assert points[0] == (1.0, 0.0) and evaluations[0].g_minus > 0.0
        assert res.lambda_star == 0.0

    def test_kink_step_from_the_pick(self, monkeypatch, evaluations):
        # The pick's own evaluation sees one side of the kink at lambda*;
        # the kink step from it lands there with the next evaluation.
        inst = gen_synthetic(GenConfig(m=1000, n=10, seed=(512, 47)))
        one = reduce_two_sided(inst).one_sided
        res, picks, points = self.search(one, monkeypatch, evaluations,
                                         solver_module.lowest_crossing)
        assert len(picks) == 1 and picks[0] is not None
        assert res.evaluation.tau > 0.0
        assert res.lambda_star == pytest.approx(picks[0], rel=1e-12)
        # No bisection step between: the pick was the last trial point, and
        # exactly one kink evaluation followed it.
        assert points[-2] == (picks[0], 0.0) and points[-1][1] > 0.0
        assert res.iterations == len(points)

    def test_step_is_off_without_screening(self, monkeypatch):
        inst = gen_synthetic(GenConfig(m=200, n=10, seed=511))
        with monkeypatch.context() as mp:
            mp.setattr(solver_module, "lowest_crossing", None)  # not callable
            sol = solve(inst, SolveOptions(screening=False))
        assert sol.stats.exact

    def test_few_evaluations_per_screened_solve(self):
        # Bisection alone takes about 10 evaluations here; the step about 4.
        iterations = [solve(gen_synthetic(GenConfig(m=1000, n=10, seed=(512, k))))
                      .stats.iterations for k in range(50)]
        assert np.mean(iterations) <= 6.0


class TestRecoverPrimal:
    def eval_at(self, one, lam, tau=0.0):
        act = ActiveSet.full(one)
        return eval_dual(one, lam, act, tau=tau)

    def test_balanced_mixture(self):
        one = OneSidedInstance(np.array([3.0, 2.0, 0.0]),
                               np.array([1.0, -1.0, 0.0]), np.array([1.0]), 0.0)
        ev = self.eval_at(one, 0.5, tau=1e-9 * 2.5)
        mix = recover_primal(ev, one)
        assert mix.rho == pytest.approx(0.5)
        assert mix.x1.slots == (1,) and mix.x2.slots == (0,)
        assert mix.objective == pytest.approx(2.5)
        assert mix.diversity == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_tight_point(self):
        one = OneSidedInstance(np.array([3.0, 2.0, 0.0]),
                               np.array([1.0, -1.0, 0.0]), np.array([1.0]), 1.0)
        ev = self.eval_at(one, 0.0)
        mix = recover_primal(ev, one)
        assert mix.rho == 1.0
        assert mix.x1.slots == mix.x2.slots == (0,)

    def test_bound_at_max_diversity_vertex(self):
        one = OneSidedInstance(np.array([3.0, 2.0, 0.0]),
                               np.array([1.0, -1.0, 0.0]), np.array([1.0]), 1.0)
        ev = self.eval_at(one, 0.5, tau=1e-9 * 2.5)
        mix = recover_primal(ev, one)
        assert mix.rho == 0.0
        assert mix.diversity == pytest.approx(1.0)

    def test_slots_map_through_the_active_set(self):
        # Candidate 0 is screened out, so the evaluation's slots are
        # positions among candidates 1..3, one less than their indices.
        one = OneSidedInstance(np.array([-5.0, 3.0, 2.0, 0.0]),
                               np.array([0.0, 1.0, -1.0, 0.0]), np.array([1.0]), 0.0)
        act = ActiveSet.full(one).keep(np.array([1, 2, 3]))
        ev = eval_dual(one, 0.5, act, tau=1e-9 * 2.5)
        assert ev.slots_min.tolist() == [1] and ev.slots_max.tolist() == [0]
        mix = recover_primal(ev, one)
        assert mix.x1.slots == (2,) and mix.x2.slots == (1,)
        assert mix.objective == pytest.approx(2.5)

    @pytest.mark.parametrize("lam", [0.0, 10.0])
    def test_face_missing_the_band_takes_the_global_extremes(self, lam):
        # At 0 the top set is candidate 0 alone, diversity 1 > b2; at 10 it
        # is candidate 1 alone, diversity -1 < b1. Either way the global
        # extremes, candidates 1 and 0, are mixed down to b2.
        one = OneSidedInstance(np.array([3.0, 2.0, 0.0]),
                               np.array([1.0, -1.0, 0.0]), np.array([1.0]), 0.0,
                               -0.5)
        ev = self.eval_at(one, lam)
        assert max(one.b1, ev.min_div) > min(one.b2, ev.max_div)
        mix = recover_primal(ev, one)
        assert mix.x1.slots == (1,) and mix.x2.slots == (0,)
        assert mix.rho == 0.5
        assert -0.5 <= mix.diversity <= one.b2
        assert mix.objective == 2.5


class TestSolvePipeline:
    def test_running_instance(self):
        sol = solve(running_instance())
        assert sol.status == STATUS_UPPER_ACTIVE
        assert sol.lambda_star == pytest.approx(0.5, abs=1e-12)
        assert sol.objective == pytest.approx(2.75, abs=1e-12)
        assert sol.mixture.rho == pytest.approx(0.25, abs=1e-12)
        assert sol.diversity == pytest.approx(0.5, abs=1e-12)
        assert sol.stats.exact and 0.0 < sol.stats.duality_gap <= 1e-14

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
            assert sol.stats.exact
            assert sol.stats.iterations < solver_module.MAX_EVALUATIONS // 4
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
                assert bf is None
                continue
            assert bf is not None
            assert rel_close(sol.objective, bf.objective, 1e-9)
            assert sol.stats.iterations < solver_module.MAX_EVALUATIONS // 4

    @pytest.mark.parametrize("key", [(7100, 1099), (7100, 1886), (7300, 1157),
                                     (7300, 3614)])
    def test_kink_rounding_onto_the_trial_is_exact(self, key):
        # The crossing step's pick lands on a kink, and the kink step finds a
        # crossing nearer than half an ulp, so it rounds back onto the pick.
        # The kink tolerance certifies it there; refusing it would shrink the
        # bracket to two adjacent floats and end in the fallback.
        inst = random_tiny_instance(key)
        ora = oracle_dual_breakpoints(reduce_two_sided(inst).one_sided)
        for opts in (SolveOptions(), SolveOptions(screening=False)):
            sol = solve(inst, opts)
            assert sol.stats.exact
            assert abs(sol.lambda_star - ora.lambda_star) <= 1e-12 * (1.0 + ora.lambda_star)
            assert rel_close(sol.objective, brute_force_tiny(inst).objective, 1e-9)

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

    def test_inexact_fallback_is_feasible_with_gap_bound(self, monkeypatch):
        monkeypatch.setattr(solver_module, "MAX_EVALUATIONS", 1)
        inst = running_instance()
        sol = solve(inst)
        assert not sol.stats.exact
        assert sol.stats.duality_gap >= 0.0
        assert inst.b1 - 1e-9 <= sol.diversity <= inst.b2 + 1e-9
        # The reported answer underestimates the optimum by at most the gap.
        assert sol.objective + sol.stats.duality_gap >= 2.75 - 1e-12

    def test_exact_gap_is_rounding_sized(self):
        for m in (30, 300, 3000):
            for n in (3, 10, 30):
                if n > m:
                    continue
                for rep in range(4):
                    inst = gen_synthetic(GenConfig(m=m, n=n, seed=(533, m, n, rep)))
                    for opts in (SolveOptions(), SolveOptions(screening=False)):
                        sol = solve(inst, opts)
                        assert sol.stats.exact
                        assert 0.0 < sol.stats.duality_gap <= 1e-12 * (1.0 + abs(sol.objective))

    def test_stats_populated(self):
        sol = solve(running_instance())
        assert sol.stats.iterations >= 1
        assert sol.stats.wall_time_us > 0.0
        assert sol.stats.dropped == len(sol.stats.dropped_indices)


def binding_upper_instance(c_scale=1.0, a_scale=1.0):
    """m=50, n=5, a correlated with c, b2 halfway between the smallest
    diversity and the unconstrained optimum's; c and a (with the bounds)
    multiplied by the given scales."""
    rng = np.random.default_rng(0)
    m, n = 50, 5
    c = rng.normal(size=m)
    a = 0.5 * c + rng.normal(size=m)
    w = default_weights(n)
    lo = float(np.dot(w, np.sort(a)[:n]))
    top = unconstrained_extremes(c, a, w).min_div
    return validate_instance(m, n, c * c_scale, a * a_scale, w,
                             (lo - 1.0) * a_scale, 0.5 * (lo + top) * a_scale)


class TestScoreScale:
    @pytest.mark.parametrize("i", [0, 200, -200, 498, -498])
    @pytest.mark.parametrize("j", [0, 200, -200, 498, -498])
    def test_power_of_two_scaling_is_exact(self, i, j):
        base = solve(binding_upper_instance())
        sol = solve(binding_upper_instance(2.0 ** i, 2.0 ** j))
        assert base.status == sol.status == STATUS_UPPER_ACTIVE
        assert sol.stats.exact
        assert sol.stats.iterations == base.stats.iterations
        assert sol.mixture.x1.slots == base.mixture.x1.slots
        assert sol.mixture.x2.slots == base.mixture.x2.slots
        assert sol.mixture.rho == base.mixture.rho
        assert sol.objective == math.ldexp(base.objective, i)
        assert sol.diversity == math.ldexp(base.diversity, j)
        assert sol.lambda_star == math.ldexp(base.lambda_star, i - j)
        assert sol.stats.duality_gap == math.ldexp(base.stats.duality_gap, i)

    @pytest.mark.parametrize("exp", [-150, -100, -50, 50, 100, 150])
    @pytest.mark.parametrize("scaled", ["c", "a"])
    def test_extreme_magnitudes_match_oracle(self, scaled, exp):
        scales = (10.0 ** exp, 1.0) if scaled == "c" else (1.0, 10.0 ** exp)
        inst = binding_upper_instance(*scales)
        sol = solve(inst)
        ora = oracle_dual_breakpoints(reduce_two_sided(inst).one_sided)
        assert sol.stats.exact and sol.stats.iterations <= 12
        assert abs(sol.objective - ora.g_star) <= 1e-12 * abs(ora.g_star)
        assert abs(sol.lambda_star - ora.lambda_star) <= 1e-12 * ora.lambda_star
        assert abs(sol.diversity - inst.b2) <= 1e-12 * abs(inst.b2)

    # c near 1e300 and a near 1 put the unit of lambda near 2**997. The
    # bounds, far from every diversity, are used as given.
    def test_far_bound_saturates_on_an_infeasible_instance(self):
        inst = validate_instance(2, 1, [1e300, 0.0], [1.0, 0.0], None,
                                 -1e10, -1e10)
        with pytest.raises(InfeasibleError, match="misses"):
            solve(inst)

    def test_far_lower_bound_saturates(self, monkeypatch):
        inst = validate_instance(3, 1, [1e300, 0.0, -1e300], [1.0, 0.0, -1.0],
                                 None, -1e300, 0.5)
        sol = solve(inst)
        assert sol.stats.exact
        assert sol.lambda_star == 1e300 and sol.objective == 5e299
        monkeypatch.setattr(solver_module, "MAX_EVALUATIONS", 1)
        sol = solve(inst)
        assert not sol.stats.exact
        assert inst.b1 <= sol.diversity <= inst.b2

    def test_diversities_whose_difference_overflows(self):
        # The tied face at lambda* = 1 spans diversities -1e308 and 1e308,
        # whose difference overflows; the mixture toward b2 still holds it.
        inst = validate_instance(3, 1, [1e308, 0.0, -1e308],
                                 [1e308, 0.0, -1e308], [1.0], -1e308, 1e307)
        sol = solve(inst)
        assert sol.stats.exact
        assert sol.mixture.rho == pytest.approx(0.45)
        assert inst.b1 <= sol.diversity <= inst.b2 * (1.0 + 1e-9)
        assert sol.objective == pytest.approx(1e307)

    def test_subnormal_c_keeps_the_bound(self):
        # The unit clamps at 2**-1022, far above lambda*; a is never scaled
        # into the subnormal range, where it would lose bits.
        inst = binding_upper_instance(2.0 ** -1060, 1.0)
        sol = solve(inst)
        assert sol.stats.exact and sol.diversity == inst.b2
        # lambda* is subnormal here, below the unit's range.
        inst = binding_upper_instance(1e-320, 1.0)
        sol = solve(inst)
        assert inst.b1 <= sol.diversity <= inst.b2

    def test_lambda_star_past_the_float_range_ends_inexact(self):
        # lambda* = 1e310: the unit clamps at 2**1023, doubling overflows,
        # and the search ends on its bracket's finite end.
        inst = validate_instance(2, 1, [1e10, 0.0], [1e-300, 0.0], None,
                                 -1.0, 5e-301)
        sol = solve(inst)
        assert not sol.stats.exact
        assert sol.objective == brute_force_tiny(inst).objective
        assert inst.b1 <= sol.diversity <= inst.b2
        assert 0.0 <= sol.stats.duality_gap < math.inf

    @pytest.mark.filterwarnings("error")
    def test_crossings_past_the_float_range_raise_no_warning(self):
        # lambda* is near 2**1014, and some survivors' score lines cross
        # beyond the float range; those crossings are dropped silently.
        inst = rescaled(gen_synthetic(GenConfig(m=30, n=3, seed=(77, 30, 3, 0))),
                        40, -980)
        sol = solve(inst)
        assert sol.stats.exact and inst.b1 <= sol.diversity <= inst.b2

    def test_search_reads_the_instance_uncopied(self, monkeypatch):
        seen = []
        search = solver_module.solve_dual_bisection

        def spy(one, *args):
            seen.append(one)
            return search(one, *args)

        monkeypatch.setattr(solver_module, "solve_dual_bisection", spy)
        inst = binding_upper_instance(2.0 ** 40, 1.0)
        assert solve(inst).stats.exact
        assert seen[0].a is inst.a and seen[0].b2 == inst.b2
