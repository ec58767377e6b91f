"""Ground-truth oracles: breakpoint grid, dense kink scan, tiny brute force."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import random_one_sided_arrays, random_tiny_instance, rel_close
from divrank.dual import OneSidedInstance
from divrank.model import validate_instance
from divrank.oracle import (MERGE_RTOL, SizeCapError, UnboundedDualError,
                            brute_force_tiny, oracle_dual_breakpoints,
                            oracle_kink_set, oracle_support)
from divrank.solver import InfeasibleError, reduce_two_sided, solve


def one_sided(c, a, w, b2):
    return OneSidedInstance(c=np.asarray(c, float), a=np.asarray(a, float),
                            w=np.asarray(w, float), b2=float(b2))


class TestBreakpointOracle:
    def test_running_instance(self):
        ora = oracle_dual_breakpoints(one_sided([3, 2, 0], [1, -1, 0], [1], 0.0))
        assert ora.lambda_star == 0.5
        assert ora.g_star == 2.5
        assert ora.breakpoints.tolist() == [0.0, 0.5, 3.0]
        assert ora.g_minus < 0.0 < ora.g_plus

    def test_two_candidates(self):
        ora = oracle_dual_breakpoints(one_sided([3, 2], [1, 0], [1], 0.5))
        assert ora.lambda_star == 1.0

    def test_constant_diversity_slack(self):
        ora = oracle_dual_breakpoints(one_sided([3, 2, 1], [1, 1, 1], [1], 2.0))
        assert ora.breakpoints.tolist() == [0.0]
        assert ora.lambda_star == 0.0 and ora.g_minus is None

    def test_constant_diversity_unbounded(self):
        with pytest.raises(UnboundedDualError):
            oracle_dual_breakpoints(one_sided([3, 2, 1], [1, 1, 1], [1], 0.0))

    def test_size_cap(self):
        m = 2001
        inst = one_sided(np.zeros(m), np.zeros(m), [1], 0.0)
        with pytest.raises(SizeCapError):
            oracle_dual_breakpoints(inst)

    def test_flat_minimum_reports_leftmost(self):
        # g has slope 0 on [0, 0.5] when b2 = 1; the oracle pins lambda* = 0.
        ora = oracle_dual_breakpoints(one_sided([3, 2, 0], [1, -1, 0], [1], 1.0))
        assert ora.lambda_star == 0.0

    def test_merge_keeps_only_the_first_ratio_of_a_chain(self):
        # The a = 0 line crosses the others at 1, 1 + 6e-13 and 1 + 1.2e-12:
        # each within MERGE_RTOL of the ratio before it, while the chain as a
        # whole spans more than MERGE_RTOL.
        r = [1.0, 1.0 + 6e-13, 1.0 + 1.2e-12]
        assert r[2] - r[0] > MERGE_RTOL * r[2]
        ora = oracle_dual_breakpoints(one_sided([0.0] + r, [0, 1, 1, 1], [1], 0.5))
        assert ora.breakpoints.tolist() == [0.0, 1.0]

    def test_merge_rule_on_tie_prone_draws(self):
        """Kept ratios lie more than MERGE_RTOL apart, relative; each dropped
        ratio lies within MERGE_RTOL of the distinct ratio before it."""
        dropped = 0
        for rep in range(60):
            c, a, w, _ = random_one_sided_arrays((604, rep))
            # Copies of a few rows, 1-3 ulps higher in c, add near-equal ratios.
            rng = np.random.default_rng((605, rep))
            src = rng.integers(0, c.size, size=5)
            bump = rng.integers(1, 4, size=5) * np.spacing(c[src])
            c = np.concatenate((c, c[src] + bump))
            a = np.concatenate((a, a[src]))
            da = a[:, None] - a
            pair = da > 1e-15 * np.abs(a).max()
            ratios = (c[:, None] - c)[pair] / da[pair]
            ratios = np.unique(ratios[ratios > 0.0])
            b2 = float(w.sum() * np.abs(a).max()) + 1.0
            kept = oracle_dual_breakpoints(one_sided(c, a, w, b2)).breakpoints[1:]
            assert np.all(np.diff(kept) > MERGE_RTOL * kept[1:]), rep
            is_kept = np.isin(ratios, kept)
            assert is_kept.sum() == kept.size and (ratios.size == 0 or is_kept[0])
            gone = np.flatnonzero(~is_kept)
            assert np.all(ratios[gone] - ratios[gone - 1]
                          <= MERGE_RTOL * ratios[gone]), rep
            dropped += gone.size
        assert dropped >= 1000

    def test_kink_scan_cap(self):
        m = 201
        inst = one_sided(np.zeros(m), np.zeros(m), [1], 0.0)
        with pytest.raises(SizeCapError):
            oracle_kink_set(inst)


class TestBruteForce:
    def test_running_instance(self):
        inst = validate_instance(3, 1, [3.0, 2.0, 0.0], [1.0, -1.0, 0.0],
                                 [1.0], -0.5, 0.5)
        bf = brute_force_tiny(inst)
        assert bf is not None and bf.objective == pytest.approx(2.75, abs=1e-12)
        assert bf.support() <= {0, 1}
        assert bf.diversity == pytest.approx(0.5, abs=1e-12)

    def test_slack_bounds_reach_unconstrained_value(self):
        inst = validate_instance(3, 1, [3.0, 2.0, 0.0], [1.0, -1.0, 0.0],
                                 [1.0], -3.0, 3.0)
        bf = brute_force_tiny(inst)
        assert bf.objective == 3.0

    def test_infeasible_reported(self):
        inst = validate_instance(3, 1, [3.0, 2.0, 0.0], [1.0, -1.0, 0.0],
                                 [1.0], 2.0, 3.0)
        assert brute_force_tiny(inst) is None

    def test_size_cap(self):
        inst = validate_instance(8, 1, list(range(8)), [0.0] * 8, [1.0], -1.0, 1.0)
        with pytest.raises(SizeCapError):
            brute_force_tiny(inst)


class TestCrossValidation:
    def test_breakpoint_oracle_agrees_with_brute_force(self):
        checked = 0
        for rep in range(500):
            inst = random_tiny_instance((601, rep))
            if inst is None:
                continue
            bf = brute_force_tiny(inst)
            if bf is None:
                continue
            tol = 1e-9 * (1.0 + abs(inst.b1) + abs(inst.b2))
            assert inst.b1 - tol <= bf.diversity <= inst.b2 + tol, (rep, bf)
            red = reduce_two_sided(inst)
            if red.one_sided is None:
                assert rel_close(red.mixture.objective, bf.objective, 1e-9)
            else:
                ora = oracle_dual_breakpoints(red.one_sided)
                assert rel_close(ora.g_star, bf.objective, 1e-9), (rep, ora, bf)
            checked += 1
        assert checked >= 300

    def test_solver_lambda_is_a_breakpoint(self):
        for rep in range(80):
            inst = random_tiny_instance((602, rep))
            if inst is None:
                continue
            red = reduce_two_sided(inst)
            if red.one_sided is None:
                continue
            try:
                sol = solve(inst)
            except InfeasibleError:
                continue
            bps = oracle_dual_breakpoints(red.one_sided).breakpoints
            dist = np.min(np.abs(bps - sol.lambda_star))
            assert dist <= 1e-9 * (1.0 + sol.lambda_star)

    def test_support_contains_mixture_support(self):
        for rep in range(80):
            inst = random_tiny_instance((603, rep))
            if inst is None:
                continue
            red = reduce_two_sided(inst)
            if red.one_sided is None:
                continue
            try:
                sol = solve(inst)
            except InfeasibleError:
                continue
            sup = set(oracle_support(red.one_sided, sol.lambda_star).tolist())
            assert sol.mixture.support() <= sup
