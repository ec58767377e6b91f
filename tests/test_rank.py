"""Sorting, tie groups, top-n membership and extremal diversity."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from conftest import strict_weights
from divrank.rank import (MAX_DIVERSITY, MIN_DIVERSITY, extremal_diversity,
                          sort_scores, solve_unconstrained, top_n_with_ties,
                          unconstrained_extremes)
from divrank.model import validate_instance


def groups_of(ss):
    return [set(ss.order[s:e].tolist()) for s, e in zip(ss.starts, ss.ends)]


class TestSortScores:
    def test_distinct_values(self):
        ss = sort_scores(np.array([3.0, 2.0, 0.0]))
        assert ss.order.tolist() == [0, 1, 2]
        assert groups_of(ss) == [{0}, {1}, {2}]

    def test_exact_tie(self):
        ss = sort_scores(np.array([2.5, 2.5, 0.0]))
        assert groups_of(ss) == [{0, 1}, {2}]

    def test_total_tie(self):
        ss = sort_scores(np.array([1.0, 1.0, 1.0]))
        assert groups_of(ss) == [{0, 1, 2}]

    def test_tau_widens_groups(self):
        z = np.array([1.0, 1.0 - 1e-10, 0.0])
        assert len(groups_of(sort_scores(z, tau=0.0))) == 3
        assert groups_of(sort_scores(z, tau=1e-9)) == [{0, 1}, {2}]

    def test_tie_order_deterministic_by_index(self):
        ss = sort_scores(np.array([1.0, 1.0, 1.0, 2.0]))
        assert ss.order.tolist() == [3, 0, 1, 2]

    def test_boundary_group_flag(self):
        ss = sort_scores(np.array([5.0, 3.0, 3.0, 1.0]), n=2)
        assert ss.boundary_group == 1
        ss2 = sort_scores(np.array([3.0, 2.0, 0.0]), n=2)
        assert ss2.boundary_group is None


class TestTopNWithTies:
    def test_boundary_tie(self):
        ss = sort_scores(np.array([5.0, 3.0, 3.0, 1.0]))
        ts = top_n_with_ties(ss, 2)
        assert set(ts.certain.tolist()) == {0}
        assert set(ts.tied.tolist()) == {1, 2}
        assert ts.slots_in_tied == 1
        assert set(ss.order[:ts.top_end].tolist()) == {0, 1, 2}

    def test_clean_cut(self):
        ss = sort_scores(np.array([3.0, 2.0, 0.0]))
        ts = top_n_with_ties(ss, 2)
        assert set(ts.certain.tolist()) == {0, 1}
        assert ts.tied.size == 0 and ts.slots_in_tied == 0

    def test_total_tie(self):
        ss = sort_scores(np.array([1.0, 1.0, 1.0]))
        ts = top_n_with_ties(ss, 2)
        assert ts.certain.size == 0
        assert set(ts.tied.tolist()) == {0, 1, 2}
        assert ts.slots_in_tied == 2

    def test_counting_invariants_random(self):
        for rep in range(50):
            rng = np.random.default_rng((301, rep))
            m = int(rng.integers(1, 12))
            n = int(rng.integers(1, m + 1))
            z = np.round(rng.normal(size=m), 1)
            ts = top_n_with_ties(sort_scores(z), n)
            assert ts.certain.size + ts.slots_in_tied == n
            assert ts.certain.size + ts.tied.size == ts.top_end >= n
            assert ts.slots_in_tied <= ts.tied.size
            # Membership matches the counting definition of the top set.
            member = {i for i in range(m) if np.sum(z > z[i]) <= n - 1}
            assert set(ts.certain.tolist()) | set(ts.tied.tolist()) == member

    def test_out_of_range_n(self):
        ss = sort_scores(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            top_n_with_ties(ss, 3)

    def test_invariant_under_scale_and_shift(self):
        rng = np.random.default_rng(302)
        z = np.round(rng.normal(size=9), 1)
        ss = sort_scores(z)
        ts = top_n_with_ties(ss, 4)
        z2 = 3.7 * z + 11.0
        ts2 = top_n_with_ties(sort_scores(z2), 4)
        assert set(ts.certain.tolist()) == set(ts2.certain.tolist())
        assert set(ts.tied.tolist()) == set(ts2.tied.tolist())
        assert ts.slots_in_tied == ts2.slots_in_tied


class TestExtremalDiversity:
    def test_two_way_tie_single_slot(self):
        z = np.array([2.5, 2.5, 0.0])
        a = np.array([1.0, -1.0, 0.0])
        w = np.array([1.0])
        ss = sort_scores(z, n=1)
        ts = top_n_with_ties(ss, 1)
        vmax, smax = extremal_diversity(ss, ts, a, w, MAX_DIVERSITY)
        vmin, smin = extremal_diversity(ss, ts, a, w, MIN_DIVERSITY)
        assert (vmax, smax.tolist()) == (1.0, [0])
        assert (vmin, smin.tolist()) == (-1.0, [1])

    def test_no_ties_min_equals_max(self):
        z = np.array([3.0, 2.0, 0.0])
        a = np.array([1.0, -1.0, 0.0])
        w = np.array([2.0, 1.0])
        ss = sort_scores(z, n=2)
        ts = top_n_with_ties(ss, 2)
        vmax, _ = extremal_diversity(ss, ts, a, w, MAX_DIVERSITY)
        vmin, _ = extremal_diversity(ss, ts, a, w, MIN_DIVERSITY)
        assert vmax == vmin == 1.0

    def test_three_way_tie_two_slots(self):
        z = np.zeros(3)
        a = np.array([5.0, 1.0, 3.0])
        w = np.array([2.0, 1.0])
        ss = sort_scores(z, n=2)
        ts = top_n_with_ties(ss, 2)
        vmax, _ = extremal_diversity(ss, ts, a, w, MAX_DIVERSITY)
        vmin, _ = extremal_diversity(ss, ts, a, w, MIN_DIVERSITY)
        assert vmax == 13.0  # 2*5 + 1*3
        assert vmin == 5.0   # 2*1 + 1*3

    def test_unknown_direction_rejected(self):
        ss = sort_scores(np.array([1.0, 0.0]), n=1)
        ts = top_n_with_ties(ss, 1)
        with pytest.raises(ValueError):
            extremal_diversity(ss, ts, np.zeros(2), np.ones(1), "median")

    def test_matches_exhaustive_enumeration(self):
        for rep in range(200):
            rng = np.random.default_rng((303, rep))
            m = int(rng.integers(1, 8))
            n = int(rng.integers(1, min(m, 3) + 1))
            c = np.round(rng.normal(size=m), 1)
            a = np.round(rng.normal(size=m), 1)
            w = strict_weights(rng, n)
            un = unconstrained_extremes(c, a, w)
            best = -np.inf
            divs = []
            for perm in itertools.permutations(range(m), n):
                obj = float(np.dot(w, c[list(perm)]))
                if obj > best + 1e-12:
                    best = obj
                    divs = [float(np.dot(w, a[list(perm)]))]
                elif abs(obj - best) <= 1e-12:
                    divs.append(float(np.dot(w, a[list(perm)])))
            assert un.value == pytest.approx(best, abs=1e-12)
            assert un.min_div == pytest.approx(min(divs), abs=1e-9)
            assert un.max_div == pytest.approx(max(divs), abs=1e-9)

    def test_swaps_never_improve_extremum(self):
        # Rearrangement optimality: exchanging two occupants of the returned
        # assignment keeps the value on the correct side.
        for rep in range(60):
            rng = np.random.default_rng((304, rep))
            m = int(rng.integers(2, 9))
            n = int(rng.integers(1, min(m, 4) + 1))
            z = np.round(rng.normal(size=m), 0)  # coarse: many ties
            a = rng.normal(size=m)
            w = strict_weights(rng, n)
            ss = sort_scores(z, n=n)
            ts = top_n_with_ties(ss, n)
            for direction, side in ((MAX_DIVERSITY, 1.0), (MIN_DIVERSITY, -1.0)):
                val, slots = extremal_diversity(ss, ts, a, w, direction)
                base_obj = float(np.dot(w, z[slots]))
                for i in range(n):
                    for j in range(i + 1, n):
                        swapped = slots.copy()
                        swapped[i], swapped[j] = swapped[j], swapped[i]
                        if float(np.dot(w, z[swapped])) < base_obj - 1e-12:
                            continue  # swap leaves the optimal face
                        cand = float(np.dot(w, a[swapped]))
                        assert side * (cand - val) <= 1e-9


class TestSolveUnconstrained:
    def test_unique_optimum(self):
        inst = validate_instance(3, 2, [3.0, 2.0, 0.0], [1.0, -1.0, 0.0],
                                 [2.0, 1.0], -10.0, 10.0)
        un = solve_unconstrained(inst)
        assert un.value == 8.0
        assert un.slots_min.tolist() == un.slots_max.tolist() == [0, 1]
        assert un.min_div == un.max_div == 1.0

    def test_tied_scores_split_diversity(self):
        inst = validate_instance(3, 2, [3.0, 3.0, 0.0], [1.0, -1.0, 0.0],
                                 [2.0, 1.0], -10.0, 10.0)
        un = solve_unconstrained(inst)
        assert un.value == 9.0
        assert un.min_div == -1.0 and un.slots_min.tolist() == [1, 0]
        assert un.max_div == 1.0 and un.slots_max.tolist() == [0, 1]

    def test_zero_diversity_scores(self):
        inst = validate_instance(3, 2, [1.0, 1.0, 1.0], [0.0, 0.0, 0.0],
                                 [2.0, 1.0], -1.0, 1.0)
        un = solve_unconstrained(inst)
        assert un.min_div == un.max_div == 0.0

    def test_distinct_scores_have_tight_top_set(self):
        for rep in range(40):
            rng = np.random.default_rng((305, rep))
            m = int(rng.integers(1, 30))
            n = int(rng.integers(1, min(m, 8) + 1))
            z = rng.normal(size=m)  # continuous: distinct w.p. 1
            ts = top_n_with_ties(sort_scores(z), n)
            assert ts.tied.size == 0 and ts.certain.size == n
            un = unconstrained_extremes(z, rng.normal(size=m), strict_weights(rng, n))
            assert un.min_div == un.max_div
            assert un.slots_min.tolist() == un.slots_max.tolist()
