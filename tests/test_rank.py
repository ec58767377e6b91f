"""Sorting, tie groups, top-n membership and extremal diversity."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import strict_weights
from divrank.rank import (MAX_DIVERSITY, MIN_DIVERSITY, SAMPLE_RANK,
                          SELECT_SLACK, SortedScores, TopSet, extremal_diversity,
                          sort_scores, top_n_with_ties, unconstrained_extremes)
from divrank.model import validate_instance


def groups_of(ss):
    return [set(ss.order[s:e].tolist()) for s, e in zip(ss.starts, ss.ends)]


def full_sort_reference(z, tau, n):
    """sort_scores as a full stable argsort over every score, with the top
    set read off it: the reference the selecting version must reproduce up
    to the group holding rank n. Returns (sorted scores, top set, index of
    the group holding rank n)."""
    z = np.asarray(z, dtype=np.float64)
    order = np.argsort(-z, kind="stable")
    values = z[order]
    if values.shape[0] > 1:
        brk = np.flatnonzero((values[:-1] - values[1:]) > tau)
        starts = np.concatenate(([0], brk + 1))
        ends = np.concatenate((brk + 1, [values.shape[0]]))
    else:
        starts = np.zeros(1, dtype=np.intp)
        ends = np.full(1, values.shape[0], dtype=np.intp)
    g = int(np.searchsorted(starts, n - 1, side="right") - 1)
    start, end = int(starts[g]), int(ends[g])
    if end == n:
        ts = TopSet(order[:n], order[:0], 0, n, g)
    else:
        ts = TopSet(order[:start], order[start:end], n - start, end, g)
    ss = SortedScores(order=order, values=values, starts=starts, ends=ends,
                      tau=float(tau))
    return ss, ts, g


TAU = 1e-3


@st.composite
def scores_and_cut(draw):
    """(z, tau, n): exact ties on small integer grids, near-ties within and
    just beyond tau, tau chains through rank n that may run past the
    selected block, and all-equal scores; m = 1 and n = m included."""
    m = draw(st.integers(1, 400))
    n = draw(st.one_of(st.just(m), st.integers(1, m)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("grid", "near", "chain", "equal")))
    tau = 0.0
    if kind == "grid":
        z = rng.integers(-draw(st.integers(0, 6)), 7, size=m).astype(float)
    elif kind == "near":
        tau = TAU
        z = (np.round(rng.normal(size=m), 1)
             + rng.choice([0.0, 0.5, 1.0, 1.5], size=m) * tau)
    elif kind == "chain":
        # Distinct scores above and below a chain of gaps 0.9 * tau that
        # holds rank n, in descending rank order before shuffling.
        tau = TAU
        start = draw(st.integers(0, n - 1))
        length = draw(st.integers(n - start, m - start))
        below = m - start - length
        z = np.concatenate((
            1e3 - np.arange(start, dtype=float),
            1e3 - start - 0.5 - 0.9 * tau * np.arange(length),
            1e3 - start - length - 1.0 - np.arange(below, dtype=float)))
    else:
        z = np.full(m, draw(st.floats(-10.0, 10.0)))
    return rng.permutation(z), tau, n


def assert_selection_matches(z, tau, n, ref, ts_ref, g):
    """sort_scores(z, tau, n) ends with the group holding rank n, and
    everything up to it is what the full sort `ref` gives."""
    ss = sort_scores(z, tau, n)
    top_end = int(ref.ends[g])
    assert ss.order.tolist() == ref.order[:top_end].tolist()
    assert ss.values.tolist() == ref.values[:top_end].tolist()
    assert ss.starts.tolist() == ref.starts[:g + 1].tolist()
    assert ss.ends.tolist() == ref.ends[:g + 1].tolist()
    ts = top_n_with_ties(ss, n)
    assert ts.certain.tolist() == ts_ref.certain.tolist()
    assert ts.tied.tolist() == ts_ref.tied.tolist()
    assert (ts.slots_in_tied, ts.top_end, ts.cut_group) == (
        ts_ref.slots_in_tied, ts_ref.top_end, ts_ref.cut_group)
    a = np.random.default_rng(n).normal(size=z.shape[0])
    w = np.linspace(2.0, 1.0, n)
    for direction in (MIN_DIVERSITY, MAX_DIVERSITY):
        val, slots = extremal_diversity(ss, ts, a, w, direction)
        val_ref, slots_ref = extremal_diversity(ref, ts_ref, a, w, direction)
        assert val == val_ref and slots.tolist() == slots_ref.tolist()


def large_layout(kind, m, rng):
    """Scores at sizes where selection reads its threshold off a sample."""
    if kind == "gaussian":
        return rng.normal(size=m)
    if kind == "ascending":
        return np.arange(m, dtype=float)
    if kind == "descending":
        return np.arange(m, 0, -1, dtype=float)
    if kind == "equal":
        return np.full(m, 1.5)
    if kind == "grid":
        return np.round(rng.normal(size=m) * 4.0) / 4.0
    # A plateau on every even index, which is all an even-strided sample
    # sees, under 100 larger scores at odd indices; the other odd ones lie
    # below the plateau.
    z = np.where(np.arange(m) % 2 == 0, 0.0, -1.0 - rng.random(m))
    z[rng.choice(np.arange(1, m, 2), 100, replace=False)] = 1.0 + rng.random(100)
    return z


class TestSelectionMatchesFullSort:
    @settings(max_examples=400)
    @given(scores_and_cut())
    def test_prefix_and_groups_match_full_sort(self, case):
        z, tau, n = case
        assert_selection_matches(z, tau, n, *full_sort_reference(z, tau, n))

    @pytest.mark.parametrize("m", [6000, 20000, 100000])
    @pytest.mark.parametrize("kind", ["gaussian", "ascending", "descending",
                                      "equal", "grid", "plateau"])
    def test_sampled_threshold_layouts(self, kind, m):
        z = large_layout(kind, m, np.random.default_rng((312, m)))
        for n in (1, 10, 30):
            # tau = 0, and the relative tolerance kink evaluations use.
            for tau in (0.0, 1e-9 * float(np.abs(z).max())):
                assert_selection_matches(z, tau, n, *full_sort_reference(z, tau, n))

    def test_sample_holding_the_top_scores_widens(self):
        # The top scores sit exactly where the strided sample looks, so the
        # first threshold leaves fewer than n scores and k must grow.
        m, n = 20_000, 10
        step = 2 * (n + SELECT_SLACK) // SAMPLE_RANK
        z = np.random.default_rng(313).random(m)
        z[::step][:SAMPLE_RANK] = 10.0 - np.arange(SAMPLE_RANK)
        assert (z >= z[(SAMPLE_RANK - 1) * step]).sum() < n
        assert_selection_matches(z, 0.0, n, *full_sort_reference(z, 0.0, n))

    def test_tau_chain_past_the_threshold_comes_back_whole(self):
        # Ranks 5..5000 form one chain of gaps 0.9 tau, so every threshold
        # block cuts it and selection must widen until the chain ends.
        m, tau = 20_000, 1e-3
        z = np.concatenate(([9.0, 8.0, 7.0, 6.0],
                            5.0 - 0.9 * tau * np.arange(4996),
                            -1.0 - np.arange(m - 5000, dtype=float)))
        z = z[np.random.default_rng(314).permutation(m)]
        ref, ts_ref, g = full_sort_reference(z, tau, 10)
        assert (ref.starts[g], ref.ends[g]) == (4, 5000)
        assert_selection_matches(z, tau, 10, ref, ts_ref, g)

    def test_distinct_scores_sort_only_a_block(self):
        z = np.random.default_rng(310).permutation(np.arange(100_000, dtype=float))
        ss = sort_scores(z, 0.0, 10)
        assert ss.order.shape[0] < z.shape[0] // 10
        assert z[ss.order].tolist() == list(range(99_999, 99_989, -1))

    def test_tie_group_far_past_the_block_comes_back_whole(self):
        # Ranks 5..5000 share one score, so the group holding rank 10 runs
        # far past the first selected block and the block must widen.
        m = 20_000
        z = np.concatenate(([9.0, 8.0, 7.0, 6.0], np.full(4996, 5.0),
                            np.linspace(4.0, 0.0, m - 5000)))
        perm = np.random.default_rng(311).permutation(m)
        ss = sort_scores(z[perm], 0.0, 10)
        assert 5000 > 10 + SELECT_SLACK
        assert ss.starts.shape[0] == 5  # the straddling group is the last
        assert (ss.starts[4], ss.ends[4]) == (4, 5000)
        tied = ss.order[4:5000]
        assert np.all(z[perm][tied] == 5.0)
        assert tied.tolist() == sorted(tied.tolist())


class TestSortScores:
    def test_distinct_values(self):
        ss = sort_scores(np.array([3.0, 2.0, 0.0]), 0.0, 3)
        assert ss.order.tolist() == [0, 1, 2]
        assert groups_of(ss) == [{0}, {1}, {2}]

    def test_exact_tie(self):
        ss = sort_scores(np.array([2.5, 2.5, 0.0]), 0.0, 3)
        assert groups_of(ss) == [{0, 1}, {2}]

    def test_total_tie(self):
        ss = sort_scores(np.array([1.0, 1.0, 1.0]), 0.0, 1)
        assert groups_of(ss) == [{0, 1, 2}]

    def test_tau_widens_groups(self):
        z = np.array([1.0, 1.0 - 1e-10, 0.0])
        assert len(groups_of(sort_scores(z, 0.0, 3))) == 3
        assert groups_of(sort_scores(z, 1e-9, 3)) == [{0, 1}, {2}]

    def test_tie_order_deterministic_by_index(self):
        ss = sort_scores(np.array([1.0, 1.0, 1.0, 2.0]), 0.0, 4)
        assert ss.order.tolist() == [3, 0, 1, 2]

    def test_sorted_through_the_group_holding_rank_n(self):
        z = np.array([5.0, 3.0, 3.0, 1.0])
        ss = sort_scores(z, 0.0, 2)  # the tie at ranks 2-3 straddles the cut
        assert ss.order.tolist() == [0, 1, 2]
        assert groups_of(ss) == [{0}, {1, 2}]
        ss = sort_scores(z, 0.0, 1)  # a clean cut after rank 1
        assert ss.order.tolist() == [0] and groups_of(ss) == [{0}]

    def test_out_of_range_n_rejected(self):
        for n in (0, -1, 3):
            with pytest.raises(ValueError, match="out of range"):
                sort_scores(np.array([1.0, 2.0]), 0.0, n)


class TestTopNWithTies:
    def test_boundary_tie(self):
        ss = sort_scores(np.array([5.0, 3.0, 3.0, 1.0]), 0.0, 2)
        ts = top_n_with_ties(ss, 2)
        assert set(ts.certain.tolist()) == {0}
        assert set(ts.tied.tolist()) == {1, 2}
        assert ts.slots_in_tied == 1
        assert set(ss.order[:ts.top_end].tolist()) == {0, 1, 2}

    def test_clean_cut(self):
        ss = sort_scores(np.array([3.0, 2.0, 0.0]), 0.0, 2)
        ts = top_n_with_ties(ss, 2)
        assert set(ts.certain.tolist()) == {0, 1}
        assert ts.tied.size == 0 and ts.slots_in_tied == 0

    def test_total_tie(self):
        ss = sort_scores(np.array([1.0, 1.0, 1.0]), 0.0, 2)
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
            ts = top_n_with_ties(sort_scores(z, 0.0, n), n)
            assert ts.certain.size + ts.slots_in_tied == n
            assert ts.certain.size + ts.tied.size == ts.top_end >= n
            assert ts.slots_in_tied <= ts.tied.size
            # Membership matches the counting definition of the top set.
            member = {i for i in range(m) if np.sum(z > z[i]) <= n - 1}
            assert set(ts.certain.tolist()) | set(ts.tied.tolist()) == member

    def test_invariant_under_scale_and_shift(self):
        rng = np.random.default_rng(302)
        z = np.round(rng.normal(size=9), 1)
        ts = top_n_with_ties(sort_scores(z, 0.0, 4), 4)
        z2 = 3.7 * z + 11.0
        ts2 = top_n_with_ties(sort_scores(z2, 0.0, 4), 4)
        assert set(ts.certain.tolist()) == set(ts2.certain.tolist())
        assert set(ts.tied.tolist()) == set(ts2.tied.tolist())
        assert ts.slots_in_tied == ts2.slots_in_tied


class TestExtremalDiversity:
    def test_two_way_tie_single_slot(self):
        z = np.array([2.5, 2.5, 0.0])
        a = np.array([1.0, -1.0, 0.0])
        w = np.array([1.0])
        ss = sort_scores(z, 0.0, 1)
        ts = top_n_with_ties(ss, 1)
        vmax, smax = extremal_diversity(ss, ts, a, w, MAX_DIVERSITY)
        vmin, smin = extremal_diversity(ss, ts, a, w, MIN_DIVERSITY)
        assert (vmax, smax.tolist()) == (1.0, [0])
        assert (vmin, smin.tolist()) == (-1.0, [1])

    def test_no_ties_min_equals_max(self):
        z = np.array([3.0, 2.0, 0.0])
        a = np.array([1.0, -1.0, 0.0])
        w = np.array([2.0, 1.0])
        ss = sort_scores(z, 0.0, 2)
        ts = top_n_with_ties(ss, 2)
        vmax, _ = extremal_diversity(ss, ts, a, w, MAX_DIVERSITY)
        vmin, _ = extremal_diversity(ss, ts, a, w, MIN_DIVERSITY)
        assert vmax == vmin == 1.0

    def test_three_way_tie_two_slots(self):
        z = np.zeros(3)
        a = np.array([5.0, 1.0, 3.0])
        w = np.array([2.0, 1.0])
        ss = sort_scores(z, 0.0, 2)
        ts = top_n_with_ties(ss, 2)
        vmax, _ = extremal_diversity(ss, ts, a, w, MAX_DIVERSITY)
        vmin, _ = extremal_diversity(ss, ts, a, w, MIN_DIVERSITY)
        assert vmax == 13.0  # 2*5 + 1*3
        assert vmin == 5.0   # 2*1 + 1*3

    def test_unknown_direction_rejected(self):
        ss = sort_scores(np.array([1.0, 0.0]), 0.0, 1)
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
            ss = sort_scores(z, 0.0, n)
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
        un = unconstrained_extremes(inst.c, inst.a, inst.w)
        assert un.value == 8.0
        assert un.slots_min.tolist() == un.slots_max.tolist() == [0, 1]
        assert un.min_div == un.max_div == 1.0

    def test_tied_scores_split_diversity(self):
        inst = validate_instance(3, 2, [3.0, 3.0, 0.0], [1.0, -1.0, 0.0],
                                 [2.0, 1.0], -10.0, 10.0)
        un = unconstrained_extremes(inst.c, inst.a, inst.w)
        assert un.value == 9.0
        assert un.min_div == -1.0 and un.slots_min.tolist() == [1, 0]
        assert un.max_div == 1.0 and un.slots_max.tolist() == [0, 1]

    def test_zero_diversity_scores(self):
        inst = validate_instance(3, 2, [1.0, 1.0, 1.0], [0.0, 0.0, 0.0],
                                 [2.0, 1.0], -1.0, 1.0)
        un = unconstrained_extremes(inst.c, inst.a, inst.w)
        assert un.min_div == un.max_div == 0.0

    def test_distinct_scores_have_tight_top_set(self):
        for rep in range(40):
            rng = np.random.default_rng((305, rep))
            m = int(rng.integers(1, 30))
            n = int(rng.integers(1, min(m, 8) + 1))
            z = rng.normal(size=m)  # continuous: distinct w.p. 1
            ts = top_n_with_ties(sort_scores(z, 0.0, n), n)
            assert ts.tied.size == 0 and ts.certain.size == n
            un = unconstrained_extremes(z, rng.normal(size=m), strict_weights(rng, n))
            assert un.min_div == un.max_div
            assert un.slots_min.tolist() == un.slots_max.tolist()
