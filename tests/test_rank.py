"""Sorting, tie groups, top-n membership and extremal diversity."""
from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import strict_weights
from divrank import rank
from divrank import solver as solver_module
from divrank.rank import (PARTITION_CAP, SAMPLE_RANK, SELECT_SLACK, SORT_WHOLE,
                          SortedScores, extremal_diversity, sort_scores,
                          unconstrained_extremes)
from divrank.model import validate_instance

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from benchmark.workloads import WORKLOADS  # noqa: E402


def groups_of(ss):
    return [set(ss.order[s:e].tolist()) for s, e in zip(ss.starts, ss.ends)]


def full_sort_reference(z, tau, n):
    """sort_scores as a full stable argsort over every score, cut after the
    group holding rank n: the reference the selecting version must
    reproduce."""
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
    end = int(ends[g])
    return SortedScores(order=order[:end], values=values[:end],
                        starts=starts[:g + 1], ends=ends[:g + 1])


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


def assert_selection_matches(z, tau, n, ref):
    """sort_scores(z, tau, n) is the full sort `ref` cut after the group
    holding rank n."""
    ss = sort_scores(z, tau, n)
    assert ss.order.tolist() == ref.order.tolist()
    assert ss.values.tolist() == ref.values.tolist()
    assert ss.starts.tolist() == ref.starts.tolist()
    assert ss.ends.tolist() == ref.ends.tolist()
    # Unique: every group meeting the top n is a single candidate.
    assert ss.unique == bool(np.all(ref.ends - ref.starts == 1))
    a = np.random.default_rng(n).normal(size=z.shape[0])
    w = np.linspace(2.0, 1.0, n)
    for largest in (False, True):
        val, slots = extremal_diversity(ss, largest, a, w)
        val_ref, slots_ref = extremal_diversity(ref, largest, a, w)
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
        assert_selection_matches(z, tau, n, full_sort_reference(z, tau, n))

    @pytest.mark.parametrize("m", [6000, 20000, 100000])
    @pytest.mark.parametrize("kind", ["gaussian", "ascending", "descending",
                                      "equal", "grid", "plateau"])
    def test_sampled_threshold_layouts(self, kind, m):
        z = large_layout(kind, m, np.random.default_rng((312, m)))
        for n in (1, 10, 30):
            # tau = 0, and the relative tolerance kink evaluations use.
            for tau in (0.0, 1e-9 * float(np.abs(z).max())):
                assert_selection_matches(z, tau, n, full_sort_reference(z, tau, n))

    def test_sample_holding_the_top_scores_widens(self):
        # The top scores sit exactly where the strided sample looks, so the
        # threshold leaves fewer than n scores and the full sort answers.
        m, n = 20_000, 10
        step = 2 * (n + SELECT_SLACK) // SAMPLE_RANK
        z = np.random.default_rng(313).random(m)
        z[::step][:SAMPLE_RANK] = 10.0 - np.arange(SAMPLE_RANK)
        assert (z >= z[(SAMPLE_RANK - 1) * step]).sum() < n
        assert_selection_matches(z, 0.0, n, full_sort_reference(z, 0.0, n))

    def test_tau_chain_past_the_threshold_comes_back_whole(self):
        # Ranks 5..5000 form one chain of gaps 0.9 tau, so the threshold
        # block cuts it and the full sort answers with the whole chain.
        m, tau = 20_000, 1e-3
        z = np.concatenate(([9.0, 8.0, 7.0, 6.0],
                            5.0 - 0.9 * tau * np.arange(4996),
                            -1.0 - np.arange(m - 5000, dtype=float)))
        z = z[np.random.default_rng(314).permutation(m)]
        ref = full_sort_reference(z, tau, 10)
        assert (ref.starts[-1], ref.ends[-1]) == (4, 5000)
        assert_selection_matches(z, tau, 10, ref)

    def test_distinct_scores_sort_only_a_block(self):
        z = np.random.default_rng(310).permutation(np.arange(100_000, dtype=float))
        ss = sort_scores(z, 0.0, 10)
        assert ss.order.shape[0] < z.shape[0] // 10
        assert z[ss.order].tolist() == list(range(99_999, 99_989, -1))

    def test_tie_group_far_past_the_block_comes_back_whole(self):
        # Ranks 5..5000 share one score, so the sampled threshold lands on
        # it, the block is far too large, and no score above it holds rank
        # 10: the whole block, group included, is the answer's prefix.
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
    """The top n with boundary ties, read off sort_scores: the last group
    holds rank n and straddles the cut when it ends past n."""

    def test_boundary_tie(self):
        ss = sort_scores(np.array([5.0, 3.0, 3.0, 1.0]), 0.0, 2)
        assert set(ss.order.tolist()) == {0, 1, 2}
        assert set(ss.order[:ss.starts[-1]].tolist()) == {0}  # certain
        assert set(ss.order[ss.starts[-1]:].tolist()) == {1, 2}  # tied
        assert 2 - ss.starts[-1] == 1  # slots the tied members share
        assert ss.ends[-1] > 2 and not ss.unique

    def test_clean_cut(self):
        ss = sort_scores(np.array([3.0, 2.0, 0.0]), 0.0, 2)
        assert ss.order.tolist() == [0, 1]
        assert ss.ends[-1] == 2 and ss.unique

    def test_total_tie(self):
        ss = sort_scores(np.array([1.0, 1.0, 1.0]), 0.0, 2)
        assert ss.starts.tolist() == [0] and ss.ends.tolist() == [3]
        assert set(ss.order.tolist()) == {0, 1, 2}
        assert not ss.unique

    def test_counting_invariants_random(self):
        for rep in range(50):
            rng = np.random.default_rng((301, rep))
            m = int(rng.integers(1, 12))
            n = int(rng.integers(1, m + 1))
            z = np.round(rng.normal(size=m), 1)
            ss = sort_scores(z, 0.0, n)
            # The last group holds rank n: it starts at or before slot n - 1
            # and ends at or after slot n.
            assert ss.starts[-1] < n <= ss.ends[-1] == ss.order.shape[0]
            assert ss.unique == (ss.order.shape[0] == n
                                 and np.all(ss.ends - ss.starts == 1))
            # Membership matches the counting definition of the top set.
            member = {i for i in range(m) if np.sum(z > z[i]) <= n - 1}
            assert set(ss.order.tolist()) == member

    def test_invariant_under_scale_and_shift(self):
        rng = np.random.default_rng(302)
        z = np.round(rng.normal(size=9), 1)
        ss = sort_scores(z, 0.0, 4)
        ss2 = sort_scores(3.7 * z + 11.0, 0.0, 4)
        assert ss.order.tolist() == ss2.order.tolist()
        assert ss.starts.tolist() == ss2.starts.tolist()
        assert ss.ends.tolist() == ss2.ends.tolist()


def loop_extremal(ss, largest, a, w):
    """The per-group loop that extremal_diversity's one stable sort
    replaced, kept as its reference."""
    n = w.shape[0]
    slots = ss.order[:n].copy()
    for start, end in zip(ss.starts.tolist(), ss.ends.tolist()):
        members = ss.order[start:end]
        av = -a[members] if largest else a[members]
        slots[start:end] = members[av.argsort(kind="stable")[:n - start]]
    return float(w.dot(a[slots])), slots


class TestExtremalDiversity:
    def test_matches_per_group_loop(self):
        # Coarse scores and diversities: tie groups at and before the cut,
        # members with equal a inside them, and tau chains on every third.
        for rep in range(300):
            rng = np.random.default_rng((305, rep))
            m = int(rng.integers(1, 60))
            n = int(rng.integers(1, m + 1))
            z = np.round(rng.normal(size=m), rep % 2)
            a = np.round(rng.normal(size=m), 1)
            ss = sort_scores(z, 0.15 if rep % 3 == 0 else 0.0, n)
            w = strict_weights(rng, n)
            for largest in (False, True):
                val, slots = extremal_diversity(ss, largest, a, w)
                val_ref, slots_ref = loop_extremal(ss, largest, a, w)
                assert slots.tolist() == slots_ref.tolist() and val == val_ref

    def test_two_way_tie_single_slot(self):
        z = np.array([2.5, 2.5, 0.0])
        a = np.array([1.0, -1.0, 0.0])
        w = np.array([1.0])
        ss = sort_scores(z, 0.0, 1)
        vmax, smax = extremal_diversity(ss, True, a, w)
        vmin, smin = extremal_diversity(ss, False, a, w)
        assert (vmax, smax.tolist()) == (1.0, [0])
        assert (vmin, smin.tolist()) == (-1.0, [1])

    def test_no_ties_min_equals_max(self):
        z = np.array([3.0, 2.0, 0.0])
        a = np.array([1.0, -1.0, 0.0])
        w = np.array([2.0, 1.0])
        ss = sort_scores(z, 0.0, 2)
        vmax, _ = extremal_diversity(ss, True, a, w)
        vmin, _ = extremal_diversity(ss, False, a, w)
        assert vmax == vmin == 1.0

    def test_three_way_tie_two_slots(self):
        z = np.zeros(3)
        a = np.array([5.0, 1.0, 3.0])
        w = np.array([2.0, 1.0])
        ss = sort_scores(z, 0.0, 2)
        vmax, _ = extremal_diversity(ss, True, a, w)
        vmin, _ = extremal_diversity(ss, False, a, w)
        assert vmax == 13.0  # 2*5 + 1*3
        assert vmin == 5.0   # 2*1 + 1*3

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
            for largest, side in ((True, 1.0), (False, -1.0)):
                val, slots = extremal_diversity(ss, largest, a, w)
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
            ss = sort_scores(z, 0.0, n)
            assert ss.unique and ss.order.shape[0] == n
            un = unconstrained_extremes(z, rng.normal(size=m), strict_weights(rng, n))
            assert un.min_div == un.max_div
            assert un.slots_min.tolist() == un.slots_max.tolist()


def sorted_extremes(c, a, w, tau):
    """unconstrained_extremes through sort_scores and extremal_diversity
    alone: the reference every selection branch must reproduce."""
    ss = sort_scores(c, tau, w.shape[0])
    value = float(w.dot(ss.values[:w.shape[0]]))
    (lo, s_lo), (hi, s_hi) = (extremal_diversity(ss, False, a, w),
                              extremal_diversity(ss, True, a, w))
    return value, lo, hi, s_lo, s_hi


def exact_fields(un):
    """(value, min_div, max_div, slots_min, slots_max), floats as their bits
    so that -0.0 and 0.0 differ."""
    value, lo, hi, s_lo, s_hi = un
    return (value.hex(), lo.hex(), hi.hex(), s_lo.tolist(), s_hi.tolist())


@st.composite
def top_n_cases(draw):
    """(c, a, w, tau) at every size the selection branches on: m = n + 1, a
    set sorted whole (m <= SORT_WHOLE), a partitioned one, and m
    just below and just above PARTITION_CAP. Scores tie inside the top n, at
    the cut (several equal scores, or +0.0 against -0.0), chain at tau > 0
    across the cut, or are all distinct."""
    n = draw(st.integers(1, 40))
    size = draw(st.sampled_from(("n+1", "whole", "partitioned", "cap")))
    if size == "n+1":
        m = n + 1
    elif size == "whole":
        m = draw(st.integers(n + 1, SORT_WHOLE))
    elif size == "partitioned":
        m = draw(st.integers(SORT_WHOLE + 1, 600))
    else:
        m = PARTITION_CAP + draw(st.integers(-2, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.normal(size=m)
    rank_of = np.argsort(-c, kind="stable")  # rank_of[r]: index at rank r
    kind = draw(st.sampled_from(("distinct", "in_top", "at_cut", "equal",
                                 "zeros", "chain")))
    tau = 0.0
    if kind == "in_top" and n > 1:
        r = draw(st.integers(0, n - 2))
        c[rank_of[r + 1]] = c[rank_of[r]]
    elif kind == "at_cut":
        # Ranks n - 1 .. n - 1 + k share one score, and k copies of it.
        k = draw(st.integers(1, min(5, m - n)))
        c[rank_of[n - 1:n + k]] = c[rank_of[n - 1]]
    elif kind == "equal":
        c = np.round(c * draw(st.sampled_from((0.0, 0.5, 2.0))))
    elif kind == "zeros":
        # Signed zeros over the top n + 2 ranks' scores: every one ties.
        top = rank_of[:min(n + 2, m)]
        c[top] = np.where(rng.random(top.shape[0]) < 0.5, 0.0, -0.0)
        c[rank_of[min(n + 2, m):]] -= 10.0
    elif kind == "chain":
        # A chain of gaps 0.9 tau through rank n - 1, starting at or above it
        # and ending at or past the cut, over scores 10 + rank apart.
        tau = 1e-3
        start = draw(st.integers(0, n - 1))
        end = draw(st.integers(n, m))
        c = -10.0 * np.arange(m, dtype=float)
        c[start:end] = c[start] - 0.9 * tau * np.arange(end - start)
        c = c[rng.permutation(m)]
    if draw(st.booleans()) and kind != "chain":
        tau = draw(st.sampled_from((1e-12, 0.05)))
    a = np.round(rng.normal(size=m), 1)
    return c, a, strict_weights(rng, n), tau


class TestPartitionedSelection:
    """unconstrained_extremes' own selection against sort_scores."""

    @settings(max_examples=600)
    @given(top_n_cases())
    def test_every_branch_matches_sorted_extremes(self, case):
        c, a, w, tau = case
        assert (exact_fields(unconstrained_extremes(c, a, w, tau))
                == exact_fields(sorted_extremes(c, a, w, tau)))

    @pytest.mark.parametrize("m", [11, 300, PARTITION_CAP])
    def test_tie_free_calls_build_no_tie_groups(self, m, monkeypatch):
        rng = np.random.default_rng((320, m))
        c, a, w = rng.normal(size=m), rng.normal(size=m), strict_weights(rng, 10)
        want = exact_fields(sorted_extremes(c, a, w, 0.0))

        def refused(*args):
            raise AssertionError("tie machinery reached")

        for name in ("sort_scores", "_grouped", "extremal_diversity"):
            monkeypatch.setattr(rank, name, refused)
        assert exact_fields(unconstrained_extremes(c, a, w)) == want

    def test_above_the_cap_sort_scores_answers(self, monkeypatch):
        m = PARTITION_CAP + 1
        rng = np.random.default_rng(321)
        c, a, w = rng.normal(size=m), rng.normal(size=m), strict_weights(rng, 10)
        calls = []
        real = rank.sort_scores
        monkeypatch.setattr(rank, "sort_scores",
                            lambda *args: calls.append(args) or real(*args))
        unconstrained_extremes(c, a, w)
        assert len(calls) == 1


def solution_fields(sol):
    """Every Solution field, floats as their repr, wall_time_us aside."""
    st_ = sol.stats
    survivors = None if st_.survivors is None else st_.survivors.tolist()
    return (sol.status, repr(sol.lambda_star), repr(sol.mixture),
            st_.iterations, st_.screen_events, st_.dropped, st_.exact,
            repr(st_.duality_gap), survivors)


@pytest.mark.parametrize("workload", ["rerank_1k", "ties_mixed_10k"])
def test_solves_match_with_sort_scores_alone(workload, monkeypatch):
    """With the cap at 0 every selection goes through sort_scores; 100
    benchmark draws solve to the same fields either way."""
    spec = WORKLOADS[workload]
    insts = []
    for k in range(100):
        raw = spec.make(4, k)
        insts.append(validate_instance(raw.m, raw.n, raw.c, raw.a, raw.w,
                                       raw.b1, raw.b2))
    fast = [solution_fields(solver_module.solve(i, spec.options)) for i in insts]
    monkeypatch.setattr(rank, "PARTITION_CAP", 0)
    assert [solution_fields(solver_module.solve(i, spec.options))
            for i in insts] == fast
