"""Dual function values, one-sided derivatives, and kink geometry."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divrank.dual as dual
from conftest import random_one_sided_arrays
from divrank import SolveOptions, solve, validate_instance
from divrank.datagen import GenConfig, gen_synthetic
from divrank.dual import (PARALLEL_RTOL, ActiveSet, OneSidedInstance, eval_dual,
                          kink_left, kink_right, kink_tie_tol, lowest_crossing,
                          scores)
from divrank.oracle import oracle_dual_breakpoints, oracle_kink_set, trace_kinks
from divrank.rank import sort_scores, unconstrained_extremes


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
        ss = sort_scores(ev.z, ev.tau, 1)
        assert set(ss.order.tolist()) == {0, 1}
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
        assert kink_right(ev) == 1.0

    def test_nearest_right_kink(self):
        inst, act = make([3, 2, 0], [1, -1, 0], [1], 0.0)
        assert kink_right(eval_dual(inst, 0.0, act)) == 0.5

    def test_no_crossings_is_infinite(self):
        inst, act = make([3, 2], [0, 0], [1], 0.0)
        assert kink_right(eval_dual(inst, 0.0, act)) == np.inf

    def test_nearest_left_kink(self):
        inst, act = make([3, 2, 0], [1, -1, 0], [1], 0.0)
        assert kink_left(eval_dual(inst, 2.0, act)) == 0.5

    def test_left_of_first_kink_is_zero(self):
        # g is affine on [0, 0.25]: the step stops at the end of the domain.
        inst, act = make([3, 2, 0], [1, -1, 0], [1], 0.0)
        assert kink_left(eval_dual(inst, 0.25, act)) == 0.0

    def test_constant_diversity_left_zero(self):
        inst, act = make([3, 2, 0], [0, 0, 0], [1], 0.0)
        assert kink_left(eval_dual(inst, 5.0, act)) == 0.0

    def test_kinks_bracket_current_point(self):
        for rep in range(40):
            c, a, w, n = random_one_sided_arrays((403, rep), m_max=15)
            inst, act = make(c, a, w, 0.0)
            lam = float(np.random.default_rng((404, rep)).uniform(0, 2))
            ev = eval_dual(inst, lam, act)
            kr = kink_right(ev)
            kl = kink_left(ev)
            assert kr > lam
            assert 0.0 <= kl < lam


def reference_offsets(ev, active, forward):
    """Every positive crossing offset against the top set on the given
    side, ev's min- or max-diversity assignment, from one m x |top set|
    pass that gathers the valid pairs: all (row, member) pairs, of which
    the kink step takes m + n - 1. An offset past the largest float is
    +inf."""
    t_idx = ev.slots_min if forward else ev.slots_max
    num = ev.z[:, None] - ev.z[t_idx][None, :]
    den = active.a[:, None] - active.a[t_idx][None, :]
    if not forward:
        den = -den
    a_tol = PARALLEL_RTOL * float(np.abs(active.a).max()) if active.a.size else 0.0
    z_tol = ev.tau
    valid = ((num > z_tol) & (den > a_tol)) | ((num < -z_tol) & (den < -a_tol))
    with np.errstate(over="ignore"):
        return num[valid] / den[valid]


def reference_crossing(ev, active, forward):
    """The smallest of reference_offsets, +inf for none: the full-pair
    reference for dual._nearest_crossing."""
    offsets = reference_offsets(ev, active, forward)
    return float(offsets.min()) if offsets.size else math.inf


@st.composite
def kink_cases(draw):
    """(instance, active set, lam, tau) on grid scores, where ties across
    the rank-n cut, duplicated rows and parallel lines are all common, or
    on continuous draws; c and a are each scaled by 2**0 or 2**+-450, so
    offsets reach about 2**+-900."""
    m = draw(st.integers(1, 60))
    n = draw(st.integers(1, min(m, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = draw(st.sampled_from((0.25, 0.5, 1.0)))
    span = draw(st.integers(1, 6))
    if draw(st.booleans()):
        c = rng.integers(-4 * span, 4 * span + 1, size=m) * step
        a = rng.integers(-span, span + 1, size=m) * step  # few slopes: parallels
    else:
        c = rng.normal(scale=4 * span * step, size=m)
        a = rng.normal(scale=span * step, size=m)
    c = np.ldexp(c, draw(st.sampled_from((0, 450, -450))))
    a = np.ldexp(a, draw(st.sampled_from((0, 450, -450))))
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


@st.composite
def tied_top_cases(draw):
    """(instance, active set, lam) with ties across the rank-n cut common:
    scores on a grid, duplicated rows, or a constant `a`, evaluated at grid
    points where grid scores tie exactly."""
    m = draw(st.integers(1, 60))
    n = draw(st.integers(1, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = draw(st.sampled_from((0.25, 0.5, 1.0)))
    c = rng.integers(-8, 9, size=m) * step
    a = rng.integers(-4, 5, size=m) * step
    kind = draw(st.sampled_from(("grid", "duplicated", "constant_a")))
    if kind == "duplicated":
        src, dst = rng.integers(0, m, size=(2, max(m // 2, 1)))
        c[dst], a[dst] = c[src], a[src]
    elif kind == "constant_a":
        a = np.full(m, draw(st.sampled_from((0.0, -1.0, 2.0))))
    inst = OneSidedInstance(c, a, np.linspace(1.0, 0.5, n), 0.0)
    act = ActiveSet.full(inst)
    if m > n and draw(st.booleans()):  # a screened active set
        act = act.keep(np.sort(rng.permutation(m)[:draw(st.integers(n, m))]))
    return inst, act, draw(st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.0)))


def noise_tie_step_case(draw):
    """(instance, active set, lam) with scores on a 0.25 grid, c in
    [-0.5, 0.5] so that many lines meet at common points, evaluated at a
    lam that is not dyadic: the scores there, and the crossing offsets
    from there, carry rounding noise."""
    rng = np.random.default_rng((461, draw))
    m = int(rng.integers(2, 24))
    n = int(rng.integers(1, min(m, 8) + 1))
    c = rng.integers(-2, 3, size=m) * 0.25
    a = rng.integers(-4, 5, size=m) * 0.25
    lam = float(rng.choice([0.1, 0.3, 1 / 3, 0.7, 1 / 7]))
    inst = OneSidedInstance(c, a, np.linspace(1.0, 0.5, n), 0.0)
    return inst, ActiveSet.full(inst), lam


class TestExtremesAreOneSidedTopSets:
    @settings(max_examples=400)
    @given(tied_top_cases())
    def test_slots_are_the_top_sets_beside_lam(self, case):
        # Just right of lam the scores z - eps * a rank by z, then by
        # ascending a; just left, by z, then by descending a. The kink
        # step pairs against these two sets.
        inst, act, lam = case
        ev = eval_dual(inst, lam, act)
        n = inst.n
        right = np.lexsort((act.a, -ev.z))[:n]
        left = np.lexsort((-act.a, -ev.z))[:n]
        assert set(ev.slots_min.tolist()) == set(right.tolist())
        assert set(ev.slots_max.tolist()) == set(left.tolist())


class TestBlockedKinkStep:
    @settings(max_examples=400)
    @given(kink_cases())
    def test_equals_one_pass_minimum_bit_for_bit(self, case):
        inst, act, lam, tau = case
        ev = eval_dual(inst, lam, act, tau=tau)
        right = reference_offsets(ev, act, True)
        left = reference_offsets(ev, act, False)
        assert kink_right(ev) == (ev.lam + float(right.min()) if right.size
                                  else np.inf)
        assert kink_left(ev) == max(ev.lam - float(left.min()) if left.size
                                    else 0.0, 0.0)

    def test_last_slot_not_argmin_is_the_lowest_member(self):
        # Candidates 1 and 4 tie for the top score at 0. Moving right, 4
        # (a = 0) takes slot 1 and 1 (a = 0.25) the last slot: candidate 2,
        # rising from 0.75, overtakes 1 at 0.5 and would meet 4 only at 1.
        inst, act = make([0.5, 1.0, 0.75, 0.0, 1.0],
                         [0.25, 0.25, -0.25, 0.0, 0.0], [1.0, 0.5], 0.0)
        ev = eval_dual(inst, 0.0, act)
        assert ev.slots_min.tolist() == [4, 1]
        assert reference_crossing(ev, act, True) == 0.5
        assert kink_right(ev) == 0.5

    def test_offsets_that_overflow_or_underflow(self):
        # Candidate 1 meets the top member at 2e300 / 1e-10, past the
        # largest float, or at 1e-300 / 2e300, below the smallest positive
        # one.
        for c, a, offset in (([1e300, -1e300], [1e-10, 0.0], math.inf),
                             ([1e-300, 0.0], [1e300, -1e300], 0.0)):
            inst, act = make(c, a, [1.0], 0.0)
            ev = eval_dual(inst, 0.0, act)
            assert reference_offsets(ev, act, True).tolist() == [offset]
            assert kink_right(ev) == offset

    def test_slope_gap_at_the_tolerance_is_parallel(self):
        # max|a| = 1, so candidate 1's slope gap to the top member, 1e-15,
        # equals the parallel tolerance exactly; candidate 2 falls behind.
        inst, act = make([1.0, 0.0, -5.0], [0.0, -1e-15, 1.0], [1.0], 0.0)
        ev = eval_dual(inst, 0.0, act)
        assert reference_offsets(ev, act, True).size == 0
        assert kink_right(ev) == math.inf

    # Draws of noise_tie_step_cases where the step's offset is above the
    # reference's: (draw, forward).
    SPLIT_TIES = {(35, False), (305, True), (329, False)}

    def test_never_below_reference_and_equal_but_at_split_ties(self):
        # The step's pairs are a subset of the reference's, with the same
        # float operations, so its offset is never smaller. In exact
        # arithmetic the first crossing is always among its pairs; in
        # floats, where several lines meet at one point and rounding splits
        # their offsets by an ulp or so, a pair it skips may round lower.
        differ = set()
        for draw in range(400):
            inst, act, lam = noise_tie_step_case(draw)
            ev = eval_dual(inst, lam, act)
            for forward in (True, False):
                got = dual._nearest_crossing(ev, forward)
                want = reference_crossing(ev, act, forward)
                assert got >= want, (draw, forward)
                if got != want:
                    differ.add((draw, forward))
                    assert got - want <= 4 * math.ulp(want), (draw, forward)
        assert differ == self.SPLIT_TIES

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
                step(ev)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20, (step.__name__, peak)


def one_pass_step(ev, forward):
    """The kink step as one pass over all m + n - 1 pairs (every row
    against the last slot, and the adjacent slot pairs), with the step's
    float operations: the reference for its probe and filter."""
    t_idx = ev.slots_min if forward else ev.slots_max
    z, a, last = ev.z, ev.active.a, t_idx[-1]
    num = np.concatenate((z - z[last], z[t_idx[1:]] - z[t_idx[:-1]]))
    den = np.concatenate((a - a[last], a[t_idx[1:]] - a[t_idx[:-1]]))
    if not forward:
        den = -den
    a_tol = PARALLEL_RTOL * max(float(a.max()), -float(a.min()))
    valid = (((num > ev.tau) & (den > a_tol))
             | ((num < -ev.tau) & (den < -a_tol)))
    with np.errstate(over="ignore"):
        offsets = num[valid] / den[valid]
    return float(offsets.min()) if offsets.size else math.inf


def same_bits(x, y):
    return np.float64(x).view(np.uint64) == np.float64(y).view(np.uint64)


@st.composite
def probed_step_cases(draw):
    """(instance, lam, tau, probe size) with m above the probe size: the
    production size, or a small one that leaves the filter more to do.
    Lines are Gaussian, on a 0.25 grid (tie chains across the rank-n cut,
    parallels), or Gaussian with duplicated and near-parallel rows, with c
    and a each scaled by 2**0 or 2**+-450. Two kinds reach the full pass:
    "blind", where no probed row can cross the last slot, and "huge",
    where c near 2**1000 puts t0 * max|a| past the largest float."""
    probe = draw(st.sampled_from((16, 256, dual.KINK_PROBE)))
    m = draw(st.integers(probe + 1, probe + 1500))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("gauss", "grid", "near", "blind", "huge")))
    lam = draw(st.sampled_from((0.0, 0.25, 0.5, 1.0, 1.5)))
    if kind == "grid":
        c = rng.integers(-40, 41, size=m) * 0.25
        a = rng.integers(-4, 5, size=m) * 0.25
    else:
        c, a = rng.normal(size=m), rng.normal(size=m)
    if kind == "near":
        src, dst = rng.integers(0, m, size=(2, m // 4))
        c[dst], a[dst] = c[src], a[src]
        src, dst = rng.integers(0, m, size=(2, m // 4))
        tilt = rng.integers(-3, 4, size=m // 4) * (0.5 * PARALLEL_RTOL)
        c[dst], a[dst] = c[src] + rng.normal(size=m // 4), a[src] + tilt
    if kind in ("gauss", "grid", "near"):
        c = np.ldexp(c, draw(st.sampled_from((0, 450, -450))))
        a = np.ldexp(a, draw(st.sampled_from((0, 450, -450))))
        i, j = rng.integers(0, m, size=2)
        if a[i] != a[j] and draw(st.booleans()):
            lam = abs((c[i] - c[j]) / (a[i] - a[j]))  # a tie between two lines
    elif kind == "blind":
        # Every line but a few unprobed risers is flat and so parallel to
        # the last slot; the risers start below the top n.
        a[:] = 0.0
        probed = np.arange(0, m, -(-m // probe))
        risers = np.setdiff1d(rng.integers(0, m, size=3), probed)
        a[risers], c[risers] = -1.0, c.min() - 2.0 - rng.random(risers.size)
    else:  # huge
        c, a[rng.integers(0, m)] = np.ldexp(c, 1000), 2.0**30
    inst = OneSidedInstance(c, a, np.linspace(1.0, 0.5, n), 0.0)
    z = scores(ActiveSet.full(inst), lam)
    tau = kink_tie_tol(z) if draw(st.booleans()) else 0.0
    return inst, float(lam), tau, probe


def recorded_passes(monkeypatch):
    """Record the (row count, least offset) of every offset pass."""
    passes = []
    least_offset = dual._least_offset

    def record(num, den, *rest):
        size = num.shape[0]
        offset = least_offset(num, den, *rest)
        passes.append((size, offset))
        return offset

    monkeypatch.setattr(dual, "_least_offset", record)
    return passes


class TestProbedKinkStep:
    @settings(max_examples=300)
    @given(probed_step_cases())
    def test_equals_one_pass_step_bit_for_bit(self, case):
        inst, lam, tau, probe = case
        ev = eval_dual(inst, lam, ActiveSet.full(inst), tau=tau)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dual, "KINK_PROBE", probe)
            for forward in (True, False):
                got = dual._nearest_crossing(ev, forward)
                assert same_bits(got, one_pass_step(ev, forward)), forward

    def test_probe_without_a_crossing_takes_the_full_pass(self, monkeypatch):
        # Only the unprobed rows 1 and 3 rise, toward the flat last slot.
        m = 5000
        c, a = np.minimum(np.linspace(0.0, 2.0, m), 1.0), np.zeros(m)
        c[1], a[1], c[3], a[3] = -1.0, -1.0, -2.0, -4.0
        inst, act = make(c, a, [1.0, 0.5], 0.0)
        ev = eval_dual(inst, 0.0, act)
        passes = recorded_passes(monkeypatch)
        assert dual._nearest_crossing(ev, True) == 0.75
        assert passes[0][1] == math.inf and passes[1][0] == m
        assert one_pass_step(ev, True) == 0.75

    def test_row_above_the_last_slot_outside_the_top_set(self, monkeypatch):
        # At tau = 0.01 rows 1, 2 and 4 chain into one tie group, and the
        # top set going right is row 4 alone (smallest a). Row 1 lies 1.6
        # tau above it and falls to it first, though at the probe's point
        # t0 = 9 (row 0) it lies far below it; the bound keeps it, as it
        # keeps every row above the last slot, and drops only row 5.
        tau = 0.01
        inst, act = make([-8.0, 1.0 + 1.6 * tau, 1.0 + 0.8 * tau, -5.0, 1.0,
                          -50.0], [-1.0, 1.0, 0.5, 0.0, 0.0, 0.0], [1.0], 0.0)
        ev = eval_dual(inst, 0.0, act, tau=tau)
        assert ev.slots_min.tolist() == [4]
        monkeypatch.setattr(dual, "KINK_PROBE", 2)  # probes rows 0 and 3
        passes = recorded_passes(monkeypatch)
        got = dual._nearest_crossing(ev, True)
        assert passes[0][1] == 9.0 and passes[1][0] == 5  # rows 0 to 4
        assert got == (1.0 + 1.6 * tau) - 1.0 == one_pass_step(ev, True)

    def test_slack_keeps_a_row_rounded_below_the_threshold(self, monkeypatch):
        # Going left from 0.1 several grid lines meet near 0; without the
        # slack the filter drops the row whose offset rounds an ulp lowest.
        inst, act = make([-0.75, 0.75, -0.5, 0.25, 0.0, 0.0, -0.75, -0.5, -0.75,
                          0.0, 0.25, -0.75, 0.0, 0.25],
                         [0.5, 0.25, 0.5, 0.75, 1.0, 1.0, -0.25, -1.0, 1.0,
                          -1.0, 1.0, 0.5, 0.5, -1.0], [1.0, 0.75, 0.5], 0.0)
        ev = eval_dual(inst, 0.1, act)
        monkeypatch.setattr(dual, "KINK_PROBE", 5)
        got = dual._nearest_crossing(ev, False)
        assert got == 0.09999999999999998 == one_pass_step(ev, False)

    def test_threshold_past_the_float_range_takes_the_full_pass(
            self, monkeypatch):
        # Going left t0 is finite, but t0 * max|a| is not, nor the slack and
        # the threshold; the steep unprobed row 1 crosses first.
        rng = np.random.default_rng(457)
        m = 5000
        c, a = np.ldexp(rng.normal(size=m), 1000), np.ldexp(rng.normal(size=m), 12)
        a[1] = 2.0**60  # slope gaps of the other rows stay above the tolerance
        inst, act = make(c, a, np.linspace(1.0, 0.5, 4), 0.0)
        ev = eval_dual(inst, 0.0, act)
        passes = recorded_passes(monkeypatch)
        got = dual._nearest_crossing(ev, False)
        assert math.isfinite(passes[0][1]) and passes[1][0] == m
        last = ev.slots_max[-1]
        assert got == (c[1] - c[last]) / -(a[1] - a[last])
        assert same_bits(got, one_pass_step(ev, False))

    def test_exact_pass_sees_at_most_one_percent_of_rows(self, monkeypatch):
        # A silent fallback to the full pass fails here.
        m = 100_000
        passes = recorded_passes(monkeypatch)
        for k in range(3):
            gen = gen_synthetic(GenConfig(m=m, n=10, seed=(458, k)))
            inst, act = make(gen.c, gen.a, 1.0 / np.log2(np.arange(2, 12)), 0.0)
            for lam in (0.05, 0.3, 1.0):
                ev = eval_dual(inst, lam, act)
                for forward in (True, False):
                    passes.clear()
                    dual._nearest_crossing(ev, forward)
                    assert len(passes) == 2, passes
                    assert passes[1][0] <= m // 100, (lam, forward, passes)

    def test_one_step_at_large_m_peaks_below_1_25_mib(self):
        rng = np.random.default_rng(460)
        m, n = 100_000, 10
        inst, act = make(rng.normal(size=m), rng.normal(size=m),
                         np.linspace(1.0, 0.1, n), 0.0)
        ev = eval_dual(inst, 0.3, act)
        for step in (kink_right, kink_left):
            tracemalloc.start()
            try:
                step(ev)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * 2**20, (step.__name__, peak)


def grid_instance(m, seed, upper):
    """Scores on a 0.25 grid, so ties straddle the rank-n cut, with the
    upper bound (upper) or the lower one binding."""
    rng = np.random.default_rng(seed)
    a = np.round(rng.normal(size=m) * 4) / 4
    c = np.round((0.5 * a + rng.normal(size=m)) * 4) / 4
    w = 1.0 / np.log2(np.arange(2, 12))
    un = unconstrained_extremes(c, a, w)
    a_sorted = np.sort(a)
    lo, hi = float(w.dot(a_sorted[:10])), float(w.dot(a_sorted[::-1][:10]))
    if upper:
        b1, b2 = lo - 1.0, 0.5 * (lo + un.min_div)
    else:
        b1, b2 = 0.5 * (un.max_div + hi), hi + 1.0
    return validate_instance(m, 10, c, a, w, b1, b2)


class TestKinkStepInSolve:
    """Whole solves land on the same answer with the kink step taken from
    the gathered one-pass reference."""

    @pytest.mark.parametrize("inst", [
        *(gen_synthetic(GenConfig(m=3000, n=10, seed=(455, k))) for k in range(4)),
        gen_synthetic(GenConfig(m=100_000, n=10, seed=(455, 9))),
        *(grid_instance(3000, (456, k), k % 2 == 0) for k in (0, 2, 3, 7)),
        pytest.param(grid_instance(100_000, (456, 5), True), id="grid_m100000"),
    ], ids=lambda inst: f"m{inst.m}")
    def test_answers_equal_reference_step_by_repr(self, inst, monkeypatch):
        steps = []

        def reference_step(ev, forward):
            steps.append(forward)
            return reference_crossing(ev, ev.active, forward)

        for screening in (True, False):
            opts = SolveOptions(screening=screening)
            got = solve(inst, opts)
            with monkeypatch.context() as mp:
                mp.setattr(dual, "_nearest_crossing", reference_step)
                want = solve(inst, opts)
            assert repr(got.lambda_star) == repr(want.lambda_star)
            assert repr(got.objective) == repr(want.objective)
            assert repr(got.mixture.rho) == repr(want.mixture.rho)
            assert got.mixture.x1.slots == want.mixture.x1.slots
            assert got.mixture.x2.slots == want.mixture.x2.slots
            assert got.stats.iterations == want.stats.iterations
        assert steps  # the unscreened search steps to a kink


class TestPiecewiseStructure:
    def test_affine_between_adjacent_kinks(self):
        for rep in range(40):
            c, a, w, n = random_one_sided_arrays((405, rep), m_max=25)
            inst, act = make(c, a, w, 0.7)
            ev0 = eval_dual(inst, 0.0, act)
            kr = kink_right(ev0)
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

    def test_steps_between_oracle_kinks_land_on_the_next_kink(self):
        # Gate 5's 200 instances and tolerance, with the production step at
        # tau = 0 (not through trace_kinks' tie tolerance): from the middle
        # of every gap between consecutive kinks the right step lands on
        # the next kink and the left step on the previous one. Left of the
        # first kink g is affine down to 0, the end the left step stops at;
        # lines that meet at 0 on rounded scores may put it an ulp of the
        # trial point above 0. Right of the last kink there is none.
        steps = 0
        for rep in range(200):
            c, a, w, _ = random_one_sided_arrays((8501, rep), m_max=40)
            inst, act = make(c, a, w, 0.0)
            ends = np.concatenate(([0.0], oracle_kink_set(inst), [np.inf]))
            for lo, hi in zip(ends[:-1], ends[1:]):
                mid = 0.5 * (lo + hi) if np.isfinite(hi) else lo + 1.0 + lo
                ev = eval_dual(inst, float(mid), act)
                right, left = kink_right(ev), kink_left(ev)
                if np.isfinite(hi):
                    assert abs(right - hi) <= 1e-12 * (1.0 + hi), (rep, mid)
                else:
                    assert right == np.inf, (rep, mid)
                assert abs(left - lo) <= 1e-12 * (1.0 + lo), (rep, mid)
                steps += 2
        assert steps > 2000

    def test_affine_dual_has_no_kinks(self):
        inst, _ = make([3, 2, 1], [0, 0, 0], [1], 0.0)
        assert trace_kinks(inst).size == 0

    def test_tie_tolerance_scale(self):
        z = np.array([4.0, -8.0, 1.0])
        assert kink_tie_tol(z) == 1e-9 * 8.0


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
            sampled += crossing_count(inst, lo, hi) >= 4  # a choice to make
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
