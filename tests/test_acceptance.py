"""Acceptance gate: end-to-end checks of the solver, oracles, generator, and
benchmark harness at release tolerances.  Each test prints one verdict line."""
from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from conftest import random_one_sided_arrays, random_tiny_instance, rel_close
from divrank.cli import ALG_BISECTION, ALG_SCREENING, REFERENCE_SCREENING_MS, run_benchmark
from divrank.datagen import GenConfig, gen_synthetic, noise_replicate
from divrank.dual import (ActiveSet, OneSidedInstance, eval_dual,
                          kink_tie_tol, trace_kinks)
from divrank.oracle import (brute_force_tiny, oracle_dual_breakpoints,
                            oracle_kink_set, oracle_support)
from divrank.rank import unconstrained_extremes
from divrank.solver import (REDUCE_ALREADY_OPTIMAL, InfeasibleError,
                            reduce_two_sided, solve)

MEDIUM_SIZES = [(20, 3), (100, 10), (300, 10)]
MEDIUM_COUNT = 500
TINY_COUNT = 500


def verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def medium_population():
    """500 generated instances per size, each solved (screening on) and
    cross-checked against the breakpoint oracle on the reduced problem."""
    records = []
    start = time.perf_counter()
    for m, n in MEDIUM_SIZES:
        for i in range(MEDIUM_COUNT):
            inst = gen_synthetic(GenConfig(m=m, n=n, seed=(8101, m, n, i)))
            sol = solve(inst)
            red = reduce_two_sided(inst)
            assert red.kind != REDUCE_ALREADY_OPTIMAL
            ora = oracle_dual_breakpoints(red.one_sided)
            records.append({"inst": inst, "sol": sol, "red": red, "ora": ora})
    return records, time.perf_counter() - start


@pytest.fixture(scope="module")
def tiny_population():
    """500 feasible random tiny instances solved and brute-forced."""
    records = []
    rep = 0
    while len(records) < TINY_COUNT and rep < 5000:
        inst = random_tiny_instance((8201, rep))
        rep += 1
        if inst is None:
            continue
        bf = brute_force_tiny(inst)
        try:
            sol = solve(inst)
        except InfeasibleError:
            assert not bf.feasible
            continue
        assert bf.feasible
        records.append({"inst": inst, "sol": sol,
                        "red": reduce_two_sided(inst), "bf": bf})
    assert len(records) == TINY_COUNT
    return records


class TestAcceptance:
    def test_1_matches_breakpoint_oracle_on_generated_instances(
            self, medium_population):
        records, elapsed = medium_population
        obj_err = lam_err = 0.0
        for rec in records:
            sol, ora = rec["sol"], rec["ora"]
            obj_err = max(obj_err, abs(sol.objective - ora.g_star)
                          / (1.0 + abs(ora.g_star)))
            lam_err = max(lam_err, abs(sol.lambda_star - ora.lambda_star)
                          / (1.0 + abs(ora.lambda_star)))
        ok = obj_err <= 1e-9 and lam_err <= 1e-9 and elapsed < 120.0
        verdict(1, "solver matches breakpoint oracle on 1500 generated "
                   "instances", ok,
                f"max obj rel err {obj_err:.2e}, max lambda rel err "
                f"{lam_err:.2e}, built in {elapsed:.1f}s < 120s")
        assert obj_err <= 1e-9
        assert lam_err <= 1e-9
        assert elapsed < 120.0

    def test_2_matches_exhaustive_search_on_tiny_instances(
            self, tiny_population):
        worst = 0.0
        for rec in tiny_population:
            err = abs(rec["sol"].objective - rec["bf"].objective) \
                / (1.0 + abs(rec["bf"].objective))
            worst = max(worst, err)
        ok = worst <= 1e-9
        verdict(2, "solver equals exhaustive vertex-pair search on 500 tiny "
                   "instances", ok, f"max obj rel err {worst:.2e}")
        assert ok

    def test_3_strong_duality_and_bound_feasibility(
            self, medium_population, tiny_population):
        records = medium_population[0] + tiny_population
        gap_err = feas_err = bound_err = 0.0
        for rec in records:
            inst, sol, red = rec["inst"], rec["sol"], rec["red"]
            if red.kind == REDUCE_ALREADY_OPTIMAL:
                g_val = unconstrained_extremes(inst.c, inst.a, inst.w).value
            else:
                one = red.one_sided
                g_val = eval_dual(one, sol.lambda_star,
                                  ActiveSet.full(one)).g
            gap_err = max(gap_err, abs(sol.objective - g_val)
                          / (1.0 + abs(g_val)))
            b_scale = 1.0 + max(abs(inst.b1), abs(inst.b2))
            d = sol.diversity
            feas_err = max(feas_err,
                           max(inst.b1 - d, d - inst.b2, 0.0) / b_scale)
            if sol.status == "UpperActive":
                bound_err = max(bound_err, abs(d - inst.b2) / b_scale)
            elif sol.status == "LowerActive":
                bound_err = max(bound_err, abs(d - inst.b1) / b_scale)
        ok = gap_err <= 1e-9 and feas_err <= 1e-9 and bound_err <= 1e-9
        verdict(3, "strong duality and bound feasibility on all 2000 solved "
                   "instances", ok,
                f"max duality rel err {gap_err:.2e}, max bound violation "
                f"{feas_err:.2e}, max active-bound slack {bound_err:.2e}")
        assert ok

    def test_4_screening_never_drops_an_oracle_support_index(
            self, medium_population, tiny_population):
        dropped_total = violations = 0
        for rec in medium_population[0]:
            dropped = set(rec["sol"].stats.dropped_indices)
            dropped_total += len(dropped)
            if dropped:
                sup = set(oracle_support(rec["red"].one_sided,
                                         rec["ora"].lambda_star).tolist())
                violations += len(dropped & sup)
        for rec in tiny_population:
            dropped = set(rec["sol"].stats.dropped_indices)
            dropped_total += len(dropped)
            if not dropped or rec["red"].kind == REDUCE_ALREADY_OPTIMAL:
                continue
            one = rec["red"].one_sided
            ora = oracle_dual_breakpoints(one)
            sup = set(oracle_support(one, ora.lambda_star).tolist())
            sup |= rec["bf"].support()
            violations += len(dropped & sup)
        ok = violations == 0
        verdict(4, "screening never dropped an oracle-support candidate", ok,
                f"{dropped_total} candidates dropped across 2000 instances, "
                f"{violations} support violations")
        assert ok

    def test_5_kink_tracing_reproduces_exhaustive_kink_set(self):
        mismatches = kinks_total = 0
        for rep in range(200):
            c, a, w, _ = random_one_sided_arrays((8501, rep), m_max=40)
            inst = OneSidedInstance(c=c, a=a, w=w, b2=0.0)
            traced = trace_kinks(inst)
            expected = oracle_kink_set(inst)
            kinks_total += expected.size
            if traced.size != expected.size:
                mismatches += 1
                continue
            if traced.size:
                scale = 1.0 + np.abs(expected)
                if not np.all(np.abs(traced - expected) <= 1e-12 * scale):
                    mismatches += 1
        ok = mismatches == 0
        verdict(5, "kink tracing reproduces the exhaustive kink set on 200 "
                   "instances", ok,
                f"{kinks_total} kinks compared, {mismatches} mismatching "
                f"instances, tolerance 1e-12 relative")
        assert ok

    def test_6_slopes_match_finite_differences_and_kinks_jump(self):
        fd_err = 0.0
        fd_checked = jump_checked = 0
        jump_ok = True
        for rep in range(50):
            c, a, w, _ = random_one_sided_arrays((8601, rep), m_max=30)
            inst = OneSidedInstance(c=c, a=a, w=w, b2=0.3)
            act = ActiveSet.full(inst)
            kinks = oracle_dual_breakpoints(inst).breakpoints
            top = float(kinks[-1]) * 1.2 + 1.0
            rng = np.random.default_rng((8602, rep))
            accepted = 0
            attempts = 0
            while accepted < 10 and attempts < 1000:
                attempts += 1
                lam = float(rng.uniform(0.0, top))
                h = 1e-7 * (1.0 + lam)
                if lam - h <= 0.0:
                    continue
                if np.min(np.abs(kinks - lam)) <= 20.0 * h:
                    continue
                ev = eval_dual(inst, lam, act)
                fd = (eval_dual(inst, lam + h, act).g
                      - eval_dual(inst, lam - h, act).g) / (2.0 * h)
                fd_err = max(fd_err, abs(fd - ev.g_plus))
                accepted += 1
            assert accepted == 10
            fd_checked += accepted
            for lam in trace_kinks(inst):
                ev = eval_dual(inst, float(lam), act,
                               tau=kink_tie_tol(c - lam * a))
                if not ev.g_minus < ev.g_plus:
                    jump_ok = False
                jump_checked += 1
        ok = fd_err <= 1e-6 and jump_ok
        verdict(6, "finite differences match one-sided slopes and traced "
                   "kinks jump strictly", ok,
                f"{fd_checked} non-kink points, max fd err {fd_err:.2e} <= "
                f"1e-6; {jump_checked} kinks all strict: {jump_ok}")
        assert ok

    def test_7_screening_speedup_and_subquadratic_scaling(self):
        rows = run_benchmark([100, 3000, 10000], [10], reps=20, seed=8701)
        med = {(r.m, r.algorithm): r.median_ms for r in rows}
        speedup = med[(3000, ALG_BISECTION)] / med[(3000, ALG_SCREENING)]
        scaling = med[(10000, ALG_SCREENING)] / med[(100, ALG_SCREENING)]
        ok = speedup >= 1.5 and scaling <= 300.0
        ref = ", ".join(f"(m={m}, n={n})={ms}ms"
                        for (m, n), ms in sorted(REFERENCE_SCREENING_MS.items())
                        if n == 10)
        verdict(7, "screening speedup and scaling trend", ok,
                f"m=3000 speedup {speedup:.2f}x >= 1.5x, screening time "
                f"ratio m=10000/m=100 {scaling:.1f} <= 300; reference "
                f"4-core laptop screening times for comparison: {ref}")
        assert speedup >= 1.5
        assert scaling <= 300.0

    def test_8_generator_statistics(self, medium_population):
        big = gen_synthetic(GenConfig(m=100_000, n=10, seed=8801))
        cov = float(np.cov(big.a, big.c)[0, 1])
        base = gen_synthetic(GenConfig(m=300, n=10, seed=8802))
        ratio_err = 0.0
        for rep in range(5):
            noised = noise_replicate(base, level=0.2, seed=(8803, rep))
            ratio = float(np.linalg.norm(noised.c - base.c)
                          / np.linalg.norm(base.c))
            ratio_err = max(ratio_err, abs(ratio - 0.2))
        binding = sum(1 for rec in medium_population[0]
                      if rec["red"].kind != REDUCE_ALREADY_OPTIMAL)
        total = len(medium_population[0])
        ok = 0.46 <= cov <= 0.54 and ratio_err <= 1e-12 and binding == total
        verdict(8, "generator statistics", ok,
                f"cov(a,c) {cov:.4f} in [0.46, 0.54] at m=1e5, noise ratio "
                f"err {ratio_err:.2e} <= 1e-12, bounds binding on "
                f"{binding}/{total} generated instances")
        assert 0.46 <= cov <= 0.54
        assert ratio_err <= 1e-12
        assert binding == total

    def test_9_noised_replications_all_solve(self):
        base = gen_synthetic(GenConfig(m=500, n=10, seed=8901))
        times_ms = []
        solved = 0
        for rep in range(20):
            noised = noise_replicate(base, level=0.2, seed=(8902, rep))
            sol = solve(noised)
            assert np.isfinite(sol.objective)
            times_ms.append(sol.stats.wall_time_us / 1e3)
            solved += 1
        ok = solved == 20
        spread = statistics.pstdev(times_ms)
        verdict(9, "noised replications of a fixed base all solve", ok,
                f"{solved}/20 solved with finite objectives; runtime ms "
                f"median {statistics.median(times_ms):.3f}, min "
                f"{min(times_ms):.3f}, max {max(times_ms):.3f}, "
                f"stdev {spread:.3f} (reported, not asserted)")
        assert ok
