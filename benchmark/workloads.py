"""Benchmark workloads: seeded instance streams handed to the solver as raw arrays.

Request k of a run solves instance ``make(seed, k)``, drawn just before the
request and outside its timed region, so every request sees a fresh instance
and the same seed gives the same sequence. Requests run one at a time (a
closed loop with one caller and no think time). The solver sees only the raw
float64 arrays of a ``RawInstance``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from divrank.datagen import GenConfig, gen_synthetic, seed_key
from divrank.model import default_weights
from divrank.rank import unconstrained_extremes
from divrank.solver import SolveOptions


@dataclass(frozen=True)
class RawInstance:
    """Arguments of ``validate_instance`` exactly as a caller would pass them."""

    m: int
    n: int
    c: np.ndarray
    a: np.ndarray
    w: np.ndarray
    b1: float
    b2: float


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    n: int
    options: SolveOptions
    make: Callable[[int, int], RawInstance]  # (seed, k) -> instance of request k
    # Leading instances whose traced requests give the count metrics; the
    # traced run always covers them, so the counts repeat exactly for a seed.
    count_sample: int
    oracle_sample: int = 0  # leading instances also checked by the oracle
    alloc_sample: int = 2  # leading instances measured under tracemalloc


def gaussian_instance(m: int, n: int = 10) -> Callable[[int, int], RawInstance]:
    """``gen_synthetic`` at alpha=0.5 with seed key (seed, m, k): symmetric
    bounds at 0.8 x the top diversity, so the upper bound always binds."""

    def make(seed: int, k: int) -> RawInstance:
        inst = gen_synthetic(GenConfig(m=m, n=n, alpha=0.5,
                                       seed=seed_key(seed, m, k)))
        return RawInstance(inst.m, inst.n, np.array(inst.c), np.array(inst.a),
                           np.array(inst.w), inst.b1, inst.b2)

    return make


TIE_GRID = 0.25
MAX_REDRAWS = 100


def tied_instance(m: int, n: int = 10) -> Callable[[int, int], RawInstance]:
    """Scores from the alpha=0.5 bivariate normal, both rounded to a 0.25
    grid so ties straddle the rank-n cut. Instance k takes bound kind k % 3:
    0 non-binding (brackets the tied optima's diversity range), 1 upper
    active (b2 below it), 2 lower active (b1 above it). Draws without room
    for the chosen kind, or infeasible ones, are redrawn on seed key
    (seed, m, k, attempt)."""
    w = default_weights(n)

    def make(seed: int, k: int) -> RawInstance:
        for attempt in range(MAX_REDRAWS):
            rng = np.random.default_rng(seed_key(seed, m, k, attempt))
            e = rng.standard_normal((m, 2))
            a = np.round(e[:, 0] / TIE_GRID) * TIE_GRID
            c = np.round((0.5 * e[:, 0] + np.sqrt(0.75) * e[:, 1]) / TIE_GRID) * TIE_GRID
            a_sorted = np.sort(a)
            div_lo = float(np.dot(w, a_sorted[:n]))
            div_hi = float(np.dot(w, a_sorted[::-1][:n]))
            top = unconstrained_extremes(c, a, w)
            u = float(rng.uniform(0.2, 0.8))
            kind = k % 3
            if kind == 0:
                b1 = top.min_div - u * (top.min_div - div_lo)
                b2 = top.max_div + u * (div_hi - top.max_div)
            elif kind == 1:
                if top.min_div <= div_lo:
                    continue
                b1 = div_lo - 1.0
                b2 = top.min_div - u * (top.min_div - div_lo)
            else:
                if top.max_div >= div_hi:
                    continue
                b1 = top.max_div + u * (div_hi - top.max_div)
                b2 = div_hi + 1.0
            if max(b1, div_lo) <= min(b2, div_hi):
                return RawInstance(m, n, c, a, w.copy(), b1, b2)
        raise RuntimeError(f"no usable tied draw for seed {seed}, instance {k}")

    return make


_GAUSS_100K = gaussian_instance(100_000)

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("rerank_1k", 1000, 10, SolveOptions(), gaussian_instance(1000),
             count_sample=256, oracle_sample=2, alloc_sample=16),
    Workload("retrieve_100k", 100_000, 10, SolveOptions(), _GAUSS_100K,
             count_sample=24),
    Workload("bisect_100k", 100_000, 10, SolveOptions(screening=False),
             _GAUSS_100K, count_sample=24),
    Workload("ties_mixed_10k", 10_000, 10, SolveOptions(),
             tied_instance(10_000), count_sample=96, alloc_sample=6),
)}
