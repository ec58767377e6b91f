"""Shared helpers for the test suite: relative comparison and seeded
random-instance factories. All randomness is seeded per trial so failures
reproduce from the printed seed tuple.
"""
from __future__ import annotations

import numpy as np
from hypothesis import settings

from divrank.model import Instance, ValidationError, validate_instance

# Property tests draw the same examples on every run, with no time limit per
# example and no example database left behind.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


def rel_close(x: float, y: float, tol: float = 1e-9) -> bool:
    return abs(x - y) <= tol * (1.0 + max(abs(x), abs(y)))


def strict_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random strictly decreasing positive weights."""
    gaps = rng.uniform(0.05, 1.0, size=n)
    w = np.cumsum(gaps[::-1])[::-1].copy()
    return w


def random_tiny_instance(key, tie_prone: bool = True) -> Instance | None:
    """Random instance with m <= 7, n <= 3; rounding provokes ties.

    Returns None when the random bounds fail validation (b1 > b2 never
    happens here since they are sorted, so None is not expected; kept for
    symmetry with future variations).
    """
    rng = np.random.default_rng(key)
    m = int(rng.integers(1, 8))
    n = int(rng.integers(1, min(m, 3) + 1))
    c = rng.normal(size=m)
    a = rng.normal(size=m)
    if tie_prone and rng.random() < 0.5:
        c = np.round(c, 1)
        a = np.round(a, 1)
    w = strict_weights(rng, n)
    lo, hi = np.sort(rng.normal(scale=2.0, size=2))
    try:
        return validate_instance(m, n, c, a, w, float(lo), float(hi))
    except ValidationError:
        return None


def first_trial_optimal_instance():
    """lambda* = 1, where candidates 0 and 1 cross; the pre-screen drops
    candidates 2 and 3, and the first trial is optimal."""
    return validate_instance(4, 1, [1.0, 0.5, -1.2, -1.2], [1.0, 0.5, 0.0, 0.0],
                             [1.0], -5.0, 0.75)


def discard_path_instance():
    """lambda* = 2, where candidates 0 and 1 cross. The pre-screen over
    [0, 1] keeps only candidate 0, whose diversity 1 exceeds b2 = 0.75, so
    the first trial at 1 leaves the bracket open."""
    return validate_instance(4, 1, [1.0, 0.0, -1.2, -1.2], [1.0, 0.5, 0.0, 0.0],
                             [1.0], -5.0, 0.75)


def random_one_sided_arrays(key, m_max: int = 40, tie_prone: bool = True):
    """Random (c, a, w, n) arrays for dual-function testing."""
    rng = np.random.default_rng(key)
    m = int(rng.integers(2, m_max + 1))
    n = int(rng.integers(1, min(m, 10) + 1))
    c = rng.normal(size=m)
    a = rng.normal(size=m)
    if tie_prone and rng.random() < 0.4:
        c = np.round(c, 1)
        a = np.round(a, 1)
    w = strict_weights(rng, n)
    return c, a, w, n
