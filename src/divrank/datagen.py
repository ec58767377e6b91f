"""Seeded synthetic instances with controllable score/diversity correlation.

Each candidate draws (a_i, c_i) from a standard bivariate normal with
cov(a, c) = alpha, realized through the lower-triangular factor
    a_i = e1_i,   c_i = alpha * e1_i + sqrt(1 - alpha^2) * e2_i,
one (e1, e2) pair per candidate. Bounds are symmetric, b2 = -b1 =
B_SCALE * (top diversity), sized so the diversity constraint always binds.

Seeds may be ints or tuples of ints; ensembles derive per-instance seeds by
extending the tuple (e.g. (seed, m, n, rep)), which numpy's SeedSequence
spreads into independent streams. Regeneration attempts use (seed..., k).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .model import Instance, default_weights, validate_instance
from .rank import unconstrained_extremes
from .solver import precheck_feasibility

SeedLike = Union[int, Sequence[int]]

# Draws gen_synthetic makes before it gives up.
MAX_REGEN = 100
# The bounds' share of the unconstrained top diversity.
B_SCALE = 0.8


class RegenExhaustedError(RuntimeError):
    """No draw in MAX_REGEN passed the acceptance checks: a positive top
    diversity and a feasible instance."""


class ZeroScoresError(ValueError):
    """Relative noise is undefined for an all-zero score vector."""


def seed_key(seed: SeedLike, *extra: int) -> tuple[int, ...]:
    """Canonical per-instance seed tuple; documented split for ensembles."""
    base = (seed,) if isinstance(seed, (int, np.integer)) else tuple(seed)
    return tuple(int(s) for s in base) + tuple(int(e) for e in extra)


@dataclass(frozen=True)
class GenConfig:
    m: int
    n: int
    alpha: float = 0.5
    seed: SeedLike = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1 or self.n > self.m:
            raise ValueError("need 1 <= n <= m")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


def gen_synthetic(config: GenConfig) -> Instance:
    """Draw an instance; redraw on a fresh substream until the unconstrained
    top assignment has positive diversity (so the symmetric bounds pinch it)
    and the instance is feasible."""
    w = default_weights(config.n)
    beta = float(np.sqrt(1.0 - config.alpha ** 2))
    base = seed_key(config.seed)
    nonpositive = 0
    for attempt in range(MAX_REGEN):
        rng = np.random.default_rng(base + (attempt,))
        pairs = rng.standard_normal((config.m, 2))
        a = pairs[:, 0].copy()
        c = config.alpha * pairs[:, 0] + beta * pairs[:, 1]
        # Diversity of the unconstrained optimum; with tied scores, its
        # smallest attainable value, so b2 < it holds for every optimum.
        top_div = unconstrained_extremes(c, a, w).min_div
        if top_div <= 0.0:
            nonpositive += 1
            continue
        b2 = B_SCALE * top_div
        inst = validate_instance(config.m, config.n, c, a, w, -b2, b2)
        # Infeasible draws are only possible when near-square and of nearly
        # constant sign.
        if precheck_feasibility(inst).feasible:
            return inst
    raise RegenExhaustedError(
        f"no acceptable draw in {MAX_REGEN} attempts for seed {base}: "
        f"{nonpositive} had a nonpositive top diversity, "
        f"{MAX_REGEN - nonpositive} were infeasible")


def noise_replicate(inst: Instance, level: float = 0.2,
                    seed: SeedLike = 0) -> Instance:
    """Perturb relevance scores at an exact relative magnitude:
    c' = c + level * (||c|| / ||eps||) * eps with standard normal eps, so
    ||c' - c|| / ||c|| = level by construction. Diversity scores, weights
    and bounds are copied unchanged."""
    if not 0.0 < level < math.inf:
        raise ValueError("level must be a finite number > 0")
    norm_c = float(np.linalg.norm(inst.c))
    if norm_c == 0.0:
        raise ZeroScoresError("cannot scale noise relative to all-zero scores")
    rng = np.random.default_rng(seed_key(seed))
    eps = rng.standard_normal(inst.m)
    scale = level * norm_c / float(np.linalg.norm(eps))
    c_new = inst.c + scale * eps
    return validate_instance(inst.m, inst.n, c_new, inst.a, inst.w,
                             inst.b1, inst.b2)
