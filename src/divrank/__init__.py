"""divrank: exact top-n ranking under a weighted diversity bound.

Solves max c^T X w over injective slot assignments (relaxed to their convex
hull) subject to b1 <= a^T X w <= b2, via dual bisection with exact kink
tracing and candidate screening. Ships ground-truth oracles, a seeded
instance generator and a benchmark harness.

The package root holds what a caller of solve() needs; internals and
oracles are reached by their submodule path (divrank.dual, divrank.oracle).
"""
from .datagen import GenConfig, gen_synthetic
from .model import (STATUS_INFEASIBLE, STATUS_LOWER_ACTIVE,
                    STATUS_UNCONSTRAINED, STATUS_UPPER_ACTIVE,
                    ExtremeAssignment, Instance, PrimalMixture, Solution,
                    SolveStats, ValidationError, default_weights,
                    instance_to_dict, load_instance, parse_instance,
                    save_instance, solution_to_dict, validate_instance)
from .solver import InfeasibleError, SolveOptions, solve

__version__ = "0.1.0"

__all__ = [
    "ExtremeAssignment", "GenConfig", "Instance", "InfeasibleError",
    "PrimalMixture", "Solution", "SolveOptions", "SolveStats",
    "STATUS_INFEASIBLE", "STATUS_LOWER_ACTIVE", "STATUS_UNCONSTRAINED",
    "STATUS_UPPER_ACTIVE", "ValidationError", "default_weights",
    "gen_synthetic", "instance_to_dict", "load_instance", "parse_instance",
    "save_instance", "solution_to_dict", "solve", "validate_instance",
    "__version__",
]
