"""The benchmark tracer's contract with the solver: every traced solve folds
into a request profile, and the profile agrees with the solve's own stats.

benchmark/spans.py is imported as it is, as tests/answer_digest.py imports
benchmark/workloads.py; nothing here changes it.
"""
from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import discard_path_instance, first_trial_optimal_instance
from divrank import model
from divrank import solver as solver_module
from divrank.solver import SolveOptions

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from benchmark.spans import TERMINATIONS, Tracer, profile_request  # noqa: E402
from benchmark.workloads import WORKLOADS  # noqa: E402

# Leading draws of each workload at seed 0. Among them are unconstrained
# solves, crossing picks, and ends on bisection, kink_right and kink_left.
DRAWS = 60
DEFAULT_CAP = solver_module.MAX_EVALUATIONS


def raw_instances():
    yield from (first_trial_optimal_instance(), discard_path_instance())
    for name in ("rerank_1k", "ties_mixed_10k"):
        make = WORKLOADS[name].make
        yield from (make(0, k) for k in range(DRAWS))


def traced_solve(raw, opts):
    """Validate and solve raw under a tracer, as the benchmark's traced run
    does; returns the solution and its request profile."""
    tracer = Tracer()
    with tracer.installed():
        inst = model.validate_instance(raw.m, raw.n, raw.c, raw.a, raw.w,
                                       raw.b1, raw.b2)
        solve_index = len(tracer.spans)
        with tracer.span("solve"):
            sol = solver_module.solve(inst, opts)
    prof = profile_request(tracer.spans, 0, len(tracer.spans), solve_index,
                           raw.m, sol.stats.exact)
    return sol, prof


@pytest.mark.parametrize("cap", [DEFAULT_CAP, 1, 3])
def test_profiles_agree_with_stats(cap, monkeypatch):
    monkeypatch.setattr(solver_module, "MAX_EVALUATIONS", cap)
    picks = []
    real = solver_module.lowest_crossing
    monkeypatch.setattr(solver_module, "lowest_crossing",
                        lambda *args: picks.append(out := real(*args)) or out)
    seen = Counter()
    for raw in raw_instances():
        for opts in (SolveOptions(), SolveOptions(screening=False)):
            sol, prof = traced_solve(raw, opts)
            stats = sol.stats
            assert prof.nested_ok
            assert prof.dropped == stats.dropped
            assert prof.evals == stats.iterations + (not stats.exact)
            assert (prof.termination == "fallback") == (not stats.exact)
            assert (prof.termination == "unconstrained") == (stats.iterations == 0)
            seen[prof.termination] += 1
    assert set(seen) <= set(TERMINATIONS)
    if cap == DEFAULT_CAP:
        assert set(seen) == set(TERMINATIONS) - {"fallback"}
        assert any(pick is not None for pick in picks)
    else:
        assert {"unconstrained", "fallback"} <= set(seen)
