"""Self-tests of the benchmark itself: the certificate rejects perturbed
solutions, the per-layer counts repeat exactly for a seed, and the benchmark
refuses to run without the solver source.

    python3 -m pytest -q benchmark
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from certificate import certify  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from divrank.model import (STATUS_LOWER_ACTIVE, STATUS_UNCONSTRAINED,  # noqa: E402
                           STATUS_UPPER_ACTIVE, ExtremeAssignment,
                           PrimalMixture, validate_instance)
from divrank.solver import solve  # noqa: E402

COUNT_METRICS = ("dual.evals", "dual.kink_steps", "rank.sorted_elems",
                 "solver.active_final", "solver.dropped_share")


def _solved(name: str, k: int):
    wl = WORKLOADS[name]
    raw = wl.make(7, k)
    inst = validate_instance(raw.m, raw.n, raw.c, raw.a, raw.w, raw.b1, raw.b2)
    return raw, solve(inst, wl.options)


def _with_mixture(sol, raw, x1, x2, rho):
    """The solution with its mixture replaced, objective and diversity
    recomputed consistently so only the optimality checks can object."""
    s1, s2 = np.asarray(x1.slots), np.asarray(x2.slots)
    obj = rho * float(raw.w @ raw.c[s1]) + (1 - rho) * float(raw.w @ raw.c[s2])
    div = rho * float(raw.w @ raw.a[s1]) + (1 - rho) * float(raw.w @ raw.a[s2])
    mix = PrimalMixture(x1=x1, x2=x2, rho=rho, objective=obj, diversity=div)
    return dataclasses.replace(sol, mixture=mix)


def _strict_mixture(name: str):
    """A solved instance whose mixture is strict (0 < rho < 1)."""
    for k in range(8):
        raw, sol = _solved(name, k)
        if 0.0 < sol.mixture.rho < 1.0:
            return raw, sol
    pytest.fail(f"no strict mixture among the first {name} instances")


@pytest.mark.parametrize("name,k", [("rerank_1k", 0), ("ties_mixed_10k", 0),
                                    ("ties_mixed_10k", 1), ("ties_mixed_10k", 2)])
def test_certificate_accepts_solver_output(name, k):
    raw, sol = _solved(name, k)
    assert certify(raw, sol) == []


def test_ties_workload_covers_all_three_bound_kinds():
    statuses = [_solved("ties_mixed_10k", k)[1].status for k in range(3)]
    assert statuses == [STATUS_UNCONSTRAINED, STATUS_UPPER_ACTIVE,
                        STATUS_LOWER_ACTIVE]


@pytest.mark.parametrize("delta", [1e-3, -1e-3])
def test_certificate_rejects_nudged_rho(delta):
    raw, sol = _strict_mixture("rerank_1k")
    mix = sol.mixture
    bad = _with_mixture(sol, raw, mix.x1, mix.x2, mix.rho + delta)
    assert certify(raw, bad)


def test_certificate_rejects_nudged_rho_with_stale_objective():
    raw, sol = _strict_mixture("rerank_1k")
    mix = dataclasses.replace(sol.mixture, rho=sol.mixture.rho + 1e-3)
    assert certify(raw, dataclasses.replace(sol, mixture=mix))


def test_certificate_rejects_swapped_slot():
    raw, sol = _solved("rerank_1k", 0)
    mix = sol.mixture
    slots = list(mix.x1.slots)
    outsider = next(i for i in range(raw.m)
                    if i not in slots and i not in mix.x2.slots)
    slots[-1] = outsider
    bad = _with_mixture(sol, raw, ExtremeAssignment(tuple(slots)), mix.x2, mix.rho)
    assert certify(raw, bad)


def test_certificate_rejects_repeated_slot():
    raw, sol = _solved("rerank_1k", 0)
    mix = sol.mixture
    slots = list(mix.x1.slots)
    slots[-1] = slots[0]
    x1 = object.__new__(ExtremeAssignment)  # bypass the constructor's check
    object.__setattr__(x1, "slots", tuple(slots))
    bad = dataclasses.replace(sol, mixture=dataclasses.replace(mix, x1=x1))
    assert certify(raw, bad)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmark/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_counts_repeat_exactly_for_a_seed():
    results = []
    for _ in range(2):
        proc = _run(ROOT, "--workload", "ties_mixed_10k", "--seed", "5",
                    "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    first, second = (r["metrics"] for r in results)
    counted = [k for k in first
               if k in COUNT_METRICS or k.startswith("solver.termination.")]
    assert len(counted) == len(COUNT_METRICS) + 5
    assert all(r["correct"] for r in results)
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}


def test_refuses_to_run_without_solver_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run(tmp_path, "--workload", "rerank_1k", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
