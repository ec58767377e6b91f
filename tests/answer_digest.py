#!/usr/bin/env python3
"""Same-answer digest: solve a fixed corpus and print one SHA-256 over every
answer, so two versions of the solver can be compared for bit-identical
output.

    python3 tests/answer_digest.py

The corpus is gen_synthetic at m in {5, 30, 300, 3000} x n in {3, 10}
(6 draws each, plus copies with `a` and the bounds mirrored, and copies with
c times 2**i and `a` and the bounds times 2**j for (i, j) in SCALES, which
move lambda* far from 1), 300 draws of conftest.random_tiny_instance, and
the first 40 instances of the rerank_1k and ties_mixed_10k benchmark
workloads. Every instance is solved with screening on and off, and with
solver.MAX_EVALUATIONS at its default and at 1, 2, 3 and 5, which forces
inexact ends. An answer is the repr of every Solution field except
wall_time_us (dropped_indices included), or the InfeasibleError's message
and report. The script prints the output count, how many were exact,
inexact and infeasible, and the digest.
"""
from __future__ import annotations

import hashlib
import logging
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _p in (ROOT / "src", HERE, ROOT):
    sys.path.insert(0, str(_p))

from benchmark.workloads import WORKLOADS  # noqa: E402
from conftest import random_tiny_instance  # noqa: E402
from divrank import solver as solver_module  # noqa: E402
from divrank.datagen import GenConfig, gen_synthetic  # noqa: E402
from divrank.model import validate_instance  # noqa: E402
from divrank.solver import InfeasibleError, SolveOptions, solve  # noqa: E402

CAPS = (solver_module.MAX_EVALUATIONS, 1, 2, 3, 5)
OPTIONS = (SolveOptions(), SolveOptions(screening=False))
SCALES = ((498, -498), (-498, 498), (900, 0), (0, 900))


def mirrored(inst):
    """The same instance with a and the bounds negated."""
    return validate_instance(inst.m, inst.n, inst.c, -inst.a, inst.w,
                             -inst.b2, -inst.b1)


def rescaled(inst, i, j):
    """The same instance with c times 2**i and a, b1, b2 times 2**j."""
    return validate_instance(inst.m, inst.n, np.ldexp(inst.c, i),
                             np.ldexp(inst.a, j), inst.w,
                             math.ldexp(inst.b1, j), math.ldexp(inst.b2, j))


def corpus():
    for m in (5, 30, 300, 3000):
        for n in (3, 10):
            if n > m:
                continue
            for k in range(6):
                inst = gen_synthetic(GenConfig(m=m, n=n, seed=(9000, m, n, k)))
                yield inst
                yield mirrored(inst)
                for i, j in SCALES:
                    yield rescaled(inst, i, j)
    for k in range(300):
        inst = random_tiny_instance((9100, k))
        if inst is not None:
            yield inst
    for name in ("rerank_1k", "ties_mixed_10k"):
        make = WORKLOADS[name].make
        for k in range(40):
            raw = make(0, k)
            yield validate_instance(raw.m, raw.n, raw.c, raw.a, raw.w,
                                    raw.b1, raw.b2)


def answer(inst, opts) -> tuple[str, str]:
    """(kind, repr) of one solve: kind is exact, inexact or infeasible."""
    try:
        sol = solve(inst, opts)
    except InfeasibleError as err:
        return "infeasible", repr((str(err), err.report))
    st, mix = sol.stats, sol.mixture
    fields = (sol.status, sol.lambda_star, mix.x1.slots, mix.x2.slots,
              mix.rho, mix.objective, mix.diversity, st.iterations,
              st.screen_events, st.dropped, st.exact, st.duality_gap,
              st.dropped_indices.tolist())
    return ("exact" if st.exact else "inexact"), repr(fields)


def main() -> int:
    logging.disable(logging.WARNING)  # inexact ends log a warning each
    digest = hashlib.sha256()
    kinds = {"exact": 0, "inexact": 0, "infeasible": 0}
    default_cap = solver_module.MAX_EVALUATIONS
    try:
        for inst in corpus():
            for cap in CAPS:
                solver_module.MAX_EVALUATIONS = cap
                for opts in OPTIONS:
                    kind, text = answer(inst, opts)
                    kinds[kind] += 1
                    digest.update(text.encode())
                    digest.update(b"\n")
    finally:
        solver_module.MAX_EVALUATIONS = default_cap
    total = sum(kinds.values())
    print(f"outputs {total}: exact {kinds['exact']}, inexact {kinds['inexact']}, "
          f"infeasible {kinds['infeasible']}")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
