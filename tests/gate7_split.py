#!/usr/bin/env python3
"""Gate 7's m = 3000 comparison, split by side and by heap state.

    python3 tests/gate7_split.py

Gate 7 (tests/test_acceptance.py) times run_benchmark's instances at
m = 3000, n = 10, seed 8701, with screening off and on, and asserts that the
ratio of their medians is at least 1.5. This script solves each of those 20
instances 15 times per side, in rounds that alternate the sides, takes each
instance's fastest solve (stats.wall_time_us, the clock gate 7 reads), and
prints the median of those minima per side and their ratio.

It measures twice. First in a fresh process, where temporaries above glibc's
default 128 KiB mmap threshold are mapped and page-faulted on every call.
Then after the process frees one 16 MB array: glibc raises its threshold on
that free and serves such temporaries from the heap. A full test run reaches
gate 7 in the second state.
"""
from __future__ import annotations

import statistics
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from divrank.datagen import GenConfig, gen_synthetic, seed_key  # noqa: E402
from divrank.solver import SolveOptions, solve  # noqa: E402

M, N, SEED, REPS, ROUNDS = 3000, 10, 8701, 20, 15
SIDES = (("screened", SolveOptions()),
         ("unscreened", SolveOptions(screening=False)))


def split(instances) -> dict[str, float]:
    """Median over instances of the fastest of ROUNDS solves, in us, per side."""
    best = {name: [np.inf] * len(instances) for name, _ in SIDES}
    for name, opts in SIDES:
        solve(instances[0], opts)  # warm-up, as gate 7's
    for _ in range(ROUNDS):
        for name, opts in SIDES:
            times = best[name]
            for k, inst in enumerate(instances):
                times[k] = min(times[k], solve(inst, opts).stats.wall_time_us)
    return {name: statistics.median(times) for name, times in best.items()}


def report(label: str, med: dict[str, float]) -> None:
    ratio = med["unscreened"] / med["screened"]
    print(f"{label:<11} screened {med['screened']:7.1f} us  "
          f"unscreened {med['unscreened']:7.1f} us  ratio {ratio:.2f}")


def main() -> int:
    instances = [gen_synthetic(GenConfig(m=M, n=N, seed=seed_key(SEED, M, N, rep)))
                 for rep in range(REPS)]
    report("fresh", split(instances))
    block = np.ones(2 << 20)  # 16 MB, touched so that it is really mapped
    del block
    report("after free", split(instances))
    return 0


if __name__ == "__main__":
    sys.exit(main())
