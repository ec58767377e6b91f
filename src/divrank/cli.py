"""Command-line interface: solve, gen, verify, bench.

Exit codes for solve: 0 success, 2 invalid input, 3 infeasible instance.
Set DIVRANK_LOG=debug|info|warning to control trace verbosity.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import statistics
import sys
from dataclasses import dataclass

from .datagen import GenConfig, RegenExhaustedError, gen_synthetic, seed_key
from .model import (STATUS_INFEASIBLE, ValidationError, instance_to_dict,
                    load_instance, solution_to_dict)
from .oracle import brute_force_tiny, oracle_dual_breakpoints
from .solver import InfeasibleError, SolveOptions, reduce_two_sided, solve

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3

# Screening-solver timings (ms) measured for this method on a 4-core laptop;
# printed next to bench results for comparison, never asserted.
REFERENCE_SCREENING_MS = {
    (100, 10): 0.8, (300, 10): 1.2, (1000, 10): 2.5,
    (3000, 10): 5.6, (10000, 10): 14.3,
    (100, 30): 1.7, (300, 30): 2.1, (1000, 30): 3.7,
    (3000, 30): 7.3, (10000, 30): 19.1,
}

ALG_BISECTION = "bisection"
ALG_SCREENING = "screening"

REL_TOL = 1e-9


def _configure_logging() -> None:
    level_name = os.environ.get("DIVRANK_LOG", "warning").strip().lower()
    level = {"debug": logging.DEBUG, "info": logging.INFO,
             "warning": logging.WARNING, "error": logging.ERROR}.get(
                 level_name, logging.WARNING)
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _rel_close(x: float, y: float, tol: float = REL_TOL) -> bool:
    return abs(x - y) <= tol * (1.0 + max(abs(x), abs(y)))


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        inst = load_instance(args.input)
    except ValidationError as exc:
        print(json.dumps({"status": "Invalid", "errors": exc.errors,
                          "messages": exc.messages}), file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(json.dumps({"status": "Invalid", "errors": ["IO"],
                          "messages": [str(exc)]}), file=sys.stderr)
        return EXIT_INVALID
    try:
        sol = solve(inst, SolveOptions(screening=not args.no_screening))
    except InfeasibleError as exc:
        print(json.dumps({"status": STATUS_INFEASIBLE,
                          "messages": [str(exc)]}), file=sys.stderr)
        return EXIT_INFEASIBLE
    _emit(json.dumps(solution_to_dict(sol)), args.output)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    config = GenConfig(m=args.m, n=args.n, alpha=args.alpha, seed=args.seed)
    try:
        inst = gen_synthetic(config)
    except RegenExhaustedError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MISMATCH
    _emit(json.dumps(instance_to_dict(inst)), args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    """Cross-check the solver against the oracles on seeded instances."""
    bad: list[tuple[int, ...]] = []
    tiny = args.m <= 7 and args.n <= 3
    for rep in range(args.count):
        key = seed_key(args.seed, args.m, args.n, rep)
        inst = gen_synthetic(GenConfig(m=args.m, n=args.n, seed=key))
        sol_scr = solve(inst, SolveOptions(screening=True))
        sol_raw = solve(inst, SolveOptions(screening=False))
        red = reduce_two_sided(inst)
        ok = True
        if red.one_sided is not None:
            ora = oracle_dual_breakpoints(red.one_sided)
            for sol in (sol_scr, sol_raw):
                ok &= _rel_close(sol.lambda_star, ora.lambda_star)
                ok &= _rel_close(sol.objective, ora.g_star)
        if tiny:
            bf = brute_force_tiny(inst)
            ok &= bf.feasible
            if bf.feasible:
                ok &= _rel_close(sol_scr.objective, bf.objective)
                ok &= _rel_close(sol_raw.objective, bf.objective)
        if not ok:
            bad.append(key)
    if bad:
        print(f"verify: {len(bad)}/{args.count} instances mismatched "
              f"(tolerance {REL_TOL:g} relative)")
        for key in bad:
            print(f"  seed {key}")
        return EXIT_MISMATCH
    print(f"verify: {args.count} instances at (m={args.m}, n={args.n}) "
          f"match the oracle within {REL_TOL:g} relative")
    return EXIT_OK


@dataclass(frozen=True)
class BenchRow:
    m: int
    n: int
    algorithm: str
    times_ms: tuple[float, ...]

    @property
    def mean_ms(self) -> float:
        return statistics.fmean(self.times_ms)

    @property
    def std_ms(self) -> float:
        if len(self.times_ms) < 2:
            return 0.0
        return statistics.stdev(self.times_ms)

    @property
    def median_ms(self) -> float:
        return statistics.median(self.times_ms)


def run_benchmark(m_list: list[int], n_list: list[int], reps: int = 20,
                  alpha: float = 0.5, seed: int = 0) -> list[BenchRow]:
    """Time both solver variants on fresh seeded instances.

    Timing covers solve() only (its own wall clock), excluding generation
    and serialization. Reps run sequentially for timing fidelity.
    """
    rows: list[BenchRow] = []
    for m in m_list:
        for n in n_list:
            instances = [
                gen_synthetic(GenConfig(m=m, n=n, alpha=alpha,
                                        seed=seed_key(seed, m, n, rep)))
                for rep in range(reps)
            ]
            for screening, name in ((False, ALG_BISECTION), (True, ALG_SCREENING)):
                opts = SolveOptions(screening=screening)
                solve(instances[0], opts)  # warm-up, not timed
                times = tuple(
                    solve(inst, opts).stats.wall_time_us / 1e3
                    for inst in instances
                )
                rows.append(BenchRow(m=m, n=n, algorithm=name, times_ms=times))
    return rows


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def cmd_bench(args: argparse.Namespace) -> int:
    rows = run_benchmark(args.m_list, args.n_list, reps=args.reps,
                         alpha=args.alpha, seed=args.seed)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m", "n", "algorithm", "mean_ms", "std_ms", "reps",
                             "median_ms"])
            for row in rows:
                writer.writerow([row.m, row.n, row.algorithm,
                                 f"{row.mean_ms:.6f}", f"{row.std_ms:.6f}",
                                 len(row.times_ms), f"{row.median_ms:.6f}"])
    header = f"{'m':>7} {'n':>4} {'algorithm':>10} {'mean_ms':>10} {'std_ms':>9} {'median_ms':>10}"
    print(header)
    for row in rows:
        print(f"{row.m:>7} {row.n:>4} {row.algorithm:>10} "
              f"{row.mean_ms:>10.3f} {row.std_ms:>9.3f} {row.median_ms:>10.3f}")
        ref = REFERENCE_SCREENING_MS.get((row.m, row.n))
        if row.algorithm == ALG_SCREENING and ref is not None:
            print(f"{'':>7} {'':>4} {'reference':>10} {ref:>10.3f}   "
                  f"(4-core laptop, for comparison)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divrank",
        description="Exact top-n ranking under a weighted diversity bound",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance JSON file")
    p_solve.add_argument("--input", required=True, help="instance JSON path")
    p_solve.add_argument("--output", default=None, help="solution JSON path (default stdout)")
    p_solve.add_argument("--no-screening", action="store_true",
                         help="disable candidate screening")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a synthetic instance")
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--alpha", type=float, default=0.5,
                       help="cov(a, c) of the score model")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", default=None, help="instance JSON path (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser("verify",
                              help="cross-check the solver against the oracles")
    p_verify.add_argument("--count", type=int, default=100)
    p_verify.add_argument("--m", type=int, default=20)
    p_verify.add_argument("--n", type=int, default=3)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="time both solver variants")
    p_bench.add_argument("--m-list", type=_parse_int_list, default=[100, 300, 1000])
    p_bench.add_argument("--n-list", type=_parse_int_list, default=[10])
    p_bench.add_argument("--reps", type=int, default=20)
    p_bench.add_argument("--alpha", type=float, default=0.5)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--csv", default=None, help="write results CSV here")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
