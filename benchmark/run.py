#!/usr/bin/env python3
"""Request-level benchmark for divrank.solve().

One process, one thread, one closed-loop caller: requests run back to back
with no think time. A request is ``validate_instance`` on raw float64 arrays
followed by ``solve()``, timed from the validate call until the Solution is
returned. Every request is then checked against a correctness certificate,
outside the timed region.

    python3 benchmark/run.py --workload rerank_1k --seed 0 --seconds 25 --trace 0
    python3 benchmark/run.py --workload all --seed 0 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
requests with every layer wrapped in spans and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The solver is
imported from ``src/`` of the checkout this file sits in; without it the
benchmark exits with status 2.
"""
from __future__ import annotations

import os
import sys

# Single-threaded BLAS for this process and any child, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

EXIT_NO_SOURCE = 2
SETUP_REPEATS = 5
WARMUP_REQUESTS = 2
WARMUP_SEED = 0
SUBPROCESS_TIMEOUT_S = 600
IMPORT_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import numpy, divrank, workloads, certificate
print(time.perf_counter() - t0)
"""


def _import_solver():
    """Import divrank from this checkout's src/ and nowhere else."""
    if not (SRC / "divrank" / "__init__.py").is_file():
        print(f"benchmark: no solver source at {SRC}/divrank", file=sys.stderr)
        sys.exit(EXIT_NO_SOURCE)
    sys.path.insert(0, str(SRC))
    import divrank
    if Path(divrank.__file__).resolve().parent != SRC / "divrank":
        print(f"benchmark: divrank resolved to {divrank.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(EXIT_NO_SOURCE)


def _request(model, solver, raw, opts):
    inst = model.validate_instance(raw.m, raw.n, raw.c, raw.a, raw.w, raw.b1, raw.b2)
    return solver.solve(inst, opts)


class Checker:
    """Counts attempted and failed requests; a failure is a raise, an
    inexact answer, a failed certificate or an oracle mismatch."""

    def __init__(self, certify):
        self.certify = certify
        self.attempted = 0
        self.failed = 0

    def report(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED: {what}", file=sys.stderr)

    def check(self, raw, sol, k: int) -> bool:
        problems = self.certify(raw, sol)
        if problems:
            self.report(f"request {k}: " + "; ".join(problems))
        return not problems


def warm_up(workload, model, solver) -> None:
    # Fixed instances, so that set-up time does not depend on --seed.
    for k in range(WARMUP_REQUESTS):
        _request(model, solver, workload.make(WARMUP_SEED, k), workload.options)


def timed_import() -> float:
    """Seconds a fresh interpreter takes to import numpy, the solver and the
    benchmark's own modules."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH_DIR)],
                          capture_output=True, text=True, check=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    return float(proc.stdout)


def set_up(workload, model, solver, speed) -> tuple[list[float], list[int]]:
    """Import in a fresh interpreter, then draw the warm-up instances and
    solve them, SETUP_REPEATS times. Returns each repeat's seconds and its
    midpoint on the perf_counter_ns clock."""
    secs, mids = [], []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        t0 = time.perf_counter_ns()
        import_s = timed_import()
        t1 = time.perf_counter_ns()
        warm_up(workload, model, solver)
        t2 = time.perf_counter_ns()
        secs.append(import_s + (t2 - t1) / 1e9)
        mids.append((t0 + t2) // 2)
    speed.sample()
    return secs, mids


def oracle_pass(workload, seed: int, model, solver, checker: Checker) -> None:
    from certificate import oracle_agrees
    for k in range(workload.oracle_sample):
        raw = workload.make(seed, k)
        sol = _request(model, solver, raw, workload.options)
        if not oracle_agrees(raw, sol):
            checker.report(f"instance {k}: objective differs from the "
                           "breakpoint oracle")


def run_plain(workload, seed: int, seconds: float) -> dict:
    from certificate import certify
    from divrank import model, solver
    from hostspeed import HostSpeed
    import numpy as np

    speed = HostSpeed(workload.m, workload.n)
    setup_secs, setup_mids = set_up(workload, model, solver, speed)
    checker = Checker(certify)
    opts = workload.options
    starts, lat_ns = [], []
    clock = time.perf_counter_ns
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline:
        raw = workload.make(seed, k)
        speed.maybe_sample()
        checker.attempted += 1
        t0 = clock()
        try:
            sol = _request(model, solver, raw, opts)
        except Exception:  # a failed request is counted, and the loop goes on
            checker.report(f"request {k} raised:\n{traceback.format_exc()}")
        else:
            t1 = clock()
            if checker.check(raw, sol, k):
                starts.append(t0)
                lat_ns.append(t1 - t0)
            del sol
        del raw
        k += 1
    speed.sample()
    # Read before the oracle pass, whose O(m^2) grid would set the peak.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    oracle_pass(workload, seed, model, solver, checker)

    wall_ms = np.asarray(lat_ns, dtype=np.float64) / 1e6
    lat = wall_ms * speed.scale(np.asarray(starts) + np.asarray(lat_ns) / 2)
    setup_s = statistics.median(np.asarray(setup_secs) * speed.scale(setup_mids))
    ok = lat.size > 0
    metrics = {
        "latency_p50_ms": (float(np.median(lat)) if ok else 0.0, "ms"),
        "latency_p90_ms": (float(np.percentile(lat, 90)) if ok else 0.0, "ms"),
        "throughput_rps": (1e3 * lat.size / float(lat.sum()) if ok else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss_mib, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    print(f"# {workload.name}: m={workload.m} n={workload.n} seed={seed} "
          f"timed samples={lat.size}")
    print(f"failed_share = {checker.failed / checker.attempted:.6g} "
          f"({checker.failed}/{checker.attempted})")
    if ok:
        print(f"# wall clock, unscaled: p50 {np.median(wall_ms):.6g} ms, "
              f"p90 {np.percentile(wall_ms, 90):.6g} ms, "
              f"{1e3 * wall_ms.size / wall_ms.sum():.6g} 1/s, "
              f"set-up {statistics.median(setup_secs):.6g} s; host-speed "
              f"reference {speed.median_ms():.4g} ms over {speed.samples} "
              f"samples (nominal {speed.nominal_ms:g} ms)")
    return _result(checker, metrics)


def run_traced(workload, seed: int, seconds: float) -> dict:
    from certificate import certify
    from divrank import model, solver
    from spans import Tracer, layer_metrics, profile_request

    warm_up(workload, model, solver)
    checker = Checker(certify)
    opts = workload.options
    tracer = Tracer()
    spans = tracer.spans
    counted = []
    profiles = []
    traced_ns, plain_ns, gap_ms = [], [], []
    nested_ok = True
    clock = time.perf_counter_ns
    deadline = time.perf_counter() + seconds
    k = 0
    def traced(raw, k):
        nonlocal nested_ok
        tracer.request = k
        lo = len(spans)
        with tracer.installed():
            t0 = clock()
            inst = model.validate_instance(raw.m, raw.n, raw.c, raw.a, raw.w,
                                           raw.b1, raw.b2)
            solve_index = len(spans)
            with tracer.span("solve"):
                sol = solver.solve(inst, opts)
            t1 = clock()
        prof = profile_request(spans, lo, len(spans), solve_index, raw.m,
                               sol.stats.exact)
        nested_ok &= prof.nested_ok
        if checker.check(raw, sol, k):
            traced_ns.append(t1 - t0)
            profiles.append(prof)
            if k < workload.count_sample:
                counted.append(prof)

    def plain(raw, k):
        t0 = clock()
        inst = model.validate_instance(raw.m, raw.n, raw.c, raw.a, raw.w,
                                       raw.b1, raw.b2)
        t1 = clock()
        sol = solver.solve(inst, opts)
        t2 = clock()
        if checker.check(raw, sol, k):
            plain_ns.append(t2 - t0)
            gap_ms.append((t2 - t1) / 1e6 - sol.stats.wall_time_us / 1e3)

    # One traced and one plain request per instance, in alternating order so
    # that neither always runs on freshly drawn arrays; go on past the
    # deadline until the instances that give the counts are all traced.
    while time.perf_counter() < deadline or k < workload.count_sample:
        raw = workload.make(seed, k)
        checker.attempted += 2
        for request in ((traced, plain) if k % 2 == 0 else (plain, traced)):
            request(raw, k)
        del raw
        k += 1

    tracemalloc.start()
    peaks = []
    for k in range(workload.alloc_sample):
        raw = workload.make(seed, k)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        sol = _request(model, solver, raw, opts)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        del sol
    tracemalloc.stop()
    oracle_pass(workload, seed, model, solver, checker)

    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{workload.name}.npz")
    if not nested_ok:
        checker.report("a span lies outside its parent")
    if len(counted) < workload.count_sample:
        checker.report("some counted instances have no valid traced request")
    metrics = layer_metrics(profiles, counted) if counted else {}
    metrics["solver.stats_gap_ms"] = (statistics.median(gap_ms) if gap_ms else 0.0, "ms")
    metrics["solver.peak_alloc_mb"] = (statistics.median(peaks) / 2**20, "MiB")
    overhead = (statistics.median(traced_ns) / statistics.median(plain_ns) - 1.0
                if traced_ns and plain_ns else 0.0)
    metrics["trace.overhead_share"] = (overhead, "share")
    print(f"# {workload.name} traced: seed={seed} traced requests={len(traced_ns)} "
          f"plain requests={len(plain_ns)} spans={len(spans)}")
    return _result(checker, metrics)


def _result(checker: Checker, metrics: dict) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> int:
    """Run each workload in its own process and list every metric."""
    from workloads import WORKLOADS
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit status {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} failed_share="
              f"{result['failed'] / result['attempted']:.6g} "
              f"({result['failed']}/{result['attempted']})")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    _import_solver()
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    run = run_traced if args.trace else run_plain
    result = run(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
