"""Span tracing from outside the solver, and the per-layer metrics derived
from the spans.

``Tracer.installed()`` replaces the public functions at the module
attributes their callers look up with wrappers that record one span per
call: name, start and end (perf_counter_ns), the index of the enclosing
span, the request id, and a small per-layer detail taken from the call's
arguments or result after the end time is read. Spans stay in memory; the
originals are restored on exit. Nothing in ``src/`` changes.
"""
from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np


def _sorted_elems(args, kwargs, out):
    return len(args[0])


def _left_fast_path(args, kwargs, out):
    # Mirrors the singleton fast-path test at the top of extremal_diversity.
    ss, w = args[0], args[3]
    n = w.shape[0]
    g_last = int(np.searchsorted(ss.starts, n - 1, side="right") - 1)
    return not (g_last == n - 1 and ss.ends[g_last] == n)


def _eval_detail(args, kwargs, out):
    tau = kwargs["tau"] if "tau" in kwargs else (args[3] if len(args) > 3 else 0.0)
    return (float(tau), out.lam, out.g_plus)


def _returned(args, kwargs, out):
    return out


def _dropped(args, kwargs, out):
    return int(out.shape[0])


def _lambda_star(args, kwargs, out):
    return out.lambda_star


# (module, attribute, detail extractor or None). Span names drop "divrank.".
WRAPPED = (
    ("divrank.model", "validate_instance", None),
    ("divrank.solver", "precheck_feasibility", None),
    ("divrank.solver", "reduce_two_sided", None),
    ("divrank.solver", "solve_dual_bisection", _lambda_star),
    ("divrank.solver", "eval_dual", _eval_detail),
    ("divrank.solver", "kink_right", _returned),
    ("divrank.solver", "kink_left", _returned),
    ("divrank.solver", "screen_candidates", _dropped),
    ("divrank.solver", "recover_primal", None),
    ("divrank.dual", "sort_scores", _sorted_elems),
    ("divrank.dual", "extremal_diversity", _left_fast_path),
    ("divrank.rank", "sort_scores", _sorted_elems),
    ("divrank.rank", "extremal_diversity", _left_fast_path),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "detail")

    def __init__(self, name, parent, request):
        self.name = name
        self.parent = parent
        self.request = request
        self.start = self.end = 0
        self.detail = None

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.request = -1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the caller's own code (request, solve)."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter_ns()
            self._stack.pop()

    def _open(self, name: str) -> Span:
        rec = Span(name, self._stack[-1] if self._stack else -1, self.request)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec.start = time.perf_counter_ns()
        return rec

    def _wrap(self, name, fn, detail):
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end = clock()
                stack.pop()
            if detail is not None:
                rec.detail = detail(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for mod_name, attr, detail in WRAPPED:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                name = mod_name.split(".", 1)[1] + "." + attr
                setattr(mod, attr, self._wrap(name, fn, detail))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def save(self, path) -> None:
        """Write all spans as parallel arrays (names as an index table)."""
        names = sorted({s.name for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path, names=np.array(names),
            name=np.array([code[s.name] for s in self.spans], dtype=np.int16),
            start=np.array([s.start for s in self.spans], dtype=np.int64),
            end=np.array([s.end for s in self.spans], dtype=np.int64),
            parent=np.array([s.parent for s in self.spans], dtype=np.int64),
            request=np.array([s.request for s in self.spans], dtype=np.int64))


TERMINATIONS = ("unconstrained", "bisection", "kink_right", "kink_left", "fallback")
KINK_STEPS = ("solver.kink_right", "solver.kink_left")
SORTS = ("dual.sort_scores", "rank.sort_scores")
EXTREMALS = ("dual.extremal_diversity", "rank.extremal_diversity")


@dataclass
class RequestProfile:
    """Per-request layer totals (ns) and counts from one request's spans."""

    m: int
    solve_ns: int = 0
    validate_ns: int = 0
    child_ns: int = 0  # direct children of the solve span
    phase_ns: Counter = field(default_factory=Counter)
    sort_calls: int = 0
    sorted_elems: int = 0
    sort_ns: int = 0
    extremal_calls: int = 0
    extremal_ties: int = 0
    extremal_ns: int = 0
    evals: int = 0
    eval_ns: int = 0
    eval_child_ns: int = 0
    doubling_ns: int = 0
    bisection_ns: int = 0
    kink_eval_ns: int = 0
    kink_steps: int = 0
    kink_ns: int = 0
    kink_evals: int = 0
    kink_hits: int = 0
    dropped: int = 0
    termination: str = ""
    nested_ok: bool = True

    @property
    def self_ns(self) -> int:
        return self.solve_ns - self.child_ns


def profile_request(spans: list[Span], lo: int, hi: int, solve_index: int,
                    m: int, exact: bool) -> RequestProfile:
    """Fold the spans ``spans[lo:hi]`` of one request (its validate span,
    then the solve span at ``solve_index`` and its descendants) into layer
    totals, and infer the termination path."""
    p = RequestProfile(m=m)
    root = spans[solve_index]
    p.solve_ns = root.ns
    doubling = True
    last_eval = None  # (tau, lam) of the latest eval_dual
    last_step = None  # kink function that preceded it
    bisect_lam = None
    bisected = False
    for i in range(lo, hi):
        s = spans[i]
        if s.name == "model.validate_instance":
            p.validate_ns += s.ns
            continue
        if i <= solve_index:
            continue
        parent = spans[s.parent]
        if not (parent.start <= s.start <= s.end <= parent.end):
            p.nested_ok = False
        if s.parent == solve_index:
            p.child_ns += s.ns
        name = s.name
        if name in SORTS:
            p.sort_calls += 1
            p.sorted_elems += s.detail
            p.sort_ns += s.ns
            if parent.name == "solver.eval_dual":
                p.eval_child_ns += s.ns
        elif name in EXTREMALS:
            p.extremal_calls += 1
            p.extremal_ties += bool(s.detail)
            p.extremal_ns += s.ns
            if parent.name == "solver.eval_dual":
                p.eval_child_ns += s.ns
        elif name == "solver.eval_dual":
            tau, lam, g_plus = s.detail
            p.evals += 1
            p.eval_ns += s.ns
            if tau > 0.0:
                p.kink_eval_ns += s.ns
                p.kink_evals += 1
            elif doubling:
                p.doubling_ns += s.ns
                doubling = g_plus < 0.0
            else:
                p.bisection_ns += s.ns
            last_eval = (tau, lam)
        elif name in KINK_STEPS:
            p.kink_steps += 1
            p.kink_ns += s.ns
            last_step = name
        elif name == "solver.solve_dual_bisection":
            bisected = True
            bisect_lam = s.detail
            p.phase_ns[name] += s.ns
        else:
            p.phase_ns[name] += s.ns
            if name == "solver.screen_candidates":
                p.dropped += s.detail
    ended_on_kink = (bisect_lam is not None and last_eval is not None
                     and last_eval[0] > 0.0 and last_eval[1] == bisect_lam)
    p.kink_hits = int(ended_on_kink)
    if not bisected:
        p.termination = "unconstrained"
    elif not exact:
        p.termination = "fallback"
    elif ended_on_kink:
        p.termination = last_step.split(".", 1)[1]
    else:
        p.termination = "bisection"
    return p


def _per_call(total_ns: int, calls: int):
    return total_ns / calls if calls else None


def layer_metrics(timed: list[RequestProfile], counted: list[RequestProfile]) -> dict:
    """Per-layer metrics. Times are medians over the traced requests in
    ``timed``; counts are means over ``counted``, the profiles of a fixed
    leading run of instances, so they repeat exactly for a seed."""

    def med_ms(get):
        vals = [v for v in map(get, timed) if v is not None]
        return statistics.median(vals) / 1e6 if vals else 0.0

    def tot(attr):
        return sum(getattr(p, attr) for p in counted)

    def share(num, den):
        return tot(num) / tot(den) if tot(den) else 0.0

    k = len(counted)
    terminations = Counter(p.termination for p in counted)
    out = {
        "model.validate_ms": (med_ms(lambda p: p.validate_ns), "ms"),
        "rank.sort_ms": (med_ms(lambda p: _per_call(p.sort_ns, p.sort_calls)), "ms"),
        "rank.sort_calls": (tot("sort_calls") / k, "count"),
        "rank.sorted_elems": (tot("sorted_elems") / k, "count"),
        "rank.extremal_ms": (med_ms(lambda p: _per_call(p.extremal_ns, p.extremal_calls)), "ms"),
        "rank.tie_path_share": (share("extremal_ties", "extremal_calls"), "share"),
        "dual.evals": (tot("evals") / k, "count"),
        "dual.eval_ms": (med_ms(lambda p: _per_call(p.eval_ns, p.evals)), "ms"),
        "dual.eval_self_ms": (med_ms(lambda p: _per_call(p.eval_ns - p.eval_child_ns, p.evals)), "ms"),
        "dual.kink_steps": (tot("kink_steps") / k, "count"),
        "dual.kink_ms": (med_ms(lambda p: p.kink_ns), "ms"),
        "dual.kink_hit_share": (share("kink_hits", "kink_evals"), "share"),
        "solver.solve_ms": (med_ms(lambda p: p.solve_ns), "ms"),
        "solver.precheck_ms": (med_ms(lambda p: p.phase_ns["solver.precheck_feasibility"]), "ms"),
        "solver.reduce_ms": (med_ms(lambda p: p.phase_ns["solver.reduce_two_sided"]), "ms"),
        "solver.doubling_ms": (med_ms(lambda p: p.doubling_ns), "ms"),
        "solver.bisection_ms": (med_ms(lambda p: p.bisection_ns), "ms"),
        "solver.kink_eval_ms": (med_ms(lambda p: p.kink_eval_ns), "ms"),
        "solver.screen_ms": (med_ms(lambda p: p.phase_ns["solver.screen_candidates"]), "ms"),
        "solver.dropped_share": (sum(p.dropped / p.m for p in counted) / k, "share"),
        "solver.active_final": (sum(p.m - p.dropped for p in counted) / k, "count"),
        "solver.recover_ms": (med_ms(lambda p: p.phase_ns["solver.recover_primal"]), "ms"),
        "solver.self_ms": (med_ms(lambda p: p.self_ns), "ms"),
    }
    for t in TERMINATIONS:
        out[f"solver.termination.{t}"] = (terminations[t], "count")
    return out
