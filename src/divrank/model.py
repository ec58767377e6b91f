"""Problem data model: instances, assignments, solution records, JSON I/O.

An instance asks for the best assignment of n ranked slots to m candidates.
Each candidate i has a relevance score c[i] and a diversity score a[i]; slot j
carries a positive, strictly decreasing weight w[j]. The objective is the
weighted relevance sum and the weighted diversity sum must land in [b1, b2].

Instances are immutable after validation and safe to share across threads.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping, Sequence

import numpy as np

# Solution status values (wire format).
STATUS_UNCONSTRAINED = "UnconstrainedOptimal"
STATUS_UPPER_ACTIVE = "UpperActive"
STATUS_LOWER_ACTIVE = "LowerActive"
STATUS_INFEASIBLE = "Infeasible"

# Validation failure names, reported all at once.
ERR_DIMENSION = "DimensionMismatch"
ERR_N_TOO_LARGE = "NTooLarge"
ERR_NON_FINITE = "NonFinite"
ERR_WEIGHTS_ORDER = "NonDecreasingWeights"
ERR_WEIGHTS_SIGN = "NonPositiveWeight"
ERR_BOUNDS = "BoundsReversed"


class ValidationError(ValueError):
    """Raised when instance data violates one or more invariants.

    Carries every violated invariant name in ``errors`` (not just the first),
    so callers can report the full list.
    """

    def __init__(self, errors: Sequence[str], messages: Sequence[str]):
        self.errors = list(errors)
        self.messages = list(messages)
        super().__init__("; ".join(self.messages) or "invalid instance")


def default_weights(n: int) -> np.ndarray:
    """Discount weights w_j = 1 / log2(1 + j) for slots j = 1..n.

    Strictly decreasing and positive, with w_1 = 1 exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1.0 / np.log2(np.arange(2, n + 2, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class Instance:
    """A validated ranking instance. Build through validate_instance()."""

    m: int
    n: int
    c: np.ndarray
    a: np.ndarray
    w: np.ndarray
    b1: float
    b2: float


def _real(v) -> float:
    """float(v) for a real number other than a bool, reading an integer past
    the float range as the infinity of its sign, as JSON reads 1e400."""
    # float and int go first: the numbers.Real check alone is slow.
    if isinstance(v, bool) or not isinstance(v, (float, int, numbers.Real)):
        raise TypeError(f"{v!r} is not a real number")
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _as_vector(x: Any, name: str, fail: Callable[[str, str], None]):
    """x as a new one-dimensional float64 array, or None once fail has
    reported why not. numpy's dtype gives the kind: it must be an integer
    or a float, so strings, bools, None and complex values are refused;
    only an object array, such as Python ints past the int64 range, is read
    entry by entry."""
    try:
        raw = np.asarray(x)
        kind = raw.dtype.kind
        if kind == "O":
            raw = np.array(np.frompyfunc(_real, 1, 1)(raw), dtype=np.float64)
        elif kind not in "iuf":
            raise TypeError(f"dtype {raw.dtype}")
    except (TypeError, ValueError):
        fail(ERR_DIMENSION, f"{name} is not a numeric vector")
        return None
    if raw.ndim != 1:
        fail(ERR_DIMENSION, f"{name} must be one-dimensional")
        return None
    return np.array(raw, dtype=np.float64)  # the Instance's own copy


def validate_instance(m, n, c, a, w, b1, b2) -> Instance:
    """Check every instance invariant; raise ValidationError listing all failures.

    Passing ``w=None`` fills in default_weights(n) once n is known to fit
    len(c). Returns an Instance whose arrays are read-only copies.
    """
    errors: list[str] = []
    messages: list[str] = []

    def fail(error: str, message: str) -> None:
        errors.append(error)
        messages.append(message)

    ok_sizes = True
    for name, val in (("m", m), ("n", n)):
        if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
            fail(ERR_DIMENSION, f"{name} must be an integer")
            ok_sizes = False
        elif val < 1:
            fail(ERR_DIMENSION, f"{name} must be >= 1")
            ok_sizes = False
    if ok_sizes and n > m:
        fail(ERR_N_TOO_LARGE, f"n={n} exceeds m={m}")

    c_arr = _as_vector(c, "c", fail)
    a_arr = _as_vector(a, "a", fail)
    w_arr = None if w is None else _as_vector(w, "w", fail)

    if ok_sizes:
        for name, arr, dim, size in (("c", c_arr, "m", m), ("a", a_arr, "m", m),
                                     ("w", w_arr, "n", n)):
            if arr is not None and arr.shape[0] != size:
                fail(ERR_DIMENSION, f"len({name})={arr.shape[0]} != {dim}={size}")

    bounds = {}
    for name, val in (("b1", b1), ("b2", b2)):
        try:
            bounds[name] = _real(val)
        except TypeError:
            fail(ERR_DIMENSION, f"{name} must be a real number")

    non_finite = [name for name, part in (("c", c_arr), ("a", a_arr), ("w", w_arr))
                  if part is not None and not np.isfinite(part).all()]
    for name in non_finite:
        fail(ERR_NON_FINITE, f"{name} contains non-finite entries")
    for name, val in bounds.items():
        if not math.isfinite(val):
            fail(ERR_NON_FINITE, f"{name} must be finite")

    if w_arr is not None and "w" not in non_finite:
        if (w_arr <= 0.0).any():
            fail(ERR_WEIGHTS_SIGN, "w must be strictly positive")
        if (w_arr[1:] >= w_arr[:-1]).any():
            fail(ERR_WEIGHTS_ORDER, "w must be strictly decreasing")

    b1_f, b2_f = bounds.get("b1", math.nan), bounds.get("b2", math.nan)
    if math.isfinite(b1_f) and math.isfinite(b2_f) and b1_f > b2_f:
        fail(ERR_BOUNDS, f"b1={b1_f} > b2={b2_f}")

    if errors:
        raise ValidationError(errors, messages)
    if w_arr is None:  # only now is n known to fit len(c)
        w_arr = default_weights(int(n))
    for arr in (c_arr, a_arr, w_arr):
        arr.setflags(write=False)
    return Instance(m=int(m), n=int(n), c=c_arr, a=a_arr, w=w_arr,
                    b1=b1_f, b2=b2_f)


@dataclass(frozen=True)
class ExtremeAssignment:
    """An injective slot assignment: slots[j] is the candidate in slot j+1."""

    slots: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.slots)) != len(self.slots):
            raise ValueError("assignment repeats a candidate")

    def objective(self, c: np.ndarray, w: np.ndarray) -> float:
        return float(np.dot(w, c[list(self.slots)]))

    def diversity(self, a: np.ndarray, w: np.ndarray) -> float:
        return float(np.dot(w, a[list(self.slots)]))


@dataclass(frozen=True)
class PrimalMixture:
    """Convex combination rho * x1 + (1 - rho) * x2 of two assignments."""

    x1: ExtremeAssignment
    x2: ExtremeAssignment
    rho: float
    objective: float
    diversity: float

    def support(self) -> set[int]:
        """Candidates appearing with nonzero row mass in the mixture."""
        sup: set[int] = set()
        if self.rho > 0.0:
            sup.update(self.x1.slots)
        if self.rho < 1.0:
            sup.update(self.x2.slots)
        return sup


def complement(indices: np.ndarray, m: int) -> np.ndarray:
    """The indices in range(m) missing from indices, ascending."""
    mask = np.ones(m, dtype=bool)
    mask[indices] = False
    return mask.nonzero()[0]


@dataclass
class SolveStats:
    # Dual evaluations at one point each: bisection and doubling trials, the
    # trial at the batched crossing step's pick, and kink evaluations; the
    # step's batched evaluations at many crossings are not counted.
    iterations: int = 0
    screen_events: int = 0
    dropped: int = 0
    wall_time_us: float = 0.0
    exact: bool = True
    duality_gap: float = 0.0
    # Original indices screening kept, ascending; None when it dropped none.
    survivors: np.ndarray | None = field(default=None, repr=False, compare=False)

    @cached_property
    def dropped_indices(self) -> np.ndarray:
        """Original indices removed by screening, ascending, as an int array:
        the survivors' complement, built on first read, since most callers
        need only the count. Kept out of the JSON payload."""
        if self.survivors is None:
            return np.empty(0, dtype=np.intp)
        return complement(self.survivors, self.survivors.shape[0] + self.dropped)


@dataclass(frozen=True)
class Solution:
    status: str
    lambda_star: float
    mixture: PrimalMixture
    stats: SolveStats

    @property
    def objective(self) -> float:
        return self.mixture.objective

    @property
    def diversity(self) -> float:
        return self.mixture.diversity


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------

def parse_instance(data: Mapping[str, Any]) -> Instance:
    """Build a validated Instance from a decoded JSON object.

    ``"w": null`` (or an absent w) selects default_weights(n).
    """
    if not isinstance(data, Mapping):
        raise ValidationError([ERR_DIMENSION], ["instance document must be a JSON object"])
    missing = [k for k in ("m", "n", "c", "a", "b1", "b2") if k not in data]
    if missing:
        raise ValidationError(
            [ERR_DIMENSION] * len(missing),
            [f"missing field '{k}'" for k in missing],
        )
    return validate_instance(
        data["m"], data["n"], data["c"], data["a"], data.get("w"),
        data["b1"], data["b2"],
    )


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # Bytes that are not UTF-8, and nesting deeper than the decoder's
        # recursion limit, are malformed input too.
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ValidationError([ERR_DIMENSION], [f"not valid JSON: {exc}"]) from exc
    return parse_instance(data)


def instance_to_dict(inst: Instance) -> dict[str, Any]:
    return {
        "m": inst.m,
        "n": inst.n,
        "c": inst.c.tolist(),
        "a": inst.a.tolist(),
        "w": inst.w.tolist(),
        "b1": float(inst.b1),
        "b2": float(inst.b2),
    }


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh)
        fh.write("\n")


def solution_to_dict(sol: Solution) -> dict[str, Any]:
    return {
        "status": sol.status,
        "lambda_star": float(sol.lambda_star),
        "objective": float(sol.objective),
        "diversity": float(sol.diversity),
        "rho": float(sol.mixture.rho),
        "slots1": list(sol.mixture.x1.slots),
        "slots2": list(sol.mixture.x2.slots),
        "stats": {
            "iterations": sol.stats.iterations,
            "screen_events": sol.stats.screen_events,
            "dropped": sol.stats.dropped,
            "wall_time_us": float(sol.stats.wall_time_us),
            "exact": bool(sol.stats.exact),
            "duality_gap": float(sol.stats.duality_gap),
        },
    }
