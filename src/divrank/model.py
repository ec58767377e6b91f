"""Problem data model: instances, assignments, solution records, JSON I/O.

An instance asks for the best assignment of n ranked slots to m candidates.
Each candidate i has a relevance score c[i] and a diversity score a[i]; slot j
carries a positive, strictly decreasing weight w[j]. The objective is the
weighted relevance sum and the weighted diversity sum must land in [b1, b2].

Instances are immutable after validation and safe to share across threads.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

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


def _as_vector(x: Any, name: str, errors: list[str], messages: list[str]):
    try:
        arr = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError):
        errors.append(ERR_DIMENSION)
        messages.append(f"{name} is not a numeric vector")
        return None
    if arr.ndim != 1:
        errors.append(ERR_DIMENSION)
        messages.append(f"{name} must be one-dimensional")
        return None
    return arr


def validate_instance(m, n, c, a, w, b1, b2) -> Instance:
    """Check every instance invariant; raise ValidationError listing all failures.

    Passing ``w=None`` fills in default_weights(n). Returns an Instance whose
    arrays are read-only copies.
    """
    errors: list[str] = []
    messages: list[str] = []

    ok_sizes = True
    for name, val in (("m", m), ("n", n)):
        if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
            errors.append(ERR_DIMENSION)
            messages.append(f"{name} must be an integer")
            ok_sizes = False
        elif val < 1:
            errors.append(ERR_DIMENSION)
            messages.append(f"{name} must be >= 1")
            ok_sizes = False
    if ok_sizes and n > m:
        errors.append(ERR_N_TOO_LARGE)
        messages.append(f"n={n} exceeds m={m}")

    c_arr = _as_vector(c, "c", errors, messages)
    a_arr = _as_vector(a, "a", errors, messages)
    if w is None and ok_sizes:
        w_arr = default_weights(int(n))
    else:
        w_arr = _as_vector(w, "w", errors, messages) if w is not None else None

    if ok_sizes:
        if c_arr is not None and c_arr.shape[0] != m:
            errors.append(ERR_DIMENSION)
            messages.append(f"len(c)={c_arr.shape[0]} != m={m}")
        if a_arr is not None and a_arr.shape[0] != m:
            errors.append(ERR_DIMENSION)
            messages.append(f"len(a)={a_arr.shape[0]} != m={m}")
        if w_arr is not None and w_arr.shape[0] != n:
            errors.append(ERR_DIMENSION)
            messages.append(f"len(w)={w_arr.shape[0]} != n={n}")

    try:
        b1_f = float(b1)
        b2_f = float(b2)
    except (TypeError, ValueError):
        errors.append(ERR_DIMENSION)
        messages.append("b1/b2 must be real numbers")
        b1_f = b2_f = np.nan

    for name, part in (("c", c_arr), ("a", a_arr), ("w", w_arr)):
        if part is not None and not np.all(np.isfinite(part)):
            errors.append(ERR_NON_FINITE)
            messages.append(f"{name} contains non-finite entries")
    bounds_finite = bool(np.isfinite(b1_f) and np.isfinite(b2_f))
    if not bounds_finite:
        errors.append(ERR_NON_FINITE)
        messages.append("b1/b2 must be finite")

    if w_arr is not None and np.all(np.isfinite(w_arr)):
        if np.any(w_arr <= 0.0):
            errors.append(ERR_WEIGHTS_SIGN)
            messages.append("w must be strictly positive")
        if w_arr.shape[0] > 1 and np.any(np.diff(w_arr) >= 0.0):
            errors.append(ERR_WEIGHTS_ORDER)
            messages.append("w must be strictly decreasing")

    if bounds_finite and b1_f > b2_f:
        errors.append(ERR_BOUNDS)
        messages.append(f"b1={b1_f} > b2={b2_f}")

    if errors:
        raise ValidationError(errors, messages)

    def _frozen(arr: np.ndarray) -> np.ndarray:
        out = np.array(arr, dtype=np.float64, copy=True)
        out.setflags(write=False)
        return out

    return Instance(
        m=int(m), n=int(n),
        c=_frozen(c_arr), a=_frozen(a_arr), w=_frozen(w_arr),
        b1=b1_f, b2=b2_f,
    )


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


@dataclass
class SolveStats:
    iterations: int = 0
    screen_events: int = 0
    dropped: int = 0
    wall_time_us: float = 0.0
    exact: bool = True
    duality_gap: float = 0.0
    # Original indices removed by screening, as an int array; kept out of the
    # JSON payload.
    dropped_indices: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.intp))


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

_INSTANCE_KEYS = ("m", "n", "c", "a", "w", "b1", "b2")


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
        except json.JSONDecodeError as exc:
            raise ValidationError([ERR_DIMENSION], [f"not valid JSON: {exc}"]) from exc
    return parse_instance(data)


def instance_to_dict(inst: Instance) -> dict[str, Any]:
    return {
        "m": inst.m,
        "n": inst.n,
        "c": [float(v) for v in inst.c],
        "a": [float(v) for v in inst.a],
        "w": [float(v) for v in inst.w],
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
        "slots1": [int(i) for i in sol.mixture.x1.slots],
        "slots2": [int(i) for i in sol.mixture.x2.slots],
        "stats": {
            "iterations": sol.stats.iterations,
            "screen_events": sol.stats.screen_events,
            "dropped": sol.stats.dropped,
            "wall_time_us": float(sol.stats.wall_time_us),
            "exact": bool(sol.stats.exact),
            "duality_gap": float(sol.stats.duality_gap),
        },
    }
