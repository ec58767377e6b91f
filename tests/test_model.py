"""Data model: validation, default weights, serialization round trips."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from divrank.model import (ERR_BOUNDS, ERR_DIMENSION, ERR_N_TOO_LARGE,
                           ERR_NON_FINITE, ERR_WEIGHTS_ORDER,
                           ERR_WEIGHTS_SIGN, ExtremeAssignment, PrimalMixture,
                           SolveStats, Solution, ValidationError,
                           default_weights, instance_to_dict, load_instance,
                           parse_instance, save_instance, solution_to_dict,
                           validate_instance)


class TestDefaultWeights:
    def test_single_slot_is_one(self):
        assert default_weights(1).tolist() == [1.0]

    def test_two_slots(self):
        w = default_weights(2)
        assert w[0] == 1.0
        assert w[1] == pytest.approx(1.0 / math.log2(3.0), abs=0.0)
        # Cross-check through the identity 1/log2(3) = ln 2 / ln 3.
        assert w[1] == pytest.approx(math.log(2.0) / math.log(3.0), rel=1e-15)
        assert w[1] == pytest.approx(0.63093, abs=1e-5)

    def test_third_entry_exact_half(self):
        assert default_weights(3)[2] == 0.5

    def test_strictly_decreasing_up_to_1e6(self):
        w = default_weights(10 ** 6)
        assert np.all(np.diff(w) < 0.0)
        assert np.all(w > 0.0)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            default_weights(0)


class TestValidateInstance:
    def valid_args(self):
        return dict(m=3, n=2, c=[3.0, 2.0, 0.0], a=[1.0, -1.0, 0.0],
                    w=[2.0, 1.0], b1=-1.0, b2=1.0)

    def test_accepts_valid(self):
        inst = validate_instance(**self.valid_args())
        assert inst.m == 3 and inst.n == 2
        assert inst.c.tolist() == [3.0, 2.0, 0.0]
        assert inst.b1 == -1.0 and inst.b2 == 1.0

    def test_weights_not_strictly_decreasing(self):
        args = self.valid_args()
        args["w"] = [1.0, 1.0]
        with pytest.raises(ValidationError) as err:
            validate_instance(**args)
        assert ERR_WEIGHTS_ORDER in err.value.errors

    def test_nonpositive_weight(self):
        args = self.valid_args()
        args["w"] = [1.0, 0.0]
        with pytest.raises(ValidationError) as err:
            validate_instance(**args)
        assert ERR_WEIGHTS_SIGN in err.value.errors

    def test_bounds_reversed(self):
        args = self.valid_args()
        args["b1"], args["b2"] = 2.0, 1.0
        with pytest.raises(ValidationError) as err:
            validate_instance(**args)
        assert ERR_BOUNDS in err.value.errors

    def test_n_too_large(self):
        args = self.valid_args()
        args["n"], args["w"] = 4, [4.0, 3.0, 2.0, 1.0]
        with pytest.raises(ValidationError) as err:
            validate_instance(**args)
        assert ERR_N_TOO_LARGE in err.value.errors

    def test_non_finite_scores(self):
        args = self.valid_args()
        args["c"] = [3.0, np.nan, 0.0]
        with pytest.raises(ValidationError) as err:
            validate_instance(**args)
        assert ERR_NON_FINITE in err.value.errors

    @pytest.mark.parametrize("field, huge, inf", [
        ("c", [3, -10 ** 400, 0], [3, -1e400, 0]),
        ("a", [10 ** 400, -1, 0], [1e400, -1, 0]),
        ("w", [10 ** 400, 1], [1e400, 1]),
        ("b1", -10 ** 400, -1e400),
        ("b2", 10 ** 400, 1e400),
    ], ids=["c", "a", "w", "b1", "b2"])
    def test_integer_past_the_float_range_is_non_finite(self, field, huge, inf):
        # Reported exactly as the infinity JSON reads 1e400 as.
        args = self.valid_args()
        args[field] = huge
        with pytest.raises(ValidationError) as err:
            validate_instance(**args)
        args[field] = inf
        with pytest.raises(ValidationError) as err_inf:
            validate_instance(**args)
        assert err.value.errors == err_inf.value.errors
        assert ERR_NON_FINITE in err.value.errors
        assert err.value.messages == err_inf.value.messages

    @pytest.mark.parametrize("n", [10 ** 13, 10 ** 400], ids=["1e13", "1e400"])
    def test_default_weights_wait_for_a_valid_n(self, n):
        with pytest.raises(ValidationError) as err:
            validate_instance(1, n, [1.0], [1.0], None, -1, 1)
        assert err.value.errors == [ERR_N_TOO_LARGE]

    @pytest.mark.parametrize("field, value", [
        ("c", ["3", "2", "0"]),
        ("c", [3.0, None, 0.0]),
        ("c", np.array(["3", "2", "0"])),
        ("a", [True, False, False]),
        ("a", np.array([True, False, False])),
        ("a", [10 ** 400, True, 0]),
        ("w", ["2", "1"]),
        ("b1", "-1"),
        ("b1", None),
        ("b2", True),
        ("b2", [0.5]),
        ("b2", 0.5j),
    ], ids=["c-str", "c-none", "c-str-array", "a-bool", "a-bool-array",
            "a-bool-past-float-range", "w-str", "b1-str", "b1-none", "b2-bool",
            "b2-list", "b2-complex"])
    def test_non_numbers_are_refused(self, field, value):
        # One DimensionMismatch naming the bad field alone, whatever the
        # value would convert to.
        args = self.valid_args()
        args[field] = value
        with pytest.raises(ValidationError) as err:
            validate_instance(**args)
        assert err.value.errors == [ERR_DIMENSION]
        assert err.value.messages[0].startswith(f"{field} ")

    def test_dimension_mismatch(self):
        args = self.valid_args()
        args["a"] = [1.0, -1.0]
        with pytest.raises(ValidationError) as err:
            validate_instance(**args)
        assert ERR_DIMENSION in err.value.errors

    def test_two_dimensional_scores(self):
        args = self.valid_args()
        args["c"] = [[3.0, 2.0, 0.0]]
        with pytest.raises(ValidationError) as err:
            validate_instance(**args)
        assert err.value.errors == [ERR_DIMENSION]
        assert err.value.messages == ["c must be one-dimensional"]

    @pytest.mark.parametrize("field", ["m", "n"])
    def test_sizes_below_one(self, field):
        args = self.valid_args()
        args[field] = 0
        with pytest.raises(ValidationError) as err:
            validate_instance(**args)
        assert err.value.errors == [ERR_DIMENSION]
        assert err.value.messages == [f"{field} must be >= 1"]

    def test_collects_every_violation(self):
        args = self.valid_args()
        args["w"] = [1.0, 1.0]
        args["b1"], args["b2"] = 5.0, -5.0
        args["c"] = [np.inf, 0.0, 0.0]
        with pytest.raises(ValidationError) as err:
            validate_instance(**args)
        assert {ERR_WEIGHTS_ORDER, ERR_BOUNDS, ERR_NON_FINITE} <= set(err.value.errors)

    def test_none_weights_fill_defaults(self):
        args = self.valid_args()
        args["w"] = None
        inst = validate_instance(**args)
        np.testing.assert_array_equal(inst.w, default_weights(2))

    def test_rejects_non_integer_sizes(self):
        args = self.valid_args()
        args["m"] = 3.0
        with pytest.raises(ValidationError) as err:
            validate_instance(**args)
        assert ERR_DIMENSION in err.value.errors

    def test_arrays_are_read_only(self):
        inst = validate_instance(**self.valid_args())
        with pytest.raises(ValueError):
            inst.c[0] = 99.0
        with pytest.raises(ValueError):
            inst.w[0] = 99.0
        args = self.valid_args()
        args["w"] = None
        assert not validate_instance(**args).w.flags.writeable

    def test_input_arrays_not_aliased(self):
        c = np.array([3.0, 2.0, 0.0])
        inst = validate_instance(3, 2, c, [1.0, -1.0, 0.0], [2.0, 1.0], -1.0, 1.0)
        c[0] = -50.0
        assert inst.c[0] == 3.0


class TestAssignmentsAndMixtures:
    def test_assignment_rejects_repeats(self):
        with pytest.raises(ValueError):
            ExtremeAssignment((1, 1))

    def test_assignment_values(self):
        x = ExtremeAssignment((0, 1))
        c = np.array([3.0, 2.0, 0.0])
        a = np.array([1.0, -1.0, 0.0])
        w = np.array([2.0, 1.0])
        assert x.objective(c, w) == 8.0
        assert x.diversity(a, w) == 1.0

    def test_mixture_support_by_rho(self):
        x1 = ExtremeAssignment((0,))
        x2 = ExtremeAssignment((1,))
        mk = lambda rho: PrimalMixture(x1=x1, x2=x2, rho=rho,
                                       objective=0.0, diversity=0.0)
        assert mk(0.5).support() == {0, 1}
        assert mk(1.0).support() == {0}
        assert mk(0.0).support() == {1}


class TestSerialization:
    def test_round_trip_value_identical(self, tmp_path):
        inst = validate_instance(3, 2, [3.0, 2.0, 0.0], [1.0, -1.0, 0.0],
                                 [2.0, 1.0], -1.0, 1.0)
        path = tmp_path / "inst.json"
        save_instance(inst, str(path))
        back = load_instance(str(path))
        assert instance_to_dict(back) == instance_to_dict(inst)

    def test_json_matches_per_element_conversion(self):
        inst = validate_instance(3, 2, [0.1, 2.0, -1e-300], [1.0, -1.0, 0.0],
                                 None, -1.0, 1.0)
        doc = instance_to_dict(inst)
        assert json.dumps(doc) == json.dumps(
            dict(doc, c=[float(v) for v in inst.c], a=[float(v) for v in inst.a],
                 w=[float(v) for v in inst.w]))
        x = ExtremeAssignment((2, 0))
        mix = PrimalMixture(x1=x, x2=x, rho=1.0, objective=3.0, diversity=1.0)
        sol = Solution(status="UnconstrainedOptimal", lambda_star=0.0,
                       mixture=mix, stats=SolveStats())
        assert json.dumps(solution_to_dict(sol)).startswith(
            '{"status": "UnconstrainedOptimal", "lambda_star": 0.0, '
            '"objective": 3.0, "diversity": 1.0, "rho": 1.0, '
            '"slots1": [2, 0], "slots2": [2, 0]')

    def test_null_weights_parse_as_defaults(self):
        inst = parse_instance({"m": 2, "n": 2, "c": [1.0, 0.0],
                               "a": [0.0, 1.0], "w": None,
                               "b1": -1.0, "b2": 1.0})
        np.testing.assert_array_equal(inst.w, default_weights(2))

    def test_missing_field_reported(self):
        with pytest.raises(ValidationError) as err:
            parse_instance({"m": 2, "n": 1, "c": [1.0, 0.0], "b1": 0.0, "b2": 1.0})
        assert ERR_DIMENSION in err.value.errors
        assert any("'a'" in msg for msg in err.value.messages)

    def test_document_must_be_an_object(self):
        with pytest.raises(ValidationError) as err:
            parse_instance([2, 1, [1.0, 0.0], [0.0, 1.0], None, -1.0, 1.0])
        assert err.value.errors == [ERR_DIMENSION]
        assert err.value.messages == ["instance document must be a JSON object"]

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_instance(str(path))

    def test_solution_dict_shape(self):
        x = ExtremeAssignment((0,))
        mix = PrimalMixture(x1=x, x2=x, rho=1.0, objective=3.0, diversity=1.0)
        sol = Solution(status="UnconstrainedOptimal", lambda_star=0.0,
                       mixture=mix, stats=SolveStats())
        doc = solution_to_dict(sol)
        assert set(doc) == {"status", "lambda_star", "objective", "diversity",
                            "rho", "slots1", "slots2", "stats"}
        assert set(doc["stats"]) == {"iterations", "screen_events", "dropped",
                                     "wall_time_us", "exact", "duality_gap"}
        json.dumps(doc)  # must be JSON-serializable as-is
