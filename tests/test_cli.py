"""Command-line surface: exit codes, JSON output, bench CSV shape."""
from __future__ import annotations

import csv
import json

import pytest

from divrank.cli import (ALG_BISECTION, ALG_SCREENING, EXIT_INFEASIBLE,
                         EXIT_INVALID, EXIT_OK, REFERENCE_SCREENING_MS,
                         main, run_benchmark)


def write_instance(path, b1=-0.5, b2=0.5):
    doc = {"m": 3, "n": 1, "c": [3.0, 2.0, 0.0], "a": [1.0, -1.0, 0.0],
           "w": [1.0], "b1": b1, "b2": b2}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestSolveCommand:
    def test_solves_to_stdout(self, tmp_path, capsys):
        inp = write_instance(tmp_path / "inst.json")
        assert main(["solve", "--input", inp]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "UpperActive"
        assert doc["lambda_star"] == pytest.approx(0.5, abs=1e-12)
        assert doc["objective"] == pytest.approx(2.75, abs=1e-12)
        assert doc["rho"] == pytest.approx(0.25, abs=1e-12)

    def test_output_file(self, tmp_path):
        inp = write_instance(tmp_path / "inst.json")
        out = tmp_path / "sol.json"
        assert main(["solve", "--input", inp, "--output", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["objective"] == pytest.approx(2.75, abs=1e-12)

    def test_no_screening_same_answer(self, tmp_path, capsys):
        inp = write_instance(tmp_path / "inst.json")
        main(["solve", "--input", inp])
        with_screen = json.loads(capsys.readouterr().out)
        main(["solve", "--input", inp, "--no-screening"])
        without = json.loads(capsys.readouterr().out)
        for key in ("status", "lambda_star", "objective", "diversity", "rho"):
            assert with_screen[key] == without[key]

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        # Broken syntax, bytes that are not UTF-8, and nesting past the
        # decoder's recursion limit.
        for content in (b"{oops", b'{"m": "\xff\xfe"}',
                        b"[" * 3000 + b"]" * 3000):
            path = tmp_path / "broken.json"
            path.write_bytes(content)
            assert main(["solve", "--input", str(path)]) == EXIT_INVALID
            err = json.loads(capsys.readouterr().err)
            assert err["status"] == "Invalid" and err["errors"]
            assert err["messages"][0].startswith("not valid JSON: ")

    def test_invalid_instance_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"m": 3, "n": 2, "c": [1, 2, 3],
                                    "a": [0, 0, 0], "w": [1.0, 1.0],
                                    "b1": 0, "b2": 1}), encoding="utf-8")
        assert main(["solve", "--input", str(path)]) == EXIT_INVALID
        err = json.loads(capsys.readouterr().err)
        assert "NonDecreasingWeights" in err["errors"]

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["solve", "--input", str(tmp_path / "nope.json")]) == EXIT_INVALID
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--delta", "--big-delta"])
    def test_bracket_widths_are_not_options(self, tmp_path, capsys, flag):
        inp = write_instance(tmp_path / "inst.json")
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--input", inp, flag, "1e-3"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_infeasible_exits_3(self, tmp_path, capsys):
        inp = write_instance(tmp_path / "inst.json", b1=2.0, b2=3.0)
        assert main(["solve", "--input", inp]) == EXIT_INFEASIBLE
        err = json.loads(capsys.readouterr().err)
        assert err["status"] == "Infeasible"

    def test_infeasible_past_the_float_range_exits_3(self, tmp_path, capsys):
        # The unit of lambda is near 2**997, so lambda * b2 at the first
        # trial lies beyond the float range; only the signs decide.
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"m": 2, "n": 1, "c": [1e300, 0.0],
                                    "a": [1.0, 0.0], "w": None,
                                    "b1": -1e10, "b2": -1e10}), encoding="utf-8")
        assert main(["solve", "--input", str(path)]) == EXIT_INFEASIBLE
        err = json.loads(capsys.readouterr().err)
        assert err["status"] == "Infeasible"

    def test_far_kink_is_solved(self, tmp_path, capsys):
        # Feasible, with lambda* = 2**50 past the doubling limit: the solve
        # ends on its bracket and returns a feasible answer.
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"m": 2, "n": 1, "c": [1.0, 0.0],
                                    "a": [1.0 + 2.0 ** -50, 1.0], "w": [1.0],
                                    "b1": -5.0, "b2": 1.0}), encoding="utf-8")
        assert main(["solve", "--input", str(path)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["objective"] == 0.0 and doc["diversity"] <= 1.0
        assert doc["stats"]["exact"] is False

    def test_lambda_star_past_the_float_range_is_solved(self, tmp_path, capsys):
        # lambda* = 1e310 overflows: the search ends inexact at 2**1023.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"m": 2, "n": 1, "c": [1e10, 0.0],
                                    "a": [1e-300, 0.0], "w": None,
                                    "b1": -1.0, "b2": 5e-301}), encoding="utf-8")
        assert main(["solve", "--input", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert '"exact": false' in out
        doc = json.loads(out)
        assert doc["objective"] == 5e9 and doc["diversity"] == 5e-301


class TestGenCommand:
    def test_gen_then_solve(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        rc = main(["gen", "--m", "40", "--n", "5", "--seed", "12",
                   "--output", str(out)])
        assert rc == EXIT_OK
        assert main(["solve", "--input", str(out)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] in ("UpperActive", "LowerActive")

    def test_gen_deterministic(self, tmp_path):
        one = tmp_path / "a.json"
        two = tmp_path / "b.json"
        main(["gen", "--m", "40", "--n", "5", "--seed", "12", "--output", str(one)])
        main(["gen", "--m", "40", "--n", "5", "--seed", "12", "--output", str(two)])
        assert one.read_text(encoding="utf-8") == two.read_text(encoding="utf-8")


class TestVerifyCommand:
    def test_tiny_four_way_agreement(self, capsys):
        assert main(["verify", "--count", "8", "--m", "7", "--n", "2",
                     "--seed", "5"]) == EXIT_OK
        assert "match" in capsys.readouterr().out

    def test_medium_oracle_agreement(self, capsys):
        assert main(["verify", "--count", "5", "--m", "60", "--n", "6",
                     "--seed", "5"]) == EXIT_OK
        capsys.readouterr()

    def test_zero_count_vacuous_pass(self, capsys):
        assert main(["verify", "--count", "0"]) == EXIT_OK
        capsys.readouterr()


class TestBenchCommand:
    def test_csv_shape_and_determinism(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--m-list", "30,60", "--n-list", "3",
                   "--reps", "3", "--seed", "2", "--csv", str(out)])
        assert rc == EXIT_OK
        capsys.readouterr()
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["m", "n", "algorithm", "mean_ms", "std_ms", "reps",
                           "median_ms"]
        body = rows[1:]
        assert len(body) == 4  # two sizes x two algorithms
        assert [r[:3] for r in body] == [
            ["30", "3", ALG_BISECTION], ["30", "3", ALG_SCREENING],
            ["60", "3", ALG_BISECTION], ["60", "3", ALG_SCREENING]]
        assert all(r[5] == "3" for r in body)
        assert all(float(r[6]) > 0.0 for r in body)

    def test_reference_timing_printed_for_known_sizes(self, capsys):
        assert (100, 10) in REFERENCE_SCREENING_MS
        main(["bench", "--m-list", "100", "--n-list", "10", "--reps", "2"])
        out = capsys.readouterr().out
        assert "reference" in out and "for comparison" in out

    def test_run_benchmark_rows(self):
        rows = run_benchmark([30], [3], reps=4, seed=1)
        assert [r.algorithm for r in rows] == [ALG_BISECTION, ALG_SCREENING]
        for row in rows:
            assert len(row.times_ms) == 4
            assert row.median_ms > 0.0 and row.mean_ms > 0.0


class TestInvalidGeneratorArguments:
    """Arguments the generator refuses exit 2 with one line on stderr,
    not 1, the code of a verify mismatch."""

    @pytest.mark.parametrize("argv", [
        ["gen", "--m", "2", "--n", "3"],
        ["gen", "--m", "5", "--n", "2", "--alpha", "1.5"],
        ["gen", "--m", "5", "--n", "2", "--seed", "-1"],
        ["verify", "--m", "2", "--n", "3"],
        ["verify", "--count", "-3"],
        ["verify", "--count", "1", "--seed", "-1"],
        ["bench", "--m-list", "5", "--n-list", "10"],
        ["bench", "--m-list", "30", "--n-list", "3", "--alpha", "0"],
        ["bench", "--m-list", "30", "--n-list", "3", "--reps", "0"],
    ])
    def test_exits_2_with_one_line(self, argv, capsys):
        assert main(argv) == EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"divrank {argv[0]}: ") and err.count("\n") == 1


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_m_list_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "--m-list", "abc"])
