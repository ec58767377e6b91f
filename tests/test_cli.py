"""Command-line surface: exit codes, JSON output, bench CSV shape."""
from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import divrank
from divrank import cli
from divrank.cli import (ALG_BISECTION, ALG_SCREENING, EXIT_INFEASIBLE,
                         EXIT_INVALID, EXIT_OK, REFERENCE_SCREENING_MS,
                         main, run_benchmark)


def write_instance(path, b1=-0.5, b2=0.5):
    doc = {"m": 3, "n": 1, "c": [3.0, 2.0, 0.0], "a": [1.0, -1.0, 0.0],
           "w": [1.0], "b1": b1, "b2": b2}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def write_far_kink(path):
    """Feasible, with lambda* = 2**50 past the doubling limit: the solve
    ends on its bracket, inexact."""
    path.write_text(json.dumps({"m": 2, "n": 1, "c": [1.0, 0.0],
                                "a": [1.0 + 2.0 ** -50, 1.0], "w": [1.0],
                                "b1": -5.0, "b2": 1.0}), encoding="utf-8")
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

    def test_integer_past_the_float_range_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"m": 2, "n": 1, "c": [1' + "0" * 400 + ', 0], '
                        '"a": [1, 0], "w": null, "b1": -1, "b2": 1}',
                        encoding="utf-8")
        assert main(["solve", "--input", str(path)]) == EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        doc = json.loads(err)
        assert doc["status"] == "Invalid" and doc["errors"] == ["NonFinite"]

    def test_non_numbers_exit_2(self, tmp_path, capsys):
        path = tmp_path / "strings.json"
        path.write_text('{"m": 3, "n": 1, "c": ["3", "2", "0"], '
                        '"a": [true, false, false], "b1": -1, "b2": "0.5"}',
                        encoding="utf-8")
        assert main(["solve", "--input", str(path)]) == EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == ""
        doc = json.loads(err)
        assert doc["errors"] == ["DimensionMismatch"] * 3
        assert [msg.split()[0] for msg in doc["messages"]] == ["c", "a", "b2"]

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
        # The solve ends on its bracket and returns a feasible answer.
        path = write_far_kink(tmp_path / "far.json")
        assert main(["solve", "--input", path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["objective"] == 0.0 and doc["diversity"] <= 1.0
        assert doc["stats"]["exact"] is False

    def test_inexact_solve_leaves_stderr_empty(self, tmp_path):
        # The JSON's "exact": false is the whole report of an inexact end.
        path = write_far_kink(tmp_path / "far.json")
        src = str(Path(divrank.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "divrank.cli", "solve", "--input", path],
            capture_output=True, text=True, env=env, timeout=60, check=False)
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["stats"]["exact"] is False
        assert proc.stderr == ""

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
        # At m = n = 1 the generator accepts no draw.
        ["gen", "--m", "1", "--n", "1"],
        ["verify", "--m", "1", "--n", "1"],
        ["bench", "--m-list", "1", "--n-list", "1", "--reps", "1"],
    ])
    def test_exits_2_with_one_line(self, argv, capsys):
        assert main(argv) == EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"divrank {argv[0]}: ") and err.count("\n") == 1

    def test_bench_leaves_no_csv_when_no_draw_is_accepted(self, tmp_path,
                                                          capsys):
        target = tmp_path / "out.csv"
        assert main(["bench", "--m-list", "1", "--n-list", "1", "--reps", "1",
                     "--csv", str(target)]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("divrank bench: ")
        assert not target.exists()


class TestUnwritableOutput:
    """An output path in a missing directory exits 2, as an unreadable
    --input does, not 1, the code of a verify mismatch."""

    @pytest.mark.parametrize("command", ["solve", "gen", "bench"])
    def test_exits_2(self, command, tmp_path, capsys):
        target = str(tmp_path / "missing" / "out")
        argv = {
            "solve": ["solve", "--input", write_instance(tmp_path / "inst.json"),
                      "--output", target],
            "gen": ["gen", "--m", "5", "--n", "2", "--output", target],
            "bench": ["bench", "--m-list", "5", "--n-list", "2", "--reps", "1",
                      "--csv", target],
        }[command]
        assert main(argv) == EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == ""
        if command == "solve":
            doc = json.loads(err)
            assert doc["status"] == "Invalid" and doc["errors"] == ["IO"]
            assert len(doc["messages"]) == 1
        else:
            assert err.startswith(f"divrank {command}: ")
            assert err.count("\n") == 1

    def test_bench_csv_opened_before_the_run(self, tmp_path, capsys,
                                             monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_benchmark",
                            lambda *args, **kwargs: calls.append(1) or [])
        target = str(tmp_path / "missing" / "out.csv")
        assert main(["bench", "--m-list", "5", "--n-list", "2", "--csv",
                     target]) == EXIT_INVALID
        assert calls == []
        assert capsys.readouterr().err.startswith("divrank bench: ")


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_m_list_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "--m-list", "abc"])
