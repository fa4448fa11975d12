"""Tests for the benchmark CI gate, ``scripts/check_bench_result.py``."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_bench_result", REPO_ROOT / "scripts" / "check_bench_result.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()
NAMES = checker.metric_names()
END_TO_END = checker.metric_names("end_to_end")


def _line(names=NAMES, **changes) -> str:
    """A passing result line reporting ``names``, with ``changes`` applied."""
    result = {"correct": True, "attempted": 14, "failed": 0,
              "metrics": {name: {"value": 1.0, "unit": "s"} for name in names}}
    result.update(changes)
    return json.dumps(result)


class TestResultProblems:
    def test_declares_the_per_layer_metrics(self):
        assert len(NAMES) == len(set(NAMES)) > 0
        assert "autodiff.gd_steps_per_s" in NAMES

    def test_passing_line_after_other_output(self):
        output = "perfbench: warming up\n" + _line() + "\n\n"
        assert checker.result_problems(output, NAMES) == []

    def test_incorrect_run_fails(self):
        problems = checker.result_problems(
            _line(correct=False, failed=2), NAMES)
        assert problems == ["correct is False, not true",
                            "failed is 2, not 0"]

    @pytest.mark.parametrize("attempted", [0, None])
    def test_run_that_attempted_nothing_fails(self, attempted):
        [problem] = checker.result_problems(_line(attempted=attempted), NAMES)
        assert problem.startswith("attempted is")

    def test_missing_per_layer_metric_fails(self):
        result = json.loads(_line())
        del result["metrics"]["eval.batch_s"]
        result["metrics"]["search.samples"] = {"unit": "count"}
        problems = checker.result_problems(json.dumps(result), NAMES)
        assert problems == ["no value for per-layer metric eval.batch_s",
                            "no value for per-layer metric search.samples"]

    @pytest.mark.parametrize("output", ["", "Traceback (most recent call last)",
                                        "[1, 2]"])
    def test_run_without_a_result_object_fails(self, output):
        assert len(checker.result_problems(output, NAMES)) == 1

    def test_main_exit_status(self, tmp_path, capsys):
        good = tmp_path / "good.out"
        good.write_text(_line() + "\n")
        bad = tmp_path / "bad.out"
        bad.write_text(_line(correct=False) + "\n")
        assert checker.main([str(good)]) == 0
        assert checker.main([str(bad)]) == 1
        assert "correct is False" in capsys.readouterr().out


class TestEndToEndSet:
    def test_declares_the_end_to_end_metrics(self):
        assert len(END_TO_END) == len(set(END_TO_END)) > 0
        assert "peak_rss_mb" in END_TO_END
        assert not set(END_TO_END) & set(NAMES)

    def test_missing_end_to_end_metric_fails(self):
        result = json.loads(_line(END_TO_END))
        del result["metrics"]["peak_rss_mb"]
        result["metrics"]["search_s"]["value"] = None
        problems = checker.result_problems(
            json.dumps(result), END_TO_END, "end_to_end")
        assert problems == ["no value for end-to-end metric search_s",
                            "no value for end-to-end metric peak_rss_mb"]

    def test_main_selects_the_set(self, tmp_path, capsys):
        untraced = tmp_path / "untraced.out"
        untraced.write_text(_line(END_TO_END) + "\n")
        assert checker.main(["--set", "end_to_end", str(untraced)]) == 0
        assert f"{len(END_TO_END)}/{len(END_TO_END)} end-to-end metrics" \
            in capsys.readouterr().out
        # The default set stays per_layer, which an untraced run lacks, and
        # a traced run lacks the end-to-end set.
        assert checker.main([str(untraced)]) == 1
        assert "no value for per-layer metric" in capsys.readouterr().out
        traced = tmp_path / "traced.out"
        traced.write_text(_line() + "\n")
        assert checker.main(["--set", "end_to_end", str(traced)]) == 1
        assert "no value for end-to-end metric" in capsys.readouterr().out
