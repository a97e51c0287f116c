"""The BENCH_*.json files at the root of the repository.

Each one records `perfbench/run.py` result lines of a parent commit and of
the change measured against it. Every run listed must have checked its
results, failed no operation and reported the three end-to-end metrics.
"""

import json
import math
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")


def _check_result(result):
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    for name in END_TO_END:
        value = result["metrics"][name]["value"]
        assert isinstance(value, float) and math.isfinite(value) and value > 0.0


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")),
                         ids=lambda p: p.name)
def test_bench_file_holds_checked_parent_and_change_runs(path):
    bench = json.loads(path.read_text())
    workloads = bench["workloads"]
    assert workloads
    for name, runs in workloads.items():
        assert runs, name
        for run in runs:
            assert isinstance(run["seed"], int)
            assert run["first"] in ("parent", "change")
            _check_result(run["parent"])
            _check_result(run["change"])
