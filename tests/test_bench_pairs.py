"""tools/bench_pairs.py with perfbench/run.py stubbed out: what one
invocation stores and prints, down to a single pair."""

import json
import os
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    import bench_pairs
    calls = []

    def run_once(checkout, workload, seed, seconds, trace):
        calls.append((checkout, seed))
        ms = {"parent": 2.0, "change": 1.0}[checkout] + seed / 100
        return {"correct": True, "attempted": 100, "failed": 0,
                "metrics": {"op_ms_p50": {"value": ms, "unit": "ms"}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    bench_pairs.calls = calls
    yield bench_pairs
    sys.modules.pop("bench_pairs", None)


def invoke(bench_pairs, tmp_path, seeds: str) -> dict:
    out = tmp_path / "BENCH_test.json"
    assert bench_pairs.main(["--parent", "parent", "--change", "change",
                             "--workload", "loopback", "--seeds", seeds,
                             "--seconds", "1", "--out", str(out)]) == 0
    return json.loads(out.read_text())["workloads"]["loopback"][f"seeds {seeds}, trace 0"]


def test_one_seed_is_summarized_as_its_own_median_and_quartiles(bench_pairs, tmp_path, capsys):
    record = invoke(bench_pairs, tmp_path, "7")
    assert bench_pairs.calls == [("parent", 7), ("change", 7)]
    entry = record["metrics"]["op_ms_p50"]
    assert entry["parent"] == {"median": 2.07, "q1": 2.07, "q3": 2.07}
    assert entry["change"] == {"median": 1.07, "q1": 1.07, "q3": 1.07}
    assert (entry["change_wins"], entry["pairs"]) == (1, 1)
    assert [r["seed"] for r in record["runs"]["change"]] == [7]
    assert "wins 1/1" in capsys.readouterr().out


def test_pairs_alternate_which_side_runs_first(bench_pairs, tmp_path):
    record = invoke(bench_pairs, tmp_path, "1-3")
    assert bench_pairs.calls == [("parent", 1), ("change", 1), ("change", 2),
                                 ("parent", 2), ("parent", 3), ("change", 3)]
    entry = record["metrics"]["op_ms_p50"]
    assert entry["change"]["median"] == pytest.approx(1.02)
    assert (entry["change_wins"], entry["pairs"]) == (3, 3)
