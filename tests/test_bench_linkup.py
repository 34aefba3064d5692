"""tools/bench_linkup.py with the Loopback workload stubbed out: the
label its record is stored under."""

import json
import os
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


class StubLoopback:
    """Two operations a round, one of each kind, timed 1 ms and 2 ms
    plus the seed in microseconds."""

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        pass

    def teardown(self):
        pass

    def before_round(self):
        pass

    def kind(self, i):
        return ("relink_direct", "echo_direct")[i]

    def run_round(self, begin, end):
        for i in range(2):
            begin(i)
            end(i, (i + 1) * 1_000_000 + self.seed * 1_000)
        return [None, None]

    def check_op(self, i, result, first):
        pass


@pytest.fixture
def bench_linkup(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    import bench_linkup
    monkeypatch.setattr(bench_linkup, "Loopback", StubLoopback)
    yield bench_linkup
    sys.modules.pop("bench_linkup", None)


def test_two_labels_share_one_file(bench_linkup, tmp_path):
    out = tmp_path / "BENCH_test.json"
    for label, seed in (("parent", 1), ("change", 2)):
        assert bench_linkup.main(["--seed", str(seed), "--rounds", "3",
                                  "--label", label, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc["linkup"]) == ["change", "parent"]
    assert doc["linkup"]["parent"]["kinds"]["relink_direct"]["median"] == 1.001
    assert doc["linkup"]["change"]["kinds"]["echo_direct"]["median"] == 2.002
    assert doc["linkup"]["change"]["kinds"]["echo_direct"]["n"] == 3
    assert len(doc["commands"]) == 2


def test_the_default_label_names_seed_and_rounds(bench_linkup, tmp_path):
    out = tmp_path / "BENCH_test.json"
    assert bench_linkup.main(["--seed", "4", "--rounds", "2", "--out", str(out)]) == 0
    assert list(json.loads(out.read_text())["linkup"]) == ["seed 4, rounds 2"]
