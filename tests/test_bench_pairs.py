"""tools/bench_pairs.py with its child processes stubbed out: what one
invocation runs, stores and prints, down to a single pair."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.fixture
def module(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    import bench_pairs
    yield bench_pairs
    sys.modules.pop("bench_pairs", None)


@pytest.fixture
def bench_pairs(module, monkeypatch):
    """bench_pairs with perfbench/run.py stubbed out."""
    calls, seconds = [], []

    def run_once(checkout, workload, seed, secs, trace):
        calls.append((checkout, seed))
        seconds.append(secs)
        ms = {"parent": 2.0, "change": 1.0}[checkout] + seed / 100
        return {"correct": True, "attempted": 100, "failed": 0,
                "metrics": {"op_ms_p50": {"value": ms, "unit": "ms"}}}

    monkeypatch.setattr(module, "run_once", run_once)
    module.calls, module.seconds = calls, seconds
    return module


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


def test_seconds_default_to_the_benchmarks_run_length(bench_pairs, tmp_path):
    out = tmp_path / "BENCH_test.json"
    assert bench_pairs.main(["--parent", "parent", "--change", "change", "--workload", "punch",
                             "--seeds", "1", "--out", str(out)]) == 0
    run_seconds = bench_pairs.spec()["run_seconds"]
    assert run_seconds == 20 and bench_pairs.seconds == [run_seconds] * 2
    assert json.loads(out.read_text())["workloads"]["punch"]["seeds 1, trace 0"]["seconds"] == 20


def test_the_default_label_names_the_seeds_and_the_setting(bench_pairs, tmp_path):
    out = tmp_path / "BENCH_test.json"
    assert bench_pairs.main(["--parent", "parent", "--change", "change", "--workload", "mesh",
                             "--seeds", "3,5", "--trace", "1", "--out", str(out)]) == 0
    record = json.loads(out.read_text())["workloads"]["mesh"]
    assert list(record) == ["seeds 3,5, trace 1"]
    assert "change_wins" not in record["seeds 3,5, trace 1"]["metrics"]["op_ms_p50"]


def test_two_labels_share_one_file(bench_pairs, tmp_path):
    out = tmp_path / "BENCH_test.json"
    for label, seeds in (("first", "1"), ("second", "2-3")):
        assert bench_pairs.main(["--parent", "parent", "--change", "change",
                                 "--workload", "loopback", "--seeds", seeds, "--seconds", "1",
                                 "--label", label, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc["workloads"]["loopback"]) == ["first", "second"]
    assert doc["workloads"]["loopback"]["first"]["metrics"]["op_ms_p50"]["parent"]["median"] == 2.01
    assert doc["workloads"]["loopback"]["second"]["metrics"]["op_ms_p50"]["pairs"] == 2
    assert len(doc["commands"]) == 2


def done(args, stdout):
    return subprocess.CompletedProcess(args, 0, stdout=stdout, stderr="")


def test_kind_metrics_are_read_from_each_runs_detail_file(module, monkeypatch, tmp_path):
    """A perfbench run leaves the median time of each kind of operation
    in <checkout>/perfbench/out; each kind becomes a lower-is-better
    metric beside the result line's."""
    argvs = []

    def run_in(checkout, args, stdin=""):
        argvs.append(args)
        workload, seed = args[2], int(args[4])
        out_dir = os.path.join(checkout, "perfbench", "out")
        os.makedirs(out_dir, exist_ok=True)
        base = 1.0 if checkout.endswith("change") else 2.0
        with open(os.path.join(out_dir, f"{workload}-seed{seed}-trace0.json"), "w") as fh:
            json.dump({"kind_ms_median": {"relink_direct": base + seed / 10,
                                          "echo_direct": 0.1}}, fh)
        line = {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"ops_per_s": {"value": 10 / base, "unit": "1/s"}}}
        return done(args, "warm-up noise\n" + json.dumps(line) + "\n")

    monkeypatch.setattr(module, "run_in", run_in)
    out = tmp_path / "BENCH_test.json"
    assert module.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                        "--workload", "loopback", "--seeds", "1-2", "--out", str(out)]) == 0
    assert argvs[0] == ["perfbench/run.py", "--workload", "loopback", "--seed", "1",
                        "--seconds", "20", "--trace", "0"]
    record = json.loads(out.read_text())["workloads"]["loopback"]["seeds 1-2, trace 0"]
    entry = record["metrics"]["kind.relink_direct"]
    assert (entry["unit"], entry["better"]) == ("ms", "lower")
    assert entry["parent"]["median"] == pytest.approx(2.15)
    assert entry["ratio"] == pytest.approx(1.15 / 2.15)
    assert (entry["change_wins"], entry["pairs"]) == (2, 2)
    assert record["metrics"]["kind.echo_direct"]["change_wins"] == 0  # ties count for neither
    assert record["metrics"]["ops_per_s"]["better"] == "higher"
    assert record["metrics"]["ops_per_s"]["change_wins"] == 2
    assert record["runs"]["change"][1]["metrics"]["kind.relink_direct"] == pytest.approx(1.2)


def stub_scenarios(module, monkeypatch, ok=True, change_differs=False):
    """Stubs mesh_scale's scenario processes: each prints a report digest
    of its document (another one on the change side with change_differs),
    and the change takes half the CPU."""
    calls = []

    def run_in(checkout, args, stdin=""):
        doc = json.loads(stdin)
        apdf = any(nat["mapping"] == "endpoint_independent"
                   and nat["filtering"] == "address_and_port_dependent" for nat in doc["nats"])
        hard = sum(nat["mapping"] == "endpoint_dependent" for nat in doc["nats"])
        calls.append((checkout, doc["experiment"]["seed"], len(doc["hosts"]), hard, apdf))
        report = stdin + ("x" if change_differs and checkout == "change" else "")
        return done(args, json.dumps({
            "cpu_s": {"parent": 1.0, "change": 0.5}[checkout], "peak_rss_mb": 40.0, "ok": ok,
            "report_sha256": hashlib.sha256(report.encode()).hexdigest()}))

    monkeypatch.setattr(module, "run_in", run_in)
    return calls


def mesh_scale(module, tmp_path, seeds="1-2"):
    out = tmp_path / "BENCH_test.json"
    code = module.main(["--parent", "parent", "--change", "change", "--workload", "mesh_scale",
                        "--seeds", seeds, "--sizes", "8", "--out", str(out)])
    return code, json.loads(out.read_text())["workloads"]["mesh_scale"][f"seeds {seeds}, sizes 8"]


def test_mesh_scale_alternates_sides_one_process_per_document(module, monkeypatch, tmp_path):
    calls = stub_scenarios(module, monkeypatch)
    code, record = mesh_scale(module, tmp_path)
    rows = [(8, 0, False), (8, 2, False), (8, 2, True)]
    assert calls == ([("parent", 1, *r) for r in rows] + [("change", 1, *r) for r in rows]
                     + [("change", 2, *r) for r in rows] + [("parent", 2, *r) for r in rows])
    assert code == 0 and record["same_output"] and record["sizes"] == "8"
    entry = record["metrics"]["n8_hard2_apdf.cpu_s"]
    assert (entry["unit"], entry["change"]["median"]) == ("s", 0.5)
    assert (entry["change_wins"], entry["pairs"]) == (2, 2)
    assert record["metrics"]["n8_hard0.peak_rss_mb"]["change_wins"] == 0
    assert sorted(record["runs"]["parent"][0]["digest"]) == ["n8_hard0", "n8_hard2",
                                                            "n8_hard2_apdf"]


@pytest.mark.parametrize("ok, change_differs", [(False, False), (True, True)],
                         ids=["report-not-ok", "digests-differ"])
def test_mesh_scale_fails_on_a_bad_or_differing_report(module, monkeypatch, tmp_path, capsys,
                                                        ok, change_differs):
    stub_scenarios(module, monkeypatch, ok=ok, change_differs=change_differs)
    code, record = mesh_scale(module, tmp_path, seeds="1")
    assert code == 1
    assert record["same_output"] is not change_differs
    assert record["runs"]["change"][0]["failed"] == (0 if ok else 3)
    assert ("outputs differ between the sides at seeds [1]" in capsys.readouterr().out) \
        is change_differs


def test_startup_times_both_commands_and_compares_their_output(module, monkeypatch, tmp_path):
    calls = []

    def run_in(checkout, args, stdin=""):
        calls.append((checkout, args[1]))
        return done(args, "seconds,probes\n" if args[1] == "bdmesh.cli" else "")

    monkeypatch.setattr(module, "run_in", run_in)
    out = tmp_path / "BENCH_test.json"
    assert module.main(["--parent", "parent", "--change", "change", "--workload", "startup",
                        "--seeds", "1-2", "--out", str(out)]) == 0
    assert [side for side, _ in calls] == ["parent"] * 2 + ["change"] * 4 + ["parent"] * 2
    record = json.loads(out.read_text())["workloads"]["startup"]["seeds 1-2"]
    assert sorted(record["metrics"]) == ["analyze_table", "import_scenario"]
    assert record["metrics"]["analyze_table"]["unit"] == "ms"
    assert record["same_output"] and "pythondontwritebytecode" in record
