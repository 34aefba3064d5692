"""Command-line surface: headers, formatting, exit codes, determinism."""

import hashlib
import json
import logging
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from bdmesh import realbackend
from bdmesh.cli import build_parser, main
from bdmesh.scenario import bundled_scenario_path

TABLE_DEFAULT = """\
seconds,probes,probability,failure
5,500,0.8641018,0.1358982
10,1000,0.9818191,0.0181809
15,1500,0.9976061,0.0023939
20,2000,0.9996899,0.0003101
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv):
    """(exit code, stdout, stderr) of `python -m bdmesh.cli argv` in a new
    interpreter, with BDMESH_LOG unset."""
    env = {k: v for k, v in os.environ.items() if k != "BDMESH_LOG"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-m", "bdmesh.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


class TestAnalyzeTable:
    def test_default_table_is_bit_exact(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "table")
        assert code == 0
        assert out == TABLE_DEFAULT

    def test_empty_durations_header_only(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "table", "--durations", "")
        assert code == 0
        assert out == "seconds,probes,probability,failure\n"

    def test_two_seconds_reaches_half(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "table", "--durations", "2")
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[1] == "200"
        assert float(row[2]) >= 0.5

    def test_bad_durations_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "table", "--durations", "5,x")
        assert code == 2
        assert "durations" in err

    @pytest.mark.parametrize("argv", [("--durations", "inf"), ("--durations", "5,nan"),
                                      ("--rate", "1e308", "--durations", "10")])
    def test_non_finite_budget_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "analyze", "table", *argv)
        assert code == 2
        assert out == "" and err.startswith("error:") and "not finite" in err

    def test_bad_rate_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "table", "--rate", "0")
        assert code == 2
        assert "rate" in err


class TestAnalyzeCurve:
    def test_single_curve_passes_named_point(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "curve",
                               "--open-ports-list", "256",
                               "--max-probes", "1000", "--step", "1000")
        assert code == 0
        assert out.splitlines() == [
            "open_ports,probes,probability",
            "256,0,0.0000000",
            "256,1000,0.9818191",
        ]

    def test_step_beyond_max_gives_two_rows_per_curve(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "curve",
                               "--open-ports-list", "128,512",
                               "--max-probes", "700", "--step", "9999")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 2 * 2
        assert lines[1].startswith("128,0,") and lines[2].startswith("128,700,")

    def test_summary_lines_decrease_with_more_pinholes(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "curve",
                                 "--max-probes", "100", "--step", "100")
        assert code == 0
        needed = [int(line.rsplit(" ", 2)[1]) for line in err.splitlines()
                  if line.startswith("open_ports=")]
        assert needed == [2278, 1148, 576]
        assert needed == sorted(needed, reverse=True)

    def test_empty_list_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "curve",
                               "--open-ports-list", "")
        assert code == 2
        assert "open-ports" in err


# (argv, exit code, digest of stdout and stderr) of analyze calls: the
# defaults, the CLI calls of perfbench's analyze workload at seed 1,
# unsorted and repeated durations, B = 0, the pigeonhole, step 1 and
# invalid input.  Frozen from the output before the table and the curve
# shared one summing pass; the CSV must stay byte for byte the same.
ANALYZE_BYTES = [
    ("analyze table", 0, "3592e8c8ea54a5fc"),
    ("analyze table --open-ports 938 --rate 50 --durations 5,8,14,16,25,29", 0,
     "82a12e21fae48374"),
    ("analyze table --open-ports 780 --rate 100 --durations 4,9,15,17,25,27", 0,
     "1af289bedabba58e"),
    ("analyze table --open-ports 551 --rate 200 --durations 5,7,12,20,23,28", 0,
     "b7f48952594593be"),
    ("analyze table --open-ports 305 --rate 400 --durations 5,10,13,19,25,26", 0,
     "d57eef5b6ab9f18a"),
    ("analyze table --durations 20,5,5,0,10,2.5", 0, "72121c95b010e425"),
    ("analyze table -B 0 --durations 1,10,100", 0, "952a1b00e4b04b59"),
    ("analyze table -B 64000 --rate 1000 --durations 0,0.5,1,60", 0, "43a6305b12e22d7c"),
    ("analyze table -B 64511 --durations 0,1", 0, "cf8841857bfb7b2f"),
    ("analyze table --rate 400 --durations 30,1,15,160,60", 0, "dcbb8e4eb7af2b30"),
    ("analyze table -B 1 --rate 1000 --durations 64.511,64.51,1", 0, "610a60a40106eb83"),
    ("analyze table -B 16 --rate 0.5 --durations 3,2,1", 0, "f3370fef64875675"),
    ("analyze table -B 4096 --rate 1000 --durations 0.5,1,2,4,8", 0, "40c363a9e0d0f395"),
    ("analyze table -B 128 --rate 33.3 --durations 1.5,2.25,7,7,3", 0, "aa6d7e2863c6db19"),
    ("analyze table -B -1 --durations ''", 0, "4062741a7a9e41ac"),
    ("analyze table --durations 5,x", 2, "43c4229f23ec33e3"),
    ("analyze table --rate 0", 2, "e620c05e5e2e3d69"),
    ("analyze table --rate -1", 2, "c32165284dfc1761"),
    ("analyze table --durations 5,inf", 2, "2bfb3ebd69f28aa3"),
    ("analyze table --durations 5,-1", 2, "f9e288e8128add76"),
    ("analyze table -B 70000 --durations 5", 2, "fb35657504437036"),
    ("analyze table --rate 1000 --durations 1,70,inf", 2, "749db40a8216afd0"),
    ("analyze curve", 0, "2dd285dc1ae1edaf"),
    ("analyze curve --open-ports-list 81,409,530 --max-probes 1257 --step 25", 0,
     "246503b2ff8523b4"),
    ("analyze curve --open-ports-list 94,282,834 --max-probes 1994 --step 50", 0,
     "6e9d8be62f6bf85e"),
    ("analyze curve --open-ports-list 121,239,664 --max-probes 2179 --step 100", 0,
     "5086aa83f4dc409e"),
    ("analyze curve --open-ports-list 110,297,875 --max-probes 2904 --step 50", 0,
     "456c005c9476f2f5"),
    ("analyze curve --open-ports-list 256 --max-probes 500 --step 1", 0, "1aa0c56689563795"),
    ("analyze curve --open-ports-list 64000 --max-probes 1000 --step 100", 0, "f86e747a7fe9a12a"),
    ("analyze curve --open-ports-list 30 --max-probes 64511 --step 4096", 0, "86ce9a0bed9e3c26"),
    ("analyze curve --open-ports-list 512,128,512 --max-probes 3000 --step 9999", 0,
     "067ff37ccad3c6c4"),
    ("analyze curve --open-ports-list 4096,1 --max-probes 0 --step 5", 0, "f75098251751c9ed"),
    ("analyze curve --open-ports-list 64511 --max-probes 10 --step 3", 0, "02dae673bb549287"),
    ("analyze curve --open-ports-list 1,4096 --max-probes 20000 --step 333", 0,
     "cc4126cfd65b6fe3"),
    ("analyze curve --open-ports-list 0,1 --max-probes 100 --step 7", 2, "26ede68175fcfd9d"),
    ("analyze curve --open-ports-list ''", 2, "bd0779dd2f47303e"),
    ("analyze curve --step 0", 2, "a5c3d07bdbc4695b"),
    ("analyze curve --max-probes 70000", 2, "749db40a8216afd0"),
    ("analyze curve --open-ports-list 256,x", 2, "0d21c624dcd9e3aa"),
    ("analyze curve --open-ports-list 256,70000", 2, "fb35657504437036"),
]


class TestAnalyzeBytes:
    def test_pinned_output(self, capsys, monkeypatch):
        monkeypatch.delenv("BDMESH_LOG", raising=False)
        differ = []
        for line, code, digest in ANALYZE_BYTES:
            got, out, err = run_cli(capsys, *shlex.split(line))
            got_digest = hashlib.sha256(f"{out}\0{err}".encode()).hexdigest()[:16]
            if (got, got_digest) != (code, digest):
                differ.append((line, got, got_digest))
        assert differ == []


class TestParserReuse:
    """main builds its parser once per process.  Calls that fail leave
    nothing behind in it: each later call prints and returns what a
    fresh process does for the same argv."""

    def test_calls_after_failures_match_a_fresh_process(self, capsys, monkeypatch):
        monkeypatch.delenv("BDMESH_LOG", raising=False)
        assert build_parser() is build_parser()
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "sideways"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert (2, "", err) == run_fresh("analyze", "sideways")
        for argv in (["analyze", "table", "--rate", "-1"],
                     ["analyze", "curve", "--open-ports-list", ""]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "" and err.startswith("error: ")
        for argv in (["analyze", "table"],
                     ["analyze", "table", "-B", "64", "--rate", "250", "--durations", "9,0,3,9"],
                     ["analyze", "curve", "--open-ports-list", "64,4096",
                      "--max-probes", "900", "--step", "200"],
                     ["analyze", "curve"]):
            assert run_cli(capsys, *argv) == run_fresh(*argv), argv

    def test_bdmesh_log_is_read_on_every_call(self, capsys, monkeypatch):
        for raw, level in (("debug", logging.DEBUG), ("trace", 5), ("error", logging.ERROR),
                           ("shout", logging.WARNING)):
            monkeypatch.setenv("BDMESH_LOG", raw)
            code, _, err = run_cli(capsys, "analyze", "table", "--durations", "")
            assert code == 0 and ("BDMESH_LOG" in err) == (raw == "shout")
            assert logging.getLogger("bdmesh").level == level


class TestSimulateTraversal:
    def test_csv_shape_and_determinism(self, capsys):
        args = ("simulate", "traversal", "--trials", "120", "--seed", "5")
        code1, out1, err1 = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        header, row = out1.splitlines()
        assert header == "trials,successes,empirical_rate,analytic_rate,delta"
        fields = row.split(",")
        assert fields[0] == "120"
        assert fields[3] == "0.9818191"
        assert "3*sigma" in err1

    def test_worker_count_invisible_in_output(self, capsys):
        base = ("simulate", "traversal", "--trials", "60", "--seed", "3")
        _, out1, _ = run_cli(capsys, *base, "--workers", "1")
        _, out2, _ = run_cli(capsys, *base, "--workers", "2")
        assert out1 == out2

    def test_default_workers_invisible_in_output(self, capsys):
        # 200 trials spread over every CPU under the default.
        base = ("simulate", "traversal", "--trials", "200", "--seed", "3")
        _, out1, _ = run_cli(capsys, *base, "--workers", "1")
        _, out_default, _ = run_cli(capsys, *base)
        assert out_default == out1

    def test_single_trial_skips_sigma_check(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "traversal",
                                 "--trials", "1", "--seed", "1")
        assert code == 0
        assert out.splitlines()[1].split(",")[1] in {"0", "1"}
        assert "sigma check skipped" in err

    def test_rejects_bad_trials(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "traversal", "--trials", "0")
        assert code == 2
        assert "trials" in err


class TestScenarioCommand:
    def test_full_mesh_report(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "scenario",
                               str(bundled_scenario_path("fullmesh5.json")),
                               "--out", str(out_path))
        assert code == 0
        report = json.loads(out)
        assert len(report["links"]) == 10
        assert all(l["up"] and l["encrypted"] for l in report["links"])
        assert out_path.read_text() == out

    def test_byte_identical_reports(self, capsys):
        path = str(bundled_scenario_path("site2site.json"))
        code1, out1, _ = run_cli(capsys, "scenario", path)
        code2, out2, _ = run_cli(capsys, "scenario", path)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "scenario", "/nonexistent/x.json")
        assert code == 2
        assert "scenario" in err

    def test_invalid_scheme_value_exit_2(self, capsys, tmp_path):
        doc = {"hosts": [{"id": "a", "kind": "point"}],
               "scheme": {"G": 0, "P": 1, "theta": 9}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "scenario", str(path))
        assert code == 2
        assert "$.scheme" in err

    def test_unsupported_scheme_exit_4(self, capsys, tmp_path):
        doc = {"hosts": [{"id": "a", "kind": "point"},
                         {"id": "b", "kind": "point"}],
               "scheme": {"G": 1, "P": 1, "theta": 0}}
        path = tmp_path / "unsupported.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "scenario", str(path))
        assert code == 4
        assert "nearest supported" in err

    def test_unwritable_out_exit_2(self, capsys):
        path = str(bundled_scenario_path("fullmesh5.json"))
        code, out, err = run_cli(capsys, "scenario", path,
                                 "--out", "/nonexistent-dir/report.json")
        assert code == 2
        assert "cannot write" in err
        assert out  # the report still reached stdout


class TestServiceAddresses:
    """A bad coordinator address or port exits 2 with one error naming
    it, before the service starts (so before any socket opens)."""

    @pytest.mark.parametrize("argv, value", [
        (["coord", "--port", "99999"], "99999"),
        (["coord", "--observer-port", "0"], "0"),
        (["coord", "--observer-port2", "65536"], "65536"),
        (["node", "--coord", "nocolon", "--id", "a", "--once"], "nocolon"),
        (["node", "--coord", "127.0.0.1:99999", "--id", "a", "--once"], "127.0.0.1:99999"),
        (["node", "--coord", "127.0.0.1:http", "--id", "a", "--once"], "127.0.0.1:http"),
        (["node", "--coord", "127.0.0.1:", "--id", "a", "--once"], "127.0.0.1:"),
    ])
    def test_rejected_before_the_service_starts(self, capsys, monkeypatch, argv, value):
        started = []
        for name in ("run_coordinator_cli", "run_node_cli"):
            monkeypatch.setattr(realbackend, name, lambda **kw: started.append(kw) or 0)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, started) == (2, "", [])
        (line,) = err.splitlines()
        assert line.startswith("error: ") and value in line

    def test_valid_ports_reach_the_service(self, capsys, monkeypatch):
        started = []
        monkeypatch.setattr(realbackend, "run_coordinator_cli",
                            lambda **kw: started.append(kw) or 0)
        code, _, _ = run_cli(capsys, "coord", "--port", "1", "--observer-port", "65535")
        assert code == 0
        assert started == [{"host": "0.0.0.0", "port": 1, "observer_ports": (65535, 3479)}]


class TestTopLevel:
    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_log_level_warns_and_continues(self, capsys, monkeypatch):
        monkeypatch.setenv("BDMESH_LOG", "shout")
        code, out, err = run_cli(capsys, "analyze", "table", "--durations", "5")
        assert code == 0
        assert "BDMESH_LOG" in err
        assert out.splitlines()[1].startswith("5,500,")

    def test_trace_level_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("BDMESH_LOG", "trace")
        code, _, err = run_cli(capsys, "analyze", "table", "--durations", "")
        assert code == 0
        assert "BDMESH_LOG" not in err
