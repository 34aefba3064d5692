"""Command-line surface: headers, formatting, exit codes, determinism."""

import json

import pytest

from bdmesh.cli import main
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
