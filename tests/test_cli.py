"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import _cache_status, main


class TestCli:
    def test_experiments_listing(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "table5" in out and "fig14" in out

    def test_plan(self, capsys):
        assert main(["plan", "elastic", "5", "512MB"]) == 0
        out = capsys.readouterr().out
        assert "E_r&B" in out and "32" in out

    def test_plan_unknown_chip(self):
        with pytest.raises(SystemExit):
            main(["plan", "acoustic", "4", "3GB"])  # argparse choices

    def test_run_table5(self, capsys):
        assert main(["run", "table5"]) == 0
        assert "matches_paper" in capsys.readouterr().out

    def test_run_unknown(self, capsys):
        assert main(["run", "fig99"]) == 2

    def test_run_with_order(self, capsys):
        assert main(["run", "table6", "--order", "2"]) == 0
        assert "Acoustic_4" in capsys.readouterr().out
        # table 5 does not depend on the order: --order is accepted and unused
        assert main(["run", "table5", "--order", "2"]) == 0
        assert "matches_paper" in capsys.readouterr().out

    def test_simulate(self, capsys):
        assert main(["simulate", "--level", "1", "--order", "2", "--steps", "5"]) == 0
        assert "energy" in capsys.readouterr().out

    def test_log_level_flag_accepted(self, capsys):
        assert main(["run", "table5", "--log-level", "warning"]) == 0
        assert "matches_paper" in capsys.readouterr().out


class TestPerfHistory:
    def test_history_table(self, tmp_path, capsys):
        import json

        doc = {"history": [{
            "timestamp": "2026-08-08T00:00:00",
            "executor_step_s": 0.003,
            "block_util": 0.8, "link_util": 0.1,
            "binding_resource": "block:1", "counters_overhead": 1.01,
        }]}
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps(doc))
        assert main(["perf", "history", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "block:1" in out and "1 entries" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["perf", "history", "--json",
                     str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_empty_history_renders_placeholder(self, tmp_path, capsys):
        import json

        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps({"history": []}))
        assert main(["perf", "history", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "(no entries yet)" in out
        assert "0 entries" in out and "repro bench" in out

    def test_missing_default_path_is_empty_table(self, tmp_path, capsys,
                                                 monkeypatch):
        # a fresh checkout has no BENCH_perf.json at all: the default
        # path (no --json) must render the placeholder, not exit 2.
        import repro.eval.bench as bench

        monkeypatch.setattr(bench, "default_bench_path",
                            lambda: tmp_path / "absent.json")
        assert main(["perf", "history"]) == 0
        assert "(no entries yet)" in capsys.readouterr().out

    def test_counters_flag_sets_env(self, monkeypatch, capsys):
        import os

        # seed a falsy value so monkeypatch restores the pre-test state
        # even though main() itself rewrites the variable
        monkeypatch.setenv("REPRO_COUNTERS", "0")
        assert main(["run", "table5", "--counters"]) == 0
        assert os.environ.get("REPRO_COUNTERS") == "1"


class TestCacheStatus:
    """Satellite: sub-second runs must not print ``elapsed 0.00s``."""

    def test_subsecond_uses_milliseconds(self):
        line = _cache_status(0.0042)
        assert line.startswith("[compile cache:")
        assert "4.2ms" in line
        assert "0.00s" not in line

    def test_seconds_keep_two_decimals(self):
        assert "elapsed 2.50s" in _cache_status(2.5)

    def test_microseconds(self):
        assert "250.0us" in _cache_status(2.5e-4)
