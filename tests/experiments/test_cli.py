"""The experiment-suite CLI (python -m repro.experiments)."""


import pytest

from repro.experiments.runner import RUNNERS, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("e1", "e12", "a1", "a4"):
            assert name in out.split()

    def test_runner_table_is_complete(self):
        assert set(RUNNERS) == {f"e{i}" for i in range(1, 19)} | {
            "a1",
            "a2",
            "a3",
            "a4",
        }

    def test_subset_run_passes(self, capsys):
        assert main(["e1", "e12", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "all claims hold" in out
        assert "E1" in out and "E12" in out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["e99"])

    def test_trace_flag_writes_chrome_trace_json(self, capsys, tmp_path):
        import json

        assert main(["e1", "--quick", "--trace", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        trace_file = tmp_path / "e1-seed0.trace.json"
        doc = json.loads(trace_file.read_text())
        assert doc["traceEvents"]
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])

    def test_trace_flag_is_inert_for_unaware_experiments(self, capsys, tmp_path):
        # e12 does not take the trace kwarg; the flag must not crash it.
        assert main(["e12", "--quick", "--trace", str(tmp_path)]) == 0
        assert "all claims hold" in capsys.readouterr().out
