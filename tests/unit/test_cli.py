"""Unit tests for the CLI (fast subcommands only; chart1 is exercised by
the benchmarks)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main


class TestParsing:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


    @staticmethod
    def _run_cli(*arguments):
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        return subprocess.run(
            [sys.executable, "-m", "repro", *arguments],
            env={**os.environ, "PYTHONPATH": source_root},
            capture_output=True,
            text=True,
            timeout=60,
        )

    @pytest.mark.parametrize(
        "flags", [("--backend", "vector"), ("--aggregate",)], ids=["backend", "aggregate"]
    )
    def test_removed_matcher_flags_are_usage_errors(self, flags):
        """The kernel-backend and aggregation options are gone: asking for
        one is an argparse error, not a silently different matcher."""
        completed = self._run_cli(*flags, "demo")
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        assert completed.stderr.startswith("usage: repro")


class TestFastCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "alice" in out and "bob" in out
        assert "('NY', 'TOKYO')" in out

    def test_chart3_small(self, capsys):
        assert main(["chart3", "--subscriptions", "200", "400", "--events", "20"]) == 0
        out = capsys.readouterr().out
        assert "Chart 3" in out
        assert "avg_match_ms" in out
        assert "legend:" in out  # the ASCII chart rendered

    def test_chart2_small(self, capsys):
        assert main(["chart2", "--subscriptions", "150", "--events", "15"]) == 0
        out = capsys.readouterr().out
        assert "centralized" in out

    def test_bursty_small(self, capsys):
        assert (
            main(["bursty", "--mean-rate", "1500", "--burstiness", "1", "4"]) == 0
        )
        out = capsys.readouterr().out
        assert "burstiness" in out

    def test_model_small(self, capsys):
        assert main(["model", "--subscriptions", "100", "200", "--events", "30"]) == 0
        out = capsys.readouterr().out
        assert "model_steps" in out and "sublinearity_ratio" in out
