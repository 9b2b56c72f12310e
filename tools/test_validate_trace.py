#!/usr/bin/env python3
"""Tests for validate_trace.py on the artifacts of a small observe_day run,
run by ctest (label "tools"):

    python3 tools/test_validate_trace.py <path to the observe_day binary>

The run's trace, journal and metrics files must validate, and the metrics
check must reject a document with a key besides "counters" and one with a
negative counter."""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
VALIDATE = TOOLS / "validate_trace.py"
OBSERVE_DAY: Path | None = None  # set from the command line


def validate(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(VALIDATE), *args],
                          capture_output=True, text=True, check=False)


class ObserveDayArtifacts(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.tmp = tempfile.TemporaryDirectory()
        cls.out = Path(cls.tmp.name)
        run = subprocess.run([str(OBSERVE_DAY), "2000", str(cls.out)],
                             capture_output=True, text=True, check=False)
        if run.returncode != 0:
            cls.tmp.cleanup()
            raise RuntimeError(f"observe_day failed:\n{run.stderr}")

    @classmethod
    def tearDownClass(cls) -> None:
        cls.tmp.cleanup()

    def test_trace_journal_and_metrics_validate(self) -> None:
        result = validate(
            "--trace", str(self.out / "observe_day_trace.json"),
            "--journal", str(self.out / "observe_day_journal.json"),
            "--metrics", str(self.out / "observe_day_metrics.json"))
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertEqual(result.stdout.count("validate_trace: OK"), 3)

    def test_metrics_hold_the_run_counters(self) -> None:
        doc = json.loads(
            (self.out / "observe_day_metrics.json").read_text("utf-8"))
        self.assertEqual(list(doc), ["counters"])
        # A warmup day and the measured day, 48 periods each.
        self.assertEqual(doc["counters"]["fleet.periods_total"], 96)


class MetricsSchema(unittest.TestCase):
    def rejects(self, doc: dict) -> str:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "metrics.json"
            path.write_text(json.dumps(doc), "utf-8")
            result = validate("--metrics", str(path))
        self.assertNotEqual(result.returncode, 0)
        return result.stderr

    def test_a_gauges_key_fails(self) -> None:
        stderr = self.rejects({"counters": {"a_total": 1}, "gauges": {}})
        self.assertIn("one top-level key 'counters'", stderr)

    def test_a_negative_counter_fails(self) -> None:
        stderr = self.rejects({"counters": {"a_total": -1}})
        self.assertIn("not a nonnegative integer", stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: test_validate_trace.py <observe_day binary> "
                 "[unittest args]")
    OBSERVE_DAY = Path(sys.argv.pop(1))
    unittest.main()
