#!/usr/bin/env python3
"""Tests for the TDPI dump reader tdp_triage.py against the checked-in
golden dump, run by ctest (label "tools"): python3 tools/test_tdp_triage.py

The C++ test HorizonGolden.StormIncidentDumpReencodesByteForByte asserts the
same values through decode_dump, so the two readers are held to one file."""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
TRIAGE = TOOLS / "tdp_triage.py"
DUMP = TOOLS.parent / "tests" / "golden" / "incident_dump_storm.tdpi"


def triage(path: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TRIAGE), str(path), *args],
                          capture_output=True, text=True, check=False)


class GoldenDump(unittest.TestCase):
    def test_json_matches_the_cpp_decoder(self) -> None:
        result = triage(DUMP, "--json")
        self.assertEqual(result.returncode, 0, result.stderr)
        dump = json.loads(result.stdout)
        self.assertEqual(dump["day"], 2)
        self.assertEqual(dump["period"], 5)
        self.assertFalse(dump["has_wall"])
        self.assertEqual(len(dump["state"]["alerts"]), 11)
        self.assertEqual(len(dump["state"]["incidents"]), 2)
        self.assertEqual(len(dump["state"]["recorder"]), 16)
        self.assertTrue(dump["config"]["enabled"])
        self.assertEqual(dump["config"]["recorder_capacity"], 16)

    def test_report_renders(self) -> None:
        result = triage(DUMP)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("incidents: 2 total", result.stdout)

    def test_crc_broken_copy_exits_nonzero(self) -> None:
        blob = bytearray(DUMP.read_bytes())
        blob[len(blob) // 2] ^= 0x40  # payload bit flip; the CRC is stale
        with tempfile.TemporaryDirectory() as tmp:
            broken = Path(tmp) / "broken.tdpi"
            broken.write_bytes(bytes(blob))
            result = triage(broken, "--json")
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("CRC mismatch", result.stderr)


if __name__ == "__main__":
    unittest.main()
