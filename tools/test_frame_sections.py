#!/usr/bin/env python3
"""Tests for the section-by-section frame diff frame_sections.py against the
checked-in checkpoint fixtures, run by ctest (label "tools"):
python3 tools/test_frame_sections.py"""
from __future__ import annotations

import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
TOOL = TOOLS / "frame_sections.py"
GOLDEN = TOOLS.parent / "tests" / "golden"
V1 = GOLDEN / "horizon_checkpoint_v1.bin"
V2 = GOLDEN / "horizon_checkpoint_v2.bin"
STORM = GOLDEN / "horizon_checkpoint_v2_storm.bin"


def compare(old: Path, new: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), str(old), str(new)],
                          capture_output=True, text=True, check=False)


def statuses(stdout: str) -> dict:
    """{tag: status} from the report's section rows."""
    rows = {}
    for line in stdout.splitlines():
        fields = line.split()
        if fields and fields[0].isdigit():
            status = line[line.rindex("  ") + 2:]
            rows[int(fields[0])] = status
    return rows


class FrameSections(unittest.TestCase):
    def test_fixture_against_itself_is_identical(self) -> None:
        result = compare(V2, V2)
        self.assertEqual(result.returncode, 0, result.stderr)
        rows = statuses(result.stdout)
        self.assertTrue(rows)
        self.assertEqual(set(rows.values()), {"identical"})

    def test_v1_against_v2(self) -> None:
        result = compare(V1, V2)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        rows = statuses(result.stdout)
        for tag in range(1, 11):
            self.assertEqual(rows[tag], "identical", tag)
        self.assertEqual(rows[11], "only in OLD")
        self.assertEqual(rows[12], "only in NEW")
        self.assertEqual(rows[13], "only in NEW")
        self.assertEqual(set(rows), set(range(1, 14)))

    def test_differing_section_exits_one(self) -> None:
        result = compare(V2, STORM)
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertEqual(statuses(result.stdout)[1], "differs")

    def test_crc_broken_copy_exits_nonzero(self) -> None:
        blob = bytearray(V2.read_bytes())
        blob[len(blob) // 2] ^= 0x40  # payload bit flip; the CRC is stale
        with tempfile.TemporaryDirectory() as tmp:
            broken = Path(tmp) / "broken.bin"
            broken.write_bytes(bytes(blob))
            result = compare(V2, broken)
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("CRC mismatch", result.stderr)


if __name__ == "__main__":
    unittest.main()
