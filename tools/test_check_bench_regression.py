#!/usr/bin/env python3
"""Tests for check_bench_regression.py's gate table, run by ctest (label
"tools"): python3 tools/test_check_bench_regression.py"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))
import check_bench_regression as gate  # noqa: E402


def baseline(suite: str) -> dict:
    path = TOOLS.parent / "bench" / "baselines" / f"BENCH_{suite}.baseline.json"
    return json.loads(path.read_text())


class GateTable(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = Path(self._tmp.name)

    def tearDown(self) -> None:
        self._tmp.cleanup()

    def write(self, name: str, data: dict) -> Path:
        (self.tmp / name).write_text(json.dumps(data))
        return self.tmp / name

    def gate(self, *args: str) -> int:
        argv, sys.argv = sys.argv, ["check_bench_regression.py", *args]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return gate.main()
        except SystemExit as exit_:
            return 1 if exit_.code else 0
        finally:
            sys.argv = argv

    def verdict(self, suite: str, run: dict, base: dict | None = None) -> int:
        """Exit code against `base`, or against no baseline (rules only)."""
        base_path = (self.write("base.json", base) if base is not None
                     else self.tmp / "none.json")
        return self.gate("--suite", suite, str(self.write("run.json", run)),
                         "--baseline", str(base_path))

    def test_checked_in_baselines_pass_against_themselves(self) -> None:
        for suite in gate.RULES:
            with self.subTest(suite=suite):
                self.assertEqual(self.verdict(suite, baseline(suite),
                                              baseline(suite)), 0)

    def test_every_rule_fails_across_its_bound_or_when_missing(self) -> None:
        for suite, rules in gate.RULES.items():
            base = baseline(suite)
            self.assertEqual(self.verdict(suite, base), 0)
            for bench, field, op, bound, *_ in rules:
                limit = bound
                if isinstance(bound, tuple):
                    limit = base["benches"][bound[0]][bound[1]] + bound[2]
                step = {">=": -1e-6, "<=": 1e-6, ">": 0.0}[op]
                names = sorted(base["benches"]) if bench == "*" else [bench]
                for name in names:
                    crossed, no_field, no_bench = (copy.deepcopy(base)
                                                   for _ in range(3))
                    crossed["benches"][name][field] = limit + step
                    del no_field["benches"][name][field]
                    del no_bench["benches"][name]
                    if bench == "*":
                        no_bench["benches"].clear()
                    for case, run in (("crossed", crossed),
                                      ("field missing", no_field),
                                      ("bench missing", no_bench)):
                        with self.subTest(rule=f"{name}.{field} {op}",
                                          case=case):
                            self.assertEqual(self.verdict(suite, run), 1)

    def test_a_row_with_a_needed_field_applies_only_when_it_is_there(
            self) -> None:
        # The AVX-512 screen's speedup is gated only where that body ran;
        # the scalar row still needs the bench.
        base = baseline("kernel")
        entry = base["benches"]["screen_batch"]
        self.assertIn("avx512_ns_per_user", entry)
        avx2_host = copy.deepcopy(base)
        for field in ("avx512_ns_per_user", "avx512_speedup"):
            del avx2_host["benches"]["screen_batch"][field]
        self.assertEqual(self.verdict("kernel", avx2_host), 0)
        slow = copy.deepcopy(avx2_host)
        slow["benches"]["screen_batch"]["avx512_speedup"] = 1.0
        self.assertEqual(self.verdict("kernel", slow), 0)
        slow["benches"]["screen_batch"]["avx512_ns_per_user"] = 1.0
        self.assertEqual(self.verdict("kernel", slow), 1)

    def test_the_draw_floor_skips_a_host_without_avx512(self) -> None:
        # An AVX2-only host's best draw is its AVX2 one: twenty runs on an
        # AVX-512 host read scalar over AVX2 at 1.30-1.86 (the medians,
        # 8.33 and 5.95 ns per user-period, give 1.40), below the AVX-512
        # floor, which must not apply there. Without AVX2 no vector mode
        # ran and the row reports no best_speedup at all.
        base = baseline("kernel")
        avx2_host = copy.deepcopy(base)
        draw = avx2_host["benches"]["draw_period"]
        del draw["avx512_ns_per_user"]
        draw.update(scalar_ns_per_user=8.33, avx2_ns_per_user=5.95,
                    best_speedup=8.33 / 5.95)
        self.assertEqual(self.verdict("kernel", avx2_host), 0)
        scalar_host = copy.deepcopy(avx2_host)
        for field in ("avx2_ns_per_user", "best_speedup"):
            del scalar_host["benches"]["draw_period"][field]
        self.assertEqual(self.verdict("kernel", scalar_host), 0)
        draw["avx512_ns_per_user"] = 5.95
        self.assertEqual(self.verdict("kernel", avx2_host), 1)

    def test_wall_and_throughput_tolerances(self) -> None:
        for suite in gate.RULES:
            base = baseline(suite)
            for name, entry in base["benches"].items():
                for field, value in entry.items():
                    if field.endswith("_seconds") and value > 0.0:
                        for factor, expected in ((1.16, 1), (1.14, 0)):
                            run = copy.deepcopy(base)
                            run["benches"][name][field] = value * factor
                            with self.subTest(field=f"{name}.{field}",
                                              factor=factor):
                                self.assertEqual(
                                    self.verdict(suite, run, base), expected)
                    if field == "sessions_per_second":
                        # Raise the baseline so the absolute sessions/s
                        # floor stays out of the verdict.
                        for drop, expected in ((0.16, 1), (0.14, 0)):
                            raised = copy.deepcopy(base)
                            raised["benches"][name][field] = value / (1 - drop)
                            with self.subTest(field=f"{name}.{field}",
                                              drop=drop):
                                self.assertEqual(
                                    self.verdict(suite, base, raised),
                                    expected)

    def test_update_refuses_when_a_rule_fails(self) -> None:
        for suite, rules in gate.RULES.items():
            if not rules:
                continue
            base = baseline(suite)
            failing = copy.deepcopy(base)
            for entry in failing["benches"].values():
                entry.pop(rules[0][1], None)
            target = self.tmp / f"{suite}.json"
            with self.subTest(suite=suite):
                self.assertEqual(self.gate(
                    "--suite", suite, str(self.write("run.json", failing)),
                    "--update", "--baseline", str(target)), 1)
                self.assertFalse(target.exists())
                self.assertEqual(self.gate(
                    "--suite", suite, str(self.write("run.json", base)),
                    "--update", "--baseline", str(target)), 0)
                self.assertEqual(json.loads(target.read_text()), base)

    def test_speedup_floors_split_this_tree_from_the_parent(self) -> None:
        # Each floor passes the slowest of ten runs of the tree that set it
        # and fails the fastest of ten at its parent. dynamic_solve: the
        # parent reduced outflows four rows at a time and stored and
        # reloaded the whole sensitivity row every period.
        # deferral_table_build: the parent took pow(reward, gamma) once per
        # class. fleet_sweep: the parent claimed indices under a mutex and
        # woke its parked workers every batch. screen_batch: its AVX2 body
        # is the parent's screen, so the side that must fail is the same
        # body in 256-bit AVX-512VL vectors (2.04 against 2.70 ns per
        # user, best of fifteen rounds). draw_period: a harness running the
        # row's loop on the parent's walk reads a higher ratio, its scalar
        # draw being slower too, so the side that must fail is this tree's
        # draw at AVX2 speed (scalar over AVX2 in the median of twenty
        # runs; the slowest of them read 1.87).
        cases = (("dynamic_solve", "speedup", 7.27, 5.67),
                 ("deferral_table_build", "speedup", 26.3, 14.0),
                 ("screen_batch", "avx512_speedup", 2.11, 1.32),
                 ("draw_period", "best_speedup", 1.87, 1.38),
                 ("fleet_sweep", "parallel_speedup", 1.42, 1.38))
        base = baseline("kernel")
        for bench, field, slowest, parent_fastest in cases:
            for value, expected in ((slowest, 0), (parent_fastest, 1)):
                run = copy.deepcopy(base)
                run["benches"][bench][field] = value
                with self.subTest(bench=bench, value=value):
                    self.assertEqual(self.verdict("kernel", run), expected)

    def test_fleet_overhead_tolerance(self) -> None:
        def log(name: str, wall: float) -> str:
            record = {"users": 100000, "threads": 4,
                      "fleet_wall_seconds": wall}
            (self.tmp / name).write_text(f"BENCH_JSON {json.dumps(record)}\n")
            return str(self.tmp / name)

        for overhead, expected in ((0.049, 0), (0.051, 1)):
            with self.subTest(overhead=overhead):
                self.assertEqual(self.gate("--fleet-overhead",
                                           log("on.log", 1.0 + overhead),
                                           log("off.log", 1.0)), expected)


if __name__ == "__main__":
    unittest.main()
