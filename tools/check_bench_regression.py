#!/usr/bin/env python3
"""Gate the kernel perf suite: speedup floors + wall-time regression.

Reads the BENCH_kernel.json written by bench_kernel_suite and fails (exit 1)
when either

  * a machine-independent speedup ratio is below its floor (the fused static
    solve must stay >= 5x the reference objective, the incremental online
    re-solve >= 3x the full-recompute golden section),
  * a whole online observe costs more than MAX_OBSERVE_PER_SOLVE (2.0) times
    its golden-section solve alone (online_observe's observe_per_solve, a
    same-process ratio: the demand rescale and the model and kernel rebuild
    must stay cheap next to the solve), or
  * a wall-time field regressed more than --tolerance (default 15%) against
    the checked-in baseline, after normalizing both runs by their
    calibration_seconds (a fixed reference workload timed in-process, so the
    gate measures code changes rather than host-speed changes).

Usage:
  tools/check_bench_regression.py BENCH_kernel.json \
      [--baseline bench/baselines/BENCH_kernel.baseline.json] \
      [--tolerance 0.15] [--min-static-speedup 5] [--min-online-speedup 3] \
      [--update]

--update rewrites the baseline from the current run (after the speedup
floors pass) instead of comparing.

`--suite horizon` gates BENCH_horizon.json from bench_horizon instead: no
speedup floors (the long-horizon loop has no reference/fused pair), just
the normalized wall-time regression on every *_seconds field — the
multi-day loop, checkpoint encode/decode, and restore:

  tools/check_bench_regression.py --suite horizon BENCH_horizon.json \
      [--baseline bench/baselines/BENCH_horizon.baseline.json] [--update]

`--suite mechanism` gates BENCH_mechanism.json from bench_mechanism_arena:
the mechanism ordering on peak-to-average reduction must hold
(day_ahead_oracle >= tube_online >= flat_tip, up to --ordering-epsilon),
tube_online must clear a reduction floor (--min-tube-reduction, default
0.05), flat_tip must stay at zero reduction (it publishes no rewards), and
every *_seconds field is gated against the baseline like the other suites:

  tools/check_bench_regression.py --suite mechanism BENCH_mechanism.json \
      [--baseline bench/baselines/BENCH_mechanism.baseline.json] [--update]

`--suite storm` gates BENCH_storm.json from bench_storm_recovery: the
pricer must retain most of its peak-to-average reduction through a
20%-duty storm (--min-p2a-retention, default 0.85), streaming v2
checkpoint commits must stay cheap next to the bare period loop
(--max-stream-overhead, default 0.15 at CI scale; the <5% acceptance
claim is measured at 1M users), and every *_seconds field — including
recovery_wall_seconds, the crash-under-storm recovery ceiling — is gated
against the baseline like the other suites:

  tools/check_bench_regression.py --suite storm BENCH_storm.json \
      [--baseline bench/baselines/BENCH_storm.baseline.json] [--update]

`--suite fleet` gates BENCH_fleet.json from `bench_fleet_scale ... --out`:
every cell's sessions_per_second must clear the absolute floor
(--min-sessions-per-second, default 0 = disabled; the 1M-user acceptance
gate passes 1e7), the parallel 1M-user cell's fleet_wall_seconds must stay
under --max-fleet-wall-seconds when given (the sub-second acceptance
ceiling), normalized throughput must not drop more than --tolerance below
the baseline, and every *_seconds field is gated against the baseline like
the other suites:

  tools/check_bench_regression.py --suite fleet BENCH_fleet.json \
      [--baseline bench/baselines/BENCH_fleet.baseline.json] \
      [--min-sessions-per-second 1e7] [--max-fleet-wall-seconds 1.0] \
      [--update]

`--suite incident` gates BENCH_incident.json from bench_incident: the calm
run must open zero incidents (--max-false-incidents, default 0 — sensitive
alerts are fine, opened incidents are not), every injected storm onset must
be answered by the matching detector (onsets_detected == onsets_total) with
max_detection_lag_periods <= --max-detection-lag (default 4), the
engine-on-vs-off overhead must stay under --max-incident-overhead (default
0.15 at CI scale; the <=1% acceptance claim is measured at 1M users), and
every *_seconds field is gated against the baseline like the other suites:

  tools/check_bench_regression.py --suite incident BENCH_incident.json \
      [--baseline bench/baselines/BENCH_incident.baseline.json] [--update]

A second mode gates telemetry overhead instead: give it the stdout logs of
two bench_fleet_scale runs — one with observability on (TDP_OBS=1
TDP_TRACE=1), one with it off (TDP_OBS=0) — and it compares the
`fleet_wall_seconds` of matching (users, threads) cells, taking the min
across repetitions, and fails when telemetry costs more than
--overhead-tolerance (default 5%):

  tools/check_bench_regression.py \
      --fleet-overhead fleet_obs_on.log fleet_obs_off.log \
      [--overhead-tolerance 0.05]

Same-process comparison needs no calibration: both logs should come from
the same host, back to back.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

WALL_SUFFIX = "_seconds"
# Ceiling on online_observe.observe_per_solve in the kernel suite: a whole
# observation measured ~1.5-1.7x its solve once the model rebuild stopped
# recomputing fixed values, ~2.3-2.7x before.
MAX_OBSERVE_PER_SOLVE = 2.0


def load(path: Path) -> dict:
    with path.open() as handle:
        data = json.load(handle)
    if data.get("schema") != 1:
        sys.exit(f"{path}: unsupported schema {data.get('schema')!r}")
    return data


def check_speedup_floors(current: dict, floors: dict[str, tuple[str, float]]
                         ) -> list[str]:
    failures = []
    benches = current.get("benches", {})
    for bench, (field, floor) in floors.items():
        entry = benches.get(bench)
        if entry is None:
            failures.append(f"missing bench '{bench}' in current run")
            continue
        value = entry.get(field)
        if value is None:
            failures.append(f"{bench}: missing field '{field}'")
        elif value < floor:
            failures.append(
                f"{bench}: {field} = {value:.2f}x below the {floor:.0f}x floor")
        else:
            print(f"  OK  {bench}.{field} = {value:.1f}x (floor {floor:.0f}x)")
    return failures


def check_ratio_ceilings(current: dict,
                         ceilings: dict[str, tuple[str, float]]) -> list[str]:
    failures = []
    benches = current.get("benches", {})
    for bench, (field, ceiling) in ceilings.items():
        value = benches.get(bench, {}).get(field)
        if value is None:
            failures.append(f"{bench}: missing field '{field}'")
        elif value > ceiling:
            failures.append(
                f"{bench}: {field} = {value:.2f}x above the "
                f"{ceiling:.2f}x ceiling")
        else:
            print(f"  OK  {bench}.{field} = {value:.2f}x "
                  f"(ceiling {ceiling:.2f}x)")
    return failures


def check_wall_regressions(current: dict, baseline: dict,
                           tolerance: float) -> list[str]:
    failures = []
    cur_cal = current.get("calibration_seconds", 0.0)
    base_cal = baseline.get("calibration_seconds", 0.0)
    if cur_cal <= 0.0 or base_cal <= 0.0:
        return ["calibration_seconds missing or non-positive; "
                "cannot normalize wall times"]

    for bench, base_entry in baseline.get("benches", {}).items():
        cur_entry = current.get("benches", {}).get(bench)
        if cur_entry is None:
            failures.append(f"missing bench '{bench}' present in baseline")
            continue
        for field, base_value in base_entry.items():
            if not field.endswith(WALL_SUFFIX):
                continue
            cur_value = cur_entry.get(field)
            if cur_value is None:
                failures.append(f"{bench}: missing wall field '{field}'")
                continue
            if base_value <= 0.0:
                continue
            ratio = (cur_value / cur_cal) / (base_value / base_cal)
            label = f"{bench}.{field}"
            if ratio > 1.0 + tolerance:
                failures.append(
                    f"{label}: {ratio:.2f}x the baseline "
                    f"(normalized; tolerance {1.0 + tolerance:.2f}x)")
            else:
                print(f"  OK  {label}: {ratio:.2f}x baseline (normalized)")
    return failures


def check_mechanism_ordering(current: dict, epsilon: float,
                             min_tube_reduction: float) -> list[str]:
    """The arena's ranking invariant: perfect day-ahead information beats
    the online pricer, which beats doing nothing."""
    failures = []
    benches = current.get("benches", {})
    reductions = {}
    for arm in ("arena_flat_tip", "arena_tube_online",
                "arena_day_ahead_oracle"):
        entry = benches.get(arm)
        if entry is None or "p2a_reduction" not in entry:
            failures.append(f"missing bench '{arm}' with p2a_reduction")
            continue
        reductions[arm] = entry["p2a_reduction"]
    if failures:
        return failures

    flat = reductions["arena_flat_tip"]
    tube = reductions["arena_tube_online"]
    oracle = reductions["arena_day_ahead_oracle"]
    print(f"  p2a_reduction: oracle {oracle:.3f} / tube {tube:.3f} / "
          f"flat {flat:.3f}")
    if oracle + epsilon < tube:
        failures.append(
            f"ordering violated: oracle {oracle:.3f} < tube {tube:.3f}")
    if tube + epsilon < flat:
        failures.append(
            f"ordering violated: tube {tube:.3f} < flat {flat:.3f}")
    if tube < min_tube_reduction:
        failures.append(
            f"tube_online p2a_reduction {tube:.3f} below the "
            f"{min_tube_reduction:.2f} floor")
    if abs(flat) > epsilon:
        failures.append(
            f"flat_tip p2a_reduction {flat:.3f} is not zero "
            f"(it publishes no rewards)")
    return failures


def check_storm_resilience(current: dict, min_retention: float,
                           max_stream_overhead: float) -> list[str]:
    """The storm suite's machine-independent gates: P2A retention under
    the 20%-duty storm and the streaming-checkpoint overhead ceiling."""
    failures = []
    benches = current.get("benches", {})

    week = benches.get("storm_week")
    if week is None or "p2a_retention" not in week:
        failures.append("missing bench 'storm_week' with p2a_retention")
    else:
        retention = week["p2a_retention"]
        if retention < min_retention:
            failures.append(
                f"storm_week: p2a_retention {retention:.3f} below the "
                f"{min_retention:.2f} floor (storm-mode P2A drift too large)")
        else:
            print(f"  OK  storm_week.p2a_retention = {retention:.3f} "
                  f"(floor {min_retention:.2f})")

    overhead_entry = benches.get("stream_overhead")
    if (overhead_entry is None
            or "stream_overhead_fraction" not in overhead_entry):
        failures.append(
            "missing bench 'stream_overhead' with stream_overhead_fraction")
    else:
        overhead = overhead_entry["stream_overhead_fraction"]
        if overhead > max_stream_overhead:
            failures.append(
                f"stream_overhead: {overhead:.3f} above the "
                f"{max_stream_overhead:.2f} ceiling")
        else:
            print(f"  OK  stream_overhead.stream_overhead_fraction = "
                  f"{overhead:.3f} (ceiling {max_stream_overhead:.2f})")
    return failures


def check_incident_engine(current: dict, max_detection_lag: float,
                          max_false_incidents: float,
                          max_overhead: float) -> list[str]:
    """The incident suite's machine-independent gates: zero false incidents
    on the calm run, every storm onset detected within the lag ceiling, and
    the pure-observer overhead ceiling."""
    failures = []
    benches = current.get("benches", {})

    calm = benches.get("incident_calm")
    if calm is None or "false_incidents" not in calm:
        failures.append("missing bench 'incident_calm' with false_incidents")
    else:
        false_incidents = calm["false_incidents"]
        if false_incidents > max_false_incidents:
            failures.append(
                f"incident_calm: {false_incidents:.0f} incidents opened on "
                f"the calm run (ceiling {max_false_incidents:.0f})")
        else:
            print(f"  OK  incident_calm.false_incidents = "
                  f"{false_incidents:.0f} (ceiling {max_false_incidents:.0f})")

    detection = benches.get("incident_detection")
    if detection is None or "onsets_total" not in detection:
        failures.append("missing bench 'incident_detection' with onset counts")
    else:
        total = detection.get("onsets_total", 0.0)
        detected = detection.get("onsets_detected", 0.0)
        lag = detection.get("max_detection_lag_periods")
        if total <= 0.0:
            failures.append("incident_detection: no storm onsets in the run "
                            "(nothing was tested)")
        elif detected < total:
            failures.append(
                f"incident_detection: only {detected:.0f}/{total:.0f} "
                f"storm onsets answered by the matching detector")
        else:
            print(f"  OK  incident_detection: {detected:.0f}/{total:.0f} "
                  f"onsets answered")
        if lag is None:
            failures.append(
                "incident_detection: missing max_detection_lag_periods")
        elif lag > max_detection_lag:
            failures.append(
                f"incident_detection: max_detection_lag_periods {lag:.0f} "
                f"above the {max_detection_lag:.0f} ceiling")
        else:
            print(f"  OK  incident_detection.max_detection_lag_periods = "
                  f"{lag:.0f} (ceiling {max_detection_lag:.0f})")

    overhead_entry = benches.get("incident_overhead")
    if (overhead_entry is None
            or "incident_overhead_fraction" not in overhead_entry):
        failures.append("missing bench 'incident_overhead' with "
                        "incident_overhead_fraction")
    else:
        overhead = overhead_entry["incident_overhead_fraction"]
        if overhead > max_overhead:
            failures.append(
                f"incident_overhead: {overhead:.3f} above the "
                f"{max_overhead:.2f} ceiling")
        else:
            print(f"  OK  incident_overhead.incident_overhead_fraction = "
                  f"{overhead:.3f} (ceiling {max_overhead:.2f})")
    return failures


def check_fleet_throughput(current: dict, baseline: dict | None,
                           min_sessions_per_second: float,
                           max_fleet_wall_seconds: float,
                           tolerance: float) -> list[str]:
    """The fleet suite's throughput gates: absolute sessions/s floor and
    wall ceiling on every cell, plus a calibration-normalized throughput
    drop check against the baseline (wall-time regressions on *_seconds
    fields ride the generic check)."""
    failures = []
    benches = current.get("benches", {})
    if not benches:
        return ["fleet suite: no benches in current run"]

    for bench, entry in sorted(benches.items()):
        sps = entry.get("sessions_per_second")
        if sps is None:
            failures.append(f"{bench}: missing sessions_per_second")
            continue
        if min_sessions_per_second > 0.0:
            if sps < min_sessions_per_second:
                failures.append(
                    f"{bench}: {sps / 1e6:.2f}M sessions/s below the "
                    f"{min_sessions_per_second / 1e6:.1f}M floor")
            else:
                print(f"  OK  {bench}.sessions_per_second = "
                      f"{sps / 1e6:.2f}M (floor "
                      f"{min_sessions_per_second / 1e6:.1f}M)")
        wall = entry.get("fleet_wall_seconds")
        if (max_fleet_wall_seconds > 0.0 and wall is not None
                and wall > max_fleet_wall_seconds):
            failures.append(
                f"{bench}: fleet_wall_seconds {wall:.3f} above the "
                f"{max_fleet_wall_seconds:.2f}s ceiling")

    if baseline is None:
        return failures
    cur_cal = current.get("calibration_seconds", 0.0)
    base_cal = baseline.get("calibration_seconds", 0.0)
    if cur_cal <= 0.0 or base_cal <= 0.0:
        return failures + ["calibration_seconds missing or non-positive; "
                           "cannot normalize throughput"]
    for bench, base_entry in baseline.get("benches", {}).items():
        base_sps = base_entry.get("sessions_per_second")
        cur_entry = benches.get(bench)
        if base_sps is None or base_sps <= 0.0:
            continue
        if cur_entry is None or "sessions_per_second" not in cur_entry:
            failures.append(f"missing bench '{bench}' present in baseline")
            continue
        # sessions/s scales inversely with host speed, so multiply by the
        # calibration time to get a host-independent throughput figure.
        ratio = ((cur_entry["sessions_per_second"] * cur_cal)
                 / (base_sps * base_cal))
        label = f"{bench}.sessions_per_second"
        if ratio < 1.0 - tolerance:
            failures.append(
                f"{label}: {ratio:.2f}x the baseline "
                f"(normalized; tolerance {1.0 - tolerance:.2f}x)")
        else:
            print(f"  OK  {label}: {ratio:.2f}x baseline (normalized)")
    return failures


BENCH_JSON_PREFIX = "BENCH_JSON "


def parse_bench_log(path: Path) -> dict[tuple[int, int], float]:
    """Extract min fleet_wall_seconds per (users, threads) cell from the
    BENCH_JSON lines of a bench_fleet_scale stdout log."""
    cells: dict[tuple[int, int], float] = {}
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if not line.startswith(BENCH_JSON_PREFIX):
                continue
            record = json.loads(line[len(BENCH_JSON_PREFIX):])
            wall = record.get("fleet_wall_seconds")
            if wall is None:
                continue
            key = (int(record["users"]), int(record["threads"]))
            cells[key] = min(wall, cells.get(key, float("inf")))
    if not cells:
        sys.exit(f"{path}: no BENCH_JSON lines with fleet_wall_seconds")
    return cells


def check_fleet_overhead(on_log: Path, off_log: Path,
                         tolerance: float) -> int:
    on_cells = parse_bench_log(on_log)
    off_cells = parse_bench_log(off_log)
    failures = []
    for key in sorted(off_cells):
        users, threads = key
        label = f"fleet_scale[users={users}, threads={threads}]"
        if key not in on_cells:
            failures.append(f"{label}: missing from telemetry-on log")
            continue
        on_wall, off_wall = on_cells[key], off_cells[key]
        if off_wall <= 0.0:
            continue
        ratio = on_wall / off_wall
        if ratio > 1.0 + tolerance:
            failures.append(
                f"{label}: telemetry-on {on_wall:.3f}s is {ratio:.3f}x "
                f"telemetry-off {off_wall:.3f}s "
                f"(tolerance {1.0 + tolerance:.2f}x)")
        else:
            print(f"  OK  {label}: on {on_wall:.3f}s / off {off_wall:.3f}s "
                  f"= {ratio:.3f}x")
    if failures:
        print("telemetry overhead gate FAILED:")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print("telemetry overhead gate passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", type=Path, nargs="?",
                        help="BENCH_kernel.json / BENCH_horizon.json from "
                             "this run")
    parser.add_argument("--suite",
                        choices=("kernel", "horizon", "mechanism", "storm",
                                 "fleet", "incident"),
                        default="kernel",
                        help="which bench suite the input comes from; "
                             "'horizon' skips the kernel speedup floors, "
                             "'mechanism' checks the arena ordering, "
                             "'storm' checks P2A retention and streaming "
                             "overhead, 'fleet' checks throughput floors "
                             "and the day wall ceiling, 'incident' checks "
                             "detection lag / false incidents / engine "
                             "overhead instead")
    parser.add_argument("--fleet-overhead", nargs=2, type=Path,
                        metavar=("ON_LOG", "OFF_LOG"),
                        help="compare bench_fleet_scale stdout logs with "
                             "telemetry on vs off instead of the kernel gate")
    parser.add_argument("--overhead-tolerance", type=float, default=0.05,
                        help="allowed telemetry-on slowdown (0.05 = 5%%)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="defaults to bench/baselines/"
                             "BENCH_<suite>.baseline.json")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed normalized wall-time regression "
                             "(0.15 = 15%%)")
    parser.add_argument("--min-static-speedup", type=float, default=5.0)
    parser.add_argument("--min-online-speedup", type=float, default=3.0)
    parser.add_argument("--min-tube-reduction", type=float, default=0.05,
                        help="floor on tube_online's p2a_reduction in the "
                             "mechanism suite")
    parser.add_argument("--ordering-epsilon", type=float, default=0.01,
                        help="slack allowed in the mechanism-ordering "
                             "comparisons")
    parser.add_argument("--min-p2a-retention", type=float, default=0.85,
                        help="floor on storm_week.p2a_retention in the "
                             "storm suite")
    parser.add_argument("--max-stream-overhead", type=float, default=0.15,
                        help="ceiling on stream_overhead_fraction in the "
                             "storm suite")
    parser.add_argument("--max-detection-lag", type=float, default=4.0,
                        help="ceiling on max_detection_lag_periods in the "
                             "incident suite")
    parser.add_argument("--max-false-incidents", type=float, default=0.0,
                        help="ceiling on the calm run's opened incidents in "
                             "the incident suite")
    parser.add_argument("--max-incident-overhead", type=float, default=0.15,
                        help="ceiling on incident_overhead_fraction in the "
                             "incident suite (CI scale; the acceptance "
                             "claim is <=1%% at 1M users)")
    parser.add_argument("--min-sessions-per-second", type=float, default=0.0,
                        help="absolute throughput floor for every fleet "
                             "cell (0 disables; the acceptance gate uses "
                             "1e7 at 1M users)")
    parser.add_argument("--max-fleet-wall-seconds", type=float, default=0.0,
                        help="absolute ceiling on fleet_wall_seconds for "
                             "every fleet cell (0 disables)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current run")
    args = parser.parse_args()

    if args.fleet_overhead:
        on_log, off_log = args.fleet_overhead
        return check_fleet_overhead(on_log, off_log, args.overhead_tolerance)
    if args.current is None:
        parser.error("pass BENCH_kernel.json, or use --fleet-overhead")
    if args.baseline is None:
        args.baseline = Path(
            f"bench/baselines/BENCH_{args.suite}.baseline.json")

    current = load(args.current)
    print(f"checking {args.current} (suite: {args.suite})")
    floors = {}
    if args.suite == "kernel":
        floors = {
            "static_solve": ("speedup", args.min_static_speedup),
            "online_resolve": ("speedup", args.min_online_speedup),
        }
    failures = check_speedup_floors(current, floors)
    if args.suite == "kernel":
        failures += check_ratio_ceilings(current, {
            "online_observe": ("observe_per_solve", MAX_OBSERVE_PER_SOLVE),
        })
    if args.suite == "mechanism":
        failures += check_mechanism_ordering(current, args.ordering_epsilon,
                                             args.min_tube_reduction)
    if args.suite == "storm":
        failures += check_storm_resilience(current, args.min_p2a_retention,
                                           args.max_stream_overhead)
    if args.suite == "fleet":
        failures += check_fleet_throughput(current, None,
                                           args.min_sessions_per_second,
                                           args.max_fleet_wall_seconds,
                                           args.tolerance)
    if args.suite == "incident":
        failures += check_incident_engine(current, args.max_detection_lag,
                                          args.max_false_incidents,
                                          args.max_incident_overhead)

    if args.update:
        if failures:
            print("refusing to update baseline with failing speedup floors:")
            for failure in failures:
                print(f"  FAIL {failure}")
            return 1
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    if args.baseline.exists():
        baseline = load(args.baseline)
        failures += check_wall_regressions(current, baseline,
                                           args.tolerance)
        if args.suite == "fleet":
            failures += check_fleet_throughput(current, baseline, 0.0, 0.0,
                                               args.tolerance)
    else:
        print(f"  (no baseline at {args.baseline}; speedup floors only)")

    if failures:
        print("perf gate FAILED:")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
