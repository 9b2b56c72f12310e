#!/usr/bin/env python3
"""Render an incident-engine flight-recorder dump ("TDPI") for triage.

Mirrors the byte layout of src/obs/incident/dump.cpp exactly — the field
order there is frozen as part of the determinism contract, so this reader
must never drift from it. The framing is common/serialize.hpp's: magic[4] +
version u32 LE + payload_size u64 LE, tagged sections (u32 tag + u32 byte
length + body), and a CRC-32 trailer (zlib polynomial) over the payload.

Usage:
  tdp_triage.py DUMP [--journal-jsonl FILE] [--json]

Prints a human-readable triage report: dump position, detector posture,
open/closed incidents with their attribution snapshot (storm regimes,
health-FSM state, last re-anchor decision), the alert stream, and the
flight-recorder timeline. With --journal-jsonl, incident.* journal events
are folded into the timeline. --json emits the parsed dump as JSON instead.
Exits non-zero on a malformed dump. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
import zlib

MAGIC = b"TDPI"
VERSION = 1

SEC_META = 1
SEC_CONFIG = 2
SEC_STATE = 3
SEC_WALL = 4

ALERT_KINDS = [
    "measurement_cusum",
    "channel_cusum",
    "solver_cusum",
    "health_edge",
    "p2a_zscore",
    "peak_zscore",
    "pacing_bound",
]
SEVERITIES = ["MINOR", "MAJOR", "CRITICAL"]
OBJECTIVES = [
    "loop_disturbance",
    "fallback_budget",
    "p2a_regression",
    "pacing",
]
HEALTH = ["HEALTHY", "DEGRADED", "FALLBACK"]
REANCHOR = {-1: "none", 0: "adopted", 1: "deferred", 2: "rolled_back",
            3: "frozen"}
RECORDER_KINDS = [
    "disturbance",
    "channel_degraded",
    "solver_starved",
    "health_edge",
    "alert",
    "incident_open",
    "incident_close",
    "settle",
    "day_end",
    "reanchor",
]
DAY_SCOPED_PERIOD = 0xFFFFFFFF


def fail(message: str) -> None:
    print(f"tdp_triage: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


class Reader:
    """Little-endian cursor over one section body (or the whole payload)."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            fail("truncated payload")
        out = self.data[self.pos:self.pos + count]
        self.pos += count
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def boolean(self) -> bool:
        value = self.u8()
        if value > 1:
            fail("bad boolean byte")
        return value != 0

    def string(self) -> str:
        length = self.u32()
        return self.take(length).decode("utf-8")

    def vec_f64(self) -> list:
        count = self.u64()
        if count > (len(self.data) - self.pos) // 8:
            fail("implausible f64 vector count")
        return list(struct.unpack(f"<{count}d", self.take(8 * count)))

    def at_end(self) -> bool:
        return self.pos == len(self.data)


def read_frame(path: str, magic: bytes, versions) -> tuple:
    """Validate the outer frame of a `magic` file whose version is one of
    `versions`; returns (version, [(tag, body_bytes), ...]) in file
    order."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as error:
        fail(f"{path}: {error}")
    if len(blob) < 20:
        fail(f"{path}: shorter than the smallest possible frame")
    if blob[0:4] != magic:
        fail(f"{path}: bad magic {blob[0:4]!r} (want {magic!r})")
    version, payload_size = struct.unpack("<IQ", blob[4:16])
    if version not in versions:
        fail(f"{path}: unsupported version {version}")
    if 16 + payload_size + 4 != len(blob):
        fail(f"{path}: payload size {payload_size} does not match file size")
    payload = blob[16:16 + payload_size]
    (crc,) = struct.unpack("<I", blob[16 + payload_size:])
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        fail(f"{path}: CRC mismatch — corrupt file")

    sections = []
    cursor = Reader(payload)
    while not cursor.at_end():
        tag = cursor.u32()
        length = cursor.u32()
        sections.append((tag, bytes(cursor.take(length))))
    return version, sections


def read_config(r: Reader) -> dict:
    return {
        "enabled": r.boolean(),
        "cusum_k": r.f64(),
        "cusum_h": r.f64(),
        "channel_cusum_k": r.f64(),
        "channel_cusum_h": r.f64(),
        "ewma_alpha": r.f64(),
        "ewma_z": r.f64(),
        "ewma_min_days": r.u64(),
        "pacing_max_ratio": r.f64(),
        "pacing_grace_days": r.u64(),
        "slo_short_window": r.u32(),
        "slo_long_window": r.u32(),
        "slo_short_burn": r.f64(),
        "slo_long_burn": r.f64(),
        "slo_max_fallback_per_day": r.u64(),
        "slo_p2a_floor": r.f64(),
        "slo_p2a_window_days": r.u32(),
        "recorder_capacity": r.u32(),
        "max_alerts": r.u32(),
    }


def enum_name(table, value, what: str) -> str:
    if not 0 <= value < len(table):
        fail(f"bad {what} value {value}")
    return table[value]


def read_state(r: Reader) -> dict:
    state: dict = {
        "next_alert_seq": r.u64(),
        "alerts_dropped": r.u64(),
    }
    alerts = []
    for _ in range(r.u64()):
        alerts.append({
            "seq": r.u64(),
            "day": r.u64(),
            "period": r.u32(),
            "abs_period": r.u64(),
            "kind": enum_name(ALERT_KINDS, r.u8(), "alert kind"),
            "value": r.f64(),
            "threshold": r.f64(),
        })
    state["alerts"] = alerts

    state["next_incident_id"] = r.u64()
    incidents = []
    for _ in range(r.u64()):
        incident = {
            "id": r.u64(),
            "objective": enum_name(OBJECTIVES, r.u8(), "objective"),
            "severity": enum_name(SEVERITIES, r.u8(), "severity"),
            "open_day": r.u64(),
            "open_period": r.u32(),
            "open_abs_period": r.u64(),
            "closed": r.boolean(),
            "close_abs_period": r.u64(),
            "burn_short": r.f64(),
            "burn_long": r.f64(),
        }
        storm = r.u8()
        if storm > 7:
            fail("bad incident storm flags")
        incident["storm_blackout"] = bool(storm & 1)
        incident["storm_channel"] = bool(storm & 2)
        incident["storm_solver"] = bool(storm & 4)
        incident["health"] = enum_name(HEALTH, r.u8(), "health")
        incident["last_reanchor_day"] = r.i64()
        incident["last_reanchor"] = REANCHOR.get(r.i64())
        if incident["last_reanchor"] is None:
            fail("bad reanchor state")
        incidents.append(incident)
    state["incidents"] = incidents

    for name in ("cusum_measurement", "cusum_channel", "cusum_solver"):
        state[name] = {"s": r.f64(), "samples": r.u64(),
                       "firings": r.u64()}
    for name in ("ewma_p2a", "ewma_peak"):
        state[name] = {"mean": r.f64(), "variance": r.f64(),
                       "samples": r.u64()}

    state["has_prev_health"] = r.boolean()
    state["prev_health"] = enum_name(HEALTH, r.u8(), "health")

    slo_size = r.u64()
    state["slo_window"] = [r.u8() for _ in range(slo_size)]
    if any(bit > 1 for bit in state["slo_window"]):
        fail("bad slo window bit")
    state["slo_pos"] = r.u32()
    state["slo_filled"] = r.u64()
    state["p2a_window"] = r.vec_f64()

    state["settles_seen"] = r.u64()
    state["days_seen"] = r.u64()
    state["last_day"] = r.u64()
    state["last_period"] = r.u32()
    state["last_abs_period"] = r.u64()

    storm = r.u8()
    if storm > 7:
        fail("bad storm flags")
    state["storm_blackout"] = bool(storm & 1)
    state["storm_channel"] = bool(storm & 2)
    state["storm_solver"] = bool(storm & 4)
    state["health"] = enum_name(HEALTH, r.u8(), "health")
    state["last_reanchor_day"] = r.i64()
    state["last_reanchor"] = REANCHOR.get(r.i64())
    if state["last_reanchor"] is None:
        fail("bad reanchor state")

    recorder = []
    for _ in range(r.u64()):
        recorder.append({
            "abs_period": r.u64(),
            "kind": enum_name(RECORDER_KINDS, r.u8(), "recorder kind"),
            "a": r.f64(),
            "b": r.f64(),
        })
    state["recorder"] = recorder
    state["recorder_pos"] = r.u32()
    state["recorder_overwritten"] = r.u64()
    return state


def read_wall(r: Reader) -> dict:
    counters = []
    for _ in range(r.u64()):
        name = r.string()
        counters.append((name, r.u64()))
    return {"counters": counters, "commit_latencies": r.vec_f64()}


def parse_dump(path: str) -> dict:
    _, sections = read_frame(path, MAGIC, (VERSION,))
    dump: dict = {}
    for tag, body in sections:
        r = Reader(body)
        if tag == SEC_META:
            dump["day"] = r.u64()
            dump["period"] = r.u32()
            flags = r.u8()
            if flags > 1:
                fail("bad dump flags")
            dump["has_wall"] = flags != 0
        elif tag == SEC_CONFIG:
            dump["config"] = read_config(r)
        elif tag == SEC_STATE:
            dump["state"] = read_state(r)
        elif tag == SEC_WALL:
            dump["wall"] = read_wall(r)
        # Unknown tags are skipped (forward compatibility).
        if tag in (SEC_META, SEC_CONFIG, SEC_STATE, SEC_WALL):
            if not r.at_end():
                fail(f"section {tag} has {len(body) - r.pos} trailing bytes")
    for key in ("day", "config", "state"):
        if key not in dump:
            fail(f"dump missing required section ({key})")
    return dump


def recorder_timeline(state: dict) -> list:
    """Chronological recorder entries (the dump stores the unwound ring)."""
    entries = state["recorder"]
    if state["recorder_overwritten"] > 0:
        pos = state["recorder_pos"]
        entries = entries[pos:] + entries[:pos]
    return entries


def load_incident_journal(path: str) -> list:
    events = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line)
                if str(event.get("kind", "")).startswith("incident."):
                    events.append(event)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"{path}: {error}")
    return events


def describe_recorder(entry: dict) -> str:
    kind, a, b = entry["kind"], entry["a"], entry["b"]
    if kind == "disturbance":
        what = "gap" if a >= 1.0 else "repair"
        return f"measurement {what} (lost stripes {int(b)})"
    if kind == "channel_degraded":
        return f"channel degraded: {int(a)} drops, {int(b)} degraded groups"
    if kind == "solver_starved":
        return "solver starved"
    if kind == "health_edge":
        return (f"health {enum_name(HEALTH, int(a), 'health')} -> "
                f"{enum_name(HEALTH, int(b), 'health')}")
    if kind == "alert":
        return f"alert {enum_name(ALERT_KINDS, int(a), 'alert kind')}" \
               f" value={b:g}"
    if kind == "incident_open":
        return (f"incident #{int(a)} OPEN "
                f"({enum_name(OBJECTIVES, int(b), 'objective')})")
    if kind == "incident_close":
        return f"incident #{int(a)} CLOSE after {int(b)} periods"
    if kind == "settle":
        held = " (books held)" if b < 0 else f" pool={b:g}"
        return f"settle: spent={a:g}{held}"
    if kind == "day_end":
        return f"day end: p2a reduction={a:g}, fallback periods={int(b)}"
    if kind == "reanchor":
        return f"reanchor {REANCHOR.get(int(a), '?')} (day {int(b)})"
    return kind


def attribution(entry: dict) -> str:
    storms = [name for name, key in (("blackout", "storm_blackout"),
                                     ("channel", "storm_channel"),
                                     ("solver", "storm_solver"))
              if entry[key]]
    storm_text = "+".join(storms) if storms else "none"
    reanchor = entry["last_reanchor"]
    if reanchor != "none":
        reanchor += f"@day{entry['last_reanchor_day']}"
    return (f"storms={storm_text} health={entry['health']} "
            f"reanchor={reanchor}")


def render(dump: dict, journal_events: list) -> None:
    state = dump["state"]
    config = dump["config"]
    print(f"== TDP incident dump: day {dump['day']}, period "
          f"{dump['period']} ==")
    print(f"observed through abs period {state['last_abs_period']} "
          f"(day {state['last_day']}, period {state['last_period']}); "
          f"{state['days_seen']} days, {state['settles_seen']} settles")
    print(f"current attribution: {attribution(state)}")

    print("\n-- detector posture --")
    for name in ("cusum_measurement", "cusum_channel", "cusum_solver"):
        d = state[name]
        threshold = (config["channel_cusum_h"] if name == "cusum_channel"
                     else config["cusum_h"])
        print(f"  {name}: S={d['s']:g}/{threshold:g} "
              f"({d['samples']} samples, {d['firings']} firings)")
    for name in ("ewma_p2a", "ewma_peak"):
        d = state[name]
        print(f"  {name}: mean={d['mean']:g} var={d['variance']:g} "
              f"({d['samples']} days)")
    bad = sum(state["slo_window"])
    print(f"  slo window: {bad}/{len(state['slo_window'])} bad "
          f"(filled {state['slo_filled']})")

    open_count = sum(1 for i in state["incidents"] if not i["closed"])
    print(f"\n-- incidents: {len(state['incidents'])} total, "
          f"{open_count} open --")
    for incident in state["incidents"]:
        status = ("OPEN" if not incident["closed"]
                  else f"closed@{incident['close_abs_period']}")
        print(f"  #{incident['id']} {incident['objective']} "
              f"{incident['severity']} open@{incident['open_abs_period']} "
              f"{status} burn={incident['burn_short']:g}/"
              f"{incident['burn_long']:g}")
        print(f"      {attribution(incident)}")

    dropped = state["alerts_dropped"]
    suffix = f" ({dropped} dropped past the cap)" if dropped else ""
    print(f"\n-- alerts: {len(state['alerts'])} retained{suffix} --")
    for alert in state["alerts"]:
        where = ("day-scoped" if alert["period"] == DAY_SCOPED_PERIOD
                 else f"p{alert['period']}")
        print(f"  [{alert['seq']}] t={alert['abs_period']} "
              f"(day {alert['day']} {where}) {alert['kind']} "
              f"value={alert['value']:g} threshold={alert['threshold']:g}")

    timeline = recorder_timeline(state)
    overwritten = state["recorder_overwritten"]
    suffix = f" ({overwritten} older entries overwritten)" if overwritten \
        else ""
    print(f"\n-- flight recorder: {len(timeline)} moments{suffix} --")
    for entry in timeline:
        print(f"  t={entry['abs_period']}: {describe_recorder(entry)}")

    if journal_events:
        print(f"\n-- journal cross-reference: {len(journal_events)} "
              f"incident.* events --")
        for event in journal_events:
            fields = event.get("fields", {})
            detail = event.get("detail", "")
            extras = " ".join(f"{k}={v:g}" for k, v in sorted(fields.items()))
            print(f"  [{event.get('seq')}] {event.get('kind')} "
                  f"{detail} {extras}".rstrip())

    if dump.get("has_wall") and "wall" in dump:
        wall = dump["wall"]
        print(f"\n-- wall-clock extras (advisory only) --")
        for name, value in wall["counters"]:
            print(f"  {name}: {value} ns")
        latencies = wall["commit_latencies"]
        if latencies:
            worst = max(latencies)
            print(f"  checkpoint commits: {len(latencies)} "
                  f"(worst {worst * 1e3:.3f} ms)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dump", help="TDPI flight-recorder dump file")
    parser.add_argument("--journal-jsonl",
                        help="journal JSONL to cross-reference incident.* "
                             "events")
    parser.add_argument("--json", action="store_true",
                        help="emit the parsed dump as JSON instead of the "
                             "report")
    args = parser.parse_args()

    dump = parse_dump(args.dump)
    if args.json:
        json.dump(dump, sys.stdout, indent=2)
        print()
        return
    journal_events = (load_incident_journal(args.journal_jsonl)
                      if args.journal_jsonl else [])
    render(dump, journal_events)


if __name__ == "__main__":
    main()
