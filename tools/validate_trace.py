#!/usr/bin/env python3
"""Schema-check the observability artifacts emitted by examples/observe_day.

Validates:
  --trace FILE    Chrome trace_event JSON: a {"traceEvents": [...]} object
                  whose events have a known phase, and whose B/E events are
                  stack-matched with monotone timestamps within each thread.
  --journal FILE  structured event journal: a JSON array of objects with
                  strictly increasing "seq", known "kind" strings, and
                  numeric fields maps.
  --journal-jsonl FILE
                  the same journal schema in JSONL form (Journal::jsonl():
                  one event object per line), same invariants per event.
  --metrics FILE  registry snapshot JSON: one "counters" map of
                  non-negative integers and no other top-level key.

Exits non-zero with a message on the first violation; prints a one-line
summary per validated file otherwise. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import sys

KNOWN_PHASES = {"B", "E", "X", "i", "M"}

# Every journal kind the codebase emits (grep journal_record call sites).
# A new emitter must be added here — the schema check is the tripwire.
KNOWN_KINDS = {
    "batch.solve",
    "channel.fallback",
    "channel.recovery",
    "fleet.measurement_gap",
    "fleet.stripe_lost",
    "guard.repair",
    "horizon.estimation_frozen",
    "horizon.reanchor_adopted",
    "horizon.reanchor_deferred",
    "horizon.reanchor_rolledback",
    "incident.advisory",
    "incident.alert",
    "incident.close",
    "incident.dump",
    "incident.open",
    "mech.publish",
    "mech.settle",
    "pricer.health",
    "pricer.solve",
    "solver.converged",
    "tube.phase",
}


def fail(message: str) -> None:
    print(f"validate_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"{path}: {error}")


def validate_trace(path: str) -> None:
    doc = load_json(path)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: expected an object with a 'traceEvents' array")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(f"{path}: 'traceEvents' is not an array")

    stacks: dict[tuple, list] = {}
    last_ts: dict[tuple, float] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            fail(f"{path}: event {index} is not an object")
        phase = event.get("ph")
        if phase not in KNOWN_PHASES:
            fail(f"{path}: event {index} has unknown phase {phase!r}")
        if phase == "M":
            continue  # metadata events carry no timeline invariants
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            fail(f"{path}: event {index} has non-numeric ts {ts!r}")
        key = (event.get("pid"), event.get("tid"))
        if ts < last_ts.get(key, float("-inf")):
            fail(f"{path}: event {index} regresses ts on thread {key}")
        last_ts[key] = ts
        if phase == "B":
            name = event.get("name")
            if not isinstance(name, str) or not name:
                fail(f"{path}: B event {index} lacks a name")
            stacks.setdefault(key, []).append(name)
        elif phase == "E":
            stack = stacks.get(key)
            if not stack:
                fail(f"{path}: E event {index} with no open span on {key}")
            stack.pop()
    for key, stack in stacks.items():
        if stack:
            fail(f"{path}: thread {key} ends with unclosed spans {stack}")
    print(f"validate_trace: OK {path}: {len(events)} events, "
          f"{len(last_ts)} threads")


def check_journal_event(path: str, index: int, event, previous_seq: int,
                        kinds: dict[str, int]) -> int:
    """Validate one journal event; returns its seq."""
    if not isinstance(event, dict):
        fail(f"{path}: event {index} is not an object")
    seq = event.get("seq")
    if not isinstance(seq, int) or seq <= previous_seq:
        fail(f"{path}: event {index} seq {seq!r} is not strictly "
             f"increasing (previous {previous_seq})")
    kind = event.get("kind")
    if not isinstance(kind, str) or not kind:
        fail(f"{path}: event {index} has an empty kind")
    if kind not in KNOWN_KINDS:
        fail(f"{path}: event {index} has unknown kind {kind!r}")
    kinds[kind] = kinds.get(kind, 0) + 1
    fields = event.get("fields", {})
    if not isinstance(fields, dict):
        fail(f"{path}: event {index} fields is not an object")
    for name, value in fields.items():
        if not isinstance(value, (int, float)):
            fail(f"{path}: event {index} field {name!r} is non-numeric")
    return seq


def validate_journal(path: str) -> None:
    events = load_json(path)
    if not isinstance(events, list):
        fail(f"{path}: expected a JSON array of events")
    previous_seq = -1
    kinds: dict[str, int] = {}
    for index, event in enumerate(events):
        previous_seq = check_journal_event(path, index, event, previous_seq,
                                           kinds)
    summary = ", ".join(f"{kind}={count}"
                        for kind, count in sorted(kinds.items()))
    print(f"validate_trace: OK {path}: {len(events)} events ({summary})")


def validate_journal_jsonl(path: str) -> None:
    previous_seq = -1
    kinds: dict[str, int] = {}
    count = 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for index, line in enumerate(handle):
                line = line.strip()
                if not line:
                    fail(f"{path}: line {index + 1} is empty")
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as error:
                    fail(f"{path}: line {index + 1}: {error}")
                previous_seq = check_journal_event(path, index, event,
                                                   previous_seq, kinds)
                count += 1
    except OSError as error:
        fail(f"{path}: {error}")
    summary = ", ".join(f"{kind}={n}" for kind, n in sorted(kinds.items()))
    print(f"validate_trace: OK {path}: {count} jsonl events ({summary})")


def validate_metrics(path: str) -> None:
    doc = load_json(path)
    if not isinstance(doc, dict) or set(doc) != {"counters"}:
        keys = sorted(doc) if isinstance(doc, dict) else type(doc).__name__
        fail(f"{path}: expected one top-level key 'counters', got {keys}")
    if not isinstance(doc["counters"], dict):
        fail(f"{path}: 'counters' is not an object")
    for name, value in doc["counters"].items():
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: counter {name!r} is not a nonnegative integer")
    print(f"validate_trace: OK {path}: {len(doc['counters'])} counters")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", help="Chrome trace_event JSON file")
    parser.add_argument("--journal", help="event journal JSON file")
    parser.add_argument("--journal-jsonl",
                        help="event journal JSONL file (one event per line)")
    parser.add_argument("--metrics", help="metrics snapshot JSON file")
    args = parser.parse_args()
    if not (args.trace or args.journal or args.journal_jsonl or args.metrics):
        parser.error("nothing to validate; pass "
                     "--trace/--journal/--journal-jsonl/--metrics")
    if args.trace:
        validate_trace(args.trace)
    if args.journal:
        validate_journal(args.journal)
    if args.journal_jsonl:
        validate_journal_jsonl(args.journal_jsonl)
    if args.metrics:
        validate_metrics(args.metrics)


if __name__ == "__main__":
    main()
