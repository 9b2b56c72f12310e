#!/usr/bin/env python3
"""Compare two framed files section by section.

Usage:
  frame_sections.py OLD NEW

OLD and NEW are both checkpoints ("TDPC", src/horizon/checkpoint.cpp) or
both incident dumps ("TDPI", src/obs/incident/dump.cpp), framed as
common/serialize.hpp lays out: a 16-byte header, tagged sections (u32 tag
+ u32 byte length + body) and a CRC-32 trailer. For each section tag,
in tag order, prints the tag (named, for checkpoints), its body size in
each file and whether the section is identical, differs, or is only in one
file. Exits 1 when a section present in both files differs, and non-zero
on a malformed or mismatched frame. Stdlib only.
"""

from __future__ import annotations

import argparse
import sys

import tdp_triage

# src/horizon/checkpoint_sections.hpp
CHECKPOINT_SECTIONS = {
    1: "config",
    2: "clock",
    3: "rings",
    4: "channel",
    5: "fanout",
    6: "guard",
    7: "pricer",
    8: "window",
    9: "days",
    10: "partial",
    11: "obs (retired)",
    12: "mech",
    13: "storm",
    14: "incident",
}

# magic -> (accepted versions, section names)
FORMATS = {
    b"TDPC": ((1, 2), CHECKPOINT_SECTIONS),
    b"TDPI": ((tdp_triage.VERSION,), {}),
}


def read_sections(path: str, magic: bytes) -> tuple:
    """(version, file size, {tag: body}) of one framed file."""
    version, sections = tdp_triage.read_frame(path, magic, FORMATS[magic][0])
    bodies: dict = {}
    for tag, body in sections:
        if tag in bodies:
            tdp_triage.fail(f"{path}: duplicate section {tag}")
        bodies[tag] = body
    size = 20 + sum(8 + len(body) for body in bodies.values())
    return version, size, bodies


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("old", help="framed file before the change")
    parser.add_argument("new", help="framed file after the change")
    args = parser.parse_args()

    try:
        with open(args.old, "rb") as handle:
            magic = handle.read(4)
    except OSError as error:
        tdp_triage.fail(f"{args.old}: {error}")
    if magic not in FORMATS:
        tdp_triage.fail(f"{args.old}: unknown magic {magic!r}")
    names = FORMATS[magic][1]

    bodies = []
    for label, path in (("OLD", args.old), ("NEW", args.new)):
        version, size, sections = read_sections(path, magic)
        print(f"{label}: {path} ({magic.decode()} v{version}, {size} B)")
        bodies.append(sections)
    old, new = bodies
    print(f"{'tag':>4}  {'section':<14}{'OLD B':>8}{'NEW B':>8}  status")
    differs = False
    for tag in sorted(old.keys() | new.keys()):
        before = old.get(tag)
        after = new.get(tag)
        if before is None:
            status = "only in NEW"
        elif after is None:
            status = "only in OLD"
        elif before == after:
            status = "identical"
        else:
            status = "differs"
            differs = True
        sizes = ["-" if body is None else str(len(body))
                 for body in (before, after)]
        print(f"{tag:>4}  {names.get(tag, '-'):<14}"
              f"{sizes[0]:>8}{sizes[1]:>8}  {status}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
