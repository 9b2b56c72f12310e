#!/usr/bin/env python3
"""The repo benchmark: builds perfbench from source and runs workloads.

    python3 perfbench/run.py --workload fleet_1m|fleet_10k|horizon_drift|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build)/perfbench; run outputs (the traced run's Chrome
trace, the horizon's streamed checkpoint) to .../perfbench-out.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones; the traced run also runs the benchmark's own self-test and
checks its Chrome trace with tools/validate_trace.py. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics ("all" runs every workload and prefixes each metric with its
workload). Any build or run error exits non-zero without that line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build(out: Path) -> None:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over the library sources: identifies the measured code when
    the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_checked(cmd: list[str]) -> str:
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"perfbench: {Path(cmd[0]).name} exited "
                         f"{done.returncode}")
    return done.stdout


def run_workload(workload: str, args: argparse.Namespace, declared: list,
                 out: Path) -> dict:
    """Runs one workload, prints its summary, returns its result line."""
    run_dir = out.parent / "perfbench-out"
    stdout = run_checked([
        str(out / "perfbench"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out-dir", str(run_dir),
        "--git-sha", git_sha()])
    lines = [l for l in stdout.splitlines() if l.startswith("PERFBENCH_RESULT ")]
    if not lines:
        raise SystemExit("perfbench: no result line")
    result = json.loads(lines[-1].split(" ", 1)[1])
    checks = result["checks"]

    if args.trace:
        selftest = subprocess.run([str(out / "perfbench_selftest")],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=RUN_TIMEOUT_S)
        checks["selftest"] = selftest.returncode == 0
        if selftest.returncode != 0:
            sys.stderr.write(selftest.stdout[-2000:])
        validator = ROOT / "tools" / "validate_trace.py"
        trace_file = result["provenance"]["trace_file"]
        checked = subprocess.run(
            [sys.executable, str(validator), "--trace", trace_file],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=RUN_TIMEOUT_S) if validator.exists() else None
        checks["chrome_trace_valid"] = (checked is not None
                                        and checked.returncode == 0)

    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    if missing:
        raise SystemExit(f"perfbench: metrics not produced: {missing}")
    correct = all(checks.values())
    attempted = result["attempted"]
    failed = result["failed"] if correct else attempted
    metrics = {m["name"]: result["metrics"][m["name"]] for m in declared}

    provenance = dict(result["provenance"], src_sha256=source_digest())
    print(f"workload {workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_frac':36s} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} periods)")
    print(f"  {'fallback_frac':36s} {result['fallback_frac']:>16.6g} "
          "(periods the pricer observed in FALLBACK)")
    for name, value in sorted(result["details"].items()):
        print(f"  detail {name:29s} {value:>16.6g}")
    for name, ok in sorted(checks.items()):
        print(f"  check  {name:29s} {'ok' if ok else 'FAILED'}")
    print("PROVENANCE " + json.dumps(provenance, sort_keys=True))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        raise SystemExit(f"perfbench: unknown workload {args.workload}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    build(out)
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args, declared, out)))
        return
    results = {name: run_workload(name, args, declared, out) for name in names}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()}}))


if __name__ == "__main__":
    main()
