#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload sweep-full --seed 1 --seconds 20 --trace 0

Builds the harness (perfbench/harness) and, for serve-mixed, the `serve`
binary from source with cargo, runs the harness, and prints one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones. Every run is also appended, with its provenance (source
commit or digest, nproc, rustc version, seed), to .perfbench/runs.jsonl;
perfbench/report.py prints tables from that log.

Exit status: 0 when every correctness check passed, 1 when one failed or
the harness could not run, 2 on a refused environment or a directory
that does not hold the repository's sources.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sweep-full", "serve-mixed")
# Settings that change result bytes without entering the cell hash: a run
# under any of them would measure a different program.
REFUSED_ENV = ("OIC_MPC_WARM", "OIC_LP_BACKEND", "OIC_EPISODE_KERNEL")
# Whole-run deadline, including builds after the first one.
RUN_DEADLINE_S = 170
FIRST_BUILD_DEADLINE_S = 840


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the sources the benchmark builds (a checkout may not
    be a git repository, so the commit alone cannot identify it)."""
    digest = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "crates", ROOT / "shims", BENCH_DIR]
    files = []
    for base in roots:
        if base.is_file():
            files.append(base)
        elif base.is_dir():
            files.extend(p for p in base.rglob("*") if p.is_file() and "target" not in p.parts)
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def command_output(args):
    try:
        return subprocess.run(
            args, cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def provenance(args):
    return {
        "commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "--version"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def cargo_build(manifest, extra, env, deadline):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    try:
        done = subprocess.run(cmd + extra, cwd=ROOT, env=env, timeout=deadline)
    except subprocess.TimeoutExpired:
        fail(f"build timed out: {' '.join(cmd + extra)}", 1)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd + extra)}", 1)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        fail("--seed must fit in 64 bits", 2)
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        fail(f"refusing to run with {', '.join(refused)} set: it changes results", 2)
    for needed in ("Cargo.toml", "crates/engine/Cargo.toml", "crates/serve/Cargo.toml"):
        if not (ROOT / needed).is_file():
            fail(f"{ROOT} holds no repository sources ({needed} is missing)", 2)

    started = time.monotonic()
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env["CARGO_TARGET_DIR"] = str(target)
    harness = target / "release" / "perfbench"
    server = target / "release" / "serve"
    first_build = not harness.exists() or (args.workload == "serve-mixed" and not server.exists())
    build_deadline = FIRST_BUILD_DEADLINE_S if first_build else RUN_DEADLINE_S
    cargo_build(BENCH_DIR / "harness" / "Cargo.toml", [], env, build_deadline)
    if args.workload == "serve-mixed":
        cargo_build(ROOT / "Cargo.toml", ["-p", "oic-serve", "--bin", "serve"], env, build_deadline)
    built = time.monotonic()

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    cmd = [
        str(harness), args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", str(out_dir),
        "--server-bin", str(server),
    ]
    remaining = RUN_DEADLINE_S - (0 if first_build else built - started)
    # Its own session, so a timeout or a signal also stops the server it
    # started.
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)

    def stop_child(signum, _frame):
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"stopped by signal {signum}", 1)

    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)
    try:
        stdout, _ = child.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail("harness timed out", 1)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"harness exited {child.returncode} without a result", 1)

    correct = bool(result["correct"]) and child.returncode == 0
    expected = expected_metrics(args.trace)
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != expected:
        missing = sorted(set(expected) - set(emitted))
        extra = sorted(set(emitted) - set(expected))
        units = sorted(n for n in set(expected) & set(emitted) if expected[n] != emitted[n])
        print(f"perfbench: metrics differ from BENCHMARK.json: missing {missing}, "
              f"extra {extra}, unit mismatch {units}", file=sys.stderr)
        correct = False

    record = dict(provenance(args))
    record.update(
        time=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        correct=correct,
        attempted=result["attempted"],
        failed=result["failed"],
        metrics=result["metrics"],
        problems=result.get("problems", []),
        info=result.get("info", {}),
    )
    with open(out_dir / "runs.jsonl", "a") as log:
        log.write(json.dumps(record) + "\n")
    print("perfbench: " + json.dumps({k: record[k] for k in (
        "commit", "source_digest", "nproc", "rustc", "workload", "seed")}), file=sys.stderr)

    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
