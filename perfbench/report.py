#!/usr/bin/env python3
"""Prints tables from the benchmark's run log (.perfbench/runs.jsonl).

    python3 perfbench/report.py e2e      # end-to-end metrics, one row per workload
    python3 perfbench/report.py layers   # the traced runs' layer tables

`e2e` takes, per workload, the untraced runs of the newest source digest
in the log and prints each end-to-end metric's median over those runs,
with its unit and the sample count behind one run's value, plus the
failed share of all operations attempted. `layers` prints, per workload,
the newest traced run: the engine busy time split into layers, with the
unattributed residual as its own row, then every other per-layer metric.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sweep-full", "serve-mixed")
# Engine busy time, split by layer: (metric, what it covers).
LEDGER = (
    ("mpc.busy_s", "control: tube MPC kappa_R (incl. its LP), engine-measured"),
    ("core.controller_s", "core: linear feedback controller"),
    ("core.monitor_s", "core: Monitor::check"),
    ("core.policy_s", "core: analytic skip policies"),
    ("nn.infer_s", "nn: batched DRL inference"),
    ("sim.plant_s", "sim: plant step"),
    ("scenarios.disturbance_s", "scenarios: disturbance draws"),
    ("scenarios.sample_init_s", "scenarios: initial-state sampling (LP)"),
    ("engine.residual_s", "engine: kernel, accumulator, scheduling (residual)"),
)


def load(log):
    if not log.exists():
        sys.exit(f"no run log at {log}: run perfbench/run.py first")
    with open(log) as f:
        return [json.loads(line) for line in f if line.strip()]


def fmt(value):
    return f"{value:.4g}" if abs(value) < 1e6 else f"{value:.4e}"


def e2e(runs, spec):
    metrics = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    header = ["workload", "runs", "failed/attempted"] + [f"{n} [{u}]" for n, u in metrics]
    rows = []
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload and not r["trace"]]
        if not mine:
            continue
        digest = mine[-1]["source_digest"]
        mine = [r for r in mine if r["source_digest"] == digest]
        row = [workload, str(len(mine)),
               f"{sum(r['failed'] for r in mine)}/{sum(r['attempted'] for r in mine)}"]
        for name, _ in metrics:
            values = [r["metrics"][name]["value"] for r in mine if name in r["metrics"]]
            samples = mine[-1]["metrics"].get(name, {}).get("samples", 0)
            row.append(f"{fmt(statistics.median(values))} (n={samples})" if values else "-")
        rows.append(row)
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def layers(runs):
    for workload in WORKLOADS:
        traced = [r for r in runs if r["workload"] == workload and r["trace"]]
        if not traced:
            continue
        run = traced[-1]
        m = run["metrics"]
        busy = m["engine.busy_s"]["value"]
        print(f"== {workload} (seed {run['seed']}, {run['time']}, commit {run['commit'][:12]})")
        print(f"   {'layer seconds':28} {'s':>10} {'share':>7}")
        for name, what in LEDGER:
            value = m[name]["value"]
            share = value / busy if busy else 0.0
            print(f"   {name:28} {value:10.4f} {share:7.1%}  {what}")
        print(f"   {'= engine.busy_s':28} {busy:10.4f} {1.0:7.1%}")
        shown = {name for name, _ in LEDGER} | {"engine.busy_s"}
        print(f"   {'other per-layer metrics':40} {'value':>14} {'unit':7} samples")
        for name, metric in m.items():
            if name not in shown:
                print(f"   {name:40} {fmt(metric['value']):>14} {metric['unit']:7} {metric['samples']}")
        print()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("table", choices=("e2e", "layers"))
    parser.add_argument("--log", type=Path, default=ROOT / ".perfbench" / "runs.jsonl")
    args = parser.parse_args()
    runs = load(args.log)
    if args.table == "e2e":
        e2e(runs, json.loads((ROOT / "BENCHMARK.json").read_text()))
    else:
        layers(runs)


if __name__ == "__main__":
    main()
