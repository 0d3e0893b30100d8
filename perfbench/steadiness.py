#!/usr/bin/env python3
"""Steadiness check: repeated runs of every workload, each on another seed,
reduced to per-metric medians, quartiles and spreads, and the comparison of
two such sets made at different times.

    python3 perfbench/steadiness.py run --runs 10 --first-seed 1 --out .bench_build/set1.json
    python3 perfbench/steadiness.py run --runs 10 --first-seed 101 --out .bench_build/set2.json
    python3 perfbench/steadiness.py compare .bench_build/set1.json .bench_build/set2.json

A set passes when every end-to-end metric but setup_s has an inter-quartile
spread within its BENCHMARK.json bound; two sets agree when no metric's
second median is worse than the first by more than its bound.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_set(args):
    spec = load_spec()
    values = {}
    started = time.time()
    for workload in [w["name"] for w in spec["workloads"]]:
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                sys.exit(f"{workload} seed {seed}: run failed or incorrect")
            for name, m in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    m["value"])
            print(f"{workload} seed {seed}: {time.time() - t0:.1f} s",
                  flush=True)
    record = {"started": time.strftime("%Y-%m-%d %H:%M:%S UTC",
                                       time.gmtime(started)),
              "wall_s": time.time() - started, "values": values}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    summarize(record, spec)


def summarize(record, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"set started {record['started']}, {record['wall_s']:.0f} s")
    for workload, metrics in record["values"].items():
        for name, values in metrics.items():
            q1, q2, q3 = stats.quartiles(values)
            spread = stats.relative_spread(values) if q2 else 0.0
            verdict = ("exempt" if name == "setup_s" else
                       "ok" if spread <= bounds[name] else "TOO NOISY")
            print(f"  {workload:<18} {name:<14} median {q2:12.4f}  "
                  f"q1 {q1:12.4f}  q3 {q3:12.4f}  spread {spread:.4f} / "
                  f"bound {bounds[name]}  {verdict}")


def compare(args):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    for record in (first, second):
        summarize(record, spec)
    print("median gap, second set vs first:")
    for workload, metrics in first["values"].items():
        for name, values in metrics.items():
            a = stats.median(values)
            b = stats.median(second["values"][workload][name])
            gap = (b - a) / a if a else 0.0
            worse = gap if better[name] == "lower" else -gap
            verdict = "ok" if worse <= bounds[name] else "WORSE THAN BOUND"
            print(f"  {workload:<18} {name:<14} {a:12.4f} -> {b:12.4f}  "
                  f"{gap:+.4f}  {verdict}")


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--out", required=True)
    cmp = sub.add_parser("compare")
    cmp.add_argument("first")
    cmp.add_argument("second")
    args = parser.parse_args()
    if args.command == "run":
        run_set(args)
    else:
        compare(args)


if __name__ == "__main__":
    main()
