#!/usr/bin/env python3
"""Benchmark entry point: builds perfbench_runner from source, runs one
workload, checks it, and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all      # every workload, one after another

Run from the repository root. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; with --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones, and the traced-run report is printed above it. Build output
and runner logs go to stderr. The build lives in $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["normalize_tpch", "renormalize_horse", "serve_churn", "ingest_sharded"]
RUNNER_TIMEOUT_S = 170
# The traced run's blocking-path layers must add up to the untraced op p50
# within this share.
LAYER_SUM_TOLERANCE = 0.10

# Per-layer timings: metric name -> span name, reduced by p50 of durations.
LAYER_SPANS = {
    "discovery.discover_ms": "discovery.discover",
    "closure.extend_ms": "closure.extend",
    "normalize.key_derivation_ms": "normalize.key_derivation",
    "normalize.violation_detection_ms": "normalize.violation_detection",
    "normalize.decomposition_ms": "normalize.decomposition",
    "normalize.finish_ms": "normalize.finish",
    "live.initialize_ms": "live.initialize",
    "live.first_batch_ms": "live.first_batch",
    "live.apply_batch_ms.p50": "live.apply_batch",
    "live.materialize_ms": "live.materialize",
    "service.wal_append_ms": "service.wal_append",
    "relation.ingest_ms": "relation.ingest",
    "shard.discover_ms": "shard.discover",
}
# Per-layer counts, as the runner read them from the layers' stats().
LAYER_COUNTS = [
    "discovery.fds", "normalize.fd_keys",
    "live.full_validations", "live.guided_probes", "live.violations",
    "live.evidence_dropped", "live.evidence_reseated", "live.tree_rebuilds",
    "live.cover_fds", "service.wal_bytes_per_op", "service.checkpoints",
    "shard.cross_shard_violations", "shard.validated_candidates",
    "shard.exchanged_evidence_sets", "shard.cross_shard_comparisons",
]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds the runner; returns its path or None."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir)]
    if not (build_dir / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [configure, ["cmake", "--build", str(build_dir), "--target",
                         "perfbench_runner", "-j", str(os.cpu_count() or 2)]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed:", " ".join(step))
            return None
    return build_dir / "perfbench_runner"


def run_runner(runner, workload, seed, seconds, trace):
    tmp = runner.parent / f"tmp-{os.getpid()}-{workload}"
    cmd = [str(runner), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--tmp", str(tmp)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUNNER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: runner timed out")
        return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"perfbench: runner exited with {done.returncode}")
        return None
    return json.loads(lines[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw):
    ops = raw["op_ms"]
    op_seconds = sum(ops) / 1000.0
    tail = stats.tail(ops)
    if tail is None:
        raise ValueError("too few ops for a tail")
    tail_ms, tail_pct, tail_n = tail
    print(f"{raw['workload']}: op_ms.tail is p{tail_pct:.1f} of {tail_n} ops "
          f"({stats.TAIL_SAMPLES_BEYOND} beyond it); "
          f"{len(raw['schema_ms'])} schema reads; "
          f"{len(raw['setup_s'])} set-up samples")
    return {
        "setup_s": metric(stats.median(raw["setup_s"]), "s"),
        "op_ms.p50": metric(stats.median(ops), "ms"),
        "op_ms.tail": metric(tail_ms, "ms"),
        "rows_per_s": metric(raw["row_ops"] / op_seconds, "1/s"),
        "schema_ms.p50": metric(stats.median(raw["schema_ms"]), "ms"),
        "peak_rss_mb": metric(raw["peak_rss_mb"], "MB"),
        "success_ratio": metric(
            (raw["attempted"] - raw["failed"]) / raw["attempted"], "ratio"),
    }


def per_layer(raw):
    spans = raw["spans"]
    durations = stats.durations_by_name(spans)
    out = {}
    for name, span in LAYER_SPANS.items():
        out[name] = metric(stats.median(durations[span]), "ms")
    batches = durations["live.apply_batch"]
    # Off-path live probes replay too few batches for a tail; their slowest
    # batch stands in.
    batch_tail = stats.tail(batches)
    out["live.apply_batch_ms.tail"] = metric(
        batch_tail[0] if batch_tail else max(batches), "ms")
    acks = durations["service.ack"]
    out["service.overhead_ms"] = metric(
        stats.median(acks) - stats.median(batches), "ms")
    for name in LAYER_COUNTS:
        out[name] = metric(raw["counts"][name], "count")
    report_trace(raw)
    return out


def report_trace(raw):
    """Prints the blocking path's self times, their sum against the untraced
    op p50 of the same process, and the tracing overhead."""
    by_name = stats.self_times_by_name(raw["spans"])
    untraced = stats.median(raw["untraced_op_ms"])
    traced = stats.median(raw["op_ms"])
    print(f"{raw['workload']}: traced run, blocking path (self time p50):")
    layer_p50s = []
    for name in raw["blocking"]:
        p50 = stats.median(by_name[name])
        layer_p50s.append(p50)
        print(f"  {name:<28} {p50:10.2f} ms  ({len(by_name[name])} spans)")
    total, gap, ok = stats.layer_sum_check(layer_p50s, untraced,
                                           LAYER_SUM_TOLERANCE)
    print(f"  sum {total:.2f} ms vs untraced op_ms.p50 {untraced:.2f} ms: "
          f"{gap:+.1%} ({'within' if ok else 'OUTSIDE'} "
          f"±{LAYER_SUM_TOLERANCE:.0%})")
    print(f"  tracing overhead: traced op_ms.p50 {traced:.2f} ms / untraced "
          f"{untraced:.2f} ms = {traced / untraced:.3f} "
          f"({len(raw['op_ms'])} traced, {len(raw['untraced_op_ms'])} "
          f"untraced ops, interleaved)")


def result_line(raw, trace):
    metrics = per_layer(raw) if trace else end_to_end(raw)
    correct = raw["failed"] == 0
    return {"correct": correct, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    runner = build()
    if runner is None:
        return 1
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        raw = run_runner(runner, name, args.seed, args.seconds, args.trace)
        if raw is None:
            return 1
        results[name] = result_line(raw, args.trace)
        if args.workload == "all":
            for metric_name, m in results[name]["metrics"].items():
                print(f"  {name:<18} {metric_name:<34} {m['value']:14.4f} "
                      f"{m['unit']}")
    if args.workload == "all":
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
