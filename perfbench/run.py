"""Benchmark of the `origamis` library: seeded workloads, end-to-end metrics,
and a traced run for per-layer metrics.

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 33 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout: the library is imported from ``src/``.  Each
pass of a workload runs in its own fresh, single-threaded interpreter
(perfbench/child.py): set-up (import, input generation, warm-up), then the
workload's fixed job list.  Passes run one after another until the next one
would not end within ``--seconds`` (at least two), and extra set-up-only
children bring the set-up samples to five.

``--trace 0`` reports the end-to-end metrics: medians over passes of wall_s,
setup_s and peak_rss_mb, and p50/p90 over the ops of the job list, each op's
latency being its median over the passes.  Times are in reference seconds
(see speed.py); the table also shows the raw ones.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead (traced
minus untraced wall_s).  Tracing never feeds an end-to-end metric.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}; the line before it records seed, Python, nproc and the package
version.  A table goes to stderr (to stdout for ``--workload all``).  The exit
code is 1 when any check failed, 2 when a pass could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("orbit", "census", "flow")
MIN_PASSES = 2
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170  # every run must end well within 180 s

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class PassFailed(RuntimeError):
    pass


def run_child(workload, seed, mode, trace, tmp, deadline):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--trace", str(trace), "--tmp", tmp]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{workload} {mode} child did not finish in time") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise PassFailed(f"{workload} {mode} child exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace):
    """All passes of one workload run; returns (result line, details)."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    passes = []
    try:
        while True:
            traced = bool(trace) and len(passes) % 2 == 1
            t0 = time.monotonic()
            passes.append(run_child(workload, seed, "pass", int(traced), tmp, deadline))
            took = time.monotonic() - t0
            elapsed = time.monotonic() - start
            if len(passes) >= MIN_PASSES and elapsed + took > seconds:
                break
        setups = [p["setup_s"] for p in passes if not p["traced"]]
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append(run_child(workload, seed, "setup", 0, tmp, deadline)["setup_s"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    bases = {}
    samples = {}
    if trace:
        metrics, bases = layer_report(traced, plain)
    else:
        # every pass runs the same ops in the same order; an op's latency is
        # its median over the passes, which damps the host's speed jitter
        ops = [statistics.median(lat) for lat in zip(*(p["op_ms"] for p in plain), strict=True)]
        deciles = statistics.quantiles(ops, n=10, method="inclusive")
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median(setups),
            "op_p50_ms": statistics.median(ops),
            "op_p90_ms": deciles[8],
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        samples = {"wall_s": len(plain), "setup_s": len(setups), "op_p50_ms": len(ops), "op_p90_ms": len(ops),
                   "peak_rss_mb": len(plain)}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    details = {
        "passes": len(passes),
        "fail_share": failed / attempted if attempted else 1.0,
        "failures": [f for p in passes for f in p["failures"]][:10],
        "version": passes[0]["version"],
        "rows": traced[0]["rows"] if traced else None,
        "samples": samples,
        "bases": bases,
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in plain),
        "pass_walls": [p["wall_s"] for p in passes],
        "raw_setup_s": statistics.median(p["raw_setup_s"] for p in plain),
    }
    return result, details


def layer_report(traced, plain):
    """Per-layer metrics, medians over traced passes, and the tracing overhead.

    Times of a traced pass are scaled by that pass's ratio of reference to
    raw seconds; per-crossing times come from the first untraced pass.
    """
    untraced = {"crossings": plain[0]["extra"].get("crossings", {}), "by_name": plain[0]["by_name"]}
    per_pass = []
    for p in traced:
        scale = p["wall_s"] / p["raw_wall_s"] if p["raw_wall_s"] else 1.0
        layers, bases = layer_metrics(p["rows"], {**p["extra"], **untraced})
        per_pass.append({k: (v * scale if unit == "s" else v, unit) for k, (v, unit) in layers.items()})
    metrics = {
        name: {"value": statistics.median(m[name][0] for m in per_pass), "unit": unit}
        for name, (_, unit) in per_pass[0].items()
    }
    overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(p["wall_s"] for p in plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    bases["trace.overhead_s"] = "traced minus untraced wall_s, medians over passes"
    return metrics, bases


def info(seed, version):
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "version": version,
    }


def table(workload, result, details, out):
    print(f"== {workload}: {details['passes']} passes, fail_share {details['fail_share']:.4g} "
          f"({result['failed']}/{result['attempted']})", file=out)
    for name, m in result["metrics"].items():
        note = f"  n={details['samples'][name]}" if name in details["samples"] else ""
        if name in details["bases"]:
            note = f"  ({details['bases'][name]})"
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}{note}", file=out)
    print(f"  (raw seconds, not speed-normalised: wall {details['raw_wall_s']:.4g}, "
          f"setup {details['raw_setup_s']:.4g}; wall per pass "
          + " ".join(f"{w:.4g}" for w in details["pass_walls"]) + ")", file=out)
    for f in details["failures"]:
        print(f"  FAILED {f}", file=out)
    if details["rows"]:
        print("  top rows of the traced pass (self time):", file=out)
        for r in details["rows"][:12]:
            print(f"    {r['name']:40s} <- {str(r['parent']):32s} calls={r['calls']:<9d} self={r['self_s']:.4f}s",
                  file=out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=33)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    out = sys.stdout if args.workload == "all" else sys.stderr
    results = {}
    try:
        for name in names:
            result, details = measure(name, args.seed, args.seconds, args.trace)
            table(name, result, details, out)
            results[name] = result
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info(args.seed, details["version"])))
    if args.workload == "all":
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        line = results[args.workload]
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
