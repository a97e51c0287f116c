"""Benchmark for cel: four workloads, each checked against references
computed apart from cel.

Run from the root of a cel checkout:

    python3 perfbench/run.py --workload surfaces --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # all four workloads, default seed

Each round of a workload runs in a fresh Python process (worker.py). Set-up
is timed from process start through `import cel` and building the seeded
inputs; then each checked operation is timed once. Rounds repeat until the
next one would end past --seconds, with at least MIN_ROUNDS rounds. Times
are scaled by the speed probe taken just before them (see README.md).
`wall_s` sums each operation's fastest scaled time over the rounds; the
other metrics are medians over the rounds. The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics of tracing.py with
--trace 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("surfaces", "widths", "links", "bending_descent")
MIN_ROUNDS = 3
ROUND_TIMEOUT = 150.0      # seconds; one round takes 3-8 s on a 2-core machine
RUN_LIMIT = 170.0          # a run must end within 180 s
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Timings are reported at the host speed where worker.speed_probe takes
# this long (its fastest time on the 2-core Xeon host described in README).
REFERENCE_PROBE_S = 0.006


def run_round(workload, seed, trace, index):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--round", str(index)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=ROUND_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload} round {index} timed out")
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} round {index} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("ready") - start - result.pop("probe_time")
    print(f"{workload} round {index}: setup_s {result['setup_s']:.4f}, "
          f"wall_s {result['wall_s']:.4f}, peak_rss_mb {result['peak_rss_mb']:.1f}, "
          f"speed probe {result['setup_probe']:.4f} (unscaled)", file=sys.stderr)
    return result


def run_workload(workload, seed, seconds, trace):
    rounds = []
    start = time.monotonic()
    while True:
        rounds.append(run_round(workload, seed, trace, len(rounds)))
        elapsed = time.monotonic() - start
        per_round = elapsed / len(rounds)
        if elapsed + per_round > RUN_LIMIT:
            break
        if len(rounds) >= MIN_ROUNDS and elapsed + per_round > seconds:
            break
    # each operation's fastest scaled time over the rounds, summed
    scaled = [[t * REFERENCE_PROBE_S / p for t, p in zip(r["op_seconds"], r["op_probes"])]
              for r in rounds]
    wall = sum(min(times) for times in zip(*scaled))
    if trace:
        metrics = {n: statistics.median(r["layers"][n] for r in rounds)
                   for n in rounds[0]["layers"]}
        metrics["trace.wall_s"] = wall
        units = tracing.METRICS
    else:
        metrics = {"setup_s": statistics.median(
                       r["setup_s"] * REFERENCE_PROBE_S / r["setup_probe"] for r in rounds),
                   "wall_s": wall,
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds)}
        units = END_TO_END
    return {
        "correct": all(r["incorrect"] == 0 for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        "rounds": len(rounds),
    }


def report(workload, res):
    print(f"{workload}: {res['rounds']} rounds, attempted {res['attempted']}, "
          f"failed {res['failed']}, correct {str(res['correct']).lower()}")
    for name, m in res["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6f} {m['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "cel", "__init__.py")):
        sys.exit("run from the root of a cel checkout: src/cel is missing")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace)
                   for w in names}
    except RuntimeError as exc:
        sys.exit(f"benchmark failed: {exc}")
    for w, res in results.items():
        report(w, res)
    if len(names) == 1:
        res = results[names[0]]
        metrics = res["metrics"]
    else:
        metrics = {f"{w}.{n}": m for w, res in results.items()
                   for n, m in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
