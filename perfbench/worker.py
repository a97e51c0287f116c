"""One round of one workload, in a fresh Python process.

Started by run.py from the root of a cel checkout. It imports cel from
`src/`, builds the workload's inputs from the seed, runs the checked
operations once, and prints one JSON line with:

- when set-up ended, on the system-wide monotonic clock, so the parent can
  time from process start;
- each operation's time and the speed probe taken just before it;
- the peak resident set and the operation counts.

With --trace 1 the line carries the per-layer metrics as well, and the
spans are written to perfbench-out/.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
import traceback


def speed_probe(repeats=2):
    """Fastest of `repeats` runs of a fixed pure-Python loop, in seconds.

    The host's speed drifts within seconds; run.py divides each
    operation's time by the probe taken just before it."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        s = 0
        for i in range(100_000):
            s += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--round", type=int, default=0)
    args = parser.parse_args()

    probe_start = time.perf_counter()
    setup_probe = speed_probe(repeats=5)
    probe_time = time.perf_counter() - probe_start

    root = os.getcwd()
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import cel
    if not os.path.realpath(cel.__file__).startswith(os.path.join(src, "cel") + os.sep):
        sys.exit(f"cel was imported from {cel.__file__}, not from {src}")

    import tracing
    import workloads
    from oracles import CheckFailed

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    out_dir = os.path.join(root, "perfbench-out")
    scratch = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    setup, run = workloads.WORKLOADS[args.workload]
    counts = {"attempted": 0, "failed": 0, "incorrect": 0}
    op_seconds, op_probes = [], []

    def op(name, fn):
        counts["attempted"] += 1
        op_probes.append(speed_probe())
        start = time.perf_counter()
        try:
            fn()
        except CheckFailed as exc:
            counts["failed"] += 1
            counts["incorrect"] += 1
            print(f"[{args.workload}] {name}: check failed: {exc}", file=sys.stderr)
        except Exception:  # a crashing operation is counted, not fatal
            counts["failed"] += 1
            print(f"[{args.workload}] {name}: raised", file=sys.stderr)
            traceback.print_exc()
        op_seconds.append(time.perf_counter() - start)

    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    try:
        with span("setup"):
            inputs = setup(args.seed, scratch)
        ready = time.monotonic()
        with span("compute"):
            run(inputs, op)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = dict(counts, ready=ready, setup_probe=setup_probe, probe_time=probe_time,
                  wall_s=sum(op_seconds), op_seconds=op_seconds, op_probes=op_probes,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(os.path.join(out_dir, f"trace-{args.workload}-round{args.round}.jsonl"))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
