"""hyperline benchmark: one closed-loop, single-threaded workload per run.

    python3 perfbench/run.py --workload {engines,order,cli} \\
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --self-test

Run it from the root of a checkout; the library is imported from ./src.
A run sets up (import, seeded inputs, warm shared caches), then times whole
passes over the fixed batch until about S seconds have gone and at least
100 operations ran, then checks every output against perfbench/oracle.py.  The
last line of stdout is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

import tracing  # noqa: E402
import workloads  # noqa: E402

PROBES = 5  # fresh interpreters per median (setup_s, cli.interp_start_ms)
MIN_OPS = 100
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "peak_rss_mb": "MB"}


def setup(name, seed, sink=None):
    """Everything setup_s covers: imports, the seeded batch, the warm-up."""
    ops = workloads.WORKLOADS[name](seed, sink)
    if name == "cli":
        workloads.run_child(["wat", "--expr", "1# + eps_d - eps_d"])  # file cache
    else:
        workloads.warm_shared_caches()
    return ops


def probe_setup(name, seed) -> float:
    """Seconds from launching a fresh interpreter to the end of its setup."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, __file__, "--workload", name,
                             "--seed", str(seed), "--setup-probe"],
                            stdout=subprocess.PIPE, text=True, env=workloads.child_env())
    line = proc.stdout.readline()
    elapsed = perf_counter() - start
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return elapsed


def interp_start() -> float:
    """Seconds to start and stop a bare interpreter: the floor of setup_s and
    of every cli operation."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=workloads.child_env(), check=True)
    return perf_counter() - start


def measure(ops, seconds, tracer):
    """Time whole passes over `ops`; keep the first pass's outputs."""
    latencies, first, mismatched = [], [None] * len(ops), set()
    failed = 0
    start = perf_counter()
    passes, pass_s = 0, 0.0
    # stop at the pass boundary nearest to `seconds`, once MIN_OPS have run
    while (passes == 0 or len(latencies) < MIN_OPS
           or perf_counter() - start + pass_s / 2 < seconds):
        pass_start = perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op, tracer.enabled = i, True
                span = tracer.begin("op." + op.kind)
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failed operation: counted, reported
                out = exc
            latencies.append(perf_counter() - t0)
            if tracer is not None:
                tracer.end(span)
                tracer.enabled = False
            if isinstance(out, Exception):
                failed += 1
                key = ("failed", type(out).__name__, str(out))
            else:
                out = op.keep(out)
                key = ("ok", out)
            if passes == 0:
                first[i] = (out, key)
            elif key != first[i][1]:
                mismatched.add(i)
        passes += 1
        pass_s = perf_counter() - pass_start
    return latencies, failed, first, mismatched, passes


def run(args) -> dict:
    tracer = tracing.Tracer() if args.trace else None
    sink = [] if args.trace and args.workload == "cli" else None
    ops = setup(args.workload, args.seed, sink)
    if tracer is not None:
        tracer.install()
    latencies, failed, first, mismatched, passes = measure(ops, args.seconds, tracer)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))

    correct = not mismatched
    for i in sorted(mismatched):
        print(f"[{ops[i].label}] output changed between passes", file=sys.stderr)
    for op, (out, key) in zip(ops, first):
        if key[0] == "failed":
            print(f"[{op.label}] failed: {key[1]}: {key[2][:200]}", file=sys.stderr)
            continue
        problem = op.check(out)
        if problem:
            correct = False
            print(f"[{op.label}] wrong output: {problem}", file=sys.stderr)

    attempted = len(latencies)
    ops_per_s = attempted / sum(latencies)
    if args.trace:
        totals = Counter(tracer.totals())
        for stats in sink or ():
            tracing.merge(totals, {"cli.import_s": stats["import_s"],
                                   "cli.run_s": stats["run_s"],
                                   "cli.stdout_bytes": stats["stdout_bytes"]})
            tracing.merge(totals, stats.get("layers", {}))
        totals["cli.interp_start_s"] = statistics.median(
            interp_start() for _ in range(PROBES))
        values = tracing.layer_metrics(totals, attempted)
        values["trace.ops_per_s"] = ops_per_s
        units = tracing.LAYER_UNITS
    else:
        setup_s = statistics.median(probe_setup(args.workload, args.seed)
                                    for _ in range(PROBES))
        values = {"setup_s": setup_s, "ops_per_s": ops_per_s,
                  "latency_p50_ms": 1000 * statistics.median(latencies),
                  "latency_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8],
                  "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
    print(f"{args.workload} seed {args.seed}: {passes} passes of {len(ops)} operations,"
          f" {failed} failed", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(dict(result, labels=[op.label for op in ops], latencies_s=latencies), fh)
    return result


def self_test() -> int:
    """Each checker must pass the library's real output and reject a
    corrupted copy (flipped verdict, wrong M_0, shifted interval, ...)."""
    bad = 0
    for name in workloads.WORKLOADS:
        seen = set()
        for op in setup(name, 0):
            if op.kind in seen:
                continue
            try:
                out = op.keep(op.run())
            except Exception as exc:
                print(f"{name:8} {op.label}: fails ({type(exc).__name__}), not checked")
                continue
            seen.add(op.kind)
            real, forged = op.check(out), op.check(op.corrupt(out))
            ok = real is None and forged is not None
            bad += not ok
            print(f"{name:8} {op.kind:14} real: {real or 'accepted'}; corrupted: "
                  f"{forged or 'ACCEPTED'}{'' if ok else '  <-- FAIL'}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "hyperline")):
        print(f"error: no hyperline sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONINTMAXSTRDIGITS") or sys.flags.int_max_str_digits != -1:
        # lifting the 4300-digit limit would hide the to_dict failures
        print("error: the int-to-str digit limit must stay at its default", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
