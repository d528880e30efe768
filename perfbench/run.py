"""Layer-timed benchmark of detrep: solve, oracle and exact verification.

Run from the repository root:

    python3 perfbench/run.py --workload solve-small --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --check

One closed-loop caller in one process runs the workload's rounds until
``--seconds`` have passed (always at least one whole round), checks every
output, and prints one JSON object as the last line of standard output:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Details (environment, per-degree numbers, path histogram,
failures) go to ``perfbench/results/``; a traced run also writes its
spans there.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

# BLAS threads per workload.  solve-large runs at 2 threads on purpose: the
# d=15 s=0 smoke system loses a root only there (see README).
THREADS = {"solve-small": 1, "solve-large": 2, "represent": 1}
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 120
E2E_UNITS = {
    "setup_s": "s",
    "latency_ms": "ms",
    "throughput_per_s": "1/s",
    "check_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class HarnessError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed gate)."""


def pin_threads(count: int) -> None:
    """Must run before numpy is first imported in this process."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(count)


def import_program():
    """Import detrep from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "detrep", "__init__.py")):
        raise HarnessError(f"no detrep sources under {SRC}")
    sys.path.insert(0, SRC)
    import detrep

    if not os.path.abspath(detrep.__file__).startswith(SRC + os.sep):
        raise HarnessError(f"detrep was imported from {detrep.__file__}, not from {SRC}")
    import workloads

    return workloads


def measure_setup(degrees) -> list[float]:
    """Set-up time of SETUP_RUNS fresh processes (see setup_probe.py)."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), *map(str, degrees)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise HarnessError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_one(workload, item, system: int, tracer=None) -> dict:
    """Run and check one item; its record carries the wall time of the whole item."""
    # each item starts from a clean heap, so a full collection that earlier
    # items' garbage would trigger is not charged to this one
    gc.collect()
    if tracer is not None:
        tracer.current_system = system
    t0 = perf_counter()
    try:
        record = workload.run_item(item)
    except Exception:  # a crash of the program is a failed operation, not a harness error
        record = {"kind": item.kind, "params": list(item.params), "failed": True, "wrong": False,
                  "crashed": True, "reasons": [traceback.format_exc()]}
        print(f"perfbench: {item} raised\n{record['reasons'][0]}", file=sys.stderr)
    record["wall_s"] = perf_counter() - t0
    record["system"] = system
    return record


def run_rounds(workload, rounds, seconds: float, tracer=None):
    """Run whole rounds until ``seconds`` have passed; returns (records, items run)."""
    records, items_run = [], []
    t0 = perf_counter()
    for items in rounds:
        for item in items:
            records.append(run_one(workload, item, len(records), tracer))
        items_run += items
        if perf_counter() - t0 >= seconds:
            break
    return records, items_run


def quick_round(rounds, per_kind: int):
    """The first ``per_kind`` items of each kind in the first round."""
    items, seen = [], {}
    for item in next(iter(rounds)):
        seen[item.kind] = seen.get(item.kind, 0) + 1
        if seen[item.kind] <= per_kind:
            items.append(item)
    return [items]


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        try:
            return str(module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"])
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    return {
        "workload": workload,
        "seed": seed,
        "blas_threads": THREADS[workload],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy),
        "openblas_scipy": blas(scipy),
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_metrics(tracer, records, workloads_mod, tracer_mod) -> dict:
    table = tracer.layer_table()
    empty = {"calls": 0, "self_s": 0.0, "raised": 0, "n3": 0}
    metrics = {}
    for layer in tracer_mod.LAYERS:
        row = table.get(layer, empty)
        metrics[f"{layer}.calls"] = (row["calls"], "count")
        metrics[f"{layer}.self_s"] = (row["self_s"], "s")
    for kernel in tracer_mod.KERNELS:
        metrics[f"{kernel}.n3"] = (table.get(kernel, empty)["n3"], "n3")
    stair = table.get("twopareig.staircase", empty)
    metrics["twopareig.staircase.raised"] = (stair["raised"], "count")
    returned = stair["calls"] - stair["raised"]
    metrics["twopareig.staircase.useful_ratio"] = (returned / stair["calls"] if stair["calls"] else 0.0, "ratio")
    for path in workloads_mod.PATHS:
        metrics[f"path.{path}"] = (sum(r.get("path") == path for r in records), "count")
    return metrics


def run(args) -> dict:
    workloads = import_program()
    import tracer as tracer_mod

    workload = workloads.WORKLOADS[args.workload]
    env = environment(args.workload, args.seed)
    setup_times = measure_setup(workload.warm_degrees)
    twopareig = workloads.twopareig
    for d in workload.warm_degrees:
        twopareig._cached_rep(d, "minunif")
    workload.run_item(workload.warmup)
    gc.freeze()  # keep import-time objects out of the collections the runs trigger

    def rounds():
        source = workload.rounds(args.seed)
        return quick_round(source, args.items) if args.items else source

    detail = {"environment": env, "setup_s_runs": setup_times}
    if not args.trace:
        records, _ = run_rounds(workload, rounds(), args.seconds)
        checked = records
    else:
        tracer = tracer_mod.Tracer()
        with tracer.patched():
            records, items_run = run_rounds(workload, rounds(), args.seconds, tracer)
        # The same items again, untraced, until --seconds have passed (whole
        # items, not whole rounds, so a traced solve-large run stays well
        # inside its time limit); the difference is the tracing overhead.
        reference = []
        t0 = perf_counter()
        for item in items_run:
            reference.append(run_one(workload, item, len(reference)))
            if perf_counter() - t0 >= args.seconds:
                break
        traced_wall = sum(r["wall_s"] for r in records[:len(reference)])
        untraced_wall = sum(r["wall_s"] for r in reference)
        checked = records + reference
        solve_tree = tracer.tree_check("twopareig.solve")
        if abs(solve_tree["span_s"] - solve_tree["self_sum_s"]) > 1e-9 * (1.0 + solve_tree["span_s"]):
            raise HarnessError(f"self times do not add up to the solve spans: {solve_tree}")
        metrics = layer_metrics(tracer, records, workloads, tracer_mod)
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        metrics["trace.solve_span_s"] = (solve_tree["span_s"], "s")
        detail.update(overhead={"items": len(reference), "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall},
                      solve_tree=solve_tree)
    named = workload.summarize(records)
    named["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    named["setup_s"] = (statistics.median(setup_times), "s", len(setup_times))
    if not args.trace:
        source = {"setup_s": "setup_s", "latency_ms": workload.latency, "throughput_per_s": workload.throughput,
                  "check_p50_ms": workload.check, "peak_rss_mb": "peak_rss_mb"}
        metrics = {name: (named[source[name]][0], unit) for name, unit in E2E_UNITS.items()}

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{int(args.trace)}")
    if args.trace:
        tracer.save(stem + "-spans.npz")
    detail.update(named={k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in named.items()},
                  details=workload.details(records), records=records,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh, indent=1, default=str)

    print("environment " + json.dumps(env))
    for name, (value, unit, samples) in named.items():
        print(f"{args.workload} {name} {value:.6g} {unit} (n={samples})")
    for failure in detail["details"]["failures"]:
        print(f"{args.workload} failed: {json.dumps(failure, default=str)}")
    return {
        "correct": not any(r.get("wrong") for r in checked),
        "attempted": len(records),
        "failed": sum(bool(r["failed"]) for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def self_check() -> int:
    """Each workload on the first input of each kind, untraced and traced, in fresh processes."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    status = 0
    for name in THREADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", "0",
                   "--seconds", "0", "--trace", str(trace), "--items", "1"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            problem = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}" if proc.returncode else None
            if problem is None:
                result = json.loads(lines[-1])
                if set(result["metrics"]) != wanted[trace]:
                    problem = f"metric names differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ wanted[trace])}"
                elif not result["correct"]:
                    problem = "an output was wrong"
            print(f"{name} trace={trace}: {'ok' if problem is None else problem}"
                  + ("" if problem else f" ({result['attempted']} items, {result['failed']} failed)"))
            status |= problem is not None
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(THREADS))
    parser.add_argument("--seed", type=int, default=0, help="seed base; 0 reproduces the tier-1 seeds")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", type=int, default=0, help="run only the first N items of each kind")
    parser.add_argument("--check", action="store_true", help="quick self-check of every workload")
    args = parser.parse_args(argv)
    if args.check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    pin_threads(THREADS[args.workload])
    try:
        result = run(args)
    except (HarnessError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
