"""Seeded end-to-end and per-layer benchmark for gridppm.

Usage, from the repository root:

    python3 bench/run.py --workload match --seed 1 --seconds 25 --trace 0

One process, one thread, one client in a closed loop: each operation
starts when the previous one (and its untimed answer check) has ended.
The script builds its inputs from the seed, sets them up several times
(``setup_s`` is the median), then runs whole passes over the operations
until the timed operations add up to ``--seconds``.  Every set-up and
operation runs under ``speed.Sampler``, and the reported times are
normalised to a reference host speed (see ``speed.py``): an operation
counts with its median normalised time over the passes, ``ops_per_s`` is
the operations of one pass over the sum of those times, ``op_ms_p50``
their median.  The raw times are in the facts line.  Every answer is
checked by the benchmark's own code.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` it runs each operation once untraced and once traced and
reports per-layer self times, call counts and
counters, plus the tracing overhead.  The line before the last holds the
run facts (Python version, nproc, load average, seed, operation counts,
error rate, sample counts).
"""

import argparse
import collections
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback

import spans
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up is measured SETUP_RUNS times and ``setup_s`` is the median.  A
# set-up shorter than SETUP_MIN_BATCH_S is repeated within each
# measurement until it lasts that long, so a set-up of microseconds still
# yields a steady figure and the collection before each measurement
# weighs little.
SETUP_RUNS = 3
SETUP_MIN_BATCH_S = 0.2
# Each operation is timed once per pass and counts with its median
# normalised time over the passes.
MIN_PASSES = 2
COVERAGE_TOLERANCE = 0.05


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_library():
    """Load gridppm from the checkout's ``src``; every module, so the
    tracer guard can see each importer."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import gridppm.cli  # noqa: F401  (loads every library module)
    if not os.path.abspath(gridppm.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"gridppm was loaded from {gridppm.cli.__file__}")


def run_op(op, sampler=None, tracer=None, op_id=None):
    """Time one operation, then check its answer outside the timed
    region.  Returns (speed.Call, ok, text points).  With a sampler the
    operation runs under it; without, the call's ``net_s`` is its wall
    time."""
    result, ok = None, False
    timing = sampler.timing() if sampler else speed.wall_timing()
    if tracer is not None:
        tracer.begin_op(op_id)
    try:
        with timing as call:
            result = op.run()
        ok = True
    except Exception:
        traceback.print_exc()
    finally:
        if tracer is not None:
            tracer.end_op()
    if not ok:
        return call, False, 0
    try:
        return call, bool(op.check(result)), op.text_points(result)
    except Exception:
        traceback.print_exc()
        return call, False, 0


def _measure(ops, seconds):
    """Whole passes over the operations, at least MIN_PASSES of them,
    until the timed operations add up to ``seconds``.  Returns each
    operation's (seconds, normalised seconds) per pass, the failures and
    one pass's text points."""
    sampler = speed.Sampler()
    calls = [[] for _ in ops]
    failed, elapsed_total, passes = 0, 0.0, 0
    while passes < MIN_PASSES or elapsed_total < seconds:
        # every pass starts from the same heap, so the collector's
        # passes fall alike in each pass
        gc.collect()
        points = 0
        for k, op in enumerate(ops):
            call, ok, size = run_op(op, sampler)
            calls[k].append(call)
            elapsed_total += call.net_s
            failed += not ok
            points += size
        passes += 1
    times = [[(c.net_s, sampler.normalised_s(c)) for c in cs] for cs in calls]
    return times, failed, points


def _setup(make, seed, workdir):
    """Build the operations SETUP_RUNS times, each time ``reps`` times in
    a row.  Returns the operations, each measurement's (seconds,
    normalised seconds) per set-up, and ``reps``.  A first set-up that
    is shorter than SETUP_MIN_BATCH_S only sets ``reps`` and is not
    counted."""
    sampler = speed.Sampler()
    calls, reps = [], 1
    while len(calls) < SETUP_RUNS:
        gc.collect()
        with sampler.timing() as call:
            for _ in range(reps):
                ops = make(seed, workdir)
        if not calls and reps == 1 and call.net_s < SETUP_MIN_BATCH_S:
            reps = math.ceil(SETUP_MIN_BATCH_S / max(call.net_s, 1e-6))
            continue
        calls.append(call)
    times = [(c.net_s / reps, sampler.normalised_s(c) / reps) for c in calls]
    return ops, times, reps


def _trace(ops, out_path):
    """One pass in which every operation runs untraced and traced, back
    to back, so the overhead is measured at one host speed.  The order
    alternates between operations, so a second run's warm caches favour
    neither side."""
    untraced, traced_times, failed = [], [], 0
    tracer = spans.Tracer()
    for k, op in enumerate(ops):
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            gc.collect()
            if not traced:
                call, ok, _ = run_op(op)
                untraced.append(call.net_s)
            else:
                tracer.install()
                try:
                    call, ok, _ = run_op(op, tracer=tracer, op_id=k)
                finally:
                    tracer.uninstall()
                traced_times.append(call.net_s)
            failed += not ok
    tracer.write(out_path)
    metrics = spans.layer_metrics(tracer.spans, tracer.counters)
    wall_ms = sum(traced_times) * 1000.0
    own_ms = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    metrics["trace.wall_ms"] = wall_ms
    metrics["trace.unattributed_ms"] = wall_ms - own_ms
    metrics["trace.overhead_ms"] = wall_ms - sum(untraced) * 1000.0
    if abs(wall_ms - own_ms) > COVERAGE_TOLERANCE * wall_ms:
        raise SystemExit(
            f"bench: layer self times add up to {own_ms:.1f} ms, more than "
            f"{COVERAGE_TOLERANCE:.0%} away from the traced wall time "
            f"{wall_ms:.1f} ms")
    return metrics, untraced + traced_times, failed


def _units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = _parse(argv)
    try:
        _import_library()
    except ImportError as exc:
        sys.stderr.write(f"bench: cannot import gridppm from "
                         f"{os.path.join(ROOT, 'src')}: {exc}\n")
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    units = _units(args.trace)
    facts = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "python": platform.python_version(), "nproc": os.cpu_count(),
             "loadavg_1m": os.getloadavg()[0],
             "client": "closed loop, 1 client, 1 thread"}
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        ops, setup_times, reps = _setup(
            workloads.WORKLOADS[args.workload], args.seed, workdir)
        facts["setup_runs"] = f"{len(setup_times)} x {reps}"
        facts["ops_per_pass"] = collections.Counter(op.label for op in ops)
        if args.trace:
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans_path = os.path.join(
                out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            values, times, failed = _trace(ops, spans_path)
            facts["spans_file"] = os.path.relpath(spans_path, ROOT)
        else:
            per_op, failed, points = _measure(ops, args.seconds)
            times = [t for ts in per_op for t in ts]
            raw = [statistics.median(t for t, _ in ts) for ts in per_op]
            norm = [statistics.median(n for _, n in ts) for ts in per_op]
            facts["passes"] = len(per_op[0])
            facts["op_ms_samples"] = len(norm)
            facts["raw"] = {
                "setup_s": statistics.median(t for t, _ in setup_times),
                "ops_per_s": len(ops) / sum(raw),
                "op_ms_p50": statistics.median(raw) * 1000.0,
                "snippet_ms": speed.REFERENCE_SNIPPET_S * 1000.0
                * sum(raw) / sum(norm)}
            values = {
                "setup_s": statistics.median(n for _, n in setup_times),
                "ops_per_s": len(ops) / sum(norm),
                "op_ms_p50": statistics.median(norm) * 1000.0,
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "text_points": points,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    facts["ops_attempted"] = len(times)
    facts["ops_failed"] = failed
    facts["error_rate"] = failed / len(times)
    print(json.dumps({"facts": facts}, sort_keys=True))
    result = {"correct": failed == 0, "attempted": len(times),
              "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
