"""Benchmark of menger-surf's studies, run from the root of a source checkout.

    python3 perfbench/run.py --workload mc-energy --seed 1 --seconds 10 --trace 0

Each workload is a closed loop with one client in one process: it repeats a
fixed round of operations (calls into the package's public functions, each
gated by a check of its result) until ``--seconds`` have passed, finishing
the round it is in.  With ``--trace 0`` the last stdout line reports the
end-to-end metrics; with ``--trace 1`` it reports per-layer metrics from a
separate traced phase, and the spans go to ``perfbench/traces/``.  See
``perfbench/README.md`` for every metric and the layer map.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 2
SETUP_MIN_S = 3.0  # cheap set-ups repeat until they have taken this long
SETUP_MAX_REPEATS = 20
# Estimator workers in every timed round.  One worker: on a shared 2-CPU host
# a 2-worker pool waits on whichever CPU the host takes away, and its times
# spread far past the bounds.  The traced run measures 2 workers too.
THREADS = 1
PARALLEL_THREADS = 2  # nproc of the reference host


def _import_package():
    """Import menger_surf from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import menger_surf
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import menger_surf from {src}: {exc}")
    if src not in Path(menger_surf.__file__).resolve().parents:
        sys.exit(f"perfbench: menger_surf imported from outside {src}")


def _openblas_threads():
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def host_record():
    import numpy as np
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "openblas_threads": _openblas_threads(),
            "estimator_threads": THREADS}


def _declared_units(section):
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


class Tally:
    """Operations attempted and failed, with one stderr line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what, message):
        self.failed += 1
        print(f"FAIL {what}: {message}", file=sys.stderr, flush=True)


def run_rounds(ops, seconds, tally, times, tracer=None):
    """Repeat the round of ops until ``seconds`` have passed, at least once.

    The round in progress always finishes.  Each operation's time (checks
    excluded) is appended to ``times[op.name]``.  Returns the last result of
    each operation by name.
    """
    results = {}
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        for op in ops:
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a raising operation is a failed one
                out, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            times.setdefault(op.name, []).append(time.perf_counter() - t0)
            if error is None:
                if tracer is not None:
                    tracer.active = False
                error = op.check(out)
                if tracer is not None:
                    tracer.active = True
            if error is not None:
                tally.fail(op.name, error)
            results[op.name] = out
    return results


def round_time(times):
    """Time of a finished round: the sum of each operation's median time."""
    return sum(statistics.median(t) for t in times.values())


def _plain_call(name, fn, *args):
    return fn(*args)


def measure(name, workload, inputs, seconds, tally):
    """End-to-end metrics: repeated set-ups, with rounds run between them.

    The round budget is split over the first SETUP_REPEATS set-ups, so the
    rounds spread over the whole run and one slow spell of a shared host
    cannot set every sample.
    """
    import workloads
    setup_times, times = [], {}
    measured = 0.0
    while len(setup_times) < SETUP_REPEATS or (
            sum(setup_times) < SETUP_MIN_S
            and len(setup_times) < SETUP_MAX_REPEATS):
        env = None  # release the previous copy before building the next
        t0 = time.perf_counter()
        env = workload.setup(inputs, _plain_call)
        setup_times.append(time.perf_counter() - t0)
        due = seconds * len(setup_times) / SETUP_REPEATS - measured
        if len(setup_times) <= SETUP_REPEATS and due > 0:
            t0 = time.perf_counter()
            run_rounds(workload.ops(env, THREADS), due, tally, times)
            measured += time.perf_counter() - t0
    wall = round_time(times)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    # printed beside the gated metrics: see perfbench/README.md for why
    # these are not in BENCHMARK.json
    op_times = [t for ts in times.values() for t in ts]
    notes = {"rounds": len(next(iter(times.values()))),
             "setups": len(setup_times),
             "op_p50_s": statistics.median(op_times),
             "op_median_s": {k: round(statistics.median(v), 4)
                             for k, v in times.items()}}
    if name == "mc-energy":
        notes["quads_per_s"] = workloads.MC_SAMPLES * len(times) / wall
    elif name == "goodtetra":
        notes["search_p50_s"] = notes["op_p50_s"]
    elif name == "anneal":
        notes["ms_per_iter"] = 1e3 * wall / workloads.ANNEAL_ITERS_PER_ROUND
    return metrics, notes


def measure_traced(name, workload, inputs, seconds, tally, trace_path):
    """Untraced rounds, then traced rounds; per-layer metrics from the spans.

    For mc-energy a threads=2 phase runs in between: it gives
    ``energy.speedup_2t`` and must reproduce the threads=1 estimates bit for
    bit.
    """
    import spans
    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    env = workload.setup(inputs, tracer.span)
    tracer.active = False
    tracer.uninstall()
    setup_spans = list(tracer.spans)
    tracer.spans.clear()

    mc = name == "mc-energy"
    share = seconds / (3 if mc else 2)
    plain, parallel, traced = {}, {}, {}
    results_1t = run_rounds(workload.ops(env, THREADS), share, tally, plain)
    speedup = 0.0
    if mc:
        results_2t = run_rounds(workload.ops(env, PARALLEL_THREADS), share,
                                tally, parallel)
        speedup = round_time(plain) / round_time(parallel)
        for op_name, est in results_1t.items():
            tally.attempted += 1
            other = results_2t.get(op_name)
            if est is None or other is None or (est.value, est.std_error) != (
                    other.value, other.std_error):
                tally.fail(op_name, "threads=1 and threads=2 estimates differ")

    ops = workload.ops(env, THREADS)
    tracer.install()
    tracer.active = True
    try:
        run_rounds(ops, share, tally, traced, tracer)
    finally:
        tracer.active = False
        tracer.uninstall()

    seen = spans.layers_seen(tracer.spans)
    missing = [layer for layer in spans.EXPECTED_LAYERS[name]
               if not seen.get(layer)]
    if missing:
        sys.exit(f"perfbench: traced run recorded no spans for {missing}")

    rounds = len(next(iter(traced.values())))
    metrics = spans.layer_metrics(setup_spans, tracer.spans, rounds)
    metrics["energy.speedup_2t"] = speedup
    metrics["trace.overhead_frac"] = round_time(traced) / round_time(plain) - 1.0
    trace_path.parent.mkdir(exist_ok=True)
    tracer.spans[:0] = setup_spans
    tracer.write(trace_path)
    return metrics, {"spans": len(tracer.spans), "layers": seen}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    _import_package()
    import numpy as np
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    if not args.seconds > 0:
        sys.exit("perfbench: --seconds must be positive")
    workload = workloads.WORKLOADS[args.workload]

    print("host " + json.dumps(host_record()), flush=True)
    tally = Tally()
    rng = np.random.default_rng(args.seed)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".work-") as work:
        inputs = workload.inputs(rng, Path(work))
        if args.trace:
            path = BENCH_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"
            metrics, notes = measure_traced(args.workload, workload, inputs,
                                            args.seconds, tally, path)
        else:
            metrics, notes = measure(args.workload, workload, inputs,
                                     args.seconds, tally)

    declared = _declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(declared):
        sys.exit("perfbench: measured metrics differ from BENCHMARK.json: "
                 f"{sorted(set(metrics) ^ set(declared))}")
    notes["ops_failed_frac"] = tally.failed / tally.attempted
    for key, value in notes.items():
        print(f"{key} {value}")
    for key, unit in declared.items():
        print(f"{key} {metrics[key]:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u}
                    for k, u in declared.items()},
    }), flush=True)


if __name__ == "__main__":
    main()
