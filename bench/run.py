"""Closed-loop benchmark of splinefollow.

Run one workload from the repository root:

    python3 bench/run.py --workload fig8_3r --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run instead.  The process exits 1 if any operation raised or
failed a check, and 2 if the workload cannot be set up.  See README.md.
"""

import os
import sys
import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END = {
    "setup_s": "s", "steps_per_s": "1/s", "control_ms_p50": "ms",
    "control_ms_p99": "ms", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "sim.self_ms": "ms", "sim.to_csv_s": "s",
    "control.step_self_ms": "ms", "control.resolve_input_ms": "ms",
    "projection.update_ms": "ms", "projection.iters_mean": "count",
    "projection.iters_max": "count", "projection.descent_steps": "count",
    "transform.linearize_self_ms": "ms", "frames.frame_jet_ms": "ms",
    "curves.jet_calls": "count", "curves.jet_us": "us",
    "curves.path_build_s": "s", "curves.arclength_tables_s": "s",
    "dynamics.plant_build_s": "s", "dynamics.acceleration_ms": "ms",
    "dynamics.acceleration_calls": "count", "dynamics.drift_and_input_ms": "ms",
    "dynamics.inertia_evals": "count", "setup.import_s": "s",
    "projection.global_init_ms": "ms", "trace.overhead_pct": "%",
}
# per-layer metrics of the portrait only: printed and saved with the
# traced run's table (n/a on the run workloads), left out of its result line
PER_LAYER_SOME = {"sim.portrait_self_s": "s", "sim.field_evals": "count"}
WORKLOAD_NAMES = ("fig8_3r", "twisted_4dof", "two_mass_line", "portrait_3r")
SETUPS = 3   # set-ups timed for setup_s: this process's and fresh interpreters'


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0,
                    help="picks the periods whose tracked point is checked")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="repeat whole operations until this much time passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit")
    return ap.parse_args(argv)


def fresh_setup_seconds(workload):
    """setup_s of the workload measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_ops(wl, pkg, args, rng, tracer, between):
    """Repeat whole operations and their checks for args.seconds.

    Untraced and traced operations alternate in a traced run.
    ``between()`` runs after each operation, outside the measured time,
    which spreads the repeats over a longer stretch of the machine's
    varying load.  Returns the number attempted, one record per completed
    operation (traced, periods, wall seconds, control.step latencies),
    the problems found per operation and the run-log digest.
    """
    from tracer import latency_wrapped, patched

    records, problems, first_digest = [], [], None
    measured = 0.0
    i = 0
    while True:
        t_op = time.perf_counter()
        traced = bool(args.trace) and i % 2 == 1
        calls = []
        if traced:
            block = tracer.installed(pkg, wl.system, wl.path)
        else:
            block = patched(latency_wrapped(pkg, calls))
        before = len(tracer.span_name)
        try:
            t0 = time.perf_counter()
            with block:
                wl.op()
            wall = time.perf_counter() - t0
            found, digest = wl.check(rng)
            first_digest = first_digest or digest
            if digest != first_digest:
                found.append(f"run log digest {digest} differs from {first_digest}")
        except Exception as exc:  # an operation that raises counts as failed
            wall, found = None, [f"{type(exc).__name__}: {exc}"]
        if found:
            problems.append((i, found))
        if wall is not None:
            periods = count_steps(tracer, before) if traced else len(calls)
            records.append((traced, periods, wall, calls))
            print(f"operation {i}{' traced' if traced else ''}: {periods} periods "
                  f"in {wall:.3f} s")
        i += 1
        measured += time.perf_counter() - t_op
        if measured >= args.seconds and (not args.trace or i % 2 == 0):
            return i, records, problems, first_digest
        between()


def count_steps(tracer, first_span):
    step = tracer.names.index("control.step")
    return sum(1 for n in tracer.span_name[first_span:] if n == step)


def end_to_end(records, setups):
    """End-to-end metrics of the untraced operations.

    The operations of a run are identical and deterministic.  On a shared
    machine, interference from other processes slows some repeats and not
    others, so the latency of each control period is the lowest among its
    repeats.  A period that is slow in every repeat (a hand-off, a
    descent) stays slow.
    """
    import numpy as np

    lat = 1e3 * np.min([calls for traced, _, _, calls in records if not traced], axis=0)
    return {
        "setup_s": statistics.median(setups),
        "steps_per_s": rate(records, traced=False),
        "control_ms_p50": float(np.percentile(lat, 50)),
        "control_ms_p99": float(np.percentile(lat, 99)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def rate(records, traced):
    """Control periods per second over the operations of one kind."""
    kind = [(n, wall) for t, n, wall, _ in records if t == traced]
    return sum(n for n, _ in kind) / sum(wall for _, wall in kind)


def main(argv=None):
    args = parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"   # read when numpy loads its BLAS, below
    if not (SRC / "splinefollow" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import splinefollow as pkg
    import_s = time.perf_counter() - t
    if Path(pkg.__file__).resolve().parent != (SRC / "splinefollow").resolve():
        print(f"bench: imported {pkg.__file__}, not the source tree", file=sys.stderr)
        return 2

    import numpy as np

    import workloads
    from tracer import Tracer

    try:
        wl = workloads.setup(args.workload)
    except (OSError, KeyError, ValueError, pkg.errors.SplineFollowError) as exc:
        print(f"bench: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rng = np.random.default_rng(args.seed)
    tracer = Tracer()
    setups = [setup_s]

    def fresh_setup():
        if not args.trace and len(setups) < SETUPS:
            setups.append(fresh_setup_seconds(args.workload))

    attempted, records, problems, digest = run_ops(wl, pkg, args, rng, tracer,
                                                   fresh_setup)
    failed = len(problems)
    for i, found in problems:
        for line in found:
            print(f"operation {i}: {line}")
    print(f"workload {args.workload}: {attempted} operations, {failed} failed, "
          f"run log digest {digest}")
    if not records:
        return 1

    if args.trace:
        metrics = trace_metrics(args, wl, tracer, records, import_s)
        units = PER_LAYER
    else:
        while len(setups) < SETUPS:
            fresh_setup()
        metrics = end_to_end(records, setups)
        units = END_TO_END
        print(f"set-up samples {', '.join(f'{s:.3f}' for s in setups)} s")
    for name, value in metrics.items():
        unit = units.get(name) or PER_LAYER_SOME[name]
        print(f"  {name:30s} {'n/a' if value is None else f'{value:.6g}'} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


def trace_metrics(args, wl, tracer, records, import_s):
    """Per-layer metrics of the traced operations, saved with the spans."""
    metrics = tracer.metrics(sum(1 for r in records if r[0]))
    metrics.update(wl.timings)
    metrics["setup.import_s"] = import_s
    metrics["trace.overhead_pct"] = 100.0 * (
        1.0 - rate(records, True) / rate(records, False))
    out = Path(wl.csv).parent
    tracer.save(out / f"{args.workload}.trace.npz")
    with open(out / f"{args.workload}.layers.json", "w") as f:
        json.dump(metrics, f, indent=2)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
