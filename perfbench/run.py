"""anchorkit benchmark: one seeded workload, measured in one fresh process.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-d10 --seed 0 --seconds 56 --trace 0

The workload runs as a closed loop with one caller, execution after
execution, until ``--seconds`` would be exceeded (at least three
executions).  With ``--trace 0`` it reports the end-to-end metrics
(``wall_s`` sums each package call's fastest time in the run); with
``--trace 1`` it alternates untraced and traced executions and reports the
per-layer metrics from the spans (see README.md).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record, with the
environment, goes to ``perfbench/out/``.
"""
from __future__ import annotations

import os

#: BLAS threads, pinned before numpy loads; one is no larger than any
#: host's nproc and keeps the d=1000 matvecs off a contended second core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh processes timed for setup_s in each untraced run, spread over the
#: measured loop: each CPU of the shared host changes speed every few
#: seconds, and samples taken in one batch see only one or two of those
#: speeds
SETUP_SAMPLES = 9
MIN_EXECUTIONS = 3
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "oracle_calls": "count",
}
PER_LAYER_UNITS = {
    "problems.generate_s": "s",
    "operators.forward_calls": "count",
    "operators.forward_us": "us",
    "operators.resolvent_affine_calls": "count",
    "operators.resolvent_affine_us": "us",
    "operators.resolvent_prox_calls": "count",
    "operators.resolvent_prox_us": "us",
    "operators.inner_solves": "count",
    "operators.inner_evals": "count",
    "operators.inner_solve_us": "us",
    "operators.unbilled_frac": "frac",
    "algorithms.runs": "count",
    "algorithms.iterations": "count",
    "algorithms.iters_per_s": "1/s",
    "algorithms.step_us": "us",
    "algorithms.run_p50_ms": "ms",
    "algorithms.run_p95_ms": "ms",
    "algorithms.run_samples": "count",
    "algorithms.trace_mb": "MB",
    "analysis.self_s": "s",
    "analysis.reference_s": "s",
    "cli.self_s": "s",
    "cli.csv_s": "s",
    "cli.csv_mb": "MB",
    "traced.overhead_frac": "frac",
}


def load_package() -> None:
    """Put the checkout's ``src`` first on the import path; fail without a
    result when the sources are not there."""
    if not (SRC / "anchorkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no anchorkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import anchorkit
    if Path(anchorkit.__file__).resolve().parent != SRC / "anchorkit":
        raise SystemExit(f"perfbench: imported anchorkit from "
                         f"{anchorkit.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        return config.get("Build Dependencies", {}).get("blas", {})

    np_blas = blas(numpy.show_config(mode="dicts"))
    sp_blas = blas(scipy.show_config(mode="dicts"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{np_blas.get('name')} {np_blas.get('version')}",
        "scipy_blas": f"{sp_blas.get('name')} {sp_blas.get('version')}",
    }


def make_workload(args):
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    return workloads.WORKLOADS[args.workload](args.seed, OUT)


# ---------------------------------------------------------------------------
# set-up time


def setup_only(args) -> int:
    """Child mode: set up the workload, print when set-up ended, clean up."""
    load_package()
    workload = make_workload(args)
    try:
        workload.warm_up()
        workload.generate()
        print(json.dumps({"ready": time.monotonic()}))
    finally:
        workload.close()
    return 0


def measure_setup(args, count: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to the end of its set-up
    (import, inputs, warm-up), ``count`` times; CLOCK_MONOTONIC is shared
    by all processes."""
    samples = []
    for _ in range(count):
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            check=False)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up child failed:\n{proc.stderr}")
        ready = json.loads(proc.stdout.strip().splitlines()[-1])["ready"]
        samples.append(ready - spawned)
    return samples


# ---------------------------------------------------------------------------
# measured loop


def timed_execution(workload, inputs, tracer=None):
    """(execution, seconds including checks, layer stats or None)."""
    import spans
    began = time.perf_counter()
    if tracer is None:
        execution = workload.execute(inputs)
        return execution, time.perf_counter() - began, None
    tracer.install()
    try:
        execution = workload.execute(inputs)
    finally:
        tracer.uninstall()
    stats = spans.layer_stats(tracer)
    return execution, time.perf_counter() - began, stats


def measure(args, workload, inputs, setup=None):
    """Execute until ``--seconds`` would be exceeded; with ``--trace 1``
    every second execution is traced.  Given a list ``setup``, set-up
    samples are added to it between executions, in step with the run's
    progress, and their time does not count towards ``--seconds``.
    Returns (execution, layer stats or None) per execution and the tracer
    of the last traced one."""
    import spans
    done, durations, last_tracer = [], {False: [], True: []}, None
    began, paused = time.perf_counter(), 0.0
    while True:
        traced = bool(args.trace) and len(done) % 2 == 1
        tracer = spans.Tracer() if traced else None
        execution, seconds, stats = timed_execution(workload, inputs, tracer)
        done.append((execution, stats))
        durations[traced].append(seconds)
        last_tracer = tracer or last_tracer
        elapsed = time.perf_counter() - began - paused
        if setup is not None:
            due = min(SETUP_SAMPLES,
                      round(SETUP_SAMPLES * elapsed / args.seconds))
            pause = time.perf_counter()
            setup += measure_setup(args, due - len(setup))
            paused += time.perf_counter() - pause
        longest = max(statistics.median(d) for d in durations.values() if d)
        if len(done) >= MIN_EXECUTIONS and elapsed + longest > args.seconds:
            return done, last_tracer


def fastest_calls_s(executions) -> float:
    """Sum over one execution's package calls of each call's fastest time
    across the run's executions.

    The shared host's speed moves from second to second and from minute to
    minute by up to 1.6x.  A call's fastest repetition is the one that
    other tenants slowed least, so this sum spreads far less between runs
    than the median execution does (see README.md, Noise).  The calls must
    repeat in the same order; ``determinism_notes`` checks that.
    """
    return sum(map(min, zip(*(e.call_s for e in executions))))


def determinism_notes(executions, layer=()) -> list[str]:
    """Counts that must repeat exactly between executions of one run."""
    notes = []
    if len({len(e.call_s) for e in executions}) != 1:
        notes.append("number of package calls differs between executions")
    for key in ("oracle_calls", "iterations"):
        if len({getattr(e, key) for e in executions}) != 1:
            notes.append(f"{key} differs between executions")
    for key in ("algorithms.iterations", "operators.forward_calls",
                "algorithms.runs"):
        if layer and len({s[key] for s in layer}) != 1:
            notes.append(f"{key} differs between traced executions")
    return notes


# ---------------------------------------------------------------------------
# reporting


def report(args, env, executions, metrics, units, notes, extra) -> int:
    attempted = sum(e.attempted for e in executions)
    failed = sum(e.failed for e in executions)
    failures = [f for e in executions for f in e.failures]
    for line in failures[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    for note in notes:
        print(f"perfbench: {note}", file=sys.stderr)
    correct = failed == 0 and not notes
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": env, "correct": correct, "attempted": attempted,
        "failed": failed, "ops_failed_frac": failed / attempted,
        "failures": failures, "notes": notes,
        "observations": [o for e in executions for o in e.observations],
        "metrics": metrics, **extra,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2, default=float) + "\n",
                            encoding="utf-8")
    print(f"environment {json.dumps(env)}")
    for key, value in metrics.items():
        print(f"{key:36s} {value:>16.6g} {units[key]}")
    print(f"{'ops_failed_frac':36s} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} operations)")
    observed = sum(len(e.observations) for e in executions)
    print(f"{'observations (not gated)':36s} {observed:>16d}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def run_untraced(args, env) -> int:
    setup = []
    workload = make_workload(args)
    try:
        workload.warm_up()
        inputs = workload.generate()
        done, _ = measure(args, workload, inputs, setup)
    finally:
        workload.close()
    setup += measure_setup(args, SETUP_SAMPLES - len(setup))
    executions = [e for e, _ in done]
    metrics = {
        "wall_s": fastest_calls_s(executions),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "oracle_calls": executions[0].oracle_calls,
    }
    extra = {"execution_s_samples": [e.wall_s for e in executions],
             "setup_s_samples": setup,
             "iterations": executions[0].iterations,
             "details": executions[0].details}
    return report(args, env, executions, metrics, END_TO_END_UNITS,
                  determinism_notes(executions), extra)


def run_traced(args, env) -> int:
    import spans
    workload = make_workload(args)
    try:
        workload.warm_up()
        setup_tracer = spans.Tracer()
        setup_tracer.install()
        try:
            inputs = workload.generate()
        finally:
            setup_tracer.uninstall()
        done, tracer = measure(args, workload, inputs)
    finally:
        workload.close()
    tracer.save(OUT / f"spans-{args.workload}.npz")
    setup_generate = spans.layer_stats(setup_tracer)["problems.generate_s"]
    untraced = [e.wall_s for e, stats in done if stats is None]
    traced = [e.wall_s for e, stats in done if stats is not None]
    layer = [stats for _, stats in done if stats is not None]
    metrics = {key: statistics.median(s[key] for s in layer)
               for key in layer[0]}
    metrics["problems.generate_s"] += setup_generate
    metrics["traced.overhead_frac"] = (statistics.median(traced)
                                       / statistics.median(untraced) - 1.0)
    executions = [e for e, _ in done]
    extra = {"untraced_wall_s": untraced, "traced_wall_s": traced,
             "setup_generate_s": setup_generate}
    return report(args, env, executions, metrics, PER_LAYER_UNITS,
                  determinism_notes(executions, layer), extra)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    load_package()
    env = environment()
    if args.trace:
        return run_traced(args, env)
    return run_untraced(args, env)


if __name__ == "__main__":
    sys.exit(main())
