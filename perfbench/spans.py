"""Span tracing of the anchorkit layers from outside the package.

``Tracer.install`` swaps wrappers in for the public entry points of each
layer at every place the name is bound (module globals, re-exports in
``anchorkit`` and the other modules, ``PROBLEM_BUILDERS``, and the methods of
every operator class), and ``uninstall`` puts the originals back.  Each call
records one span: its kind, start, end and the span that was open when it
began.  Spans stay in flat arrays in memory and are written out with
``save`` when the benchmark ends.
"""
from __future__ import annotations

import functools
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

import anchorkit
from anchorkit import algorithms, analysis, cli, operators, problems, suites
from workloads import iterations_of

KINDS = (
    "problems.generate",      # make_*, build_problem, speedup_problem
    "operators.forward",      # Operator.__call__ of every class
    "operators.resolvent_affine",
    "operators.resolvent_prox",
    "operators.resolvent_iterative",
    "operators.inner_solve",  # solve_strongly_monotone
    "algorithms.run",
    "analysis.report",        # rate_bound, mp_bound_*, ... mp_distance
    "analysis.reference",     # fixed_point_reference
    "cli.command",            # cmd_run, cmd_compare
    "cli.csv",                # _write_trace_csv
)
K = {name: i for i, name in enumerate(KINDS)}
RESOLVENT_KINDS = (K["operators.resolvent_affine"],
                   K["operators.resolvent_prox"],
                   K["operators.resolvent_iterative"])

MODULES = (anchorkit, algorithms, analysis, cli, operators, problems, suites)

GENERATORS = (problems.make_bilinear, problems.make_random_monotone_affine,
              problems.make_random_scsc, problems.make_figure1,
              problems.make_composite, problems.make_box_bilinear_composite,
              problems.build_problem, suites.speedup_problem)
REPORTS = (analysis.rate_bound, analysis.mp_bound_feg_ohm,
           analysis.mp_bound_apg, analysis.feg_summability_report,
           analysis.lyapunov_feg, analysis.lyapunov_sm_eag,
           analysis.mp_distance)
RESOLVENT_KIND_OF = {"affine": "operators.resolvent_affine",
                     "prox": "operators.resolvent_prox",
                     "iterative": "operators.resolvent_iterative"}
#: the abstract base, and a class whose resolvent only hands the call on
UNTRACED_RESOLVENTS = (operators.Operator, operators.ScaledOperator)


def _trace_stats(trace):
    """(iterations, billed forward calls, billed resolvent calls, bytes)."""
    arrays = [trace.main, trace.residual_norms, trace.op_evals,
              trace.b_per_iter, trace.resolvent_per_iter,
              *trace.auxiliary.values()]
    nbytes = sum(a.nbytes for a in arrays if a is not None)
    return (iterations_of(trace), trace.total_b_evals(),
            trace.total_resolvent_evals(), nbytes)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.kind = array("b")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.payload: dict[int, object] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, kind_name, payload=None):
        kind, kinds, parents = K[kind_name], self.kind, self.parent
        starts, ends, stack = self.start, self.end, self._stack
        record = self.payload

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(kinds)
            kinds.append(kind)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if payload is not None:
                record[i] = payload(args, result)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every binding of the traced entry points."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = {}
        for fn in GENERATORS:
            targets[fn] = self._wrap(fn, "problems.generate")
        for fn in REPORTS:
            targets[fn] = self._wrap(fn, "analysis.report")
        targets[analysis.fixed_point_reference] = self._wrap(
            analysis.fixed_point_reference, "analysis.reference")
        targets[algorithms.run] = self._wrap(
            algorithms.run, "algorithms.run",
            lambda args, trace: _trace_stats(trace))
        targets[operators.solve_strongly_monotone] = self._wrap(
            operators.solve_strongly_monotone, "operators.inner_solve",
            lambda args, result: result[1])
        targets[cli.cmd_run] = self._wrap(cli.cmd_run, "cli.command")
        targets[cli.cmd_compare] = self._wrap(cli.cmd_compare, "cli.command")
        targets[cli._write_trace_csv] = self._wrap(
            cli._write_trace_csv, "cli.csv",
            lambda args, result: Path(args[0]).stat().st_size)
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in targets:
                    self._patch(module, attr, targets[value])
        builders = problems.PROBLEM_BUILDERS
        for key, fn in list(builders.items()):
            if fn in targets:
                self._patches.append((builders, key, fn))
                builders[key] = targets[fn]
        for cls in vars(operators).values():
            if not (isinstance(cls, type)
                    and issubclass(cls, operators.Operator)):
                continue
            if "__call__" in vars(cls) and cls is not operators.Operator:
                self._patch(cls, "__call__", self._wrap(
                    vars(cls)["__call__"], "operators.forward"))
            if "resolvent" in vars(cls) and cls not in UNTRACED_RESOLVENTS:
                kind = RESOLVENT_KIND_OF[cls.resolvent_kind.fget(None)]
                self._patch(cls, "resolvent",
                            self._wrap(vars(cls)["resolvent"], kind))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def arrays(self):
        kind = np.frombuffer(self.kind, dtype=np.int8).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return kind, parent, start, end

    def save(self, path: Path) -> None:
        np.savez(path, kinds=np.array(KINDS),
                 kind=np.frombuffer(self.kind, dtype=np.int8),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


class ReconciliationError(RuntimeError):
    """Spans saw fewer oracle calls than the traces billed: a wrapper missed
    a re-bound name."""


def layer_stats(tracer: Tracer) -> dict:
    """Per-layer figures of one traced execution (plus its set-up spans,
    if the tracer recorded them)."""
    kind, parent, start, end = tracer.arrays()
    n = len(kind)
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=n)
    self_time = dur - child
    parent_kind = np.where(has_parent, kind[np.maximum(parent, 0)], -1)

    def of(name):
        return kind == K[name]

    def mean_us(mask):
        return float(dur[mask].mean() * 1e6) if mask.any() else 0.0

    generate = of("problems.generate") & (parent_kind
                                          != K["problems.generate"])
    forward = of("operators.forward") & (parent_kind != K["operators.forward"])
    resolvent = np.isin(kind, RESOLVENT_KINDS) & ~np.isin(parent_kind,
                                                          RESOLVENT_KINDS)
    affine = of("operators.resolvent_affine")
    prox = of("operators.resolvent_prox")
    solve = of("operators.inner_solve")
    runs = of("algorithms.run")
    # a call that raised has no payload
    stats = np.array([tracer.payload.get(i, (0, 0, 0, 0))
                      for i in np.flatnonzero(runs)],
                     dtype=np.int64).reshape(-1, 4)
    iterations, billed_b, billed_res, trace_bytes = stats.sum(axis=0)
    seen_b, seen_res = int(forward.sum()), int(resolvent.sum())
    if seen_b < billed_b or seen_res < billed_res:
        raise ReconciliationError(
            f"spans saw {seen_b} forward and {seen_res} resolvent calls, "
            f"traces billed {billed_b} and {billed_res}")
    seen = seen_b + seen_res
    run_ms = dur[runs] * 1e3
    run_s = float(dur[runs].sum())
    csv = of("cli.csv")
    return {
        "problems.generate_s": float(dur[generate].sum()),
        "operators.forward_calls": seen_b,
        "operators.forward_us": mean_us(forward),
        "operators.resolvent_affine_calls": int(affine.sum()),
        "operators.resolvent_affine_us": mean_us(affine),
        "operators.resolvent_prox_calls": int(prox.sum()),
        "operators.resolvent_prox_us": mean_us(prox),
        "operators.inner_solves": int(solve.sum()),
        "operators.inner_evals": int(sum(tracer.payload.get(i, 0)
                                         for i in np.flatnonzero(solve))),
        "operators.inner_solve_us": mean_us(solve),
        "operators.unbilled_frac": (seen - int(billed_b + billed_res)) / seen
        if seen else 0.0,
        "algorithms.runs": int(runs.sum()),
        "algorithms.iterations": int(iterations),
        "algorithms.iters_per_s": float(iterations / run_s) if run_s else 0.0,
        "algorithms.step_us": float(self_time[runs].sum() / iterations * 1e6)
        if iterations else 0.0,
        "algorithms.run_p50_ms": _quantile(run_ms, 0.50),
        "algorithms.run_p95_ms": _quantile(run_ms, 0.95),
        "algorithms.run_samples": int(runs.sum()),
        "algorithms.trace_mb": float(trace_bytes / 2 ** 20),
        "analysis.self_s": float(self_time[of("analysis.report")].sum()),
        "analysis.reference_s": float(dur[of("analysis.reference")].sum()),
        "cli.self_s": float(self_time[of("cli.command")].sum()),
        "cli.csv_s": float(dur[csv].sum()),
        "cli.csv_mb": float(sum(tracer.payload.get(i, 0)
                                for i in np.flatnonzero(csv)) / 2 ** 20),
    }


def _quantile(values, q) -> float:
    if len(values) == 0:
        return 0.0
    return float(np.quantile(values, q))
