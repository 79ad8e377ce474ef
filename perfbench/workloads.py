"""The two benchmark workloads: ``sweep-d10`` and ``long-calls``, which
runs the long-horizon part and then the d=1000 CLI part.

Each workload builds its inputs from a seed (``generate``), primes the
package's first-call costs on inputs of its own (``warm_up``) and then runs
one closed-loop execution (``execute``): every call into the package starts
only after the previous one returned, and each call is timed from outside
the package.  An execution's time is the sum of those call times, so the
benchmark's own output checks are not part of it.

Package functions are looked up as module attributes at call time
(``algorithms.run``, ``analysis.rate_bound``, ...) so that the tracer in
``spans.py`` sees every call once it has swapped in its wrappers.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from anchorkit import algorithms, analysis, cli, problems, suites
from anchorkit.algorithms import AlgorithmConfig, max_step_strongly_monotone

#: Workload seed s shifts every generator seed by s * SEED_STRIDE, so seed 0
#: draws exactly the inputs of the verification suites it mirrors.
SEED_STRIDE = 100_000

#: Golden angle in radians: seed s turns the speedup start by s times this.
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def iterations_of(trace) -> int:
    """Iterations a run made; ``trace.iterations`` counts only the rows kept,
    which is 1 when iterates are not recorded."""
    return len(trace.residual_norms) - 1


class Operation:
    """Checks recorded against one operation (a run plus its verdicts, or
    one CLI command)."""

    def __init__(self):
        self.problems: list[str] = []

    def check(self, ok, text: str) -> None:
        if not ok:
            self.problems.append(text)


class Execution:
    """Times package calls, counts operations and bills oracle calls for
    one execution of a workload."""

    def __init__(self):
        #: seconds of each package call, in call order
        self.call_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        #: results of the suites' empirical checks, which carry no theorem
        #: and are recorded rather than gated
        self.observations: list[str] = []
        self.oracle_calls = 0
        self.iterations = 0
        self.details: dict = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def wall_s(self) -> float:
        return sum(self.call_s)

    def call(self, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.call_s.append(perf_counter() - start)

    def bill(self, trace) -> None:
        """Add a trace the workload received to the oracle and iteration
        totals."""
        self.oracle_calls += (trace.total_b_evals()
                              + trace.total_resolvent_evals())
        self.iterations += iterations_of(trace)

    def absorb(self, other: "Execution") -> None:
        """Append another execution's calls, operations and counts."""
        self.call_s += other.call_s
        self.attempted += other.attempted
        self.failures += other.failures
        self.observations += other.observations
        self.oracle_calls += other.oracle_calls
        self.iterations += other.iterations
        self.details.update(other.details)

    def run(self, config, problem, z0):
        trace = self.call(algorithms.run, config, problem, z0)
        self.bill(trace)
        return trace

    @contextlib.contextmanager
    def op(self, label: str):
        """One operation: it fails if its body raises or a check fails.
        Failures are counted and kept, never dropped."""
        self.attempted += 1
        operation = Operation()
        try:
            yield operation
        except Exception:  # an operation that raises is a failed operation
            operation.problems.append(traceback.format_exc(limit=3).strip())
        if operation.problems:
            self.failures.append(f"{label}: " + "; ".join(operation.problems))


class Workload:
    """Seeded inputs plus one closed-loop execution over them."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def close(self) -> None:
        """Remove whatever the workload wrote."""


def _worst(current: float, report) -> float:
    return max(current, report.max_ratio)


# ---------------------------------------------------------------------------
# sweep-d10: the 20-seed protocol of ohm-rate, feg-ohm-mp, eag-aps-mp,
# sm-eag-rate and lyapunov


class SweepD10(Workload):
    """About 320 runs of 200-2000 iterations on 40 seeded d=10 problems.

    Interpreter overhead per step and the small-d affine resolvent dominate;
    no files are written.
    """

    name = "sweep-d10"

    def generate(self):
        shift = self.seed * SEED_STRIDE
        d, lip = 10, 10.0
        affine = []
        for i in range(20):
            prob = problems.make_random_monotone_affine(shift + i, d, lip)
            z0 = np.random.default_rng(1000 + shift + i).standard_normal(d)
            affine.append((prob, z0))
        scsc = []
        for i in range(20):
            mu = 1.0 if i < 10 else 0.1
            z_star = 0.5 * np.random.default_rng(
                2000 + shift + i).standard_normal(d)
            prob = problems.make_random_scsc(shift + i, d, lip, mu,
                                             z_star=z_star)
            z0 = np.random.default_rng(3000 + shift + i).standard_normal(d)
            scsc.append((prob, z0))
        # the suite's fixed mu = 0 problem for the FEG == SM_EAG_PLUS check
        bilinear = problems.make_bilinear([[1.0, 0.3], [-0.2, 0.8]])
        return affine, scsc, bilinear

    def warm_up(self) -> None:
        prob = problems.make_random_monotone_affine(1, 4, 1.0)
        scsc = problems.make_random_scsc(1, 4, 1.0, 0.5)
        z0 = np.ones(4)
        for name in ("OHM", "FEG", "EAG", "APS", "SM_EAG_PLUS"):
            algorithms.run(AlgorithmConfig(name, alpha=0.1,
                                           max_iterations=3), prob, z0)
        feg = algorithms.run(AlgorithmConfig("FEG", alpha=0.1,
                                             max_iterations=3), scsc, z0)
        analysis.rate_bound(feg, scsc, "OHM_RATE")
        analysis.mp_bound_feg_ohm(feg, scsc)
        analysis.feg_summability_report(feg, scsc)
        analysis.lyapunov_feg(feg, 0.1, scsc.solution, 1.0)
        analysis.lyapunov_sm_eag(feg, 0.1, 0.5, 1.0, scsc.solution)

    def execute(self, inputs) -> Execution:
        affine, scsc, bilinear = inputs
        ex = Execution()
        ex.details["ohm-rate"] = self._ohm_rate(ex, affine)
        ex.details["feg-ohm-mp"] = self._feg_ohm_mp(ex, affine)
        ex.details["eag-aps-mp"] = self._eag_aps_mp(ex, affine)
        ex.details["sm-eag-rate"] = self._sm_eag_rate(ex, scsc, bilinear)
        ex.details["lyapunov"] = self._lyapunov(ex, scsc)
        return ex

    @staticmethod
    def _ohm_rate(ex, affine):
        worst = 0.0
        for prob, z0 in affine:
            with ex.op(f"OHM on {prob.name}") as op:
                trace = ex.run(AlgorithmConfig("OHM", alpha=0.1,
                                               max_iterations=1000), prob, z0)
                report = ex.call(analysis.rate_bound, trace, prob, "OHM_RATE")
                op.check(report.passed, f"OHM rate ratio {report.max_ratio}")
                worst = _worst(worst, report)
        return {"max_ratio": worst}

    @staticmethod
    def _feg_ohm_mp(ex, affine):
        details = {}
        for ratio_al in (0.25, 0.5, 0.9):
            worst_mp = worst_sum = 0.0
            for prob, z0 in affine:
                alpha = ratio_al / prob.lipschitz
                with ex.op(f"OHM partner at {ratio_al} on {prob.name}"):
                    partner = ex.call(analysis.run_ohm_partner, prob, alpha,
                                      1000, z0)
                    ex.bill(partner)
                with ex.op(f"FEG at {ratio_al} on {prob.name}") as op:
                    trace = ex.run(AlgorithmConfig("FEG", alpha=alpha,
                                                   max_iterations=1000),
                                   prob, z0)
                    mp = ex.call(analysis.mp_bound_feg_ohm, trace, prob,
                                 trace_ohm=partner)
                    summ = ex.call(analysis.feg_summability_report, trace,
                                   prob)
                    op.check(mp.passed, f"mp ratio {mp.max_ratio}")
                    op.check(summ.passed, f"summability ratio "
                                          f"{summ.max_ratio}")
                    worst_mp = _worst(worst_mp, mp)
                    worst_sum = _worst(worst_sum, summ)
            details[f"mp_ratio_{ratio_al}"] = worst_mp
            details[f"sum_ratio_{ratio_al}"] = worst_sum
        return details

    @staticmethod
    def _eag_aps_mp(ex, affine):
        iterations, split = 2000, 1500
        sups = {"EAG": 0.0, "APS": 0.0}
        for prob, z0 in affine:
            alpha = 0.125 / prob.lipschitz
            with ex.op(f"OHM partner on {prob.name}"):
                partner = ex.call(analysis.run_ohm_partner, prob, alpha,
                                  iterations, z0)
                ex.bill(partner)
            for name in ("EAG", "APS"):
                with ex.op(f"{name} on {prob.name}") as op:
                    trace = ex.run(AlgorithmConfig(
                        name, alpha=alpha, max_iterations=iterations),
                        prob, z0)
                    dist = ex.call(analysis.mp_distance, trace, partner)
                    s = np.arange(iterations + 1) ** 2 * dist
                    finite = bool(np.all(np.isfinite(s)))
                    op.check(finite, "non-finite merging-path distances")
                    if finite:
                        head, tail = s[:split].max(), s[split:].max()
                        if tail > head:
                            ex.observations.append(
                                f"{name} on {prob.name}: sup k^2 dist^2 "
                                f"after k={split} ({tail:.3e} > {head:.3e})")
                        sups[name] = max(sups[name], s.max())
        return {f"sup_{name}": sup for name, sup in sups.items()}

    @staticmethod
    def _sm_eag_rate(ex, scsc, bilinear):
        worst = 0.0
        for prob, z0 in scsc:
            alpha = max_step_strongly_monotone(prob.lipschitz, prob.mu)
            with ex.op(f"SM_EAG_PLUS on {prob.name}") as op:
                trace = ex.run(AlgorithmConfig("SM_EAG_PLUS", alpha=alpha,
                                               max_iterations=500), prob, z0)
                report = ex.call(analysis.rate_bound, trace, prob,
                                 "SM_EAG_RATE")
                op.check(report.passed, f"rate ratio {report.max_ratio}")
                worst = _worst(worst, report)
        z0 = np.array([1.0, -2.0, 0.5, 1.5])
        alpha = 0.5 / bilinear.lipschitz
        with ex.op("FEG on the mu = 0 bilinear problem"):
            feg = ex.run(AlgorithmConfig("FEG", alpha=alpha,
                                         max_iterations=300), bilinear, z0)
        with ex.op("SM_EAG_PLUS on the mu = 0 bilinear problem") as op:
            sm = ex.run(AlgorithmConfig("SM_EAG_PLUS", alpha=alpha,
                                        max_iterations=300), bilinear, z0)
            op.check(np.array_equal(feg.main, sm.main)
                     and np.array_equal(feg.auxiliary["half"],
                                        sm.auxiliary["half"]),
                     "mu = 0 run differs from FEG")
        return {"max_ratio": worst}

    @staticmethod
    def _lyapunov(ex, scsc):
        for ratio_al in (0.25, 0.5, 0.9):
            for prob, z0 in scsc:
                alpha = ratio_al / prob.lipschitz
                with ex.op(f"FEG Lyapunov at {ratio_al} on {prob.name}") as op:
                    trace = ex.run(AlgorithmConfig("FEG", alpha=alpha,
                                                   max_iterations=200),
                                   prob, z0)
                    ly = ex.call(analysis.lyapunov_feg, trace, alpha,
                                 prob.solution, prob.lipschitz)
                    op.check(ly.passed, "Lyapunov descent violated")
        for factor in (0.5, 1.0):
            for prob, z0 in scsc:
                alpha = factor * max_step_strongly_monotone(prob.lipschitz,
                                                            prob.mu)
                with ex.op(f"SM_EAG_PLUS Lyapunov at {factor} on "
                           f"{prob.name}") as op:
                    trace = ex.run(AlgorithmConfig("SM_EAG_PLUS", alpha=alpha,
                                                   max_iterations=200),
                                   prob, z0)
                    ly = ex.call(analysis.lyapunov_sm_eag, trace, alpha,
                                 prob.mu, prob.lipschitz, prob.solution)
                    op.check(ly.passed, "Lyapunov descent violated")
        return {}


# ---------------------------------------------------------------------------
# long-calls, first part: speedup, apg-mp and apg-oracle-trend


class LongHorizon(Workload):
    """A few very long runs: EG, OG and SM_EAG_PLUS to tolerance 1e-6 at
    condition number 1e4, APG_STAR and OHM_DRS on a box-bilinear composite,
    and the 100k-iteration splitting reference point.

    Memory that grows with K, the prox and inner solvers and the reference
    point dominate; batching across seeds has nothing to batch here.
    """

    tolerance = 1e-6
    budget = 3_000_000

    def generate(self):
        speedup = suites.speedup_problem()
        # Turning the start inside the rotation plane keeps its distance to
        # the solution and, since the rotation block commutes with plane
        # rotations, the iteration counts to tolerance; seed 0 keeps the
        # suite's start exactly.
        theta = self.seed * GOLDEN_ANGLE
        c, s = math.cos(theta), math.sin(theta)
        z0 = np.array([1.0, 0.7 * c + 0.7 * s, 0.7 * s - 0.7 * c])
        shift = self.seed * SEED_STRIDE
        composite = problems.make_box_bilinear_composite(seed=5 + shift)
        xi0 = 2.0 * np.random.default_rng(77 + shift).standard_normal(
            composite.dim)
        return speedup, z0, composite, xi0

    def warm_up(self) -> None:
        speedup = suites.speedup_problem()
        z0 = np.ones(3)
        for name in ("EG", "OG", "SM_EAG_PLUS"):
            trace = algorithms.run(AlgorithmConfig(
                name, alpha=0.25, max_iterations=3, stop_residual=1e-6,
                record_iterates=False), speedup, z0)
            analysis.iterations_to_tolerance(trace, 1e-6)
        comp = problems.make_box_bilinear_composite(seed=1)
        xi0 = np.ones(comp.dim)
        alpha = 0.5 / comp.lipschitz
        apg = algorithms.run(AlgorithmConfig("APG_STAR", alpha=alpha,
                                             max_iterations=3), comp, xi0)
        drs = algorithms.run(AlgorithmConfig("OHM_DRS", alpha=alpha,
                                             max_iterations=3), comp, xi0)
        ref = analysis.fixed_point_reference(comp, alpha, iterations=3,
                                             start=xi0)
        analysis.mp_bound_apg(apg, drs, comp, xi_star=ref)
        analysis.rate_bound(apg, comp, "APG_RESIDUAL", reference=ref)
        analysis.rate_bound(drs, comp, "OHM_DRS_RATE", reference=ref)

    def execute(self, inputs) -> Execution:
        speedup, z0, composite, xi0 = inputs
        ex = Execution()
        ex.details["speedup"] = self._speedup(ex, speedup, z0)
        ex.details["apg-mp"] = self._apg_mp(ex, composite, xi0)
        ex.details["apg-oracle-trend"] = self._apg_trend(ex, composite, xi0)
        return ex

    def _speedup(self, ex, prob, z0):
        calls = {}
        for name, alpha in (("EG", 1.0 / (4.0 * prob.lipschitz)),
                            ("OG", 1.0 / (4.0 * prob.lipschitz)),
                            ("SM_EAG_PLUS",
                             max_step_strongly_monotone(prob.lipschitz,
                                                        prob.mu))):
            with ex.op(f"{name} to tolerance") as op:
                trace = ex.run(AlgorithmConfig(
                    name, alpha=alpha, max_iterations=self.budget,
                    stop_residual=self.tolerance, record_iterates=False),
                    prob, z0)
                reached = ex.call(analysis.iterations_to_tolerance, trace,
                                  self.tolerance)
                op.check(reached is not None,
                         f"{name} missed {self.tolerance:g} within "
                         f"{self.budget} iterations")
                calls[name] = trace.total_b_evals()
        # the "strictly fewer calls" comparison is recorded, not gated
        if len(calls) < 3:
            return {"calls": calls}
        sm = calls["SM_EAG_PLUS"]
        return {"calls": calls, "ratio_eg": calls["EG"] / sm,
                "ratio_og": calls["OG"] / sm}

    @staticmethod
    def _apg_mp(ex, prob, xi0):
        alpha = 0.5 / prob.lipschitz
        with ex.op("fixed_point_reference") as op:
            xi_star = ex.call(analysis.fixed_point_reference, prob, alpha,
                              iterations=100_000, start=xi0)
            op.check(np.all(np.isfinite(xi_star)), "non-finite reference")
        with ex.op("OHM_DRS 300") as op:
            drs = ex.run(AlgorithmConfig("OHM_DRS", alpha=alpha,
                                         max_iterations=300), prob, xi0)
            drs_rate = ex.call(analysis.rate_bound, drs, prob, "OHM_DRS_RATE",
                               reference=xi_star)
            op.check(drs_rate.passed, f"OHM_DRS rate ratio "
                                      f"{drs_rate.max_ratio}")
        with ex.op("APG_STAR 300") as op:
            apg = ex.run(AlgorithmConfig("APG_STAR", alpha=alpha,
                                         max_iterations=300), prob, xi0)
            c = ex.call(analysis.apg_path_constant, prob, xi0, xi_star)
            mp = ex.call(analysis.mp_bound_apg, apg, drs, prob,
                         xi_star=xi_star)
            rate = ex.call(analysis.rate_bound, apg, prob, "APG_RESIDUAL",
                           reference=xi_star)
            op.check(mp.passed, f"APG mp ratio {mp.max_ratio}")
            op.check(rate.passed, f"APG residual ratio {rate.max_ratio}")
            return {"mp_ratio": mp.max_ratio, "rate_ratio": rate.max_ratio,
                    "drs_ratio": drs_rate.max_ratio, "path_constant": c}

    @staticmethod
    def _apg_trend(ex, prob, xi0):
        alpha = 0.5 / prob.lipschitz
        with ex.op("APG_STAR 1000"):
            apg = ex.run(AlgorithmConfig("APG_STAR", alpha=alpha,
                                         max_iterations=1000), prob, xi0)
            counts = apg.auxiliary["inner_b_evals"]
            ks = np.array([10, 100, 1000])
            obs = counts[ks].astype(float)
            design = np.vstack([np.ones(3), np.log(ks)]).T
            coef, *_ = np.linalg.lstsq(design, obs, rcond=None)
            rms = float(np.sqrt(np.mean((obs - design @ coef) ** 2)))
            if rms > 0.2 * float(obs.mean()):
                ex.observations.append(
                    f"APG_STAR inner evals {obs.tolist()} do not fit "
                    f"a + b log k")
            return {"counts": obs.tolist(), "intercept": coef[0],
                    "slope": coef[1], "rms": rms}


# ---------------------------------------------------------------------------
# long-calls, second part: `anchorkit run` and `anchorkit compare` at d = 1000


class CliD1000(Workload):
    """``anchorkit run`` (FEG, OHM, EAG, OG) and ``anchorkit compare``
    (FEG/OHM) in-process on a seeded d=1000 monotone affine problem.

    Arithmetic per step outweighs interpreter overhead here, while problem
    construction (eigensolve, SVD) inside each command and CSV formatting
    dominate; it is the only part that writes files.
    """

    dim = 1000
    iterations = 300
    alpha = 0.05
    run_algorithms = ("FEG", "OHM", "EAG", "OG")
    compare_algorithms = ("FEG", "OHM")

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, Path(tempfile.mkdtemp(prefix="cli-",
                                                     dir=workdir)))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _write_config(self, name, algos, dim, iterations, seed):
        cfg = {
            "problem": {"name": "random_monotone_affine",
                        "params": {"seed": seed, "d": dim,
                                   "lipschitz": 10.0}},
            "iterations": iterations,
            "seed": seed,
            "algorithms": [{"algorithm": a, "alpha": self.alpha}
                           for a in algos],
            "outputs": {"directory": str(self.workdir / f"{name}-out")},
        }
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path, self.workdir / f"{name}-out"

    def generate(self):
        run_cfg = self._write_config("run", self.run_algorithms, self.dim,
                                     self.iterations, self.seed)
        cmp_cfg = self._write_config("compare", self.compare_algorithms,
                                     self.dim, self.iterations, self.seed)
        return run_cfg, cmp_cfg

    def warm_up(self) -> None:
        for command, algos in (("run", self.run_algorithms),
                               ("compare", self.compare_algorithms)):
            path, out = self._write_config(f"warm-{command}", algos, 4, 3, 1)
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main([command, str(path)])
            shutil.rmtree(out, ignore_errors=True)

    def execute(self, inputs) -> Execution:
        (run_path, run_out), (cmp_path, cmp_out) = inputs
        ex = Execution()
        for out in (run_out, cmp_out):
            shutil.rmtree(out, ignore_errors=True)
        with ex.op("anchorkit run") as op:
            rc, doc = self._main(ex, "run", run_path)
            op.check(rc == 0, f"exit code {rc}")
            op.check(doc.get("status") == "ok", f"stdout {doc}")
            written = doc.get("traces", [])
            op.check(len(written) == len(self.run_algorithms),
                     f"{len(written)} trace files")
            for path in written:
                self._check_trace_csv(ex, op, Path(path))
        with ex.op("anchorkit compare") as op:
            rc, doc = self._main(ex, "compare", cmp_path)
            op.check(rc == 0, f"exit code {rc}")
            op.check(doc.get("verdict") == "pass", f"stdout {doc}")
            bound = json.loads((cmp_out / "bound.json").read_text("utf-8"))
            op.check(bound.get("verdict") == "pass", f"bound.json {bound}")
            rows = (cmp_out / "mp.csv").read_bytes().count(b"\n") - 1
            op.check(rows == self.iterations + 1, f"mp.csv has {rows} rows")
        return ex

    @staticmethod
    def _main(ex, command, path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = ex.call(cli.main, [command, str(path)])
        lines = buf.getvalue().strip().splitlines()
        return rc, json.loads(lines[-1]) if lines else {}

    def _check_trace_csv(self, ex, op, path: Path) -> None:
        lines = path.read_bytes().splitlines()
        rows = lines[1:]
        op.check(len(rows) == self.iterations + 1,
                 f"{path.name} has {len(rows)} rows")
        width = self.dim + 4
        op.check(all(line.count(b",") == width - 1 for line in lines),
                 f"{path.name} is not {width} columns wide")
        # the last row carries the trace's cumulative oracle counts
        b_count, r_count = rows[-1].split(b",")[-2:]
        ex.oracle_calls += int(b_count) + int(r_count)
        ex.iterations += len(rows) - 1


# ---------------------------------------------------------------------------
# long-calls


class LongCalls(Workload):
    """The long-horizon part, then the d=1000 CLI part, in one execution.

    Both parts spend their time in a few package calls of a second or more,
    where ``sweep-d10`` makes hundreds of short ones.  They share one
    workload so that each of the benchmark's two workloads gets runs long
    enough to repeat its calls several times.
    """

    name = "long-calls"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.parts = (LongHorizon(seed, workdir), CliD1000(seed, workdir))

    def close(self) -> None:
        for part in self.parts:
            part.close()

    def generate(self):
        return tuple(part.generate() for part in self.parts)

    def warm_up(self) -> None:
        for part in self.parts:
            part.warm_up()

    def execute(self, inputs) -> Execution:
        ex = Execution()
        for part, part_inputs in zip(self.parts, inputs):
            ex.absorb(part.execute(part_inputs))
        return ex


WORKLOADS = {cls.name: cls for cls in (SweepD10, LongCalls)}
