"""Compare what two anchorkit source trees compute and write.

    python tools/same_outputs.py TREE_A TREE_B

Each tree runs one fixed matrix, every part in a fresh Python subprocess
with ``TREE/src`` on the path and BLAS pinned to one thread:

- every algorithm's trace on a seeded problem, plus SM_EAG_PLUS on SCSC
  problems at d=2 and d=20, FEG and OHM on a d=300 affine problem, GDA
  diverging on a 1x1 bilinear problem, and OHM_DRS and APG_STAR on a
  half-infinite box composite, run in full, without recorded iterates,
  with a stop at row 100's residual and for one iteration;
  compared field by field (arrays with their dtype and bits), with
  ``params``, ``stop_reason``, the oracle totals and ``cumulative_counts``;
- on the full FEG and SM_EAG_PLUS traces, the Lyapunov ``values``,
  ``decrements`` and ``certified_lower``, and for FEG also the ``measured``
  and ``bound`` of ``feg_summability_report`` and ``mp_bound_feg_ohm``;
- every verification suite's ``passed``, ``lines`` and ``details``, run in
  the same process as the traces, so ``details`` compare at full
  precision where the printed lines round;
- the stdout and exit code of ``anchorkit verify all``;
- the files, stdout and exit codes of ``run`` (all algorithms), ``compare``
  (the five declared pairs, APG_STAR/OHM_DRS again on a box composite too
  large for the exact reference, a self pair and an undeclared pair) and
  ``figure1`` at 200 and 60 iterations.

Every difference is printed. The exit code is 1 if there is one, else 0.
Given the same tree twice, it checks that the outputs are deterministic
across processes.
"""
from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ITERATIONS = 300
STOP_ROW = 100

# (case, algorithm, problem builder name, builder keywords, alpha, extra)
TRACE_CASES = [
    (name, name, "random_monotone_affine",
     {"seed": 4, "d": 6, "lipschitz": 5.0}, 0.05,
     {"theta": 1.0} if name == "APS_V" else {})
    for name in ("GDA", "EG", "OG", "EAG", "EAG_V", "FEG", "APS", "APS_V",
                 "OHM")
] + [
    (name, name, "random_scsc", {"seed": 2, "d": 6, "lipschitz": 5.0,
                                 "mu": 1.0}, 0.2, {})
    for name in ("SM_EAG_PLUS", "OC_HALPERN")
] + [
    # the scale root of the SCSC generator at further sizes and conditions
    (f"SM_EAG_PLUS d={d}", "SM_EAG_PLUS", "random_scsc",
     {"seed": 2, "d": d, "lipschitz": 10.0, "mu": mu}, 0.1, {})
    for d, mu in ((2, 0.01), (20, 1.0))
] + [
    ("AGM", "AGM", "figure1", {}, 0.025, {}),
    ("OHM on figure1", "OHM", "figure1", {}, 0.1, {}),
    ("OHM_DRS", "OHM_DRS", "box_bilinear_composite", {"seed": 3}, 0.1, {}),
    ("APG_STAR", "APG_STAR", "box_bilinear_composite", {"seed": 3}, 0.1, {}),
] + [
    # large enough for BLAS to block the matrix-vector product
    (f"{name} d=300", name, "random_monotone_affine",
     {"seed": 5, "d": 300, "lipschitz": 10.0}, 0.05, {})
    for name in ("FEG", "OHM")
] + [
    # ||B z||^2 overflows at row 154, short of the 300 iterations
    ("GDA diverging", "GDA", "bilinear", {"coupling": [[1.0]]}, 10.0, {}),
] + [
    (f"{name} on an orthant", name, "box_bilinear_composite",
     {"seed": 2, "box_upper": float("inf")}, 0.1, {})
    for name in ("OHM_DRS", "APG_STAR")
]

AFFINE = {"name": "random_monotone_affine",
          "params": {"seed": 4, "d": 6, "lipschitz": 5.0}}
AFFINE10 = {"name": "random_monotone_affine",
            "params": {"seed": 3, "d": 10, "lipschitz": 10.0}}
SCSC = {"name": "random_scsc",
        "params": {"seed": 2, "d": 6, "lipschitz": 5.0, "mu": 1.0}}
SCSC_WEAK = {"name": "random_scsc",
             "params": {"seed": 0, "d": 6, "lipschitz": 10.0, "mu": 0.1}}
BOX = {"name": "box_bilinear_composite", "params": {"seed": 3}}
#: 3^10 faces, more than the exact box solver enumerates: the one CLI case
#: whose reference point is the end of the long OHM_DRS run
BOX5 = {"name": "box_bilinear_composite", "params": {"seed": 3, "size": 5}}


def _algos(names, alpha):
    return [dict(algorithm=n, alpha=alpha,
                 **({"theta": 1.0} if n == "APS_V" else {})) for n in names]


# (command, label, problem, algorithms, iterations)
CLI_CASES = [
    ("run", "affine", AFFINE, _algos(("GDA", "EG", "OG", "EAG", "EAG_V",
                                       "FEG", "APS", "APS_V", "OHM"), 0.05),
     200),
    ("run", "scsc", SCSC, _algos(("SM_EAG_PLUS", "OC_HALPERN"), 0.2), 200),
    ("run", "figure1", {"name": "figure1"},
     _algos(("AGM",), 0.025) + [{"algorithm": "AGM", "alpha": 0.025,
                                 "momentum_a": 5.0}]
     + _algos(("OHM",), 0.1), 200),
    ("run", "box", BOX, _algos(("OHM_DRS", "APG_STAR"), 0.1), 200),
    ("compare", "FEG-OHM", AFFINE10, _algos(("FEG", "OHM"), 0.05), 300),
    ("compare", "EAG-OHM", AFFINE10, _algos(("EAG", "OHM"), 0.0125), 400),
    ("compare", "APS-OHM", AFFINE10, _algos(("APS", "OHM"), 0.0125), 400),
    ("compare", "SM_EAG_PLUS-OC_HALPERN", SCSC_WEAK,
     _algos(("SM_EAG_PLUS", "OC_HALPERN"), 0.05), 200),
    ("compare", "APG_STAR-OHM_DRS", BOX, _algos(("APG_STAR", "OHM_DRS"), 0.1),
     200),
    ("compare", "APG_STAR-OHM_DRS size 5", BOX5,
     _algos(("APG_STAR", "OHM_DRS"), 0.1), 200),
    ("compare", "FEG-FEG", AFFINE10, _algos(("FEG", "FEG"), 0.05), 100),
    ("compare", "EG-OHM", AFFINE10, _algos(("EG", "OHM"), 0.05), 100),
]


def _env(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _trace_record(trace) -> dict:
    # a field that a tree's traces lack reads None
    record = {name: getattr(trace, name, None)
              for name in ("main", "residual_norms", "op_evals", "b_per_iter",
                           "resolvent_per_iter", "warmup_b", "params",
                           "stop_reason", "iterations")}
    record["auxiliary"] = dict(trace.auxiliary)
    record["total_b_evals"] = trace.total_b_evals()
    record["total_resolvent_evals"] = trace.total_resolvent_evals()
    record["cumulative_counts"] = _outcome(trace.cumulative_counts)
    return record


def _analysis_record(name, trace, prob) -> dict:
    """The Lyapunov arrays of an FEG or SM_EAG_PLUS trace, and FEG's
    summability and merging-path reports."""
    from anchorkit import analysis

    def lyapunov():
        if name == "FEG":
            ly = analysis.lyapunov_feg(trace, trace.params["alpha"],
                                       prob.solution, prob.lipschitz)
        else:
            ly = analysis.lyapunov_sm_eag(trace, trace.params["alpha"],
                                          prob.mu, prob.lipschitz,
                                          prob.solution)
        return {"values": ly.values, "decrements": ly.decrements,
                "certified_lower": ly.certified_lower}

    def report(fn):
        rep = fn(trace, prob)
        return {"measured": rep.measured, "bound": rep.bound}

    record = {"lyapunov": _outcome(lyapunov)}
    if name == "FEG":
        for fn in (analysis.feg_summability_report, analysis.mp_bound_feg_ohm):
            record[fn.__name__] = _outcome(lambda: report(fn))
    return record


def _outcome(fn):
    """``fn()``, or the error it raised."""
    try:
        return fn()
    except Exception as exc:  # the error itself is the output to compare
        return ("raised", type(exc).__name__, str(exc))


def _suite_record(result) -> dict:
    return {"passed": result.passed, "lines": result.lines,
            "details": result.details}


def collect_in_process(out: str) -> None:
    """Run the trace matrix and every suite with the ``anchorkit`` on the
    path and pickle one record per trace case and per suite to ``out``."""
    from anchorkit import suites
    from anchorkit.algorithms import AlgorithmConfig, run
    from anchorkit.problems import build_problem

    records = {}
    for case, name, builder, params, alpha, extra in TRACE_CASES:
        prob = _outcome(lambda: build_problem(builder, params))
        if isinstance(prob, tuple):  # a tree that cannot build the problem
            records[f"{case}/build"] = prob
            continue
        z0 = (prob.start if prob.start is not None
              else np.linspace(-1.0, 2.0, prob.dim))

        def run_with(**kwargs):
            config = AlgorithmConfig(name, alpha=alpha, **extra, **kwargs)
            return _outcome(lambda: _trace_record(run(config, prob, z0)))

        full = run_with(max_iterations=ITERATIONS)
        records[f"{case}/full"] = full
        if name in ("FEG", "SM_EAG_PLUS"):
            config = AlgorithmConfig(name, alpha=alpha,
                                     max_iterations=ITERATIONS)
            records[f"{case}/analysis"] = _outcome(
                lambda: _analysis_record(name, run(config, prob, z0), prob))
        records[f"{case}/slim"] = run_with(max_iterations=ITERATIONS,
                                           record_iterates=False)
        if isinstance(full, dict):
            stop = float(full["residual_norms"][STOP_ROW])
            records[f"{case}/stop"] = run_with(max_iterations=ITERATIONS,
                                               stop_residual=stop)
        records[f"{case}/one"] = run_with(max_iterations=1)
    records = {f"trace {key}": record for key, record in records.items()}
    for name in suites.SUITES:
        records[f"suite {name}"] = _outcome(
            lambda: _suite_record(suites.run_suite(name)))
    Path(out).write_bytes(pickle.dumps(records))


def _cli(tree: Path, work: Path, args) -> dict:
    proc = subprocess.run([sys.executable, "-m", "anchorkit.cli", *args],
                          cwd=work, env=_env(tree), capture_output=True,
                          text=True)
    return {"exit": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr}


def _files(directory: Path) -> dict:
    if not directory.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def collect(tree: Path, work: Path) -> dict:
    """Every output of the matrix for one source tree, keyed by name."""
    outputs = {}
    pickled = work / "in-process.pickle"
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--in-process", str(pickled)],
                          env=_env(tree), capture_output=True, text=True)
    if proc.returncode != 0:
        outputs["in-process"] = {"exit": proc.returncode,
                                 "stderr": proc.stderr}
    else:
        outputs.update(pickle.loads(pickled.read_bytes()))
    outputs["verify all"] = _cli(tree, work, ["verify", "all"])
    for command, label, problem, algorithms, iterations in CLI_CASES:
        directory = f"{command}-{label}"
        config = {"problem": problem, "iterations": iterations, "seed": 7,
                  "algorithms": algorithms,
                  "outputs": {"directory": directory}}
        path = work / f"{directory}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        result = _cli(tree, work, [command, path.name])
        result["files"] = _files(work / directory)
        outputs[f"{command} {label}"] = result
    for iterations in (200, 60):
        directory = f"figure1-{iterations}"
        result = _cli(tree, work, ["figure1", "--out", directory,
                                   "--iterations", str(iterations)])
        result["files"] = _files(work / directory)
        outputs[f"figure1 {iterations}"] = result
    return outputs


def differences(where: str, a, b):
    """Human-readable lines naming every difference between two outputs."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys(), key=str):
            if key not in a or key not in b:
                side = "first" if key in a else "second"
                yield f"{where} / {key}: only in the {side} tree"
            else:
                yield from differences(f"{where} / {key}", a[key], b[key])
    elif isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        if type(a) is not type(b) or len(a) != len(b):
            yield f"{where}: {_short(a)} != {_short(b)}"
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                yield from differences(f"{where}[{i}]", x, y)
    elif isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        if a.dtype != b.dtype or a.shape != b.shape:
            yield (f"{where}: {a.dtype}{list(a.shape)} != "
                   f"{b.dtype}{list(b.shape)}")
        elif a.tobytes() != b.tobytes():
            flat_a, flat_b = a.ravel(), b.ravel()
            i = next(i for i in range(a.size)
                     if flat_a[i:i + 1].tobytes() != flat_b[i:i + 1].tobytes())
            yield (f"{where}: bits differ, first at flat index {i} "
                   f"({flat_a[i]!r} != {flat_b[i]!r})")
    elif isinstance(a, bytes) and isinstance(b, bytes):
        if a != b:
            lines_a, lines_b = a.splitlines(), b.splitlines()
            line = next((i for i, (x, y) in enumerate(zip(lines_a, lines_b))
                         if x != y), min(len(lines_a), len(lines_b)))
            yield (f"{where}: bytes differ from line {line + 1} "
                   f"({len(a)} vs {len(b)} bytes)")
    elif type(a) is not type(b) or repr(a) != repr(b):
        yield f"{where}: {_short(a)} != {_short(b)}"


def _short(value, width: int = 120) -> str:
    text = " ".join(repr(value).split())
    return text if len(text) <= width else text[:width] + "..."


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--in-process":
        collect_in_process(argv[1])
        return 0
    if len(argv) != 2:
        print("usage: python tools/same_outputs.py TREE_A TREE_B",
              file=sys.stderr)
        return 2
    trees = [Path(arg).resolve() for arg in argv]
    outputs = []
    for tree in trees:
        with tempfile.TemporaryDirectory() as work:
            outputs.append(collect(tree, Path(work)))
    found = list(differences("", *outputs))
    for line in found:
        print(line.lstrip(" /"))
    print(f"{len(found)} difference(s) between {trees[0]} and {trees[1]}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
