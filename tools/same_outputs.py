"""Compare what two anchorkit source trees compute and write.

    python tools/same_outputs.py TREE_A TREE_B

Each tree runs one fixed matrix, every part in a fresh Python subprocess
with ``TREE/src`` on the path and BLAS pinned to one thread:

- every algorithm's trace on a seeded problem, plus SM_EAG_PLUS on SCSC
  problems at d=2 and d=20, FEG and OHM on a d=300 affine problem, GDA
  diverging on a 1x1 bilinear problem, and OHM_DRS and APG_STAR on a
  half-infinite box composite, run in full, without recorded iterates,
  with a stop at row 100's residual, with a stop at row 0's residual (the
  forward methods stop there without a step) and for one iteration;
  compared field by field (arrays with their dtype and bits), with
  ``params``, ``stop_reason``, the oracle totals and ``cumulative_counts``;
- on the full and the row-0 FEG and SM_EAG_PLUS traces, the Lyapunov
  ``values``, ``decrements`` and ``certified_lower``, and for FEG also the
  ``measured`` and ``bound`` of ``feg_summability_report`` and
  ``mp_bound_feg_ohm`` (or the error each raises);
- on residuals-only FEG/OHM and SM_EAG_PLUS/OC_HALPERN pairs (the trace
  cases' problems, steps and starts), the outcome of ``mp_distance`` and
  of ``merging_path`` (its distances, report, verdict and note, or the
  error it raises);
- every verification suite's ``passed``, ``lines`` and ``details``, run in
  the same process as the traces, so ``details`` compare at full
  precision where the printed lines round;
- the stdout and exit code of ``anchorkit verify all``;
- the files, stdout and exit codes of ``run`` (all algorithms), ``compare``
  (the five declared pairs, APG_STAR/OHM_DRS again on a box composite too
  large for the exact reference, a self pair and an undeclared pair),
  the benchmark's ``long-calls`` ``run`` (FEG, OHM, EAG, OG) and
  ``compare`` (FEG/OHM) at d=1000 with seed 7, and ``figure1``; every
  case without a start of its own draws it from seed 7;
- the stdout, exit code and files of inputs the CLI refuses: bad JSON,
  bytes that are not UTF-8, a directory as config, an unknown problem (also
  with a NaN parameter), a problem parameter ``1e999``, an empty
  ``bilinear`` coupling, an unknown algorithm, ``"alpha": NaN``, an output
  directory that a file blocks, ``verify`` of an unknown suite, a removed
  algorithm key (``gamma``) and problem parameter (``z_star``), EAG_V and
  APS_V first steps whose step schedule collapses at once, a per-algorithm
  ``max_iterations``, ``compare`` with ``stop_residual``, a ``seed`` beside
  a ``start`` and on ``figure1``, which has its own start, and two usage
  errors (``figure1`` with an unknown option and no subcommand).

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

#: (first, second, trace case whose problem, step and start they share) of
#: the residuals-only pairs given to the merging-path checks
SLIM_PAIRS = [("FEG", "OHM", "FEG"),
              ("SM_EAG_PLUS", "OC_HALPERN", "SM_EAG_PLUS")]

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
#: the d=1000 problem of the benchmark's long-calls workload; at seed 7, its
#: start seed too, these are that workload's CLI inputs
LONG_CALLS = {"name": "random_monotone_affine",
              "params": {"seed": 7, "d": 1000, "lipschitz": 10.0}}


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
    ("run", "long-calls d=1000", LONG_CALLS,
     _algos(("FEG", "OHM", "EAG", "OG"), 0.05), 300),
    ("compare", "long-calls FEG-OHM d=1000", LONG_CALLS,
     _algos(("FEG", "OHM"), 0.05), 300),
]


def _config(**change) -> bytes:
    doc = {"problem": AFFINE, "iterations": 10,
           "algorithms": _algos(("FEG", "OHM"), 0.05),
           "outputs": {"directory": "out"}, **change}
    return json.dumps(doc).encode()  # json.dumps writes NaN as NaN


# (label, CLI arguments, the bytes of config.json or None for a directory);
# each case runs in a directory of its own that also holds a file "blocker"
REFUSAL_CASES = [
    ("bad JSON", ["run", "config.json"], b"{not json"),
    ("non-UTF-8", ["run", "config.json"], b'{"problem": "\xff"}'),
    ("directory as config", ["run", "config.json"], None),
    ("unknown problem", ["run", "config.json"],
     _config(problem={"name": "nope"})),
    ("unknown problem with a NaN parameter", ["run", "config.json"],
     _config(problem={"name": "nope", "params": {"seed": float("nan")}})),
    # a valid JSON number that Python's parser reads as inf
    ("problem parameter 1e999", ["run", "config.json"],
     _config(problem={"name": "random_monotone_affine",
                      "params": {**AFFINE["params"], "lipschitz": "X"}})
     .replace(b'"X"', b"1e999")),
    ("empty bilinear coupling", ["run", "config.json"],
     _config(problem={"name": "bilinear", "params": {"coupling": []}},
             start=[1.0])),
    ("unknown algorithm", ["run", "config.json"],
     _config(algorithms=[{"algorithm": "WAT", "alpha": 0.05}])),
    ("alpha NaN", ["run", "config.json"],
     _config(algorithms=[{"algorithm": "FEG", "alpha": float("nan")}])),
    ("blocked output directory", ["compare", "config.json"],
     _config(outputs={"directory": "blocker/out"})),
    ("unknown suite", ["verify", "nope"], b"{}"),
    ("removed key gamma", ["run", "config.json"],
     _config(problem=SCSC, algorithms=[{"algorithm": "OC_HALPERN",
                                        "alpha": 0.2, "gamma": 1.5}])),
    ("removed problem parameter", ["run", "config.json"],
     _config(problem={"name": "random_monotone_affine",
                      "params": {**AFFINE["params"], "z_star": [1.0] * 6}})),
    ("EAG_V first step collapses", ["run", "config.json"],
     _config(problem={"name": "random_monotone_affine",
                      "params": {"seed": 0, "d": 4, "lipschitz": 1.0}},
             algorithms=[{"algorithm": "FEG", "alpha": 0.5},
                         {"algorithm": "EAG_V", "alpha": 0.9}])),
    ("APS_V first step collapses", ["run", "config.json"],
     _config(problem=SCSC_WEAK,
             algorithms=[{"algorithm": "FEG", "alpha": 0.05},
                         {"algorithm": "APS_V", "alpha": 0.05,
                          "theta": 0.5}])),
    ("a per-algorithm max_iterations", ["compare", "config.json"],
     _config(problem=AFFINE10, iterations=300,
             algorithms=[{"algorithm": "FEG", "alpha": 0.05,
                          "max_iterations": 200},
                         {"algorithm": "OHM", "alpha": 0.05}])),
    ("compare with stop_residual", ["compare", "config.json"],
     _config(problem=AFFINE10, iterations=300,
             algorithms=[{"algorithm": n, "alpha": 0.05,
                          "stop_residual": 1e-2} for n in ("FEG", "OHM")])),
    ("seed beside a start", ["run", "config.json"],
     _config(start=[1.0] * 6, seed="abc")),
    ("seed on figure1", ["run", "config.json"],
     _config(problem={"name": "figure1"}, seed=-5,
             algorithms=[{"algorithm": "FEG", "alpha": 0.1}])),
    ("figure1 with an unknown option", ["figure1", "--iterations", "60"],
     b"{}"),
    ("no subcommand", [], b"{}"),
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
    summability and merging-path reports, or the error each raises."""
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


def _merging_path_record(first, second, case) -> dict:
    """``mp_distance`` and ``merging_path`` on a residuals-only pair, or the
    error each raises."""
    from anchorkit import analysis
    from anchorkit.algorithms import AlgorithmConfig, run
    from anchorkit.problems import build_problem

    _, _, builder, params, alpha, _ = next(c for c in TRACE_CASES
                                           if c[0] == case)
    prob = build_problem(builder, params)
    z0 = np.linspace(-1.0, 2.0, prob.dim)
    slim = [run(AlgorithmConfig(name, alpha=alpha, max_iterations=ITERATIONS,
                                record_iterates=False), prob, z0)
            for name in (first, second)]

    def merging_path():
        mp = analysis.merging_path(*slim, prob)
        return {"sq_distance": mp.sq_distance, "k_values": mp.report.k_values,
                "measured": mp.report.measured, "bound": mp.report.bound,
                "passed": mp.passed, "note": mp.note}

    return {"mp_distance": _outcome(lambda: analysis.mp_distance(*slim)),
            "merging_path": _outcome(merging_path)}


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

        def analysis_with(**kwargs):
            config = AlgorithmConfig(name, alpha=alpha,
                                     max_iterations=ITERATIONS, **kwargs)
            return _outcome(
                lambda: _analysis_record(name, run(config, prob, z0), prob))

        full = run_with(max_iterations=ITERATIONS)
        records[f"{case}/full"] = full
        if name in ("FEG", "SM_EAG_PLUS"):
            records[f"{case}/analysis"] = analysis_with()
        records[f"{case}/slim"] = run_with(max_iterations=ITERATIONS,
                                           record_iterates=False)
        if isinstance(full, dict):
            stop = float(full["residual_norms"][STOP_ROW])
            records[f"{case}/stop"] = run_with(max_iterations=ITERATIONS,
                                               stop_residual=stop)
            first = float(full["residual_norms"][0])
            records[f"{case}/row0"] = run_with(max_iterations=ITERATIONS,
                                               stop_residual=first)
            if name in ("FEG", "SM_EAG_PLUS"):
                records[f"{case}/row0 analysis"] = analysis_with(
                    stop_residual=first)
        records[f"{case}/one"] = run_with(max_iterations=1)
    records = {f"trace {key}": record for key, record in records.items()}
    for first, second, case in SLIM_PAIRS:
        records[f"slim pair {first}/{second}"] = _outcome(
            lambda: _merging_path_record(first, second, case))
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
    """The bytes of every file under ``directory`` by relative path; None
    for a directory."""
    if not directory.is_dir():
        return {}
    return {str(p.relative_to(directory)):
            None if p.is_dir() else p.read_bytes()
            for p in sorted(directory.rglob("*"))}


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
        config = {"problem": problem, "iterations": iterations,
                  "algorithms": algorithms,
                  "outputs": {"directory": directory}}
        if problem["name"] != "figure1":  # figure1 has its own start
            config["seed"] = 7
        path = work / f"{directory}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        result = _cli(tree, work, [command, path.name])
        result["files"] = _files(work / directory)
        outputs[f"{command} {label}"] = result
    result = _cli(tree, work, ["figure1", "--out", "figure1"])
    result["files"] = _files(work / "figure1")
    outputs["figure1"] = result
    for label, args, config in REFUSAL_CASES:
        case = work / f"refused-{label.replace(' ', '-')}"
        case.mkdir()
        (case / "blocker").write_bytes(b"keep")
        if config is None:
            (case / "config.json").mkdir()
        else:
            (case / "config.json").write_bytes(config)
        result = _cli(tree, case, args)
        del result["stderr"]  # a traceback names the tree's own paths
        result["files"] = _files(case)
        outputs[f"refused {label}"] = result
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
