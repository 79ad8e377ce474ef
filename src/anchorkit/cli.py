"""Command-line front end. It parses configs, runs algorithms and writes
outputs; every verdict, merging-path rules included, comes from ``analysis``
or ``suites``.

Subcommands: ``run <config.json>``, ``compare <config.json>``,
``figure1 [--out DIR]``, ``verify <suite>``. Exit codes: 0 success,
1 verification failure, 2 usage/config error. Every package error is a
refusal, and so is a usage error of the arguments (code ``USAGE_ERROR``):
``main`` prints its ``code`` and message as a JSON object on stdout.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, suites
from .algorithms import AlgorithmConfig, run, validate_config
from .errors import AnchorkitError, ConfigError
from .operators import as_vector
from .problems import build_problem

#: the keys an algorithm entry may set besides ``algorithm``; every run goes
#: to the config's ``iterations`` and records the iterates its CSV holds
_ALGO_FIELDS = {"alpha", "momentum_a", "theta", "stop_residual"}


def _parse_finite(text: str) -> float:
    """The float of a JSON number, else ConfigError: JSON has no NaN or
    Infinity, and a literal such as 1e999 would read as inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config holds the non-finite number {text}")
    return value


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise ConfigError(f"cannot read config: {exc}",
                          code="BAD_CONFIG") from None
    try:
        return json.loads(text, parse_constant=_parse_finite,
                          parse_float=_parse_finite)
    except (ValueError, RecursionError) as exc:  # or nested too deeply
        raise ConfigError(f"config is not valid JSON: {exc}",
                          code="BAD_CONFIG") from None


def _make_dir(directory: Path) -> None:
    """Create the output directory, refusing a path that a file blocks."""
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from None


def _integer(where: str, value) -> int:
    """``value`` if it is a JSON integer, else a ConfigError naming
    ``where``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _parse_experiment(cfg):
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    problem_cfg = cfg.get("problem")
    if not isinstance(problem_cfg, dict) or "name" not in problem_cfg:
        raise ConfigError("config needs problem: {name, params}")
    pname = problem_cfg["name"]
    try:
        problem = build_problem(pname, problem_cfg.get("params"))
    except (TypeError, ValueError, OverflowError, MemoryError) as exc:
        # OverflowError: an integer beyond the float range; MemoryError: a
        # size whose arrays cannot be allocated at all
        raise ConfigError(f"problem {pname}: {exc}") from None
    iterations = _integer("iterations", cfg.get("iterations", 1000))
    algos = cfg.get("algorithms")
    if not isinstance(algos, list) or not algos:
        raise ConfigError("config needs a non-empty algorithms list")
    configs = []
    for entry in algos:
        if not isinstance(entry, dict):
            raise ConfigError("each algorithms entry must be a JSON object")
        # the config refuses an unknown algorithm, a missing alpha and a bad
        # field before the unknown keys are named
        known = {"max_iterations": iterations, "alpha": None,
                 **{k: v for k, v in entry.items() if k in _ALGO_FIELDS}}
        config = AlgorithmConfig(entry.get("algorithm"), **known)
        unknown = sorted(entry.keys() - _ALGO_FIELDS - {"algorithm"})
        if unknown:
            raise ConfigError(f"{config.algorithm}: unknown keys {unknown}")
        validate_config(config, problem)  # before any file is written
        configs.append(config)
    if "seed" in cfg and ("start" in cfg or problem.start is not None):
        given = "the config's" if "start" in cfg else f"problem {pname}'s own"
        raise ConfigError(f"seed draws a random start, but this run starts "
                          f"from {given} start")
    if "start" in cfg:
        try:
            z0 = as_vector(cfg["start"], problem.dim)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"start: {exc}") from None
    elif problem.start is not None:
        z0 = problem.start
    else:
        seed = _integer("seed", cfg.get("seed", 0))
        if seed < 0:
            raise ConfigError(f"seed must be non-negative, got {seed}")
        z0 = np.random.default_rng(seed).standard_normal(problem.dim)
    outputs = cfg.get("outputs", {})
    directory = (outputs.get("directory", "anchorkit-out")
                 if isinstance(outputs, dict) else None)
    if not isinstance(directory, str):
        raise ConfigError("outputs must be {directory: a path string}")
    return problem, configs, z0, Path(directory)


def _write_csv(path: Path, header, *blocks) -> None:
    """Write ``header``, then for each row index k a line of k followed by
    row k of each 2-D array in ``blocks``: integer arrays as integers, the
    others with 17 significant digits, which round-trip exactly. Each line
    is one ``%`` format of a row template built once per file; ``'%.17g' %
    v`` and ``format(v, '.17g')`` call the same routine, as ``'%d' % n``
    and ``str(n)`` do. Each line is written to the open file as soon as it
    is formatted, so neither the cells nor the text of the file are ever
    held whole."""
    row = ",".join(["%d"] + [
        "%d" if np.issubdtype(block.dtype, np.integer) else "%.17g"
        for block in blocks for _ in range(block.shape[1])]) + "\n"
    with path.open("w", encoding="utf-8") as out:
        out.write(",".join(header) + "\n")
        for k, parts in enumerate(zip(*blocks)):
            cells = [k]
            for part in parts:
                cells += part.tolist()
            out.write(row % tuple(cells))


def _write_trace_csv(path: Path, trace) -> None:
    d = trace.main.shape[1]
    b_cum, r_cum = trace.cumulative_counts()
    header = (["k"] + [f"z_{i}" for i in range(d)]
              + ["residual_norm", "oracle_B_count", "oracle_resolvent_count"])
    _write_csv(path, header, trace.main, trace.residual_norms[:, None],
               np.column_stack([b_cum, r_cum]))


def cmd_run(config_path: str) -> int:
    cfg = _load_config(config_path)
    problem, configs, z0, out_dir = _parse_experiment(cfg)
    _make_dir(out_dir)
    written, reasons = [], []
    for i, acfg in enumerate(configs):
        trace = run(acfg, problem, z0)
        path = out_dir / f"trace_{i:02d}_{acfg.algorithm}.csv"
        _write_trace_csv(path, trace)
        written.append(str(path))
        reasons.append(trace.stop_reason)
        del trace  # not held while the next run records its own
    # a diverged run is a result, not a failure: its CSV ends at the first
    # non-finite row and the exit code stays 0
    print(json.dumps({"status": "ok", "traces": written,
                      "stop_reasons": reasons}))
    return 0


def cmd_compare(config_path: str) -> int:
    cfg = _load_config(config_path)
    problem, configs, z0, out_dir = _parse_experiment(cfg)
    if len(configs) != 2:
        raise ConfigError("compare needs exactly two algorithms")
    first, second = configs
    pair = (first.algorithm, second.algorithm)
    rule = analysis.mp_rule(*pair)
    # both paths run to one horizon at one step, so their rows pair up
    if (first.alpha != second.alpha
            or {first.stop_residual, second.stop_residual} != {None}):
        raise ConfigError("compare needs both algorithms at the same alpha, "
                          "without stop_residual")
    _make_dir(out_dir)
    traces = [run(c, problem, z0) for c in configs]
    mp = analysis.merging_path(*traces, problem)
    k, sq = mp.report.k_values, mp.sq_distance  # k = 0, 1, ..., K
    _write_csv(out_dir / "mp.csv",
               ["k", "sq_distance", "k2_sq_distance", "bound", "ratio"],
               np.column_stack([sq, k * k * sq, mp.report.bound,
                                mp.report.ratios]))
    verdict_doc = {
        "pair": list(pair),
        "rule": rule,
        "verdict": "pass" if mp.passed else "fail",
        "note": mp.note,
    }
    (out_dir / "bound.json").write_text(json.dumps(verdict_doc, indent=2) + "\n",
                                        encoding="utf-8")
    print(json.dumps(verdict_doc))
    return 0 if mp.passed else 1


def cmd_figure1(out: str) -> int:
    out_dir = Path(out)
    _make_dir(out_dir)
    prob, runs, failures = suites.figure1_trajectories()
    for label, trace in runs.items():
        safe = label.replace("(", "_").replace(")", "").replace("=", "")
        _write_csv(out_dir / f"trajectory_{safe}.csv", ["k", "x1", "x2"],
                   trace.main)
    summary = suites.figure1_summary(runs)
    summary["start"] = [float(v) for v in prob.start]
    summary["iterations"] = suites.FIGURE1_ITERATIONS
    summary["domain_failures"] = failures
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n",
                                          encoding="utf-8")
    print(json.dumps({"status": "ok", "directory": str(out_dir)}))
    return 0


def cmd_verify(suite_name: str) -> int:
    names = sorted(suites.SUITES) if suite_name == "all" else [suite_name]
    failed = False
    for name in names:
        result = suites.run_suite(name)
        print(f"== suite {name}: {'PASS' if result.passed else 'FAIL'}")
        for line in result.lines:
            print(f"   {line}")
        failed = failed or not result.passed
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are refusals like any other."""

    def error(self, message):
        raise AnchorkitError(message, code="USAGE_ERROR")


def main(argv=None) -> int:
    parser = _Parser(
        prog="anchorkit",
        description="anchored minimax/fixed-point algorithms and their "
                    "verification suites")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run algorithms, emit trace CSVs")
    p_run.add_argument("config")
    p_cmp = sub.add_parser("compare", help="merging-path comparison of a pair")
    p_cmp.add_argument("config")
    p_fig = sub.add_parser("figure1", help="reproduce the 2-d benchmark runs")
    p_fig.add_argument("--out", default="figure1-out")
    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("suite")
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(args.config)
        if args.command == "compare":
            return cmd_compare(args.config)
        if args.command == "figure1":
            return cmd_figure1(args.out)
        return cmd_verify(args.suite)
    except AnchorkitError as exc:  # a refusal: exit 2 with its code
        print(json.dumps({"error": exc.code, "detail": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
