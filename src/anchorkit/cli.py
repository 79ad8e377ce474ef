"""Command-line front end. It parses configs, runs algorithms and writes
outputs; every verdict, merging-path rules included, comes from ``analysis``
or ``suites``.

Subcommands: ``run <config.json>``, ``compare <config.json>``,
``figure1 [--out DIR]``, ``verify <suite>``. Exit codes: 0 success,
1 verification failure, 2 usage/config error. Config errors print a
machine-readable JSON object on stdout.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import analysis, suites
from .algorithms import ALGORITHMS, AlgorithmConfig, run, validate_config
from .errors import AnchorkitError, ConfigError, DomainViolation
from .operators import as_vector
from .problems import PROBLEM_BUILDERS, build_problem

#: keys an algorithm entry may set besides ``algorithm``, each with whether
#: it may be null; trace CSVs need recorded iterates, so ``record_iterates``
#: is not one of them
_ALGO_FIELDS = {f.name: f.default is None for f in fields(AlgorithmConfig)
                if f.name not in ("algorithm", "record_iterates")}


def _fail(code: str, detail: str) -> int:
    """Print the machine-readable error; return the config-error exit code."""
    print(json.dumps({"error": code, "detail": detail}))
    return 2


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _number(where: str, value, integer: bool = False):
    """``value`` if it is a finite JSON number (an integer if asked), else
    a ConfigError naming ``where``."""
    kinds = int if integer else (int, float)
    if (isinstance(value, bool) or not isinstance(value, kinds)
            or isinstance(value, float) and not math.isfinite(value)):
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{where} must be {kind}, got {value!r}")
    return value


def _finite_numbers(where: str, value) -> None:
    """ConfigError if ``value`` holds a non-finite number at any depth; JSON
    has no such numbers, but Python's parser reads NaN and Infinity."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        _finite_numbers(f"{where}.{key}", item)


def _parse_experiment(cfg):
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    problem_cfg = cfg.get("problem")
    if not isinstance(problem_cfg, dict) or "name" not in problem_cfg:
        raise ConfigError("config needs problem: {name, params}")
    pname = problem_cfg["name"]
    if not isinstance(pname, str) or pname not in PROBLEM_BUILDERS:
        raise KeyError(f"unknown problem {pname!r}")
    _finite_numbers("problem.params", problem_cfg.get("params"))
    try:
        problem = build_problem(pname, problem_cfg.get("params"))
    except (TypeError, ValueError, MemoryError) as exc:
        # MemoryError: a size whose arrays cannot be allocated at all
        raise ConfigError(f"problem {pname}: {exc}") from None
    iterations = _number("iterations", cfg.get("iterations", 1000),
                         integer=True)
    algos = cfg.get("algorithms")
    if not isinstance(algos, list) or not algos:
        raise ConfigError("config needs a non-empty algorithms list")
    configs = []
    for entry in algos:
        if not isinstance(entry, dict):
            raise ConfigError("each algorithms entry must be a JSON object")
        name = entry.get("algorithm")
        if not isinstance(name, str) or name not in ALGORITHMS:
            raise ConfigError(f"UNKNOWN_ALGORITHM:{name}")
        kwargs = {k: v for k, v in entry.items() if k != "algorithm"}
        unknown = sorted(kwargs.keys() - _ALGO_FIELDS.keys())
        if unknown:
            raise ConfigError(f"{name}: unknown keys {unknown}")
        kwargs.setdefault("max_iterations", iterations)
        if "alpha" not in kwargs:
            raise ConfigError(f"{name}: alpha is required")
        for key, value in kwargs.items():
            if value is not None or not _ALGO_FIELDS[key]:
                _number(f"{name}: {key}", value,
                        integer=key == "max_iterations")
        configs.append(AlgorithmConfig(algorithm=name, **kwargs))
        validate_config(configs[-1], problem)  # before any file is written
    if "start" in cfg:
        try:
            z0 = as_vector(cfg["start"], problem.dim)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"start: {exc}") from None
    elif problem.start is not None:
        z0 = problem.start
    else:
        seed = _number("seed", cfg.get("seed", 0), integer=True)
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
    others with 17 significant digits, which round-trip exactly. Lines are
    built one row at a time, so a wide trace is never held as cells."""
    specs = ["" if np.issubdtype(block.dtype, np.integer) else ".17g"
             for block in blocks]
    lines = [",".join(header)]
    for k, parts in enumerate(zip(*blocks)):
        cells = [str(k)]
        for spec, part in zip(specs, parts):
            cells += [format(v, spec) for v in part.tolist()]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    out_dir.mkdir(parents=True, exist_ok=True)
    written, reasons = [], []
    for i, acfg in enumerate(configs):
        trace = run(acfg, problem, z0)
        path = out_dir / f"trace_{i:02d}_{acfg.algorithm}.csv"
        _write_trace_csv(path, trace)
        written.append(str(path))
        reasons.append(trace.stop_reason)
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
    pair = (configs[0].algorithm, configs[1].algorithm)
    rule = analysis.mp_rule(*pair)
    if configs[0].alpha != configs[1].alpha:
        raise ConfigError("compare needs both algorithms at the same alpha")
    traces = [run(c, problem, z0) for c in configs]
    mp = analysis.merging_path(*traces, problem)
    out_dir.mkdir(parents=True, exist_ok=True)
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


def cmd_figure1(out: str, iterations: int = 200) -> int:
    if iterations < suites.FIGURE1_SUMMARY_K:
        raise ConfigError(f"figure1 needs --iterations >= "
                          f"{suites.FIGURE1_SUMMARY_K}, the summary's row")
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    prob, runs, failures = suites.figure1_trajectories(iterations)
    for label, trace in runs.items():
        safe = label.replace("(", "_").replace(")", "").replace("=", "")
        _write_csv(out_dir / f"trajectory_{safe}.csv", ["k", "x1", "x2"],
                   trace.main)
    summary = suites.figure1_summary(runs)
    summary["start"] = [float(v) for v in prob.start]
    summary["iterations"] = iterations
    summary["domain_failures"] = failures
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n",
                                          encoding="utf-8")
    print(json.dumps({"status": "ok", "directory": str(out_dir)}))
    return 0


def cmd_verify(suite_name: str) -> int:
    names = sorted(suites.SUITES) if suite_name == "all" else [suite_name]
    failed = False
    for name in names:
        if name not in suites.SUITES:
            return _fail("UNKNOWN_SUITE", f"no suite named {name!r}; "
                                          f"known: {sorted(suites.SUITES)}")
        result = suites.run_suite(name)
        print(f"== suite {name}: {'PASS' if result.passed else 'FAIL'}")
        for line in result.lines:
            print(f"   {line}")
        failed = failed or not result.passed
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
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
    p_fig.add_argument("--iterations", type=int, default=200)
    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("suite")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config)
        if args.command == "compare":
            return cmd_compare(args.config)
        if args.command == "figure1":
            return cmd_figure1(args.out, args.iterations)
        return cmd_verify(args.suite)
    except FileNotFoundError as exc:
        return _fail("BAD_CONFIG", f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        return _fail("BAD_CONFIG", f"config is not valid JSON: {exc}")
    except KeyError as exc:
        return _fail("UNKNOWN_PROBLEM", str(exc))
    except ConfigError as exc:
        msg = str(exc)
        if msg.startswith("UNKNOWN_ALGORITHM:"):
            return _fail("UNKNOWN_ALGORITHM", msg.split(":", 1)[1])
        return _fail("CONFIG_ERROR", msg)
    except DomainViolation as exc:
        return _fail("DOMAIN_VIOLATION", str(exc))
    except AnchorkitError as exc:
        return _fail(type(exc).__name__.upper(), str(exc))


if __name__ == "__main__":
    sys.exit(main())
