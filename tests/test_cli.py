import json
import tracemalloc

import numpy as np
import pytest

from anchorkit import suites
from anchorkit.cli import _write_csv, main
from anchorkit.errors import ConfigError


def write_config(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def run_config(tmp_path):
    return write_config(tmp_path / "run.json", {
        "problem": {"name": "bilinear", "params": {"coupling": [[1.0]]}},
        "start": [1.0, 0.0],
        "iterations": 50,
        "algorithms": [
            {"algorithm": "FEG", "alpha": 0.5},
            {"algorithm": "EG", "alpha": 0.25},
        ],
        "outputs": {"directory": str(tmp_path / "out")},
    })


def test_run_writes_traces(run_config, tmp_path, capsys):
    assert main(["run", run_config]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "ok" and len(doc["traces"]) == 2
    lines = (tmp_path / "out" / "trace_00_FEG.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["k", "z_0", "z_1", "residual_norm", "oracle_B_count",
                      "oracle_resolvent_count"]
    assert len(lines) == 52  # header + 51 rows
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 1.0


def test_run_reports_stop_reasons_and_keeps_diverged_rows(tmp_path, capsys):
    # at L = 1e308, ||B z0||^2 overflows: the forward methods diverge at
    # row 0, which the CSV keeps, and the run still exits 0
    out = tmp_path / "out"
    cfgp = write_config(tmp_path / "huge.json", {
        "problem": {"name": "random_monotone_affine",
                    "params": {"seed": 0, "d": 4, "lipschitz": 1e308}},
        "iterations": 20,
        "algorithms": [{"algorithm": "GDA", "alpha": 0.1},
                       {"algorithm": "OHM", "alpha": 0.1},
                       {"algorithm": "OHM", "alpha": 0.1,
                        "stop_residual": 1.0}],
        "outputs": {"directory": str(out)},
    })
    assert main(["run", cfgp]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stop_reasons"] == ["diverged", "max_iterations",
                                   "stop_residual"]
    lines = (out / "trace_00_GDA.csv").read_text().splitlines()
    assert len(lines) == 2  # header + row 0
    assert lines[1].split(",")[5] == "inf"


def test_csv_bytes_match_per_cell_format(tmp_path):
    # reference: one format(v, '.17g') per float cell and str() per integer
    floats = np.array([[-0.0, np.inf, -np.inf, np.nan, 5e-324,
                        np.finfo(float).max, -np.finfo(float).max, 0.1],
                       [1e16, 1e-300, -2.5, 1.0 / 3.0, 0.0, 123456789.0,
                        -1e-5, 2.0 ** 60]])
    ints = np.array([[0, -7, 2 ** 62], [1, 10 ** 18, -(2 ** 63)]])
    header = ["k"] + [f"c{i}" for i in range(12)]
    path = tmp_path / "t.csv"
    _write_csv(path, header, floats, ints, floats[:, :1])
    lines = [",".join(header)] + [
        ",".join([str(k)] + [format(v, ".17g") for v in f.tolist()]
                 + [str(v) for v in i.tolist()] + [format(f[0], ".17g")])
        for k, (f, i) in enumerate(zip(floats, ints))]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_csv_streams_its_rows(tmp_path):
    # numpy arrays and Python strings report to tracemalloc; the file's
    # text, its lines and their cells are never held whole
    block = np.random.default_rng(0).standard_normal((301, 400))
    path = tmp_path / "wide.csv"
    header = ["k"] + [f"c{i}" for i in range(400)]
    tracemalloc.start()
    try:
        _write_csv(path, header, block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * path.stat().st_size, peak / path.stat().st_size


def test_run_at_large_lipschitz_exits_0(tmp_path, capsys):
    # at seed 3, d = 4 and L = 1e10, fl(c K) exceeds L by more than the
    # absolute slack; the build rescales K and the run goes ahead
    out = tmp_path / "out"
    cfgp = write_config(tmp_path / "large.json", {
        "problem": {"name": "random_monotone_affine",
                    "params": {"seed": 3, "d": 4, "lipschitz": 1e10}},
        "iterations": 5,
        "algorithms": [{"algorithm": "OHM", "alpha": 1e-10}],
        "outputs": {"directory": str(out)},
    })
    assert main(["run", cfgp]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "ok"
    assert doc["stop_reasons"] == ["max_iterations"]
    assert len((out / "trace_00_OHM.csv").read_text().splitlines()) == 7


def test_run_zero_problem_constant_columns(tmp_path, capsys):
    cfgp = write_config(tmp_path / "zero.json", {
        "problem": {"name": "bilinear", "params": {"coupling": [[0.0]]}},
        "start": [0.7, -0.3],
        "iterations": 10,
        "algorithms": [{"algorithm": "FEG", "alpha": 0.5}],
        "outputs": {"directory": str(tmp_path / "out")},
    })
    assert main(["run", cfgp]) == 0
    capsys.readouterr()
    rows = (tmp_path / "out" / "trace_00_FEG.csv").read_text().splitlines()[1:]
    zs = np.array([[float(c) for c in r.split(",")[1:3]] for r in rows])
    # frozen up to anchor-combination rounding (one ulp per step)
    assert np.max(np.abs(zs - np.array([0.7, -0.3]))) < 1e-13


def test_run_roundtrip_full_precision(run_config, tmp_path, capsys):
    import anchorkit as ak
    main(["run", run_config])
    capsys.readouterr()
    rows = (tmp_path / "out" / "trace_00_FEG.csv").read_text().splitlines()[1:]
    parsed = np.array([[float(c) for c in r.split(",")[1:3]] for r in rows])
    prob = ak.make_bilinear([[1.0]])
    trace = ak.run(ak.AlgorithmConfig("FEG", alpha=0.5, max_iterations=50),
                   prob, np.array([1.0, 0.0]))
    assert np.array_equal(parsed, trace.main)  # 17 digits round-trip exactly


def test_run_deterministic_bytes(run_config, tmp_path, capsys):
    main(["run", run_config])
    first = (tmp_path / "out" / "trace_00_FEG.csv").read_bytes()
    main(["run", run_config])
    second = (tmp_path / "out" / "trace_00_FEG.csv").read_bytes()
    capsys.readouterr()
    assert first == second


def test_unknown_algorithm_exit_code(tmp_path, capsys):
    cfgp = write_config(tmp_path / "bad.json", {
        "problem": {"name": "bilinear", "params": {"coupling": [[1.0]]}},
        "start": [1.0, 0.0],
        "algorithms": [{"algorithm": "WAT", "alpha": 0.5}],
    })
    assert main(["run", cfgp]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "UNKNOWN_ALGORITHM"


def test_unknown_problem_and_bad_json(tmp_path, capsys):
    cfgp = write_config(tmp_path / "bad.json", {
        "problem": {"name": "nope"},
        "algorithms": [{"algorithm": "FEG", "alpha": 0.5}],
    })
    assert main(["run", cfgp]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "UNKNOWN_PROBLEM", "detail": "unknown problem 'nope'"}
    (tmp_path / "broken.json").write_text("{not json")
    assert main(["run", str(tmp_path / "broken.json")]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "BAD_CONFIG"


def test_config_error_on_bad_step(tmp_path, capsys):
    cfgp = write_config(tmp_path / "bad.json", {
        "problem": {"name": "bilinear", "params": {"coupling": [[1.0]]}},
        "start": [1.0, 0.0],
        "algorithms": [{"algorithm": "FEG", "alpha": 2.0}],  # alpha L >= 1
    })
    assert main(["run", cfgp]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "CONFIG_ERROR"


def test_unknown_algorithm_key_rejected(tmp_path, capsys):
    cfgp = write_config(tmp_path / "typo.json", {
        "problem": {"name": "bilinear", "params": {"coupling": [[1.0]]}},
        "start": [1.0, 0.0],
        "iterations": 40,
        "algorithms": [{"algorithm": "FEG", "alpha": 0.5,
                        "stop_residul": 1e-3}],
        "outputs": {"directory": str(tmp_path / "out")},
    })
    assert main(["run", cfgp]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "CONFIG_ERROR" and "stop_residul" in doc["detail"]
    assert not (tmp_path / "out").exists()


def test_epsilon_schedule_rejected(tmp_path, capsys):
    cfgp = write_config(tmp_path / "eps.json", {
        "problem": {"name": "box_bilinear_composite", "params": {"seed": 5}},
        "start": [0.5, -0.5, 0.25, 1.0],
        "iterations": 10,
        "algorithms": [{"algorithm": "APG_STAR", "alpha": 0.2,
                        "epsilon_schedule": "default"}],
        "outputs": {"directory": str(tmp_path / "out")},
    })
    assert main(["run", cfgp]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "CONFIG_ERROR"


DROP = object()  # marks a key the bad config leaves out
AFFINE4 = {"seed": 0, "d": 4, "lipschitz": 1.0}
SCSC4 = {"seed": 1, "d": 4, "lipschitz": 4.0, "mu": 0.5}

VALID_RUN = {
    "problem": {"name": "bilinear", "params": {"coupling": [[1.0]]}},
    "start": [1.0, 0.0],
    "iterations": 5,
    "algorithms": [{"algorithm": "FEG", "alpha": 0.5}],
}


@pytest.mark.parametrize("change", [
    {"algorithms": [{"algorithm": "FEG", "alpha": "0.1"}]},
    {"algorithms": [{"algorithm": "FEG", "alpha": 0.5,
                     "stop_residual": "x"}]},
    {"start": [float("nan"), 0.0]},
    None,  # a top-level JSON array
    {"iterations": 2.5},
    {"problem": {"name": "bilinear",
                 "params": {"coupling": [[1.0]], "shift": 1.0}}},
    {"start": DROP, "seed": -1},
    # a seed that draws no start: beside a start, and on a problem that has
    # its own start
    {"seed": "abc"},
    {"problem": {"name": "figure1"}, "start": DROP, "seed": -5,
     "algorithms": [{"algorithm": "FEG", "alpha": 0.1}]},
    # the horizon is the top-level iterations alone
    {"algorithms": [{"algorithm": "FEG", "alpha": 0.5, "max_iterations": 5}]},
    {"algorithms": [{"algorithm": "FEG", "alpha": 0.5,
                     "resolvent_tolerance": 0}]},
    {"algorithms": [{"algorithm": "FEG", "alpha": 0.5,
                     "resolvent_tolerance": 1e-10}]},
    {"algorithms": [{"algorithm": "FEG", "alpha": 0.5, "momentum_a": 9.0}]},
    {"algorithms": [{"algorithm": "FEG", "alpha": 0.5, "theta": 3.0}]},
    # removed options, each in a config that runs without it
    {"problem": {"name": "random_scsc", "params": SCSC4}, "start": DROP,
     "algorithms": [{"algorithm": "OC_HALPERN", "alpha": 0.1, "gamma": 1.5}]},
    {"problem": {"name": "random_monotone_affine",
                 "params": {**AFFINE4, "z_star": [1.0, 0.0, 0.0, 0.0]}},
     "start": DROP},
    {"problem": {"name": "random_monotone_affine",
                 "params": {**AFFINE4, "name": "a"}}, "start": DROP},
    {"problem": {"name": "random_scsc", "params": {**SCSC4, "name": "s"}},
     "start": DROP, "algorithms": [{"algorithm": "FEG", "alpha": 0.1}]},
    {"problem": {"name": "box_bilinear_composite",
                 "params": {"seed": 0, "box_lower": -1.0}},
     "start": DROP, "algorithms": [{"algorithm": "OHM_DRS", "alpha": 0.1}]},
    {"problem": {"name": "box_bilinear_composite",
                 "params": {"seed": 0, "shift_scale": 0.1}},
     "start": DROP, "algorithms": [{"algorithm": "OHM_DRS", "alpha": 0.1}]},
    {"problem": {"name": "box_bilinear_composite",
                 "params": {"seed": 0, "name": "b"}},
     "start": DROP, "algorithms": [{"algorithm": "OHM_DRS", "alpha": 0.1}]},
    {"problem": {"name": "box_bilinear_composite",
                 "params": {"seed": 0, "box_upper": float("inf")}},
     "start": DROP,
     "algorithms": [{"algorithm": "OHM_DRS", "alpha": 0.1}]},
    # a 10^7 x 10^7 matrix (728 TiB) exceeds any 64-bit user address space,
    # so numpy refuses it at once, without touching memory
    {"problem": {"name": "box_bilinear_composite",
                 "params": {"seed": 0, "size": 10 ** 7}}},
    {"problem": {"name": "random_scsc",
                 "params": {"seed": 0, "d": 10 ** 7, "lipschitz": 10.0,
                            "mu": 1.0}}},
    # integers beyond the float range
    {"problem": {"name": "random_monotone_affine",
                 "params": {"seed": 0, "d": 2, "lipschitz": 10 ** 400}}},
    {"start": [10 ** 400, 0.0]},
], ids=["alpha-string", "stop-residual-string", "nan-start", "json-array",
        "fractional-iterations", "unknown-problem-parameter", "negative-seed",
        "seed-beside-start", "seed-on-default-start",
        "per-algorithm-max-iterations",
        "zero-resolvent-tolerance", "resolvent-tolerance",
        "ignored-momentum-a", "ignored-theta", "removed-gamma",
        "removed-affine-z-star", "removed-affine-name", "removed-scsc-name",
        "removed-box-lower", "removed-box-shift-scale", "removed-box-name",
        "infinite-problem-parameter", "unallocatable-box-bilinear",
        "unallocatable-scsc", "huge-problem-parameter", "huge-start"])
def test_bad_config_fails_closed(change, tmp_path, capsys):
    out = tmp_path / "out"
    doc = {**VALID_RUN, "outputs": {"directory": str(out)}}
    if change is None:
        doc = [doc]
    else:
        doc = {k: v for k, v in {**doc, **change}.items() if v is not DROP}
    path = tmp_path / "bad.json"
    # json.dumps writes NaN, which json.load reads back
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "CONFIG_ERROR"
    assert not out.exists()


@pytest.mark.parametrize("coupling", [[], [[]]])
def test_empty_coupling_refused(coupling, tmp_path, capsys):
    # np.atleast_2d reads both as a 1 x 0 matrix, once a 1-d zero operator
    out = tmp_path / "out"
    path = write_config(tmp_path / "cfg.json", {
        **VALID_RUN, "start": [1.0],
        "problem": {"name": "bilinear", "params": {"coupling": coupling}},
        "outputs": {"directory": str(out)}})
    assert main(["run", path]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "DIMENSIONMISMATCH"
    assert not out.exists()


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999",
                                    "-1e999"])
def test_non_finite_numbers_refused_as_the_config_is_parsed(
        number, tmp_path, capsys):
    # anywhere in the file, even under a key that nothing reads; 1e999 is a
    # valid JSON number that reads as inf
    out = tmp_path / "out"
    doc = {**VALID_RUN, "outputs": {"directory": str(out)}, "note": "X"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc).replace('"X"', number), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "CONFIG_ERROR" and number in doc["detail"]
    assert not out.exists()


def test_unbounded_iterations_refused_before_any_run(
        tmp_path, capsys, monkeypatch):
    import anchorkit.cli as cli
    from anchorkit import algorithms

    def no_run(*args):
        raise AssertionError("ran an unbounded trace")

    monkeypatch.setattr(cli, "run", no_run)
    out = tmp_path / "out"
    # (iterations + 1) * d values: the second is refused only because d = 2
    for change in ({"iterations": 10 ** 30},
                   {"iterations": algorithms.MAX_TRACE_VALUES // 2}):
        cfgp = write_config(tmp_path / "cfg.json", {
            **VALID_RUN, **change, "outputs": {"directory": str(out)}})
        assert main(["run", cfgp]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"] == "CONFIG_ERROR"
        assert str(algorithms.MAX_TRACE_VALUES) in doc["detail"]
        assert not out.exists()
    # the limit itself is allowed: 5 iterations at d = 2 record 12 values
    monkeypatch.setattr(algorithms, "MAX_TRACE_VALUES", 12)
    cli._parse_experiment({**VALID_RUN, "iterations": 5})
    with pytest.raises(ConfigError):
        cli._parse_experiment({**VALID_RUN, "iterations": 6})


@pytest.mark.parametrize("argv", [["figure1", "--iterations", "60"],
                                  ["figure1", "--out"], [], ["run"],
                                  ["verify", "ohm-rate", "extra"]],
                         ids=["unknown-option", "missing-value", "no-command",
                              "no-config", "extra-argument"])
def test_usage_error_is_a_json_refusal(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    [line] = captured.out.splitlines()
    doc = json.loads(line)
    assert doc["error"] == "USAGE_ERROR" and doc["detail"]
    assert captured.err == ""
    assert list(tmp_path.iterdir()) == []


def test_unreadable_config_refused(tmp_path, capsys):
    (tmp_path / "latin1.json").write_bytes(b'{"problem": "\xff"}')
    (tmp_path / "configs").mkdir()
    (tmp_path / "deep.json").write_text("[" * 10 ** 5 + "]" * 10 ** 5)
    before = sorted(tmp_path.iterdir())
    for path, detail in (("configs", "cannot read config: "),
                         ("latin1.json", "cannot read config: "),
                         ("deep.json", "config is not valid JSON: ")):
        assert main(["run", str(tmp_path / path)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"] == "BAD_CONFIG"
        assert doc["detail"].startswith(detail)
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("below", [False, True],
                         ids=["file-at-path", "file-on-path"])
def test_blocked_output_directory_refused_before_any_run(
        command, below, tmp_path, capsys, monkeypatch):
    import anchorkit.cli as cli

    def no_run(*args):
        raise AssertionError("ran before the output directory was made")

    monkeypatch.setattr(cli, "run", no_run)
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    cfgp = write_config(tmp_path / "cfg.json", {
        **VALID_RUN,
        "algorithms": [{"algorithm": "FEG", "alpha": 0.5},
                       {"algorithm": "OHM", "alpha": 0.5}],
        "outputs": {"directory": str(blocker / "out" if below else blocker)},
    })
    assert main([command, cfgp]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "CONFIG_ERROR"
    assert doc["detail"].startswith("cannot create output directory: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker",
                                                          "cfg.json"]
    assert blocker.read_text() == "keep"


def test_figure1_blocked_output_directory(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    for out in (blocker, blocker / "fig"):
        assert main(["figure1", "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "CONFIG_ERROR"
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"]
    assert blocker.read_text() == "keep"


def test_error_codes():
    from anchorkit.errors import (
        AnchorkitError,
        ConfigError,
        DomainViolation,
        MissingReferencePoint,
    )
    assert ConfigError("x").code == "CONFIG_ERROR"
    assert DomainViolation("x").code == "DOMAIN_VIOLATION"
    assert MissingReferencePoint("x").code == "MISSINGREFERENCEPOINT"
    assert ConfigError("x", code="BAD_CONFIG").code == "BAD_CONFIG"
    assert str(AnchorkitError("x", code="UNKNOWN_SUITE")) == "x"


def test_compare_feg_ohm_pass(tmp_path, capsys):
    cfgp = write_config(tmp_path / "cmp.json", {
        "problem": {"name": "random_monotone_affine",
                    "params": {"seed": 0, "d": 6, "lipschitz": 4.0}},
        "start": [1.0, 0.0, -1.0, 0.5, 0.2, -0.7],
        "iterations": 300,
        "algorithms": [{"algorithm": "FEG", "alpha": 0.1},
                       {"algorithm": "OHM", "alpha": 0.1}],
        "outputs": {"directory": str(tmp_path / "cmp-out")},
    })
    assert main(["compare", cfgp]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "pass" and doc["rule"] == "constant"
    rows = (tmp_path / "cmp-out" / "mp.csv").read_text().splitlines()
    assert rows[0] == "k,sq_distance,k2_sq_distance,bound,ratio"
    ratios = [float(r.split(",")[4]) for r in rows[1:]]
    assert max(ratios) <= 1.0 + 1e-9
    verdict = json.loads((tmp_path / "cmp-out" / "bound.json").read_text())
    assert verdict["verdict"] == "pass"


def test_compare_identical_pair_zero_distance(tmp_path, capsys):
    cfgp = write_config(tmp_path / "cmp.json", {
        "problem": {"name": "bilinear", "params": {"coupling": [[1.0]]}},
        "start": [1.0, 0.0],
        "iterations": 40,
        "algorithms": [{"algorithm": "FEG", "alpha": 0.5},
                       {"algorithm": "FEG", "alpha": 0.5}],
        "outputs": {"directory": str(tmp_path / "cmp-out")},
    })
    assert main(["compare", cfgp]) == 0
    capsys.readouterr()
    rows = (tmp_path / "cmp-out" / "mp.csv").read_text().splitlines()[1:]
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)


def test_compare_undeclared_pair_rejected(tmp_path, capsys):
    cfgp = write_config(tmp_path / "cmp.json", {
        "problem": {"name": "bilinear", "params": {"coupling": [[1.0]]}},
        "start": [1.0, 0.0],
        "algorithms": [{"algorithm": "GDA", "alpha": 0.1},
                       {"algorithm": "OHM", "alpha": 0.1}],
    })
    assert main(["compare", cfgp]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "CONFIG_ERROR"


@pytest.mark.parametrize("entries", [
    # a per-algorithm horizon is an unknown key
    [{"algorithm": "FEG", "alpha": 0.05, "max_iterations": 200},
     {"algorithm": "OHM", "alpha": 0.05, "max_iterations": 300}],
    [{"algorithm": "FEG", "alpha": 0.05, "stop_residual": 1e-2},
     {"algorithm": "OHM", "alpha": 0.05, "stop_residual": 1e-2}],
    [{"algorithm": "FEG", "alpha": 0.05},
     {"algorithm": "FEG", "alpha": 0.05, "stop_residual": 1e-2}],
], ids=["unequal-max-iterations", "stop-residual", "one-stop-residual"])
def test_compare_refuses_unequal_horizons_before_any_run(
        entries, tmp_path, capsys, monkeypatch):
    # the two paths would have different lengths; refused before a run
    # starts or the output directory exists
    def no_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr("anchorkit.cli.run", no_run)
    out = tmp_path / "cmp-out"
    cfgp = write_config(tmp_path / "cmp.json", {
        "problem": {"name": "random_monotone_affine",
                    "params": {"seed": 3, "d": 10, "lipschitz": 10.0}},
        "iterations": 300, "algorithms": entries,
        "outputs": {"directory": str(out)},
    })
    assert main(["compare", cfgp]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "CONFIG_ERROR"
    assert not out.exists()


def test_compare_apg_pair(tmp_path, capsys):
    cfgp = write_config(tmp_path / "cmp.json", {
        "problem": {"name": "box_bilinear_composite", "params": {"seed": 5}},
        "start": [0.5, -0.5, 0.25, 1.0],
        "iterations": 60,
        "algorithms": [{"algorithm": "APG_STAR", "alpha": 0.2},
                       {"algorithm": "OHM_DRS", "alpha": 0.2}],
        "outputs": {"directory": str(tmp_path / "cmp-out")},
    })
    assert main(["compare", cfgp]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "pass"
    assert "C(xi_0)" in doc["note"]


def test_figure1_outputs(tmp_path, capsys):
    out = tmp_path / "fig"
    assert main(["figure1", "--out", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["start"] == [-2.0, 3.0]
    assert summary["iterations"] == suites.FIGURE1_ITERATIONS
    assert summary["at_k"] == suites.FIGURE1_SUMMARY_K
    assert summary["threshold"] > 0
    assert len(summary["anchored_pairwise"]) == 6  # 4 methods
    assert len(summary["momentum_pairwise"]) == 3  # 3 momentum choices
    traj = (out / "trajectory_FEG.csv").read_text().splitlines()
    assert traj[0] == "k,x1,x2"
    assert traj[1].split(",")[1:] == ["-2", "3"]
    assert len(traj) == suites.FIGURE1_ITERATIONS + 2


def test_verify_exit_codes(capsys):
    assert main(["verify", "no-such-suite"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "UNKNOWN_SUITE"
    assert main(["verify", "ohm-rate"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_verify_failure_exit_code(monkeypatch, capsys):
    from anchorkit import suites as suites_mod

    def failing():
        r = suites_mod.SuiteResult()
        r.check(False, "forced failure")
        return r

    monkeypatch.setitem(suites_mod.SUITES, "stub", failing)
    assert main(["verify", "stub"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_all_prints_one_header_per_suite(monkeypatch, capsys):
    # a suite's name is its SUITES key, and verify prints that key
    from anchorkit import suites as suites_mod

    def stub():
        r = suites_mod.SuiteResult()
        r.info("stub")
        return r

    for name in suites_mod.SUITES:
        monkeypatch.setitem(suites_mod.SUITES, name, stub)
    assert main(["verify", "all"]) == 0
    headers = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("==")]
    assert headers == [f"== suite {name}: PASS"
                       for name in sorted(suites_mod.SUITES)]


def test_run_uses_problem_default_start(tmp_path, capsys):
    cfgp = write_config(tmp_path / "fig.json", {
        "problem": {"name": "figure1"},
        "iterations": 20,
        "algorithms": [{"algorithm": "FEG", "alpha": 0.1}],
        "outputs": {"directory": str(tmp_path / "out")},
    })
    assert main(["run", cfgp]) == 0
    capsys.readouterr()
    rows = (tmp_path / "out" / "trace_00_FEG.csv").read_text().splitlines()
    assert rows[1].split(",")[1:3] == ["-2", "3"]


def test_compare_geometric_pair(tmp_path, capsys):
    cfgp = write_config(tmp_path / "cmp.json", {
        "problem": {"name": "random_scsc",
                    "params": {"seed": 0, "d": 6, "lipschitz": 10.0,
                               "mu": 0.1}},
        "start": [0.4, -0.2, 1.0, 0.0, -0.6, 0.3],
        "iterations": 200,
        "algorithms": [{"algorithm": "SM_EAG_PLUS", "alpha": 0.05},
                       {"algorithm": "OC_HALPERN", "alpha": 0.05}],
        "outputs": {"directory": str(tmp_path / "cmp-out")},
    })
    assert main(["compare", cfgp]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "pass" and "envelope" in doc["note"]


def _compare(tmp_path, problem, algorithms, iterations, **extra):
    cfgp = write_config(tmp_path / "cmp.json", {
        "problem": problem, "iterations": iterations,
        "algorithms": algorithms,
        "outputs": {"directory": str(tmp_path / "cmp-out")}, **extra})
    return main(["compare", cfgp])


AFFINE_SEED3 = {"name": "random_monotone_affine",
                "params": {"seed": 3, "d": 10, "lipschitz": 10.0}}


def test_compare_eag_ohm_reported_pass(tmp_path, capsys):
    rc = _compare(tmp_path, AFFINE_SEED3,
                  [{"algorithm": "EAG", "alpha": 0.0125},
                   {"algorithm": "OHM", "alpha": 0.0125}], 2000, seed=1003)
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["rule"] == "reported" and doc["verdict"] == "pass"
    assert "no theoretical constant" in doc["note"]
    rows = (tmp_path / "cmp-out" / "mp.csv").read_text().splitlines()[1:]
    assert len(rows) == 2001
    # the bound column is the envelope sup k^2 dist^2
    k2 = [float(r.split(",")[2]) for r in rows]
    assert {float(r.split(",")[3]) for r in rows} == {max(k2)}


def test_compare_aps_ohm_reported_fail(tmp_path, capsys):
    rc = _compare(tmp_path, AFFINE_SEED3,
                  [{"algorithm": "APS", "alpha": 0.0125},
                   {"algorithm": "OHM", "alpha": 0.0125}], 400, seed=7)
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["rule"] == "reported" and doc["verdict"] == "fail"
    verdict = json.loads((tmp_path / "cmp-out" / "bound.json").read_text())
    assert verdict["verdict"] == "fail"


def test_compare_self_pair_with_different_settings_fails(tmp_path, capsys):
    rc = _compare(tmp_path,
                  {"name": "random_scsc",
                   "params": {"seed": 0, "d": 6, "lipschitz": 10.0,
                              "mu": 0.1}},
                  [{"algorithm": "APS_V", "alpha": 0.02, "theta": 1.0},
                   {"algorithm": "APS_V", "alpha": 0.02, "theta": 2.0}], 200,
                  start=[0.4, -0.2, 1.0, 0.0, -0.6, 0.3])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["rule"] == "self" and doc["verdict"] == "fail"
    rows = (tmp_path / "cmp-out" / "mp.csv").read_text().splitlines()[1:]
    assert float(rows[0].split(",")[1]) == 0.0
    assert float(rows[-1].split(",")[1]) > 0.0
