import json

import numpy as np
import pytest

from anchorkit.cli import main


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


@pytest.mark.filterwarnings("ignore:overflow encountered")
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
    assert json.loads(capsys.readouterr().out)["error"] == "UNKNOWN_PROBLEM"
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
    {"algorithms": [{"algorithm": "FEG", "alpha": 0.5,
                     "resolvent_tolerance": 0}]},
    {"algorithms": [{"algorithm": "FEG", "alpha": 0.5,
                     "resolvent_tolerance": 1e-10}]},
    {"algorithms": [{"algorithm": "FEG", "alpha": 0.5, "momentum_a": 9.0}]},
    {"algorithms": [{"algorithm": "OHM", "alpha": 0.5, "gamma": 1.5}]},
    {"algorithms": [{"algorithm": "FEG", "alpha": 0.5, "theta": 3.0}]},
    {"problem": {"name": "box_bilinear_composite",
                 "params": {"seed": 0, "box_upper": float("inf")}},
     "start": DROP,
     "algorithms": [{"algorithm": "OHM_DRS", "alpha": 0.1}]},
], ids=["alpha-string", "stop-residual-string", "nan-start", "json-array",
        "fractional-iterations", "unknown-problem-parameter", "negative-seed",
        "zero-resolvent-tolerance", "resolvent-tolerance",
        "ignored-momentum-a", "ignored-gamma", "ignored-theta",
        "infinite-problem-parameter"])
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


def test_figure1_rejects_too_few_iterations(tmp_path, capsys):
    out = tmp_path / "fig"
    assert main(["figure1", "--out", str(out), "--iterations", "49"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "CONFIG_ERROR" and "50" in doc["detail"]
    assert not out.exists()


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
    assert main(["figure1", "--out", str(out), "--iterations", "60"]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["start"] == [-2.0, 3.0]
    assert summary["threshold"] > 0
    assert len(summary["anchored_pairwise"]) == 6  # 4 methods
    assert len(summary["momentum_pairwise"]) == 3  # 3 momentum choices
    traj = (out / "trajectory_FEG.csv").read_text().splitlines()
    assert traj[0] == "k,x1,x2"
    assert traj[1].split(",")[1:] == ["-2", "3"]
    assert len(traj) == 62


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
                  [{"algorithm": "OC_HALPERN", "alpha": 0.05,
                    "gamma": 1.001},
                   {"algorithm": "OC_HALPERN", "alpha": 0.05,
                    "gamma": 1.002}], 200,
                  start=[0.4, -0.2, 1.0, 0.0, -0.6, 0.3])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["rule"] == "self" and doc["verdict"] == "fail"
    rows = (tmp_path / "cmp-out" / "mp.csv").read_text().splitlines()[1:]
    assert float(rows[0].split(",")[1]) == 0.0
    assert float(rows[-1].split(",")[1]) > 0.0
