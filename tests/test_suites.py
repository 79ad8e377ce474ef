"""The suites' summary lines and their per-problem checks beyond 0-19."""
import dataclasses

from anchorkit import analysis, suites


def test_eag_aps_mp_summary_fails_with_any_problem(monkeypatch):
    monkeypatch.setattr(suites, "SUITE_SEEDS", range(2))
    first = suites.affine_case(0)[0].name
    merging_path = analysis.merging_path

    def failing_eag_on_first(trace1, trace2, problem):
        mp = merging_path(trace1, trace2, problem)
        if trace1.algorithm == "EAG" and problem.name == first:
            return dataclasses.replace(mp, passed=False)
        return mp

    monkeypatch.setattr(analysis, "merging_path", failing_eag_on_first)
    result = suites.eag_aps_mp_suite()
    assert not result.passed
    summary = [line for line in result.lines if "sup k^2 dist^2 =" in line]
    assert len(summary) == 2
    assert summary[0].startswith("[FAIL] EAG:")
    assert summary[1].startswith("[pass] APS:")


def test_suite_checks_beyond_the_suite_seeds(monkeypatch):
    # the suites that run SUITE_SEEDS, on seeds 20-99 of their recipes; a
    # line that counts the problems counts the seeds the suite ran
    monkeypatch.setattr(suites, "SUITE_SEEDS", range(20, 100))
    for name in ("ohm-rate", "feg-ohm-mp", "sm-eag-rate", "lyapunov"):
        result = suites.run_suite(name)
        assert result.passed, (name, result.lines)
        counted = [line for line in result.lines if " problems" in line]
        assert all(" on 80 problems" in line for line in counted), counted
        # feg-ohm-mp prints its worst ratios without a count
        assert len(counted) == {"ohm-rate": 1, "feg-ohm-mp": 0,
                                "sm-eag-rate": 1, "lyapunov": 5}[name]


def test_figure1_lines_name_the_summary_row(monkeypatch):
    monkeypatch.setattr(suites, "FIGURE1_SUMMARY_K", 40)
    result = suites.figure1_suite()
    assert result.details["at_k"] == 40
    pairwise = [line for line in result.lines if "pairwise" in line]
    assert len(pairwise) == 2
    assert all("distances at k=40 " in line for line in pairwise), pairwise
