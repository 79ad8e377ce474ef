"""How the suites turn per-problem verdicts into their summary lines."""
import dataclasses

from anchorkit import analysis, suites


def test_eag_aps_mp_summary_fails_with_any_problem(monkeypatch):
    few = suites._affine_set()[:2]
    monkeypatch.setattr(suites, "_affine_set", lambda: few)
    merging_path = analysis.merging_path

    def failing_eag_on_first(trace1, trace2, problem):
        mp = merging_path(trace1, trace2, problem)
        if trace1.algorithm == "EAG" and problem is few[0][0]:
            return dataclasses.replace(mp, passed=False)
        return mp

    monkeypatch.setattr(analysis, "merging_path", failing_eag_on_first)
    result = suites.eag_aps_mp_suite()
    assert not result.passed
    summary = [line for line in result.lines if "sup k^2 dist^2 =" in line]
    assert len(summary) == 2
    assert summary[0].startswith("[FAIL] EAG:")
    assert summary[1].startswith("[pass] APS:")
