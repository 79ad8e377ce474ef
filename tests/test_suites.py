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


def test_suite_checks_beyond_the_suite_seeds():
    # the per-problem checks of ohm-rate, feg-ohm-mp, sm-eag-rate and
    # lyapunov, whose suites run SUITE_SEEDS, on seeds 20-99 of their recipes
    for seed in range(20, 100):
        prob, z0 = suites.affine_case(seed)
        assert suites.ohm_rate_check(prob, z0).passed, seed
        for ratio_al in suites.FEG_STEP_RATIOS:
            mp, summability = suites.feg_ohm_mp_check(prob, z0, ratio_al)
            assert mp.passed and summability.passed, (seed, ratio_al)
        prob, z0 = suites.scsc_case(seed)
        assert suites.sm_eag_rate_check(prob, z0).passed, seed
        for key, lyapunov in suites.lyapunov_check(prob, z0).items():
            assert lyapunov.passed, (seed, key)
