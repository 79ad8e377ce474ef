"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench``.

The seed-0 cross-check keeps the workloads in step with the verification
suites they mirror: a change to a suite's protocol makes it fail.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from anchorkit import suites  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

MIRRORS = {
    "sweep-d10": ("ohm-rate", "feg-ohm-mp", "eag-aps-mp", "sm-eag-rate",
                  "lyapunov"),
    "long-calls": ("speedup", "apg-mp", "apg-oracle-trend"),
}


def _execute(name, tracer=None):
    workload = workloads.WORKLOADS[name](0, HERE)
    try:
        inputs = workload.generate()
        if tracer is None:
            return workload.execute(inputs)
        tracer.install()
        try:
            return workload.execute(inputs)
        finally:
            tracer.uninstall()
    finally:
        workload.close()


@pytest.mark.parametrize("name", sorted(MIRRORS))
def test_seed0_reproduces_suite_details(name):
    execution = _execute(name)
    assert execution.failures == []
    assert sorted(execution.details) == sorted(MIRRORS[name])
    for suite_name in MIRRORS[name]:
        result = suites.run_suite(suite_name)
        assert result.passed, suite_name
        assert execution.details[suite_name] == result.details, suite_name


def test_traced_counts_reconcile_with_billing():
    tracer = spans.Tracer()
    execution = _execute("sweep-d10", tracer)
    stats = spans.layer_stats(tracer)
    assert execution.failures == []
    # every sweep-d10 operation makes exactly one run call
    assert stats["algorithms.runs"] == execution.attempted
    assert stats["algorithms.iterations"] == execution.iterations
    assert stats["operators.forward_calls"] > 0
    # OHM evaluates B at every iterate for instrumentation only
    assert stats["operators.unbilled_frac"] > 0.0
    assert not hasattr(suites.run, "__wrapped__")


def test_missed_binding_fails_reconciliation():
    """Calls the wrappers do not see leave the spans short of the billed
    counts, which must raise."""
    from anchorkit import operators
    prob, z0 = workloads.SweepD10(0, HERE).generate()[0][0]
    unwrapped = operators.AffineOperator.__call__
    tracer = spans.Tracer()
    tracer.install()
    try:
        operators.AffineOperator.__call__ = unwrapped
        workloads.Execution().run(workloads.AlgorithmConfig(
            "FEG", alpha=0.05, max_iterations=5), prob, z0)
    finally:
        tracer.uninstall()
    assert operators.AffineOperator.__call__ is unwrapped
    with pytest.raises(spans.ReconciliationError):
        spans.layer_stats(tracer)
