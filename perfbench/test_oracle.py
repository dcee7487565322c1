"""The bound oracle agrees with ``repro.core.bounds`` over a parameter grid.

Run from the repository root::

    PYTHONPATH=src:perfbench python3 -m pytest perfbench/test_oracle.py -q

The oracle re-derives its closed forms independently; this test is the one
place the two are compared.  It also checks the oracle's in-spec rule
against the program's side-conditions and that its verdict flags a result
pushed just past each bound.
"""

import dataclasses
import itertools
import math

import pytest

import oracle
from repro.core import bounds as program
from repro.core.params import SyncParams
from repro.workloads.scenarios import Scenario, run_scenario

GRID = list(itertools.product(
    (4, 7, 10, 28, 42),  # n
    (1e-6, 1e-4, 1e-2),  # rho
    (0.001, 0.01, 0.05),  # tdel
    (0.5, 1.0, 4.0),  # period
    (None, 0.02),  # alpha
    ("auth", "echo"),
))


def _params(n, rho, tdel, period, alpha, algorithm):
    f = math.ceil(n / (2 if algorithm == "auth" else 3)) - 1
    return SyncParams(n=n, f=f, rho=rho, tdel=tdel, period=period, alpha=alpha)


@pytest.mark.parametrize("n,rho,tdel,period,alpha,algorithm", GRID)
def test_closed_forms_match_the_program(n, rho, tdel, period, alpha, algorithm):
    p = _params(n, rho, tdel, period, alpha, algorithm)
    b = oracle.bounds(p.n, p.f, p.rho, p.tdel, p.period, p.alpha, algorithm)
    assert b.sigma == program.acceptance_spread(p, algorithm)
    assert b.beta_min == program.beta_min(p, algorithm)
    assert b.beta_max == program.beta_max(p, algorithm)
    assert b.dmax == program.precision_bound(p, algorithm)
    if b.beta_min > 0:
        assert (b.rate_min, b.rate_max) == program.long_run_rate_bounds(p, algorithm)
    else:
        with pytest.raises(program.ParameterError):
            program.long_run_rate_bounds(p, algorithm)


@pytest.mark.parametrize("n,rho,tdel,period,alpha,algorithm", GRID)
def test_in_spec_implies_the_program_checks_hold(n, rho, tdel, period, alpha, algorithm):
    p = _params(n, rho, tdel, period, alpha, algorithm)
    scenario = Scenario(params=p, algorithm=algorithm)
    if oracle.in_spec(scenario):
        resilience = p.n > (2 if algorithm == "auth" else 3) * p.f
        assert resilience and program.gamma_min(p, algorithm) > 0


def test_verdict_flags_results_past_each_bound():
    scenario = Scenario(params=_params(7, 1e-4, 0.01, 1.0, None, "auth"), attack="eager", rounds=5,
                        delay_mode="targeted")
    result = run_scenario(scenario, trace_level="metrics")
    assert oracle.in_spec(scenario)
    assert oracle.violations(result) == []
    b = oracle.bounds_for(scenario)
    pushed = [
        dataclasses.replace(result, precision=b.dmax * 1.001),
        dataclasses.replace(result, acceptance_spread=b.sigma * 1.001),
        dataclasses.replace(result, completed_round=scenario.rounds - 1),
        dataclasses.replace(result, period_stats=dataclasses.replace(result.period_stats, maximum=b.beta_max * 1.001)),
        dataclasses.replace(result, accuracy=dataclasses.replace(result.accuracy, fastest_long_run_rate=b.rate_max * 1.001)),
    ]
    for bad in pushed:
        assert len(oracle.violations(bad)) == 1
