"""Independent bound oracle for the Srikanth-Toueg synchronizers.

The closed forms below are re-typed from the derivation in the module
docstring of ``repro.core.bounds`` and deliberately do not import that
module: a benchmark that checked results against the program's own bound
code would accept a bug that moved the bound and the measurement together.
``test_oracle.py`` pins these formulas to ``repro.core.bounds`` over a
parameter grid.

Notation (paper/docstring): ``SIGMA`` relay bound (``tdel`` authenticated,
``2*tdel`` echo), ``DACC`` correctness bound (same values), ``P`` period,
``alpha`` adjustment constant (default ``(1+rho)*tdel``), ``rho`` drift.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Absolute float tolerance added to every bound (the program's own
#: guarantee checker uses the same 1e-9).
SLACK = 1e-9


@dataclass(frozen=True)
class Bounds:
    sigma: float
    beta_min: float
    beta_max: float
    dmax: float
    rate_min: float
    rate_max: float


def bounds(n: int, f: int, rho: float, tdel: float, period: float, alpha: float | None, algorithm: str) -> Bounds:
    """Dmax, beta_min/beta_max, SIGMA and the long-run rate interval."""
    if algorithm not in ("auth", "echo"):
        raise ValueError(f"no bounds for algorithm {algorithm!r}")
    if alpha is None:
        alpha = (1.0 + rho) * tdel
    one = 1.0 + rho
    sigma = tdel if algorithm == "auth" else 2.0 * tdel
    dacc = sigma
    g_min = (period - alpha) / one - sigma
    g_max = (period - alpha) * one + sigma + dacc
    b_min = g_min
    b_max = g_max + sigma
    drift = rho * (2.0 + rho) / one
    dmax = max(
        g_max * drift + one * sigma,  # both clocks still on round k
        one * sigma,  # both already on round k+1
        period + one * sigma + sigma / one - g_min / one,  # ahead vs behind
        one * (g_max + sigma) - period,  # behind-but-fast vs just resynced
    )
    return Bounds(sigma, b_min, b_max, dmax, period / b_max, period / b_min)


def in_spec(scenario) -> bool:
    """Whether the paper's guarantees claim to cover ``scenario``.

    Srikanth-Toueg algorithm, no more faults than tolerated, the resilience
    condition (n > 2f authenticated, n > 3f echo), a positive gamma_min,
    and none of the ablations or transients the steady-state bounds exclude:
    start-up from scratch, passive joiners and suppressed backward
    corrections.
    """
    p = scenario.params
    if scenario.algorithm not in ("auth", "echo") or scenario.actual_faults > p.f:
        return False
    if p.n <= (2 if scenario.algorithm == "auth" else 3) * p.f:
        return False
    if scenario.use_startup or scenario.joiner_count or scenario.monotonic:
        return False
    return bounds_for(scenario).beta_min > 0


def bounds_for(scenario) -> Bounds:
    p = scenario.params
    return bounds(p.n, p.f, p.rho, p.tdel, p.period, p.alpha, scenario.algorithm)


def violations(result) -> list[str]:
    """Every way an in-spec ``ScenarioResult`` breaks the oracle's bounds.

    Empty for a conforming result.  Checked: steady-state precision against
    Dmax, acceptance spread against SIGMA, resynchronization periods against
    [beta_min, beta_max], long-run logical rates against the rate interval,
    and completion of the target round.
    """
    scenario = result.scenario
    b = bounds_for(scenario)
    out = []
    if not result.precision <= b.dmax + SLACK:
        out.append(f"precision {result.precision!r} > Dmax {b.dmax!r}")
    if not result.acceptance_spread <= b.sigma + SLACK:
        out.append(f"acceptance spread {result.acceptance_spread!r} > SIGMA {b.sigma!r}")
    stats = result.period_stats
    if stats.count:
        if not stats.minimum >= b.beta_min - SLACK:
            out.append(f"period {stats.minimum!r} < beta_min {b.beta_min!r}")
        if not stats.maximum <= b.beta_max + SLACK:
            out.append(f"period {stats.maximum!r} > beta_max {b.beta_max!r}")
    if result.accuracy is not None:
        slowest = result.accuracy.slowest_long_run_rate
        fastest = result.accuracy.fastest_long_run_rate
        if not slowest >= b.rate_min - SLACK:
            out.append(f"long-run rate {slowest!r} < rate_min {b.rate_min!r}")
        if not fastest <= b.rate_max + SLACK:
            out.append(f"long-run rate {fastest!r} > rate_max {b.rate_max!r}")
    if result.completed_round < scenario.rounds:
        out.append(f"completed round {result.completed_round} < target {scenario.rounds}")
    return out
