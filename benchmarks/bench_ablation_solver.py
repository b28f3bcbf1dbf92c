"""E7 (ablation) -- exact MCKP DP vs. the greedy baseline solver.

The paper solves its Step-3 optimization with a pseudo-polynomial DP;
this ablation quantifies what exactness buys over the classical
incremental-efficiency greedy.  Both solvers run on the *identical*
knapsack instance (same Pareto classes, same budget) so the gap is
purely solver quality; deployed energies are reported alongside for
context (those additionally contain sequence-dependent switch costs
neither solver models).  Solve wall-clock times vary run to run, so
they are printed but kept out of the committed table.
"""

import time

import pytest

from repro.dse.pareto import pareto_front
from repro.optimize import (
    MCKPItem,
    PAPER_QOS_LEVELS,
    solve_mckp_dp,
    solve_mckp_greedy,
)

from conftest import report


def build_instance(pipeline, model, level):
    clouds = pipeline.explorer.explore_model(model)
    classes = []
    for node_id in sorted(clouds):
        front = pareto_front(
            clouds[node_id], key=lambda p: (p.latency_s, p.energy_j)
        )
        classes.append(
            [MCKPItem(weight=p.latency_s, value=p.energy_j, payload=p)
             for p in front]
        )
    baseline = pipeline.baseline_latency_s(model)
    budget = level.budget_s(baseline) - pipeline.fixed_overhead_s(model)
    return classes, budget


def run_experiment(pipeline, models):
    rows = []
    for name, model in models.items():
        for level in PAPER_QOS_LEVELS:
            classes, budget = build_instance(pipeline, model, level)
            t0 = time.perf_counter()
            dp = solve_mckp_dp(classes, budget)
            t_dp = time.perf_counter() - t0
            t0 = time.perf_counter()
            greedy = solve_mckp_greedy(classes, budget)
            t_greedy = time.perf_counter() - t0
            rows.append(
                (
                    name,
                    level.name,
                    dp.total_value,
                    greedy.total_value,
                    dp.total_weight,
                    greedy.total_weight,
                    budget,
                    t_dp,
                    t_greedy,
                )
            )
    return rows


@pytest.mark.benchmark(group="ablation-solver")
def test_ablation_dp_vs_greedy(benchmark, pipeline, models):
    rows = benchmark.pedantic(
        run_experiment, args=(pipeline, models), rounds=1, iterations=1
    )
    lines = [
        f"{'model':>6s} {'QoS':>9s} {'E(dp)':>9s} {'E(greedy)':>10s}"
        f" {'gap':>7s}",
    ]
    timings = [f"{'model':>6s} {'QoS':>9s} {'t(dp)':>8s} {'t(greedy)':>9s}"]
    gaps = []
    for name, qos, e_dp, e_greedy, w_dp, w_greedy, budget, t_dp, t_g in rows:
        gap = e_greedy / e_dp - 1.0
        gaps.append(gap)
        lines.append(
            f"{name:>6s} {qos:>9s} {e_dp * 1e3:7.3f}mJ"
            f" {e_greedy * 1e3:8.3f}mJ {gap:7.2%}"
        )
        timings.append(
            f"{name:>6s} {qos:>9s} {t_dp * 1e3:6.1f}ms {t_g * 1e3:7.1f}ms"
        )
    lines.append(
        f"greedy suboptimality on the MCKP objective: "
        f"mean {sum(gaps) / len(gaps):.2%}, worst {max(gaps):.2%}"
    )
    report("E7 / ablation -- MCKP DP vs greedy solver", lines)
    print("\n".join(["E7 solve wall clock (this run, not committed):", *timings]))

    for name, qos, e_dp, e_greedy, w_dp, w_greedy, budget, *_ in rows:
        # Both respect the budget; the exact DP never loses on the
        # shared objective (up to its conservative grid rounding).
        assert w_dp <= budget + 1e-9
        assert w_greedy <= budget + 1e-9
        assert e_dp <= e_greedy * 1.001
