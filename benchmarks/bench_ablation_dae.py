"""E8 (ablation) -- what DAE adds on top of plain per-layer DVFS.

Three configurations of our own system, all at the same QoS:

* **DVFS-only**: the design space restricted to g = 0 (per-layer
  frequency selection without decoupling);
* **DAE-only**: g free but the HFO pinned to 216 MHz;
* **DAE + DVFS**: the full proposed methodology.

This isolates the contribution of the decoupled access-execute
transformation, which the paper motivates as the key enabler.
"""

import pytest

from repro import DAEDVFSPipeline
from repro.dse.space import DesignSpace
from repro.engine import TinyEngineClockGated
from repro.optimize import MODERATE

from conftest import report


def run_experiment(base_pipeline, models):
    board = base_pipeline.board
    space = base_pipeline.space
    max_hfo = max(space.hfo_configs, key=lambda c: c.sysclk_hz)
    variants = {
        "DVFS-only (g=0)": DAEDVFSPipeline(
            board=board,
            space=DesignSpace(
                granularities=(0,),
                hfo_configs=space.hfo_configs,
                lfo=space.lfo,
            ),
        ),
        "DAE-only (216 MHz)": DAEDVFSPipeline(
            board=board,
            space=DesignSpace(
                granularities=space.granularities,
                hfo_configs=(max_hfo,),
                lfo=space.lfo,
            ),
        ),
        "DAE + DVFS (full)": DAEDVFSPipeline(board=board, space=space),
    }
    rows = {}
    for model_name, model in models.items():
        qos = MODERATE.budget_s(base_pipeline.baseline_latency_s(model))
        cg = TinyEngineClockGated(
            board, tracer=base_pipeline.tracer
        ).run(model, qos_s=qos)
        for variant_name, variant in variants.items():
            result = variant.optimize(model, qos_s=qos)
            run = variant.deploy(model, result.plan)
            rows[(model_name, variant_name)] = (
                run.energy_j,
                cg.energy_j,
                run.met_qos,
            )
    return rows


@pytest.mark.benchmark(group="ablation-dae")
def test_ablation_dae_contribution(benchmark, pipeline, models):
    rows = benchmark.pedantic(
        run_experiment, args=(pipeline, models), rounds=1, iterations=1
    )
    lines = [
        f"{'model':>6s} {'variant':>20s} {'energy':>9s} {'vs gated TE':>12s}",
    ]
    for (model_name, variant), (energy, cg_energy, met) in rows.items():
        lines.append(
            f"{model_name:>6s} {variant:>20s} {energy * 1e3:7.2f}mJ "
            f"{1 - energy / cg_energy:11.1%}  met={met}"
        )
    report("E8 / ablation -- DAE contribution over plain DVFS", lines)

    for model_name in models:
        full = rows[(model_name, "DAE + DVFS (full)")][0]
        dvfs_only = rows[(model_name, "DVFS-only (g=0)")][0]
        dae_only = rows[(model_name, "DAE-only (216 MHz)")][0]
        # The full methodology dominates both ablations.
        assert full <= dvfs_only * 1.005
        assert full <= dae_only * 1.005
        for _, _, met in rows.values():
            assert met
