"""Each rung of the drift re-solve, :meth:`DAEDVFSPipeline.replan`.

Re-price the cached fronts, check the budget covers the fixed
overhead, run the free re-solve, fall back to the uniform-frequency
ladder, and raise when nothing lands.
"""

import pytest

from repro import DAEDVFSPipeline
from repro.engine.serialize import plan_to_dict
from repro.errors import QoSInfeasibleError, SolverError
from repro.mcu import make_nucleo_f767zi
from repro.nn import build_tiny_test_model, build_vww
from repro.obs.audit import get_audit_log
from repro.optimize import MODERATE
from repro.optimize.mckp import (
    front_classes,
    min_total_weight,
    reprice_classes,
)
from repro.units import MHZ


@pytest.fixture(scope="module")
def pipeline():
    return DAEDVFSPipeline(board=make_nucleo_f767zi())


def optimized(pipeline, model):
    result = pipeline.optimize(model, qos_level=MODERATE)
    return result, front_classes(result.pareto_fronts)


@pytest.fixture(scope="module")
def vww(pipeline):
    """vww converges a free mixed-frequency re-solve."""
    model = build_vww()
    return (model, *optimized(pipeline, model))


@pytest.fixture(scope="module")
def tiny(pipeline):
    """tiny's sub-millisecond layers never converge one: the ladder
    answers every re-solve."""
    model = build_tiny_test_model()
    return (model, *optimized(pipeline, model))


def fallbacks():
    return len(
        get_audit_log().query(
            kind="pipeline.replan", decision="uniform_fallback"
        )
    )


def replan(pipeline, case, **drift):
    model, result, classes = case
    return pipeline.replan(
        model, classes, result.qos_s, result.fixed_overhead_s, **drift
    )


class TestReplanRungs:
    def test_free_plan_lands(self, pipeline, vww):
        model, result, classes = vww
        before = fallbacks()
        plan = replan(pipeline, vww, extra_w=0.002)
        assert fallbacks() == before
        free = pipeline._refine_free_plan(
            model,
            reprice_classes(classes, extra_power_w=0.002),
            result.qos_s - result.fixed_overhead_s,
            result.qos_s,
            result.fixed_overhead_s,
        )
        assert plan_to_dict(plan) == plan_to_dict(free)
        assert len({lp.hfo for lp in plan.layer_plans.values()}) > 1

    def test_ladder_answers_when_free_cannot_converge(self, pipeline, tiny):
        model, result, classes = tiny
        before = fallbacks()
        plan = replan(pipeline, tiny, extra_w=0.002, cap_hz=216 * MHZ)
        assert fallbacks() == before + 1
        (hfo,) = {lp.hfo for lp in plan.layer_plans.values()}
        assert hfo.sysclk_hz <= 216 * MHZ
        ladder = pipeline.uniform_plan_from_classes(
            model,
            reprice_classes(classes, extra_power_w=0.002),
            result.qos_s,
            result.fixed_overhead_s,
            max_hfo_hz=216 * MHZ,
        )
        assert plan_to_dict(plan) == plan_to_dict(ladder)

    def test_nothing_lands_raises_with_tightest_latency(self, pipeline, vww):
        model, result, classes = vww
        cap_hz = 150 * MHZ
        with pytest.raises(QoSInfeasibleError) as err:
            replan(pipeline, vww, extra_w=0.01, cap_hz=cap_hz)
        repriced = reprice_classes(
            classes,
            extra_power_w=0.01,
            item_filter=lambda item: item.payload.hfo.sysclk_hz <= cap_hz,
        )
        assert err.value.qos_s == result.qos_s
        assert err.value.min_latency_s == (
            min_total_weight(repriced) + result.fixed_overhead_s
        )

    def test_budget_under_fixed_overhead_raises(self, pipeline, vww):
        model, result, classes = vww
        before = fallbacks()
        budget = result.fixed_overhead_s * 0.5
        with pytest.raises(QoSInfeasibleError) as err:
            pipeline.replan(model, classes, budget, result.fixed_overhead_s)
        assert fallbacks() == before
        assert err.value.qos_s == budget
        assert err.value.min_latency_s == (
            min_total_weight(classes) + result.fixed_overhead_s
        )

    @pytest.mark.parametrize("case", ["tiny", "vww"])
    def test_negative_excess_is_a_solver_error(self, pipeline, case, request):
        with pytest.raises(SolverError):
            replan(pipeline, request.getfixturevalue(case), extra_w=-0.001)

    @pytest.mark.parametrize("case", ["tiny", "vww"])
    def test_cap_below_every_hfo_is_infeasible(
        self, pipeline, case, request
    ):
        slowest = min(h.sysclk_hz for h in pipeline.space.hfo_configs)
        with pytest.raises(QoSInfeasibleError):
            replan(
                pipeline,
                request.getfixturevalue(case),
                cap_hz=slowest * 0.5,
            )

    def test_undrifted_replan_never_exceeds_budget(self, pipeline, vww, tiny):
        for case in (vww, tiny):
            model, result, _ = case
            plan = replan(pipeline, case)
            latency = pipeline.runtime.measure_latency_s(
                model, plan, initial_config=plan.initial_config()
            )
            assert latency <= result.qos_s
