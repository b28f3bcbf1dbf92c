"""Pipeline Step-2 caches and the refinement-loop budget regression."""

from types import SimpleNamespace

import pytest

from repro import DAEDVFSPipeline
from repro.dse.explorer import SolutionPoint
from repro.nn import LayerKind
from repro.optimize import MODERATE, RELAXED, MCKPItem


class TestStepTwoCaches:
    def test_clouds_memoized_across_calls(self, board, tiny_model):
        pipeline = DAEDVFSPipeline(board=board)
        first = pipeline._explore_clouds(tiny_model)
        # A second call must come from the cache: break the explorer
        # and show the pipeline never notices.
        pipeline.explorer.explore_model = _boom
        assert pipeline._explore_clouds(tiny_model) is first

    def test_fronts_memoized(self, board, tiny_model):
        pipeline = DAEDVFSPipeline(board=board)
        clouds = pipeline._explore_clouds(tiny_model)
        first = pipeline._pareto_fronts(tiny_model, clouds)
        assert pipeline._pareto_fronts(tiny_model, clouds) is first

    def test_fixed_overhead_memoized(self, board, tiny_model):
        pipeline = DAEDVFSPipeline(board=board)
        value = pipeline.fixed_overhead_s(tiny_model)
        pipeline.explorer.pricer.price = _boom
        assert pipeline.fixed_overhead_s(tiny_model) == value

    def test_optimize_across_qos_levels_explores_once(
        self, board, tiny_model
    ):
        pipeline = DAEDVFSPipeline(board=board)
        calls = []
        original = pipeline.explorer.explore_model

        def counting(model):
            calls.append(model.name)
            return original(model)

        pipeline.explorer.explore_model = counting
        pipeline.optimize(tiny_model, qos_level=MODERATE)
        pipeline.optimize(tiny_model, qos_level=RELAXED)
        assert len(calls) == 1

    def test_qos_results_unchanged_by_caching(self, board, tiny_model):
        """Cached Step-2 reuse must not change any priced number."""
        cached = DAEDVFSPipeline(board=board)
        cached.optimize(tiny_model, qos_level=MODERATE)  # warm the caches
        warm = cached.optimize(tiny_model, qos_level=RELAXED)
        cold = DAEDVFSPipeline(board=board).optimize(
            tiny_model, qos_level=RELAXED
        )
        assert warm.plan.predicted_energy_j == cold.plan.predicted_energy_j
        assert warm.plan.predicted_latency_s == cold.plan.predicted_latency_s
        assert warm.plan.granularities() == cold.plan.granularities()

    def test_clear_caches_invalidates(self, board, tiny_model):
        pipeline = DAEDVFSPipeline(board=board)
        pipeline._explore_clouds(tiny_model)
        assert pipeline.tracer.cache_misses > 0
        pipeline.clear_caches()
        assert not pipeline._cloud_cache
        assert not pipeline._front_cache
        assert not pipeline._uniform_front_cache
        assert not pipeline._fixed_overhead_cache
        assert pipeline.tracer.cache_misses == 0
        # And the pipeline rebuilds from scratch afterwards.
        pipeline._explore_clouds(tiny_model)
        assert pipeline.tracer.cache_misses > 0

    def test_shared_tracer_across_components(self, board, tiny_model):
        pipeline = DAEDVFSPipeline(board=board)
        assert pipeline.tracer is pipeline.explorer.tracer
        assert pipeline.tracer is pipeline.runtime.tracer
        assert pipeline.tracer is pipeline._tinyengine._runtime.tracer

    def test_uniform_classes_memoized(self, board, tiny_model):
        pipeline = DAEDVFSPipeline(board=board)
        clouds = pipeline._explore_clouds(tiny_model)
        first = pipeline._uniform_classes(tiny_model, clouds)
        assert pipeline._uniform_classes(tiny_model, clouds) is first
        assert set(first) == set(pipeline.space.hfo_configs)


def _boom(*args, **kwargs):
    raise AssertionError("cache miss: recomputed a memoized Step-2 result")


class TestRefinementBudgetMonotonicity:
    """Regression: the refinement loop must tighten the *previous*
    effective budget each round.

    The original code recomputed ``conv_budget * 0.999 - unpriced *
    1.05 - ...`` from scratch every round, so when the runtime's
    unpriced overhead grows with the schedule (switch-dominated
    models), consecutive rounds solved near-identical knapsacks until
    ``max_refinements`` was exhausted and the free plan was abandoned.
    """

    def synthetic_classes(self, pipeline):
        """One class whose items let us steer the solver per round.

        Values fall as weights rise, so the DP always picks the
        heaviest item that fits the effective budget.
        """
        hfo = pipeline.space.hfo_configs[-1]
        items = []
        for weight in (0.99, 0.97, 0.95, 0.93, 0.90):
            point = SolutionPoint(
                node_id=0,
                layer_name="synthetic",
                layer_kind=LayerKind.POINTWISE_CONV,
                granularity=0,
                hfo=hfo,
                latency_s=weight,
                energy_j=2.0 - weight,
            )
            items.append(
                MCKPItem(weight=weight, value=2.0 - weight, payload=point)
            )
        return [items]

    def install_growing_overhead(self, pipeline, per_round=0.02):
        """Runtime stub whose unpriced overhead grows every round."""
        state = {"round": 0}

        def fake_run(model, plan, **kwargs):
            state["round"] += 1
            return SimpleNamespace(
                latency_s=plan.predicted_latency_s
                + per_round * state["round"]
            )

        pipeline.runtime.run = fake_run
        return state

    def recording_solver(self, pipeline):
        budgets = []
        original = pipeline._solve_classes

        def recording(classes, budget):
            budgets.append(budget)
            return original(classes, budget)

        pipeline._solve_classes = recording
        return budgets

    def test_converges_on_growing_overhead(self, board, tiny_model):
        pipeline = DAEDVFSPipeline(board=board, max_refinements=3)
        classes = self.synthetic_classes(pipeline)
        state = self.install_growing_overhead(pipeline)
        budgets = self.recording_solver(pipeline)
        plan = pipeline._refine_free_plan(
            tiny_model, classes, conv_budget=1.0, budget=1.0, fixed=0.0
        )
        # The old per-round recompute stalls here (returns None after
        # exhausting max_refinements); compounding converges.
        assert plan is not None
        assert state["round"] <= pipeline.max_refinements + 1
        assert plan.predicted_latency_s <= 1.0

    def test_effective_budget_strictly_decreasing(self, board, tiny_model):
        pipeline = DAEDVFSPipeline(board=board, max_refinements=3)
        classes = self.synthetic_classes(pipeline)
        self.install_growing_overhead(pipeline)
        budgets = self.recording_solver(pipeline)
        pipeline._refine_free_plan(
            tiny_model, classes, conv_budget=1.0, budget=1.0, fixed=0.0
        )
        assert len(budgets) >= 2
        for earlier, later in zip(budgets, budgets[1:]):
            assert later < earlier

    def test_constant_overhead_converges_in_two_rounds(
        self, board, tiny_model
    ):
        """Sanity: the common constant-overhead case is untouched --
        round two's budget equals the original formula's, so existing
        behavior (converge on the second solve) is preserved."""
        pipeline = DAEDVFSPipeline(board=board, max_refinements=3)
        classes = self.synthetic_classes(pipeline)

        def fake_run(model, plan, **kwargs):
            return SimpleNamespace(latency_s=plan.predicted_latency_s + 0.02)

        pipeline.runtime.run = fake_run
        budgets = self.recording_solver(pipeline)
        plan = pipeline._refine_free_plan(
            tiny_model, classes, conv_budget=1.0, budget=1.0, fixed=0.0
        )
        assert plan is not None
        assert len(budgets) == 2
        assert budgets[1] == pytest.approx(
            1.0 * 0.999 - 0.02 * 1.05 - 2.0 * budgets[0] / 4000
        )
