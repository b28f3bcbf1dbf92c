"""A cold plan executes each distinct candidate schedule once.

The runtime records every fault-free execution by (model, plan
signature, start clock, board) and windows the record on each later
run; the uniform ladders skip the replay of a rung that cannot beat
the incumbent.  Every answer must be the one the replay-everything
code gives.
"""

import pytest

from repro.engine.runtime import DVFSRuntime
from repro.errors import QoSInfeasibleError
from repro.faults import FaultPlan
from repro.engine.schedule import plan_signature
from repro.mcu import make_nucleo_f767zi
from repro.nn import build_tiny_test_model
from repro.nn.models import PAPER_MODELS
from repro.optimize.mckp import MCKPSolution, front_classes
from repro.optimize.qos import MODERATE, PAPER_QOS_LEVELS
from repro.pipeline import DAEDVFSPipeline
from repro.power.model import BoardPowerModel, PowerModelParams

MODELS = {
    "tiny": build_tiny_test_model,
    **{name: PAPER_MODELS[name] for name in ("vww", "pd", "mbv2")},
}


@pytest.fixture(scope="module")
def models():
    return {name: build() for name, build in MODELS.items()}


class ExecutionLog:
    """Counts engine executions and the distinct schedules asked for.

    ``_make_rcc`` runs once per execution (a fault-free run never
    re-boots the clock tree); every ``run``/``measure_latency_s`` adds
    its (runtime, plan signature, start clock) key.
    """

    def __init__(self, monkeypatch):
        self.executions = 0
        self.requested = set()
        make_rcc = DVFSRuntime._make_rcc
        run = DVFSRuntime.run
        measure = DVFSRuntime.measure_latency_s

        def counted_rcc(runtime, boot, fault_clock):
            self.executions += 1
            return make_rcc(runtime, boot, fault_clock)

        def logged_run(runtime, model, plan, *args, **kwargs):
            self.request(runtime, plan, kwargs.get("initial_config"))
            return run(runtime, model, plan, *args, **kwargs)

        def logged_measure(runtime, model, plan, initial_config=None):
            self.request(runtime, plan, initial_config)
            return measure(runtime, model, plan, initial_config)

        monkeypatch.setattr(DVFSRuntime, "_make_rcc", counted_rcc)
        monkeypatch.setattr(DVFSRuntime, "run", logged_run)
        monkeypatch.setattr(DVFSRuntime, "measure_latency_s", logged_measure)

    def request(self, runtime, plan, initial_config):
        self.requested.add(
            (id(runtime), plan_signature(plan), initial_config or plan.lfo)
        )


class TestOneExecutionPerSchedule:
    def test_compare_executes_each_distinct_schedule_once(
        self, models, monkeypatch
    ):
        log = ExecutionLog(monkeypatch)
        total = 0
        for name in ("vww", "pd", "mbv2"):
            for level in PAPER_QOS_LEVELS:
                log.executions = 0
                log.requested.clear()
                DAEDVFSPipeline().compare(models[name], level)
                assert log.executions == len(log.requested), (name, level)
                total += log.executions
        # The replay-everything pipeline executed 71 times here.
        assert total == 40

    def test_warm_compare_executes_nothing(self, models, monkeypatch):
        pipeline = DAEDVFSPipeline()
        pipeline.compare(models["vww"], MODERATE)
        log = ExecutionLog(monkeypatch)
        pipeline.compare(models["vww"], MODERATE)
        assert log.executions == 0

    def test_fault_clock_run_bypasses_the_record(self, models, monkeypatch):
        tiny = models["tiny"]
        pipeline = DAEDVFSPipeline()
        plan = pipeline.optimize(tiny, qos_level=MODERATE).plan
        nominal = pipeline.deploy(tiny, plan)
        log = ExecutionLog(monkeypatch)
        for _ in range(2):
            hardened = pipeline.deploy(
                tiny, plan, fault_clock=FaultPlan().clock_for(0)
            )
            assert hardened == nominal
        assert log.executions == 2


class TestRecordsAreNotShared:
    def test_mutating_a_report_does_not_leak(self, models):
        tiny = models["tiny"]
        pipeline = DAEDVFSPipeline()
        plan = pipeline.optimize(tiny, qos_level=MODERATE).plan
        start = plan.initial_config()
        expected_deploy = DAEDVFSPipeline().deploy(tiny, plan)
        expected_run = DAEDVFSPipeline().runtime.run(
            tiny, plan, initial_config=start
        )
        for report in (
            pipeline.deploy(tiny, plan),
            pipeline.runtime.run(tiny, plan, initial_config=start),
        ):
            report.latency_s = report.energy_j = -1.0
            report.layer_reports[0].energy_j = 99.0
            report.layer_reports.pop()
            report.account.intervals.clear()
        assert pipeline.deploy(tiny, plan) == expected_deploy
        assert (
            pipeline.runtime.run(tiny, plan, initial_config=start)
            == expected_run
        )
        assert pipeline.runtime.measure_latency_s(
            tiny, plan, initial_config=start
        ) == expected_run.latency_s

    def test_report_carries_the_callers_plan(self, models):
        tiny = models["tiny"]
        pipeline = DAEDVFSPipeline()
        plan = pipeline.optimize(tiny, qos_level=MODERATE).plan
        pipeline.deploy(tiny, plan)
        twin = pipeline.optimize(tiny, qos_level=MODERATE).plan
        twin.qos_s = plan.qos_s * 2
        report = pipeline.deploy(tiny, twin)
        assert report.plan is twin
        assert report.qos_s == twin.qos_s

    def test_power_model_swap_reprices(self, models):
        tiny = models["tiny"]
        pipeline = DAEDVFSPipeline()
        plan = pipeline.optimize(tiny, qos_level=MODERATE).plan
        before = pipeline.deploy(tiny, plan)
        params = PowerModelParams().scaled(p_mcu_leakage_w=0.011)
        pipeline.board.power_model = BoardPowerModel(params)
        after = pipeline.deploy(tiny, plan)
        fresh = DAEDVFSPipeline(
            board=make_nucleo_f767zi(power_params=params)
        ).deploy(tiny, plan)
        assert after == fresh
        assert after.energy_j != before.energy_j

    def test_clear_caches_drops_the_records(self, models, monkeypatch):
        tiny = models["tiny"]
        pipeline = DAEDVFSPipeline()
        pipeline.compare(tiny, MODERATE)
        pipeline.clear_caches()
        log = ExecutionLog(monkeypatch)
        pipeline.compare(tiny, MODERATE)
        assert log.executions > 0


def count_replays(pipeline):
    """Count the latency replays ``pipeline`` asks its runtime for."""
    calls = []
    measure = pipeline.runtime.measure_latency_s

    def counted(*args, **kwargs):
        calls.append(args[1])
        return measure(*args, **kwargs)

    pipeline.runtime.measure_latency_s = counted
    return calls


def replay_every_uniform_hfo_rung(
    pipeline, model, clouds, conv_budget, budget, fixed
):
    """``_best_uniform_hfo_plan`` with every rung replayed."""
    best = None
    per_hfo = pipeline._uniform_classes(model, clouds)
    for hfo in pipeline.space.hfo_configs:
        classes = per_hfo.get(hfo)
        if classes is None:
            continue
        try:
            solution = pipeline._solve_classes(classes, conv_budget * 0.999)
        except QoSInfeasibleError:
            continue
        plan = pipeline._plan_from_solution(model, solution, budget, fixed)
        actual = pipeline.runtime.measure_latency_s(
            model, plan, initial_config=plan.initial_config()
        )
        if actual > budget:
            continue
        if best is None or plan.predicted_energy_j < best.predicted_energy_j:
            best = plan
    return best


def replay_every_class_rung(pipeline, model, classes, budget, fixed, cap):
    """``uniform_plan_from_classes`` with every rung replayed."""
    best_energy = best_plan = None
    for hfo in pipeline.space.hfo_configs:
        if hfo.sysclk_hz > cap:
            continue
        picks = []
        for cls in classes:
            matches = [item for item in cls if item.payload.hfo == hfo]
            if not matches:
                picks = None
                break
            picks.append(min(matches, key=lambda item: item.value))
        if picks is None:
            continue
        solution = MCKPSolution(items=picks)
        plan = pipeline._plan_from_solution(model, solution, budget, fixed)
        actual = pipeline.runtime.measure_latency_s(
            model, plan, initial_config=plan.initial_config()
        )
        if actual > budget:
            continue
        if best_energy is None or solution.total_value < best_energy:
            best_energy, best_plan = solution.total_value, plan
    return best_plan


def ladder_cases(models):
    for name, model in models.items():
        pipeline = DAEDVFSPipeline()
        baseline = pipeline.baseline_latency_s(model)
        fixed = pipeline.fixed_overhead_s(model)
        clouds = pipeline._explore_clouds(model)
        fronts = pipeline._pareto_fronts(model, clouds)
        for level in PAPER_QOS_LEVELS:
            yield name, model, clouds, fronts, level.budget_s(baseline), fixed


def same_pick(plan, reference):
    if reference is None:
        return plan is None
    return (
        plan is not None
        and plan_signature(plan) == plan_signature(reference)
        and plan.predicted_energy_j == reference.predicted_energy_j
        and plan.predicted_latency_s == reference.predicted_latency_s
    )


class TestLaddersSkipRungsThatCannotWin:
    def test_uniform_hfo_ladder(self, models):
        replays = reference_replays = 0
        for name, model, clouds, _, budget, fixed in ladder_cases(models):
            conv_budget = budget - fixed
            pipeline, reference = DAEDVFSPipeline(), DAEDVFSPipeline()
            calls, reference_calls = (
                count_replays(pipeline), count_replays(reference)
            )
            try:
                plan = pipeline._best_uniform_hfo_plan(
                    model, clouds, conv_budget, budget, fixed
                )
            except QoSInfeasibleError:
                plan = None
            expected = replay_every_uniform_hfo_rung(
                reference, model, clouds, conv_budget, budget, fixed
            )
            assert same_pick(plan, expected), (name, budget)
            assert len(calls) <= len(reference_calls)
            replays += len(calls)
            reference_replays += len(reference_calls)
        assert replays < reference_replays

    def test_class_ladder(self, models):
        replays = reference_replays = 0
        for name, model, _, fronts, budget, fixed in ladder_cases(models):
            classes = front_classes(fronts)
            for cap in (float("inf"), 150e6):
                pipeline, reference = DAEDVFSPipeline(), DAEDVFSPipeline()
                calls, reference_calls = (
                    count_replays(pipeline), count_replays(reference)
                )
                plan = pipeline.uniform_plan_from_classes(
                    model, classes, budget, fixed, max_hfo_hz=cap
                )
                expected = replay_every_class_rung(
                    reference, model, classes, budget, fixed, cap
                )
                assert same_pick(plan, expected), (name, budget, cap)
                assert len(calls) <= len(reference_calls)
                replays += len(calls)
                reference_replays += len(reference_calls)
        assert replays < reference_replays
