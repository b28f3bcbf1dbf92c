"""Shared-timing pricing: bit-identity against the unshared paths."""

import pytest

from repro.boards import board_names, build_board
from repro.dse.explorer import DSEExplorer
from repro.dse.space import paper_design_space
from repro.engine.runtime import DVFSRuntime, IdlePolicy
from repro.fleet import (
    FleetSharedState,
    ReplayingRuntime,
    SharedComponentExplorer,
    plan_signature,
    sample_fleet,
)
from repro.mcu import make_nucleo_f767zi
from repro.nn import build_tiny_test_model
from repro.optimize import MODERATE
from repro.pipeline import DAEDVFSPipeline


@pytest.fixture(scope="module")
def tiny():
    return build_tiny_test_model()


@pytest.fixture(scope="module")
def nominal_board():
    return make_nucleo_f767zi()


@pytest.fixture(scope="module")
def space(nominal_board):
    return paper_design_space(nominal_board.power_model)


@pytest.fixture(scope="module")
def perturbed_board():
    # A device off the nominal power corner (timing identical).
    return sample_fleet(2, seed=11)[1].board


def clouds_equal(a, b):
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert pa.node_id == pb.node_id
        assert pa.granularity == pb.granularity
        assert pa.hfo == pb.hfo
        assert pa.latency_s == pb.latency_s
        assert pa.energy_j == pb.energy_j


class TestSharedExplorer:
    def test_cloud_bit_identical_to_plain_explorer(
        self, tiny, nominal_board, space, perturbed_board
    ):
        shared = FleetSharedState(nominal_board)
        for board in (nominal_board, perturbed_board):
            plain = DSEExplorer(board, space)
            fleet = SharedComponentExplorer(board, space, shared)
            for node in tiny.dae_nodes():
                clouds_equal(
                    fleet.explore_layer(tiny, node),
                    plain.explore_layer(tiny, node),
                )

    def test_cache_warm_after_first_device(
        self, tiny, nominal_board, space, perturbed_board
    ):
        shared = FleetSharedState(nominal_board)
        first = SharedComponentExplorer(nominal_board, space, shared)
        for node in tiny.dae_nodes():
            first.explore_layer(tiny, node)
        entries = len(shared.components)
        assert entries > 0
        second = SharedComponentExplorer(perturbed_board, space, shared)
        for node in tiny.dae_nodes():
            second.explore_layer(tiny, node)
        # The second device re-prices; it never re-decomposes.
        assert len(shared.components) == entries

    def test_relock_pricing_kept_distinct(
        self, tiny, nominal_board, space
    ):
        shared = FleetSharedState(nominal_board)
        explorer = SharedComponentExplorer(nominal_board, space, shared)
        node = tiny.dae_nodes()[0]
        relocked = explorer.explore_layer(tiny, node, assume_relock=True)
        free = explorer.explore_layer(tiny, node, assume_relock=False)
        assert any(
            r.latency_s != f.latency_s for r, f in zip(relocked, free)
        )


class TestPlanSignature:
    def test_equal_plans_equal_signatures(self, tiny, nominal_board):
        pipeline = DAEDVFSPipeline(board=nominal_board)
        plan = pipeline.optimize(tiny, qos_level=MODERATE).plan
        again = pipeline.optimize(tiny, qos_level=MODERATE).plan
        assert plan_signature(plan) == plan_signature(again)

    def test_different_budgets_differ(self, tiny, nominal_board):
        from repro.optimize import RELAXED, TIGHT

        pipeline = DAEDVFSPipeline(board=nominal_board)
        tight = pipeline.optimize(tiny, qos_level=TIGHT).plan
        relaxed = pipeline.optimize(tiny, qos_level=RELAXED).plan
        assert plan_signature(tight) != plan_signature(relaxed)


class TestReplayingRuntime:
    def run_both(self, board, tiny, plan, **kwargs):
        shared = FleetSharedState(board)
        direct = DVFSRuntime(board).run(tiny, plan, **kwargs)
        replayed = ReplayingRuntime(board, shared).run(tiny, plan, **kwargs)
        # Run twice: the second hit prices from the recorded schedule.
        replayed2 = ReplayingRuntime(board, shared).run(tiny, plan, **kwargs)
        return direct, replayed, replayed2

    def assert_reports_identical(self, a, b):
        assert a.latency_s == b.latency_s
        assert a.energy_j == b.energy_j
        assert a.inference_energy_j == b.inference_energy_j
        assert a.relock_count == b.relock_count
        assert a.mux_switch_count == b.mux_switch_count
        assert a.met_qos == b.met_qos
        for la, lb in zip(a.layer_reports, b.layer_reports):
            assert la.latency_s == lb.latency_s
            assert la.energy_j == lb.energy_j
            assert la.hfo_hz == lb.hfo_hz

    def test_replay_bit_identical_no_qos(self, tiny, nominal_board):
        pipeline = DAEDVFSPipeline(board=nominal_board)
        result = pipeline.optimize(tiny, qos_level=MODERATE)
        direct, replayed, replayed2 = self.run_both(
            nominal_board, tiny, result.plan,
            initial_config=result.plan.initial_config(),
        )
        self.assert_reports_identical(direct, replayed)
        self.assert_reports_identical(direct, replayed2)

    def test_replay_bit_identical_with_qos_idle(self, tiny, nominal_board):
        pipeline = DAEDVFSPipeline(board=nominal_board)
        result = pipeline.optimize(tiny, qos_level=MODERATE)
        direct, replayed, replayed2 = self.run_both(
            nominal_board, tiny, result.plan,
            qos_s=result.qos_s,
            initial_config=result.plan.initial_config(),
        )
        self.assert_reports_identical(direct, replayed)
        self.assert_reports_identical(direct, replayed2)

    def test_replay_on_perturbed_board_matches_its_direct_run(
        self, tiny, nominal_board, perturbed_board
    ):
        # The record is captured by the *nominal* device, then
        # re-priced by the perturbed one -- still bit-identical to the
        # perturbed device running the engine itself.
        pipeline = DAEDVFSPipeline(board=nominal_board)
        result = pipeline.optimize(tiny, qos_level=MODERATE)
        shared = FleetSharedState(nominal_board)
        kwargs = dict(
            qos_s=result.qos_s,
            initial_config=result.plan.initial_config(),
        )
        ReplayingRuntime(nominal_board, shared).run(
            tiny, result.plan, **kwargs
        )
        replayed = ReplayingRuntime(perturbed_board, shared).run(
            tiny, result.plan, **kwargs
        )
        direct = DVFSRuntime(perturbed_board).run(
            tiny, result.plan, **kwargs
        )
        self.assert_reports_identical(direct, replayed)
        assert len(shared.replays) == 1

    def test_energy_differs_across_devices(
        self, tiny, nominal_board, perturbed_board
    ):
        pipeline = DAEDVFSPipeline(board=nominal_board)
        result = pipeline.optimize(tiny, qos_level=MODERATE)
        shared = FleetSharedState(nominal_board)
        kwargs = dict(initial_config=result.plan.initial_config())
        a = ReplayingRuntime(nominal_board, shared).run(
            tiny, result.plan, **kwargs
        )
        b = ReplayingRuntime(perturbed_board, shared).run(
            tiny, result.plan, **kwargs
        )
        assert a.latency_s == b.latency_s
        assert a.energy_j != b.energy_j


def ledger(report):
    return [
        (iv.duration_s, iv.power_w, iv.category, iv.label, iv.config, iv.state)
        for iv in report.account.intervals
    ]


class TestReplayOnEveryBoard:
    """A replayed window equals a direct one on every registered board
    and idle policy.  On a board whose inference ends on an NPU segment
    the last ledger interval carries no SYSCLK config: the idle must be
    charged at the clock the direct run ends on, not the last
    interval's (that guess raised AttributeError under HOT)."""

    @pytest.fixture(scope="class", params=board_names())
    def planned(self, request, tiny):
        board = build_board(request.param)
        pipeline = DAEDVFSPipeline(board=board)
        return board, pipeline.optimize(tiny, qos_level=MODERATE)

    @pytest.mark.parametrize(
        "policy", list(IdlePolicy), ids=lambda p: p.value
    )
    def test_replayed_window_equals_direct(self, tiny, planned, policy):
        board, result = planned
        kwargs = dict(
            qos_s=result.qos_s,
            initial_config=result.plan.initial_config(),
            idle_policy=policy,
        )
        direct = DVFSRuntime(board).run(tiny, result.plan, **kwargs)
        shared = FleetSharedState(board)
        # The first run records the schedule, the second prices from it.
        for _ in range(2):
            replayed = ReplayingRuntime(board, shared).run(
                tiny, result.plan, **kwargs
            )
            assert replayed.energy_j == direct.energy_j
            assert replayed.met_qos == direct.met_qos
            assert ledger(replayed) == ledger(direct)
