"""QoS windows: one execution, windowed after the fact.

``run(..., qos_s, idle_policy)`` must equal ``window(run(...), qos_s,
idle_policy)`` on both the direct and the replaying runtime, and a
record windowed any number of times must stay as it was executed.
"""

from dataclasses import fields

import pytest

from repro.boards import build_board
from repro.engine.runtime import DVFSRuntime, IdlePolicy
from repro.fleet import FleetSharedState, ReplayingRuntime
from repro.nn import build_tiny_test_model
from repro.optimize import MODERATE
from repro.pipeline import DAEDVFSPipeline


def snapshot(report):
    """Every field of a report, the ledger and layers as plain tuples."""
    out = {}
    for f in fields(report):
        value = getattr(report, f.name)
        if f.name == "account":
            value = [
                (iv.duration_s, iv.power_w, iv.category, iv.label,
                 iv.config, iv.state)
                for iv in value.intervals
            ]
        elif f.name == "layer_reports":
            value = [
                tuple(getattr(r, g.name) for g in fields(r)) for r in value
            ]
        out[f.name] = value
    return out


@pytest.fixture(scope="module")
def tiny():
    return build_tiny_test_model()


@pytest.fixture(
    scope="module",
    params=["nucleo-f767zi", "nucleo-n657x0"],
)
def planned(request, tiny):
    board = build_board(request.param)
    result = DAEDVFSPipeline(board=board).optimize(tiny, qos_level=MODERATE)
    return board, result.plan


def runtimes(board):
    return [DVFSRuntime(board), ReplayingRuntime(board, FleetSharedState(board))]


def windows(board, record):
    """QoS windows to test: a roomy one and one shorter than the
    STOP wake-up (the STOP policy then idles gated instead)."""
    wake = board.power_model.params.stop_wakeup_s
    return [record.latency_s * 1.3, record.latency_s + 0.5 * wake]


@pytest.mark.parametrize("policy", list(IdlePolicy), ids=lambda p: p.value)
def test_run_equals_window_of_record(tiny, planned, policy):
    board, plan = planned
    initial = plan.initial_config()
    for runtime in runtimes(board):
        record = runtime.run(tiny, plan, initial_config=initial)
        assert record.qos_s is None and record.final_config is not None
        for qos_s in windows(board, record):
            direct = runtime.run(
                tiny, plan, qos_s=qos_s, initial_config=initial,
                idle_policy=policy,
            )
            assert snapshot(runtime.window(record, qos_s, policy)) == (
                snapshot(direct)
            )


def test_short_window_stop_idles_gated(tiny, planned):
    board, plan = planned
    runtime = DVFSRuntime(board)
    record = runtime.run(tiny, plan, initial_config=plan.initial_config())
    short = windows(board, record)[1]
    report = runtime.window(record, short, IdlePolicy.STOP)
    tail = report.account.intervals[len(record.account.intervals):]
    assert [iv.state.value for iv in tail] == ["idle_gated"]


def test_windowing_leaves_record_untouched(tiny, planned):
    board, plan = planned
    for runtime in runtimes(board):
        record = runtime.run(tiny, plan, initial_config=plan.initial_config())
        before = snapshot(record)
        qos_s = record.latency_s * 1.3
        hot = runtime.window(record, qos_s, IdlePolicy.HOT)
        gated = runtime.window(record, qos_s, IdlePolicy.GATED)
        assert snapshot(record) == before
        assert hot.energy_j != gated.energy_j
        # No ledger, interval list or layer report is shared.
        reports = (record, hot, gated)
        for a in range(3):
            for b in range(a + 1, 3):
                x, y = reports[a], reports[b]
                assert x.account is not y.account
                assert x.account.intervals is not y.account.intervals
                assert x.layer_reports is not y.layer_reports
                assert not {id(r) for r in x.layer_reports} & {
                    id(r) for r in y.layer_reports
                }
        hot.layer_reports[0].energy_j = -1.0
        hot.account.intervals.clear()
        assert snapshot(record) == before
        assert snapshot(gated) == snapshot(
            runtime.window(record, qos_s, IdlePolicy.GATED)
        )
