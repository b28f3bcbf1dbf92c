"""``compare`` executes the TinyEngine schedule exactly once.

The QoS anchor (baseline latency), the plain TinyEngine window and the
clock-gated window all come from one execution of the fused 216 MHz
schedule; they differ only in the idle tail.
"""

import pytest

from repro.nn.models import PAPER_MODELS
from repro.optimize.qos import MODERATE, RELAXED
from repro.pipeline import DAEDVFSPipeline


@pytest.fixture(scope="module")
def vww():
    return PAPER_MODELS["vww"]()


def count_baseline_runs(pipeline):
    runtime = pipeline._tinyengine._runtime
    calls = []
    run = runtime.run

    def counted(*args, **kwargs):
        calls.append(kwargs.get("qos_s"))
        return run(*args, **kwargs)

    runtime.run = counted
    return calls


def test_one_tinyengine_run_per_compare(vww):
    pipeline = DAEDVFSPipeline()
    calls = count_baseline_runs(pipeline)
    pipeline.compare(vww, MODERATE)
    assert calls == [None]
    # A warm pipeline still runs it once: the record is not cached.
    pipeline.compare(vww, RELAXED)
    assert calls == [None, None]


def test_baseline_latency_matches_fresh_pipeline(vww):
    pipeline = DAEDVFSPipeline()
    row = pipeline.compare(vww, MODERATE)
    fresh = DAEDVFSPipeline().baseline_latency_s(vww)
    assert pipeline.baseline_latency_s(vww) == fresh
    assert row.tinyengine.latency_s == fresh
    assert row.clock_gated.latency_s == fresh
    assert row.qos_s == MODERATE.budget_s(fresh)
