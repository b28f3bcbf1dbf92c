"""Fleet scheduler: pooled/serial/shared equivalence, cache reuse."""

import threading
import time
from collections import Counter

import pytest

from repro.dse.explorer import LayerCostModel
from repro.engine.cost import TraceBuilder
from repro.errors import ReproError
from repro.fleet import FleetScheduler, sample_fleet
from repro.nn import build_tiny_test_model
from repro.optimize import MODERATE


@pytest.fixture(scope="module")
def tiny():
    return build_tiny_test_model()


@pytest.fixture(scope="module")
def fleet():
    return sample_fleet(6, seed=3)


def run_results(tiny, fleet, share, pooled, max_workers=4):
    scheduler = FleetScheduler(
        tiny, qos_level=MODERATE, share=share, max_workers=max_workers
    )
    return scheduler.run(fleet, pooled=pooled)


def assert_result_lists_identical(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.device_id == y.device_id
        assert x.error == y.error
        assert x.optimized.plan == y.optimized.plan
        assert x.report.energy_j == y.report.energy_j
        assert x.report.latency_s == y.report.latency_s
        assert x.report.met_qos == y.report.met_qos


class TestEquivalence:
    def test_pooled_equals_serial(self, tiny, fleet):
        pooled = run_results(tiny, fleet, share=True, pooled=True)
        serial = run_results(tiny, fleet, share=True, pooled=False)
        assert_result_lists_identical(pooled, serial)

    def test_shared_equals_private(self, tiny, fleet):
        # The whole point of the fleet caches: sharing timing across
        # devices must not move a single bit of any device's result.
        shared = run_results(tiny, fleet, share=True, pooled=False)
        private = run_results(tiny, fleet, share=False, pooled=False)
        assert_result_lists_identical(shared, private)

    def test_worker_count_does_not_matter(self, tiny, fleet):
        two = run_results(tiny, fleet, share=True, pooled=True, max_workers=2)
        eight = run_results(
            tiny, fleet, share=True, pooled=True, max_workers=8
        )
        assert_result_lists_identical(two, eight)

    def test_results_sorted_by_device_id(self, tiny, fleet):
        results = run_results(tiny, fleet, share=True, pooled=True)
        ids = [r.device_id for r in results]
        assert ids == sorted(ids)


class TestSharing:
    def test_distinct_devices_get_distinct_pipelines(self, tiny, fleet):
        scheduler = FleetScheduler(tiny, qos_level=MODERATE)
        pipes = {
            p.device_id: scheduler.pipeline_for(p) for p in fleet
        }
        assert len(set(map(id, pipes.values()))) == len(fleet)

    def test_equal_fingerprint_devices_share_a_pipeline(self, tiny, fleet):
        scheduler = FleetScheduler(tiny, qos_level=MODERATE)
        profile = fleet[0]
        assert scheduler.pipeline_for(profile) is scheduler.pipeline_for(
            profile
        )

    def test_fleet_shares_one_trace_cache(self, tiny, fleet):
        scheduler = FleetScheduler(tiny, qos_level=MODERATE)
        scheduler.run(fleet, pooled=False)
        # Every device's explorer and runtime point at the same tracer.
        tracers = {
            id(scheduler.pipeline_for(p).explorer.tracer) for p in fleet
        }
        assert tracers == {id(scheduler.shared.tracer)}

    def test_second_device_runs_no_new_schedules(self, tiny, fleet):
        scheduler = FleetScheduler(tiny, qos_level=MODERATE)
        scheduler.plan_device(fleet[0])
        replays = len(scheduler.shared.replays)
        components = len(scheduler.shared.components)
        assert replays > 0 and components > 0
        scheduler.plan_device(fleet[1])
        # Both devices deploy the same schedule shape; the second one
        # re-prices the recorded intervals instead of re-executing.
        assert len(scheduler.shared.replays) == replays
        assert len(scheduler.shared.components) == components

    def test_concurrent_optimize_on_one_shared_pipeline(self, tiny):
        # Hammer a single pipeline from many threads; the single-flight
        # caches must keep results identical to a cold solo run.
        scheduler = FleetScheduler(tiny, qos_level=MODERATE)
        pipeline = scheduler.pipeline_for(sample_fleet(1, seed=5)[0])
        reference = pipeline.optimize(tiny, qos_level=MODERATE)
        pipeline.clear_caches()
        results = [None] * 8
        errors = []

        def worker(i):
            try:
                results[i] = pipeline.optimize(tiny, qos_level=MODERATE)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for r in results:
            assert r.plan == reference.plan
            assert r.qos_s == reference.qos_s


class TestPooledWork:
    @staticmethod
    def deploy_counts(monkeypatch, pooled):
        """Calls per trace key and per decomposition key of one deploy.

        Each counted call sleeps 1 ms, which widens any window in which
        two workers could both miss one shared key.
        """
        traces, decompositions = Counter(), Counter()
        lock = threading.Lock()
        build = TraceBuilder._build_uncached
        decompose = LayerCostModel.time_components_batch

        def counted_build(self, model, node, granularity):
            g = granularity if node.layer.supports_dae else 0
            with lock:
                traces[(model.name, node.node_id, g)] += 1
            time.sleep(0.001)
            return build(self, model, node, granularity)

        def counted_decompose(self, trace, hfos, lfo, assume_relock=False):
            key = (trace.node_id, trace.granularity, assume_relock)
            with lock:
                decompositions[key] += 1
            time.sleep(0.001)
            return decompose(self, trace, hfos, lfo, assume_relock)

        monkeypatch.setattr(TraceBuilder, "_build_uncached", counted_build)
        monkeypatch.setattr(
            LayerCostModel, "time_components_batch", counted_decompose
        )
        scheduler = FleetScheduler(
            build_tiny_test_model(), qos_level=MODERATE, max_workers=4
        )
        results = scheduler.run(sample_fleet(8, seed=3), pooled=pooled)
        assert all(r.error is None for r in results)
        monkeypatch.undo()
        return traces, decompositions

    def test_pooled_deploy_does_serial_work(self, monkeypatch):
        serial = self.deploy_counts(monkeypatch, pooled=False)
        pooled = self.deploy_counts(monkeypatch, pooled=True)
        for serial_calls, pooled_calls in zip(serial, pooled):
            assert serial_calls and set(serial_calls.values()) == {1}
            assert pooled_calls == serial_calls


class TestErrors:
    def test_infeasible_device_captured_not_raised(self, tiny, fleet):
        scheduler = FleetScheduler(tiny, qos_s=1e-9)
        results = scheduler.run(fleet, pooled=True)
        assert len(results) == len(fleet)
        for r in results:
            assert r.error is not None
            assert r.optimized is None

    def test_qos_forms_are_exclusive(self, tiny):
        with pytest.raises(ReproError):
            FleetScheduler(tiny, qos_level=MODERATE, qos_s=0.01)
        with pytest.raises(ReproError):
            FleetScheduler(tiny)

    def test_bad_worker_count_rejected(self, tiny):
        with pytest.raises(ReproError):
            FleetScheduler(tiny, qos_level=MODERATE, max_workers=0)


class TestFaultIsolation:
    def test_poisoned_device_cannot_kill_pooled_run(
        self, tiny, fleet, monkeypatch
    ):
        # A non-ReproError bug in one device's models is captured as
        # DeviceResult.error; the rest of the fleet plans normally.
        scheduler = FleetScheduler(tiny, qos_level=MODERATE, max_workers=4)
        poisoned_id = fleet[2].device_id
        real = FleetScheduler.pipeline_for

        def poisoned(self, profile):
            if profile.device_id == poisoned_id:
                raise RuntimeError("corrupted calibration table")
            return real(self, profile)

        monkeypatch.setattr(FleetScheduler, "pipeline_for", poisoned)
        results = scheduler.run(fleet, pooled=True)
        assert len(results) == len(fleet)
        by_id = {r.device_id: r for r in results}
        bad = by_id[poisoned_id]
        assert bad.error == "RuntimeError: corrupted calibration table"
        assert bad.report is None
        assert bad.attempts == 1  # non-transient: no retry burned
        assert not bad.quarantined  # a bug, not a hardware fault
        assert scheduler.quarantined == []
        for result in results:
            if result.device_id != poisoned_id:
                assert result.error is None
                assert result.report is not None

    def test_transient_faults_retried_then_quarantined(self, tiny, fleet):
        from repro.faults import FaultPlan

        # A watchdog storm kills every deploy attempt: the budget
        # drains and the device lands in quarantine.
        scheduler = FleetScheduler(
            tiny,
            qos_level=MODERATE,
            fault_plan=FaultPlan(watchdog_rate=1.0),
            max_plan_attempts=3,
        )
        result = scheduler.plan_device(fleet[0])
        assert result.error is not None
        assert result.error.startswith("WatchdogResetError")
        assert result.attempts == 3
        assert result.quarantined
        assert scheduler.quarantined == [fleet[0].device_id]

    def test_zero_rate_fault_plan_is_transparent(self, tiny, fleet):
        from repro.faults import FaultPlan

        plain = FleetScheduler(tiny, qos_level=MODERATE)
        hardened = FleetScheduler(
            tiny, qos_level=MODERATE, fault_plan=FaultPlan()
        )
        assert_result_lists_identical(
            plain.run(fleet, pooled=False), hardened.run(fleet, pooled=False)
        )
        assert hardened.quarantined == []

    def test_scheduler_validates_retry_budget(self, tiny):
        with pytest.raises(ReproError):
            FleetScheduler(tiny, qos_level=MODERATE, max_plan_attempts=0)
        with pytest.raises(ReproError):
            FleetScheduler(tiny, qos_level=MODERATE, plan_backoff_s=-1.0)


class TestSeriesHook:
    """The monitor hook: schedulers feed a SeriesStore as they go."""

    def test_serial_samples_once_per_device(self, tiny, fleet):
        from repro.obs.series import SeriesStore

        store = SeriesStore(capacity=16)
        scheduler = FleetScheduler(tiny, qos_level=MODERATE)
        results = scheduler.run(fleet, pooled=False, series=store)
        assert len(results) == len(fleet)
        assert len(store) == len(fleet)
        # Device index is the injected clock: no wall time anywhere.
        assert store.latest()[0] == float(len(fleet))

    def test_pooled_samples_at_the_barrier(self, tiny, fleet):
        from repro.obs.series import SeriesStore

        store = SeriesStore(capacity=16)
        scheduler = FleetScheduler(tiny, qos_level=MODERATE, max_workers=4)
        scheduler.run(fleet, pooled=True, series=store)
        assert len(store) == 1
        assert store.latest()[0] == float(len(fleet))

    def test_series_is_optional_and_results_identical(self, tiny, fleet):
        from repro.obs.series import SeriesStore

        store = SeriesStore(capacity=16)
        with_series = FleetScheduler(tiny, qos_level=MODERATE).run(
            fleet, pooled=False, series=store
        )
        without = FleetScheduler(tiny, qos_level=MODERATE).run(
            fleet, pooled=False
        )
        assert_result_lists_identical(with_series, without)
