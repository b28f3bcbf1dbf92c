"""Cross-worker shared plan-cache tier: digest addressing, integrity."""

import json
import multiprocessing

import pytest

from repro.errors import ReproError
from repro.obs.registry import get_registry
from repro.serve.protocol import plan_digest
from repro.serve.service import PlanService
from repro.serve.shared_cache import (
    SharedCache,
    managed_shared_cache,
    request_key,
    wire_key,
)


def make_payload(value: float = 1.0) -> dict:
    core = {"model": "tiny", "qos": {"percent": value}, "plan": [value]}
    core["digest"] = plan_digest(core)
    return core


KEY = (("model", "fp"), ("board", "fp"), ("space", "fp"), ("percent", 30.0))
OTHER = (("model", "fp"), ("board", "fp"), ("space", "fp"), ("percent", 50.0))


class TestWireKey:
    def test_deterministic(self):
        assert wire_key(KEY) == wire_key(KEY)

    def test_distinguishes_keys(self):
        assert wire_key(KEY) != wire_key(OTHER)

    def test_canonical_json(self):
        # The wire form must parse back to the nested-list shape.
        assert json.loads(wire_key(KEY))[3] == ["percent", 30.0]


class TestLocalSharedCache:
    def test_miss_then_publish_then_hit(self):
        tier = SharedCache()
        assert tier.lookup(KEY) is None
        payload = make_payload()
        digest = tier.publish(KEY, payload)
        assert digest == payload["digest"]
        hit = tier.lookup(KEY)
        assert hit == payload
        assert hit is not payload  # fresh copy, safe to annotate

    def test_round_trip_is_byte_identical(self):
        """The exchanged bytes digest to the same address."""
        tier = SharedCache()
        payload = make_payload()
        digest = tier.publish(KEY, payload)
        served = tier.lookup(KEY)
        assert (
            plan_digest({k: v for k, v in served.items() if k != "digest"})
            == digest
        )

    def test_first_publisher_wins(self):
        tier = SharedCache()
        first = make_payload(1.0)
        tier.publish(KEY, first)
        tier.publish(KEY, make_payload(2.0))
        assert tier.lookup(KEY) == first

    def test_publish_rejects_mismatched_digest(self):
        tier = SharedCache()
        payload = make_payload()
        payload["digest"] = "0" * 64
        with pytest.raises(ReproError):
            tier.publish(KEY, payload)

    def test_corrupt_payload_is_a_miss(self):
        tier = SharedCache()
        payload = make_payload()
        digest = tier.publish(KEY, payload)
        # Tear the stored bytes behind the tier's back.
        tier._payloads[digest] = json.dumps(
            {**payload, "plan": [999.0]}, sort_keys=True
        )
        assert tier.lookup(KEY) is None
        stats = tier.stats()
        assert stats["corrupt"] == 1
        assert wire_key(KEY) not in tier._index  # entry dropped

    def test_capacity_rejects_not_evicts(self):
        tier = SharedCache(capacity=1)
        tier.publish(KEY, make_payload(1.0))
        tier.publish(OTHER, make_payload(2.0))
        assert tier.lookup(KEY) is not None  # survivor
        assert tier.lookup(OTHER) is None
        assert tier.stats()["rejected"] == 1

    def test_validation(self):
        with pytest.raises(ReproError):
            SharedCache(capacity=0)

    def test_stats_counters(self):
        tier = SharedCache()
        tier.lookup(KEY)
        tier.publish(KEY, make_payload())
        tier.lookup(KEY)
        stats = tier.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["publishes"] == 1
        assert stats["size"] == 1
        assert stats["payloads"] == 1


class TestRequestIndex:
    """The fingerprint-free degraded-serving index."""

    def test_request_key_collapses_qos_spellings(self):
        assert request_key("tiny", ("percent", 30)) == request_key(
            "tiny", ("percent", 30.0)
        )
        assert request_key("tiny", ("percent", 30.0)) != request_key(
            "tiny", ("percent", 50.0)
        )
        assert request_key("tiny", ("percent", 30.0)) != request_key(
            "mbv2", ("percent", 30.0)
        )

    def test_register_then_lookup_serves_the_payload(self):
        tier = SharedCache()
        payload = make_payload()
        digest = tier.publish(KEY, payload)
        rk = request_key("tiny", ("percent", 30.0))
        assert tier.lookup_request(rk) is None  # miss before register
        tier.register_request(rk, digest)
        assert tier.lookup_request(rk) == payload
        stats = tier.stats()
        assert stats["requests"] == 1
        assert stats["request_hits"] == 1
        assert stats["request_misses"] == 1

    def test_first_registration_wins(self):
        tier = SharedCache()
        first = make_payload(1.0)
        tier.publish(KEY, first)
        other = make_payload(2.0)
        tier.publish(OTHER, other)
        rk = request_key("tiny", ("percent", 30.0))
        tier.register_request(rk, first["digest"])
        tier.register_request(rk, other["digest"])  # ignored
        assert tier.lookup_request(rk) == first

    def test_corrupt_registered_payload_is_a_miss(self):
        """The degraded path never serves bytes that fail digest
        verification, even via the request index."""
        tier = SharedCache()
        payload = make_payload()
        digest = tier.publish(KEY, payload)
        rk = request_key("tiny", ("percent", 30.0))
        tier.register_request(rk, digest)
        tier._payloads[digest] = json.dumps(
            {**payload, "plan": [999.0]}, sort_keys=True
        )
        assert tier.lookup_request(rk) is None
        assert rk not in tier._requests  # entry dropped


class TestCorruptionMetrics:
    """Torn shared-cache bytes must be *observable*, not just a miss."""

    def test_corrupt_drop_increments_the_obs_counter(self):
        registry = get_registry()
        before = registry.counter_value(
            "serve.shared_cache", event="corrupt"
        )
        tier = SharedCache()
        payload = make_payload()
        digest = tier.publish(KEY, payload)
        # Flip one byte of the stored canonical JSON.
        raw = tier._payloads[digest]
        flip = raw.index('"plan"')
        tier._payloads[digest] = (
            raw[:flip] + '"plAn"' + raw[flip + len('"plan"'):]
        )
        assert tier.lookup(KEY) is None
        after = registry.counter_value(
            "serve.shared_cache", event="corrupt"
        )
        assert after == before + 1

    def test_capacity_rejection_increments_the_obs_counter(self):
        registry = get_registry()
        before = registry.counter_value(
            "serve.shared_cache", event="rejected"
        )
        tier = SharedCache(capacity=1)
        tier.publish(KEY, make_payload(1.0))
        tier.publish(OTHER, make_payload(2.0))
        after = registry.counter_value(
            "serve.shared_cache", event="rejected"
        )
        assert after == before + 1


class TestManagedSharedCache:
    def test_managed_tier_behaves_like_local(self):
        with multiprocessing.get_context("spawn").Manager() as manager:
            tier = managed_shared_cache(manager, capacity=8)
            assert isinstance(tier, SharedCache)
            assert tier.lookup(KEY) is None
            payload = make_payload()
            digest = tier.publish(KEY, payload)
            assert tier.lookup(KEY) == payload
            stats = tier.stats()
            assert stats["hits"] == 1
            assert stats["misses"] == 1
            assert digest == payload["digest"]


class TestServiceIntegration:
    def test_two_services_exchange_plans_byte_identically(self):
        """Worker B's first request serves worker A's published bytes."""
        tier = SharedCache()
        service_a = PlanService(shared_cache=tier)
        service_b = PlanService(shared_cache=tier)
        qos = ("percent", 30.0)
        fresh = service_a.plan("tiny", qos)
        assert fresh["cached"] is False
        assert tier.stats()["publishes"] == 1

        shared = service_b.plan("tiny", qos)
        assert shared["cached"] is True
        assert shared["digest"] == fresh["digest"]
        assert tier.stats()["hits"] == 1
        # And B promoted it into its local LRU: no second tier hit.
        again = service_b.plan("tiny", qos)
        assert again["digest"] == fresh["digest"]
        assert tier.stats()["hits"] == 1

    def test_shared_hit_digest_matches_cold_solve(self):
        tier = SharedCache()
        service_a = PlanService(shared_cache=tier)
        service_b = PlanService(shared_cache=tier)
        qos = ("percent", 50.0)
        service_a.plan("tiny", qos)
        shared = service_b.plan("tiny", qos)
        cold = service_b.plan_cold("tiny", qos)
        assert shared["digest"] == cold["digest"]
