"""Board-aware serve caching: no cross-board key collisions.

The satellite guarantee: the same (model, QoS) planned for two boards
must never share an LRU entry, a shared-tier entry, or a shard -- and
default-board keys must stay byte-identical to the pre-registry wire
format.
"""

import json

import pytest

from repro.errors import ReproError
from repro.nn import build_tiny_test_model
from repro.serve.router import shard_key
from repro.serve.service import PlanService, board_from_params
from repro.serve.shared_cache import SharedCache, request_key

QK = ("percent", 30.0)


@pytest.fixture(scope="module")
def tiny():
    return build_tiny_test_model()


class TestKeySeparation:
    def test_cache_keys_differ_per_board(self, tiny):
        service = PlanService()
        default = service.cache_key(tiny, QK)
        n6 = service.cache_key(tiny, QK, board_name="nucleo-n657x0")
        mcx = service.cache_key(tiny, QK, board_name="frdm-mcxn947")
        assert len({default, n6, mcx}) == 3

    def test_default_cache_key_unchanged_by_none(self, tiny):
        service = PlanService()
        assert service.cache_key(tiny, QK) == service.cache_key(
            tiny, QK, board_name=None
        )

    def test_request_keys_differ_per_board(self):
        default = request_key("tiny", QK)
        n6 = request_key("tiny", QK, board="nucleo-n657x0")
        mcx = request_key("tiny", QK, board="frdm-mcxn947")
        assert len({default, n6, mcx}) == 3

    def test_default_request_key_keeps_wire_format(self):
        """No board element -> pre-registry two-part JSON identity."""
        assert request_key("tiny", QK) == json.dumps(
            ["tiny", ["percent", "30.0"]], separators=(",", ":")
        )

    def test_shard_keys_differ_per_board(self):
        base = {"model": "tiny", "qos_percent": 30.0}
        default = shard_key(base)
        n6 = shard_key({**base, "board": "nucleo-n657x0"})
        mcx = shard_key({**base, "board": "frdm-mcxn947"})
        assert len({default, n6, mcx}) == 3

    def test_default_shard_key_keeps_wire_format(self):
        assert shard_key(
            {"model": "tiny", "qos_percent": 30.0}
        ) == json.dumps(
            ["tiny", ["qos_percent", "30.0"]], separators=(",", ":")
        )


class TestBoardParam:
    def test_absent_and_none_are_default(self):
        assert board_from_params({}) is None
        assert board_from_params({"board": None}) is None

    def test_valid_name_passes_through(self):
        assert board_from_params({"board": "nucleo-n657x0"}) == (
            "nucleo-n657x0"
        )

    def test_malformed_board_rejected(self):
        with pytest.raises(ReproError):
            board_from_params({"board": 7})
        with pytest.raises(ReproError):
            board_from_params({"board": ""})


class TestLruIsolation:
    def test_boards_never_share_lru_entries(self, tiny):
        service = PlanService()
        default = service.plan("tiny", QK)
        n6 = service.plan("tiny", QK, board_name="nucleo-n657x0")
        # Neither call may have served the other's entry.
        assert not default.get("cached")
        assert not n6.get("cached")
        assert default["digest"] != n6["digest"]
        # But each board's own repeat is a hit on its own entry.
        assert service.plan("tiny", QK)["digest"] == default["digest"]
        again = service.plan("tiny", QK, board_name="nucleo-n657x0")
        assert again.get("cached")
        assert again["digest"] == n6["digest"]

    def test_board_rides_on_payload_only_when_selected(self, tiny):
        service = PlanService()
        assert "board" not in service.plan("tiny", QK)
        n6 = service.plan("tiny", QK, board_name="nucleo-n657x0")
        assert n6["board"] == "nucleo-n657x0"


class TestSharedTierIsolation:
    def test_boards_never_share_shared_tier_entries(self, tiny):
        tier = SharedCache(capacity=16)
        service = PlanService(shared_cache=tier)
        default = service.plan("tiny", QK)
        n6 = service.plan("tiny", QK, board_name="nucleo-n657x0")
        stats = tier.stats()
        assert stats["size"] == 2  # two distinct index entries
        assert stats["payloads"] == 2  # two distinct digests
        # A fresh worker on the same tier resolves each board to its
        # own payload.
        other = PlanService(shared_cache=tier)
        assert other.plan("tiny", QK)["digest"] == default["digest"]
        assert (
            other.plan("tiny", QK, board_name="nucleo-n657x0")["digest"]
            == n6["digest"]
        )

    def test_degraded_request_index_split_by_board(self, tiny):
        tier = SharedCache(capacity=16)
        service = PlanService(shared_cache=tier)
        default = service.plan("tiny", QK)
        n6 = service.plan("tiny", QK, board_name="nucleo-n657x0")
        hit_default = tier.lookup_request(request_key("tiny", QK))
        hit_n6 = tier.lookup_request(
            request_key("tiny", QK, board="nucleo-n657x0")
        )
        assert hit_default["digest"] == default["digest"]
        assert hit_n6["digest"] == n6["digest"]
        assert hit_default["digest"] != hit_n6["digest"]
