"""Board-aware serve caching: no cross-board key collisions.

The satellite guarantee: the same (model, QoS) planned for two boards
must never share an LRU entry, and a default-board request keys the
same entry as one that names no board.
"""

import pytest

from repro.errors import ReproError
from repro.nn import build_tiny_test_model
from repro.serve.service import PlanService, board_from_params

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
