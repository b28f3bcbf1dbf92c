"""Explorer points carry plain floats.

Span attributes and report digests hash ``repr``, and numpy 2 prints a
scalar as ``np.float64(...)``: one numpy scalar leaking into a point
would move every pinned trace digest downstream.  Both explorers build
their points from ``ndarray.tolist()``, which this pins on the default
board and on the NPU board (whose offloaded layers take a separate
path).
"""

import pytest

from repro.boards import build_board
from repro.dse.explorer import DSEExplorer
from repro.dse.space import board_design_space
from repro.fleet.pricing import FleetSharedState, SharedComponentExplorer
from repro.nn.models import PAPER_MODELS


def explorers(board_name):
    board = build_board(board_name)
    space = board_design_space(board)
    yield DSEExplorer(board, space)
    yield SharedComponentExplorer(board, space, FleetSharedState(board))


@pytest.mark.parametrize("board_name", ["nucleo-f767zi", "nucleo-n657x0"])
def test_points_carry_plain_floats(board_name):
    model = PAPER_MODELS["vww"]()
    for explorer in explorers(board_name):
        clouds = explorer.explore_model(model)
        points = [p for cloud in clouds.values() for p in cloud]
        assert points
        for point in points:
            assert type(point.latency_s) is float, point
            assert type(point.energy_j) is float, point
