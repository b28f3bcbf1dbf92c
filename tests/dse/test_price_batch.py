"""Vectorized pricing vs. the scalar reference oracle.

``LayerCostModel.price_batch`` is the DSE hot path; its contract is
exact agreement (1e-12 relative) with the scalar ``price`` oracle over
the full paper grid -- every conv node, every granularity, every HFO,
with and without the per-layer relock charge.
"""

import numpy as np
import pytest

from repro.dse import paper_design_space
from repro.dse.explorer import DSEExplorer, LayerCostModel
from repro.engine.cost import TraceBuilder


REL_TOL = 1e-12


@pytest.fixture
def space(board):
    return paper_design_space(board.power_model)


def iter_traces(board, space, model):
    tracer = TraceBuilder(board)
    for node in model.conv_nodes():
        granularities = (
            space.granularities if node.layer.supports_dae else (0,)
        )
        for g in granularities:
            yield tracer.build(model, node, g)


class TestOracleAgreement:
    def test_full_paper_grid_agreement(self, board, space, tiny_model):
        """Batch and scalar prices agree to 1e-12 on every candidate."""
        pricer = LayerCostModel(board)
        checked = 0
        for trace in iter_traces(board, space, tiny_model):
            for relock in (False, True):
                lat_vec, en_vec = pricer.price_batch(
                    trace, space.hfo_configs, space.lfo,
                    assume_relock=relock,
                )
                for i, hfo in enumerate(space.hfo_configs):
                    lat, en = pricer.price(
                        trace, hfo, space.lfo, assume_relock=relock
                    )
                    assert lat_vec[i] == pytest.approx(lat, rel=REL_TOL)
                    assert en_vec[i] == pytest.approx(en, rel=REL_TOL)
                    checked += 1
        # Every (layer, g, HFO, relock) candidate of the grid was hit.
        assert checked >= 2 * len(space.hfo_configs) * len(
            tiny_model.conv_nodes()
        )

    def test_batch_output_shapes(self, board, space, tiny_model):
        pricer = LayerCostModel(board)
        trace = next(iter_traces(board, space, tiny_model))
        lat, en = pricer.price_batch(trace, space.hfo_configs, space.lfo)
        assert lat.shape == en.shape == (len(space.hfo_configs),)
        assert np.all(lat > 0) and np.all(en > 0)

    def test_subset_of_hfos(self, board, space, tiny_model):
        """Batch pricing works on arbitrary HFO subsets, not just the grid."""
        pricer = LayerCostModel(board)
        trace = next(iter_traces(board, space, tiny_model))
        subset = space.hfo_configs[::2]
        lat, en = pricer.price_batch(trace, subset, space.lfo)
        for i, hfo in enumerate(subset):
            s_lat, s_en = pricer.price(
                trace, hfo, space.lfo, assume_relock=False
            )
            assert lat[i] == pytest.approx(s_lat, rel=REL_TOL)
            assert en[i] == pytest.approx(s_en, rel=REL_TOL)


class TestPowerVectorCache:
    def test_vectors_memoized_per_hfo_tuple(self, board, space):
        pricer = LayerCostModel(board)
        first = pricer._power_vectors(space.hfo_configs)
        second = pricer._power_vectors(space.hfo_configs)
        assert first is second

    def test_distinct_tuples_get_distinct_vectors(self, board, space):
        pricer = LayerCostModel(board)
        full = pricer._power_vectors(space.hfo_configs)
        sub = pricer._power_vectors(space.hfo_configs[:3])
        assert len(sub["f"]) == 3
        assert len(full["f"]) == len(space.hfo_configs)


class TestExplorerUsesBatch:
    def test_explore_layer_matches_scalar_pricing(
        self, board, space, tiny_model
    ):
        """End-to-end: explorer points equal scalar-priced points."""
        explorer = DSEExplorer(board, space)
        node = tiny_model.conv_nodes()[0]
        points = explorer.explore_layer(tiny_model, node)
        pricer = LayerCostModel(board)
        tracer = TraceBuilder(board)
        for point in points:
            trace = tracer.build(tiny_model, node, point.granularity)
            lat, en = pricer.price(
                trace, point.hfo, space.lfo, assume_relock=False
            )
            assert point.latency_s == pytest.approx(lat, rel=REL_TOL)
            assert point.energy_j == pytest.approx(en, rel=REL_TOL)

    def test_one_batch_call_per_layer_granularity(
        self, board, space, tiny_model, monkeypatch
    ):
        """The explore speedup as a count: every (layer, g) prices its
        whole HFO row in one ``price_batch`` call, never per HFO."""
        batch_calls = []
        price_batch = LayerCostModel.price_batch

        def counted(self, trace, *args, **kwargs):
            batch_calls.append(trace.granularity)
            return price_batch(self, trace, *args, **kwargs)

        def scalar(*args, **kwargs):
            raise AssertionError("explorer fell back to scalar pricing")

        monkeypatch.setattr(LayerCostModel, "price_batch", counted)
        monkeypatch.setattr(LayerCostModel, "price", scalar)
        clouds = DSEExplorer(board, space).explore_model(tiny_model)
        rows = sum(
            len(space.granularities) if node.layer.supports_dae else 1
            for node in tiny_model.conv_nodes()
        )
        assert len(batch_calls) == rows
        assert sum(len(points) for points in clouds.values()) == (
            rows * len(space.hfo_configs)
        )
