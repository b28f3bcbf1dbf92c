"""Heterogeneous fleets: board mixing, stream stability, determinism."""

import pytest

from repro.errors import BoardError
from repro.fleet import FleetScheduler, aggregate_fleet, sample_fleet
from repro.nn import build_tiny_test_model
from repro.optimize import QoSLevel

MIX = ("nucleo-f767zi", "frdm-mcxn947", "nucleo-n657x0")


@pytest.fixture(scope="module")
def tiny():
    return build_tiny_test_model()


class TestSampling:
    def test_assignment_deterministic(self):
        a = sample_fleet(8, seed=3, boards=list(MIX))
        b = sample_fleet(8, seed=3, boards=list(MIX))
        assert [d.board.name for d in a] == [d.board.name for d in b]

    def test_mix_actually_mixes(self):
        fleet = sample_fleet(16, seed=3, boards=list(MIX))
        names = {d.board.name for d in fleet}
        assert len(names) > 1
        assert names <= set(MIX)

    def test_unknown_board_rejected(self):
        with pytest.raises(BoardError):
            sample_fleet(4, seed=0, boards=["no-such-board"])

    def test_empty_mix_rejected(self):
        with pytest.raises(Exception):
            sample_fleet(4, seed=0, boards=[])

    def test_device_streams_unshifted_by_board_mixing(self):
        """Board assignment draws from its own sibling stream, so
        device k's thermal/battery perturbations are identical whether
        or not the fleet mixes boards (same root seed)."""
        plain = sample_fleet(6, seed=11)
        mixed = sample_fleet(6, seed=11, boards=list(MIX))
        for p, m in zip(plain, mixed):
            assert m.thermal.t_ambient_c == pytest.approx(
                p.thermal.t_ambient_c
            )
            assert m.battery.charge_fraction == pytest.approx(
                p.battery.charge_fraction
            )

    def test_homogeneous_default_board_unchanged(self):
        """boards=None is byte-identical to the pre-registry sampler."""
        plain = sample_fleet(4, seed=7)
        assert all(d.board.name == "nucleo-f767zi" for d in plain)


class TestSchedulingAndReport:
    def test_heterogeneous_run_deterministic(self, tiny):
        level = QoSLevel(name="30%", slack=0.30)
        digests = []
        for _ in range(2):
            fleet = sample_fleet(6, seed=3, boards=list(MIX))
            scheduler = FleetScheduler(tiny, qos_level=level)
            results = scheduler.run(fleet)
            qos_s = next(
                r.optimized.qos_s for r in results if r.error is None
            )
            report = aggregate_fleet(tiny, qos_s, results)
            digests.append(report.digest())
        assert digests[0] == digests[1]

    def test_report_carries_board_histogram(self, tiny):
        level = QoSLevel(name="30%", slack=0.30)
        fleet = sample_fleet(6, seed=3, boards=list(MIX))
        scheduler = FleetScheduler(tiny, qos_level=level)
        results = scheduler.run(fleet)
        qos_s = next(
            r.optimized.qos_s for r in results if r.error is None
        )
        report = aggregate_fleet(tiny, qos_s, results)
        hist = report.board_hist()
        assert sum(hist.values()) == 6
        assert set(hist) == {d.board.name for d in fleet}
        data = report.to_dict()
        assert data["boards"] == hist
        assert all("board" in row for row in data["devices"])
        assert "board mix:" in report.summary()

    def test_homogeneous_report_shape_unchanged(self, tiny):
        level = QoSLevel(name="30%", slack=0.30)
        fleet = sample_fleet(3, seed=0)
        scheduler = FleetScheduler(tiny, qos_level=level)
        results = scheduler.run(fleet)
        qos_s = next(
            r.optimized.qos_s for r in results if r.error is None
        )
        report = aggregate_fleet(tiny, qos_s, results)
        data = report.to_dict()
        assert "boards" not in data
        assert all("board" not in row for row in data["devices"])
