"""Checkpoint/resume: the resume-at-any-boundary parity invariant.

Every test builds a fresh config per run, so each run is independent
of the others by construction.  (A run no longer writes into its
config, see ``test_run_isolation.py``.)
"""

import pytest

from repro.recovery import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from repro.scenario import ScenarioEngine, resume_scenario, run_scenario
from repro.scenario.library import churn_heavy, flash_crowd, smoke

HOUR_S = 3600.0


def small_smoke():
    return smoke(devices=6, horizon_s=1.5 * HOUR_S, seed=4)


def checkpoint_at(config, boundary: int, path: str) -> int:
    """Run ``config`` to the given event boundary, snapshot, abandon.

    Returns the number of events actually dispatched (the run may be
    shorter than the requested boundary).
    """
    engine = ScenarioEngine(config)
    try:
        engine.start()
        while engine.events_processed < boundary and engine.step():
            pass
        save_checkpoint(engine.checkpoint(), str(path))
        return engine.events_processed
    finally:
        engine.close()


class TestResumeParity:
    @pytest.mark.parametrize("boundary", [0, 1, 3, 7])
    def test_smoke_resume_any_boundary_is_byte_identical(
        self, tmp_path, boundary
    ):
        baseline = run_scenario(small_smoke())
        path = tmp_path / "smoke.ckpt"
        reached = checkpoint_at(small_smoke(), boundary, path)
        assert reached == boundary
        resumed = resume_scenario(str(path))
        assert resumed.digest() == baseline.digest()
        assert resumed.to_dict() == baseline.to_dict()

    def test_churn_and_faults_resume_identically(self, tmp_path):
        """Churned fleet + staged fault campaign: the hardest state to
        snapshot (victim RNG, campaign clocks, joined governors)."""

        def config():
            return churn_heavy(devices=5, horizon_s=6 * HOUR_S, seed=1)

        baseline = run_scenario(config())
        path = tmp_path / "churn.ckpt"
        checkpoint_at(config(), 9, path)
        resumed = resume_scenario(str(path))
        assert resumed.digest() == baseline.digest()

    def test_rate_limited_serve_resumes_identically(self, tmp_path):
        """Admission bucket/shed counters cross the boundary intact."""

        def config():
            return flash_crowd(devices=4, horizon_s=3 * HOUR_S, seed=2)

        baseline = run_scenario(config())
        path = tmp_path / "flash.ckpt"
        checkpoint_at(config(), 5, path)
        resumed = resume_scenario(str(path))
        assert resumed.digest() == baseline.digest()

    def test_checkpoint_past_end_resumes_to_same_report(self, tmp_path):
        """A boundary beyond the horizon snapshots the drained run."""
        baseline = run_scenario(small_smoke())
        path = tmp_path / "late.ckpt"
        checkpoint_at(small_smoke(), 10**9, path)
        resumed = resume_scenario(str(path))
        assert resumed.digest() == baseline.digest()


class TestCheckpointRestrictions:
    def test_checkpoint_records_progress(self, tmp_path):
        path = tmp_path / "progress.ckpt"
        checkpoint_at(small_smoke(), 3, path)
        checkpoint = load_checkpoint(str(path))
        assert checkpoint.events_processed == 3
        assert checkpoint.clock_now >= 0.0
        assert checkpoint.governors  # initial fleet snapshotted


class TestCheckpointSchema:
    """The v2 per-device state keys: a checkpoint written by one tree
    must resume on another of the same ``CHECKPOINT_VERSION``."""

    GOVERNOR_KEYS = {
        "device_id", "plan", "battery", "thermal", "temperature",
        "compensated_w", "samples", "replans", "invalid_streak",
        "invalid_epochs", "css_events", "watchdog_resets",
        "pll_retries", "epoch", "pending", "sensor_rng_state",
    }
    TWIN_KEYS = {
        "device_id", "plan", "battery", "thermal", "temperature",
        "bucket", "replans", "epochs", "epochs_met", "true_energy_j",
    }

    def test_device_state_keys_are_the_v2_schema(self, tmp_path):
        path = tmp_path / "schema.ckpt"
        checkpoint_at(small_smoke(), 3, path)
        checkpoint = load_checkpoint(str(path))
        assert checkpoint.version == CHECKPOINT_VERSION == 2
        assert checkpoint.governors and checkpoint.twins
        for state in checkpoint.governors:
            assert set(state) == self.GOVERNOR_KEYS
        for state in checkpoint.twins:
            assert set(state) == self.TWIN_KEYS
