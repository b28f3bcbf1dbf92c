"""Drift-path digest pins.

The zero-event pin never drifts, replans or injects faults, so it
cannot catch an epoch-pricing rewrite that is not bit-identical.  These
presets exercise what it skips: thermal drift and deferred replan
requests, oracle twins, a brownout fault wave that clamps windows, and
a sensor-fault wave with churn and quarantines.  The digests were
captured before the governor priced epochs from a cached window.
"""

import pytest

from repro.scenario import run_scenario
from repro.scenario.library import brownout_summer, churn_heavy, steady_diurnal

HOUR_S = 3600.0

PINS = {
    "steady-diurnal": (
        lambda: steady_diurnal(devices=12, horizon_s=6 * HOUR_S, seed=3),
        "9602a84c2ad3ef7050128968c3f45276283e2912db0f0bdd62ac7c3e904f2600",
    ),
    "brownout-summer": (
        lambda: brownout_summer(devices=6, horizon_s=6 * HOUR_S, seed=1),
        "09d0089bc82acb0d6cbf6a38a0bdbe1f936b2c3811a664ae60c7622186c7527a",
    ),
    "churn-heavy": (
        lambda: churn_heavy(devices=5, horizon_s=6 * HOUR_S, seed=1),
        "d9d5dd625f3f1db88e208c780a20b1aff52f0d7a500cecdf77871cd86ea69f3c",
    ),
}


@pytest.mark.parametrize("preset", sorted(PINS))
def test_drift_path_digest_pinned(preset):
    config, digest = PINS[preset]
    report = run_scenario(config())
    # The pins must cover the paths they exist for.
    assert report.replans["requested"] > 0
    if preset == "steady-diurnal":
        assert report.oracle["oracle_replans"] > 0
    else:
        assert sum(report.faults_injected.values()) > 0
    assert report.digest() == digest
