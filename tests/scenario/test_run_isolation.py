"""A run leaves its config untouched, so configs and checkpoints reuse.

Each test failed while the arrival models' per-device RNG streams lived
in the config and the serve bridge switched batching off in the
caller's ``ServeConfig``.
"""

from repro.scenario import ScenarioEngine, run_scenario
from repro.scenario.library import smoke, steady_diurnal
from repro.serve.server import ServeConfig

HOUR_S = 3600.0

#: Digest of steady-diurnal, 12 devices, 6 h, seed 3 (also pinned in
#: ``test_drift_pins.py``).
STEADY_DIGEST = (
    "9602a84c2ad3ef7050128968c3f45276283e2912db0f0bdd62ac7c3e904f2600"
)


def steady():
    return steady_diurnal(devices=12, horizon_s=6 * HOUR_S, seed=3)


def test_one_config_runs_to_one_digest():
    config = steady()
    digests = {run_scenario(config).digest() for _ in range(3)}
    assert digests == {STEADY_DIGEST}


def test_in_memory_checkpoint_survives_its_source_running_on():
    engine = ScenarioEngine(steady())
    try:
        engine.start()
        while engine.events_processed < 5 and engine.step():
            pass
        checkpoint = engine.checkpoint()
        while engine.step():
            pass
        assert engine.finish().digest() == STEADY_DIGEST
    finally:
        engine.close()
    resumed = ScenarioEngine.resume(checkpoint)
    try:
        while resumed.step():
            pass
        assert resumed.finish().digest() == STEADY_DIGEST
    finally:
        resumed.close()


def test_serve_bridge_leaves_the_callers_serve_config_alone():
    config = smoke(devices=2, horizon_s=0.5 * HOUR_S, seed=0)
    config.serve = ServeConfig()
    run_scenario(config)
    assert config.serve.batch_enabled is True
