"""INA219 sensor model: sampling, noise, drift compensation."""

import pytest

from repro.errors import PowerModelError
from repro.power import (
    EnergyCategory,
    EnergyInterval,
    INA219Config,
    INA219Sensor,
    differential_energy,
)


def flat_trace(duration_s, power_w):
    return [EnergyInterval(duration_s, power_w, EnergyCategory.COMPUTE)]


def stepped_trace():
    return [
        EnergyInterval(0.010, 0.100, EnergyCategory.MEMORY),
        EnergyInterval(0.020, 0.400, EnergyCategory.COMPUTE),
        EnergyInterval(0.010, 0.050, EnergyCategory.IDLE),
    ]


class TestSampling:
    def test_sample_count_matches_duration(self):
        sensor = INA219Sensor(INA219Config(sample_period_s=1e-3, noise_std_w=0))
        samples = sensor.measure(flat_trace(0.050, 0.3))
        assert len(samples) == 50

    def test_flat_trace_measured_accurately(self):
        sensor = INA219Sensor(
            INA219Config(sample_period_s=1e-3, noise_std_w=0.0)
        )
        samples = sensor.measure(flat_trace(0.100, 0.300))
        energy = sensor.estimate_energy(samples)
        assert energy == pytest.approx(0.03, rel=0.01)

    def test_stepped_trace_energy_close_to_truth(self):
        sensor = INA219Sensor(INA219Config(sample_period_s=1e-4))
        trace = stepped_trace()
        true_energy = sum(i.energy_j for i in trace)
        energy = sensor.estimate_energy(sensor.measure(trace))
        assert energy == pytest.approx(true_energy, rel=0.05)

    def test_quantization_to_power_lsb(self):
        sensor = INA219Sensor(
            INA219Config(sample_period_s=1e-3, noise_std_w=0.0, power_lsb_w=0.01)
        )
        samples = sensor.measure(flat_trace(0.01, 0.123))
        for sample in samples:
            ratio = sample.power_w / 0.01
            assert ratio == pytest.approx(round(ratio))

    def test_noise_is_reproducible_after_reset(self):
        sensor = INA219Sensor(INA219Config(noise_std_w=5e-3))
        first = sensor.measure(flat_trace(0.05, 0.3))
        sensor.reset()
        second = sensor.measure(flat_trace(0.05, 0.3))
        assert [s.power_w for s in first] == [s.power_w for s in second]

    def test_average_power_estimate(self):
        sensor = INA219Sensor(INA219Config(noise_std_w=0.0))
        samples = sensor.measure(flat_trace(0.05, 0.25))
        assert sensor.estimate_average_power(samples) == pytest.approx(
            0.25, rel=0.01
        )

    def test_empty_samples_average_zero(self):
        sensor = INA219Sensor()
        assert sensor.estimate_average_power([]) == 0.0


class TestTailCoverage:
    """Regression: non-period-aligned traces must not lose their tail.

    The original ``measure`` truncated the sample count
    (``int(total / period)``), dropping up to one full conversion
    period of trace -- a 1.9 ms trace at a 1 ms period yielded one
    sample and under-reported energy by ~47%.
    """

    def test_non_aligned_trace_gets_tail_sample(self):
        sensor = INA219Sensor(INA219Config(sample_period_s=1e-3, noise_std_w=0))
        samples = sensor.measure(flat_trace(1.9e-3, 0.3))
        assert len(samples) == 2
        assert samples[0].duration_s == pytest.approx(1e-3)
        assert samples[1].duration_s == pytest.approx(0.9e-3)

    def test_non_aligned_trace_energy_accurate(self):
        sensor = INA219Sensor(INA219Config(sample_period_s=1e-3, noise_std_w=0))
        trace = flat_trace(1.9e-3, 0.3)
        energy = sensor.estimate_energy(sensor.measure(trace))
        assert energy == pytest.approx(1.9e-3 * 0.3, rel=1e-6)

    def test_clamped_sample_not_charged_full_period(self):
        # A 1.1-period trace: the 0.1-period tail sample must weigh
        # 0.1 periods in the estimate, not a full period.
        sensor = INA219Sensor(INA219Config(sample_period_s=1e-3, noise_std_w=0))
        samples = sensor.measure(flat_trace(1.1e-3, 0.5))
        energy = sensor.estimate_energy(samples)
        assert energy == pytest.approx(1.1e-3 * 0.5, rel=1e-6)
        assert energy < 2 * 1e-3 * 0.5  # full-period charging would hit this

    def test_covered_duration_matches_trace(self):
        sensor = INA219Sensor(INA219Config(sample_period_s=1e-3, noise_std_w=0))
        samples = sensor.measure(stepped_trace())
        total = sum(i.duration_s for i in stepped_trace())
        assert sensor.covered_duration_s(samples) == pytest.approx(total)

    def test_aligned_trace_sample_count_unchanged(self):
        # Exact period multiples must not grow a phantom sample out of
        # float rounding (0.05 / 1e-3 > 50 in binary floats).
        sensor = INA219Sensor(INA219Config(sample_period_s=1e-3, noise_std_w=0))
        samples = sensor.measure(flat_trace(0.050, 0.3))
        assert len(samples) == 50
        assert all(s.duration_s == pytest.approx(1e-3) for s in samples)


class TestDriftCompensation:
    def drifty_sensor(self):
        return INA219Sensor(
            INA219Config(
                sample_period_s=1e-3,
                noise_std_w=0.0,
                drift_amplitude_w=0.050,
                drift_period_s=1.0,
            )
        )

    def test_drift_biases_absolute_measurement(self):
        sensor = self.drifty_sensor()
        # Sample near the drift peak (t ~ 0.25 s into the sine).
        samples = sensor.measure(flat_trace(0.050, 0.300), start_time_s=0.22)
        energy = sensor.estimate_energy(samples)
        true_energy = 0.050 * 0.300
        assert abs(energy - true_energy) / true_energy > 0.05

    def test_differential_measurement_cancels_drift(self):
        # The paper's Sec. IV methodology: compare against the baseline
        # at the corresponding timestamp.
        sensor = self.drifty_sensor()
        test_trace = flat_trace(0.050, 0.300)
        baseline_trace = flat_trace(0.050, 0.400)
        baseline_energy = 0.050 * 0.400
        compensated = differential_energy(
            sensor,
            test_trace,
            baseline_trace,
            baseline_energy,
            start_time_s=0.22,
        )
        true_energy = 0.050 * 0.300
        assert compensated == pytest.approx(true_energy, rel=0.02)


class TestSeededStreams:
    """Per-instance seeding: fleet devices must not share noise."""

    NOISY = INA219Config(sample_period_s=1e-3, noise_std_w=5e-3)

    def test_distinct_seeds_draw_distinct_noise(self):
        a = INA219Sensor(self.NOISY, seed=1)
        b = INA219Sensor(self.NOISY, seed=2)
        trace = flat_trace(0.05, 0.3)
        assert [s.power_w for s in a.measure(trace)] != [
            s.power_w for s in b.measure(trace)
        ]

    def test_same_seed_same_stream(self):
        trace = flat_trace(0.05, 0.3)
        first = INA219Sensor(self.NOISY, seed=7).measure(trace)
        second = INA219Sensor(self.NOISY, seed=7).measure(trace)
        assert [s.power_w for s in first] == [s.power_w for s in second]

    def test_explicit_seed_reset_preserves_stream(self):
        sensor = INA219Sensor(self.NOISY, seed=11)
        trace = flat_trace(0.05, 0.3)
        first = sensor.measure(trace)
        sensor.reset()
        second = sensor.measure(trace)
        assert [s.power_w for s in first] == [s.power_w for s in second]

    def test_seed_sequence_accepted(self):
        import numpy as np

        root = np.random.SeedSequence(0)
        children = root.spawn(2)
        trace = flat_trace(0.05, 0.3)
        a = INA219Sensor(self.NOISY, seed=children[0]).measure(trace)
        b = INA219Sensor(self.NOISY, seed=children[1]).measure(trace)
        assert [s.power_w for s in a] != [s.power_w for s in b]


class TestConfigValidation:
    def test_nonpositive_period_rejected(self):
        with pytest.raises(PowerModelError):
            INA219Config(sample_period_s=0.0)

    def test_nonpositive_lsb_rejected(self):
        with pytest.raises(PowerModelError):
            INA219Config(power_lsb_w=0.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(PowerModelError):
            INA219Config(noise_std_w=-1e-3)


class TestFaultInjection:
    QUIET = INA219Config(sample_period_s=1e-3, noise_std_w=0.0)

    @staticmethod
    def clock_with(*events):
        from repro.faults import FaultPlan

        return FaultPlan(scheduled=tuple(events)).clock_for(0)

    def test_nack_raises_sensor_read_error(self):
        from repro.errors import SensorReadError
        from repro.faults import FaultKind

        clock = self.clock_with((FaultKind.SENSOR_NACK, 0))
        sensor = INA219Sensor(self.QUIET, fault_clock=clock)
        with pytest.raises(SensorReadError, match="NACK"):
            sensor.measure(flat_trace(0.010, 0.3))
        # The next transaction goes through.
        assert sensor.measure(flat_trace(0.010, 0.3))

    def test_dropout_leaves_gaps_without_shifting_noise(self):
        from repro.faults import FaultKind

        noisy = INA219Config(sample_period_s=1e-3, noise_std_w=1e-3)
        trace = flat_trace(0.010, 0.3)
        clean = INA219Sensor(noisy).measure(trace)
        clock = self.clock_with(
            (FaultKind.SENSOR_DROPOUT, 2), (FaultKind.SENSOR_DROPOUT, 7)
        )
        faulted = INA219Sensor(noisy, fault_clock=clock).measure(trace)
        assert len(faulted) == len(clean) - 2
        # Fault decisions draw after the noise, so surviving samples
        # are bit-identical to the fault-free train.
        survivors = [s for k, s in enumerate(clean) if k not in (2, 7)]
        assert [s.power_w for s in faulted] == [s.power_w for s in survivors]

    def test_dropout_reduces_covered_duration(self):
        from repro.faults import FaultKind

        clock = self.clock_with((FaultKind.SENSOR_DROPOUT, 0))
        sensor = INA219Sensor(self.QUIET, fault_clock=clock)
        samples = sensor.measure(flat_trace(0.010, 0.3))
        assert sensor.covered_duration_s(samples) == pytest.approx(0.009)

    def test_stuck_register_latches_first_value(self):
        from repro.faults import FaultKind

        clock = self.clock_with((FaultKind.SENSOR_STUCK, 0))
        sensor = INA219Sensor(self.QUIET, fault_clock=clock)
        samples = sensor.measure(stepped_trace())
        assert len({s.power_w for s in samples}) == 1
        assert samples[0].power_w == pytest.approx(0.100, abs=1e-3)

    def test_stuck_clears_on_next_measure(self):
        from repro.faults import FaultKind

        clock = self.clock_with((FaultKind.SENSOR_STUCK, 0))
        sensor = INA219Sensor(self.QUIET, fault_clock=clock)
        sensor.measure(stepped_trace())
        fresh = sensor.measure(stepped_trace())
        assert len({s.power_w for s in fresh}) > 1

    def test_zero_rate_clock_is_transparent(self):
        from repro.faults import FaultPlan

        trace = stepped_trace()
        clean = INA219Sensor(self.QUIET).measure(trace)
        hardened = INA219Sensor(
            self.QUIET, fault_clock=FaultPlan().clock_for(0)
        ).measure(trace)
        assert [s.power_w for s in clean] == [s.power_w for s in hardened]


class TestBatchedNoisePins:
    """The batched noise draw reproduces the per-sample scalar draws.

    The train digests and generator states below were captured with
    the scalar-draw sensor: one ``rng.normal`` call per conversion.
    Each case measures the same non-aligned 38-interval trace twice
    (noise, drift, and the named fault events).
    """

    CONFIG = INA219Config(
        noise_std_w=1e-3, drift_amplitude_w=2e-3, drift_period_s=60.0
    )
    STATE = "17ee404856fc9c5f3fd084eacc8d4506f6f247cb5af7d5ba97cafeb065de7aa7"
    PINS = {
        "clean": (
            (),
            "2e243e6c3eba2e758a759a1b541b857b30f1e7868de54e45a573fa592348375d",
        ),
        "dropout": (
            (("SENSOR_DROPOUT", 3), ("SENSOR_DROPOUT", 11)),
            "49c05901aeb219cac05e84e86e337917b0af1703c5c6c21bc2f8dab8e4bf8984",
        ),
        "stuck": (
            (("SENSOR_STUCK", 0),),
            "3e611e3906e74e24a9abd17f2ebead509c8d17d7fc325257a9ab074c27bd4916",
        ),
    }

    @staticmethod
    def trace():
        intervals = [
            EnergyInterval(
                0.00037 + 1e-5 * (k % 5),
                0.05 + 0.013 * (k % 7),
                EnergyCategory.COMPUTE,
            )
            for k in range(37)
        ]
        intervals.append(EnergyInterval(0.0123, 0.02, EnergyCategory.IDLE))
        return intervals

    @staticmethod
    def sha256(payload):
        import hashlib
        import json

        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()

    def measure_twice(self, events, as_pairs=False):
        from repro.faults import FaultKind, FaultPlan

        scheduled = tuple((FaultKind[kind], k) for kind, k in events)
        clock = FaultPlan(scheduled=scheduled).clock_for(0) if events else None
        sensor = INA219Sensor(self.CONFIG, seed=7, fault_clock=clock)
        trace = self.trace()
        if as_pairs:
            trace = [(iv.duration_s, iv.power_w) for iv in trace]
        train = sensor.measure(trace, start_time_s=12.5)
        train += sensor.measure(trace, start_time_s=20.0)
        rows = [
            [s.time_s.hex(), s.power_w.hex(), s.duration_s.hex()]
            for s in train
        ]
        return self.sha256(rows), self.sha256(sensor._rng.bit_generator.state)

    @pytest.mark.parametrize("case", sorted(PINS))
    def test_train_and_generator_state_match_scalar_draws(self, case):
        events, train_digest = self.PINS[case]
        assert self.measure_twice(events) == (train_digest, self.STATE)

    @pytest.mark.parametrize("case", sorted(PINS))
    def test_duration_power_pairs_read_like_intervals(self, case):
        events, _ = self.PINS[case]
        assert self.measure_twice(events, as_pairs=True) == (
            self.measure_twice(events)
        )
