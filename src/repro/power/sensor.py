"""INA219 power-sensor model.

The paper measures board power with a TI INA219 current/voltage monitor
and explicitly compensates temperature-induced drift by comparing every
measurement against the baseline model's power *at the corresponding
timestamp* (Sec. IV).  This module reproduces that measurement
pipeline:

* the sensor samples a piecewise-constant power trace at a fixed
  conversion period,
* quantizes each sample to the sensor's power LSB,
* adds zero-mean Gaussian measurement noise, and
* optionally super-imposes a slow, deterministic thermal drift -- the
  disturbance the paper's differential methodology exists to cancel.

:func:`differential_energy` implements that methodology: measure the
trace of interest and the baseline trace under the *same* drift
process and report drift-cancelled values.  The unit tests demonstrate
that absolute readings are biased under drift while differential
readings are not.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import PowerModelError, SensorReadError
from .energy import EnergyInterval


@dataclass(frozen=True)
class INA219Config:
    """Sensor configuration.

    Attributes:
        sample_period_s: conversion period; the INA219's 12-bit ADC in
            continuous shunt+bus mode produces a sample roughly every
            1 ms with default averaging.
        power_lsb_w: power register LSB.  With a 0.1 ohm shunt and the
            usual calibration this lands near 2 mW per bit; we default
            to a finer 0.5 mW to reflect the paper's tuned calibration.
        noise_std_w: standard deviation of the additive measurement
            noise.
        drift_amplitude_w: amplitude of the thermal drift component.
        drift_period_s: period of the (slow) thermal drift oscillation.
        seed: RNG seed so measurements are reproducible.
    """

    sample_period_s: float = 1e-3
    power_lsb_w: float = 0.5e-3
    noise_std_w: float = 1.0e-3
    drift_amplitude_w: float = 0.0
    drift_period_s: float = 120.0
    seed: int = 0x1219

    def __post_init__(self) -> None:
        if self.sample_period_s <= 0:
            raise PowerModelError("sample_period_s must be > 0")
        if self.power_lsb_w <= 0:
            raise PowerModelError("power_lsb_w must be > 0")
        if self.noise_std_w < 0 or self.drift_amplitude_w < 0:
            raise PowerModelError("noise/drift magnitudes must be >= 0")


@dataclass(frozen=True)
class PowerSample:
    """One sensor reading.

    Attributes:
        time_s: absolute sample timestamp.
        power_w: quantized, noisy power reading.
        duration_s: trace time this sample accounts for.  Full samples
            cover one conversion period; the final sample of a trace
            whose duration is not a period multiple covers only the
            remaining tail.  ``None`` (legacy) means one full period.
    """

    time_s: float
    power_w: float
    duration_s: float | None = None


class INA219Sensor:
    """Samples piecewise-constant power traces like the real sensor.

    Args:
        config: sensor configuration.
        seed: overrides ``config.seed`` as the noise-stream seed.
            Accepts anything :func:`numpy.random.default_rng` does --
            in particular a :class:`numpy.random.SeedSequence`, which
            is how the fleet hands every device its own independent
            child stream instead of N sensors all replaying the one
            default-seeded sequence.  The override is remembered, so
            :meth:`reset` restores *this* device's stream.
        fault_clock: optional fault-decision source (an object with
            ``sensor_nack()`` / ``sensor_stuck()`` / ``sensor_dropout()``
            hooks, see :class:`repro.faults.plan.FaultClock`).  With
            ``None`` (the default) every reading is byte-identical to
            the fault-free sensor.  Faults model the three INA219
            failure modes seen in the field: the I2C transaction NACKs
            (whole read lost, :class:`~repro.errors.SensorReadError`),
            the power register freezes (every sample of the train
            repeats the first conversion), and individual conversions
            are dropped (gaps in the train; energy estimation weights
            by covered duration, so consumers see reduced coverage
            rather than silently biased energy).
    """

    def __init__(
        self,
        config: INA219Config | None = None,
        seed=None,
        fault_clock=None,
    ):
        self.config = config or INA219Config()
        self._seed = self.config.seed if seed is None else seed
        self._rng = np.random.default_rng(self._seed)
        self.fault_clock = fault_clock

    def reset(self) -> None:
        """Re-seed the noise generator (drift is deterministic in time)."""
        self._rng = np.random.default_rng(self._seed)

    def _drift(self, time_s: float) -> float:
        cfg = self.config
        if cfg.drift_amplitude_w == 0.0:
            return 0.0
        return cfg.drift_amplitude_w * math.sin(
            2.0 * math.pi * time_s / cfg.drift_period_s
        )

    def measure(
        self,
        trace: Sequence[EnergyInterval] | Sequence[Tuple[float, float]],
        start_time_s: float = 0.0,
    ) -> List[PowerSample]:
        """Sample a power trace.

        Args:
            trace: ordered piecewise-constant power intervals, either
                :class:`EnergyInterval` objects or plain
                ``(duration_s, power_w)`` pairs (the governor's priced
                window hands over pairs; the reading is identical).
            start_time_s: absolute time at which the trace begins; the
                thermal drift is a function of absolute time, so two
                traces measured at different times see different drift.

        Returns:
            One :class:`PowerSample` per conversion period.  Each
            reading is the trace's average power over the conversion
            window (the ADC integrates over the window, it does not
            point-sample), quantized and noisy, timestamped at the
            window midpoint.  A trace whose total duration is not a
            multiple of the period gets one final clamped sample
            covering (and weighted by, via ``duration_s``) only the
            remaining tail, so no trace time is silently dropped.

        Raises:
            SensorReadError: when the fault clock NACKs the I2C
                transaction (the whole read is lost; callers decide
                whether to retry, skip the epoch or quarantine).
        """
        fault = self.fault_clock
        if fault is not None and fault.sensor_nack():
            raise SensorReadError(
                "INA219 read failed: I2C transaction NACKed"
            )
        stuck = fault is not None and fault.sensor_stuck()
        stuck_power: float | None = None
        cfg = self.config
        if trace and isinstance(trace[0], EnergyInterval):
            trace = [(iv.duration_s, iv.power_w) for iv in trace]
        durations = [d for d, _ in trace]
        powers = [p for _, p in trace]
        total = sum(durations)
        # Ceil with an epsilon so an exact multiple of the period does
        # not grow a phantom sample out of float dust (0.05 / 1e-3 is
        # 50.000000000000007 in binary floats).
        n_samples = max(1, math.ceil(total / cfg.sample_period_s - 1e-9))
        samples: List[PowerSample] = []
        # Cumulative boundaries and energies (left folds, in trace
        # order) so each conversion window can integrate the trace in
        # O(1) amortized.
        boundaries = list(accumulate(durations, initial=0.0))[1:]
        prefix_energy = list(
            accumulate(map(mul, durations, powers), initial=0.0)
        )
        last = len(boundaries) - 1
        idx = 0

        def energy_to(t: float) -> float:
            """Trace energy over [0, t] (t never decreases across calls)."""
            nonlocal idx
            if idx < last:
                # First interval ending at or after t.
                idx = min(bisect_left(boundaries, t, idx), last)
            start = boundaries[idx - 1] if idx else 0.0
            power = powers[idx] if powers else 0.0
            return prefix_energy[idx] + (t - start) * power

        # One batched draw is the same stream as n scalar draws (and
        # leaves the generator in the same state).
        noise = self._rng.normal(0.0, cfg.noise_std_w, size=n_samples).tolist()
        window_energy = 0.0
        for k in range(n_samples):
            window_start = k * cfg.sample_period_s
            duration = min(cfg.sample_period_s, max(0.0, total - window_start))
            t_rel = min(window_start + 0.5 * duration, total)
            window_end_energy = energy_to(min(window_start + duration, total))
            # The ADC integrates the shunt voltage over the conversion
            # window, so the true reading is the window-average power,
            # not the instantaneous power at one point -- point
            # sampling aliases against DAE traces whose LFO/HFO phase
            # alternation is commensurate with the period.
            if duration > 0:
                true_power = (window_end_energy - window_energy) / duration
            else:
                true_power = powers[idx] if powers else 0.0
            window_energy = window_end_energy
            raw = (
                true_power
                + self._drift(start_time_s + t_rel)
                + noise[k]
            )
            quantized = round(raw / cfg.power_lsb_w) * cfg.power_lsb_w
            # Fault hooks run after the noise draw so the underlying
            # noise stream is identical with and without faults.
            if fault is not None and fault.sensor_dropout():
                continue  # conversion lost: a gap in the train
            power = max(0.0, quantized)
            if stuck:
                if stuck_power is None:
                    stuck_power = power  # register froze on this value
                else:
                    power = stuck_power
            samples.append(
                PowerSample(
                    time_s=start_time_s + t_rel,
                    power_w=power,
                    duration_s=duration,
                )
            )
        return samples

    def covered_duration_s(self, samples: Sequence[PowerSample]) -> float:
        """Trace time a sample train accounts for."""
        return sum(
            s.duration_s if s.duration_s is not None else self.config.sample_period_s
            for s in samples
        )

    def estimate_energy(self, samples: Sequence[PowerSample]) -> float:
        """Rectangle-rule energy estimate from a sample train.

        Each sample is weighted by the trace time it covers, so the
        final clamped sample of a non-aligned trace contributes its
        true tail duration rather than a full conversion period.
        """
        period = self.config.sample_period_s
        return sum(
            s.power_w * (s.duration_s if s.duration_s is not None else period)
            for s in samples
        )

    def estimate_average_power(self, samples: Sequence[PowerSample]) -> float:
        """Mean of the sample train (0.0 when empty)."""
        if not samples:
            return 0.0
        return sum(s.power_w for s in samples) / len(samples)


def differential_energy(
    sensor: INA219Sensor,
    trace: Sequence[EnergyInterval],
    baseline_trace: Sequence[EnergyInterval],
    baseline_true_energy_j: float,
    start_time_s: float = 0.0,
) -> float:
    """Drift-compensated energy estimate (the paper's methodology).

    Both the trace under test and the baseline trace are measured under
    the same thermal-drift process at the same absolute timestamps.
    The drift bias estimated on the baseline (measured minus known
    baseline energy, rated over the measured duration) is subtracted
    from the measurement of the trace under test.

    Args:
        sensor: the sensor (its drift applies to both measurements).
        trace: power trace under test.
        baseline_trace: power trace of the baseline input model.
        baseline_true_energy_j: the baseline's known reference energy.
        start_time_s: absolute start time of both measurements.

    Returns:
        The drift-compensated energy estimate for ``trace`` in joules.
    """
    test_samples = sensor.measure(trace, start_time_s=start_time_s)
    base_samples = sensor.measure(baseline_trace, start_time_s=start_time_s)
    base_duration = sensor.covered_duration_s(base_samples)
    if base_duration == 0.0:
        return sensor.estimate_energy(test_samples)
    base_measured = sensor.estimate_energy(base_samples)
    drift_power_bias = (base_measured - baseline_true_energy_j) / base_duration
    test_duration = sensor.covered_duration_s(test_samples)
    return sensor.estimate_energy(test_samples) - drift_power_bias * test_duration
