"""Seeded arrival-trace generators for the scenario engine.

An arrival model answers one question per device per tick: how many
QoS-window trains does this device want to run in ``[t, t + tick_s)``?
The engine treats any positive answer as one active telemetry epoch
(the governor's unit of supervision) and records the raw demand, so
overload shows up as deferred work rather than silently dropped
arrivals.

Three generator families, per the evaluation scenarios the paper's
deployment setting implies:

* :class:`DiurnalArrivals` -- a sinusoid-modulated Poisson process
  (day/night traffic);
* :class:`PoissonBurstArrivals` -- a base Poisson rate with scheduled
  burst windows multiplying it (flash crowds);
* :class:`TimetableArrivals` -- a replayed open-loop timetable using
  exactly the load generator's dispatch arithmetic (event *i* fires at
  ``i / rate``, round-robined over the fleet), so a serve-tier load
  test can be re-run against the fleet simulator event-for-event.

Every stochastic generator owns one spawned RNG stream per device
(``SeedSequence(seed, spawn_key=(device_id,))``), so the draw sequence
of one device never shifts another's.  The engine queries devices in
sorted id order, tick by tick; generators are deterministic under that
(and any per-device-monotone) calling discipline.  The scenario engine
draws from its own copy of the configured model, reset to fresh
streams, and checkpoints them through :meth:`ArrivalModel.streams`;
a run never advances the streams of the config it was built from.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError

#: Seconds per simulated day (the default diurnal period).
DAY_S = 86400.0


class ArrivalModel:
    """Interface: per-device window demand over one tick."""

    def windows_at(
        self, device_id: int, t_s: float, tick_s: float
    ) -> int:
        """Window trains device ``device_id`` wants in
        ``[t_s, t_s + tick_s)``."""
        raise NotImplementedError

    def describe(self) -> Dict:
        """JSON-ready self-description (for scenario reports)."""
        raise NotImplementedError

    def streams(self) -> List["_SeededPerDevice"]:
        """The per-device RNG streams this model draws from, in a
        fixed order (none for deterministic models)."""
        return []


class ConstantArrivals(ArrivalModel):
    """Every device runs a fixed number of trains every tick.

    ``windows_per_tick=1`` is the zero-event scenario's generator: the
    back-to-back epoch train the plain fleet path simulates, with no
    RNG consumed anywhere.
    """

    def __init__(self, windows_per_tick: int = 1):
        if windows_per_tick < 0:
            raise ReproError("windows_per_tick must be >= 0")
        self.windows_per_tick = windows_per_tick

    def windows_at(
        self, device_id: int, t_s: float, tick_s: float
    ) -> int:
        return self.windows_per_tick

    def describe(self) -> Dict:
        return {
            "kind": "constant",
            "windows_per_tick": self.windows_per_tick,
        }


class _SeededPerDevice:
    """Lazily-spawned independent per-device RNG streams."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rngs: Dict[int, np.random.Generator] = {}

    def reset(self) -> None:
        """Forget every consumed stream (the next draw starts fresh)."""
        self._rngs = {}

    def states(self) -> Dict[int, Dict]:
        """Bit-generator state of every spawned stream, by device."""
        return {
            device_id: rng.bit_generator.state
            for device_id, rng in self._rngs.items()
        }

    def restore(self, states: Dict[int, Dict]) -> None:
        """Reset, then continue each device's stream from ``states``."""
        self.reset()
        for device_id, state in states.items():
            self.rng_for(device_id).bit_generator.state = state

    def rng_for(self, device_id: int) -> np.random.Generator:
        rng = self._rngs.get(device_id)
        if rng is None:
            rng = np.random.default_rng(
                np.random.SeedSequence(
                    entropy=self.seed, spawn_key=(device_id,)
                )
            )
            self._rngs[device_id] = rng
        return rng


class DiurnalArrivals(ArrivalModel):
    """Sinusoid-modulated Poisson arrivals (day/night traffic).

    The per-device rate at time ``t`` is::

        rate(t) = mean_per_hour / 3600 * (1 + amplitude * sin(
            2 * pi * (t - phase_s) / period_s))

    floored at zero; each device draws its tick's window count from a
    Poisson with mean ``rate(t) * tick_s`` on its own seeded stream.

    Args:
        mean_per_hour: average window trains per device-hour.
        amplitude: relative swing of the sinusoid (0 = flat Poisson,
            1 = full on/off day cycle).
        period_s: cycle length (a simulated day by default).
        phase_s: time of the rising zero-crossing.
        seed: root of the per-device streams.
    """

    def __init__(
        self,
        mean_per_hour: float,
        amplitude: float = 0.8,
        period_s: float = DAY_S,
        phase_s: float = 0.0,
        seed: int = 0,
    ):
        if mean_per_hour < 0:
            raise ReproError("mean_per_hour must be >= 0")
        if not 0.0 <= amplitude <= 1.0:
            raise ReproError("amplitude must be in [0, 1]")
        if period_s <= 0:
            raise ReproError("period_s must be positive")
        self.mean_per_hour = mean_per_hour
        self.amplitude = amplitude
        self.period_s = period_s
        self.phase_s = phase_s
        self._streams = _SeededPerDevice(seed)

    def rate_at(self, t_s: float) -> float:
        """Instantaneous per-device rate (windows per second)."""
        swing = 1.0 + self.amplitude * math.sin(
            2.0 * math.pi * (t_s - self.phase_s) / self.period_s
        )
        return max(0.0, self.mean_per_hour / 3600.0 * swing)

    def windows_at(
        self, device_id: int, t_s: float, tick_s: float
    ) -> int:
        lam = self.rate_at(t_s) * tick_s
        if lam == 0.0:
            return 0
        return int(self._streams.rng_for(device_id).poisson(lam))

    def streams(self) -> List[_SeededPerDevice]:
        return [self._streams]

    def describe(self) -> Dict:
        return {
            "kind": "diurnal",
            "mean_per_hour": self.mean_per_hour,
            "amplitude": self.amplitude,
            "period_s": self.period_s,
            "phase_s": self.phase_s,
            "seed": self._streams.seed,
        }


class PoissonBurstArrivals(ArrivalModel):
    """Base Poisson arrivals with scheduled burst windows.

    Args:
        base_per_hour: average window trains per device-hour outside
            bursts.
        bursts: ``(start_s, end_s, multiplier)`` windows; inside one,
            the rate is multiplied (flash crowd).  Overlapping bursts
            compound multiplicatively.
        seed: root of the per-device streams.
    """

    def __init__(
        self,
        base_per_hour: float,
        bursts: Sequence[Tuple[float, float, float]] = (),
        seed: int = 0,
    ):
        if base_per_hour < 0:
            raise ReproError("base_per_hour must be >= 0")
        for start_s, end_s, mult in bursts:
            if not end_s > start_s:
                raise ReproError("burst end must exceed start")
            if mult < 0:
                raise ReproError("burst multiplier must be >= 0")
        self.base_per_hour = base_per_hour
        self.bursts: Tuple[Tuple[float, float, float], ...] = tuple(
            sorted(bursts)
        )
        self._streams = _SeededPerDevice(seed)

    def rate_at(self, t_s: float) -> float:
        """Instantaneous per-device rate (windows per second)."""
        rate = self.base_per_hour / 3600.0
        for start_s, end_s, mult in self.bursts:
            if start_s <= t_s < end_s:
                rate *= mult
        return rate

    def windows_at(
        self, device_id: int, t_s: float, tick_s: float
    ) -> int:
        lam = self.rate_at(t_s) * tick_s
        if lam == 0.0:
            return 0
        return int(self._streams.rng_for(device_id).poisson(lam))

    def streams(self) -> List[_SeededPerDevice]:
        return [self._streams]

    def describe(self) -> Dict:
        return {
            "kind": "poisson-burst",
            "base_per_hour": self.base_per_hour,
            "bursts": [list(b) for b in self.bursts],
            "seed": self._streams.seed,
        }


class TimetableArrivals(ArrivalModel):
    """Replayed open-loop timetable (the load generator's arithmetic).

    Event *i* of the timetable fires at ``start_s + i / rate_rps`` --
    the exact fixed-timetable dispatch the serve load generator uses
    (``t0 + i / arrival_rate_rps``), round-robined over ``devices``
    fleet slots exactly like the load generator round-robins clients.
    Deterministic with no RNG at all.

    Args:
        rate_rps: aggregate arrival rate of the timetable.
        devices: round-robin modulus (the fleet size the timetable was
            recorded for).
        total: events in the timetable (None = unbounded).
        start_s: dispatch time of event 0.
    """

    def __init__(
        self,
        rate_rps: float,
        devices: int,
        total: Optional[int] = None,
        start_s: float = 0.0,
    ):
        if rate_rps <= 0:
            raise ReproError("rate_rps must be positive")
        if devices < 1:
            raise ReproError("devices must be >= 1")
        if total is not None and total < 0:
            raise ReproError("total must be >= 0")
        self.rate_rps = rate_rps
        self.devices = devices
        self.total = total
        self.start_s = start_s

    def _events_in(self, t0: float, t1: float) -> range:
        """Timetable indices dispatched in ``[t0, t1)``."""
        lo = math.ceil((t0 - self.start_s) * self.rate_rps - 1e-9)
        hi = math.ceil((t1 - self.start_s) * self.rate_rps - 1e-9)
        lo = max(0, lo)
        hi = max(0, hi)
        if self.total is not None:
            lo = min(lo, self.total)
            hi = min(hi, self.total)
        return range(lo, hi)

    def windows_at(
        self, device_id: int, t_s: float, tick_s: float
    ) -> int:
        if device_id >= self.devices:
            # Churn growth beyond the recorded fleet: the timetable
            # has no slot for this device.
            return 0
        events = self._events_in(t_s, t_s + tick_s)
        if not len(events):
            return 0
        # Index i lands on device i % devices; count members of the
        # residue class inside [lo, hi).
        lo, hi = events.start, events.stop
        first = lo + (device_id - lo) % self.devices
        if first >= hi:
            return 0
        return (hi - 1 - first) // self.devices + 1

    def describe(self) -> Dict:
        return {
            "kind": "timetable",
            "rate_rps": self.rate_rps,
            "devices": self.devices,
            "total": self.total,
            "start_s": self.start_s,
        }


class CompositeArrivals(ArrivalModel):
    """Sum of independent arrival processes (e.g. diurnal + bursts)."""

    def __init__(self, parts: Sequence[ArrivalModel]):
        if not parts:
            raise ReproError("composite needs at least one part")
        self.parts: List[ArrivalModel] = list(parts)

    def windows_at(
        self, device_id: int, t_s: float, tick_s: float
    ) -> int:
        return sum(
            part.windows_at(device_id, t_s, tick_s)
            for part in self.parts
        )

    def streams(self) -> List[_SeededPerDevice]:
        return [s for part in self.parts for s in part.streams()]

    def describe(self) -> Dict:
        return {
            "kind": "composite",
            "parts": [part.describe() for part in self.parts],
        }
