"""Ambient environment cycles for long-horizon scenarios.

The thermal model (:mod:`repro.power.thermal`) and the INA219 drift
term (:mod:`repro.power.sensor`) both respond to slow environmental
change: ambient temperature shifts the leakage operating point (and
with it the governor's thermal pick-flips), while the sensor's
deterministic drift sinusoid models shunt/reference drift over the
day.  :class:`AmbientCycle` supplies the shared forcing function --
a sinusoid plus optional heat-wave windows -- that the engine samples
once per tick and pushes into every device's thermal model via
:meth:`~repro.fleet.governor.DeviceState.set_ambient`.

An amplitude-zero cycle with no waves is exactly "no environment":
``delta_at`` returns 0.0 everywhere and the engine skips the
``set_ambient`` call entirely, keeping the zero-event scenario
bit-identical to the plain fleet path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from ..errors import ReproError
from .arrivals import DAY_S


@dataclass(frozen=True)
class AmbientCycle:
    """Deterministic ambient-temperature forcing.

    The offset applied to every device's calibrated ambient at time
    ``t`` is::

        delta(t) = amplitude_c * sin(2 * pi * (t - phase_s) / period_s)
                   + sum(extra_c for waves covering t)

    Attributes:
        amplitude_c: half swing of the daily sinusoid (0 = flat).
        period_s: cycle length (a simulated day by default).
        phase_s: time of the rising zero-crossing; the default puts
            the peak at mid-afternoon of a cycle starting at midnight.
        waves: ``(start_s, end_s, extra_c)`` heat-wave (or cold-snap,
            with negative ``extra_c``) windows added on top.
    """

    amplitude_c: float = 0.0
    period_s: float = DAY_S
    phase_s: float = DAY_S * 0.375
    waves: Tuple[Tuple[float, float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.amplitude_c < 0:
            raise ReproError("amplitude_c must be >= 0")
        if self.period_s <= 0:
            raise ReproError("period_s must be positive")
        for start_s, end_s, _extra in self.waves:
            if not end_s > start_s:
                raise ReproError("wave end must exceed start")
        object.__setattr__(self, "waves", tuple(sorted(self.waves)))

    @property
    def is_flat(self) -> bool:
        """True when ``delta_at`` is identically zero."""
        return self.amplitude_c == 0.0 and not any(
            extra != 0.0 for _s, _e, extra in self.waves
        )

    def delta_at(self, t_s: float) -> float:
        """Ambient offset in degrees C at simulated time ``t_s``."""
        delta = self.amplitude_c * math.sin(
            2.0 * math.pi * (t_s - self.phase_s) / self.period_s
        )
        for start_s, end_s, extra_c in self.waves:
            if start_s <= t_s < end_s:
                delta += extra_c
        return delta

    def to_dict(self) -> Dict:
        """JSON-ready description (for scenario reports)."""
        return {
            "amplitude_c": self.amplitude_c,
            "period_s": self.period_s,
            "phase_s": self.phase_s,
            "waves": [list(w) for w in self.waves],
        }
