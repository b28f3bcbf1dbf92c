"""Parametric board power model for the STM32F767ZI Nucleo.

The paper measures whole-board power with an INA219 sensor.  We model
board power as a sum of physically-motivated terms:

    P = P_board_static + P_mcu_leakage
      + activity * k_core * f_SYSCLK          (core + bus dynamic power)
      + [PLL on]  * (P_pll_base + k_vco * f_VCO)
      + k_hse * f_HSE + [HSI on] * P_hsi      (oscillators)

The structure -- not just the constants -- is what reproduces the
paper's observations:

* **Fig. 2** (iso-frequency power gaps): two configurations with the
  same SYSCLK can require different VCO frequencies (e.g. via a
  different PLLP post-divider) or different oscillators; the
  ``k_vco * f_VCO`` term makes the faster-VCO alternative measurably
  more expensive, which is exactly why the paper fixes PLLP to its
  minimum and selects the minimum-power tuple per frequency.
* **LFO cheapness** (Sec. III-B): HSE-direct operation powers the PLL
  down entirely, so memory-bound segments parked at 50 MHz drop both
  the core-dynamic *and* the whole PLL/VCO term.
* **Idle vs. clock-gated idle** (Sec. IV baselines): plain idling keeps
  every clock running (low activity, full PLL term), while clock
  gating deactivates unused clocks and the voltage regulator, leaving
  only a small floor -- the gap that makes the TinyEngine+gating
  baseline competitive.
* **Voltage scaling** (the V of DVFS): the F7's regulator runs VOS
  scale 3 up to 144 MHz, scale 2 up to 168 MHz, scale 1 up to 180 MHz
  and needs over-drive for 216 MHz.  Dynamic power scales with
  V^2 * f, so energy per cycle is *U-shaped* in frequency: below the
  sweet spot the fixed terms dominate (leakage over longer runtimes),
  above it the voltage penalty does.  This is what gives each layer a
  genuine energy-optimal operating frequency and spreads the Fig. 6
  frequency distribution across the grid.

Default constants were calibrated once against the paper's reported
ratios (see ``tests/test_calibration.py``); they are deliberately easy
to override for sensitivity studies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..errors import PowerModelError
from ..clock.configs import ClockConfig, SysclkSource


class PowerState(enum.Enum):
    """Operating state of the MCU, determining the activity factor."""

    #: Core executing arithmetic (compute-bound segment).
    ACTIVE_COMPUTE = "active_compute"
    #: Core mostly stalled on memory (memory-bound segment).
    ACTIVE_MEMORY = "active_memory"
    #: WFI-style idle with all clocks running (TinyEngine baseline idle).
    IDLE = "idle"
    #: Clock-gated idle: unused clocks and the regulator deactivated.
    IDLE_GATED = "idle_gated"
    #: STOP-mode deep sleep: SRAM retained, everything else off.
    STOP = "stop"
    #: Stalled while a clock switch (PLL re-lock) completes.
    SWITCHING = "switching"
    #: A layer running on an NPU offload engine.  Priced by the board's
    #: :class:`~repro.mcu.npu.NPUModel`, not by this model: the NPU has
    #: its own clock domain and its power does not track the SYSCLK, so
    #: :meth:`BoardPowerModel.power` rejects this state.
    NPU_ACTIVE = "npu_active"


@dataclass(frozen=True)
class PowerModelParams:
    """Constants of the board power model.

    Attributes:
        p_board_static_w: board overhead that never goes away (LDO,
            ST-LINK, pull-ups).
        p_mcu_leakage_w: MCU leakage while powered (not gated).
        k_core_w_per_hz: core+bus dynamic power per SYSCLK hertz at
            activity 1.0.
        p_pll_base_w: fixed cost of keeping the PLL block powered.
        k_vco_w_per_hz: VCO dynamic power per hertz of VCO frequency --
            the term behind the Fig. 2 iso-frequency gaps.
        k_hse_w_per_hz: HSE oscillator/driver power per hertz.
        p_hsi_w: HSI RC oscillator power when enabled (higher than the
            HSE's, which is why the paper excludes the HSI).
        activity_compute: activity factor of compute-bound execution.
        activity_memory: activity factor while stalled on memory.
        activity_idle: activity factor of WFI idle (clocks still toggle
            the bus matrix and peripherals).
        activity_switching: activity factor while stalled in a clock
            switch.
        p_gated_w: total board power in the clock-gated idle state
            (replaces every MCU term; board static remains).
        p_stop_w: MCU power in STOP-mode deep sleep (SRAM retention
            only; board static remains).
        stop_wakeup_s: latency to wake from STOP mode (regulator and
            oscillator restart, before any PLL re-lock).
        vos_steps: ((max_sysclk_hz, core_voltage_v), ...) regulator
            steps, ascending; the runtime programs the lowest scale
            that supports the target SYSCLK (RM0410 VOS scales plus
            over-drive for 216 MHz).
        v_ref: voltage at which the ``k_*`` dynamic constants were
            calibrated; dynamic power scales with ``(V/v_ref)^2``.
    """

    p_board_static_w: float = 0.020
    p_mcu_leakage_w: float = 0.008
    k_core_w_per_hz: float = 1.0e-9
    p_pll_base_w: float = 0.010
    k_vco_w_per_hz: float = 3.5e-10
    k_hse_w_per_hz: float = 1.0e-10
    p_hsi_w: float = 0.019
    activity_compute: float = 1.0
    activity_memory: float = 0.42
    activity_idle: float = 0.18
    activity_switching: float = 0.20
    p_gated_w: float = 0.012
    p_stop_w: float = 0.0015
    stop_wakeup_s: float = 110e-6
    vos_steps: Tuple[Tuple[float, float], ...] = (
        (96e6, 1.08),
        (144e6, 1.20),
        (168e6, 1.23),
        (180e6, 1.26),
        (216e6, 1.32),
    )
    v_ref: float = 1.32

    def __post_init__(self) -> None:
        for name in (
            "p_board_static_w",
            "p_mcu_leakage_w",
            "k_core_w_per_hz",
            "p_pll_base_w",
            "k_vco_w_per_hz",
            "k_hse_w_per_hz",
            "p_hsi_w",
            "p_gated_w",
            "p_stop_w",
            "stop_wakeup_s",
        ):
            if getattr(self, name) < 0:
                raise PowerModelError(f"{name} must be >= 0")
        for name in (
            "activity_compute",
            "activity_memory",
            "activity_idle",
            "activity_switching",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise PowerModelError(f"{name} must be in [0, 1], got {value}")
        if not self.vos_steps:
            raise PowerModelError("vos_steps must not be empty")
        if self.v_ref <= 0:
            raise PowerModelError("v_ref must be positive")
        previous = 0.0
        for max_hz, volts in self.vos_steps:
            if max_hz <= previous:
                raise PowerModelError("vos_steps must ascend in frequency")
            if volts <= 0:
                raise PowerModelError("vos voltages must be positive")
            previous = max_hz

    def scaled(self, **overrides: float) -> "PowerModelParams":
        """Return a copy with some constants replaced (for sweeps)."""
        return replace(self, **overrides)

    def core_voltage(self, sysclk_hz: float) -> float:
        """Regulator voltage programmed for a given SYSCLK.

        The lowest VOS scale whose frequency ceiling covers the target;
        frequencies beyond the last step raise, mirroring hardware that
        simply cannot clock that fast.

        Raises:
            PowerModelError: if the frequency exceeds every VOS step.
        """
        for max_hz, volts in self.vos_steps:
            if sysclk_hz <= max_hz:
                return volts
        raise PowerModelError(
            f"SYSCLK {sysclk_hz / 1e6:.1f} MHz exceeds every VOS step"
        )

    def dynamic_scale(self, sysclk_hz: float) -> float:
        """``(V/V_ref)^2`` factor applied to the dynamic power terms."""
        v = self.core_voltage(sysclk_hz)
        return (v / self.v_ref) ** 2


class BoardPowerModel:
    """Maps (clock configuration, power state) to board power in watts."""

    def __init__(self, params: Optional[PowerModelParams] = None):
        self.params = params or PowerModelParams()
        self._memo: Tuple[Optional[PowerModelParams], dict] = (None, {})

    # -- state-specific helpers -------------------------------------------

    def power(self, config: ClockConfig, state: PowerState) -> float:
        """Board power for ``config`` in ``state``.

        The clock-gated state ignores the configuration: gating shuts
        the clock tree down regardless of what it was running.

        Memoized per ``(config, state)``: the design space holds a few
        dozen such pairs while a schedule prices thousands of
        intervals.  Replacing :attr:`params` drops the memo.
        """
        if state is PowerState.NPU_ACTIVE:
            raise PowerModelError(
                "NPU intervals are priced by the board's NPUModel, not "
                "the SYSCLK power model"
            )
        p = self.params
        filled_under, memo = self._memo
        if filled_under is not p:
            memo = {}
            self._memo = (p, memo)
        key = (config, state)
        watts = memo.get(key)
        if watts is None:
            watts = memo[key] = self._power(p, config, state)
        return watts

    @staticmethod
    def _power(
        p: PowerModelParams, config: ClockConfig, state: PowerState
    ) -> float:
        if state is PowerState.IDLE_GATED:
            return p.p_board_static_w + p.p_gated_w
        if state is PowerState.STOP:
            return p.p_board_static_w + p.p_stop_w
        activity = {
            PowerState.ACTIVE_COMPUTE: p.activity_compute,
            PowerState.ACTIVE_MEMORY: p.activity_memory,
            PowerState.IDLE: p.activity_idle,
            PowerState.SWITCHING: p.activity_switching,
        }[state]
        v2 = p.dynamic_scale(config.sysclk_hz)
        total = p.p_board_static_w + p.p_mcu_leakage_w
        total += activity * p.k_core_w_per_hz * config.sysclk_hz * v2
        if config.uses_pll:
            # The PLL/VCO dynamic current also rides the core rail, so
            # the same V^2 factor applies (approximation: the regulator
            # scale is chosen by the SYSCLK this PLL produces).
            total += p.p_pll_base_w + p.k_vco_w_per_hz * config.vco_hz * v2
        if config.source is SysclkSource.HSI:
            total += p.p_hsi_w
        else:
            total += p.k_hse_w_per_hz * config.hse_hz
        return total

    def active_power(self, config: ClockConfig) -> float:
        """Compute-bound board power (the Fig. 2 measurement point)."""
        return self.power(config, PowerState.ACTIVE_COMPUTE)

    def memory_power(self, config: ClockConfig) -> float:
        """Board power while stalled on memory."""
        return self.power(config, PowerState.ACTIVE_MEMORY)

    def idle_power(self, config: ClockConfig) -> float:
        """WFI idle power with all clocks running."""
        return self.power(config, PowerState.IDLE)

    def gated_power(self) -> float:
        """Clock-gated idle power (configuration independent)."""
        return self.power_gated()

    def power_gated(self) -> float:
        """Alias kept for symmetry with the other state helpers."""
        return self.params.p_board_static_w + self.params.p_gated_w

    def stop_power(self) -> float:
        """STOP-mode deep-sleep power (configuration independent)."""
        return self.params.p_board_static_w + self.params.p_stop_w

    def switching_power(self, config: ClockConfig) -> float:
        """Power while stalled waiting for a clock switch.

        The PLL term is charged because during a re-lock the PLL block
        is powered and hunting for lock.
        """
        return self.power(config, PowerState.SWITCHING)
