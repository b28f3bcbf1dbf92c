"""Clock configurations: the (source, HSE, PLLM, PLLN, PLLP) tuples.

A :class:`ClockConfig` is the unit of the DVFS design space.  It fully
determines the SYSCLK frequency (Eq. 1) and -- together with the power
model -- the board power.  The paper's central observation about this
space (Fig. 2) is that *iso-frequency* configurations can differ widely
in power because power tracks the VCO frequency and oscillator choice,
not just the SYSCLK output; helpers here enumerate legal
configurations, group them by output frequency and pick the
minimum-power representative per frequency.

Two named operating modes from Sec. III-B:

* :func:`lfo_config` -- Low Frequency Operation: SYSCLK driven directly
  by the HSE at 50 MHz (PLL bypassed), used for memory-bound segments.
* :func:`hfo_grid` -- High Frequency Operation: the PLL grid explored by
  the paper, PLLN in {75, 100, 150, 168, 216, 336, 432} and PLLM in
  {25, 50} with PLLP = 2 on a 50 MHz HSE.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, TYPE_CHECKING

from ..errors import ClockConfigError
from ..units import MHZ
from .limits import ClockTreeLimits, resolve_limits
from .pll import PLLSettings, SYSCLK_MAX_HZ
from .sources import HSE_MAX_HZ, HSE_MIN_HZ, HSI_FREQUENCY_HZ

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..power.model import BoardPowerModel


class SysclkSource(enum.Enum):
    """Which output the SYSCLK mux selects."""

    HSI = "hsi"
    HSE = "hse"
    PLL = "pll"


#: Paper HFO exploration grid (Sec. III-B).
PAPER_PLLN_VALUES = (75, 100, 150, 168, 216, 336, 432)
PAPER_PLLM_VALUES = (25, 50)
PAPER_HSE_HZ = 50 * MHZ
PAPER_LFO_HZ = 50 * MHZ


@dataclass(frozen=True, eq=False)
class ClockConfig:
    """A complete, legal SYSCLK configuration.

    Configs are immutable and serve as keys in every pricing cache, so
    equality/hash are hand-rolled: the hash is computed once at
    construction and ``==`` short-circuits on identity (design spaces
    hand the same instances to every consumer, making the common
    comparison an ``is`` check instead of a field-tuple walk).

    Attributes:
        source: SYSCLK mux selection.
        hse_hz: HSE oscillator frequency (used directly when
            ``source == HSE`` and as the PLL input when ``source ==
            PLL``; the HSI path uses the fixed internal 16 MHz).
        pll: PLL settings; required iff ``source == PLL``.
        limits: clock-tree constraints of the part this config targets.
            ``None`` (the default) means the STM32F7 constants, and is
            what every F767 code path passes; non-F7 boards supply their
            own.  The limits participate in equality/hash so configs of
            different parts never collide in pricing caches (two boards'
            "HSI direct" configs are *different* operating points).
    """

    source: SysclkSource
    hse_hz: float = PAPER_HSE_HZ
    pll: Optional[PLLSettings] = None
    limits: Optional[ClockTreeLimits] = None

    def __post_init__(self) -> None:
        lim = resolve_limits(self.limits)
        if self.source is SysclkSource.PLL:
            if self.pll is None:
                raise ClockConfigError("PLL-sourced config requires PLL settings")
            self.pll.validate_for_input(self._pll_input_hz())
        elif self.pll is not None:
            raise ClockConfigError(
                f"{self.source.value}-sourced config must not carry PLL settings"
            )
        if self.source is not SysclkSource.HSI:
            if not lim.hse_min_hz <= self.hse_hz <= lim.hse_max_hz:
                raise ClockConfigError(
                    f"HSE frequency {self.hse_hz / MHZ:.3f} MHz outside "
                    f"[{lim.hse_min_hz / MHZ:.0f}, {lim.hse_max_hz / MHZ:.0f}] MHz"
                )
        key = (self.source, self.hse_hz, self.pll, self.limits)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        # Eq. 1 is evaluated once here: pricing reads these per interval.
        if self.source is SysclkSource.HSI:
            sysclk, vco = lim.hsi_hz, 0.0
        elif self.source is SysclkSource.HSE:
            sysclk, vco = self.hse_hz, 0.0
        else:
            hz = self._pll_input_hz()
            sysclk, vco = self.pll.sysclk_hz(hz), self.pll.vco_output_hz(hz)
        object.__setattr__(self, "_sysclk_hz", sysclk)
        object.__setattr__(self, "_vco_hz", vco)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ClockConfig):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def _pll_input_hz(self) -> float:
        return self.hse_hz

    @property
    def sysclk_hz(self) -> float:
        """The SYSCLK frequency this configuration produces."""
        return self._sysclk_hz

    @property
    def vco_hz(self) -> float:
        """VCO output frequency (0.0 when the PLL is not used).

        The VCO frequency is the dominant PLL power term (Fig. 2): two
        configs with identical SYSCLK but different VCO frequencies draw
        visibly different power.
        """
        return self._vco_hz

    @property
    def uses_pll(self) -> bool:
        """Whether the PLL must be running for this configuration."""
        return self.source is SysclkSource.PLL

    def describe(self) -> str:
        """Human-readable one-liner, e.g. for benchmark tables."""
        if self.source is SysclkSource.HSI:
            return f"HSI @ {self.sysclk_hz / MHZ:.0f} MHz"
        if self.source is SysclkSource.HSE:
            return f"HSE @ {self.sysclk_hz / MHZ:.0f} MHz"
        assert self.pll is not None
        return (
            f"PLL(HSE={self.hse_hz / MHZ:.0f}, M={self.pll.pllm}, "
            f"N={self.pll.plln}, P={self.pll.pllp}) @ "
            f"{self.sysclk_hz / MHZ:.0f} MHz (VCO {self.vco_hz / MHZ:.0f} MHz)"
        )


def lfo_config(
    hse_hz: float = PAPER_LFO_HZ, limits: Optional[ClockTreeLimits] = None
) -> ClockConfig:
    """The Low Frequency Operation config: HSE direct to SYSCLK."""
    return ClockConfig(source=SysclkSource.HSE, hse_hz=hse_hz, limits=limits)


def hsi_config(limits: Optional[ClockTreeLimits] = None) -> ClockConfig:
    """The CSS failsafe config: internal HSI direct to SYSCLK.

    This is where the Clock Security System parks the core when the HSE
    fails: the HSI needs no external components, so it is always
    available -- slow and jittery, but alive.  The F767's HSI runs at
    16 MHz; other parts' limits carry their own frequency.
    """
    return ClockConfig(source=SysclkSource.HSI, limits=limits)


def pll_config(
    hse_hz: float,
    pllm: int,
    plln: int,
    pllp: int = 2,
    limits: Optional[ClockTreeLimits] = None,
) -> ClockConfig:
    """Build and validate a PLL-sourced configuration.

    Raises:
        ClockConfigError: if any divider or derived frequency is illegal.
    """
    return ClockConfig(
        source=SysclkSource.PLL,
        hse_hz=hse_hz,
        pll=PLLSettings(pllm=pllm, plln=plln, pllp=pllp, limits=limits),
        limits=limits,
    )


def hfo_grid(
    hse_hz: float = PAPER_HSE_HZ,
    plln_values: Sequence[int] = PAPER_PLLN_VALUES,
    pllm_values: Sequence[int] = PAPER_PLLM_VALUES,
    pllp: int = 2,
    limits: Optional[ClockTreeLimits] = None,
) -> List[ClockConfig]:
    """Enumerate the paper's HFO grid, dropping illegal combinations.

    Combinations whose VCO input/output or SYSCLK violate hardware
    limits (e.g. PLLM=25, PLLN=336 on a 50 MHz HSE, whose VCO would run
    at 672 MHz) are silently skipped, exactly as a real firmware
    exploration would refuse to program them.
    """
    grid: List[ClockConfig] = []
    for pllm in pllm_values:
        for plln in plln_values:
            try:
                grid.append(pll_config(hse_hz, pllm, plln, pllp, limits=limits))
            except ClockConfigError:
                continue
    return grid


def enumerate_configs(
    hse_choices: Sequence[float],
    pllm_choices: Sequence[int],
    plln_choices: Sequence[int],
    pllp: int = 2,
    include_hse_direct: bool = True,
) -> List[ClockConfig]:
    """Enumerate all legal configurations over the given parameter axes.

    Used by the Fig. 2 microbenchmark to sweep (HSE, PLLM, PLLN) with
    PLLP fixed to 2 -- the minimum divider, which the paper fixes
    because a larger PLLP forces a proportionally faster (hence more
    power-hungry) VCO for the same SYSCLK.
    """
    configs: List[ClockConfig] = []
    for hse_hz in hse_choices:
        if include_hse_direct:
            try:
                configs.append(lfo_config(hse_hz))
            except ClockConfigError:
                pass
        for pllm in pllm_choices:
            for plln in plln_choices:
                try:
                    configs.append(pll_config(hse_hz, pllm, plln, pllp))
                except ClockConfigError:
                    continue
    return configs


def iso_frequency_groups(
    configs: Iterable[ClockConfig], tolerance_hz: float = 1.0
) -> Dict[float, List[ClockConfig]]:
    """Group configurations by (rounded) SYSCLK output frequency.

    Returns a dict mapping the representative frequency to every config
    that produces it, enabling the paper's iso-frequency power
    comparison (Fig. 2).
    """
    groups: Dict[float, List[ClockConfig]] = {}
    for config in configs:
        placed = False
        for key in groups:
            if abs(key - config.sysclk_hz) <= tolerance_hz:
                groups[key].append(config)
                placed = True
                break
        if not placed:
            groups[config.sysclk_hz] = [config]
    return groups


def min_power_config(
    configs: Sequence[ClockConfig],
    power_model: "BoardPowerModel",
    target_hz: float,
    tolerance_hz: float = 1.0,
) -> ClockConfig:
    """Pick the minimum-power configuration producing ``target_hz``.

    This is the per-frequency selection rule of Sec. II-A: among all
    iso-frequency alternatives, keep the one with the lowest active
    power.  Ties (identical power) are broken deterministically by the
    lexicographic description, matching the paper's remark that some
    combinations are power-equivalent and need a consistent choice.

    Raises:
        ClockConfigError: if no candidate produces the target frequency.
    """
    candidates = [
        c for c in configs if abs(c.sysclk_hz - target_hz) <= tolerance_hz
    ]
    if not candidates:
        raise ClockConfigError(
            f"no configuration produces {target_hz / MHZ:.1f} MHz"
        )
    return min(
        candidates,
        key=lambda c: (power_model.active_power(c), c.describe()),
    )


def max_performance_config(hse_hz: float = PAPER_HSE_HZ) -> ClockConfig:
    """The 216 MHz flat-out configuration used by the TinyEngine baseline.

    Chooses the lowest-VCO (hence lowest-power) way to hit the part's
    maximum SYSCLK from the given HSE.
    """
    grid = hfo_grid(hse_hz=hse_hz)
    top = [c for c in grid if abs(c.sysclk_hz - SYSCLK_MAX_HZ) <= 1.0]
    if not top:
        raise ClockConfigError(
            f"HFO grid from HSE {hse_hz / MHZ:.0f} MHz cannot reach 216 MHz"
        )
    return min(top, key=lambda c: c.vco_hz)
