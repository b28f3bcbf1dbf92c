"""Clock configurations: enumeration, grouping, selection rules."""

import pytest

from repro.clock import (
    ClockConfig,
    SysclkSource,
    enumerate_configs,
    hfo_grid,
    iso_frequency_groups,
    lfo_config,
    max_performance_config,
    min_power_config,
    pll_config,
)
from repro.boards import board_names, get_spec
from repro.clock.configs import PAPER_PLLM_VALUES, PAPER_PLLN_VALUES, hsi_config
from repro.clock.limits import resolve_limits
from repro.errors import ClockConfigError
from repro.power import BoardPowerModel
from repro.units import MHZ


class TestClockConfig:
    def test_hse_direct_sysclk(self):
        cfg = lfo_config()
        assert cfg.sysclk_hz == pytest.approx(50 * MHZ)
        assert cfg.source is SysclkSource.HSE
        assert not cfg.uses_pll
        assert cfg.vco_hz == 0.0

    def test_pll_config_sysclk_and_vco(self):
        cfg = pll_config(50 * MHZ, pllm=25, plln=216)
        assert cfg.sysclk_hz == pytest.approx(216 * MHZ)
        assert cfg.vco_hz == pytest.approx(432 * MHZ)
        assert cfg.uses_pll

    def test_pll_source_requires_settings(self):
        with pytest.raises(ClockConfigError):
            ClockConfig(source=SysclkSource.PLL, hse_hz=50 * MHZ)

    def test_hse_source_rejects_pll_settings(self):
        from repro.clock.pll import PLLSettings

        with pytest.raises(ClockConfigError):
            ClockConfig(
                source=SysclkSource.HSE,
                hse_hz=50 * MHZ,
                pll=PLLSettings(pllm=25, plln=216),
            )

    def test_illegal_hse_rejected(self):
        with pytest.raises(ClockConfigError):
            lfo_config(80 * MHZ)

    def test_describe_mentions_frequency(self):
        assert "216" in pll_config(50 * MHZ, 25, 216).describe()
        assert "50" in lfo_config().describe()

    def test_configs_hashable_and_comparable(self):
        a = pll_config(50 * MHZ, 25, 216)
        b = pll_config(50 * MHZ, 25, 216)
        assert a == b
        assert hash(a.pll) == hash(b.pll)


class TestHFOGrid:
    def test_grid_drops_illegal_combinations(self):
        grid = hfo_grid()
        # PLLM=25, PLLN=336/432 exceed the VCO maximum; PLLM=50,
        # PLLN=75 undershoots the VCO minimum.  7*2 - 3 = 11 survive.
        assert len(grid) == 11

    def test_grid_reaches_max_frequency(self):
        assert any(
            abs(cfg.sysclk_hz - 216 * MHZ) < 1 for cfg in hfo_grid()
        )

    def test_grid_uses_paper_parameters_only(self):
        for cfg in hfo_grid():
            assert cfg.pll.pllm in PAPER_PLLM_VALUES
            assert cfg.pll.plln in PAPER_PLLN_VALUES
            assert cfg.pll.pllp == 2

    def test_grid_frequency_span(self):
        freqs = sorted(cfg.sysclk_hz for cfg in hfo_grid())
        assert freqs[0] == pytest.approx(50 * MHZ)
        assert freqs[-1] == pytest.approx(216 * MHZ)


class TestEnumerateConfigs:
    def test_includes_hse_direct(self):
        configs = enumerate_configs([50 * MHZ], [25], [100])
        assert any(c.source is SysclkSource.HSE for c in configs)

    def test_silently_skips_illegal(self):
        configs = enumerate_configs(
            [16 * MHZ], [8], [100, 432], include_hse_direct=False
        )
        # PLLN=432 gives a 432 MHz SYSCLK at PLLP=2: illegal, dropped.
        assert len(configs) == 1

    def test_multiple_axes(self):
        configs = enumerate_configs(
            [16 * MHZ, 50 * MHZ], [8, 25], [100, 150],
            include_hse_direct=False,
        )
        for cfg in configs:
            assert cfg.uses_pll


class TestIsoFrequencyGroups:
    def test_same_output_different_tuples(self):
        # Sec. II-A observation (i): the same output frequency can be
        # generated by different HSE/PLLM/PLLN combinations.
        a = pll_config(50 * MHZ, 25, 100)  # VCO 200 -> 100 MHz
        b = pll_config(50 * MHZ, 50, 200)  # VCO 200 -> 100 MHz
        c = pll_config(16 * MHZ, 8, 100)   # VCO 200 -> 100 MHz
        groups = iso_frequency_groups([a, b, c])
        assert len(groups) == 1
        (members,) = groups.values()
        assert len(members) == 3

    def test_distinct_frequencies_not_grouped(self):
        a = pll_config(50 * MHZ, 25, 100)
        b = pll_config(50 * MHZ, 25, 150)
        assert len(iso_frequency_groups([a, b])) == 2


class TestMinPowerSelection:
    def test_prefers_lower_vco(self):
        # Sec. II-A observation (ii): power tracks the configuration,
        # and the minimum-power tuple is selected per frequency.
        pm = BoardPowerModel()
        low_vco = pll_config(50 * MHZ, 25, 100, pllp=2)   # VCO 200
        high_vco = pll_config(50 * MHZ, 25, 200, pllp=4)  # VCO 400
        assert low_vco.sysclk_hz == pytest.approx(high_vco.sysclk_hz)
        chosen = min_power_config([low_vco, high_vco], pm, 100 * MHZ)
        assert chosen == low_vco

    def test_raises_when_frequency_unreachable(self):
        pm = BoardPowerModel()
        with pytest.raises(ClockConfigError):
            min_power_config([lfo_config()], pm, 123 * MHZ)

    def test_max_performance_is_216(self):
        cfg = max_performance_config()
        assert cfg.sysclk_hz == pytest.approx(216 * MHZ)
        assert cfg.uses_pll



def board_clock_configs(board_name):
    """A registered board's HFO grid under its limits, plus its HSE
    (LFO) and HSI configs."""
    spec = get_spec(board_name)
    return list(spec.grid_configs()) + [
        lfo_config(spec.lfo_hz, limits=spec.limits),
        hsi_config(spec.limits),
    ]


class TestStoredFrequencies:
    """``sysclk_hz``/``vco_hz`` are evaluated once at construction;
    they must equal a fresh Eq. 1 evaluation on every board's tree."""

    @pytest.mark.parametrize("board_name", board_names())
    def test_match_fresh_eq1(self, board_name):
        configs = board_clock_configs(board_name)
        assert any(cfg.uses_pll for cfg in configs)
        for cfg in configs:
            if cfg.source is SysclkSource.PLL:
                pll = cfg.pll
                sysclk = cfg.hse_hz * pll.plln / (pll.pllm * pll.pllp)
                vco = cfg.hse_hz * pll.plln / pll.pllm
            elif cfg.source is SysclkSource.HSE:
                sysclk, vco = cfg.hse_hz, 0.0
            else:
                sysclk, vco = resolve_limits(cfg.limits).hsi_hz, 0.0
            assert cfg.sysclk_hz == sysclk, cfg.describe()
            assert cfg.vco_hz == vco, cfg.describe()
