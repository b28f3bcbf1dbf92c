"""Board power model: structure, orderings, voltage scaling."""

import pytest

from repro.boards import board_names, build_board, get_spec
from repro.clock import hfo_grid, lfo_config, pll_config
from repro.clock.configs import hsi_config
from repro.clock.configs import ClockConfig, SysclkSource
from repro.errors import PowerModelError
from repro.power import BoardPowerModel, PowerModelParams, PowerState
from repro.units import MHZ


@pytest.fixture
def pm():
    return BoardPowerModel()


class TestPowerStructure:
    def test_power_increases_with_frequency_along_grid(self, pm):
        grid = sorted(hfo_grid(), key=lambda c: c.sysclk_hz)
        powers = [pm.active_power(c) for c in grid]
        for lower, higher in zip(powers, powers[1:]):
            assert higher >= lower - 1e-12

    def test_iso_frequency_power_gap(self, pm):
        # Fig. 2: same SYSCLK, different VCO -> large power gap.
        low_vco = pll_config(50 * MHZ, 25, 100, pllp=2)   # VCO 200 MHz
        high_vco = pll_config(50 * MHZ, 25, 200, pllp=4)  # VCO 400 MHz
        assert low_vco.sysclk_hz == pytest.approx(high_vco.sysclk_hz)
        gap = pm.active_power(high_vco) / pm.active_power(low_vco)
        assert gap > 1.15

    def test_hse_direct_cheaper_than_iso_frequency_pll(self, pm):
        # LFO rationale: 50 MHz from the HSE beats 50 MHz via the PLL.
        hse50 = lfo_config()
        pll50 = pll_config(50 * MHZ, 50, 100, pllp=2)
        assert pll50.sysclk_hz == pytest.approx(hse50.sysclk_hz)
        assert pm.active_power(hse50) < pm.active_power(pll50)

    def test_hsi_more_expensive_than_hse(self, pm):
        # Sec. II-A: the HSI yields higher power than the HSE.
        hsi = ClockConfig(source=SysclkSource.HSI)
        hse16 = ClockConfig(source=SysclkSource.HSE, hse_hz=16 * MHZ)
        assert hsi.sysclk_hz == pytest.approx(hse16.sysclk_hz)
        assert pm.active_power(hsi) > pm.active_power(hse16)

    def test_state_ordering(self, pm, hfo_216):
        compute = pm.power(hfo_216, PowerState.ACTIVE_COMPUTE)
        memory = pm.power(hfo_216, PowerState.ACTIVE_MEMORY)
        idle = pm.power(hfo_216, PowerState.IDLE)
        gated = pm.power(hfo_216, PowerState.IDLE_GATED)
        assert compute > memory > idle > gated

    def test_gated_power_ignores_configuration(self, pm, hfo_216):
        assert pm.power(hfo_216, PowerState.IDLE_GATED) == pytest.approx(
            pm.power(lfo_config(), PowerState.IDLE_GATED)
        )

    def test_gated_is_much_cheaper_than_hot_idle(self, pm, hfo_216):
        # The gap that makes the clock-gating baseline competitive.
        assert pm.idle_power(hfo_216) > 4 * pm.gated_power()

    def test_plausible_magnitudes(self, pm, hfo_216):
        # Whole-board power at full tilt should be hundreds of mW.
        active = pm.active_power(hfo_216)
        assert 0.2 < active < 1.0
        assert 0.03 < pm.active_power(lfo_config()) < 0.2


class TestVoltageScaling:
    def test_voltage_steps_ascend(self):
        params = PowerModelParams()
        freqs = [50e6, 100e6, 150e6, 170e6, 216e6]
        volts = [params.core_voltage(f) for f in freqs]
        assert volts == sorted(volts)

    def test_energy_per_cycle_u_shape(self, pm):
        # The DVFS sweet spot: energy/cycle is not monotone in f.
        grid = sorted(hfo_grid(), key=lambda c: c.sysclk_hz)
        epc = [pm.active_power(c) / c.sysclk_hz for c in grid]
        top = epc[-1]
        assert min(epc) < 0.95 * top  # somewhere cheaper than 216 MHz
        # and the very lowest frequency is not the cheapest either
        assert epc[0] > min(epc)

    def test_frequency_beyond_steps_rejected(self):
        params = PowerModelParams()
        with pytest.raises(PowerModelError):
            params.core_voltage(300e6)

    def test_dynamic_scale_at_reference_is_one(self):
        params = PowerModelParams()
        assert params.dynamic_scale(216e6) == pytest.approx(1.0)

    def test_dynamic_scale_below_one_at_low_frequency(self):
        params = PowerModelParams()
        assert params.dynamic_scale(50e6) < 1.0


class TestParams:
    def test_negative_constant_rejected(self):
        with pytest.raises(PowerModelError):
            PowerModelParams(p_board_static_w=-0.01)

    def test_activity_out_of_range_rejected(self):
        with pytest.raises(PowerModelError):
            PowerModelParams(activity_idle=1.5)

    def test_empty_vos_steps_rejected(self):
        with pytest.raises(PowerModelError):
            PowerModelParams(vos_steps=())

    def test_descending_vos_steps_rejected(self):
        with pytest.raises(PowerModelError):
            PowerModelParams(vos_steps=((216e6, 1.32), (144e6, 1.14)))

    def test_scaled_override(self):
        params = PowerModelParams().scaled(p_gated_w=0.005)
        assert params.p_gated_w == pytest.approx(0.005)

    def test_switching_power_between_gated_and_active(self, pm, hfo_216):
        switching = pm.switching_power(lfo_config())
        assert pm.gated_power() < switching < pm.active_power(hfo_216)



def _price(model, config, state):
    try:
        return model.power(config, state)
    except PowerModelError as err:
        return type(err)


class TestPowerMemo:
    """``power`` memoizes per (config, state) and forgets on a new
    ``params`` object."""

    STATES = [s for s in PowerState if s is not PowerState.NPU_ACTIVE]

    @pytest.mark.parametrize("board_name", board_names())
    def test_matches_fresh_model(self, board_name):
        spec = get_spec(board_name)
        configs = list(spec.grid_configs()) + [
            lfo_config(spec.lfo_hz, limits=spec.limits),
            hsi_config(spec.limits),
        ]
        model = build_board(board_name).power_model
        pairs = [(c, s) for c in configs for s in self.STATES]
        for _ in range(2):  # fill, then hit
            for config, state in pairs:
                fresh = BoardPowerModel(model.params)
                assert _price(model, config, state) == _price(
                    fresh, config, state
                )

    def test_recomputes_after_params_replaced(self, pm):
        pairs = [(c, s) for c in hfo_grid() for s in self.STATES]
        before = [pm.power(c, s) for c, s in pairs]
        pm.params = pm.params.scaled(
            p_board_static_w=0.03, k_vco_w_per_hz=4e-10
        )
        after = [pm.power(c, s) for c, s in pairs]
        assert after == [
            BoardPowerModel(pm.params).power(c, s) for c, s in pairs
        ]
        assert all(a != b for a, b in zip(after, before))

    def test_npu_state_raises_every_call(self, pm, hfo_216):
        for _ in range(2):
            with pytest.raises(PowerModelError):
                pm.power(hfo_216, PowerState.NPU_ACTIVE)
