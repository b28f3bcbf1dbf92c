"""The served ``reprice`` answer is the governor's drift re-solve.

``PlanService.reprice`` and :func:`repro.fleet.governor.resolve_replan`
answer the same question -- re-price a plan's cached Pareto fronts for
a thermal excess and a frequency cap, then re-solve -- so for equal
inputs they must land the same plan, or both fail.  The grid covers
the free re-solve landing (vww), the uniform-ladder fallback (tiny,
whose sub-millisecond layers never converge a mixed-frequency
schedule), caps no plan survives, and a negative excess.
"""

import pytest

from repro.engine.serialize import plan_to_dict
from repro.errors import QoSInfeasibleError, ReproError, SolverError
from repro.fleet.governor import resolve_replan
from repro.optimize.mckp import front_classes
from repro.optimize.qos import QoSLevel
from repro.serve.service import PlanService
from repro.units import MHZ

QOS = ("percent", 30.0)
EXTRAS_W = (0.0, 0.002, 0.01)
CAPS_MHZ = (None, 216.0, 150.0, 108.0, 84.0)
GRID = [(extra, cap) for extra in EXTRAS_W for cap in CAPS_MHZ] + [
    (-0.001, cap) for cap in CAPS_MHZ
]


@pytest.fixture(scope="module")
def service():
    return PlanService()


@pytest.fixture(scope="module", params=["tiny", "vww"])
def planned(request, service):
    """(model name, model, optimization result) with fronts stored."""
    name = request.param
    service.plan(name, QOS)
    model = service.resolve_model(name)
    result = service.pipeline.optimize(
        model, qos_level=QoSLevel(name="30%", slack=0.30)
    )
    return name, model, result


def cap_hz_of(cap_mhz):
    return float("inf") if cap_mhz is None else cap_mhz * MHZ


def governor_plan(service, model, result, extra_w, cap_mhz):
    return resolve_replan(
        service.pipeline,
        model,
        front_classes(result.pareto_fronts),
        extra_w=extra_w,
        cap_hz=cap_hz_of(cap_mhz),
        budget=result.qos_s,
        fixed=result.fixed_overhead_s,
    )


class TestRepriceIsTheGovernorResolve:
    @pytest.mark.parametrize("extra_w,cap_mhz", GRID)
    def test_same_plan_or_same_failure(
        self, service, planned, extra_w, cap_mhz
    ):
        name, model, result = planned
        try:
            served = service.reprice(
                name, QOS, extra_power_w=extra_w, max_hfo_mhz=cap_mhz
            )
        except ReproError as err:
            served_error = type(err)
        else:
            served_error = None
        governed = governor_plan(service, model, result, extra_w, cap_mhz)
        if served_error is not None:
            assert governed is None
            expected = SolverError if extra_w < 0 else QoSInfeasibleError
            assert served_error is expected
            with pytest.raises(expected):
                service.pipeline.replan(
                    model,
                    front_classes(result.pareto_fronts),
                    result.qos_s,
                    result.fixed_overhead_s,
                    extra_w=extra_w,
                    cap_hz=cap_hz_of(cap_mhz),
                )
        else:
            assert governed is not None
            assert served["plan"] == plan_to_dict(governed)

    def test_grid_reaches_both_outcomes(self, service, planned):
        """The grid is not vacuous: some inputs land, some fail."""
        name, model, result = planned
        outcomes = {
            governor_plan(service, model, result, extra, cap) is None
            for extra, cap in GRID
        }
        assert outcomes == {True, False}
