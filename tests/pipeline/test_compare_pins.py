"""Exact pins of the Fig. 5 comparison rows.

``DAEDVFSPipeline.compare`` prices our schedule against TinyEngine and
TinyEngine + clock gating over one iso-latency window.  These floats
were captured before the baselines were windowed from one shared
TinyEngine execution; any change to how the window is charged must
leave every one of them bit-identical (``==``, not approx).
"""

import pytest

from repro.boards import build_board
from repro.nn.models import PAPER_MODELS
from repro.optimize.qos import MODERATE, PAPER_QOS_LEVELS
from repro.pipeline import DAEDVFSPipeline

# (model, QoS level) -> ((ours), (TinyEngine), (gated), savings), each
# engine as (energy_j, latency_s, met_qos).
PINS = {
    ("mbv2", "tight"): ((0.0211398545614855, 0.06101944897752057, True), (0.02435128694318656, 0.05924474134467527, True), (0.023159993684227827, 0.05924474134467527, True), 0.13187937003878192),
    ("mbv2", "moderate"): ((0.019263881760810158, 0.07667650199285053, True), (0.02711303980570994, 0.05924474134467527, True), (0.02353916002883375, 0.05924474134467527, True), 0.2894975296442699),
    ("mbv2", "relaxed"): ((0.019025690489327944, 0.08755836743861786, True), (0.029874792668233324, 0.05924474134467527, True), (0.02391832637343967, 0.05924474134467527, True), 0.36315238399768124),
    ("pd", "tight"): ((0.01595168313720979, 0.04936183582388855, True), (0.01923301195446038, 0.0466030437288643, True), (0.018295917951160378, 0.0466030437288643, True), 0.17060920177349592),
    ("pd", "moderate"): ((0.015020020468904377, 0.06019352477653556, True), (0.021405459440925118, 0.0466030437288643, True), (0.018594177431025108, 0.0466030437288643, True), 0.298308895898418),
    ("pd", "relaxed"): ((0.015004012879653722, 0.06930646194063374, True), (0.023577906927389855, 0.0466030437288643, True), (0.01889243691088984, 0.0466030437288643, True), 0.36364101674250215),
    ("vww", "tight"): ((0.009831389537705536, 0.02665335375925918, True), (0.011073247356108777, 0.026934026305555553, True), (0.010531657955156665, 0.026934026305555553, True), 0.11214937935240343),
    ("vww", "moderate"): ((0.00888974414424662, 0.03245580664285708, True), (0.012328803926368556, 0.026934026305555553, True), (0.010704035723512221, 0.026934026305555553, True), 0.2789451274155278),
    ("vww", "relaxed"): ((0.008921120313012834, 0.036372320392857094, True), (0.013584360496628332, 0.026934026305555553, True), (0.010876413491867777, 0.026934026305555553, True), 0.3432800671605355),
}

# vww at the moderate level on the STM32N6: NPU-mapped layers leave no
# SYSCLK config on their ledger intervals, so this row covers windows
# closing after an NPU segment.
N6_VWW_MODERATE = ((0.00028938427939851843, 0.0014442457333333331, True), (0.00043163488992533326, 0.0011654240666666665, True), (0.0003359768825333333, 0.0011654240666666665, True), 0.3295623543115853)


def _row(result):
    return tuple(
        (report.energy_j, report.latency_s, report.met_qos)
        for report in (result.ours, result.tinyengine, result.clock_gated)
    ) + (result.savings_vs_tinyengine,)


@pytest.fixture(scope="module")
def models():
    return {name: build() for name, build in PAPER_MODELS.items()}


@pytest.mark.parametrize(
    "name,level",
    [(name, level) for name in sorted(PAPER_MODELS) for level in PAPER_QOS_LEVELS],
    ids=lambda v: getattr(v, "name", v),
)
def test_compare_row_pinned(models, name, level):
    result = DAEDVFSPipeline().compare(models[name], level)
    assert _row(result) == PINS[(name, level.name)]


def test_compare_row_pinned_on_npu_board(models):
    pipeline = DAEDVFSPipeline(board=build_board("nucleo-n657x0"))
    assert _row(pipeline.compare(models["vww"], MODERATE)) == N6_VWW_MODERATE
