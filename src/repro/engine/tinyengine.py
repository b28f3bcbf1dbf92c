"""TinyEngine-style baselines (paper Sec. IV).

Two baselines frame the evaluation:

* :class:`TinyEngine` -- the state-of-the-art inference engine the
  paper compares against: per-channel depthwise / per-column pointwise
  kernels (fused traces, no DAE), running flat out at the maximum
  216 MHz SYSCLK.  In the iso-latency scenario the board then sits in
  plain WFI idle *at 216 MHz* until the QoS window closes.
* :class:`TinyEngineClockGated` -- the same engine, but post-inference
  idling deactivates unused clocks and the voltage regulator ("clock
  gating"), collapsing the idle power to the gated floor.

Both reuse :class:`~repro.engine.runtime.DVFSRuntime` with a uniform
g=0 / 216 MHz plan, so every modelling assumption is shared with the
proposed approach and the comparison isolates the scheduling policy.
"""

from __future__ import annotations

from typing import Optional

from ..clock.configs import ClockConfig, max_performance_config
from ..mcu.board import Board
from ..nn.graph import Model
from .cost import TraceBuilder, TraceParams
from .runtime import DVFSRuntime, IdlePolicy, InferenceReport
from .schedule import uniform_plan


class TinyEngine:
    """Fixed-clock, fused-kernel baseline engine.

    Args:
        board: the simulated board.
        clock: engine clock; defaults to the minimum-power 216 MHz
            configuration (the paper's baseline setting).
        trace_params: access-pattern constants (shared with the DVFS
            runtime for apples-to-apples comparisons).
        tracer: an existing :class:`TraceBuilder` to share, so the
            baselines reuse the pipeline's memoized g=0 traces.
    """

    #: Post-inference idle policy of this engine variant.
    idle_policy = IdlePolicy.HOT

    def __init__(
        self,
        board: Board,
        clock: Optional[ClockConfig] = None,
        trace_params: Optional[TraceParams] = None,
        tracer: Optional[TraceBuilder] = None,
    ):
        self.board = board
        self.clock = clock or self._default_clock(board)
        self._runtime = DVFSRuntime(board, trace_params, tracer=tracer)

    @staticmethod
    def _default_clock(board: Board) -> ClockConfig:
        """The board's flat-out baseline clock.

        F767-style boards (no native design space) keep the paper's
        minimum-power 216 MHz configuration; boards carrying their own
        space run the baseline at their fastest HFO.
        """
        if board.space_factory is None:
            return max_performance_config()
        space = board.space_factory(board)
        return max(space.hfo_configs, key=lambda c: c.sysclk_hz)

    def run(self, model: Model, qos_s: Optional[float] = None) -> InferenceReport:
        """Run one inference; idle (per the engine's policy) to ``qos_s``."""
        plan = uniform_plan(model, hfo=self.clock, granularity=0)
        return self._runtime.run(
            model,
            plan,
            qos_s=qos_s,
            idle_policy=self.idle_policy,
            initial_config=self.clock,
        )

    def window(
        self,
        record: InferenceReport,
        qos_s: float,
        idle_policy: Optional[IdlePolicy] = None,
    ) -> InferenceReport:
        """A windowless :meth:`run` idled to ``qos_s`` (this engine's
        policy unless another is given), without executing it again."""
        return self._runtime.window(
            record, qos_s, idle_policy or self.idle_policy
        )

    def inference_latency_s(self, model: Model) -> float:
        """Latency of one inference (no QoS window)."""
        return self.run(model).latency_s


class TinyEngineClockGated(TinyEngine):
    """TinyEngine with clock-gated post-inference idling."""

    idle_policy = IdlePolicy.GATED


class TinyEngineDeepSleep(TinyEngine):
    """TinyEngine entering STOP-mode deep sleep between inferences.

    A baseline *stronger* than anything the paper evaluates: the idle
    window costs almost nothing, so beating it requires genuinely
    cheaper inference -- exactly what isolates the DAE+DVFS
    contribution from race-to-idle accounting (extension E11).
    """

    idle_policy = IdlePolicy.STOP
