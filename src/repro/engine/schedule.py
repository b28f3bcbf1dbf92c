"""Deployment plans: the per-layer (granularity, HFO clock) decisions.

A :class:`DeploymentPlan` is the artifact the optimization pipeline
produces and the DVFS runtime consumes: for every schedulable layer,
the DAE granularity ``g`` and the HFO clock configuration its
compute-bound segments run at, plus the shared LFO configuration for
memory-bound segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..clock.configs import ClockConfig, lfo_config
from ..errors import GraphError
from ..nn.graph import Model


@dataclass(frozen=True)
class LayerPlan:
    """Decision for one layer.

    Attributes:
        node_id: graph node this decision applies to.
        granularity: DAE granularity g (0 = run fused).
        hfo: clock for the compute-bound segments (or for the whole
            layer when fused).
        predicted_latency_s: the DSE's latency estimate (informational).
        predicted_energy_j: the DSE's energy estimate (informational).
    """

    node_id: int
    granularity: int
    hfo: ClockConfig
    predicted_latency_s: float = 0.0
    predicted_energy_j: float = 0.0


@dataclass
class DeploymentPlan:
    """Full-model schedule.

    Attributes:
        model_name: model this plan was optimized for.
        lfo: clock for memory-bound segments (paper: HSE at 50 MHz).
        layer_plans: node-id -> :class:`LayerPlan` for every scheduled
            (conv-family) node.  Unscheduled nodes run fused at the
            clock left over from the previous layer.
        qos_s: latency budget this plan was optimized against, if any.
        predicted_latency_s: optimizer's total latency estimate.
        predicted_energy_j: optimizer's total energy estimate.
    """

    model_name: str
    lfo: ClockConfig = field(default_factory=lfo_config)
    layer_plans: Dict[int, LayerPlan] = field(default_factory=dict)
    qos_s: Optional[float] = None
    predicted_latency_s: float = 0.0
    predicted_energy_j: float = 0.0

    def plan_for(self, node_id: int) -> Optional[LayerPlan]:
        """The decision for one node, or None if unscheduled."""
        return self.layer_plans.get(node_id)

    def initial_config(self) -> ClockConfig:
        """Clock the board should enter the QoS window with.

        The first scheduled layer's HFO: firmware pre-locks the PLL
        while idling before the inference trigger, exactly as the
        TinyEngine baseline sits pre-locked at 216 MHz.  Falls back to
        the LFO for empty plans.
        """
        if not self.layer_plans:
            return self.lfo
        first = min(self.layer_plans)
        return self.layer_plans[first].hfo

    def granularities(self) -> Dict[int, int]:
        """node-id -> g mapping (for trace building)."""
        return {
            node_id: plan.granularity
            for node_id, plan in self.layer_plans.items()
        }

    def validate_against(self, model: Model) -> None:
        """Check every planned node exists in ``model``.

        Raises:
            GraphError: for plans referencing unknown nodes or a
                mismatched model name.
        """
        if self.model_name != model.name:
            raise GraphError(
                f"plan for model {self.model_name!r} applied to "
                f"{model.name!r}"
            )
        valid_ids = {node.node_id for node in model.nodes}
        for node_id in self.layer_plans:
            if node_id not in valid_ids:
                raise GraphError(f"plan references unknown node {node_id}")


def plan_signature(plan: DeploymentPlan) -> Tuple:
    """Hashable identity of a plan's schedulable decisions.

    Two plans with equal signatures execute the identical interval
    schedule (durations, configs, states), whatever board they price
    on -- the key of the runtimes' recorded executions.
    """
    return (
        plan.model_name,
        plan.lfo,
        tuple(
            sorted(
                (node_id, lp.granularity, lp.hfo)
                for node_id, lp in plan.layer_plans.items()
            )
        ),
    )


def uniform_plan(
    model: Model,
    hfo: ClockConfig,
    granularity: int = 0,
    lfo: Optional[ClockConfig] = None,
) -> DeploymentPlan:
    """A plan running every conv-family layer identically.

    Used by the baselines (TinyEngine: g=0 at 216 MHz) and by the DSE
    sweeps (one (g, f) point for a whole model).
    """
    plans = {
        node.node_id: LayerPlan(
            node_id=node.node_id,
            granularity=granularity if node.layer.supports_dae else 0,
            hfo=hfo,
        )
        for node in model.conv_nodes()
    }
    return DeploymentPlan(
        model_name=model.name,
        lfo=lfo or lfo_config(),
        layer_plans=plans,
    )
