"""Model graph: ordered operator nodes with explicit data dependencies.

MCU inference engines execute a statically scheduled, topologically
ordered list of operators; we mirror that with a :class:`Model` holding
:class:`Node` entries in execution order.  Most models are chains, but
MobileNet-V2-style inverted residual blocks need a second input for
the skip-add, so every node names its input node ids explicitly.

Shapes are inferred and validated at construction time -- a malformed
graph fails at :meth:`Model.add`, not at inference time -- and the
per-node shapes drive the analytic cost model without running any
numerics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import GraphError
from .layers.base import Layer, LayerKind, Shape
from .quantize import QuantParams
from .tensor import QuantizedTensor

#: Node id of the model input placeholder.
INPUT_ID = 0

#: Convolution-family layer kinds: the schedulable units of the
#: paper's per-layer DVFS (they carry arithmetic to scale).
CONV_KINDS = frozenset(
    {
        LayerKind.CONV2D,
        LayerKind.DEPTHWISE_CONV,
        LayerKind.POINTWISE_CONV,
        LayerKind.DENSE,
    }
)


@dataclass(frozen=True)
class Node:
    """One scheduled operator.

    Attributes:
        node_id: position in execution order (input placeholder is 0).
        layer: the operator.
        inputs: ids of the nodes whose outputs feed this one.
        output_shape: inferred output shape.
    """

    node_id: int
    layer: Layer
    inputs: Tuple[int, ...]
    output_shape: Shape


@dataclass
class Model:
    """An ordered, shape-checked operator graph.

    Attributes:
        name: model identifier (e.g. "mbv2").
        input_shape: (H, W, C) of the input feature map.
        input_params: quantization of the input tensor.
    """

    name: str
    input_shape: Shape
    input_params: QuantParams
    nodes: List[Node] = field(default_factory=list)

    def __post_init__(self) -> None:
        if any(dim <= 0 for dim in self.input_shape):
            raise GraphError(
                f"model input shape must be positive, got {self.input_shape}"
            )

    # -- construction --------------------------------------------------------

    def add(self, layer: Layer, inputs: Optional[Sequence[int]] = None) -> int:
        """Append ``layer``, feeding from ``inputs`` (default: previous).

        Returns:
            The new node's id.

        Raises:
            GraphError: on dangling input references or duplicate layer
                names; shape mismatches surface as ``ShapeError`` from
                the layer itself.
        """
        next_id = len(self.nodes) + 1
        if inputs is None:
            inputs = (next_id - 1,)
        input_ids = tuple(int(i) for i in inputs)
        for input_id in input_ids:
            if not 0 <= input_id < next_id:
                raise GraphError(
                    f"layer {layer.name!r} references node {input_id}, but "
                    f"only nodes 0..{next_id - 1} exist"
                )
        if any(node.layer.name == layer.name for node in self.nodes):
            raise GraphError(f"duplicate layer name {layer.name!r}")
        input_shapes = tuple(self.shape_of(i) for i in input_ids)
        output_shape = layer.output_shape(*input_shapes)
        self.nodes.append(
            Node(
                node_id=next_id,
                layer=layer,
                inputs=input_ids,
                output_shape=output_shape,
            )
        )
        return next_id

    # -- introspection -------------------------------------------------------

    def shape_of(self, node_id: int) -> Shape:
        """Output shape of a node (node 0 is the model input)."""
        if node_id == INPUT_ID:
            return self.input_shape
        if not 1 <= node_id <= len(self.nodes):
            raise GraphError(f"no node {node_id} in model {self.name!r}")
        return self.nodes[node_id - 1].output_shape

    def input_shapes_of(self, node: Node) -> Tuple[Shape, ...]:
        """Shapes feeding one node."""
        return tuple(self.shape_of(i) for i in node.inputs)

    @property
    def output_shape(self) -> Shape:
        """Shape of the final node's output."""
        if not self.nodes:
            return self.input_shape
        return self.nodes[-1].output_shape

    def layers(self) -> List[Layer]:
        """All layers in execution order."""
        return [node.layer for node in self.nodes]

    def conv_nodes(self) -> List[Node]:
        """Nodes carrying :data:`CONV_KINDS` layers."""
        return [node for node in self.nodes if node.layer.kind in CONV_KINDS]

    def dae_nodes(self) -> List[Node]:
        """Nodes eligible for the DAE transformation (DW + PW convs)."""
        return [node for node in self.nodes if node.layer.supports_dae]

    def total_macs(self) -> int:
        """Total multiply-accumulates of one inference."""
        return sum(
            node.layer.macs(*self.input_shapes_of(node)) for node in self.nodes
        )

    def total_weight_bytes(self) -> int:
        """Total parameter footprint in bytes."""
        return sum(node.layer.weight_bytes() for node in self.nodes)

    def dae_layer_fraction(self) -> float:
        """Share of conv-family layers that are DW/PW (paper: >80%)."""
        convs = self.conv_nodes()
        if not convs:
            return 0.0
        dae = sum(1 for node in convs if node.layer.supports_dae)
        return dae / len(convs)

    def summary(self) -> str:
        """Multi-line human-readable model table."""
        lines = [
            f"Model {self.name!r}: input {self.input_shape}, "
            f"{len(self.nodes)} layers, {self.total_macs() / 1e6:.2f} MMACs, "
            f"{self.total_weight_bytes() / 1024:.1f} KiB weights",
        ]
        for node in self.nodes:
            layer = node.layer
            macs = layer.macs(*self.input_shapes_of(node))
            lines.append(
                f"  [{node.node_id:3d}] {layer.name:28s} "
                f"{layer.kind.value:10s} out={str(node.output_shape):16s} "
                f"macs={macs:>10d}"
            )
        return "\n".join(lines)

    # -- execution -------------------------------------------------------------

    def forward(self, x: QuantizedTensor) -> QuantizedTensor:
        """Run the whole model, returning the final output tensor."""
        return self.forward_with_activations(x)[len(self.nodes)]

    def forward_with_activations(
        self, x: QuantizedTensor
    ) -> Dict[int, QuantizedTensor]:
        """Run the model, returning every node's output (keyed by id).

        Raises:
            GraphError: if the input tensor does not match the model's
                declared input shape or quantization.
        """
        if tuple(x.shape) != tuple(self.input_shape):
            raise GraphError(
                f"input shape {x.shape} != model input {self.input_shape}"
            )
        if (
            abs(x.scale - self.input_params.scale) > 1e-12
            or x.zero_point != self.input_params.zero_point
        ):
            raise GraphError(
                "input tensor quantization does not match the model's "
                "declared input parameters"
            )
        activations: Dict[int, QuantizedTensor] = {INPUT_ID: x}
        for node in self.nodes:
            inputs = tuple(activations[i] for i in node.inputs)
            activations[node.node_id] = node.layer.forward(*inputs)
        return activations
