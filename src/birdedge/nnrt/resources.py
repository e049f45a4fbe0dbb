"""Static cost model: FLOPs, peak activation RAM, and ROM footprint.

Conventions:
  * one multiply-accumulate counts as 2 FLOPs;
  * relu6, residual_add, and global_avg_pool count 1 op per output element;
  * activations are int8, so RAM charges 1 byte per live element;
  * ROM is the serialized model size: weight bytes, bias bytes, per-layer
    scales and zero points, and the container metadata.
"""

from __future__ import annotations

import math
import struct

from .graph import (
    INPUT_BUFFER,
    WEIGHTED_KINDS,
    LayerSpec,
    ModelGraph,
    ResourceReport,
    activation_shapes,
    validate_graph,
)
from .serialize import _HEADER, _RECORDS, MODEL_MAGIC


def _flops_of(layer: LayerSpec, out_shape: tuple[int, int, int]) -> int:
    c_out, ho, wo = out_shape
    if layer.kind in WEIGHTED_KINDS:
        # one multiply-accumulate per weight per output position
        return 2 * layer.weight_count() * ho * wo
    # elementwise and pooling kinds: one op per output element
    return c_out * ho * wo


def count_flops(model: ModelGraph) -> int:
    """Total FLOPs of one inference; additive over the layer list."""
    shapes = activation_shapes(model)
    return sum(
        _flops_of(layer, shape) for layer, shape in zip(model.layers, shapes)
    )


def estimate_ram(model: ModelGraph) -> int:
    """Peak bytes of simultaneously live activation buffers.

    Buffers are the graph input and every layer output. While layer i
    executes, its input buffer, its output buffer, and every earlier buffer
    still awaited by a later residual_add are live. The estimate is the
    maximum over execution steps and is independent of weight values.
    """
    shapes = [model.input_shape] + activation_shapes(model)
    sizes = [math.prod(s) for s in shapes]  # 1 byte per int8 element

    # last step that reads each buffer; buffer b is layer b-1's output
    last_read = [0] * len(sizes)
    for i, layer in enumerate(model.layers):
        last_read[i] = max(last_read[i], i)  # chain input of layer i
        if layer.kind == "residual_add":
            source = 0 if layer.skip_from == INPUT_BUFFER else layer.skip_from + 1
            last_read[source] = max(last_read[source], i)

    peak = 0
    for i in range(len(model.layers)):
        live = sizes[i + 1]  # the output being produced
        for b in range(i + 1):
            if last_read[b] >= i:
                live += sizes[b]
        peak = max(peak, live)
    return peak


def estimate_rom(model: ModelGraph) -> int:
    """Bytes of parameters, quantization constants, and graph metadata.

    Equals the size of the serialized container, so it is invariant to
    activation shapes and grows with every stored constant. The size is
    summed from the container layout; no byte is packed.
    """
    validate_graph(model)
    # magic, version u32, then the header
    size = len(MODEL_MAGIC) + 4 + struct.calcsize(_HEADER)
    for layer in model.layers:
        size += 1 + struct.calcsize(_RECORDS[layer.kind][0])  # kind byte, record
        if layer.kind in WEIGHTED_KINDS:
            size += layer.weight_count()  # int8 weights
            if layer.bias is not None:
                size += 4 * layer.out_ch  # int32 biases
    return size


def resource_report(model: ModelGraph) -> ResourceReport:
    return ResourceReport(
        flops=count_flops(model),
        ram_bytes=estimate_ram(model),
        rom_bytes=estimate_rom(model),
    )
