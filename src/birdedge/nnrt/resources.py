"""Static cost model: FLOPs, peak activation RAM, and ROM footprint.

Conventions:
  * one multiply-accumulate counts as 2 FLOPs;
  * relu6, residual_add, and global_avg_pool count 1 op per output element;
  * activations are int8, so RAM charges 1 byte per live element;
  * ROM is the serialized model size, len(save_model(model)): weight
    bytes, bias bytes, per-layer scales and zero points, and the metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import INPUT_BUFFER, WEIGHTED_KINDS, LayerSpec, ModelGraph
from .serialize import save_model


@dataclass(frozen=True)
class ResourceReport:
    """Static cost estimates for one model."""

    flops: int
    ram_bytes: int
    rom_bytes: int


def _flops_of(layer: LayerSpec, out_shape: tuple[int, int, int]) -> int:
    c_out, ho, wo = out_shape
    if layer.kind in WEIGHTED_KINDS:
        # one multiply-accumulate per weight per output position
        return 2 * layer.weight_count() * ho * wo
    # elementwise and pooling kinds: one op per output element
    return c_out * ho * wo


def _peak_ram(model: ModelGraph) -> int:
    """Peak bytes of simultaneously live activation buffers.

    Buffers are the graph input and every layer output. While layer i
    executes, its input buffer, its output buffer, and every earlier buffer
    still awaited by a later residual_add are live. The estimate is the
    maximum over execution steps and is independent of weight values.
    """
    sizes = [math.prod(s) for s in model.shapes]  # 1 byte per int8 element

    # buffer b (layer b-1's output) is last read at step b, the layer it
    # feeds, or later by a residual_add; it is freed after that step
    last_read = list(range(len(sizes)))
    for i, layer in enumerate(model.layers):
        if layer.kind == "residual_add":
            last_read[layer.skip_from - INPUT_BUFFER] = i
    freed = [0] * len(sizes)
    for b, step in enumerate(last_read):
        freed[step] += sizes[b]

    live, peak = sizes[0], 0
    for i in range(len(model.layers)):
        live += sizes[i + 1]  # the output being produced
        peak = max(peak, live)
        live -= freed[i]
    return peak


def resource_report(model: ModelGraph) -> ResourceReport:
    """FLOPs of one inference, peak activation RAM and ROM, from the graph's
    shapes; a graph beyond the .enm limits raises save_model's FormatError."""
    return ResourceReport(
        flops=sum(map(_flops_of, model.layers, model.shapes[1:])),
        ram_bytes=_peak_ram(model),
        rom_bytes=len(save_model(model)),
    )
