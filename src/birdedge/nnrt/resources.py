"""Static cost model: FLOPs, peak activation RAM, and ROM footprint.

Conventions:
  * one multiply-accumulate counts as 2 FLOPs;
  * relu6, residual_add, and global_avg_pool count 1 op per output element;
  * activations are int8, so RAM charges 1 byte per live element; it is
    the int8 live set that infer's walk holds, each buffer dropped after
    its last reader (ModelGraph.last_reads), without the walk's per-layer
    float scratch (on x86-64, a hot infer on the 31-class fixture peaks
    at about 554 kB under tracemalloc, against its ram_bytes of 96,000);
  * ROM is the serialized model size, len(save_model(model)): weight
    bytes, bias bytes, per-layer scales and zero points, and the metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import WEIGHTED_KINDS, LayerSpec, ModelGraph
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
    still awaited by a later residual_add are live: a buffer is freed after
    model.last_reads names its last reader, as the walk drops it. The
    estimate is the maximum over execution steps and is independent of
    weight values.
    """
    sizes = [math.prod(s) for s in model.shapes]  # 1 byte per int8 element
    freed = [0] * len(sizes)
    for b, step in enumerate(model.last_reads):
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
