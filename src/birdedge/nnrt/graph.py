"""Model graph data types, shape inference, and structural validation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import GraphError

LAYER_KINDS = (
    "conv2d",
    "depthwise_conv2d",
    "pointwise_conv2d",
    "relu6",
    "residual_add",
    "global_avg_pool",
    "linear",
)
WEIGHTED_KINDS = ("conv2d", "depthwise_conv2d", "pointwise_conv2d", "linear")

# Skip source index meaning "the quantized graph input".
INPUT_BUFFER = -1

# Every scale lies in [MIN_SCALE, MAX_SCALE]. Then each float32 multiplier
# of the int8 path lies in [2**-96, 2**96] and each table entry is at most
# 2**72 in magnitude, so no requantization step overflows to inf or NaN.
MIN_SCALE = 2.0**-32
MAX_SCALE = 2.0**32

# Most elements inference may allocate in one buffer: the graph input, a
# conv's zero-padded input, its im2col patch matrix, or its output. 2**24
# float64 elements are 128 MiB; no fixture buffer exceeds 288,000.
MAX_BUFFER_ELEMENTS = 1 << 24

_INT8, _INT32 = np.dtype(np.int8), np.dtype(np.int32)  # faster to compare than types
# What a count, size or zero point field may hold; a float 1.0 is not one.
_INTEGER = (int, np.integer)


@dataclass
class LayerSpec:
    """One layer of a model graph.

    Weighted kinds carry an int8 weight tensor with a symmetric per-tensor
    scale (its zero point is 0, so no field holds it) and an
    optional per-output-channel int32 bias expressed in units of
    input_scale * weight_scale. Every kind carries the affine quantization
    of its output activation.
    """

    kind: str
    in_ch: int = 0
    out_ch: int = 0
    kernel: tuple[int, int] = (1, 1)
    stride: int = 1
    padding: int = 0
    weight: np.ndarray | None = None        # int8
    weight_scale: float = 1.0
    bias: np.ndarray | None = None          # int32, length out_ch
    out_scale: float = 1.0
    out_zero_point: int = 0
    skip_from: int | None = None            # residual_add only

    def weight_count(self) -> int:
        """Number of int8 weights: out_ch rows of one fan-in each, 0 for
        kinds without weights. The .enm record, the FLOP count and the
        fixture's weight draw all take the weight geometry from here."""
        if self.kind in ("conv2d", "pointwise_conv2d"):
            return self.out_ch * self.in_ch * self.kernel[0] * self.kernel[1]
        if self.kind == "depthwise_conv2d":
            return self.out_ch * self.kernel[0] * self.kernel[1]
        if self.kind == "linear":
            return self.out_ch * self.in_ch
        return 0


@dataclass
class ModelGraph:
    """An ordered layer list plus input quantization and class count.

    The default input affine maps -80..0 dB onto the int8 codes; its scale
    is the float32 value the .enm container stores, so a graph built on it
    classifies the same after save_model and load_model.
    """

    layers: list[LayerSpec] = field(default_factory=list)
    class_count: int = 2
    input_shape: tuple[int, int, int] = (1, 64, 249)
    input_scale: float = float(np.float32(80.0 / 255.0))
    input_zero_point: int = 127


def _check_scale(value: float, what: str, i: int | None = None) -> None:
    """GraphError unless MIN_SCALE <= value <= MAX_SCALE, formatted only on failure."""
    # a NaN scale fails every comparison, so the range test rejects it
    if not MIN_SCALE <= value <= MAX_SCALE:
        where = "" if i is None else f"layer {i}: "
        raise GraphError(f"{where}{what} scale must be in [2**-32, 2**32], got {value}")


def _check_integer(value: int, what: str, i: int | None = None) -> None:
    """GraphError unless value is an int or a numpy integer."""
    if not isinstance(value, _INTEGER):
        where = "" if i is None else f"layer {i}: "
        raise GraphError(f"{where}{what} must be an integer, got {value!r}")


def _check_zero_point(value: int, what: str, i: int | None = None) -> None:
    """GraphError unless value is an integer in [-128, 127], formatted only
    on failure."""
    if not (-128 <= value <= 127 and isinstance(value, _INTEGER)):
        _check_integer(value, f"{what} zero point", i)
        where = "" if i is None else f"layer {i}: "
        raise GraphError(f"{where}{what} zero point must be in [-128, 127], got {value}")


def validate_graph(model: ModelGraph) -> list[tuple[int, int, int]]:
    """Check the whole graph; raise GraphError on the first violation.

    Returns the (C, H, W) shape of every buffer in the order inference
    fills them: shapes[k - INPUT_BUFFER] is the output of layer k, so
    shapes[0] is the graph input.
    """
    if not model.layers:
        raise GraphError("model has no layers")
    input_shape = tuple(model.input_shape)  # a list compares unequal to a tuple
    for dim in input_shape:
        _check_integer(dim, "input dimension")
    if len(input_shape) != 3 or any(d < 1 for d in input_shape):
        raise GraphError(f"bad input shape {input_shape}")
    if input_shape[0] != 1:
        raise GraphError(f"input must have exactly 1 channel, got {input_shape[0]}")
    if math.prod(input_shape) > MAX_BUFFER_ELEMENTS:
        raise GraphError(
            f"input shape {input_shape} exceeds the buffer cap of "
            f"{MAX_BUFFER_ELEMENTS} elements"
        )
    _check_scale(model.input_scale, "input")
    _check_zero_point(model.input_zero_point, "input")
    _check_integer(model.class_count, "class count")
    if model.class_count < 1:
        raise GraphError(f"class count must be >= 1, got {model.class_count}")

    shapes, terminal = [input_shape], len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        kind = layer.kind
        if kind not in LAYER_KINDS:
            raise GraphError(f"layer {i}: unknown kind {kind!r}")
        _check_scale(layer.out_scale, "output", i)
        # the last layer's output affine is never applied: it yields logits,
        # but the .enm record still stores its zero point as an i32
        if i < terminal:
            _check_zero_point(layer.out_zero_point, "output", i)
        else:
            _check_integer(layer.out_zero_point, "output zero point", i)
        c, h, w = shape = shapes[-1]  # relu6 keeps its input's shape
        if kind == "global_avg_pool":
            shape = (c, 1, 1)
        elif kind == "residual_add":
            if layer.skip_from is None:
                raise GraphError(f"layer {i}: residual_add without a skip source")
            _check_integer(layer.skip_from, "skip source", i)
            if not INPUT_BUFFER <= layer.skip_from < i:
                raise GraphError(
                    f"layer {i}: skip source {layer.skip_from} out of range"
                )
            skip_shape = shapes[layer.skip_from - INPUT_BUFFER]
            if skip_shape != shape:
                raise GraphError(
                    f"layer {i}: residual operands differ, {shape} vs {skip_shape}"
                )
        elif kind in WEIGHTED_KINDS:
            (kh, kw), stride, padding = layer.kernel, layer.stride, layer.padding
            # one test for the common case; numpy integers take the slow path
            if not (type(layer.in_ch) is type(layer.out_ch) is type(kh) is type(kw)
                    is type(stride) is type(padding) is int):
                for what, value in (("in_ch", layer.in_ch), ("out_ch", layer.out_ch),
                                    ("kernel height", kh), ("kernel width", kw),
                                    ("stride", stride), ("padding", padding)):
                    _check_integer(value, what, i)
            if layer.weight is None:
                raise GraphError(f"layer {i}: {kind} has no weights")
            if layer.weight.dtype != _INT8:
                raise GraphError(
                    f"layer {i}: weights must be int8, got {layer.weight.dtype}"
                )
            if layer.weight.size != layer.weight_count():
                raise GraphError(
                    f"layer {i}: expected {layer.weight_count()} weights, "
                    f"got {layer.weight.size}"
                )
            _check_scale(layer.weight_scale, "weight", i)
            if layer.bias is not None:
                if layer.bias.dtype != _INT32 or layer.bias.size != layer.out_ch:
                    raise GraphError(
                        f"layer {i}: bias must be int32 of length {layer.out_ch}"
                    )
            if layer.out_ch < 1:
                raise GraphError(f"layer {i}: {kind} has no output channels")
            if min(layer.kernel) < 1 or layer.stride < 1 or layer.padding < 0:
                raise GraphError(f"layer {i}: bad kernel geometry")
            if layer.in_ch != c:
                raise GraphError(
                    f"layer {i}: {kind} expects {layer.in_ch} channels, input has {c}"
                )
            if kind == "linear":
                if (kh, kw, stride, padding) != (1, 1, 1, 0):
                    raise GraphError(
                        f"layer {i}: linear needs kernel 1x1, stride 1 and padding 0, "
                        f"got kernel {layer.kernel}, stride {stride}, padding {padding}"
                    )
                if (h, w) != (1, 1):
                    raise GraphError(
                        f"layer {i}: linear layer needs a pooled (C,1,1) input, "
                        f"got {shape}"
                    )
            elif kind == "depthwise_conv2d" and layer.out_ch != c:
                raise GraphError(
                    f"layer {i}: depthwise conv must preserve channels, "
                    f"got {c} -> {layer.out_ch}"
                )
            elif kind == "pointwise_conv2d" and (kh, kw) != (1, 1):
                raise GraphError(
                    f"layer {i}: pointwise conv must use a 1x1 kernel, got {kh}x{kw}"
                )
            ho = (h + 2 * padding - kh) // stride + 1
            wo = (w + 2 * padding - kw) // stride + 1
            if ho < 1 or wo < 1:
                raise GraphError(
                    f"layer {i}: {kind} kernel {kh}x{kw} stride {stride} does not "
                    f"fit input {h}x{w}"
                )
            for what, size in (
                ("padded input", c * (h + 2 * padding) * (w + 2 * padding)),
                ("im2col patch matrix", c * kh * kw * ho * wo),
                ("output", layer.out_ch * ho * wo),
            ):
                if size > MAX_BUFFER_ELEMENTS:
                    raise GraphError(
                        f"layer {i}: {kind} {what} of {size} elements exceeds the "
                        f"buffer cap of {MAX_BUFFER_ELEMENTS}"
                    )
            shape = (layer.out_ch, ho, wo)
        shapes.append(shape)

    last = model.layers[-1]
    if last.kind != "linear":
        raise GraphError(f"last layer must be linear, got {last.kind}")
    if last.out_ch != model.class_count:
        raise GraphError(
            f"final layer emits {last.out_ch} logits for {model.class_count} classes"
        )
    return shapes


def check_int32_accumulators(model: ModelGraph) -> None:
    """Reject a weighted layer whose accumulator could overflow int32.

    The worst case of output channel o is sum |w_o| * (128 + |zp_in|) +
    |bias_o|, zp_in being the zero point of the layer's input. This is
    the bound a microcontroller's int32 accumulator must hold. It reads
    every weight, so it runs once when a model is loaded or saved, after
    validate_graph.
    """
    zero_point = model.input_zero_point
    for i, layer in enumerate(model.layers):
        if layer.kind in WEIGHTED_KINDS:
            weight = layer.weight.reshape(layer.out_ch, -1).astype(np.int64)
            worst = np.abs(weight).sum(axis=1) * (128 + abs(zero_point))
            if layer.bias is not None:
                worst += np.abs(layer.bias.astype(np.int64))
            if worst.max() > np.iinfo(np.int32).max:
                raise GraphError(
                    f"layer {i}: {layer.kind} worst-case accumulator "
                    f"{worst.max()} overflows int32"
                )
        zero_point = layer.out_zero_point
