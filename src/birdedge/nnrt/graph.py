"""Model graph data types, shape inference, and structural validation:
a built graph is an immutable value with private read-only arrays, checked
whole once by validate_graph, that compares and hashes by identity."""

from __future__ import annotations

import math
from contextlib import suppress
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

# Most elements of one inference buffer: the graph input, a conv's
# zero-padded input, its im2col patch matrix, or its output. 2**24 float64
# elements are 128 MiB; no fixture buffer exceeds 288,000. The whole patch
# matrix is capped although inference no longer allocates it: it copies
# the patches in row tiles under MAX_TILE_BYTES.
MAX_BUFFER_ELEMENTS = 1 << 24

# Most bytes of patches a weighted layer copies at once (256 KiB): its
# im2col patch matrix is built in tiles of whole output rows that fit, and
# a row larger than the cap is a tile of its own.
MAX_TILE_BYTES = 1 << 18


def _plain(value):
    """A numpy integer or float as the Python int or float it equals;
    anything else, np.bool_ included, as it is."""
    if isinstance(value, np.integer):
        return int(value)
    return float(value) if isinstance(value, np.floating) else value


@dataclass(frozen=True, eq=False)
class LayerSpec:
    """One layer of a model graph.

    Weighted kinds carry an int8 weight tensor with a symmetric per-tensor
    scale (its zero point is 0, so no field holds it) and an
    optional per-output-channel int32 bias expressed in units of
    input_scale * weight_scale. Every kind carries the affine quantization
    of its output activation. Its arrays are read-only copies of those given.
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

    def __post_init__(self):
        for name, value in tuple(vars(self).items()):
            if isinstance(value, np.generic):
                object.__setattr__(self, name, _plain(value))
        with suppress(TypeError):  # not a sequence: validate_graph names it
            object.__setattr__(self, "kernel", tuple(map(_plain, self.kernel)))
        for name in ("weight", "bias"):
            if (array := getattr(self, name)) is not None:
                array = np.asarray(array)
                # a read-only view of an immutable copy, whose flag cannot be reset
                with suppress(ValueError):  # an object array: validate_graph names it
                    array = np.frombuffer(array.tobytes(), array.dtype).reshape(array.shape)
                object.__setattr__(self, name, array)

    def weight_count(self) -> int:
        """Number of int8 weights: out_ch rows of one fan-in each, 0 for
        kinds without weights."""
        return _weight_count(self.kind, self.in_ch, self.out_ch, self.kernel)


def _weight_count(kind: str, in_ch: int, out_ch: int, kernel) -> int:
    """LayerSpec.weight_count of a layer not yet built. The .enm record,
    the FLOP count and the fixture's weight draw all take the weight
    geometry from here."""
    if kind in ("conv2d", "pointwise_conv2d"):
        return out_ch * in_ch * kernel[0] * kernel[1]
    if kind == "depthwise_conv2d":
        return out_ch * kernel[0] * kernel[1]
    if kind == "linear":
        return out_ch * in_ch
    return 0


@dataclass(frozen=True, eq=False)
class ModelGraph:
    """An ordered layer tuple plus input quantization and class count, checked
    once, when built; edit one by building another with dataclasses.replace.

    The default input affine maps -80..0 dB onto the int8 codes; its scale
    is the float32 value the .enm container stores, so a graph built on it
    classifies the same after save_model and load_model.
    """

    layers: tuple[LayerSpec, ...] = ()
    class_count: int = 2
    input_shape: tuple[int, int, int] = (1, 64, 249)  # a list is stored as the tuple
    input_scale: float = float(np.float32(80.0 / 255.0))
    input_zero_point: int = 127
    shapes: tuple[tuple[int, int, int], ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers or ()))  # None: no layers
        for name in ("class_count", "input_scale", "input_zero_point"):
            object.__setattr__(self, name, _plain(getattr(self, name)))
        shapes = tuple(validate_graph(self))  # every buffer's (C, H, W)
        object.__setattr__(self, "input_shape", shapes[0])
        object.__setattr__(self, "shapes", shapes)


def _check_scale(value: float, what: str, i: int | None = None) -> None:
    """GraphError unless MIN_SCALE <= value <= MAX_SCALE, formatted only on failure."""
    # a NaN scale fails every comparison, so the range test rejects it
    if not MIN_SCALE <= value <= MAX_SCALE:
        where = "" if i is None else f"layer {i}: "
        raise GraphError(f"{where}{what} scale must be in [2**-32, 2**32], got {value}")


def _check_integer(value: int, what: str, i: int | None = None) -> None:
    """GraphError unless value is an int; a float 1.0 is not one."""
    if not isinstance(value, int):
        where = "" if i is None else f"layer {i}: "
        raise GraphError(f"{where}{what} must be an integer, got {value!r}")


def _check_zero_point(value: int, what: str, i: int | None = None) -> None:
    """GraphError unless value is an integer in [-128, 127], formatted only
    on failure."""
    if not (-128 <= value <= 127 and isinstance(value, int)):
        _check_integer(value, f"{what} zero point", i)
        where = "" if i is None else f"layer {i}: "
        raise GraphError(f"{where}{what} zero point must be in [-128, 127], got {value}")


def _worst_accumulator(layer: LayerSpec, zero_point: int) -> int:
    """B = max_o sum |w_o| * (128 + |zp_in|) + |bias_o| bounds every partial sum,
    bias included, of a weighted layer's accumulator on codes q, |q - zp_in| being
    at most 128 + |zp_in|. validate_graph checks B < 2**31, the int8 plan B < 2**24."""
    bias = 0 if layer.bias is None else np.abs(layer.bias.astype(np.int64))
    weight = np.abs(layer.weight.reshape(layer.out_ch, -1).astype(np.int64))
    return int((weight.sum(axis=1) * (128 + abs(zero_point)) + bias).max())


def validate_graph(model: ModelGraph) -> list[tuple[int, int, int]]:
    """Check the whole graph; raise GraphError on the first violation.

    Returns the (C, H, W) shape of every buffer in the order inference fills
    them: shapes[k - INPUT_BUFFER] is the output of layer k, so shapes[0] is
    the graph input. A weighted layer's last check: _worst_accumulator fits int32.
    """
    if not model.layers:
        raise GraphError("model has no layers")
    try:
        input_shape = tuple(map(_plain, model.input_shape))  # a list != a tuple
    except TypeError:
        raise GraphError(
            f"input shape must be a sequence of 3 integers, got {model.input_shape!r}"
        ) from None
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
    zero_point = model.input_zero_point  # of the layer's input
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
            try:
                kh, kw = layer.kernel
            except (TypeError, ValueError):
                raise GraphError(
                    f"layer {i}: kernel must be a pair of integers, got {layer.kernel!r}"
                ) from None
            stride, padding = layer.stride, layer.padding
            for what, value in (("in_ch", layer.in_ch), ("out_ch", layer.out_ch),
                                ("kernel height", kh), ("kernel width", kw),
                                ("stride", stride), ("padding", padding)):
                _check_integer(value, what, i)
            if layer.weight is None:
                raise GraphError(f"layer {i}: {kind} has no weights")
            if layer.weight.dtype != np.int8:
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
                if layer.bias.dtype != np.int32 or layer.bias.size != layer.out_ch:
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
            if (worst := _worst_accumulator(layer, zero_point)) > np.iinfo(np.int32).max:
                raise GraphError(
                    f"layer {i}: {kind} worst-case accumulator {worst} overflows int32"
                )
            shape = (layer.out_ch, ho, wo)
        shapes.append(shape)
        zero_point = layer.out_zero_point

    last = model.layers[-1]
    if last.kind != "linear":
        raise GraphError(f"last layer must be linear, got {last.kind}")
    if last.out_ch != model.class_count:
        raise GraphError(
            f"final layer emits {last.out_ch} logits for {model.class_count} classes"
        )
    return shapes

