"""Binary model container, little-endian, magic "ENM1".

Layout:

    magic            4 bytes  b"ENM1"
    version          u32      currently 1
    layer_count      u32
    class_count      u32
    input C, H, W    u32 x3
    input_scale      f32
    input_zero_point i32
    layer records    see below

A layer record is the kind byte (the kind's index in LAYER_KINDS) and
then the fields below; the table _RECORDS is this layout, and
save_model, load_model and _container_size read it.

Weighted record (conv2d, depthwise_conv2d, pointwise_conv2d, linear):
    kind u8, in_ch u32, out_ch u32, k_h u32, k_w u32, stride u32,
    padding u32, weight_scale f32, weight_zp i32 (always 0), out_scale f32,
    out_zp i32, has_bias u8, weights int8[n], bias i32[out_ch] if has_bias

relu6 / global_avg_pool record:
    kind u8, out_scale f32, out_zp i32

residual_add record:
    kind u8, skip_from i32, out_scale f32, out_zp i32

Scales are stored as f32; graphs built by this package round their scales
to f32 on construction, so save -> load -> save is byte identical.
"""

from __future__ import annotations

import struct

import numpy as np

from ..exceptions import FormatError, UnsupportedError
from .graph import LAYER_KINDS, WEIGHTED_KINDS, LayerSpec, ModelGraph, _weight_count

MODEL_MAGIC = b"ENM1"
MODEL_VERSION = 1

# the header after the version: layer_count, class_count, input C, H, W,
# input_scale, input_zero_point
_HEADER = "<IIIIIfi"

# Per layer kind, the struct format of its record after the kind byte and
# the fields that format holds, in file order: k_h and k_w are the entries
# of LayerSpec.kernel, and weight_zp is always 0. A weighted record is
# followed by weight_count() int8 weights and, if has_bias, out_ch int32 biases.
_WEIGHTED_RECORD = (
    "<IIIIIIfifiB",
    ("in_ch", "out_ch", "k_h", "k_w", "stride", "padding", "weight_scale",
     "weight_zp", "out_scale", "out_zero_point", "has_bias"),
)
_AFFINE_RECORD = ("<fi", ("out_scale", "out_zero_point"))
_RECORDS = {
    **dict.fromkeys(WEIGHTED_KINDS, _WEIGHTED_RECORD),
    "residual_add": ("<ifi", ("skip_from", "out_scale", "out_zero_point")),
    "relu6": _AFFINE_RECORD,
    "global_avg_pool": _AFFINE_RECORD,
}
_KIND_CODE = {name: code for code, name in enumerate(LAYER_KINDS)}

# Upper limits of untrusted headers; validate_graph owns every lower bound.
# save_model applies them too, so every file it writes loads.
_MAX_LAYERS = 1 << 16
_MAX_DIM = 1 << 20
_MAX_WEIGHTS = 1 << 26


def _check_header(layer_count: int, input_shape) -> None:
    if layer_count > _MAX_LAYERS:
        raise FormatError(f"implausible layer count {layer_count}")
    if (dim := max(input_shape)) > _MAX_DIM:
        raise FormatError(f"implausible input dimension {dim}")


def _check_layer(kind: str, in_ch: int, out_ch: int, kernel) -> int:
    """The limits of a weighted layer, checked before its weights are read;
    returns its weight count."""
    if (dim := max(in_ch, out_ch, *kernel)) > _MAX_DIM:
        raise FormatError(f"implausible layer dimension {dim}")
    if (count := _weight_count(kind, in_ch, out_ch, kernel)) > _MAX_WEIGHTS:
        raise FormatError(f"implausible weight count {count}")
    return count


def save_model(model: ModelGraph) -> bytes:
    """Serialise a model graph, checked whole when it was built, to bytes.

    A graph beyond the container's limits, which load_model would refuse,
    is a FormatError, so every file it writes loads.
    """
    _check_header(len(model.layers), model.input_shape)
    for layer in model.layers:
        if layer.kind in WEIGHTED_KINDS:
            _check_layer(layer.kind, layer.in_ch, layer.out_ch, layer.kernel)
    parts = [
        MODEL_MAGIC,
        struct.pack("<I", MODEL_VERSION),
        struct.pack(
            _HEADER,
            len(model.layers),
            model.class_count,
            *model.input_shape,
            model.input_scale,
            model.input_zero_point,
        ),
    ]
    for layer in model.layers:
        fmt, fields = _RECORDS[layer.kind]
        has_bias = layer.bias is not None
        kh, kw = layer.kernel
        values = dict(vars(layer), k_h=kh, k_w=kw, weight_zp=0, has_bias=int(has_bias))
        parts.append(bytes([_KIND_CODE[layer.kind]]))
        parts.append(struct.pack(fmt, *[values[name] for name in fields]))
        if layer.kind in WEIGHTED_KINDS:
            parts.append(np.ascontiguousarray(layer.weight, dtype=np.int8).tobytes())
            if has_bias:
                parts.append(np.ascontiguousarray(layer.bias, dtype="<i4").tobytes())
    return b"".join(parts)


def _container_size(model: ModelGraph) -> int:
    """len(save_model(model)) of a built graph, summed from the container
    layout without packing a byte."""
    # magic, version u32, then the header
    size = len(MODEL_MAGIC) + 4 + struct.calcsize(_HEADER)
    for layer in model.layers:
        size += 1 + struct.calcsize(_RECORDS[layer.kind][0])  # kind byte, record
        if layer.kind in WEIGHTED_KINDS:
            size += layer.weight_count()  # int8 weights
            if layer.bias is not None:
                size += 4 * layer.out_ch  # int32 biases
    return size


class _Reader:
    """Cursor over a byte string that fails loudly on overruns."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.raw(struct.calcsize(fmt)))

    def raw(self, size: int) -> bytes:
        if self.pos + size > len(self.data):
            raise FormatError(
                f"model file truncated at byte {self.pos}, needed {size} more"
            )
        chunk = self.data[self.pos : self.pos + size]
        self.pos += size
        return chunk


def _read_layer(reader: _Reader) -> LayerSpec:
    """Parse one layer record: its kind byte, fields, weights and bias."""
    (code,) = reader.unpack("<B")
    if code >= len(LAYER_KINDS):
        raise FormatError(f"unknown layer kind code {code}")
    kind = LAYER_KINDS[code]
    fmt, fields = _RECORDS[kind]
    values = dict(zip(fields, reader.unpack(fmt)))
    if kind not in WEIGHTED_KINDS:
        return LayerSpec(kind=kind, **values)
    if (weight_zp := values.pop("weight_zp")) != 0:
        raise FormatError(f"symmetric weights require zero point 0, got {weight_zp}")
    kernel = (values.pop("k_h"), values.pop("k_w"))
    count = _check_layer(kind, values["in_ch"], values["out_ch"], kernel)
    weight = np.frombuffer(reader.raw(count), dtype=np.int8)
    bias = None
    if values.pop("has_bias"):
        bias = np.frombuffer(reader.raw(4 * values["out_ch"]), dtype="<i4").astype(np.int32)
    return LayerSpec(kind=kind, kernel=kernel, weight=weight, bias=bias, **values)


def load_model(data: bytes) -> ModelGraph:
    """Parse a model container into a graph, which checks itself whole,
    the int32 accumulator bound included, when built.

    Raises:
        FormatError: bad magic, truncation, unknown layer codes, trailing
            bytes, sizes above the limits, or a weight zero point other than 0.
        UnsupportedError: a container version this build does not read.
        GraphError: the file parses but the graph is structurally invalid
            (a 0 size too), exceeds the buffer cap, or has a layer whose
            worst-case accumulator overflows int32.
    """
    reader = _Reader(data)
    if reader.raw(4) != MODEL_MAGIC:
        raise FormatError("bad model magic")
    (version,) = reader.unpack("<I")
    if version != MODEL_VERSION:
        raise UnsupportedError(f"model version {version} not supported")
    layer_count, class_count, c, h, w, input_scale, input_zp = reader.unpack(_HEADER)
    _check_header(layer_count, (c, h, w))

    layers = [_read_layer(reader) for _ in range(layer_count)]
    if reader.pos != len(data):
        raise FormatError(
            f"{len(data) - reader.pos} trailing bytes after the last layer"
        )
    return ModelGraph(
        layers=layers,
        class_count=class_count,
        input_shape=(c, h, w),
        input_scale=input_scale,
        input_zero_point=input_zp,
    )
