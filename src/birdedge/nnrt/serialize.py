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
save_model, load_model and estimate_rom read it.

Weighted record (conv2d, depthwise_conv2d, pointwise_conv2d, linear):
    kind u8, in_ch u32, out_ch u32, k_h u32, k_w u32, stride u32,
    padding u32, weight_scale f32, weight_zp i32, out_scale f32,
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
from .graph import (
    LAYER_KINDS,
    WEIGHTED_KINDS,
    LayerSpec,
    ModelGraph,
    check_int32_accumulators,
    validate_graph,
)

MODEL_MAGIC = b"ENM1"
MODEL_VERSION = 1

# the header after the version: layer_count, class_count, input C, H, W,
# input_scale, input_zero_point
_HEADER = "<IIIIIfi"

# Per layer kind, the struct format of its record after the kind byte and
# the fields that format holds, in file order. k_h and k_w are the two
# entries of LayerSpec.kernel. A weighted record is followed by
# weight_count() int8 weights and, if has_bias, out_ch int32 biases.
_WEIGHTED_RECORD = (
    "<IIIIIIfifiB",
    ("in_ch", "out_ch", "k_h", "k_w", "stride", "padding", "weight_scale",
     "weight_zero_point", "out_scale", "out_zero_point", "has_bias"),
)
_AFFINE_RECORD = ("<fi", ("out_scale", "out_zero_point"))
_RECORDS = {
    **dict.fromkeys(WEIGHTED_KINDS, _WEIGHTED_RECORD),
    "residual_add": ("<ifi", ("skip_from", "out_scale", "out_zero_point")),
    "relu6": _AFFINE_RECORD,
    "global_avg_pool": _AFFINE_RECORD,
}
_KIND_CODE = {name: code for code, name in enumerate(LAYER_KINDS)}

# Guard rails against absurd headers when parsing untrusted bytes. save_model
# applies them too, so every file it writes loads.
_MAX_LAYERS = 1 << 16
_MAX_DIM = 1 << 20
_MAX_WEIGHTS = 1 << 26


def _check_header(layer_count: int, input_shape) -> None:
    if layer_count > _MAX_LAYERS:
        raise FormatError(f"implausible layer count {layer_count}")
    for dim in input_shape:
        if dim == 0 or dim > _MAX_DIM:
            raise FormatError(f"implausible input dimension {dim}")


def _check_layer(layer: LayerSpec) -> None:
    """The limits of a weighted layer, checked before its weights are read."""
    for dim in (layer.in_ch, layer.out_ch, *layer.kernel):
        if dim == 0 or dim > _MAX_DIM:
            raise FormatError(f"implausible layer dimension {dim}")
    count = layer.weight_count()
    if count > _MAX_WEIGHTS:
        raise FormatError(f"implausible weight count {count}")


def save_model(model: ModelGraph) -> bytes:
    """Serialise a validated model graph to bytes.

    A graph beyond the container's limits, which load_model would refuse,
    is a FormatError.
    """
    validate_graph(model)
    _check_header(len(model.layers), model.input_shape)
    for layer in model.layers:
        if layer.kind in WEIGHTED_KINDS:
            _check_layer(layer)
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
        values = dict(vars(layer), k_h=kh, k_w=kw, has_bias=int(has_bias))
        parts.append(bytes([_KIND_CODE[layer.kind]]))
        parts.append(struct.pack(fmt, *[values[name] for name in fields]))
        if layer.kind in WEIGHTED_KINDS:
            parts.append(np.ascontiguousarray(layer.weight, dtype=np.int8).tobytes())
            if has_bias:
                parts.append(np.ascontiguousarray(layer.bias, dtype="<i4").tobytes())
    return b"".join(parts)


def estimate_rom(model: ModelGraph) -> int:
    """Bytes of parameters, quantization constants, and graph metadata.

    Equals the size of the serialized container, so it is invariant to
    activation shapes and grows with every stored constant. The size is
    summed from the container layout; no byte is packed.
    """
    validate_graph(model)
    return _container_size(model)


def _container_size(model: ModelGraph) -> int:
    """estimate_rom of a graph that has passed validate_graph."""
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
    kernel = (values.pop("k_h"), values.pop("k_w"))
    has_bias = values.pop("has_bias")
    layer = LayerSpec(kind=kind, kernel=kernel, **values)
    _check_layer(layer)
    layer.weight = np.frombuffer(reader.raw(layer.weight_count()), dtype=np.int8).copy()
    if has_bias:
        layer.bias = np.frombuffer(
            reader.raw(4 * layer.out_ch), dtype="<i4"
        ).astype(np.int32)
    return layer


def load_model(data: bytes) -> ModelGraph:
    """Parse and validate a model container.

    Raises:
        FormatError: bad magic, truncation, unknown layer codes, trailing
            bytes, or absurd dimensions.
        UnsupportedError: a container version this build does not read.
        GraphError: the file parses but the graph is structurally invalid,
            exceeds the buffer cap, or has a layer whose worst-case
            accumulator overflows int32.
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
    model = ModelGraph(
        layers=layers,
        class_count=class_count,
        input_shape=(c, h, w),
        input_scale=input_scale,
        input_zero_point=input_zp,
    )
    validate_graph(model)
    check_int32_accumulators(model)
    return model
