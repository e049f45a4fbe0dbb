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

_KIND_CODE = {name: code for code, name in enumerate(LAYER_KINDS)}
_CODE_KIND = {code: name for name, code in _KIND_CODE.items()}

# Guard rails against absurd headers when parsing untrusted bytes.
_MAX_DIM = 1 << 20
_MAX_WEIGHTS = 1 << 26


def save_model(model: ModelGraph) -> bytes:
    """Serialise a validated model graph to bytes."""
    validate_graph(model)
    parts = [
        MODEL_MAGIC,
        struct.pack(
            "<IIIIIIfi",
            MODEL_VERSION,
            len(model.layers),
            model.class_count,
            *model.input_shape,
            model.input_scale,
            model.input_zero_point,
        ),
    ]
    for layer in model.layers:
        code = _KIND_CODE[layer.kind]
        if layer.kind in WEIGHTED_KINDS:
            has_bias = layer.bias is not None
            parts.append(
                struct.pack(
                    "<BIIIIIIfifiB",
                    code,
                    layer.in_ch,
                    layer.out_ch,
                    layer.kernel[0],
                    layer.kernel[1],
                    layer.stride,
                    layer.padding,
                    layer.weight_scale,
                    layer.weight_zero_point,
                    layer.out_scale,
                    layer.out_zero_point,
                    int(has_bias),
                )
            )
            parts.append(np.ascontiguousarray(layer.weight, dtype=np.int8).tobytes())
            if has_bias:
                parts.append(
                    np.ascontiguousarray(layer.bias, dtype="<i4").tobytes()
                )
        elif layer.kind == "residual_add":
            parts.append(
                struct.pack(
                    "<Bifi",
                    code,
                    layer.skip_from,
                    layer.out_scale,
                    layer.out_zero_point,
                )
            )
        else:  # relu6, global_avg_pool
            parts.append(
                struct.pack("<Bfi", code, layer.out_scale, layer.out_zero_point)
            )
    return b"".join(parts)


class _Reader:
    """Cursor over a byte string that fails loudly on overruns."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def unpack(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise FormatError(
                f"model file truncated at byte {self.pos}, needed {size} more"
            )
        values = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return values

    def raw(self, size: int) -> bytes:
        if self.pos + size > len(self.data):
            raise FormatError(
                f"model file truncated at byte {self.pos}, needed {size} more"
            )
        chunk = self.data[self.pos : self.pos + size]
        self.pos += size
        return chunk

    def done(self) -> bool:
        return self.pos == len(self.data)


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
    layer_count, class_count, c, h, w = reader.unpack("<IIIII")
    input_scale, input_zp = reader.unpack("<fi")
    if layer_count > 1 << 16:
        raise FormatError(f"implausible layer count {layer_count}")
    for dim in (c, h, w):
        if dim == 0 or dim > _MAX_DIM:
            raise FormatError(f"implausible input dimension {dim}")

    layers: list[LayerSpec] = []
    for _ in range(layer_count):
        (code,) = reader.unpack("<B")
        kind = _CODE_KIND.get(code)
        if kind is None:
            raise FormatError(f"unknown layer kind code {code}")
        if kind in WEIGHTED_KINDS:
            in_ch, out_ch, kh, kw, stride, padding = reader.unpack("<IIIIII")
            weight_scale, weight_zp, out_scale, out_zp, has_bias = reader.unpack(
                "<fifiB"
            )
            for dim in (in_ch, out_ch, kh, kw):
                if dim == 0 or dim > _MAX_DIM:
                    raise FormatError(f"implausible layer dimension {dim}")
            layer = LayerSpec(
                kind=kind,
                in_ch=in_ch,
                out_ch=out_ch,
                kernel=(kh, kw),
                stride=stride,
                padding=padding,
                weight_scale=weight_scale,
                weight_zero_point=weight_zp,
                out_scale=out_scale,
                out_zero_point=out_zp,
            )
            count = layer.weight_count()
            if count > _MAX_WEIGHTS:
                raise FormatError(f"implausible weight count {count}")
            layer.weight = np.frombuffer(reader.raw(count), dtype=np.int8).copy()
            if has_bias:
                layer.bias = np.frombuffer(
                    reader.raw(4 * out_ch), dtype="<i4"
                ).astype(np.int32)
            layers.append(layer)
        elif kind == "residual_add":
            skip_from, out_scale, out_zp = reader.unpack("<ifi")
            layers.append(
                LayerSpec(
                    kind=kind,
                    skip_from=skip_from,
                    out_scale=out_scale,
                    out_zero_point=out_zp,
                )
            )
        else:
            out_scale, out_zp = reader.unpack("<fi")
            layers.append(
                LayerSpec(kind=kind, out_scale=out_scale, out_zero_point=out_zp)
            )
    if not reader.done():
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
