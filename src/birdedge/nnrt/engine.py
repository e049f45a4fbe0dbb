"""Layer execution: the int8 path and its float reference twin.

The int8 path quantizes the input spectrogram with the graph's input
affine, accumulates integer products per layer, and requantizes to int8
between layers by multiplying with a float32 scale and clamping. The one
exception is the terminal linear layer: its 32-bit accumulator is
dequantized directly to float logits (nothing consumes it downstream, so
quantizing it would only discard information) and softmax runs in float.

Conv accumulators are float64 arrays that hold exact integers. The input is
centered on its zero point before any product, so each product is at most
128 * 255 in magnitude and a layer's accumulator is bounded by
fan_in * 128 * 255 + 2**31 (the int32 bias). That stays below 2**53
whenever fan_in <= 2**38, which holds for any weight tensor that fits in
memory. Float64 sums of such integers are exact in any order, so a BLAS
matrix product (stride-1 1x1 convs directly, other convs after im2col) and
kh*kw shifted multiply-adds (depthwise) give the same integers as integer
arithmetic. Requantization multiplies the accumulator by the float32
multiplier in float64, as an integer accumulator would be promoted. The
linear head accumulates in int64.

relu6 and residual_add act on each int8 code alone, so they run as
256-entry tables indexed by the code. relu6 maps every input code to its
requantized output. residual_add looks up (q - zp) * f32(s / s_out) in one
float32 table per operand, sums the two, then rounds, shifts and clamps:
the same float32 operations as computing each element directly. Tables are
memoized on their scalar (scale, zero point) values.

float_reference_infer runs the same dataflow in float32 after dequantizing
all weights and biases, with no activation quantization anywhere. It is the
accuracy oracle the int8 path is measured against.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..exceptions import ShapeError
from ..melspec import MelSpectrogram
from .graph import INPUT_BUFFER, LayerSpec, ModelGraph, validate_graph

# Every int8 code, ordered so that table[codes.view(np.uint8)] looks up
# the entry of each code.
_CODES = np.arange(256, dtype=np.uint8).view(np.int8)


def _im2col(x: np.ndarray, kernel, stride: int, padding: int):
    """Unfold (C, H, W) into (C*kh*kw, Ho*Wo) patches with zero padding."""
    kh, kw = kernel
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    c, ho, wo = windows.shape[:3]
    patches = windows.transpose(0, 3, 4, 1, 2).reshape(c * kh * kw, ho * wo)
    return patches, ho, wo


def _depthwise(x: np.ndarray, weight: np.ndarray, stride: int, padding: int):
    """Per-channel correlation of the float path; weight is (C, kh, kw)."""
    kh, kw = weight.shape[1:]
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    return np.einsum("chwkl,ckl->chw", windows, weight)


def _depthwise_acc(x: np.ndarray, weight: np.ndarray, stride: int) -> np.ndarray:
    """Per-channel correlation of padded x as kh*kw shifted multiply-adds."""
    c, hp, wp = x.shape
    kh, kw = weight.shape[1:]
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    acc = np.zeros((c, ho, wo))
    for i in range(kh):
        rows = slice(i, i + stride * (ho - 1) + 1, stride)
        for j in range(kw):
            cols = slice(j, j + stride * (wo - 1) + 1, stride)
            acc += x[:, rows, cols] * weight[:, i, j, None, None]
    return acc


def _requantize(acc: np.ndarray, multiplier: float, zero_point: int) -> np.ndarray:
    """acc * f32 multiplier, round, shift, clamp to int8."""
    scaled = acc * np.float32(multiplier)
    np.rint(scaled, out=scaled)
    scaled += zero_point
    np.clip(scaled, -128, 127, out=scaled)
    return scaled.astype(np.int8)


def _centered(x: np.ndarray, zero_point: int, padding: int) -> np.ndarray:
    """x - zero_point in float64, zero-padded by `padding` on H and W."""
    c, h, w = x.shape
    out = np.zeros((c, h + 2 * padding, w + 2 * padding))
    inner = out[:, padding : padding + h, padding : padding + w]
    inner[...] = x
    inner -= zero_point
    return out


def _conv_acc(x: np.ndarray, zero_point: int, layer: LayerSpec) -> np.ndarray:
    """Exact float64 accumulator of a conv layer on int8 input x."""
    centered = _centered(x, zero_point, layer.padding)
    if layer.kind == "depthwise_conv2d":
        weight = layer.weight.reshape(layer.out_ch, *layer.kernel).astype(np.float64)
        acc = _depthwise_acc(centered, weight, layer.stride)
    else:
        weight = layer.weight.reshape(layer.out_ch, -1).astype(np.float64)
        if tuple(layer.kernel) == (1, 1) and layer.stride == 1:
            c, h, w = centered.shape
            acc = (weight @ centered.reshape(c, h * w)).reshape(layer.out_ch, h, w)
        else:
            patches, ho, wo = _im2col(centered, layer.kernel, layer.stride, 0)
            acc = (weight @ patches).reshape(layer.out_ch, ho, wo)
    if layer.bias is not None:
        acc += layer.bias.astype(np.float64)[:, None, None]
    return acc


@lru_cache(maxsize=1024)
def _relu6_table(
    in_scale: float, in_zp: int, out_scale: float, out_zp: int
) -> np.ndarray:
    """int8 relu6 output of every input code."""
    real = (_CODES.astype(np.float32) - in_zp) * np.float32(in_scale)
    table = _requantize(np.clip(real, 0.0, 6.0), 1.0 / out_scale, out_zp)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=1024)
def _rescale_table(scale: float, zero_point: int, out_scale: float) -> np.ndarray:
    """float32 (q - zero_point) * f32(scale / out_scale) of every code q."""
    table = (_CODES.astype(np.float32) - zero_point) * np.float32(scale / out_scale)
    table.flags.writeable = False
    return table


def _quantize_input(model: ModelGraph, values: np.ndarray) -> np.ndarray:
    q = (
        np.rint(np.asarray(values, dtype=np.float64) / model.input_scale)
        + model.input_zero_point
    )
    return np.clip(q, -128, 127).astype(np.int8).reshape(model.input_shape)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def _check_input(model: ModelGraph, spec: MelSpectrogram) -> None:
    expected = model.input_shape[1:]
    if spec.values.shape != expected:
        raise ShapeError(
            f"model expects a {expected} spectrogram, got {spec.values.shape}"
        )
    if not np.isfinite(spec.values).all():
        raise ShapeError("spectrogram contains non-finite values")


def infer(model: ModelGraph, spec: MelSpectrogram) -> np.ndarray:
    """Run the int8 path; returns class probabilities summing to 1."""
    validate_graph(model)
    _check_input(model, spec)
    x = _quantize_input(model, spec.values)
    in_scale = float(model.input_scale)
    in_zp = int(model.input_zero_point)
    graph_input = (x, in_scale, in_zp)
    outputs: list[tuple[np.ndarray, float, int]] = []  # (int8 codes, scale, zp)
    last_index = len(model.layers) - 1

    for i, layer in enumerate(model.layers):
        out_scale = float(layer.out_scale)
        out_zp = int(layer.out_zero_point)
        if layer.kind in ("conv2d", "pointwise_conv2d", "depthwise_conv2d"):
            x = _requantize(
                _conv_acc(x, in_zp, layer),
                in_scale * layer.weight_scale / out_scale,
                out_zp,
            )
        elif layer.kind == "relu6":
            x = _relu6_table(in_scale, in_zp, out_scale, out_zp)[x.view(np.uint8)]
        elif layer.kind == "residual_add":
            skip, skip_scale, skip_zp = (
                graph_input if layer.skip_from == INPUT_BUFFER
                else outputs[layer.skip_from]
            )
            total = _rescale_table(in_scale, in_zp, out_scale)[x.view(np.uint8)]
            total += _rescale_table(skip_scale, skip_zp, out_scale)[
                skip.view(np.uint8)
            ]
            np.rint(total, out=total)
            total += out_zp
            x = np.clip(total, -128, 127, out=total).astype(np.int8)
        elif layer.kind == "global_avg_pool":
            mean = (x.astype(np.float64) - in_zp).mean(axis=(1, 2))[:, None, None]
            x = _requantize(mean, in_scale / out_scale, out_zp)
        elif layer.kind == "linear":
            vec = x.reshape(-1).astype(np.int64) - in_zp
            acc = layer.weight.reshape(layer.out_ch, layer.in_ch).astype(np.int64) @ vec
            if layer.bias is not None:
                acc = acc + layer.bias.astype(np.int64)
            if i == last_index:
                logits = acc.astype(np.float64) * (in_scale * layer.weight_scale)
                return _softmax(logits)
            x = _requantize(
                acc.reshape(layer.out_ch, 1, 1),
                in_scale * layer.weight_scale / out_scale,
                out_zp,
            )
        outputs.append((x, out_scale, out_zp))
        in_scale = out_scale
        in_zp = out_zp

    raise AssertionError("validated graph must end in a linear layer")


def _float_forward(model: ModelGraph, values: np.ndarray):
    """Float dataflow shared by the reference path and calibration.

    Returns (logits, per_layer_outputs). Biases are interpreted in units of
    nominal_input_scale * weight_scale, mirroring the int8 path.
    """
    x = np.asarray(values, dtype=np.float32).reshape(model.input_shape)
    outputs: list[np.ndarray] = []
    nominal_scale = model.input_scale
    logits: np.ndarray | None = None

    for i, layer in enumerate(model.layers):
        if layer.kind in ("conv2d", "pointwise_conv2d", "depthwise_conv2d"):
            w = layer.weight.astype(np.float32) * np.float32(layer.weight_scale)
            if layer.kind == "depthwise_conv2d":
                x = _depthwise(
                    x.astype(np.float64),
                    w.reshape(layer.out_ch, *layer.kernel).astype(np.float64),
                    layer.stride,
                    layer.padding,
                ).astype(np.float32)
            else:
                patches, ho, wo = _im2col(
                    x.astype(np.float64), layer.kernel, layer.stride, layer.padding
                )
                x = (
                    (w.reshape(layer.out_ch, -1).astype(np.float64) @ patches)
                    .reshape(layer.out_ch, ho, wo)
                    .astype(np.float32)
                )
            if layer.bias is not None:
                bias_real = layer.bias.astype(np.float32) * np.float32(
                    nominal_scale * layer.weight_scale
                )
                x = x + bias_real[:, None, None]
        elif layer.kind == "relu6":
            x = np.clip(x, 0.0, 6.0)
        elif layer.kind == "residual_add":
            skip = (
                np.asarray(values, dtype=np.float32).reshape(model.input_shape)
                if layer.skip_from == INPUT_BUFFER
                else outputs[layer.skip_from]
            )
            x = x + skip
        elif layer.kind == "global_avg_pool":
            x = x.mean(axis=(1, 2), dtype=np.float64).astype(np.float32)[
                :, None, None
            ]
        elif layer.kind == "linear":
            w = layer.weight.reshape(layer.out_ch, layer.in_ch).astype(
                np.float32
            ) * np.float32(layer.weight_scale)
            acc = w.astype(np.float64) @ x.reshape(-1).astype(np.float64)
            if layer.bias is not None:
                acc = acc + layer.bias.astype(np.float64) * (
                    nominal_scale * layer.weight_scale
                )
            x = acc.astype(np.float32).reshape(layer.out_ch, 1, 1)
            if i == len(model.layers) - 1:
                logits = acc
        outputs.append(x)
        nominal_scale = layer.out_scale
    assert logits is not None
    return logits, outputs


def float_reference_infer(model: ModelGraph, spec: MelSpectrogram) -> np.ndarray:
    """Run the dequantized float path; returns class probabilities."""
    validate_graph(model)
    _check_input(model, spec)
    logits, _ = _float_forward(model, spec.values)
    return _softmax(logits)
