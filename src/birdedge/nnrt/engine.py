"""Layer execution: one graph walk, two numerics, one set of conv kernels.

_walk owns the dataflow: the buffer of layer outputs, the residual skip
lookup, the scale and zero point of each layer's input and skip, and the
terminal-linear rule (the last layer yields logits, not an activation).
A numerics is two plain functions, one for a layer's output and one for
the logits. Weighted layers of both run on the same correlation kernel
over the centered input, zero-padded when the layer pads: one strided
im2col view, then one BLAS product per layer, stacked per channel for
depthwise. A stride-1 1x1 conv or a linear layer unfolds without a copy.

int8: the input is quantized with the graph's input affine, each layer
requantizes to int8 (float32 multiplier, round, clamp), and the terminal
accumulator is dequantized straight to logits. Inputs are centered on
their zero point: |q - zp_in| <= 128 + |zp_in| and |w| <= 128 bound every
partial sum by B = fan_in * 128 * (128 + |zp_in|). A layer accumulates in
float32 when B < 2**24 and in float64 (exact to 2**53) otherwise, so sums
are exact integers in any order; bias and requantize run in float64, and
the dtype never shows in the output.

The other int8 layers are defined per element, on a code q with its
affine (s, zp) and the layer's output affine (s_out, zp_out); rint rounds
half to even, clamp is to [-128, 127], and f32(v) is v rounded to float32:
  relu6:    r = min(max(f32(q - zp) * f32(s), 0), 6), then
            clamp(rint(r * f32(1 / s_out)) + zp_out), all in float32;
  residual: r = f32(q - zp) * f32(s / s_out)
                + f32(q_skip - zp_skip) * f32(s_skip / s_out)
            in float32, then clamp(rint(r) + zp_out);
  pool:     m = the float64 mean of q - zp over H and W, then
            clamp(rint(m * f32(s / s_out)) + zp_out) in float64.
Every int8 rounding is _requantize, with multiplier 1.0 for the input
and the residual table. relu6 and residual_add run as lookups, tables
memoized on the scalar affines, never on the model: relu6 maps the
activation's bytes with bytes.translate by a 256-byte table, and
residual_add takes one entry per element from a 65536-entry int8 table at
index (x << 8) | skip of the two uint8 codes.

float (float_reference_infer, and fixture calibration via _float_forward):
weights and biases are dequantized, weighted layers correlate in float64,
and activations stay float32. Convs add
their bias in float32 after the cast, the pool averages in float64, and
linear layers add their bias in float64. It is the accuracy oracle of the
int8 path.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..exceptions import ShapeError
from ..melspec import MelSpectrogram
from .graph import INPUT_BUFFER, WEIGHTED_KINDS, LayerSpec, ModelGraph

# Every int8 code in float32, ordered so that table[codes.view(np.uint8)]
# looks up the entry of each code.
_CODES = np.arange(256, dtype=np.uint8).view(np.int8).astype(np.float32)


def _im2col(x: np.ndarray, kernel, stride: int):
    """Unfold contiguous padded (C, H, W) into (C*kh*kw, Ho*Wo) patches
    through a bounds-checked window view on x's buffer (a tenth of the
    cost of as_strided)."""
    c, hp, wp = x.shape
    kh, kw = kernel
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    sc, sh, sw = x.strides
    windows = np.ndarray(
        (c, kh, kw, ho, wo), x.dtype, x, 0, (sc, sh, sw, sh * stride, sw * stride)
    )
    return windows.reshape(c * kh * kw, ho * wo), ho, wo


def _centered(x: np.ndarray, zero_point: int, padding: int, dtype) -> np.ndarray:
    """x - zero_point in dtype, zero-padded by `padding` on H and W."""
    # dtype= runs the subtraction in dtype; without it an int8 x would
    # subtract in int8 and wrap before the cast
    if padding == 0:
        return np.subtract(x, zero_point, dtype=dtype)
    c, h, w = x.shape
    out = np.zeros((c, h + 2 * padding, w + 2 * padding), dtype=dtype)
    inner = out[:, padding : padding + h, padding : padding + w]
    np.subtract(x, zero_point, out=inner, dtype=dtype)
    return out


def _correlate(x: np.ndarray, zero_point: int, weight, layer: LayerSpec) -> np.ndarray:
    """Correlation of x - zero_point with the layer's geometry, in the
    weight's dtype: one BLAS product over the im2col patches, stacked per
    channel for depthwise."""
    x = _centered(x, zero_point, layer.padding, weight.dtype)
    patches, ho, wo = _im2col(x, layer.kernel, layer.stride)
    if layer.kind == "depthwise_conv2d":
        patches = patches.reshape(layer.out_ch, -1, ho * wo)
        acc = weight.reshape(layer.out_ch, 1, -1) @ patches
    else:
        acc = weight.reshape(layer.out_ch, -1) @ patches
    return acc.reshape(layer.out_ch, ho, wo)


def _walk(model: ModelGraph, x: np.ndarray, layer_out, logits_out):
    """Run the graph on input x; returns (logits, per-layer outputs).

    layer_out(layer, x, scale, zero_point, skip) computes every layer but
    the last, skip being the (output, scale, zero point) a residual adds;
    logits_out(layer, x, scale, zero_point) computes the last.
    """
    # buffers[k - INPUT_BUFFER] holds the output of layer k; the graph
    # input comes first, as layer INPUT_BUFFER (-1).
    buffers = [(x, model.input_scale, model.input_zero_point)]
    for layer in model.layers[:-1]:
        residual = layer.kind == "residual_add"
        skip = buffers[layer.skip_from - INPUT_BUFFER] if residual else None
        x = layer_out(layer, *buffers[-1], skip)
        buffers.append((x, layer.out_scale, layer.out_zero_point))
    return logits_out(model.layers[-1], *buffers[-1]), buffers[1:]


def _requantize(acc: np.ndarray, multiplier: float, zero_point: int) -> np.ndarray:
    """acc * f32 multiplier, round, shift, clamp to int8; overwrites acc."""
    acc *= np.float32(multiplier)
    np.rint(acc, out=acc)
    acc += zero_point
    # two ufunc calls dispatch faster than np.clip's Python wrappers on the
    # many small accumulators of a walk
    np.maximum(acc, -128, out=acc)
    np.minimum(acc, 127, out=acc)
    return acc.astype(np.int8)


@lru_cache(maxsize=1024)
def _relu6_table(
    in_scale: float, in_zp: int, out_scale: float, out_zp: int
) -> bytes:
    """int8 relu6 output of every input code, as the bytes.translate table."""
    real = (_CODES - in_zp) * np.float32(in_scale)
    return _requantize(np.clip(real, 0.0, 6.0), 1.0 / out_scale, out_zp).tobytes()


# 64 KiB a table, so the cache holds at most 4 MiB. This assumes at most
# 64 residual adds of distinct affines per graph (the fixture has 10): a
# larger graph evicts on every walk and rebuilds each table, ~0.1 ms apiece.
@lru_cache(maxsize=64)
def _residual_table(
    scale: float, zero_point: int, skip_scale: float, skip_zp: int,
    out_scale: float, out_zp: int,
) -> np.ndarray:
    """int8 residual sum of every (x code, skip code) pair, flat at index
    (x << 8) | skip of the uint8 codes, added in float32 on the out scale."""
    x_rescaled = (_CODES - zero_point) * np.float32(scale / out_scale)
    skip_rescaled = (_CODES - skip_zp) * np.float32(skip_scale / out_scale)
    table = _requantize(x_rescaled[:, None] + skip_rescaled, 1.0, out_zp).reshape(-1)
    table.flags.writeable = False
    return table


def _int8_acc(layer: LayerSpec, x: np.ndarray, zero_point: int) -> np.ndarray:
    """Exact float64 accumulator of a weighted layer on int8 input x,
    correlated in float32 when the module's bound B is below 2**24."""
    bound = layer.weight.size // layer.out_ch * 128 * (128 + abs(zero_point))
    weight = layer.weight.astype(np.float32 if bound < 2**24 else np.float64)
    acc = _correlate(x, zero_point, weight, layer).astype(np.float64, copy=False)
    if layer.bias is not None:
        acc += layer.bias.astype(np.float64)[:, None, None]
    return acc


def _int8_layer(layer: LayerSpec, x, scale: float, zero_point: int, skip):
    out_scale, out_zp = layer.out_scale, layer.out_zero_point
    if layer.kind in WEIGHTED_KINDS:
        multiplier = scale * layer.weight_scale / out_scale
        return _requantize(_int8_acc(layer, x, zero_point), multiplier, out_zp)
    if layer.kind == "relu6":
        table = _relu6_table(scale, zero_point, out_scale, out_zp)
        return np.frombuffer(x.tobytes().translate(table), np.int8).reshape(x.shape)
    if layer.kind == "residual_add":
        skip_x, skip_scale, skip_zp = skip
        table = _residual_table(scale, zero_point, skip_scale, skip_zp, out_scale, out_zp)
        index = np.left_shift(x.view(np.uint8), 8, dtype=np.uint16)
        index |= skip_x.view(np.uint8)
        return np.take(table, index)
    # global_avg_pool
    mean = (x.astype(np.float64) - zero_point).mean(axis=(1, 2))[:, None, None]
    return _requantize(mean, scale / out_scale, out_zp)


def _int8_logits(layer: LayerSpec, x, scale: float, zero_point: int) -> np.ndarray:
    return _int8_acc(layer, x, zero_point).reshape(-1) * (scale * layer.weight_scale)


def _float_weight(layer: LayerSpec) -> np.ndarray:
    w = layer.weight.astype(np.float32) * np.float32(layer.weight_scale)
    return w.astype(np.float64)


def _float_layer(layer: LayerSpec, x, scale: float, zero_point: int, skip):
    if layer.kind == "linear":
        return _float_logits(layer, x, scale, zero_point).astype(np.float32)
    if layer.kind in WEIGHTED_KINDS:
        x = _correlate(x, 0, _float_weight(layer), layer).astype(np.float32)
        if layer.bias is not None:
            bias_scale = np.float32(scale * layer.weight_scale)
            x = x + (layer.bias.astype(np.float32) * bias_scale)[:, None, None]
        return x
    if layer.kind == "relu6":
        return np.clip(x, 0.0, 6.0)
    if layer.kind == "residual_add":
        return x + skip[0]
    # global_avg_pool
    return x.mean(axis=(1, 2), dtype=np.float64).astype(np.float32)[:, None, None]


def _float_logits(layer: LayerSpec, x, scale: float, zero_point: int) -> np.ndarray:
    acc = _correlate(x, 0, _float_weight(layer), layer)
    if layer.bias is not None:
        acc += (layer.bias * (scale * layer.weight_scale))[:, None, None]
    return acc


def _quantize_input(model: ModelGraph, values: np.ndarray) -> np.ndarray:
    q = np.asarray(values, dtype=np.float64) / model.input_scale
    return _requantize(q, 1.0, model.input_zero_point).reshape(model.input_shape)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax through math.exp: np.exp's last bit depends on numpy's SIMD loop."""
    e = np.array([math.exp(v) for v in (logits - logits.max()).tolist()])
    return e / e.sum()


def _check_input(model: ModelGraph, spec: MelSpectrogram) -> None:
    """Both inference entries' spectrogram checks; the graph was checked when built."""
    if spec.values.shape != (expected := model.input_shape[1:]):
        raise ShapeError(
            f"model expects a {expected} spectrogram, got {spec.values.shape}"
        )
    if not np.isfinite(spec.values).all():
        raise ShapeError("spectrogram contains non-finite values")


def infer(model: ModelGraph, spec: MelSpectrogram) -> np.ndarray:
    """Run the int8 path; returns class probabilities summing to 1.

    The input is quantized with the model's input affine, saturating: dB
    values beyond the range it covers (-80..0 dB for the fixture models)
    are clamped to the nearest int8 code, so +500 dB classifies exactly
    like 0 dB and -1e6 dB exactly like -80 dB.
    """
    _check_input(model, spec)
    x = _quantize_input(model, spec.values)
    logits, _ = _walk(model, x, _int8_layer, _int8_logits)
    return _softmax(logits)


def _float_forward(model: ModelGraph, values: np.ndarray):
    """Float path of the reference and calibration: (logits, layer outputs)."""
    x = np.asarray(values, dtype=np.float32).reshape(model.input_shape)
    logits, outputs = _walk(model, x, _float_layer, _float_logits)
    per_layer = [out for out, _, _ in outputs] + [logits.astype(np.float32)]
    return logits.reshape(-1), per_layer


def float_reference_infer(model: ModelGraph, spec: MelSpectrogram) -> np.ndarray:
    """Run the dequantized float path; returns class probabilities."""
    _check_input(model, spec)
    logits, _ = _float_forward(model, spec.values)
    return _softmax(logits)
