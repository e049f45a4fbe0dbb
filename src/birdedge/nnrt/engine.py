"""Layer execution: one graph walk, two numerics, one set of conv kernels.

_walk owns the dataflow: the buffer of layer outputs, the residual skip
lookup and the terminal-linear rule (the last layer yields logits, not an
activation). It runs a plan per model and numerics, built on first use by
threading each layer's input and skip affines through the layers once, and
kept, weakly keyed by the model, while the model lives: a built graph is
immutable and hashes by identity, so its plan cannot go stale. A numerics
is a step builder, (layer, shape, scale, zero_point, skip_affine, last) ->
run(x, skip), that casts weights and makes multipliers and tables once.
Weighted layers of both run on the same correlation kernel, _correlation,
whose geometry is fixed from the layer's input shape in model.shapes: the
centered input in C order, whatever the layout of x, zero-padded when
the layer pads, one strided im2col view, then one BLAS product per row
tile, stacked per channel for depthwise. The patches are copied a tile
of whole output rows at a time, the most rows under graph.MAX_TILE_BYTES
(one at least), each tile's product landing in its output rows of a
per-call accumulator; a layer whose patches fit one tile runs a single
product. A stride-1 1x1 conv or a linear layer unfolds without a copy,
in one product. The plan holds no scratch, as plans serve every thread.

int8: the input is quantized with the graph's input affine, each layer
requantizes to int8 (float32 multiplier, round, clamp), and the terminal
accumulator is dequantized straight to logits. Inputs are centered on their
zero point, and graph._worst_accumulator bounds every partial sum, bias
included, by B. A layer correlates and adds its bias in place in float32
when B < 2**24 and in float64 (exact to 2**53) otherwise, so sums are exact
integers in any order. Its requantize stays in float32 where
_exact_in_float32 shows, once per plan, that it gives the float64 codes for
every integer within B; otherwise the accumulator is widened to float64 for
it, as it is for the logits. The dtype never shows in the output.

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
and the residual table. relu6 and residual_add run as lookups in tables
their step makes: relu6 maps the activation's bytes with bytes.translate
by a 256-byte table, and residual_add takes one entry per element from a
65536-entry int8 table at index (x << 8) | skip of the two uint8 codes.

float (float_reference_infer, and fixture calibration): weights and
biases are dequantized, weighted layers correlate in float64, and
activations stay float32. Convs add their bias in float32 after the cast,
the pool averages in float64, and linear layers add their bias in float64.
It is the accuracy oracle of the int8 path.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from ..exceptions import ShapeError
from ..melspec import MelSpectrogram
from .graph import (
    INPUT_BUFFER,
    MAX_TILE_BYTES,
    WEIGHTED_KINDS,
    LayerSpec,
    ModelGraph,
    _worst_accumulator,
)

# Every int8 code in float32, ordered so that table[codes.view(np.uint8)]
# looks up the entry of each code.
_CODES = np.arange(256, dtype=np.uint8).view(np.int8).astype(np.float32)

# model -> {step builder: plan}; no plan refers to its model, or its key never dies.
# Two threads in a model's first walk may both build a plan; they build equal ones.
_PLANS = weakref.WeakKeyDictionary()


def _row_tiles(height: int, row_bytes: int, cap: int) -> list[tuple[int, int]]:
    """(top, bottom) of each tile of a layer's height output rows, in
    order: a tile holds the most rows of row_bytes each that fit in cap
    bytes, one at least, and the last tile the rows left over."""
    rows = max(1, cap // row_bytes)
    return [(top, min(top + rows, height)) for top in range(0, height, rows)]


def _correlation(layer: LayerSpec, shape, zero_point: int, weight: np.ndarray):
    """correlate(x): the correlation of x - zero_point, an input of shape
    (C, H, W), with the layer's weight as given, in weight's dtype, as
    (out_ch, Ho, Wo). The geometry is fixed here, once per plan: the padded
    shape, the strided im2col window view over the padded buffer (a tenth
    of the cost of as_strided), the patch matrix, stacked per channel for
    depthwise, its row tiles under MAX_TILE_BYTES, and the output shape.
    Each tile's patches are copied and run through one product into its
    columns of the accumulator; a layer of one tile runs one product on
    the whole patch matrix. A stride-1 1x1 conv or a linear layer unfolds
    without a copy, so it is never tiled."""
    c, h, w = shape
    (kh, kw), stride, pad = layer.kernel, layer.stride, layer.padding
    hp, wp = h + 2 * pad, w + 2 * pad
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    dtype, size = weight.dtype, weight.itemsize
    windows = (c, kh, kw, ho, wo)
    strides = (hp * wp * size, wp * size, size, wp * size * stride, size * stride)
    if layer.kind == "depthwise_conv2d":
        patches, weight = (c, kh * kw, ho * wo), weight.reshape(c, 1, kh * kw)
    else:
        patches, weight = (c * kh * kw, ho * wo), weight.reshape(layer.out_ch, -1)
    out_shape, inner = (layer.out_ch, ho, wo), np.s_[:, pad : pad + h, pad : pad + w]
    # (window rows, tile patch shape, accumulator columns) of each tile
    tiles = [] if (kh, kw, stride) == (1, 1, 1) else [
        (np.s_[..., top:bottom, :], (*patches[:-1], (bottom - top) * wo),
         np.s_[..., top * wo : bottom * wo])
        for top, bottom in _row_tiles(ho, math.prod(patches[:-1]) * wo * size,
                                      MAX_TILE_BYTES)
    ]
    acc_shape = (*weight.shape[:-1], ho * wo)

    def correlate(x):
        # dtype= runs the subtraction in dtype; without it an int8 x would
        # subtract in int8 and wrap before the cast. The window strides are
        # for a C-ordered buffer, so padded is one whatever the layout of x
        # (a spectrogram's values are often a transposed array).
        if pad:
            padded = np.zeros((c, hp, wp), dtype)
            np.subtract(x, zero_point, out=padded[inner], dtype=dtype)
        else:
            padded = np.subtract(x, zero_point, dtype=dtype, order="C")
        view = np.ndarray(windows, dtype, padded, 0, strides)
        if len(tiles) < 2:
            return (weight @ view.reshape(patches)).reshape(out_shape)
        acc = np.empty(acc_shape, dtype)
        for rows, tile, columns in tiles:
            np.matmul(weight, view[rows].reshape(tile), out=acc[columns])
        return acc.reshape(out_shape)

    return correlate


def _walk(model: ModelGraph, x: np.ndarray, step) -> list[np.ndarray]:
    """Run the graph on input x; returns every layer's output, logits last.
    Each model's plan for step is built on its first walk with step."""
    plans = _PLANS.setdefault(model, {})
    if (plan := plans.get(step)) is None:
        plan, affines = [], [(model.input_scale, model.input_zero_point)]
        for i, layer in enumerate(model.layers):
            # a residual's skip source; other kinds ignore theirs, their input
            skip = layer.skip_from - INPUT_BUFFER if layer.kind == "residual_add" else -1
            last = i == len(model.layers) - 1
            run = step(layer, model.shapes[i], *affines[-1], affines[skip], last)
            plan.append((run, skip))
            affines.append((layer.out_scale, layer.out_zero_point))
        plans[step] = plan
    # outputs[k - INPUT_BUFFER] holds the output of layer k; the graph
    # input comes first, as layer INPUT_BUFFER (-1).
    outputs = [x]
    for run, skip in plan:
        outputs.append(run(outputs[-1], outputs[skip]))
    return outputs[1:]


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


def _relu6_table(
    in_scale: float, in_zp: int, out_scale: float, out_zp: int
) -> bytes:
    """int8 relu6 output of every input code, as the bytes.translate table."""
    real = (_CODES - in_zp) * np.float32(in_scale)
    return _requantize(np.clip(real, 0.0, 6.0), 1.0 / out_scale, out_zp).tobytes()


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


def _exact_in_float32(multiplier: float, zero_point: int, bound: int) -> bool:
    """Whether _requantize gives the same int8 codes on float32 as on float64
    accumulators, clamp(rint(f32(a * m)) + zp) == clamp(rint(a * m) + zp),
    for every integer |a| <= bound < 2**24, m the float32 multiplier (a * m
    is exact in float64).

    Both sides are the same monotone step function, of f32(a * m) and of
    a * m, and it steps only at the 257 half-integers h in
    [-128.5 - zp, 127.5 - zp]. Rounding to float32 moves a product p by at
    most 2**-24 * |p|, so the sides differ only at integers a with
    |a - h / m| <= 2**-24 * (|h| + 1) / m for some h. While that radius is
    at most 1/2, those are among the two integers nearest h / m, and the
    four from floor(h / m) - 1 cover them and any rounding of h / m itself;
    a larger radius answers False.
    """
    m = float(np.float32(multiplier))
    h = np.arange(-128.5, 128.0) - zero_point
    if 2.0**-24 * (np.abs(h).max() + 1) / m > 0.5:
        return False
    a = (np.floor(h / m)[:, None] + np.arange(-1, 3)).reshape(-1)
    a = a[np.abs(a) <= bound]
    single = _requantize(a.astype(np.float32), multiplier, zero_point)
    return bool((single == _requantize(a, multiplier, zero_point)).all())


def _int8_step(layer: LayerSpec, shape, scale: float, zero_point: int, skip_affine,
               last: bool):
    """run(x, skip) of an int8 layer on codes x of shape and affine
    (scale, zero_point); a residual adds the codes skip, of affine skip_affine."""
    out_scale, out_zp = layer.out_scale, layer.out_zero_point
    if layer.kind in WEIGHTED_KINDS:
        # every partial sum, bias included, is an exact integer in float32
        # under 2**24; the requantize stays in float32 only where it gives
        # the float64 codes. The logits skip the output affine.
        multiplier = scale * layer.weight_scale / (1.0 if last else out_scale)
        bound = _worst_accumulator(layer, zero_point)
        dtype = np.float32 if bound < 2**24 else np.float64
        single = dtype is np.float32 and not last and _exact_in_float32(
            multiplier, out_zp, bound)
        widened = np.float32 if single else np.float64
        correlate = _correlation(layer, shape, zero_point, layer.weight.astype(dtype))
        bias = None if layer.bias is None else layer.bias.astype(dtype)[:, None, None]

        def weighted(x, skip):
            acc = correlate(x)
            if bias is not None:
                acc += bias
            acc = acc.astype(widened, copy=False)
            if last:
                return acc.reshape(-1) * multiplier
            return _requantize(acc, multiplier, out_zp)

        return weighted
    if layer.kind == "relu6":
        table = _relu6_table(scale, zero_point, out_scale, out_zp)
        return lambda x, skip: np.frombuffer(
            x.tobytes().translate(table), np.int8).reshape(x.shape)
    if layer.kind == "residual_add":
        table = _residual_table(scale, zero_point, *skip_affine, out_scale, out_zp)

        def residual(x, skip):
            index = np.left_shift(x.view(np.uint8), 8, dtype=np.uint16)
            index |= skip.view(np.uint8)
            return np.take(table, index)

        return residual
    multiplier = scale / out_scale  # global_avg_pool
    return lambda x, skip: _requantize(
        (x.astype(np.float64) - zero_point).mean((1, 2), keepdims=True), multiplier, out_zp)


def _float_step(layer: LayerSpec, shape, scale: float, zero_point: int, skip_affine,
                last: bool):
    """run(x, skip) of a float layer on x of shape; the input scale only
    scales the bias."""
    if layer.kind in WEIGHTED_KINDS:
        weight = layer.weight.astype(np.float32) * np.float32(layer.weight_scale)
        correlate = _correlation(layer, shape, 0, weight.astype(np.float64))
        linear, bias = layer.kind == "linear", None
        if layer.bias is not None:  # a conv adds it in float32, after the cast
            dtype = np.float64 if linear else np.float32
            bias = layer.bias.astype(dtype) * dtype(scale * layer.weight_scale)

        def weighted(x, skip):
            acc = correlate(x)
            if not linear:
                acc = acc.astype(np.float32)
            if bias is not None:
                acc += bias[:, None, None]
            return acc.reshape(-1) if last else acc.astype(np.float32, copy=False)

        return weighted
    if layer.kind == "relu6":
        return lambda x, skip: np.clip(x, 0.0, 6.0)
    if layer.kind == "residual_add":
        return lambda x, skip: x + skip
    # global_avg_pool
    return lambda x, skip: x.mean((1, 2), np.float64, keepdims=True).astype(np.float32)


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
    values = spec.values
    if values.dtype.type is not np.float32:
        # a value beyond float32, which no .mels file holds, casts to inf
        with np.errstate(over="ignore"):
            values = values.astype(np.float32)
    if not np.isfinite(values).all():
        raise ShapeError("spectrogram contains non-finite values")


def infer(model: ModelGraph, spec: MelSpectrogram) -> np.ndarray:
    """Run the int8 path; returns class probabilities summing to 1.

    The input is quantized with the model's input affine, saturating: dB
    values beyond the range it covers (-80..0 dB for the fixture models)
    are clamped to the nearest int8 code, so +500 dB classifies exactly
    like 0 dB and -1e6 dB exactly like -80 dB. A NaN, an inf, or a value
    beyond the float32 range raises ShapeError, here and in
    float_reference_infer.
    """
    _check_input(model, spec)
    return _softmax(_walk(model, _quantize_input(model, spec.values), _int8_step)[-1])


def float_reference_infer(model: ModelGraph, spec: MelSpectrogram) -> np.ndarray:
    """Run the dequantized float path; returns class probabilities."""
    _check_input(model, spec)
    x = np.asarray(spec.values, dtype=np.float32).reshape(model.input_shape)
    return _softmax(_walk(model, x, _float_step)[-1])
