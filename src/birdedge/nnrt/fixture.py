"""Seeded fixture models for tests and benchmarks.

generate_fixture_model builds a scaled-down inverted-residual classifier
with the full production topology: an initial strided conv, 17 blocks of
expand / depthwise / project with residual adds where stride is 1 and the
channel count is preserved, a global average pool, and a linear classifier
head. Channel widths are shrunk so a desk CPU runs thousands of inferences
in seconds.

Weights are drawn from seeded He-style normals and quantized symmetrically.
Activation quantization is calibrated: the float path runs on a handful of
seeded probe inputs, per-layer output ranges are recorded, widened by a
safety margin, and turned into affine scale/zero-point pairs. relu6 outputs
use the analytic [0, 6] range. Biases are small normals quantized after
calibration. The same (class_count, seed) pair always yields a bit
identical model.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..exceptions import ConfigError, check_integer
from .engine import _float_step, _walk
from .graph import LayerSpec, ModelGraph, _weight_count
from .serialize import _MAX_DIM

# (expansion, out_channels, repeats, first_stride) per stage; 17 blocks total.
_STAGES = (
    (1, 4, 1, 1),
    (3, 6, 2, 2),
    (3, 8, 3, 2),
    (3, 10, 4, 2),
    (3, 12, 3, 1),
    (3, 14, 3, 2),
    (3, 16, 1, 1),
)
_STEM_CHANNELS = 8
_PROBE_COUNT = 4
_RANGE_MARGIN = 0.15
_RELU6_SCALE = float(np.float32(6.0 / 255.0))
_BIAS_SIGMA = 0.1


def _f32(x: float) -> float:
    return float(np.float32(x))


def _quantize_weights(w: np.ndarray) -> tuple[np.ndarray, float]:
    scale = max(float(np.abs(w).max()) / 127.0, 1e-8)
    scale = _f32(scale)
    q = np.clip(np.rint(w / scale), -127, 127).astype(np.int8)
    return q, scale


def _weighted_layer(
    rng: np.random.Generator,
    kind: str,
    in_ch: int,
    out_ch: int,
    kernel: tuple[int, int],
    stride: int,
    padding: int,
) -> LayerSpec:
    count = _weight_count(kind, in_ch, out_ch, kernel)
    fan_in = count // out_ch
    weight, weight_scale = _quantize_weights(
        rng.normal(0.0, np.sqrt(2.0 / fan_in), size=count)
    )
    return LayerSpec(
        kind=kind,
        in_ch=in_ch,
        out_ch=out_ch,
        kernel=kernel,
        stride=stride,
        padding=padding,
        weight=weight,
        weight_scale=weight_scale,
    )


def generate_fixture_model(class_count: int, seed: int) -> ModelGraph:
    """Build and calibrate a seeded fixture classifier.

    class_count is at most the .enm container's dimension limit, so
    save_model can store every graph this builds.
    """
    check_integer(class_count, "class_count")
    check_integer(seed, "seed")
    if not 1 <= class_count <= _MAX_DIM:
        raise ConfigError(f"class_count must be in [1, {_MAX_DIM}], got {class_count}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    layers: list[LayerSpec] = []

    layers.append(
        _weighted_layer(rng, "conv2d", 1, _STEM_CHANNELS, (3, 3), stride=2, padding=1)
    )
    layers.append(LayerSpec(kind="relu6"))

    channels = _STEM_CHANNELS
    for expansion, out_ch, repeats, first_stride in _STAGES:
        for block in range(repeats):
            stride = first_stride if block == 0 else 1
            block_input_index = len(layers) - 1
            hidden = channels * expansion
            if expansion > 1:
                layers.append(
                    _weighted_layer(
                        rng, "pointwise_conv2d", channels, hidden, (1, 1), 1, 0
                    )
                )
                layers.append(LayerSpec(kind="relu6"))
            layers.append(
                _weighted_layer(
                    rng, "depthwise_conv2d", hidden, hidden, (3, 3), stride, 1
                )
            )
            layers.append(LayerSpec(kind="relu6"))
            layers.append(
                _weighted_layer(rng, "pointwise_conv2d", hidden, out_ch, (1, 1), 1, 0)
            )
            if stride == 1 and channels == out_ch:
                layers.append(
                    LayerSpec(kind="residual_add", skip_from=block_input_index)
                )
            channels = out_ch

    layers.append(LayerSpec(kind="global_avg_pool"))
    layers.append(
        _weighted_layer(rng, "linear", channels, class_count, (1, 1), 1, 0)
    )

    return _calibrated(ModelGraph(layers=layers, class_count=class_count), rng)


def _calibrated(model: ModelGraph, rng: np.random.Generator) -> ModelGraph:
    """The model with per-layer activation affines from the output ranges of
    probes drawn from rng, and with each weighted layer's bias, drawn next
    from rng in layer order and quantized in units of input_scale *
    weight_scale."""
    probes = rng.uniform(-80.0, 0.0, size=(_PROBE_COUNT, *model.input_shape[1:]))
    lows = np.full(len(model.layers), np.inf)
    highs = np.full(len(model.layers), -np.inf)
    for probe in probes:  # the float path draws nothing: the biases come next
        x = probe.astype(np.float32).reshape(model.input_shape)
        # the float64 logits are ranged as float32; rounding keeps their order
        for i, out in enumerate(_walk(model, x, _float_step)):
            lows[i] = min(lows[i], float(np.float32(out.min())))
            highs[i] = max(highs[i], float(np.float32(out.max())))

    layers, in_scale = [], model.input_scale
    for i, layer in enumerate(model.layers):
        if layer.kind == "relu6":
            scale, zero_point = _RELU6_SCALE, -128
        else:
            span = highs[i] - lows[i]
            lo = lows[i] - _RANGE_MARGIN * span
            hi = highs[i] + _RANGE_MARGIN * span
            scale = _f32(max((hi - lo) / 255.0, 1e-6))
            zero_point = int(-128 - np.rint(lo / scale))
        bias = None
        if layer.weight is not None:
            bias = rng.normal(0.0, _BIAS_SIGMA, size=layer.out_ch)
            bias = np.rint(bias / (in_scale * layer.weight_scale)).astype(np.int32)
        layers.append(replace(layer, bias=bias, out_scale=scale, out_zero_point=zero_point))
        in_scale = scale
    return replace(model, layers=layers)
