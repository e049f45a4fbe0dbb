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

import numpy as np

from ..exceptions import ConfigError
from .engine import _float_forward
from .graph import LayerSpec, ModelGraph, validate_graph
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
    layer = LayerSpec(
        kind=kind,
        in_ch=in_ch,
        out_ch=out_ch,
        kernel=kernel,
        stride=stride,
        padding=padding,
    )
    count = layer.weight_count()
    fan_in = count // out_ch
    layer.weight, layer.weight_scale = _quantize_weights(
        rng.normal(0.0, np.sqrt(2.0 / fan_in), size=count)
    )
    return layer


def generate_fixture_model(class_count: int, seed: int) -> ModelGraph:
    """Build, calibrate, and validate a seeded fixture classifier.

    class_count is at most the .enm container's dimension limit, so
    save_model can store every graph this builds.
    """
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

    model = ModelGraph(layers=layers, class_count=class_count)
    probes = rng.uniform(-80.0, 0.0, size=(_PROBE_COUNT, *model.input_shape[1:]))
    _calibrate(model, probes)  # draws nothing: the biases come next from rng
    _attach_biases(model, rng)
    validate_graph(model)
    return model


def _calibrate(model: ModelGraph, probes: np.ndarray) -> None:
    """Set per-layer activation affines from probe output ranges."""
    lows = np.full(len(model.layers), np.inf)
    highs = np.full(len(model.layers), -np.inf)
    for probe in probes:
        _, outputs = _float_forward(model, probe.astype(np.float32))
        for i, out in enumerate(outputs):
            lows[i] = min(lows[i], float(out.min()))
            highs[i] = max(highs[i], float(out.max()))

    for i, layer in enumerate(model.layers):
        if layer.kind == "relu6":
            layer.out_scale = _RELU6_SCALE
            layer.out_zero_point = -128
            continue
        span = highs[i] - lows[i]
        lo = lows[i] - _RANGE_MARGIN * span
        hi = highs[i] + _RANGE_MARGIN * span
        scale = max((hi - lo) / 255.0, 1e-6)
        layer.out_scale = _f32(scale)
        layer.out_zero_point = int(-128 - np.rint(lo / layer.out_scale))


def _attach_biases(model: ModelGraph, rng: np.random.Generator) -> None:
    """Draw each weighted layer's bias and quantize it in units of
    input_scale * weight_scale, walking the layers in order."""
    in_scale = model.input_scale
    for layer in model.layers:
        if layer.weight is not None:
            bias = rng.normal(0.0, _BIAS_SIGMA, size=layer.out_ch)
            layer.bias = np.rint(bias / (in_scale * layer.weight_scale)).astype(np.int32)
        in_scale = layer.out_scale
