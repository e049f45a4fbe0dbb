"""Quantized runtime tests.

Hand-built micro graphs pin down the integer arithmetic, the cost model,
and the serialization format; the generated test model is checked against
frozen structural and resource numbers.
"""

import hashlib
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import birdedge.nnrt.resources
import birdedge.nnrt.serialize
from birdedge.exceptions import (
    BirdEdgeError,
    ConfigError,
    FormatError,
    GraphError,
    ShapeError,
    UnsupportedError,
)
from birdedge.melspec import MelSpectrogram
from birdedge.nnrt import (
    INPUT_BUFFER,
    LAYER_KINDS,
    MODEL_MAGIC,
    LayerSpec,
    ModelGraph,
    ResourceReport,
    count_flops,
    estimate_ram,
    estimate_rom,
    float_reference_infer,
    generate_fixture_model,
    infer,
    load_model,
    resource_report,
    save_model,
    validate_graph,
)

from birdedge.nnrt.engine import (
    _correlate,
    _int8_layer,
    _int8_logits,
    _quantize_input,
    _relu6_table,
    _rescale_table,
    _walk,
)

from conftest import FIXTURE_CLASSES, FIXTURE_SEED, random_spec, with_linear_geometry


def int8(values):
    return np.asarray(values, dtype=np.int8)


def rand_weight(rng, *shape):
    return rng.integers(-127, 128, size=shape).astype(np.int8)


def conv(in_ch, out_ch, kernel=(3, 3), stride=1, padding=1, *, seed=0, bias=None,
         kind="conv2d", out_scale=0.5, out_zero_point=0):
    rng = np.random.default_rng(seed)
    if kind == "depthwise_conv2d":
        weight = rand_weight(rng, out_ch, *kernel)
    else:
        weight = rand_weight(rng, out_ch, in_ch, *kernel)
    return LayerSpec(
        kind=kind, in_ch=in_ch, out_ch=out_ch, kernel=kernel, stride=stride,
        padding=padding, weight=weight, weight_scale=0.25, bias=bias,
        out_scale=out_scale, out_zero_point=out_zero_point,
    )


def relu6(out_scale=float(np.float32(6 / 255)), out_zero_point=-128):
    return LayerSpec(kind="relu6", out_scale=out_scale, out_zero_point=out_zero_point)


def pool(out_scale=0.5, out_zero_point=0):
    return LayerSpec(kind="global_avg_pool", out_scale=out_scale,
                     out_zero_point=out_zero_point)


def linear(in_ch, out_ch, *, seed=1, bias=None, weight=None):
    if weight is None:
        weight = rand_weight(np.random.default_rng(seed), out_ch, in_ch)
    return LayerSpec(kind="linear", in_ch=in_ch, out_ch=out_ch, weight=weight,
                     weight_scale=0.25, bias=bias, out_scale=1.0)


def residual(skip_from, out_scale=0.5, out_zero_point=0):
    return LayerSpec(kind="residual_add", skip_from=skip_from,
                     out_scale=out_scale, out_zero_point=out_zero_point)


def chain_model(hw=(4, 4), classes=2):
    """conv -> relu6 -> pool -> linear on a 1-channel input."""
    return ModelGraph(
        layers=[
            conv(1, 2, seed=3),
            relu6(),
            pool(),
            linear(2, classes, seed=4),
        ],
        class_count=classes,
        input_shape=(1, *hw),
        input_scale=0.5,
        input_zero_point=0,
    )


def wide_head_model(classes, input_shape=(1, 1, 1)):
    """pool -> linear 1 -> classes: a head with one int8 weight per class."""
    return ModelGraph(
        layers=[pool(), linear(1, classes, weight=np.ones((classes, 1), dtype=np.int8))],
        class_count=classes,
        input_shape=input_shape,
        input_scale=0.5,
        input_zero_point=0,
    )


def residual_model():
    """Expansion block whose skip buffer spans three layers."""
    return ModelGraph(
        layers=[
            conv(1, 2, seed=5),                                  # b1 (2,4,4)
            relu6(),                                             # b2, skip source
            conv(2, 4, kernel=(1, 1), padding=0, seed=6,
                 kind="pointwise_conv2d"),                       # b3 (4,4,4)
            relu6(),                                             # b4
            conv(4, 2, kernel=(1, 1), padding=0, seed=7,
                 kind="pointwise_conv2d"),                       # b5 (2,4,4)
            residual(skip_from=1),                               # b6
            pool(),                                              # b7
            linear(2, 2, seed=8),                                # b8
        ],
        class_count=2,
        input_shape=(1, 4, 4),
        input_scale=0.5,
        input_zero_point=0,
    )


def every_record_model():
    """One layer of every kind: a biased conv2d, unbiased depthwise and
    pointwise convs, a residual from the graph input, relu6, the pool and a
    biased linear head."""
    return ModelGraph(
        layers=[
            conv(1, 2, seed=10, bias=np.array([5, -300], dtype=np.int32),
                 out_scale=0.75, out_zero_point=-3),
            conv(2, 2, seed=11, kind="depthwise_conv2d", out_scale=0.625,
                 out_zero_point=4),
            conv(2, 1, kernel=(1, 1), padding=0, seed=12,
                 kind="pointwise_conv2d", out_scale=0.5, out_zero_point=-1),
            residual(INPUT_BUFFER, out_scale=0.375, out_zero_point=6),
            relu6(),
            pool(out_scale=0.125, out_zero_point=-7),
            linear(1, 3, seed=13, bias=np.array([1, 70000, -2], dtype=np.int32)),
        ],
        class_count=3,
        input_shape=(1, 4, 5),
        input_scale=0.25,
        input_zero_point=-2,
    )


def spec_for(model, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-80, 0, model.input_shape[1:]).astype(np.float32)
    return MelSpectrogram(values)


class TestSerialization:
    def test_roundtrip_bitwise(self):
        for model in (chain_model(), residual_model()):
            blob = save_model(model)
            assert blob[:4] == MODEL_MAGIC
            loaded = load_model(blob)
            assert save_model(loaded) == blob

    def test_fields_survive(self):
        model = residual_model()
        loaded = load_model(save_model(model))
        assert len(loaded.layers) == len(model.layers)
        assert loaded.class_count == model.class_count
        assert loaded.input_shape == model.input_shape
        for a, b in zip(loaded.layers, model.layers):
            assert a.kind == b.kind
            assert a.out_scale == b.out_scale
            assert a.out_zero_point == b.out_zero_point
            if b.weight is not None:
                assert np.array_equal(a.weight.reshape(-1), b.weight.reshape(-1))
        assert loaded.layers[5].skip_from == 1

    def test_bias_survives(self):
        bias = np.array([3, -7], dtype=np.int32)
        model = chain_model()
        model.layers[0] = conv(1, 2, seed=3, bias=bias)
        loaded = load_model(save_model(model))
        assert np.array_equal(loaded.layers[0].bias, bias)

    def test_bad_magic(self):
        blob = bytearray(save_model(chain_model()))
        blob[0:4] = b"XXXX"
        with pytest.raises(FormatError):
            load_model(bytes(blob))

    def test_unknown_version(self):
        blob = bytearray(save_model(chain_model()))
        blob[4:8] = (2).to_bytes(4, "little")
        with pytest.raises(UnsupportedError):
            load_model(bytes(blob))

    def test_unknown_layer_code(self):
        blob = bytearray(save_model(chain_model()))
        blob[36] = 200  # first layer kind byte, right after the 36-byte header
        with pytest.raises(FormatError):
            load_model(bytes(blob))

    @pytest.mark.parametrize("cut", [3, 7, 20, 36, 50, -1])
    def test_truncation(self, cut):
        blob = save_model(chain_model())
        with pytest.raises(FormatError):
            load_model(blob[:cut])

    def test_trailing_bytes(self):
        blob = save_model(chain_model())
        with pytest.raises(FormatError):
            load_model(blob + b"\x00")

    def test_absurd_dimension_rejected(self):
        blob = bytearray(save_model(chain_model()))
        blob[12:16] = (1 << 30).to_bytes(4, "little")  # layer_count? no: class_count
        with pytest.raises((FormatError, GraphError)):
            load_model(bytes(blob))

    def test_save_applies_the_loader_limits(self):
        # 2**20 classes is the widest head the container holds
        assert load_model(save_model(wide_head_model(1 << 20))).class_count == 1 << 20
        with pytest.raises(FormatError, match="implausible layer dimension 1048577"):
            save_model(wide_head_model((1 << 20) + 1))
        with pytest.raises(FormatError, match="implausible input dimension 1048577"):
            save_model(wide_head_model(2, input_shape=(1, 1, (1 << 20) + 1)))

    def test_nan_scale_rejected_on_load(self):
        blob = bytearray(save_model(chain_model()))
        # first layer (conv2d): kind byte, six u32 dims, weight scale and
        # zero point, then its output scale
        offset = 36 + struct.calcsize("<BIIIIIIfi")
        blob[offset:offset + 4] = struct.pack("<f", math.nan)
        with pytest.raises(GraphError, match="layer 0: output scale"):
            load_model(bytes(blob))

    @pytest.mark.parametrize("zero_point", [128, -129, 1 << 20])
    @pytest.mark.parametrize("offset, where", [
        (32, "input zero point"),  # the header's last field
        # first layer (conv2d): kind byte, six u32 dims, weight scale and
        # zero point, output scale, then its output zero point
        (36 + struct.calcsize("<BIIIIIIfif"), "layer 0: output zero point"),
    ])
    def test_zero_point_outside_int8_rejected_on_load(self, offset, where, zero_point):
        blob = bytearray(save_model(chain_model()))
        blob[offset:offset + 4] = struct.pack("<i", zero_point)
        with pytest.raises(GraphError, match=where):
            load_model(bytes(blob))

    @pytest.mark.parametrize("kernel,stride,padding", [
        ((3, 2), 1, 0), ((1, 1), 2, 0), ((1, 1), 1, 4),
    ])
    def test_linear_geometry_rejected_on_load(self, kernel, stride, padding):
        blob = with_linear_geometry(save_model(chain_model()), kernel, stride, padding)
        with pytest.raises(GraphError, match="layer 3: linear needs kernel 1x1"):
            load_model(blob)

    def test_int32_accumulator_overflow_rejected_on_load(self):
        model = strided_model()
        assert model.layers[-1].bias is not None
        # the final linear's bias is the file's last field; its last entry
        # is the last output channel's
        blob = bytearray(save_model(model))
        blob[-4:] = struct.pack("<i", 2**31 - 1)
        with pytest.raises(GraphError, match="layer 7: linear worst-case accumulator"):
            load_model(bytes(blob))

    def test_int32_accumulator_bound_is_not_checked_per_infer(self):
        model = strided_model()
        model.layers[-1].bias[-1] = 2**31 - 1
        validate_graph(model)
        assert math.isclose(infer(model, spec_for(model)).sum(), 1.0)

    @pytest.mark.parametrize("input_zp, inner_zp", [(127, 0), (0, -128)])
    def test_int32_bound_uses_each_layers_input_zero_point(self, input_zp, inner_zp):
        # the linear head reads the pool's output, so its worst case is
        # sum |w| * (128 + |inner_zp|) + |bias|, whatever the graph input's
        # zero point; the bias brings it to the int32 maximum, then one past
        head = linear(2, 2, seed=4)
        fan = int(np.abs(head.weight[1].astype(np.int64)).sum())
        bias = 2**31 - 1 - fan * (128 + abs(inner_zp))
        for excess in (0, 1):
            head.bias = np.array([0, bias + excess], dtype=np.int32)
            blob = save_model(ModelGraph(
                layers=[conv(1, 2, seed=3), pool(out_zero_point=inner_zp), head],
                class_count=2,
                input_shape=(1, 4, 4),
                input_scale=0.5,
                input_zero_point=input_zp,
            ))
            if excess == 0:
                assert save_model(load_model(blob)) == blob
            else:
                with pytest.raises(GraphError, match="layer 2: linear worst-case"):
                    load_model(blob)

    def test_huge_padding_rejected_on_load(self):
        blob = bytearray(save_model(chain_model()))
        # first layer (conv2d): kind byte, then in_ch, out_ch, k_h, k_w and
        # stride (u32 each), then its padding
        offset = 36 + struct.calcsize("<BIIIII")
        assert struct.unpack_from("<I", blob, offset) == (1,)
        blob[offset:offset + 4] = struct.pack("<I", 4000)
        with pytest.raises(GraphError, match="layer 0: conv2d padded input"):
            load_model(bytes(blob))

    def test_linear_geometry_patch_is_neutral(self):
        blob = save_model(chain_model())
        assert with_linear_geometry(blob) == blob

    def test_single_byte_mutations_are_handled(self):
        blob = save_model(chain_model())
        rng = np.random.default_rng(0)
        for _ in range(300):
            mutated = bytearray(blob)
            pos = int(rng.integers(len(mutated)))
            mutated[pos] = int(rng.integers(256))
            try:
                load_model(bytes(mutated))
            except (FormatError, UnsupportedError, GraphError):
                pass

    def test_golden_bytes_follow_the_documented_layout(self):
        # expected bytes built from the serialize module docstring: the
        # header, then per layer its kind byte (the index in LAYER_KINDS)
        # and that kind's fields, weights and bias
        model = every_record_model()
        conv2d, depthwise, pointwise, _, _, _, head = model.layers

        def weighted(code, layer):
            record = struct.pack(
                "<BIIIIIIfifiB", code, layer.in_ch, layer.out_ch, *layer.kernel,
                layer.stride, layer.padding, layer.weight_scale, 0,
                layer.out_scale, layer.out_zero_point, layer.bias is not None,
            ) + layer.weight.astype(np.int8).tobytes()
            if layer.bias is not None:
                record += layer.bias.astype("<i4").tobytes()
            return record

        expected = b"".join([
            b"ENM1",
            struct.pack("<I", 1),
            struct.pack("<IIIIIfi", 7, 3, 1, 4, 5, 0.25, -2),
            weighted(0, conv2d),
            weighted(1, depthwise),
            weighted(2, pointwise),
            struct.pack("<Bifi", 4, -1, 0.375, 6),
            struct.pack("<Bfi", 3, float(np.float32(6 / 255)), -128),
            struct.pack("<Bfi", 5, 0.125, -7),
            weighted(6, head),
        ])
        assert save_model(model) == expected
        assert save_model(load_model(expected)) == expected

    @pytest.mark.parametrize("offset, value, where", [
        (28, 1e-40, "input scale"),  # after magic, version and five u32
        # first layer (conv2d): kind byte and six u32 dims, then its weight
        # scale, weight zero point and output scale
        (36 + struct.calcsize("<BIIIIII"), 2.0**-33, "layer 0: weight scale"),
        (36 + struct.calcsize("<BIIIIIIfi"), 1e-40, "layer 0: output scale"),
        # the relu6 record follows the conv2d record and its 18 weights;
        # its output scale follows its kind byte
        (36 + struct.calcsize("<BIIIIIIfifiB") + 18 + 1, 3e38,
         "layer 1: output scale"),
    ])
    def test_scale_outside_range_rejected_on_load(self, offset, value, where):
        blob = bytearray(save_model(chain_model()))
        blob[offset:offset + 4] = struct.pack("<f", value)
        with pytest.raises(GraphError, match=re.escape(f"{where} must be in [2**-32")):
            load_model(bytes(blob))

    def test_multi_byte_edits_load_and_infer_totally(self):
        # every edited file either fails with a BirdEdgeError, on load or in
        # infer, or classifies into finite probabilities, without a warning
        rng = np.random.default_rng(1)
        for blob in map(save_model, (chain_model(), residual_model(), strided_model())):
            for _ in range(500):
                edited = bytearray(blob)
                for _ in range(int(rng.integers(1, 4))):
                    edited[int(rng.integers(len(edited)))] = int(rng.integers(256))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        model = load_model(bytes(edited))
                        probabilities = infer(model, spec_for(model))
                    except BirdEdgeError:
                        continue
                assert np.isfinite(probabilities).all()
                assert math.isclose(probabilities.sum(), 1.0)


class TestValidation:
    def test_valid_models_pass(self):
        validate_graph(chain_model())
        validate_graph(residual_model())

    def err(self, model):
        with pytest.raises(GraphError):
            validate_graph(model)

    def test_empty_model(self):
        self.err(ModelGraph(layers=[], class_count=2))

    def test_multichannel_input(self):
        m = chain_model()
        m.input_shape = (2, 4, 4)
        self.err(m)

    def test_last_layer_not_linear(self):
        m = chain_model()
        m.layers = m.layers[:-1]
        self.err(m)

    def test_class_count_mismatch(self):
        m = chain_model(classes=2)
        m.class_count = 5
        self.err(m)

    def test_conv_channel_mismatch(self):
        m = chain_model()
        m.layers[0] = conv(3, 2, seed=3)
        self.err(m)

    def test_depthwise_must_preserve_channels(self):
        m = residual_model()
        bad = conv(2, 4, seed=9, kind="depthwise_conv2d")
        m.layers[2] = bad
        self.err(m)

    def test_pointwise_needs_1x1(self):
        m = residual_model()
        m.layers[2] = conv(2, 4, kernel=(3, 3), seed=6, kind="pointwise_conv2d")
        self.err(m)

    def test_linear_needs_pooled_input(self):
        m = chain_model()
        m.layers = [m.layers[0], m.layers[1], m.layers[3]]
        self.err(m)

    def test_kernel_too_large(self):
        m = chain_model()
        m.layers[0] = conv(1, 2, kernel=(9, 9), padding=0, seed=3)
        self.err(m)

    def test_residual_forward_reference(self):
        m = residual_model()
        m.layers[5] = residual(skip_from=7)
        self.err(m)

    def test_residual_shape_mismatch(self):
        m = residual_model()
        m.layers[5] = residual(skip_from=2)  # (4,4,4) against (2,4,4)
        self.err(m)

    def test_missing_weights(self):
        m = chain_model()
        m.layers[0].weight = None
        self.err(m)

    def test_wrong_weight_dtype(self):
        m = chain_model()
        m.layers[0].weight = m.layers[0].weight.astype(np.int16)
        self.err(m)

    def test_wrong_weight_size(self):
        m = chain_model()
        m.layers[0].weight = m.layers[0].weight.reshape(-1)[:-1]
        self.err(m)

    def test_nonzero_weight_zero_point(self):
        m = chain_model()
        m.layers[0].weight_zero_point = 3
        self.err(m)

    def test_negative_out_scale(self):
        m = chain_model()
        m.layers[1].out_scale = -1.0
        self.err(m)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field,layer,where", [
        ("input_scale", None, "input scale"),
        ("out_scale", 1, "layer 1: output scale"),
        ("weight_scale", 0, "layer 0: weight scale"),
    ])
    def test_nonfinite_scale(self, field, layer, where, value):
        m = chain_model()
        setattr(m if layer is None else m.layers[layer], field, value)
        with pytest.raises(GraphError, match=where):
            validate_graph(m)

    @pytest.mark.parametrize("value", [2.0**-33, 1e-40, 2.0**33, 3e38])
    @pytest.mark.parametrize("field,layer,where", [
        ("input_scale", None, "input scale"),
        ("weight_scale", 0, "layer 0: weight scale"),
        ("out_scale", 0, "layer 0: output scale"),
        ("out_scale", 1, "layer 1: output scale"),
        ("out_scale", 5, "layer 5: output scale"),  # residual_add
    ])
    def test_scale_outside_range(self, field, layer, where, value):
        m = residual_model()
        setattr(m if layer is None else m.layers[layer], field, value)
        with pytest.raises(GraphError, match=re.escape(f"{where} must be in [2**-32")):
            validate_graph(m)

    def test_scale_range_ends_infer_finite(self):
        # scales at either end of [2**-32, 2**32], in any mix, pass
        # validation and keep every int8 step finite
        rng = np.random.default_rng(5)
        for build in [chain_model, residual_model, strided_model] * 20:
            m = build()
            ends = iter(rng.choice([2.0**-32, 2.0**32], size=2 * len(m.layers) + 1))
            m.input_scale = float(next(ends))
            for layer in m.layers:
                layer.out_scale = float(next(ends))
                if layer.weight is not None:
                    layer.weight_scale = float(next(ends))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                probabilities = infer(m, spec_for(m))
            assert np.isfinite(probabilities).all()
            assert math.isclose(probabilities.sum(), 1.0)

    @pytest.mark.parametrize("zero_point", [-129, 128])
    @pytest.mark.parametrize("layer, where", [
        (None, "input zero point"),
        (0, "layer 0: output zero point"),
        (1, "layer 1: output zero point"),
        (2, "layer 2: output zero point"),
    ])
    def test_zero_point_outside_int8(self, layer, where, zero_point):
        m = chain_model()
        if layer is None:
            m.input_zero_point = zero_point
        else:
            m.layers[layer].out_zero_point = zero_point
        with pytest.raises(GraphError, match=where):
            validate_graph(m)

    @pytest.mark.parametrize("zero_point", [-1079, 531])
    def test_terminal_linear_zero_point_unchecked(self, zero_point):
        # the last layer's output affine is never applied: it yields logits
        m = chain_model()
        m.layers[-1].out_zero_point = zero_point
        validate_graph(m)

    @pytest.mark.parametrize("layer,hw,what", [
        (conv(1, 2, padding=2049), (4, 4), "padded input"),
        (conv(1, 2, kernel=(64, 64), padding=0), (600, 600), "im2col patch"),
        (conv(1, 64, kernel=(1, 1), padding=0), (600, 600), "output"),
    ], ids=["padded-input", "patches", "output"])
    def test_buffer_cap(self, layer, hw, what):
        model = ModelGraph(
            layers=[layer, pool(), linear(layer.out_ch, 2)],
            class_count=2, input_shape=(1, *hw),
        )
        with pytest.raises(GraphError, match=f"layer 0: conv2d {what}"):
            validate_graph(model)

    def test_input_buffer_cap(self):
        model = chain_model(hw=(4097, 4097))
        with pytest.raises(GraphError, match="exceeds the buffer cap"):
            validate_graph(model)

    def test_buffer_cap_is_inclusive(self):
        # input, padded input, patches and output all hold exactly 2**24
        model = ModelGraph(
            layers=[conv(1, 1, kernel=(1, 1), padding=0), pool(), linear(1, 2)],
            class_count=2, input_shape=(1, 4096, 4096),
        )
        validate_graph(model)

    def test_bias_wrong_length(self):
        m = chain_model()
        m.layers[0].bias = np.zeros(5, dtype=np.int32)
        self.err(m)

    @pytest.mark.parametrize("kernel,stride,padding", [
        ((3, 2), 1, 0), ((1, 3), 1, 0), ((1, 1), 2, 0), ((1, 1), 1, 1),
        ((3, 2), 2, 4),
    ])
    def test_linear_geometry_rejected(self, kernel, stride, padding):
        m = chain_model()
        m.layers[3].kernel, m.layers[3].stride, m.layers[3].padding = (
            kernel, stride, padding
        )
        with pytest.raises(GraphError, match="layer 3: linear needs kernel 1x1"):
            validate_graph(m)


class TestInference:
    def test_hand_computed_linear_logits(self):
        # single linear layer on a (1,1,1) input; every intermediate is
        # recomputed here from the quantization rules
        weight = int8([[5], [-3], [0]])
        model = ModelGraph(
            layers=[LayerSpec(kind="linear", in_ch=1, out_ch=3, weight=weight,
                              weight_scale=0.25, out_scale=1.0)],
            class_count=3,
            input_shape=(1, 1, 1),
            input_scale=0.5,
            input_zero_point=0,
        )
        v = -3.3
        probs = infer(model, MelSpectrogram(np.array([[v]], dtype=np.float32)))

        q = int(np.clip(np.rint(v / 0.5) + 0, -128, 127))
        acc = np.array([5 * q, -3 * q, 0 * q], dtype=np.int64)
        logits = acc.astype(np.float64) * (0.5 * 0.25)
        e = np.exp(logits - logits.max())
        expect = e / e.sum()
        assert np.allclose(probs, expect, rtol=1e-12)

    def test_linear_bias_enters_accumulator(self):
        weight = int8([[4], [4]])
        bias = np.array([10, -10], dtype=np.int32)
        model = ModelGraph(
            layers=[LayerSpec(kind="linear", in_ch=1, out_ch=2, weight=weight,
                              weight_scale=0.25, bias=bias, out_scale=1.0)],
            class_count=2,
            input_shape=(1, 1, 1),
            input_scale=0.5,
            input_zero_point=0,
        )
        probs = infer(model, MelSpectrogram(np.array([[-2.0]], dtype=np.float32)))
        q = -4
        logits = (np.array([4 * q + 10, 4 * q - 10]).astype(np.float64)) * 0.125
        e = np.exp(logits - logits.max())
        assert np.allclose(probs, e / e.sum(), rtol=1e-12)

    def test_zero_weights_give_uniform(self):
        model = chain_model(classes=5)
        model.layers[-1] = linear(2, 5, weight=np.zeros((5, 2), dtype=np.int8))
        spec = spec_for(model, seed=1)
        for fn in (infer, float_reference_infer):
            probs = fn(model, spec)
            assert np.allclose(probs, 0.2, rtol=1e-12)

    def test_identity_pointwise_is_transparent(self):
        # a 1x1 conv with weight 1, scale 1, and an unchanged affine leaves
        # the quantized activation untouched, so dropping it changes nothing
        identity = LayerSpec(
            kind="pointwise_conv2d", in_ch=1, out_ch=1, kernel=(1, 1),
            stride=1, padding=0, weight=int8([[[[1]]]]), weight_scale=1.0,
            out_scale=0.5, out_zero_point=0,
        )
        tail = [pool(), linear(1, 2, seed=11)]
        with_id = ModelGraph(layers=[identity] + tail, class_count=2,
                             input_shape=(1, 3, 3), input_scale=0.5,
                             input_zero_point=0)
        without = ModelGraph(layers=list(tail), class_count=2,
                             input_shape=(1, 3, 3), input_scale=0.5,
                             input_zero_point=0)
        spec = spec_for(with_id, seed=2)
        assert np.array_equal(infer(with_id, spec), infer(without, spec))

    def test_probabilities_normalized(self):
        for model in (chain_model(), residual_model()):
            for seed in range(5):
                probs = infer(model, spec_for(model, seed))
                assert probs.shape == (model.class_count,)
                assert np.all(probs >= 0)
                assert abs(probs.sum() - 1.0) < 1e-12

    def test_wrong_input_shape(self):
        model = chain_model()
        with pytest.raises(ShapeError):
            infer(model, MelSpectrogram(np.zeros((5, 5), dtype=np.float32)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_input_rejected(self, bad):
        model = chain_model()
        values = spec_for(model, seed=5).values
        values[1, 2] = bad
        for fn in (infer, float_reference_infer):
            with pytest.raises(ShapeError):
                fn(model, MelSpectrogram(values))

    def test_out_of_range_db_saturates(self, fixture_model):
        # the input affine covers -80..0 dB; values beyond it clamp
        def probs(fill_value, where):
            values = random_spec(5).values.copy()
            values[where] = fill_value
            return infer(fixture_model, MelSpectrogram(values)).tobytes()

        loud = (slice(0, 20), slice(None))
        assert probs(500.0, loud) == probs(0.0, loud)
        quiet = (slice(None), slice(100, 180))
        assert probs(-1e6, quiet) == probs(-80.0, quiet)

    def test_deterministic(self):
        model = residual_model()
        spec = spec_for(model, seed=3)
        a, b = infer(model, spec), infer(model, spec)
        assert a.tobytes() == b.tobytes()

    def test_input_skip_residual_runs(self):
        model = ModelGraph(
            layers=[
                conv(1, 1, seed=12, kind="depthwise_conv2d", out_scale=0.5),
                residual(skip_from=INPUT_BUFFER),
                pool(),
                linear(1, 2, seed=13),
            ],
            class_count=2,
            input_shape=(1, 4, 4),
            input_scale=0.5,
            input_zero_point=0,
        )
        probs = infer(model, spec_for(model, seed=4))
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_float_reference_agrees_on_micro_model(self):
        model = chain_model()
        agree = 0
        for seed in range(40):
            spec = spec_for(model, seed)
            agree += int(
                np.argmax(infer(model, spec))
                == np.argmax(float_reference_infer(model, spec))
            )
        assert agree >= 32


class TestResources:
    def test_flops_hand_count(self):
        model = ModelGraph(
            layers=[
                conv(1, 8, kernel=(3, 3), stride=1, padding=1, seed=20),
                relu6(),
                conv(8, 8, kernel=(3, 3), stride=2, padding=1, seed=21,
                     kind="depthwise_conv2d"),
                conv(8, 16, kernel=(1, 1), padding=0, seed=22,
                     kind="pointwise_conv2d"),
                relu6(),
                pool(),
                linear(16, 31, seed=23),
            ],
            class_count=31,
            input_shape=(1, 64, 249),
        )
        expect = (
            2 * 3 * 3 * 1 * 8 * 64 * 249   # conv, same-padded
            + 8 * 64 * 249                 # relu6, one op per element
            + 2 * 3 * 3 * 8 * 32 * 125     # depthwise, stride 2
            + 2 * 1 * 1 * 8 * 16 * 32 * 125  # pointwise expansion
            + 16 * 32 * 125                # relu6
            + 16                           # global pool
            + 2 * 16 * 31                  # classifier
        )
        assert expect == 4087280
        assert count_flops(model) == expect

    def test_flops_residual_graph(self):
        expect = (
            2 * 3 * 3 * 1 * 2 * 4 * 4    # conv 1->2 on 4x4
            + 2 * 4 * 4                  # relu6
            + 2 * 1 * 1 * 2 * 4 * 4 * 4  # pointwise 2->4
            + 4 * 4 * 4                  # relu6
            + 2 * 1 * 1 * 4 * 2 * 4 * 4  # pointwise 4->2
            + 2 * 4 * 4                  # residual add
            + 2                          # pool
            + 2 * 2 * 2                  # linear
        )
        assert count_flops(residual_model()) == expect == 1226

    def test_ram_chain_liveness(self):
        # buffers: input 16, conv 32, relu 32, pool 2, linear 2
        # steps:   conv 16+32, relu 32+32, pool 32+2, linear 2+2
        assert estimate_ram(chain_model()) == 64

    def test_ram_residual_span(self):
        # the relu6 output (32 B) stays live through both pointwise convs;
        # peak is at the second relu6: 64 in + 64 out + 32 skip
        assert estimate_ram(residual_model()) == 160

    def test_ram_input_skip(self):
        model = ModelGraph(
            layers=[
                conv(1, 1, seed=12, kind="depthwise_conv2d"),
                residual(skip_from=INPUT_BUFFER),
                pool(),
                linear(1, 2, seed=13),
            ],
            class_count=2,
            input_shape=(1, 4, 4),
            input_scale=0.5,
            input_zero_point=0,
        )
        # input 16 stays live through the add: peak 16+16+16 at the add
        assert estimate_ram(model) == 48

    def test_ram_ignores_weight_values(self):
        a, b = chain_model(), chain_model()
        b.layers[0].weight = np.zeros_like(b.layers[0].weight)
        assert estimate_ram(a) == estimate_ram(b)

    def test_rom_is_serialized_size(self):
        for model in (chain_model(), residual_model()):
            assert estimate_rom(model) == len(save_model(model))

    def test_rom_is_serialized_size_on_every_record_and_fixture(self):
        models = [every_record_model()] + [
            generate_fixture_model(classes, seed)
            for classes in (1, 2, 5, 31, 64)
            for seed in range(4)
        ]
        for model in models:
            assert estimate_rom(model) == len(save_model(model))

    def test_rom_of_an_invalid_graph_raises(self):
        model = chain_model()
        model.layers[0].weight = model.layers[0].weight[:-1]
        with pytest.raises(GraphError, match="layer 0: expected 18 weights"):
            estimate_rom(model)

    @pytest.mark.parametrize("cost", [count_flops, estimate_ram])
    def test_cost_of_an_invalid_graph_raises(self, cost):
        model = chain_model()
        model.layers[0].weight = model.layers[0].weight[:-1]
        with pytest.raises(GraphError, match="layer 0: expected 18 weights"):
            cost(model)

    def test_zero_bias_costs_rom_only(self):
        plain = chain_model()
        biased = chain_model()
        biased.layers[0] = conv(1, 2, seed=3, bias=np.zeros(2, dtype=np.int32))
        assert estimate_rom(biased) == estimate_rom(plain) + 2 * 4
        assert estimate_ram(biased) == estimate_ram(plain)
        assert count_flops(biased) == count_flops(plain)
        spec = spec_for(plain, seed=5)
        assert np.array_equal(infer(plain, spec), infer(biased, spec))

    def test_rom_invariant_to_input_size(self):
        small, large = chain_model(hw=(8, 8)), chain_model(hw=(12, 12))
        assert estimate_rom(small) == estimate_rom(large)
        assert count_flops(small) < count_flops(large)
        assert estimate_ram(small) < estimate_ram(large)

    def test_report_bundles_the_three(self):
        model = residual_model()
        report = resource_report(model)
        assert report.flops == count_flops(model)
        assert report.ram_bytes == estimate_ram(model)
        assert report.rom_bytes == estimate_rom(model)

    def test_report_validates_the_graph_once(self, fixture_model, monkeypatch):
        calls = []

        def counting(model):
            calls.append(model)
            return validate_graph(model)

        for module in (birdedge.nnrt.resources, birdedge.nnrt.serialize):
            monkeypatch.setattr(module, "validate_graph", counting)
        assert resource_report(fixture_model) == ResourceReport(5315248, 96000, 22803)
        assert len(calls) == 1

    def test_report_of_an_invalid_graph_raises(self):
        model = chain_model()
        model.layers[0].weight = model.layers[0].weight[:-1]
        with pytest.raises(GraphError, match="layer 0: expected 18 weights"):
            resource_report(model)


@st.composite
def small_graphs(draw):
    """A small valid ModelGraph on a (1, H, W) input: 1-6 layers of any
    kind but linear, with 1-3 kernels, strides 1-2, paddings below the
    kernel and residual sources anywhere the shapes agree, the graph input
    included; then a pool unless the map is already 1x1, then the head."""
    seed = draw(st.integers(0, 2**32 - 1))
    shapes = [(1, draw(st.integers(1, 7)), draw(st.integers(1, 7)))]
    layers = []
    for i in range(draw(st.integers(1, 6))):
        c, h, w = shapes[-1]
        kind = draw(st.sampled_from(LAYER_KINDS[:-1]))
        affine = dict(out_scale=float(np.float32(draw(st.floats(2**-8, 4.0)))),
                      out_zero_point=draw(st.integers(-128, 127)))
        if kind in ("conv2d", "depthwise_conv2d"):
            pad = draw(st.integers(0, 2))
            kernel = (draw(st.integers(pad + 1, min(3, h + 2 * pad))),
                      draw(st.integers(pad + 1, min(3, w + 2 * pad))))
        else:
            pad, kernel = 0, (1, 1)
        if kind in ("conv2d", "depthwise_conv2d", "pointwise_conv2d"):
            out_ch = c if kind == "depthwise_conv2d" else draw(st.integers(1, 4))
            bias = None
            if draw(st.booleans()):
                bias = np.random.default_rng(seed + i).integers(
                    -1000, 1000, out_ch).astype(np.int32)
            layer = conv(c, out_ch, kernel, draw(st.integers(1, 2)), pad,
                         seed=seed + i, bias=bias, kind=kind, **affine)
        elif kind == "residual_add":
            sources = [k + INPUT_BUFFER for k, shape in enumerate(shapes)
                       if shape == shapes[-1]]
            layer = residual(draw(st.sampled_from(sources)), **affine)
        elif kind == "relu6":
            layer = relu6(**affine)
        else:
            layer = pool(**affine)
        layers.append(layer)
        shapes = reference_costs(ModelGraph(layers, input_shape=shapes[0]))[1]
    c, h, w = shapes[-1]
    if (h, w) != (1, 1):
        layers.append(pool())
    classes = draw(st.integers(1, 3))
    layers.append(linear(c, classes, seed=seed))
    return ModelGraph(layers, class_count=classes, input_shape=shapes[0])


def reference_costs(model):
    """(FLOPs, buffer shapes) of a graph, found by sliding each window.

    Every output position of a weighted layer costs 2 FLOPs per input tap
    of each output channel; relu6 and residual_add cost one op per element,
    and the pool one per channel.
    """
    shapes = [model.input_shape]
    flops = 0
    for layer in model.layers:
        c, h, w = shapes[-1]
        if layer.kind in ("relu6", "residual_add"):
            flops += c * h * w
            shapes.append((c, h, w))
        elif layer.kind == "global_avg_pool":
            flops += c
            shapes.append((c, 1, 1))
        else:
            kh, kw = layer.kernel
            fan_in = {"conv2d": c * kh * kw, "depthwise_conv2d": kh * kw}.get(
                layer.kind, c)
            rows = range(-layer.padding, h + layer.padding - kh + 1, layer.stride)
            cols = range(-layer.padding, w + layer.padding - kw + 1, layer.stride)
            for _ in rows:
                for _ in cols:
                    flops += 2 * layer.out_ch * fan_in
            shapes.append((layer.out_ch, len(rows), len(cols)))
    return flops, shapes


def quadratic_ram(model, shapes):
    """estimate_ram as first written: every buffer scanned at every step."""
    sizes = [math.prod(s) for s in shapes]
    last_read = [0] * len(sizes)
    for i, layer in enumerate(model.layers):
        last_read[i] = max(last_read[i], i)
        if layer.kind == "residual_add":
            source = 0 if layer.skip_from == INPUT_BUFFER else layer.skip_from + 1
            last_read[source] = max(last_read[source], i)
    peak = 0
    for i in range(len(model.layers)):
        live = sizes[i + 1]
        for b in range(i + 1):
            if last_read[b] >= i:
                live += sizes[b]
        peak = max(peak, live)
    return peak


class TestRandomGraphs:
    @settings(max_examples=200, deadline=None)
    @given(model=small_graphs())
    def test_validate_graph_returns_every_buffer_shape(self, model):
        assert validate_graph(model) == reference_costs(model)[1]

    @settings(max_examples=200, deadline=None)
    @given(model=small_graphs())
    def test_flops_match_a_brute_force_count(self, model):
        assert count_flops(model) == reference_costs(model)[0]

    @settings(max_examples=200, deadline=None)
    @given(model=small_graphs())
    def test_ram_matches_the_quadratic_scan(self, model):
        assert estimate_ram(model) == quadratic_ram(model, reference_costs(model)[1])


class TestFixtureModel:
    def test_deterministic_generation(self, fixture_model):
        again = generate_fixture_model(FIXTURE_CLASSES, FIXTURE_SEED)
        assert save_model(again) == save_model(fixture_model)

    def test_seed_changes_weights(self, fixture_model):
        other = generate_fixture_model(FIXTURE_CLASSES, FIXTURE_SEED + 1)
        assert save_model(other) != save_model(fixture_model)

    def test_structure(self, fixture_model):
        kinds = {}
        for layer in fixture_model.layers:
            kinds[layer.kind] = kinds.get(layer.kind, 0) + 1
        assert len(fixture_model.layers) == 97
        assert kinds == {
            "conv2d": 1,
            "relu6": 34,
            "depthwise_conv2d": 17,
            "pointwise_conv2d": 33,
            "residual_add": 10,
            "global_avg_pool": 1,
            "linear": 1,
        }
        stem = fixture_model.layers[0]
        assert (stem.kind, stem.in_ch, stem.out_ch) == ("conv2d", 1, 8)
        assert (stem.kernel, stem.stride, stem.padding) == ((3, 3), 2, 1)
        head = fixture_model.layers[-1]
        assert (head.kind, head.out_ch) == ("linear", FIXTURE_CLASSES)
        assert fixture_model.input_shape == (1, 64, 249)

    @pytest.mark.parametrize("classes, seed, message", [
        pytest.param(0, 1, r"class_count must be in \[1, 1048576\], got 0", id="no-class"),
        # checked before any of its ~17 M weights is drawn
        pytest.param((1 << 20) + 1, 1, "got 1048577", id="too-many-classes"),
        pytest.param(3, -1, "seed must be >= 0, got -1", id="negative-seed"),
    ])
    def test_bad_arguments_are_config_errors(self, classes, seed, message):
        with pytest.raises(ConfigError, match=message):
            generate_fixture_model(classes, seed)

    def test_quantization_constants(self, fixture_model):
        assert fixture_model.input_scale == pytest.approx(80 / 255, rel=1e-6)
        assert fixture_model.input_zero_point == 127
        for layer in fixture_model.layers:
            assert layer.out_scale > 0
            if layer.kind == "relu6":
                assert layer.out_scale == float(np.float32(6 / 255))
                assert layer.out_zero_point == -128

    def test_frozen_resource_numbers(self, fixture_model):
        assert count_flops(fixture_model) == 5315248
        assert estimate_ram(fixture_model) == 96000
        assert estimate_rom(fixture_model) == 22803

    def test_roundtrip_preserves_predictions(self, fixture_model):
        loaded = load_model(save_model(fixture_model))
        spec = random_spec(77)
        assert np.array_equal(infer(loaded, spec), infer(fixture_model, spec))

    def test_probabilities_normalized(self, fixture_model):
        for seed in (0, 1, 2):
            spec = random_spec(seed)
            for fn in (infer, float_reference_infer):
                probs = fn(fixture_model, spec)
                assert probs.shape == (FIXTURE_CLASSES,)
                assert abs(probs.sum() - 1.0) < 1e-12

    def test_int8_tracks_float_reference(self, fixture_model):
        agree = 0
        for seed in range(60):
            spec = random_spec(9000 + seed)
            a = np.argmax(infer(fixture_model, spec))
            b = np.argmax(float_reference_infer(fixture_model, spec))
            agree += int(a == b)
        assert agree >= 54


# sha256 over the concatenated float64 probability bytes of every input,
# recorded with int64 accumulators. Any change to the int8 arithmetic,
# however small, moves these.
PINNED_FIXTURE_DIGEST = (
    "a190527660d7e831cfeb16f840ab478b10885b9f3b2ff967d70757fe1fa43888"
)
PINNED_BRANCH_DIGESTS = {
    "strided": "eed32f86ad67edcbd621f8b7c8cb4e00cc71e04c91959d84a7808d930a0e99c1",
    "input_skip": "1a3816de3cacfeca65b0cbca84fec8c9dfe5a84a44b3c41568f95afabb127311",
}
# infer on two more fixtures, (classes, seed), over random_spec seeds 0-19
# plus edge_specs, recorded with float64 accumulators. Fixture (1, 6)
# holds the largest float32 accumulator bound of any fixture. With one
# class its probabilities are always [1.0], so its int8 layer outputs and
# logits are pinned as well.
PINNED_MORE_FIXTURE_DIGESTS = {
    (1, 6): "fbae2a731e6395e7093c5f78dfd085e9e839dd8022fb2ab08b81c8fef962dfbe",
    (64, 3): "e9eb4dcb00c4b060e817f6ecbaf464bf87506513ea9ee098cae79e0fb4f9dd25",
}
PINNED_ONE_CLASS_LAYERS_DIGEST = (
    "947af692a4148bab82b01a6db630e5b4195bec7eee57144142ca8650988b2700"
)
# The same inputs through float_reference_infer, recorded while the float
# path had its own interpreter (einsum depthwise, im2col for every conv).
PINNED_FLOAT_DIGESTS = {
    "fixture": "5407c74bab268cfbf4bdbaf6b49d3fd663d6fee268268521e3ad6c565e00c81f",
    "strided": "e12107b32bd97517c974d830fb411e786ce021c4f634fcd67a921a5f1451c20d",
    "input_skip": "9cbf574d02f4903c2b663de4205a0a15acb933f84d61051840a91be8d92b8d94",
}
# sha256 over save_model bytes of the fixtures for classes {1, 5, 64} x
# seeds {0, 3}, in that order: calibration runs the float path, so this
# moves with any change to its arithmetic.
PINNED_FIXTURE_BYTES_DIGEST = (
    "a6824fb4eca9fd4070973ad1a0cbd4f4f72bfc8a7ac83fc3b8814480d638443a"
)


# the fixture's input affine: -80..0 dB onto codes -128..127
DB_SCALE = float(np.float32(80 / 255))


def _layer(rng, kind, in_ch, out_ch, kernel=(1, 1), stride=1, padding=0, *,
           weight_scale, out_scale, out_zero_point):
    """A weighted layer with int8 weights and an int32 bias drawn from rng."""
    if kind == "depthwise_conv2d":
        weight = rand_weight(rng, out_ch, *kernel)
    elif kind == "linear":
        weight = rand_weight(rng, out_ch, in_ch)
    else:
        weight = rand_weight(rng, out_ch, in_ch, *kernel)
    bias = rng.integers(-3000, 3000, size=out_ch).astype(np.int32)
    return LayerSpec(
        kind=kind, in_ch=in_ch, out_ch=out_ch, kernel=kernel, stride=stride,
        padding=padding, weight=weight, weight_scale=weight_scale, bias=bias,
        out_scale=out_scale, out_zero_point=out_zero_point,
    )


def strided_model():
    """Strided unpadded convs, unpadded depthwise, a non-terminal linear."""
    rng = np.random.default_rng(2024)
    return ModelGraph(
        layers=[
            _layer(rng, "conv2d", 1, 4, (3, 3), 2, 0, weight_scale=0.0003,
                   out_scale=0.08, out_zero_point=0),
            relu6(),
            _layer(rng, "depthwise_conv2d", 4, 4, (3, 3), 1, 0,
                   weight_scale=0.008, out_scale=0.05, out_zero_point=0),
            _layer(rng, "pointwise_conv2d", 4, 6, (1, 1), 2, 0,
                   weight_scale=0.005, out_scale=0.04, out_zero_point=-20),
            relu6(out_scale=0.03, out_zero_point=-100),
            pool(out_scale=0.03, out_zero_point=-128),
            _layer(rng, "linear", 6, 5, weight_scale=0.01,
                   out_scale=0.05, out_zero_point=0),
            _layer(rng, "linear", 5, 3, weight_scale=0.0025,
                   out_scale=1.0, out_zero_point=0),
        ],
        class_count=3,
        input_shape=(1, 12, 13),
        input_scale=DB_SCALE,
        input_zero_point=127,
    )


def input_skip_model():
    """A residual from the graph input, rectangular and padded 1x1 kernels."""
    rng = np.random.default_rng(77)
    return ModelGraph(
        layers=[
            _layer(rng, "depthwise_conv2d", 1, 1, (3, 3), 1, 1,
                   weight_scale=0.0008, out_scale=0.1, out_zero_point=0),
            residual(INPUT_BUFFER, out_scale=0.4, out_zero_point=90),
            _layer(rng, "conv2d", 1, 3, (2, 3), 1, 2, weight_scale=0.0008,
                   out_scale=0.06, out_zero_point=0),
            _layer(rng, "pointwise_conv2d", 3, 3, (1, 1), 1, 1,
                   weight_scale=0.006, out_scale=0.05, out_zero_point=0),
            relu6(),
            _layer(rng, "depthwise_conv2d", 3, 3, (3, 3), 2, 1,
                   weight_scale=0.008, out_scale=0.05, out_zero_point=0),
            _layer(rng, "pointwise_conv2d", 3, 3, (1, 1), 1, 0,
                   weight_scale=0.008, out_scale=0.05, out_zero_point=0),
            residual(5, out_scale=0.1, out_zero_point=-20),
            pool(out_scale=0.05, out_zero_point=0),
            _layer(rng, "linear", 3, 2, weight_scale=0.005,
                   out_scale=1.0, out_zero_point=0),
        ],
        class_count=2,
        input_shape=(1, 8, 10),
        input_scale=DB_SCALE,
        input_zero_point=127,
    )


def edge_specs(shape):
    """All-floor, all-0 dB, and a 0 / -80 dB checkerboard."""
    checker = np.indices(shape).sum(axis=0) % 2 * np.float32(-80.0)
    return [
        MelSpectrogram(np.full(shape, -80.0, dtype=np.float32)),
        MelSpectrogram(np.zeros(shape, dtype=np.float32)),
        MelSpectrogram(checker.astype(np.float32)),
    ]


def probs_digest(model, specs, run=infer):
    h = hashlib.sha256()
    for spec in specs:
        h.update(run(model, spec).tobytes())
    return h.hexdigest()


def int8_layers_digest(model, specs):
    """sha256 over every int8 layer output and the logits of each input."""
    h = hashlib.sha256()
    for spec in specs:
        x = _quantize_input(model, spec.values)
        logits, outputs = _walk(model, x, _int8_layer, _int8_logits)
        for out, _, _ in outputs:
            h.update(out.tobytes())
        h.update(logits.tobytes())
    return h.hexdigest()


class TestPinnedOutputs:
    def test_fixture_outputs_bitwise(self, fixture_model):
        specs = [random_spec(seed) for seed in range(50)]
        specs += edge_specs(fixture_model.input_shape[1:])
        assert probs_digest(fixture_model, specs) == PINNED_FIXTURE_DIGEST

    @pytest.mark.parametrize("name,build", [
        ("strided", strided_model),
        ("input_skip", input_skip_model),
    ])
    def test_branch_outputs_bitwise(self, name, build):
        model = build()
        specs = [spec_for(model, seed) for seed in range(20)]
        specs += edge_specs(model.input_shape[1:])
        assert probs_digest(model, specs) == PINNED_BRANCH_DIGESTS[name]

    @pytest.mark.parametrize("classes,seed", list(PINNED_MORE_FIXTURE_DIGESTS))
    def test_more_fixture_outputs_bitwise(self, classes, seed):
        model = generate_fixture_model(classes, seed)
        specs = [random_spec(s) for s in range(20)]
        specs += edge_specs(model.input_shape[1:])
        assert probs_digest(model, specs) == PINNED_MORE_FIXTURE_DIGESTS[classes, seed]

    def test_one_class_fixture_layers_bitwise(self):
        model = generate_fixture_model(1, 6)
        specs = [random_spec(s) for s in range(20)]
        specs += edge_specs(model.input_shape[1:])
        assert int8_layers_digest(model, specs) == PINNED_ONE_CLASS_LAYERS_DIGEST

    def test_fixture_float_outputs_bitwise(self, fixture_model):
        specs = [random_spec(seed) for seed in range(50)]
        specs += edge_specs(fixture_model.input_shape[1:])
        digest = probs_digest(fixture_model, specs, float_reference_infer)
        assert digest == PINNED_FLOAT_DIGESTS["fixture"]

    @pytest.mark.parametrize("name,build", [
        ("strided", strided_model),
        ("input_skip", input_skip_model),
    ])
    def test_branch_float_outputs_bitwise(self, name, build):
        model = build()
        specs = [spec_for(model, seed) for seed in range(20)]
        specs += edge_specs(model.input_shape[1:])
        digest = probs_digest(model, specs, float_reference_infer)
        assert digest == PINNED_FLOAT_DIGESTS[name]

    def test_fixture_model_bytes(self):
        h = hashlib.sha256()
        for classes in (1, 5, 64):
            for seed in (0, 3):
                h.update(save_model(generate_fixture_model(classes, seed)))
        assert h.hexdigest() == PINNED_FIXTURE_BYTES_DIGEST


class TestElementwiseTables:
    """The 256-entry tables equal the per-element float32 formulas."""

    codes = np.arange(-128, 128).astype(np.int8)

    def affines(self, count=200):
        rng = np.random.default_rng(11)
        for _ in range(count):
            yield (
                float(np.float32(rng.uniform(0.001, 1.0))),
                int(rng.integers(-128, 128)),
                float(np.float32(rng.uniform(0.001, 0.5))),
                int(rng.integers(-128, 128)),
            )

    def test_relu6_table(self):
        for in_scale, in_zp, out_scale, out_zp in self.affines():
            real = (self.codes.astype(np.float32) - in_zp) * np.float32(in_scale)
            scaled = np.rint(np.clip(real, 0.0, 6.0) * np.float32(1.0 / out_scale))
            expect = np.clip(scaled + out_zp, -128, 127).astype(np.int8)
            table = _relu6_table(in_scale, in_zp, out_scale, out_zp)
            assert table[self.codes.view(np.uint8)].tobytes() == expect.tobytes()

    def test_rescale_table(self):
        for scale, zp, out_scale, _ in self.affines():
            expect = (self.codes.astype(np.float32) - zp) * np.float32(
                scale / out_scale
            )
            table = _rescale_table(scale, zp, out_scale)
            assert table.dtype == np.float32
            assert table[self.codes.view(np.uint8)].tobytes() == expect.tobytes()

    def test_tables_are_read_only(self):
        with pytest.raises(ValueError):
            _relu6_table(0.5, 0, 0.1, -128)[0] = 1
        with pytest.raises(ValueError):
            _rescale_table(0.5, 0, 0.1)[0] = 1.0

    def test_in_place_edit_of_a_model_takes_effect(self):
        # tables are keyed by scalar values, never by model identity
        def edit(model):
            model.layers[1].out_scale = 0.05
            model.layers[5].out_zero_point = 7
            return model

        model = residual_model()
        spec = spec_for(model, seed=6)
        before = infer(model, spec)
        after = infer(edit(model), spec)
        assert after.tobytes() != before.tobytes()
        assert after.tobytes() == infer(edit(residual_model()), spec).tobytes()


def naive_correlate(x, weight, kind, kernel, stride, padding):
    """Nested-loop zero-padded correlation; weight is (O, kh, kw) depthwise
    and (O, C, kh, kw) otherwise."""
    c, h, w = x.shape
    kh, kw = kernel
    padded = np.zeros((c, h + 2 * padding, w + 2 * padding))
    padded[:, padding:padding + h, padding:padding + w] = x
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((weight.shape[0], ho, wo))
    for o in range(weight.shape[0]):
        for r in range(ho):
            for q in range(wo):
                total = 0.0
                for ch in ([o] if kind == "depthwise_conv2d" else range(c)):
                    for i in range(kh):
                        for j in range(kw):
                            tap = (
                                weight[o, i, j] if kind == "depthwise_conv2d"
                                else weight[o, ch, i, j]
                            )
                            total += padded[ch, r * stride + i, q * stride + j] * tap
                out[o, r, q] = total
    return out


class TestSharedKernel:
    """The conv kernels both numerics share, against a nested-loop oracle.

    Inputs and weights are integer valued, so every sum is exact, in
    float32 as in float64, and the comparison is equality.
    """

    def test_matches_nested_loops(self):
        rng = np.random.default_rng(31)
        kinds = ("conv2d", "depthwise_conv2d", "pointwise_conv2d")
        for trial in range(90):
            kind = kinds[trial % 3]
            in_ch = int(rng.integers(1, 4))
            out_ch = in_ch if kind == "depthwise_conv2d" else int(rng.integers(1, 5))
            kernel = (
                (1, 1) if kind == "pointwise_conv2d"
                else (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            )
            stride = int(rng.integers(1, 3))
            padding = int(rng.integers(0, 3))
            h = int(rng.integers(kernel[0], 9))
            w = int(rng.integers(kernel[1], 9))
            layer = conv(in_ch, out_ch, kernel, stride, padding, seed=trial, kind=kind)
            zero_point = int(rng.integers(-128, 128))
            x = rng.integers(-128, 128, size=(in_ch, h, w)).astype(np.int8)
            want = naive_correlate(
                x.astype(np.float64) - zero_point, layer.weight.astype(np.float64),
                kind, kernel, stride, padding,
            )
            # fan_in <= 48 keeps every float32 partial sum under 2**24
            for dtype in (np.float64, np.float32):
                got = _correlate(x, zero_point, layer.weight.astype(dtype), layer)
                assert got.dtype == dtype
                np.testing.assert_array_equal(
                    got, want, err_msg=f"{dtype} {kind} {kernel} {stride} {padding}"
                )


def int8_reference(model, values):
    """Slow int8 inference of a graph of weighted layers: nested loops over
    int64 accumulators, a per-element float32 requantize, and float64
    logits from the terminal accumulator."""
    q = np.rint(np.asarray(values, dtype=np.float64) / model.input_scale)
    q = np.clip(q + model.input_zero_point, -128, 127).astype(np.int64)
    q = q.reshape(model.input_shape)
    scale, zero_point = model.input_scale, model.input_zero_point
    for index, layer in enumerate(model.layers):
        c, h, w = q.shape
        (kh, kw), pad, stride = layer.kernel, layer.padding, layer.stride
        padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.int64)
        padded[:, pad:pad + h, pad:pad + w] = q - zero_point
        ho, wo = (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1
        weight = layer.weight.astype(np.int64).reshape(layer.out_ch, -1, kh, kw)
        acc = np.zeros((layer.out_ch, ho, wo), dtype=np.int64)
        for o in range(layer.out_ch):
            channels = [o] if layer.kind == "depthwise_conv2d" else range(c)
            for r in range(ho):
                for t in range(wo):
                    total = 0 if layer.bias is None else int(layer.bias[o])
                    for k, ch in enumerate(channels):
                        for i in range(kh):
                            for j in range(kw):
                                total += int(weight[o, k, i, j]) * int(
                                    padded[ch, r * stride + i, t * stride + j]
                                )
                    acc[o, r, t] = total
        if index == len(model.layers) - 1:
            logits = acc.reshape(-1).astype(np.float64) * (scale * layer.weight_scale)
            z = logits - logits.max()
            return np.exp(z) / np.exp(z).sum()
        multiplier = float(np.float32(scale * layer.weight_scale / layer.out_scale))
        q = np.array([
            min(127, max(-128, round(float(a) * multiplier) + layer.out_zero_point))
            for a in acc.flat
        ], dtype=np.int64).reshape(acc.shape)
        scale, zero_point = layer.out_scale, layer.out_zero_point
    raise AssertionError("the last layer returns")


def wide_fan_in_model(fan_in):
    """A pointwise expansion to fan_in channels on a 1x1 input, then a
    terminal linear of that fan-in.

    On a -80 dB input (code -128, zero point 127) the expansion saturates
    every channel to code 127 on zero point -128. The linear weights are
    127 but one 126, so its first accumulator, 255 * (127 * fan_in - 1),
    is odd and past 2**24: no float32 sum can hold it.
    """
    expand = LayerSpec(
        kind="pointwise_conv2d", in_ch=1, out_ch=fan_in,
        weight=np.full((fan_in, 1, 1, 1), -127, dtype=np.int8), weight_scale=1.0,
        out_scale=0.01, out_zero_point=-128,
    )
    weight = np.full((2, fan_in), 127, dtype=np.int8)
    weight[0, 0] = 126
    head = LayerSpec(
        kind="linear", in_ch=fan_in, out_ch=2, weight=weight, weight_scale=1e-6,
        bias=np.array([3, -5], np.int32), out_scale=1.0,
    )
    return ModelGraph(
        layers=[expand, head], class_count=2, input_shape=(1, 1, 1),
        input_scale=DB_SCALE, input_zero_point=127,
    )


class TestAccumulatorDtype:
    """Layers past the float32 bound accumulate in float64."""

    @pytest.mark.parametrize("fan_in", [1000, 2048])
    def test_wide_fan_in_matches_int64_reference(self, fan_in):
        # fan_in * 128 * 256 is past 2**24 for both; 1000 is under twice it
        model = wide_fan_in_model(fan_in)
        spec = MelSpectrogram(np.full((1, 1), -80.0, dtype=np.float32))
        want = int8_reference(model, spec.values)
        assert infer(model, spec).tobytes() == want.tobytes()

    def test_reference_matches_infer_under_the_bound(self):
        rng = np.random.default_rng(41)
        model = ModelGraph(
            layers=[
                _layer(rng, "conv2d", 1, 3, (3, 2), 2, 1, weight_scale=0.0003,
                       out_scale=0.08, out_zero_point=-20),        # (3, 3, 3)
                _layer(rng, "depthwise_conv2d", 3, 3, (3, 3), 1, 0,
                       weight_scale=0.002, out_scale=0.15,
                       out_zero_point=10),                          # (3, 1, 1)
                _layer(rng, "pointwise_conv2d", 3, 4, weight_scale=0.005,
                       out_scale=0.03, out_zero_point=-60),        # (4, 1, 1)
                _layer(rng, "linear", 4, 3, weight_scale=0.002, out_scale=1.0,
                       out_zero_point=0),
            ],
            class_count=3, input_shape=(1, 6, 5), input_scale=DB_SCALE,
            input_zero_point=127,
        )
        for seed in range(10):
            spec = spec_for(model, seed)
            want = int8_reference(model, spec.values)
            assert infer(model, spec).tobytes() == want.tobytes()
