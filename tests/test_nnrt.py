"""Quantized runtime tests.

Hand-built micro graphs pin down the integer arithmetic, the cost model,
and the serialization format; the generated test model is checked against
frozen structural and resource numbers.
"""

import dataclasses
import functools
import gc
import hashlib
import math
import re
import struct
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import birdedge.nnrt.engine
import birdedge.nnrt.fixture
import birdedge.nnrt.graph
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
    float_reference_infer,
    generate_fixture_model,
    infer,
    load_model,
    resource_report,
    save_model,
)

from birdedge.nnrt.engine import (
    _PLANS,
    _correlation,
    _exact_in_float32,
    _float_step,
    _int8_step,
    _quantize_input,
    _relu6_table,
    _residual_table,
    _row_tiles,
    _walk,
)
from birdedge.nnrt.graph import (
    MAX_SCALE,
    MAX_TILE_BYTES,
    MIN_SCALE,
    WEIGHTED_KINDS,
    _worst_accumulator,
    validate_graph,
)

from conftest import FIXTURE_CLASSES, FIXTURE_SEED, random_spec, with_linear_geometry


def int8(values):
    return np.asarray(values, dtype=np.int8)


def rand_weight(rng, *shape):
    return rng.integers(-127, 128, size=shape).astype(np.int8)


def conv(in_ch, out_ch, kernel=(3, 3), stride=1, padding=1, *, seed=0, bias=None,
         kind="conv2d", out_scale=0.5, out_zero_point=0, weight=None):
    rng = np.random.default_rng(seed)
    if weight is None and kind == "depthwise_conv2d":
        weight = rand_weight(rng, out_ch, *kernel)
    elif weight is None:
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


def with_layer(model, index, layer):
    """model rebuilt with layer in place of its layer index."""
    layers = list(model.layers)
    layers[index] = layer
    return dataclasses.replace(model, layers=layers)


def edited(build, index, **fields):
    """build()'s model rebuilt with the given field values on its layer
    index (None: on the graph). Building checks the edit, so an invalid
    one raises GraphError here."""
    model = build()
    if index is None:
        return dataclasses.replace(model, **fields)
    return with_layer(model, index, dataclasses.replace(model.layers[index], **fields))


def check_total(blob, max_elements=None):
    """An edited file either fails with a BirdEdgeError, on load or in
    infer, or classifies into finite probabilities, without a warning. A
    graph with a buffer over max_elements elements is only loaded."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            model = load_model(blob)
            if max_elements and max(map(math.prod, model.shapes)) > max_elements:
                return
            probabilities = infer(model, spec_for(model))
        except BirdEdgeError:
            return
    assert np.isfinite(probabilities).all()
    assert math.isclose(probabilities.sum(), 1.0)


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
        model = with_layer(chain_model(), 0, conv(1, 2, seed=3, bias=bias))
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

    @pytest.mark.parametrize("field,message", [
        (0, "layer 0: conv2d expects 0 channels, input has 1"),
        (1, "layer 0: conv2d has no output channels"),
        (2, "layer 0: bad kernel geometry"),
        (3, "layer 0: bad kernel geometry"),
    ], ids=["in_ch", "out_ch", "k_h", "k_w"])
    def test_zero_size_rejected_on_load(self, field, message):
        # the first record (conv2d) with one of in_ch, out_ch, k_h, k_w
        # (u32 each, after its kind byte) set to 0 declares no weights, so
        # its 18 weight bytes go too and the file parses
        blob = save_model(chain_model())
        start = 36 + struct.calcsize("<BIIIIIIfifiB")
        offset = 36 + 1 + 4 * field
        patched = bytearray(blob[:start] + blob[start + 18:])
        patched[offset:offset + 4] = struct.pack("<I", 0)
        with pytest.raises(GraphError, match=message):
            load_model(bytes(patched))

    def test_weight_count_limit_rejected_on_load(self):
        # in_ch = out_ch = 2**13 in the first record declare 2**26 * 9
        # weights: refused from the record alone, not as a truncated read
        blob = bytearray(save_model(chain_model()))
        blob[37:45] = struct.pack("<II", 1 << 13, 1 << 13)
        with pytest.raises(FormatError, match="implausible weight count 603979776"):
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

    def test_int32_accumulator_bound_is_checked_at_build(self):
        # the bias edit that once reached infer unchecked is refused when
        # the edited graph is built
        bias = strided_model().layers[-1].bias.copy()
        bias[-1] = 2**31 - 1
        with pytest.raises(GraphError, match="layer 7: linear worst-case accumulator"):
            edited(strided_model, -1, bias=bias)

    def test_int32_bound_message_is_the_same_however_built(self):
        model = strided_model()
        bias = model.layers[-1].bias.copy()
        bias[-1] = 2**31 - 1
        head = dataclasses.replace(model.layers[-1], bias=bias)
        blob = bytearray(save_model(model))
        blob[-4:] = struct.pack("<i", 2**31 - 1)  # the head's last bias
        builds = [
            lambda: ModelGraph([*model.layers[:-1], head], model.class_count,
                               model.input_shape, model.input_scale,
                               model.input_zero_point),
            lambda: with_layer(model, -1, head),
            lambda: load_model(bytes(blob)),
        ]
        for build in builds:
            with pytest.raises(GraphError) as raised:
                build()
            assert str(raised.value) == (
                "layer 7: linear worst-case accumulator 2147511167 overflows int32"
            )

    @pytest.mark.parametrize("input_zp, inner_zp", [(127, 0), (0, -128)])
    def test_int32_bound_uses_each_layers_input_zero_point(self, input_zp, inner_zp):
        # the linear head reads the pool's output, so its worst case is
        # sum |w| * (128 + |inner_zp|) + |bias|, whatever the graph input's
        # zero point; the bias brings it to the int32 maximum, then one past
        fan = int(np.abs(linear(2, 2, seed=4).weight[1].astype(np.int64)).sum())
        bias = 2**31 - 1 - fan * (128 + abs(inner_zp))

        def model(last_bias):
            head = linear(2, 2, seed=4, bias=np.array([0, last_bias], dtype=np.int32))
            return ModelGraph(
                layers=[conv(1, 2, seed=3), pool(out_zero_point=inner_zp), head],
                class_count=2,
                input_shape=(1, 4, 4),
                input_scale=0.5,
                input_zero_point=input_zp,
            )

        blob = save_model(model(bias))
        assert save_model(load_model(blob)) == blob
        with pytest.raises(GraphError, match="layer 2: linear worst-case"):
            model(bias + 1)
        # the same bias patched into the file: the head's bias ends it
        patched = blob[:-4] + struct.pack("<i", bias + 1)
        with pytest.raises(GraphError, match="layer 2: linear worst-case"):
            load_model(patched)

    def test_default_input_scale_classifies_the_same_after_load(self, fixture_model):
        # the container stores the input scale as a float32; an unrounded
        # default quantized inputs on half-steps of its grid differently
        graph = ModelGraph(layers=fixture_model.layers, class_count=FIXTURE_CLASSES)
        loaded = load_model(save_model(graph))
        rng = np.random.default_rng(0)
        for _ in range(4):
            steps = rng.integers(-255, 0, size=graph.input_shape[1:]) + 0.5
            spec = MelSpectrogram((steps * graph.input_scale).astype(np.float32))
            assert infer(loaded, spec).tobytes() == infer(graph, spec).tobytes()
        assert graph.input_scale == loaded.input_scale == float(np.float32(80.0 / 255.0))

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
        rng = np.random.default_rng(1)
        for blob in map(save_model, (chain_model(), residual_model(), strided_model())):
            for _ in range(500):
                edited = bytearray(blob)
                for _ in range(int(rng.integers(1, 4))):
                    edited[int(rng.integers(len(edited)))] = int(rng.integers(256))
                check_total(bytes(edited))


class TestValidation:
    def test_valid_models_pass(self):
        validate_graph(chain_model())
        validate_graph(residual_model())

    def err(self, build):
        """build() raises GraphError: the graph it builds is invalid."""
        with pytest.raises(GraphError):
            build()

    def test_empty_model(self):
        self.err(lambda: ModelGraph(layers=[], class_count=2))
        self.err(lambda: ModelGraph(layers=None, class_count=2))

    def test_multichannel_input(self):
        self.err(lambda: edited(chain_model, None, input_shape=(2, 4, 4)))

    def test_last_layer_not_linear(self):
        m = chain_model()
        self.err(lambda: dataclasses.replace(m, layers=m.layers[:-1]))

    def test_class_count_mismatch(self):
        self.err(lambda: edited(chain_model, None, class_count=5))

    def test_conv_channel_mismatch(self):
        self.err(lambda: with_layer(chain_model(), 0, conv(3, 2, seed=3)))

    def test_depthwise_must_preserve_channels(self):
        bad = conv(2, 4, seed=9, kind="depthwise_conv2d")
        self.err(lambda: with_layer(residual_model(), 2, bad))

    def test_pointwise_needs_1x1(self):
        bad = conv(2, 4, kernel=(3, 3), seed=6, kind="pointwise_conv2d")
        self.err(lambda: with_layer(residual_model(), 2, bad))

    def test_linear_needs_pooled_input(self):
        m = chain_model()
        self.err(lambda: dataclasses.replace(m, layers=[m.layers[0], m.layers[1], m.layers[3]]))

    def test_kernel_too_large(self):
        bad = conv(1, 2, kernel=(9, 9), padding=0, seed=3)
        self.err(lambda: with_layer(chain_model(), 0, bad))

    def test_residual_forward_reference(self):
        self.err(lambda: with_layer(residual_model(), 5, residual(skip_from=7)))

    def test_residual_shape_mismatch(self):
        # (4,4,4) against (2,4,4)
        self.err(lambda: with_layer(residual_model(), 5, residual(skip_from=2)))

    def test_missing_weights(self):
        self.err(lambda: edited(chain_model, 0, weight=None))

    def test_wrong_weight_dtype(self):
        weight = chain_model().layers[0].weight.astype(np.int16)
        self.err(lambda: edited(chain_model, 0, weight=weight))

    def test_object_weights(self):
        self.err(lambda: edited(chain_model, 0, weight=np.array([None] * 18)))

    def test_wrong_weight_size(self):
        weight = chain_model().layers[0].weight.reshape(-1)[:-1]
        self.err(lambda: edited(chain_model, 0, weight=weight))

    def test_nonzero_weight_zero_point(self):
        # weights are symmetric, so the weight zero point slot of the first
        # record (after its kind byte, six u32 dims and weight scale) is 0
        blob = bytearray(save_model(chain_model()))
        offset = 36 + struct.calcsize("<BIIIIIIf")
        assert struct.unpack_from("<i", blob, offset) == (0,)
        blob[offset:offset + 4] = struct.pack("<i", 3)
        with pytest.raises(FormatError, match="zero point 0, got 3"):
            load_model(bytes(blob))

    def test_negative_out_scale(self):
        self.err(lambda: edited(chain_model, 1, out_scale=-1.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field,layer,where", [
        ("input_scale", None, "input scale"),
        ("out_scale", 1, "layer 1: output scale"),
        ("weight_scale", 0, "layer 0: weight scale"),
    ])
    def test_nonfinite_scale(self, field, layer, where, value):
        with pytest.raises(GraphError, match=where):
            edited(chain_model, layer, **{field: value})

    @pytest.mark.parametrize("value", [2.0**-33, 1e-40, 2.0**33, 3e38])
    @pytest.mark.parametrize("field,layer,where", [
        ("input_scale", None, "input scale"),
        ("weight_scale", 0, "layer 0: weight scale"),
        ("out_scale", 0, "layer 0: output scale"),
        ("out_scale", 1, "layer 1: output scale"),
        ("out_scale", 5, "layer 5: output scale"),  # residual_add
    ])
    def test_scale_outside_range(self, field, layer, where, value):
        with pytest.raises(GraphError, match=re.escape(f"{where} must be in [2**-32")):
            edited(residual_model, layer, **{field: value})

    def test_scale_range_ends_infer_finite(self):
        # scales at either end of [2**-32, 2**32], in any mix, pass
        # validation and keep every int8 step finite
        rng = np.random.default_rng(5)
        for build in [chain_model, residual_model, strided_model] * 20:
            m = build()
            ends = iter(rng.choice([2.0**-32, 2.0**32], size=2 * len(m.layers) + 1))
            input_scale, layers = float(next(ends)), []
            for layer in m.layers:
                scales = {"out_scale": float(next(ends))}
                if layer.weight is not None:
                    scales["weight_scale"] = float(next(ends))
                layers.append(dataclasses.replace(layer, **scales))
            m = dataclasses.replace(m, layers=layers, input_scale=input_scale)
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
        field = "input_zero_point" if layer is None else "out_zero_point"
        with pytest.raises(GraphError, match=where):
            edited(chain_model, layer, **{field: zero_point})

    @pytest.mark.parametrize("zero_point", [-1079, 531])
    def test_terminal_linear_zero_point_unchecked(self, zero_point):
        # the last layer's output affine is never applied: it yields logits
        model = edited(chain_model, -1, out_zero_point=zero_point)
        assert model.layers[-1].out_zero_point == zero_point

    @pytest.mark.parametrize("layer,hw,what", [
        (conv(1, 2, padding=2049), (4, 4), "padded input"),
        (conv(1, 2, kernel=(64, 64), padding=0), (600, 600), "im2col patch"),
        (conv(1, 64, kernel=(1, 1), padding=0), (600, 600), "output"),
    ], ids=["padded-input", "patches", "output"])
    def test_buffer_cap(self, layer, hw, what):
        with pytest.raises(GraphError, match=f"layer 0: conv2d {what}"):
            ModelGraph(
                layers=[layer, pool(), linear(layer.out_ch, 2)],
                class_count=2, input_shape=(1, *hw),
            )

    def test_input_buffer_cap(self):
        with pytest.raises(GraphError, match="exceeds the buffer cap"):
            chain_model(hw=(4097, 4097))

    def test_buffer_cap_is_inclusive(self):
        # input, padded input, patches and output all hold exactly 2**24
        model = ModelGraph(
            layers=[conv(1, 1, kernel=(1, 1), padding=0), pool(), linear(1, 2)],
            class_count=2, input_shape=(1, 4096, 4096),
        )
        validate_graph(model)

    def test_bias_wrong_length(self):
        self.err(lambda: edited(chain_model, 0, bias=np.zeros(5, dtype=np.int32)))

    @pytest.mark.parametrize("field, where", [
        ("weight", "layer 0: weights must be int8, got int"),
        ("bias", "layer 0: bias must be int32 of length 2"),
    ], ids=["weight", "bias"])
    def test_array_given_as_a_list(self, field, where):
        # a list used to fail validate_graph with an AttributeError on .dtype
        values = chain_model().layers[0].weight.tolist() if field == "weight" else [1, 2]
        with pytest.raises(GraphError, match=where):
            edited(chain_model, 0, **{field: values})

    @pytest.mark.parametrize("kernel,stride,padding", [
        ((3, 2), 1, 0), ((1, 3), 1, 0), ((1, 1), 2, 0), ((1, 1), 1, 1),
        ((3, 2), 2, 4),
    ])
    def test_linear_geometry_rejected(self, kernel, stride, padding):
        with pytest.raises(GraphError, match="layer 3: linear needs kernel 1x1"):
            edited(chain_model, 3, kernel=kernel, stride=stride, padding=padding)

    @pytest.mark.parametrize("shape", [(1, 4), (1, 0, 4), (1, 4, -1)])
    def test_bad_input_shape(self, shape):
        with pytest.raises(GraphError, match="bad input shape"):
            edited(chain_model, None, input_shape=shape)

    def test_class_count_below_1(self):
        with pytest.raises(GraphError, match="class count must be >= 1, got 0"):
            edited(chain_model, None, class_count=0)

    def test_unknown_kind(self):
        m = chain_model()
        with pytest.raises(GraphError, match="layer 1: unknown kind 'max_pool'"):
            dataclasses.replace(m, layers=[m.layers[0], LayerSpec(kind="max_pool"),
                                           *m.layers[1:]])

    @pytest.mark.parametrize("kernel,stride,padding", [
        ((0, 3), 1, 1), ((3, 0), 1, 1), ((3, 3), 0, 1), ((3, 3), 1, -1),
    ], ids=["k_h", "k_w", "stride", "padding"])
    def test_bad_kernel_geometry(self, kernel, stride, padding):
        bad = conv(1, 2, kernel, stride, padding, seed=3)
        with pytest.raises(GraphError, match="layer 0: bad kernel geometry"):
            with_layer(chain_model(), 0, bad)

    @pytest.mark.parametrize("layer,count", [
        (conv(2, 3), 54), (conv(2, 2, kind="depthwise_conv2d"), 18),
        (conv(2, 3, (1, 1), kind="pointwise_conv2d"), 6), (linear(2, 3), 6),
        (relu6(), 0), (residual(0), 0), (pool(), 0),
    ], ids=lambda v: getattr(v, "kind", None))
    def test_weight_count(self, layer, count):
        assert layer.weight_count() == count

    def test_residual_without_skip_source(self):
        with pytest.raises(GraphError, match="layer 5: residual_add without a skip"):
            with_layer(residual_model(), 5, residual(skip_from=None))

    def test_linear_channel_mismatch(self):
        with pytest.raises(GraphError, match="layer 3: linear expects 3 channels, input"):
            with_layer(chain_model(), 3, linear(3, 2))


def zero_channel_model(kind):
    """A chain_model whose conv2d, pointwise conv or extra linear ahead of
    the head has out_ch 0, so the head reads 0 channels."""
    layers = {
        "conv2d": [conv(1, 0, seed=3), relu6(), pool()],
        "pointwise_conv2d": [conv(1, 0, (1, 1), padding=0, kind="pointwise_conv2d"),
                             relu6(), pool()],
        "linear": [conv(1, 2, seed=3), relu6(), pool(), linear(2, 0)],
    }[kind]
    return ModelGraph(layers=[*layers, linear(0, 2)], class_count=2,
                      input_shape=(1, 4, 4), input_scale=0.5, input_zero_point=0)


class TestZeroChannels:
    """A weighted layer with no output channels is a GraphError when the
    graph is built, so no entry receives one; infer and
    float_reference_infer used to divide by zero or fail a reshape. Every
    entry keeps its case, each raising before the entry is called."""

    @pytest.mark.parametrize("entry", [
        validate_graph, resource_report, save_model,
        lambda m: infer(m, spec_for(m)),
        lambda m: float_reference_infer(m, spec_for(m)),
    ], ids=["validate_graph", "resource_report", "save_model", "infer",
            "float_reference_infer"])
    @pytest.mark.parametrize("kind,where", [
        ("conv2d", "layer 0: conv2d"),
        ("pointwise_conv2d", "layer 0: pointwise_conv2d"),
        ("linear", "layer 3: linear"),
    ], ids=["conv2d", "pointwise", "linear"])
    def test_every_entry_raises(self, kind, where, entry):
        with pytest.raises(GraphError, match=f"{where} has no output channels"):
            entry(zero_channel_model(kind))


@functools.cache
def depthwise_fixture():
    """Fixture (3, 0), whose layer 2 is a depthwise conv; built once."""
    model = generate_fixture_model(3, 0)
    assert model.layers[2].kind == "depthwise_conv2d"
    return model


# (build, layer index or None for the graph, field values, expected message)
NON_INTEGER_CASES = {
    "in_ch": (chain_model, 0, {"in_ch": 1.0}, "layer 0: in_ch must be an integer"),
    "out_ch": (chain_model, 0, {"out_ch": 2.0}, "layer 0: out_ch must be an integer"),
    "kernel-height": (chain_model, 0, {"kernel": (3.0, 3)},
                      "layer 0: kernel height must be an integer"),
    "kernel-width": (chain_model, 0, {"kernel": (3, np.float64(3))},
                     "layer 0: kernel width must be an integer"),
    "stride": (chain_model, 0, {"stride": 1.0}, "layer 0: stride must be an integer"),
    "padding": (chain_model, 0, {"padding": 1.0}, "layer 0: padding must be an integer"),
    "linear-in_ch": (chain_model, 3, {"in_ch": 2.0}, "layer 3: in_ch must be an integer"),
    "skip_from": (residual_model, 5, {"skip_from": 1.0},
                  "layer 5: skip source must be an integer"),
    "output-zero-point": (chain_model, 1, {"out_zero_point": -128.0},
                          "layer 1: output zero point must be an integer"),
    "depthwise-zero-point": (depthwise_fixture, 2, {"out_zero_point": -8.5},
                             "layer 2: output zero point must be an integer"),
    "terminal-zero-point": (chain_model, 3, {"out_zero_point": 0.0},
                            "layer 3: output zero point must be an integer"),
    "input-zero-point": (chain_model, None, {"input_zero_point": 0.0},
                         "input zero point must be an integer"),
    "class-count": (chain_model, None, {"class_count": 2.0},
                    "class count must be an integer, got 2.0"),
    "input-dimension": (chain_model, None, {"input_shape": (1, 4.0, 4)},
                        "input dimension must be an integer, got 4.0"),
    # a kernel that is not a pair of sides, an input shape that is not a sequence
    "kernel-one-side": (chain_model, 0, {"kernel": (3,)},
                        re.escape("layer 0: kernel must be a pair of integers, got (3,)")),
    "kernel-int": (chain_model, 0, {"kernel": 3},
                   "layer 0: kernel must be a pair of integers, got 3"),
    "kernel-three-sides": (chain_model, 0, {"kernel": (3, 3, 3)},
                           re.escape("layer 0: kernel must be a pair of integers, "
                                     "got (3, 3, 3)")),
    "input-shape-int": (chain_model, None, {"input_shape": 5},
                        "input shape must be a sequence of 3 integers, got 5"),
}


class TestIntegerFields:
    """A count, size or zero point that is not an int or a numpy integer is
    a GraphError naming the field when the graph is built, so no entry
    receives one. A float used to pass validate_graph and then fail in
    numpy or struct with a TypeError, or run silently truncated. So is a
    kernel that is not a pair of sides and an input shape that is not a
    sequence. Every entry keeps its case, each raising before the entry is
    called."""

    ENTRIES = {
        "validate_graph": validate_graph,
        "resource_report": resource_report,
        "save_model": save_model,
        "infer": infer,
        "float_reference_infer": float_reference_infer,
    }

    @pytest.mark.parametrize("entry", list(ENTRIES))
    @pytest.mark.parametrize("case", list(NON_INTEGER_CASES))
    def test_every_entry_raises(self, case, entry):
        build, index, fields, message = NON_INTEGER_CASES[case]
        spec = spec_for(build())  # drawn on the unedited, integer shape
        run = self.ENTRIES[entry]
        with pytest.raises(GraphError, match=message):
            model = edited(build, index, **fields)
            run(model, spec) if entry.endswith("infer") else run(model)

    def test_numpy_integers_are_integers(self):
        model = edited(chain_model, 0, in_ch=np.int64(1), out_ch=np.int32(2),
                       kernel=(np.uint8(3), np.int16(3)), stride=np.int64(1),
                       padding=np.uint32(1), out_zero_point=np.int8(0))
        model = dataclasses.replace(model, class_count=np.int64(2),
                                    input_zero_point=np.int32(0),
                                    input_shape=tuple(np.array(model.input_shape)))
        spec = spec_for(chain_model())
        assert validate_graph(model) == validate_graph(chain_model())
        assert np.array_equal(infer(model, spec), infer(chain_model(), spec))
        layer = model.layers[0]
        stored = (model.class_count, model.input_zero_point, *model.input_shape,
                  layer.in_ch, layer.out_ch, *layer.kernel, layer.stride, layer.padding,
                  layer.out_zero_point)
        assert all(type(value) is int for value in stored)

    def test_a_numpy_bool_is_not_an_integer(self):
        # stored as it is, not as the Python bool (an int) it equals
        with pytest.raises(GraphError, match="layer 0: stride must be an integer"):
            edited(chain_model, 0, stride=np.True_)
        with pytest.raises(GraphError, match="layer 0: kernel width must be an integer"):
            edited(chain_model, 0, kernel=(3, np.True_))
        with pytest.raises(GraphError, match="class count must be an integer"):
            edited(chain_model, None, class_count=np.True_)

    def test_numpy_float_scales_are_python_floats(self, fixture_model):
        # a float32 weight scale once multiplied in float32 inside infer,
        # though save_model wrote the same bytes for both graphs
        def in_float32(layer):
            scales = {"out_scale": np.float32(layer.out_scale)}
            if layer.weight is not None:
                scales["weight_scale"] = np.float32(layer.weight_scale)
            return dataclasses.replace(layer, **scales)

        model = dataclasses.replace(
            fixture_model, layers=[in_float32(layer) for layer in fixture_model.layers],
            input_scale=np.float32(fixture_model.input_scale),
        )
        assert save_model(model) == save_model(fixture_model)
        for seed in range(3):
            spec = random_spec(seed)
            for run in (infer, float_reference_infer):
                assert run(model, spec).tobytes() == run(fixture_model, spec).tobytes()
        assert all(type(layer.weight_scale) is float and type(layer.out_scale) is float
                   for layer in model.layers)
        assert type(model.input_scale) is float

    @pytest.mark.parametrize("kernel", [
        (np.uint8(3), np.uint8(3)), np.array([3, 3], dtype=np.uint8),
    ], ids=["tuple", "array"])
    def test_a_numpy_kernel_on_a_wide_input(self, kernel):
        # uint8 sides once overflowed in validate_graph's buffer sizes
        plain = chain_model(hw=(4, 300))
        model = with_layer(plain, 0, dataclasses.replace(plain.layers[0], kernel=kernel))
        assert model.layers[0].kernel == (3, 3)
        assert all(type(side) is int for side in model.layers[0].kernel)
        assert model.shapes == plain.shapes
        spec = spec_for(plain)
        assert infer(model, spec).tobytes() == infer(plain, spec).tobytes()

    def test_a_numpy_16x16_kernel_counts_its_weights(self):
        # uint8 sides once made weight_count 2 * 16 * 16 wrap to 0
        layer = conv(1, 2, kernel=(np.uint8(16), np.uint8(16)), padding=0, seed=3)
        assert layer.weight_count() == 512
        model = ModelGraph(layers=[layer, pool(), linear(2, 2)], class_count=2,
                           input_shape=(1, 16, 16))
        assert model.shapes[1] == (2, 1, 1)

    @pytest.mark.parametrize("build", [chain_model, residual_model, every_record_model],
                             ids=["chain", "residual", "every_record"])
    def test_input_shape_as_a_list_is_the_tuple(self, build):
        model = build()
        listed = dataclasses.replace(model, input_shape=list(model.input_shape))
        spec = spec_for(model)
        assert type(listed.input_shape) is tuple and listed.input_shape == model.input_shape
        assert validate_graph(listed) == validate_graph(model)
        assert resource_report(listed) == resource_report(model)
        assert save_model(listed) == save_model(model)
        for run in (infer, float_reference_infer):
            assert run(listed, spec).tobytes() == run(model, spec).tobytes()


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
        model = with_layer(chain_model(classes=5), -1,
                           linear(2, 5, weight=np.zeros((5, 2), dtype=np.int8)))
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, -1e300])
    def test_nonfinite_input_rejected(self, bad):
        model = chain_model()
        values = spec_for(model, seed=5).values
        if np.isfinite(bad):  # finite in float64, but beyond float32
            values = values.astype(np.float64)
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
        assert resource_report(model).flops == expect

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
        assert resource_report(residual_model()).flops == expect == 1226

    def test_ram_chain_liveness(self):
        # buffers: input 16, conv 32, relu 32, pool 2, linear 2
        # steps:   conv 16+32, relu 32+32, pool 32+2, linear 2+2
        assert resource_report(chain_model()).ram_bytes == 64

    def test_ram_residual_span(self):
        # the relu6 output (32 B) stays live through both pointwise convs;
        # peak is at the second relu6: 64 in + 64 out + 32 skip
        assert resource_report(residual_model()).ram_bytes == 160

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
        assert resource_report(model).ram_bytes == 48

    def test_ram_ignores_weight_values(self):
        a = chain_model()
        b = edited(chain_model, 0, weight=np.zeros_like(a.layers[0].weight))
        assert resource_report(a).ram_bytes == resource_report(b).ram_bytes

    def test_rom_is_serialized_size(self):
        for model in (chain_model(), residual_model()):
            assert resource_report(model).rom_bytes == len(save_model(model))

    def test_rom_is_serialized_size_on_every_record_and_fixture(self):
        models = [every_record_model()] + [
            generate_fixture_model(classes, seed)
            for classes in (1, 2, 5, 31, 64)
            for seed in range(4)
        ]
        for model in models:
            assert resource_report(model).rom_bytes == len(save_model(model))

    def test_rom_of_an_invalid_graph_raises(self):
        # the container size reads out_ch, not the bias, so only the
        # validation sees the short bias
        with pytest.raises(GraphError, match="layer 0: bias must be int32 of length 2"):
            resource_report(edited(chain_model, 0, bias=np.zeros(1, dtype=np.int32)))

    def test_zero_bias_costs_rom_only(self):
        plain = chain_model()
        biased = with_layer(plain, 0, conv(1, 2, seed=3, bias=np.zeros(2, dtype=np.int32)))
        cost = resource_report(plain)
        assert resource_report(biased) == dataclasses.replace(
            cost, rom_bytes=cost.rom_bytes + 2 * 4
        )
        spec = spec_for(plain, seed=5)
        assert np.array_equal(infer(plain, spec), infer(biased, spec))

    def test_rom_invariant_to_input_size(self):
        small = resource_report(chain_model(hw=(8, 8)))
        large = resource_report(chain_model(hw=(12, 12)))
        assert small.rom_bytes == large.rom_bytes
        assert small.flops < large.flops
        assert small.ram_bytes < large.ram_bytes

    def test_report_of_an_invalid_graph_raises(self):
        weight = chain_model().layers[0].weight[:-1]
        with pytest.raises(GraphError, match="layer 0: expected 18 weights"):
            resource_report(edited(chain_model, 0, weight=weight))


class TestBuiltOnce:
    """A graph is checked when it is built and never again: it cannot be
    edited in place, so nothing that takes a built graph re-checks it."""

    def test_entries_do_not_validate_a_built_graph(self, fixture_model, monkeypatch):
        calls = []

        def counting(model):
            calls.append(model)
            return validate_graph(model)

        # every nnrt module, so a validate_graph imported anew is counted too
        for module in (birdedge.nnrt.graph, birdedge.nnrt.engine, birdedge.nnrt.fixture,
                       birdedge.nnrt.resources, birdedge.nnrt.serialize):
            monkeypatch.setattr(module, "validate_graph", counting, raising=False)
        spec = random_spec(0)
        infer(fixture_model, spec)
        float_reference_infer(fixture_model, spec)
        assert resource_report(fixture_model) == ResourceReport(5315248, 96000, 22803)
        blob = save_model(fixture_model)
        assert calls == []
        load_model(blob)  # builds a graph: one validation
        assert len(calls) == 1
        dataclasses.replace(fixture_model)
        assert len(calls) == 2

    def test_a_built_graph_cannot_be_edited(self, fixture_model):
        with pytest.raises(AttributeError):
            fixture_model.layers.append(relu6())
        with pytest.raises(dataclasses.FrozenInstanceError):
            fixture_model.class_count = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            fixture_model.layers[1].out_scale = 0.05
        assert len(fixture_model.layers) == 97

    def test_layers_given_as_a_list_are_not_shared(self):
        layers = list(chain_model().layers)
        model = ModelGraph(layers, input_shape=(1, 4, 4), input_scale=0.5,
                           input_zero_point=0)
        layers.pop()
        assert len(model.layers) == 4 and model.layers[-1].kind == "linear"

    def test_built_arrays_are_read_only(self, fixture_model):
        loaded = load_model(save_model(fixture_model))
        with pytest.raises(ValueError, match="read-only"):
            loaded.layers[-1].bias[-1] = 2**31 - 1
        for model in (fixture_model, loaded, every_record_model()):
            arrays = [array for layer in model.layers
                      for array in (layer.weight, layer.bias) if array is not None]
            assert len(arrays) > 2
            for array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
                with pytest.raises(ValueError, match="read-only"):
                    array.reshape(-1)[0] = 0
                with pytest.raises(ValueError):  # a cached plan would miss the write
                    array.flags.writeable = True

    def test_the_callers_arrays_are_copied(self):
        weight = rand_weight(np.random.default_rng(3), 2, 1, 3, 3)
        bias = np.array([5, -7], dtype=np.int32)
        model = with_layer(chain_model(), 0, conv(1, 2, weight=weight[:], bias=bias))
        spec = spec_for(model)
        before = infer(model, spec).tobytes()
        weight[...] = 127  # through the base of the view the graph was given
        bias[...] = 1 << 20
        assert infer(model, spec).tobytes() == before
        # a new model over the same layers is prepared after the write
        assert infer(dataclasses.replace(model), spec).tobytes() == before
        assert model.layers[0].weight.base is not weight

    def test_a_model_is_prepared_once_per_lifetime(self, monkeypatch):
        calls, step = [], birdedge.nnrt.engine._int8_step

        def counting(*args):
            calls.append(args[0])
            return step(*args)

        monkeypatch.setattr(birdedge.nnrt.engine, "_int8_step", counting)
        model = generate_fixture_model(3, 0)
        spec = random_spec(0)
        first = infer(model, spec)
        assert infer(model, spec).tobytes() == first.tobytes()
        assert calls == list(model.layers)
        edited = dataclasses.replace(model)  # the same layers, a new model
        assert infer(edited, spec).tobytes() == first.tobytes()
        assert len(calls) == 2 * len(model.layers)
        alive = weakref.ref(model)
        del model, edited
        gc.collect()
        assert alive() is None

    def test_graphs_compare_and_hash_by_identity(self, fixture_model):
        blob = save_model(fixture_model)
        first, second = load_model(blob), load_model(blob)
        assert first == first and first != second
        assert first.layers[0] != second.layers[0]
        plans = {fixture_model: 0, first: 1, second: 2}
        assert len(plans) == 3 and plans[first] == 1 and plans[fixture_model] == 0
        assert save_model(first) == save_model(second) == blob


# int8 zero points and weights, the two ends of the range drawn as often
# as the rest; biases likewise up to +-2**20
ZERO_POINTS = st.sampled_from((-128, 127)) | st.integers(-128, 127)
BIASES = st.sampled_from((-(2**20), 2**20)) | st.integers(-(2**20), 2**20)
SCALES = st.floats(2**-8, 4.0).map(lambda v: float(np.float32(v)))


@functools.cache
def weighted_strategy(weight_shape, out_ch):
    """Drawn int8 weights of weight_shape and, half the time, a drawn int32
    bias of out_ch entries, as LayerSpec keywords. Built once per shape:
    building the strategy costs more than drawing from it."""
    return st.fixed_dictionaries({
        "weight": arrays(np.int8, weight_shape, elements=ZERO_POINTS),
        "bias": st.none() | arrays(np.int32, out_ch, elements=BIASES),
    })


@st.composite
def small_graphs(draw, drawn_weights=True):
    """A small valid ModelGraph on a (1, H, W) input with a drawn input
    affine: 1-6 layers of any kind but linear, with 1-3 kernels, strides
    1-2, paddings below the kernel and residual sources anywhere the shapes
    agree, the graph input included, the residual's own input only when no
    other fits; then a pool unless the map is already 1x1, then the head.
    Every weight and bias is drawn, or with drawn_weights=False the weights
    are seeded and there are no biases, for tests that never read them."""
    def drawn(strategy):
        return draw(strategy) if drawn_weights else {}

    input_affine = dict(input_scale=draw(SCALES), input_zero_point=draw(ZERO_POINTS))
    shapes = [(1, draw(st.integers(1, 7)), draw(st.integers(1, 7)))]
    layers = []
    for _ in range(draw(st.integers(1, 6))):
        c, h, w = shapes[-1]
        kind = draw(st.sampled_from(LAYER_KINDS[:-1]))
        affine = dict(out_scale=draw(SCALES), out_zero_point=draw(ZERO_POINTS))
        if kind in ("conv2d", "depthwise_conv2d"):
            pad = draw(st.integers(0, 2))
            kernel = (draw(st.integers(pad + 1, min(3, h + 2 * pad))),
                      draw(st.integers(pad + 1, min(3, w + 2 * pad))))
        else:
            pad, kernel = 0, (1, 1)
        if kind in ("conv2d", "depthwise_conv2d", "pointwise_conv2d"):
            out_ch = c if kind == "depthwise_conv2d" else draw(st.integers(1, 4))
            weight_shape = (out_ch, *kernel) if kind == "depthwise_conv2d" else (
                out_ch, c, *kernel)
            layer = conv(c, out_ch, kernel, draw(st.integers(1, 2)), pad, kind=kind,
                         **drawn(weighted_strategy(weight_shape, out_ch)), **affine)
        elif kind == "residual_add":
            sources = [k + INPUT_BUFFER for k, shape in enumerate(shapes)
                       if shape == shapes[-1]]
            # the last source is the residual's own input: x + x only when
            # no other buffer fits
            layer = residual(draw(st.sampled_from(sources[:-1] or sources)), **affine)
        elif kind == "relu6":
            layer = relu6(**affine)
        else:
            layer = pool(**affine)
        layers.append(layer)
        shapes = reference_costs(layers, shapes[0])[1]
    c, h, w = shapes[-1]
    if (h, w) != (1, 1):
        layers.append(pool())
    classes = draw(st.integers(1, 3))
    layers.append(linear(c, classes, **drawn(weighted_strategy((classes, c), classes))))
    return ModelGraph(layers, class_count=classes, input_shape=shapes[0], **input_affine)


def reference_costs(layers, input_shape):
    """(FLOPs, buffer shapes) of a layer list on a (1, H, W) input, found by
    sliding each window; the list need not end in a linear head.

    Every output position of a weighted layer costs 2 FLOPs per input tap
    of each output channel; relu6 and residual_add cost one op per element,
    and the pool one per channel.
    """
    shapes = [input_shape]
    flops = 0
    for layer in layers:
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
    """Peak RAM as first written: every buffer scanned at every step."""
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
    # shapes, FLOPs and RAM never read a weight or bias value
    @settings(max_examples=200, deadline=None)
    @given(model=small_graphs(drawn_weights=False))
    def test_validate_graph_returns_every_buffer_shape(self, model):
        shapes = reference_costs(model.layers, model.input_shape)[1]
        assert validate_graph(model) == list(model.shapes) == shapes

    @settings(max_examples=200, deadline=None)
    @given(model=small_graphs(drawn_weights=False))
    def test_flops_match_a_brute_force_count(self, model):
        assert resource_report(model).flops == reference_costs(model.layers, model.input_shape)[0]

    @settings(deadline=None)
    @given(model=small_graphs())
    def test_save_load_save_is_byte_identical(self, model):
        blob = save_model(model)
        assert save_model(load_model(blob)) == blob

    @settings(max_examples=200, deadline=None)
    @given(model=small_graphs(drawn_weights=False))
    def test_ram_matches_the_quadratic_scan(self, model):
        ram = quadratic_ram(model, reference_costs(model.layers, model.input_shape)[1])
        assert resource_report(model).ram_bytes == ram

    @settings(max_examples=50, deadline=None)
    @given(model=small_graphs(), data=st.data())
    def test_byte_edits_load_and_infer_totally(self, model, data):
        # an edited input dimension or padding may ask for buffers of up to
        # 2**24 elements, which are loaded but not run, to keep this test small
        blob = save_model(model)
        edit = st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255))
        for _ in range(10):
            edited = bytearray(blob)
            for at, value in data.draw(st.lists(edit, min_size=1, max_size=3)):
                edited[at] = value
            check_total(bytes(edited), max_elements=4096)


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
        pytest.param(31.0, 7, "class_count must be an integer, got 31.0", id="float-classes"),
        pytest.param(31, 7.5, "seed must be an integer, got 7.5", id="float-seed"),
    ])
    def test_bad_arguments_are_config_errors(self, classes, seed, message):
        with pytest.raises(ConfigError, match=message):
            generate_fixture_model(classes, seed)

    def test_numpy_integer_arguments_build_the_same_model(self):
        want = save_model(generate_fixture_model(3, 1))
        assert save_model(generate_fixture_model(np.int64(3), np.uint8(1))) == want

    def test_class_bound_is_checked_before_any_weight_is_drawn(self, monkeypatch):
        # the real bound, 2**20, would cost ~17 M weights on a mutant that lifts it
        monkeypatch.setattr(birdedge.nnrt.fixture, "_MAX_DIM", 4)
        generate_fixture_model(4, 0)
        with pytest.raises(ConfigError, match=r"class_count must be in \[1, 4\], got 5"):
            generate_fixture_model(5, 0)

    def test_quantization_constants(self, fixture_model):
        assert fixture_model.input_scale == pytest.approx(80 / 255, rel=1e-6)
        assert fixture_model.input_zero_point == 127
        for layer in fixture_model.layers:
            assert layer.out_scale > 0
            if layer.kind == "relu6":
                assert layer.out_scale == float(np.float32(6 / 255))
                assert layer.out_zero_point == -128

    def test_frozen_resource_numbers(self, fixture_model):
        assert resource_report(fixture_model) == ResourceReport(5315248, 96000, 22803)

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

    def test_infer_raises_no_warning(self, fixture_model):
        specs = [random_spec(seed) for seed in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec in specs + edge_specs(fixture_model.input_shape[1:]):
                infer(fixture_model, spec)

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
# however small, moves these. Every probability digest was re-recorded when
# the softmax moved to math.exp, the same on every SIMD level of numpy.
PINNED_FIXTURE_DIGEST = (
    "bb034e1e026bbfb5310a6c375f62c11a47b5e97e113bd7247c85e24e5e269499"
)
PINNED_BRANCH_DIGESTS = {
    "strided": "1c875f0bb59eac5589437235e9dfc04061a8bc79ef774503344863e6abfa7dbf",
    "input_skip": "ef097f8993339c05f2f8298cded5fc31b342e943cd2755a0553252711efdd8d6",
}
# infer on two more fixtures, (classes, seed), over random_spec seeds 0-19
# plus edge_specs, recorded with float64 accumulators. Fixture (1, 6)
# holds the largest float32 accumulator bound of any fixture. With one
# class its probabilities are always [1.0], so its int8 layer outputs and
# logits are pinned as well.
PINNED_MORE_FIXTURE_DIGESTS = {
    (1, 6): "fbae2a731e6395e7093c5f78dfd085e9e839dd8022fb2ab08b81c8fef962dfbe",
    (64, 3): "2c704c46caeb14e4d5aa8305f4e29a3dfdb5e4a750a50ad44414c67b7555b678",
}
PINNED_ONE_CLASS_LAYERS_DIGEST = (
    "947af692a4148bab82b01a6db630e5b4195bec7eee57144142ca8650988b2700"
)
# The same inputs through float_reference_infer, recorded while the float
# path had its own interpreter (einsum depthwise, im2col for every conv).
PINNED_FLOAT_DIGESTS = {
    "fixture": "e6143059cddc4c120614f6af32fb713a76b8ad2f8be5320ed4e0f4b63a723448",
    "strided": "8f4fd7b9c1d50ca2e5a05b96f5cd8f1ce06214300012360231c4e4e86ad85313",
    "input_skip": "408ce682cd2eeb7bd6dfcecae455691fda02b51d4acf7ca751be1b8d1c02bf13",
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
        for out in _walk(model, x, _int8_step):
            h.update(out.tobytes())
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
            table = np.frombuffer(_relu6_table(in_scale, in_zp, out_scale, out_zp),
                                  np.int8)
            assert table[self.codes.view(np.uint8)].tobytes() == expect.tobytes()

    def test_relu6_translate_matches_the_table(self):
        for in_scale, in_zp, out_scale, out_zp in self.affines():
            step = _int8_step(relu6(out_scale, out_zp), (1, 16, 16), in_scale, in_zp,
                              None, False)
            got = step(self.codes.reshape(1, 16, 16), None)
            table = _relu6_table(in_scale, in_zp, out_scale, out_zp)
            expect = bytes(table[code] for code in self.codes.view(np.uint8))
            assert got.dtype == np.int8 and got.shape == (1, 16, 16)
            assert got.tobytes() == expect

    def test_residual_table_matches_the_per_element_sum(self):
        # every (x, skip) pair, x the outer code as in the table's index
        x = np.repeat(self.codes, 256)
        skip = np.tile(self.codes, 256)
        ends = [(MIN_SCALE, zp, MAX_SCALE, -1 - zp, MIN_SCALE, zp)
                for zp in (-128, 127)]
        ends += [(MAX_SCALE, 127, MIN_SCALE, -128, MAX_SCALE, 0),
                 (MAX_SCALE, -128, MAX_SCALE, 127, MIN_SCALE, -128)]
        drawn = list(self.affines(40))
        affines = [(s, zp, s2, zp2, so, zpo) for (s, zp, so, zpo), (s2, zp2, _, _)
                   in zip(drawn[::2], drawn[1::2])]
        for scale, zp, skip_scale, skip_zp, out_scale, out_zp in affines + ends:
            total = (x.astype(np.float32) - zp) * np.float32(scale / out_scale)
            total += (skip.astype(np.float32) - skip_zp) * np.float32(skip_scale / out_scale)
            expect = np.clip(np.rint(total) + out_zp, -128, 127).astype(np.int8)
            table = _residual_table(scale, zp, skip_scale, skip_zp, out_scale, out_zp)
            assert table.dtype == np.int8 and table.shape == (65536,)
            index = (x.view(np.uint8).astype(np.int64) << 8) | skip.view(np.uint8)
            assert table[index].tobytes() == expect.tobytes()

    def test_tables_are_read_only(self):
        # the relu6 table is the immutable bytes that bytes.translate takes
        table = _relu6_table(0.5, 0, 0.1, -128)
        assert type(table) is bytes and len(table) == 256
        with pytest.raises(TypeError):
            table[0] = 1
        with pytest.raises(ValueError):
            _residual_table(0.5, 0, 0.25, 3, 0.1, -128)[0] = 1

    def test_a_replaced_affine_takes_effect(self):
        # an edited graph is a new model, so it gets a plan, and tables, of its own
        def edit(model):
            model = with_layer(model, 1, dataclasses.replace(model.layers[1], out_scale=0.05))
            return with_layer(model, 5, dataclasses.replace(model.layers[5], out_zero_point=7))

        model = residual_model()
        spec = spec_for(model, seed=6)
        before = infer(model, spec)
        after = infer(edit(model), spec)
        assert after.tobytes() != before.tobytes()
        assert after.tobytes() == infer(edit(residual_model()), spec).tobytes()
        assert infer(model, spec).tobytes() == before.tobytes()


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
                correlate = _correlation(layer, x.shape, zero_point,
                                         layer.weight.astype(dtype))
                # the geometry is fixed in the plan; the input's layout is not
                for layout in (x, np.asfortranarray(x)):
                    got = correlate(layout)
                    assert got.dtype == dtype
                    np.testing.assert_array_equal(
                        got, want, err_msg=f"{dtype} {kind} {kernel} {stride} {padding}"
                    )

    def test_a_transposed_spectrogram_reads_as_its_values(self):
        # compute_melspec returns the transpose of its dB array, F-ordered;
        # strided_model's first conv is unpadded, so no padded copy makes
        # the input C-ordered before the window view reads it
        model = strided_model()
        assert model.layers[0].padding == 0
        for seed in range(3):
            spec = code_spanning_spec(model, seed)
            transposed = MelSpectrogram(np.asfortranarray(spec.values))
            assert not transposed.values.flags.c_contiguous
            want = int8_reference_layers(model, spec.values)[0]
            assert infer(model, transposed).tobytes() == want.tobytes()
            assert infer(model, spec).tobytes() == want.tobytes()
            assert (float_reference_infer(model, transposed).tobytes()
                    == float_reference_infer(model, spec).tobytes())


def copied_layers(model):
    """(index, output rows, bytes of one output row of patches in the int8
    walk) of every weighted layer whose patches are copied, so tiled: all
    but stride-1 1x1 convs and linear layers."""
    zero_point = model.input_zero_point
    for i, layer in enumerate(model.layers):
        if layer.kind in WEIGHTED_KINDS and (*layer.kernel, layer.stride) != (1, 1, 1):
            size = 4 if _worst_accumulator(layer, zero_point) < 2**24 else 8
            _, ho, wo = model.shapes[i + 1]
            yield i, ho, model.shapes[i][0] * math.prod(layer.kernel) * wo * size
        zero_point = layer.out_zero_point


def int8_layers_under_cap(model, x, cap):
    """The bytes of every int8 layer output on input codes x, walked with
    tiles of at most cap bytes. Plans are cached per model, so the walk
    runs on a freshly built copy of model."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(birdedge.nnrt.engine, "MAX_TILE_BYTES", cap)
        return [out.tobytes() for out in _walk(dataclasses.replace(model), x, _int8_step)]


class TestRowTiles:
    """Each weighted layer copies its patches in tiles of whole output rows
    under MAX_TILE_BYTES, and the tiling never shows in an output."""

    @given(height=st.integers(1, 300), row_bytes=st.integers(1, 5000),
           cap=st.integers(1, 20000))
    def test_tiles_are_the_most_rows_under_the_cap(self, height, row_bytes, cap):
        tiles = _row_tiles(height, row_bytes, cap)
        rows = max(1, cap // row_bytes)
        # in order, covering every row once
        assert [top for top, _ in tiles] == list(range(0, height, rows))
        assert [bottom for _, bottom in tiles] == [top for top, _ in tiles[1:]] + [height]
        # every tile but the last as many rows as fit, one at least
        assert all(bottom - top == rows for top, bottom in tiles[:-1])
        assert all((bottom - top) * row_bytes <= max(cap, row_bytes)
                   for top, bottom in tiles)

    @settings(deadline=None)
    @given(model=small_graphs(), seed=st.integers(0, 2**32 - 1))
    def test_random_graphs_are_byte_identical_under_any_cap(self, model, seed):
        # one row per tile; the tallest copied layer split into ho - 1 rows
        # and 1; every layer whole
        tall = [(ho, row) for _, ho, row in copied_layers(model) if ho >= 3]
        uneven = (max(tall)[0] - 1) * max(tall)[1] if tall else 1
        x = _quantize_input(model, code_spanning_spec(model, seed).values)
        whole = int8_layers_under_cap(model, x, 2**62)
        assert int8_layers_under_cap(model, x, 1) == whole
        assert int8_layers_under_cap(model, x, uneven) == whole

    def test_a_row_over_the_cap_is_a_tile_of_its_own(self):
        # the second conv's row of patches, 16 * 3 * 3 * 460 float32
        # elements, is 264,960 B, over the 256 KiB cap
        model = ModelGraph(
            layers=[conv(1, 16, seed=20, out_scale=50.0), conv(16, 2, seed=21, out_scale=1e4),
                    pool(), linear(2, 2)],
            class_count=2, input_shape=(1, 2, 460), input_scale=0.5, input_zero_point=0,
        )
        [_, (index, ho, row)] = copied_layers(model)
        assert (index, ho, row) == (1, 2, 264960) and row > MAX_TILE_BYTES
        assert _row_tiles(ho, row, MAX_TILE_BYTES) == [(0, 1), (1, 2)]
        x = _quantize_input(model, code_spanning_spec(model, 5).values)
        outputs = [out.tobytes() for out in _walk(model, x, _int8_step)]
        assert len(set(outputs[1])) > 10  # not saturated
        assert outputs == int8_layers_under_cap(model, x, 2**62)

    # bytes of small Python and numpy objects a step allocates besides its
    # buffers: views, slices, shape tuples
    ALLOWANCE = 16 << 10

    @pytest.mark.parametrize("step", [_int8_step, _float_step])
    def test_each_weighted_step_stays_under_the_cap(self, fixture_model, step):
        # a step's peak is at most its input, its centered (padded) input
        # and its output buffers, the accumulator in its dtype, a float64
        # copy of it and the returned array, plus the larger of the cap and
        # one output row of patches
        model, values = fixture_model, random_spec(3).values
        x = (_quantize_input(model, values) if step is _int8_step
             else values.reshape(model.input_shape))
        buffers = [x, *_walk(model, x, step)]
        plan, zero_point = _PLANS[model][step], model.input_zero_point
        peaks = {}
        tracemalloc.start()
        try:
            for i, layer in enumerate(model.layers):
                if layer.kind in WEIGHTED_KINDS:
                    size = 4 if (step is _int8_step and _worst_accumulator(
                        layer, zero_point) < 2**24) else 8
                    (c, h, w), (out_ch, ho, wo) = model.shapes[i : i + 2]
                    pad = 2 * layer.padding
                    bound = (buffers[i].nbytes + c * (h + pad) * (w + pad) * size
                             + out_ch * ho * wo * (size + 8) + buffers[i + 1].nbytes
                             + max(MAX_TILE_BYTES, c * math.prod(layer.kernel) * wo * size)
                             + self.ALLOWANCE)
                    run, _ = plan[i]
                    tracemalloc.reset_peak()
                    before = tracemalloc.get_traced_memory()[0]
                    out = run(buffers[i], buffers[i])
                    peaks[i] = (tracemalloc.get_traced_memory()[1] - before, bound)
                    assert out.tobytes() == buffers[i + 1].tobytes(), i
                    del out
                zero_point = layer.out_zero_point
        finally:
            tracemalloc.stop()
        assert len(peaks) == 52
        assert {i: p for i, p in peaks.items() if p[0] > p[1]} == {}


def _clamp(value):
    return min(127, max(-128, int(value)))


def int8_reference(model, values):
    """Slow int8 inference written from the engine module docstring: nested
    loops over int64 accumulators with a float64 requantize for weighted
    layers, relu6 and residual_add per element in float32 scalars, the pool
    from an exact integer sum, and float64 logits from the terminal
    accumulator. Returns the probabilities."""
    return int8_reference_layers(model, values)[0]


def int8_reference_layers(model, values):
    """int8_reference's (probabilities, int8 output of every layer but the
    last)."""
    f32 = np.float32
    q = np.rint(np.asarray(values, dtype=np.float64) / model.input_scale)
    q = np.clip(q + model.input_zero_point, -128, 127).astype(np.int64)
    buffers = [(q.reshape(model.input_shape), float(model.input_scale),
                int(model.input_zero_point))]
    for index, layer in enumerate(model.layers):
        q, scale, zero_point = buffers[-1]
        out_scale, out_zp = float(layer.out_scale), int(layer.out_zero_point)
        c, h, w = q.shape
        if layer.kind == "relu6":
            out = np.empty_like(q)
            for at in np.ndindex(q.shape):
                real = min(max(f32(q[at] - zero_point) * f32(scale), f32(0)), f32(6))
                out[at] = _clamp(np.rint(real * f32(1 / out_scale)) + out_zp)
        elif layer.kind == "residual_add":
            skip, skip_scale, skip_zp = buffers[layer.skip_from - INPUT_BUFFER]
            out = np.empty_like(q)
            for at in np.ndindex(q.shape):
                real = (f32(q[at] - zero_point) * f32(scale / out_scale)
                        + f32(skip[at] - skip_zp) * f32(skip_scale / out_scale))
                out[at] = _clamp(np.rint(real) + out_zp)
        elif layer.kind == "global_avg_pool":
            multiplier = float(f32(scale / out_scale))
            out = np.array([
                _clamp(round(sum(int(v) - zero_point for v in q[ch].flat) / (h * w)
                             * multiplier) + out_zp)
                for ch in range(c)
            ], dtype=np.int64).reshape(c, 1, 1)
        else:
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
                # math.exp as in the engine: np.exp varies with numpy's SIMD loop
                e = np.array([math.exp(v) for v in logits - logits.max()])
                return e / e.sum(), [out for out, _, _ in buffers[1:]]
            multiplier = float(f32(scale * layer.weight_scale / out_scale))
            out = np.array([
                _clamp(round(float(a) * multiplier) + out_zp) for a in acc.flat
            ], dtype=np.int64).reshape(acc.shape)
        buffers.append((out, out_scale, out_zp))
    raise AssertionError("the last layer returns")


def code_spanning_spec(model, seed):
    """Input values whose codes cover the whole int8 range of the model's
    input affine, a few saturating at either end."""
    scale, zero_point = model.input_scale, model.input_zero_point
    low, high = (-130 - zero_point) * scale, (129 - zero_point) * scale
    rng = np.random.default_rng(seed)
    values = rng.uniform(low, high, model.input_shape[1:])
    return MelSpectrogram(values.astype(np.float32))


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
        # the head's bound, 127 * fan_in * 256 + 5, is past 2**24 for both,
        # and under 2**25 for 1000
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


class TestInt8Oracle:
    """infer, and every int8 layer output on the way, equal int8_reference
    byte for byte on every layer kind."""

    @staticmethod
    def check(model, spec):
        want, want_layers = int8_reference_layers(model, spec.values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = infer(model, spec)
            x = _quantize_input(model, spec.values)
            got_layers = _walk(model, x, _int8_step)
        for index, (out, expect) in enumerate(zip(got_layers, want_layers)):
            assert out.dtype == np.int8, index
            np.testing.assert_array_equal(out, expect, err_msg=f"layer {index}")
        assert got.tobytes() == want.tobytes()

    @settings(deadline=None)
    @given(model=small_graphs(), seed=st.integers(0, 2**32 - 1))
    def test_random_graphs_match_the_reference(self, model, seed):
        self.check(model, code_spanning_spec(model, seed))

    def test_requantize_multiplier_is_rounded_to_float32(self):
        # multiplier 0.5 * 0.25 / 1.25 = 0.1 on an accumulator of 5:
        # 5 * f32(0.1) = 0.50000001 rounds to 1, 5 * 0.1 = 0.5 rounds to 0
        conv1x1 = LayerSpec(
            kind="conv2d", in_ch=1, out_ch=1, kernel=(1, 1), padding=0,
            weight=np.full((1, 1, 1, 1), 5, dtype=np.int8), weight_scale=0.25,
            out_scale=1.25,
        )
        model = ModelGraph(
            layers=[conv1x1, linear(1, 2)], class_count=2, input_shape=(1, 1, 1),
            input_scale=0.5, input_zero_point=0,
        )
        spec = MelSpectrogram(np.full((1, 1), 0.5, dtype=np.float32))
        [conv_out] = int8_reference_layers(model, spec.values)[1]
        assert conv_out.item() == 1
        self.check(model, spec)

    @pytest.mark.parametrize("input_zero_point", [-128, 127])
    @pytest.mark.parametrize("build", [
        chain_model, residual_model, every_record_model, strided_model, input_skip_model,
    ])
    def test_hand_built_graphs_match_the_reference(self, build, input_zero_point):
        model = edited(build, None, input_zero_point=input_zero_point)
        for seed in range(3):
            self.check(model, code_spanning_spec(model, seed))


def requantize_agrees(multiplier, zero_point, bound):
    """Full enumeration: clamp(rint(f32(a * m)) + zp) == clamp(rint(a * m) + zp)
    for every integer |a| <= bound, m the float32 multiplier, written from
    the engine module docstring."""
    m = np.float32(multiplier)
    a = np.arange(-bound, bound + 1, dtype=np.float64)
    single = np.clip(np.rint(a.astype(np.float32) * m) + zero_point, -128, 127)
    double = np.clip(np.rint(a * float(m)) + zero_point, -128, 127)
    return bool((single == double).all())


# a float32 multiplier whose float32 requantize (zero point 0) differs from
# the float64 one at a single integer of |a| <= 46373: a = -29989, whose
# product lies just above the step at -127.5, while f32(a * m) rounds onto
# it and then to -128. That integer is past 16384 = 128 * 128, the largest bound of
# a 1x1 conv over one channel on input zero point 0 without its bias, and it
# is not floor(-127.5 / m).
CRAFTED_MULTIPLIER = 0.0042515587992966175
CRAFTED_ACCUMULATOR = -29989


class TestFloat32Requantize:
    """_exact_in_float32 proves a layer's float32 requantize exact, and the
    layers it refuses requantize in float64."""

    @pytest.mark.parametrize(("seed", "proved"), [(0, 40), (3, 43), (7, 44)])
    def test_verdicts_match_full_enumeration_on_the_fixture(self, seed, proved):
        model = generate_fixture_model(FIXTURE_CLASSES, seed)
        scale, zero_point = model.input_scale, model.input_zero_point
        verdicts = []
        for layer in model.layers[:-1]:
            if layer.kind in WEIGHTED_KINDS:
                multiplier = scale * layer.weight_scale / layer.out_scale
                bound = _worst_accumulator(layer, zero_point)
                verdict = _exact_in_float32(multiplier, layer.out_zero_point, bound)
                assert verdict == requantize_agrees(
                    multiplier, layer.out_zero_point, bound), len(verdicts)
                verdicts.append(verdict)
            scale, zero_point = layer.out_scale, layer.out_zero_point
        assert len(verdicts) == 51 and sum(verdicts) == proved

    @settings(deadline=None, max_examples=500)
    @given(
        a=st.integers(1, 2**16),
        step=st.integers(-129, 127),
        nudge=st.integers(-1, 1),
        zero_point=ZERO_POINTS,
        extra=st.integers(0, 2**16),
    )
    def test_a_true_verdict_is_sound(self, a, step, nudge, zero_point, extra):
        # a multiplier m that puts a * m within about a float32 step of h, a
        # step of the requantize, where float32 and float64 can differ
        h = step + 0.5 - zero_point
        m = np.float32(abs(h) / a)
        multiplier = float(m + np.float32(nudge) * np.spacing(m))
        bound = min(a + extra, 2**16)
        if _exact_in_float32(multiplier, zero_point, bound):
            assert requantize_agrees(multiplier, zero_point, bound)

    def test_a_refused_layer_matches_the_reference(self):
        # the bound without the bias misses the integer; the whole bound has it
        bound = 16384 - CRAFTED_ACCUMULATOR
        assert requantize_agrees(CRAFTED_MULTIPLIER, 0, 16384)
        assert not requantize_agrees(CRAFTED_MULTIPLIER, 0, bound)
        assert not _exact_in_float32(CRAFTED_MULTIPLIER, 0, bound)
        # one accumulator per input code q, q + bias: code 0 hits the crafted one
        conv1x1 = LayerSpec(
            kind="conv2d", in_ch=1, out_ch=1, kernel=(1, 1), padding=0,
            weight=np.ones((1, 1, 1, 1), dtype=np.int8),
            weight_scale=CRAFTED_MULTIPLIER,
            bias=np.array([CRAFTED_ACCUMULATOR], dtype=np.int32), out_scale=1.0,
        )
        model = ModelGraph(
            layers=[conv1x1, pool(), linear(1, 2)], class_count=2,
            input_shape=(1, 1, 256), input_scale=1.0, input_zero_point=0,
        )
        spec = MelSpectrogram(np.arange(-128.0, 128.0, dtype=np.float32).reshape(1, 256))
        [conv_out, _] = int8_reference_layers(model, spec.values)[1]
        assert conv_out[0, 0, 128] == -127  # code 0: float32 would give -128
        TestInt8Oracle.check(model, spec)
