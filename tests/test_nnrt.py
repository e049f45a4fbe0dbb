"""Quantized runtime tests.

Hand-built micro graphs pin down the integer arithmetic, the cost model,
and the serialization format; the generated test model is checked against
frozen structural and resource numbers.
"""

import hashlib
import math

import numpy as np
import pytest

from birdedge.exceptions import FormatError, GraphError, ShapeError, UnsupportedError
from birdedge.melspec import MelSpectrogram
from birdedge.nnrt import (
    INPUT_BUFFER,
    LAYER_KINDS,
    MODEL_MAGIC,
    LayerSpec,
    ModelGraph,
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

from birdedge.nnrt.engine import _relu6_table, _rescale_table

from conftest import FIXTURE_CLASSES, FIXTURE_SEED, random_spec


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

    def test_bias_wrong_length(self):
        m = chain_model()
        m.layers[0].bias = np.zeros(5, dtype=np.int32)
        self.err(m)


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


def probs_digest(model, specs):
    h = hashlib.sha256()
    for spec in specs:
        h.update(infer(model, spec).tobytes())
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
