"""Int8 inference runtime for small convolutional classifiers.

Models are linear layer lists in the style of mobile inverted-residual
nets: regular, depthwise, and pointwise convolutions, relu6, residual
adds, one global average pool, and a final linear classifier. Weights are
symmetric per-tensor int8 (zero point 0), activations affine per-tensor
int8, and products accumulate as exact integers (in float32 when a layer's
_worst_accumulator is below 2**24, else in float64). One requantize
step (float32 multiplier, round, zero point, clamp to int8) quantizes the
input, requantizes each weighted or pool output but the logits, and fills
the byte tables of relu6 (256 bytes, for bytes.translate) and residual adds
(65536 entries, indexed by the pair of input and skip codes). Inference
walks the layers once and holds each output only until its last reader,
the liveness resource_report's ram_bytes counts.
"""

from .engine import float_reference_infer, infer
from .fixture import generate_fixture_model
from .graph import (
    INPUT_BUFFER,
    LAYER_KINDS,
    WEIGHTED_KINDS,
    LayerSpec,
    ModelGraph,
)
from .resources import ResourceReport, resource_report
from .serialize import MODEL_MAGIC, MODEL_VERSION, load_model, save_model

__all__ = [
    "INPUT_BUFFER",
    "LAYER_KINDS",
    "WEIGHTED_KINDS",
    "MODEL_MAGIC",
    "MODEL_VERSION",
    "LayerSpec",
    "ModelGraph",
    "ResourceReport",
    "load_model",
    "save_model",
    "infer",
    "float_reference_infer",
    "resource_report",
    "generate_fixture_model",
]
