"""Mutation kill list: each mutant below must make one of its tests fail.

A mutant is one exact text replacement in one source file, the kind of
slip a later edit could make without moving any golden digest. Each
entry names the tests that must catch it. The script copies `src/`,
`tests/`, `pyproject.toml` and `README.md` to a temporary directory,
runs every named test there once unmutated (they must pass), then applies
each mutant in turn and runs its tests again (one of them must fail).
Tests run under the hypothesis profile "mutants" (tests/conftest.py),
which does not shrink a failing example.

It fails if a mutant survives, if its old text does not occur exactly
once in its file, or if a test errors in any other way. A survivor is
fixed by a test, never by deleting the entry.

Mutants that cannot change any output sit in EQUIVALENT, each with the
reason. They are applied the same way, and their tests must still pass:
a failure there proves the stated reason wrong.

Run from anywhere:

    python3 tests/mutants.py

The file has no test_ prefix, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    kills: tuple[str, ...]  # pytest node ids, one of which must fail


MUTANTS = (
    Mutant(
        "has_peak: > for >=",
        "src/birdedge/preprocess.py",
        "(maxima >= ratio * median)",
        "(maxima > ratio * median)",
        ("tests/test_preprocess.py::TestHasPeak::"
         "test_max_exactly_ratio_times_median_is_a_peak",),
    ),
    Mutant(
        "has_peak: window counted in its own median",
        "src/birdedge/preprocess.py",
        "np.maximum(index - span, 0)\n"
        "    offsets = np.arange(2 * span)\n"
        "    offsets[span:] += 1  # skip the window itself\n",
        "np.maximum(index - span, 0) + 1\n"
        "    offsets = np.arange(2 * span + 1)\n",
        ("tests/test_preprocess.py::TestHasPeak::"
         "test_window_is_left_out_of_its_own_median",),
    ),
    Mutant(
        "has_peak: window in its own row, count unchanged",
        "src/birdedge/preprocess.py",
        "    offsets[span:] += 1  # skip the window itself\n",
        "",
        ("tests/test_preprocess.py::TestHasPeak::"
         "test_window_is_not_sorted_in_with_its_neighbours",),
    ),
    Mutant(
        "has_peak: rows padded with 0 for +inf",
        "src/birdedge/preprocess.py",
        "pad = np.full((len(chunks), span), np.inf, dtype=maxima.dtype)",
        "pad = np.full((len(chunks), span), 0, dtype=maxima.dtype)",
        ("tests/test_preprocess.py::TestHasPeakAgainstLoop::test_matches_loop",),
    ),
    Mutant(
        "has_peak: float16 pairs averaged in float16",
        "src/birdedge/preprocess.py",
        "mean_dtype = np.promote_types(maxima.dtype, np.float32)",
        "mean_dtype = maxima.dtype",
        ("tests/test_preprocess.py::TestHasPeakAgainstLoop::"
         "test_float16_pairs_are_averaged_in_float32",),
    ),
    Mutant(
        "split_chunks: chunks past the cap kept",
        "src/birdedge/preprocess.py",
        "np.flatnonzero(peaks)[:max_chunks]",
        "np.flatnonzero(peaks)",
        ("tests/test_preprocess.py::TestSplitChunks::test_cap_applies_to_survivors",),
    ),
    Mutant(
        "split_chunks: noise taken from the windows that pass",
        "src/birdedge/preprocess.py",
        "list(windows[~peaks])",
        "list(windows[peaks])",
        ("tests/test_preprocess.py::TestSplitChunks::test_noise_windows_separated",),
    ),
    Mutant(
        "write_spectrogram: finiteness checked before the float32 cast",
        "src/birdedge/audio_io.py",
        "if not np.isfinite(cells).all()",
        "if not np.isfinite(values).all()",
        ("tests/test_audio_io.py::TestSpectrogramContainer::test_nonfinite_write_rejected",),
    ),
    Mutant(
        "_check_input: finiteness checked before the float32 cast",
        "src/birdedge/nnrt/engine.py",
        "    if not np.isfinite(values).all():\n"
        '        raise ShapeError("spectrogram contains non-finite values")',
        "    if not np.isfinite(spec.values).all():\n"
        '        raise ShapeError("spectrogram contains non-finite values")',
        ("tests/test_nnrt.py::TestInference::test_nonfinite_input_rejected[1e+300]",
         "tests/test_nnrt.py::TestInference::test_nonfinite_input_rejected[-1e+300]"),
    ),
    Mutant(
        "AugmentConfig: built without its checks",
        "src/birdedge/augment.py",
        "    def __post_init__(self):\n",
        "    def _unchecked(self):\n",
        ("tests/test_augment.py::TestConfig::test_invalid_fields",
         "tests/test_cli.py::TestErrorContract::test_input_error_exits_1[augment-p-apply-above-1]"),
    ),
    Mutant(
        "mel_spectrogram: one weighted bin too few",
        "src/birdedge/preprocess.py",
        "any(axis=0))[-1]) + 1\n",
        "any(axis=0))[-1])\n",
        ("tests/test_preprocess.py::TestMelBinCut::test_matches_full_product_bytewise",),
    ),
    Mutant(
        "mel_spectrogram: symmetric Hann window for periodic",
        "src/birdedge/preprocess.py",
        "np.pi * n / FFT_SIZE))",
        "np.pi * n / (FFT_SIZE - 1)))",
        ("tests/test_preprocess.py::TestMelBinCut::test_matches_full_product_bytewise",),
    ),
    Mutant(
        "augment_chunk: warp limit may reach half the frames",
        "src/birdedge/augment.py",
        "WARP_LIMIT >= spec.n_frames / 2",
        "WARP_LIMIT > spec.n_frames / 2",
        ("tests/test_augment.py::TestConfig::test_warp_limit_vs_frames",),
    ),
    Mutant(
        "augment_chunk: frame count checked when nothing can run",
        "src/birdedge/augment.py",
        "if cfg.p_apply > 0 and cfg.max_augs > 0 and WARP_LIMIT",
        "if WARP_LIMIT",
        ("tests/test_augment.py::TestAugmentChunk::"
         "test_short_spectrogram_passes_when_nothing_can_run",),
    ),
    Mutant(
        "int32 bound: graph input zero point for every layer",
        "src/birdedge/nnrt/graph.py",
        "        zero_point = layer.out_zero_point\n",
        "",
        ("tests/test_nnrt.py::TestSerialization::"
         "test_int32_bound_uses_each_layers_input_zero_point",),
    ),
    Mutant(
        "_int8_step: always float32",
        "src/birdedge/nnrt/engine.py",
        "dtype = np.float32 if bound < 2**24 else np.float64",
        "dtype = np.float32",
        ("tests/test_nnrt.py::TestAccumulatorDtype",),
    ),
    Mutant(
        "_int8_step: float32 bound doubled",
        "src/birdedge/nnrt/engine.py",
        "np.float32 if bound < 2**24 else",
        "np.float32 if bound < 2**25 else",
        ("tests/test_nnrt.py::TestAccumulatorDtype",),
    ),
    Mutant(
        "_exact_in_float32: every multiplier proved exact",
        "src/birdedge/nnrt/engine.py",
        "    m = float(np.float32(multiplier))\n",
        "    return True\n",
        ("tests/test_nnrt.py::TestFloat32Requantize::"
         "test_verdicts_match_full_enumeration_on_the_fixture",
         "tests/test_nnrt.py::TestFloat32Requantize::"
         "test_a_refused_layer_matches_the_reference"),
    ),
    Mutant(
        "_exact_in_float32: candidates shrunk to floor(h / m)",
        "src/birdedge/nnrt/engine.py",
        "np.arange(-1, 3)",
        "np.arange(0, 1)",
        ("tests/test_nnrt.py::TestFloat32Requantize::test_a_true_verdict_is_sound",),
    ),
    Mutant(
        "_correlation: an unpadded input keeps its layout",
        "src/birdedge/nnrt/engine.py",
        'dtype=dtype, order="C")',
        "dtype=dtype)",
        ("tests/test_nnrt.py::TestSharedKernel::"
         "test_a_transposed_spectrogram_reads_as_its_values",),
    ),
    Mutant(
        "residual_add: index built with the operands swapped",
        "src/birdedge/nnrt/engine.py",
        "index = np.left_shift(x.view(np.uint8), 8, dtype=np.uint16)\n"
        "            index |= skip.view(np.uint8)",
        "index = np.left_shift(skip.view(np.uint8), 8, dtype=np.uint16)\n"
        "            index |= x.view(np.uint8)",
        ("tests/test_nnrt.py::TestInt8Oracle::test_random_graphs_match_the_reference",
         "tests/test_nnrt.py::TestInt8Oracle::test_hand_built_graphs_match_the_reference"),
    ),
    Mutant(
        "_residual_table: x and skip affines swapped",
        "src/birdedge/nnrt/engine.py",
        "x_rescaled[:, None] + skip_rescaled",
        "skip_rescaled[:, None] + x_rescaled",
        ("tests/test_nnrt.py::TestElementwiseTables::"
         "test_residual_table_matches_the_per_element_sum",),
    ),
    Mutant(
        "_walk: residual skip read one buffer late",
        "src/birdedge/nnrt/engine.py",
        "skip = layer.skip_from - INPUT_BUFFER if",
        "skip = layer.skip_from if",
        ("tests/test_nnrt.py::TestInt8Oracle::test_random_graphs_match_the_reference",
         "tests/test_nnrt.py::TestInt8Oracle::test_hand_built_graphs_match_the_reference"),
    ),
    Mutant(
        "_walk: the plan rebuilt on every call",
        "src/birdedge/nnrt/engine.py",
        "    if (plan := plans.get(step)) is None:\n",
        "    if True:\n",
        ("tests/test_nnrt.py::TestBuiltOnce::test_a_model_is_prepared_once_per_lifetime",),
    ),
    Mutant(
        "_walk: plans keyed by the step alone, so every model shares one",
        "src/birdedge/nnrt/engine.py",
        "plans = _PLANS.setdefault(model, {})",
        "plans = _PLANS.setdefault(_walk, {})",
        ("tests/test_nnrt.py::TestBuiltOnce::test_a_model_is_prepared_once_per_lifetime",),
    ),
    Mutant(
        "unpadded conv: zero point not subtracted",
        "src/birdedge/nnrt/engine.py",
        'padded = np.subtract(x, zero_point, dtype=dtype, order="C")',
        'padded = x.astype(dtype, order="C")',
        ("tests/test_nnrt.py::TestInt8Oracle::test_random_graphs_match_the_reference",
         "tests/test_nnrt.py::TestInt8Oracle::test_hand_built_graphs_match_the_reference"),
    ),
    Mutant(
        "relu6: table built with the input and output affines swapped",
        "src/birdedge/nnrt/engine.py",
        "_relu6_table(scale, zero_point, out_scale, out_zp)",
        "_relu6_table(out_scale, out_zp, scale, zero_point)",
        ("tests/test_nnrt.py::TestInt8Oracle::test_random_graphs_match_the_reference",
         "tests/test_nnrt.py::TestInt8Oracle::test_hand_built_graphs_match_the_reference"),
    ),
    Mutant(
        "requantize: float64 multiplier",
        "src/birdedge/nnrt/engine.py",
        "    acc *= np.float32(multiplier)\n",
        "    acc *= multiplier\n",
        ("tests/test_nnrt.py::TestInt8Oracle::"
         "test_requantize_multiplier_is_rounded_to_float32",),
    ),
    Mutant(
        "_quantize_input: the input quantized with zero point 0",
        "src/birdedge/nnrt/engine.py",
        "_requantize(q, 1.0, model.input_zero_point)",
        "_requantize(q, 1.0, 0)",
        ("tests/test_nnrt.py::TestInt8Oracle::test_random_graphs_match_the_reference",
         "tests/test_nnrt.py::TestInt8Oracle::test_hand_built_graphs_match_the_reference"),
    ),
    Mutant(
        "padded conv: centered in the input's int8, wrapping",
        "src/birdedge/nnrt/engine.py",
        "np.subtract(x, zero_point, out=padded[inner], dtype=dtype)",
        "np.subtract(x, zero_point, out=padded[inner])",
        ("tests/test_nnrt.py::TestInt8Oracle::test_random_graphs_match_the_reference",
         "tests/test_nnrt.py::TestInt8Oracle::test_hand_built_graphs_match_the_reference"),
    ),
    Mutant(
        "resource_report: ROM bias counted one byte per channel",
        "src/birdedge/nnrt/serialize.py",
        "size += 4 * layer.out_ch",
        "size += layer.out_ch",
        ("tests/test_nnrt.py::TestResources::"
         "test_rom_is_serialized_size_on_every_record_and_fixture",),
    ),
    Mutant(
        "resource_report: shapes taken without validation",
        "src/birdedge/nnrt/resources.py",
        "sizes = [math.prod(s) for s in model.shapes]",
        "sizes = [math.prod(model.input_shape)] * (len(model.layers) + 1)",
        ("tests/test_nnrt.py::TestResources::test_ram_chain_liveness",
         "tests/test_nnrt.py::TestRandomGraphs::test_ram_matches_the_quadratic_scan"),
    ),
    Mutant(
        "resource_report: the graph built and validated again for the RAM",
        "src/birdedge/nnrt/resources.py",
        "ram_bytes=_peak_ram(model),",
        "ram_bytes=_peak_ram(ModelGraph(model.layers, model.class_count,"
        " model.input_shape, model.input_scale, model.input_zero_point)),",
        ("tests/test_nnrt.py::TestBuiltOnce::test_entries_do_not_validate_a_built_graph",),
    ),
    Mutant(
        "ModelGraph: built without validate_graph",
        "src/birdedge/nnrt/graph.py",
        "        shapes = tuple(validate_graph(self))",
        "        shapes = (tuple(self.input_shape),) * (len(self.layers) + 1)",
        ("tests/test_nnrt.py::TestValidation::test_conv_channel_mismatch",
         "tests/test_nnrt.py::TestResources::test_report_of_an_invalid_graph_raises",
         "tests/test_nnrt.py::TestResources::test_rom_of_an_invalid_graph_raises"),
    ),
    Mutant(
        "ModelGraph: layers=None a TypeError, not 'model has no layers'",
        "src/birdedge/nnrt/graph.py",
        "tuple(self.layers or ())",
        "tuple(self.layers)",
        ("tests/test_nnrt.py::TestValidation::test_empty_model",),
    ),
    Mutant(
        "ModelGraph: layers kept as the caller's list",
        "src/birdedge/nnrt/graph.py",
        "        object.__setattr__(self, \"layers\", tuple(self.layers or ()))  # None: no layers\n",
        "",
        ("tests/test_nnrt.py::TestBuiltOnce::test_a_built_graph_cannot_be_edited",
         "tests/test_nnrt.py::TestBuiltOnce::test_layers_given_as_a_list_are_not_shared"),
    ),
    Mutant(
        "resource_report: RAM residual source freed a step early",
        "src/birdedge/nnrt/resources.py",
        "last_read[layer.skip_from - INPUT_BUFFER] = i\n",
        "last_read[layer.skip_from - INPUT_BUFFER] = i - 1\n",
        ("tests/test_nnrt.py::TestResources::test_ram_residual_span",
         "tests/test_nnrt.py::TestRandomGraphs::test_ram_matches_the_quadratic_scan"),
    ),
    Mutant(
        "resource_report: RAM sweep starts without the graph input",
        "src/birdedge/nnrt/resources.py",
        "live, peak = sizes[0], 0",
        "live, peak = 0, 0",
        ("tests/test_nnrt.py::TestResources::test_ram_chain_liveness",
         "tests/test_nnrt.py::TestRandomGraphs::test_ram_matches_the_quadratic_scan"),
    ),
    Mutant(
        "resource_report: each layer's FLOPs costed on its input shape",
        "src/birdedge/nnrt/resources.py",
        "map(_flops_of, model.layers, model.shapes[1:])",
        "map(_flops_of, model.layers, model.shapes[:-1])",
        ("tests/test_nnrt.py::TestResources::test_flops_hand_count",
         "tests/test_nnrt.py::TestRandomGraphs::test_flops_match_a_brute_force_count"),
    ),
    Mutant(
        "validate_graph: skip shape read one buffer late",
        "src/birdedge/nnrt/graph.py",
        "skip_shape = shapes[layer.skip_from - INPUT_BUFFER]",
        "skip_shape = shapes[layer.skip_from]",
        ("tests/test_nnrt.py::TestValidation::test_residual_shape_mismatch",
         "tests/test_nnrt.py::TestRandomGraphs::"
         "test_validate_graph_returns_every_buffer_shape"),
    ),
    Mutant(
        "_check_scale: a scale of exactly MIN_SCALE rejected",
        "src/birdedge/nnrt/graph.py",
        "    if not MIN_SCALE <= value <= MAX_SCALE:\n",
        "    if not MIN_SCALE < value <= MAX_SCALE:\n",
        ("tests/test_nnrt.py::TestValidation::test_scale_range_ends_infer_finite",),
    ),
    Mutant(
        "_read_layer: a weight zero point other than 0 accepted",
        "src/birdedge/nnrt/serialize.py",
        "    if (weight_zp := values.pop(\"weight_zp\")) != 0:\n"
        "        raise FormatError(f\"symmetric weights require zero point 0, got {weight_zp}\")\n",
        "    values.pop(\"weight_zp\")\n",
        ("tests/test_nnrt.py::TestValidation::test_nonzero_weight_zero_point",),
    ),
    Mutant(
        "remove_silence: runs a quiet gap of 2*half - 1 apart split, overlapping",
        "src/birdedge/preprocess.py",
        "starts[1:] - stops[:-1] > 2 * half",
        "starts[1:] - stops[:-1] > 2 * half - 2",
        ("tests/test_preprocess.py::TestRemoveSilenceAgainstFilter::test_run_split_boundary",),
    ),
    Mutant(
        "parse_irradiance: any label starting like a month accepted",
        "src/birdedge/energy.py",
        "_MONTH_LABELS.get(row[0].strip().lower())",
        "_MONTH_LABELS.get(row[0].strip().lower()[:3])",
        ("tests/test_energy.py::TestParsers::test_irradiance_errors[junk]",
         "tests/test_energy.py::TestParsers::test_irradiance_errors[mayhem]"),
    ),
    Mutant(
        "has_peak: |x| taken in the integer dtype",
        "src/birdedge/preprocess.py",
        '    if chunks.dtype.kind in "biu":  # so |-32768| is 32768\n'
        "        top, bottom = top.astype(np.float64), bottom.astype(np.float64)\n"
        "    maxima = np.maximum(top, -bottom)\n",
        "    maxima = np.maximum(top, -bottom)\n"
        '    if maxima.dtype.kind != "f":\n'
        "        maxima = maxima.astype(np.float64)\n",
        ("tests/test_preprocess.py::TestHasPeak::"
         "test_int16_full_scale_negative_window_is_a_peak",),
    ),
    Mutant(
        "preprocess_recording: settings checked only past the length gate",
        "src/birdedge/preprocess.py",
        "    _check_threshold(silence_threshold)\n"
        "    _check_screen(peak_ratio, max_chunks)\n",
        "",
        ("tests/test_preprocess.py::TestPipeline::test_bad_setting_raises_whatever_the_clip",
         "tests/test_cli.py::TestPreprocess::test_bad_setting_exits_1_on_a_too_short_clip"),
    ),
    Mutant(
        "noise_spectrograms: all-zero window not skipped",
        "src/birdedge/preprocess.py",
        " for window in noise if np.any(window))",
        " for window in noise)",
        ("tests/test_cli.py::TestPreprocess::test_all_zero_noise_window_is_skipped",),
    ),
    Mutant(
        "compression_table: mean over every trial, not the front",
        "src/birdedge/trials.py",
        "for row in rows.values() if row[4]]",
        "for row in rows.values()]",
        ("tests/test_trials.py::TestCompression::test_avg_over_front_only",
         "tests/test_trials.py::TestCompression::test_table_rows_in_input_order"),
    ),
    Mutant(
        "read_trials_csv: csv.Error not converted",
        "src/birdedge/trials.py",
        "    try:\n"
        "        rows = [(reader.line_num, row) for row in reader]\n"
        "    except csv.Error as err:\n"
        '        raise FormatError(f"line {reader.line_num}: {err}") from None\n',
        "    rows = [(reader.line_num, row) for row in reader]\n",
        ("tests/test_trials.py::TestCsv::test_oversized_field_is_a_format_error",
         "tests/test_cli.py::TestTrialTools::test_oversized_csv_field_exits_1"),
    ),
    Mutant(
        "parse_irradiance: csv.Error not converted",
        "src/birdedge/energy.py",
        "    try:\n"
        "        rows = list(reader)\n"
        "    except csv.Error as err:\n"
        '        raise ConfigError(f"irradiance line {reader.line_num}: {err}") from None\n',
        "    rows = list(reader)\n",
        ("tests/test_energy.py::TestParsers::test_irradiance_oversized_field_is_a_config_error",
         "tests/test_cli.py::TestEnergy::test_oversized_irradiance_field_exits_1"),
    ),
    Mutant(
        "_table: a flag rendered as True or False",
        "src/birdedge/cli.py",
        '"d": "%d"',
        '"d": "%s"',
        ("tests/test_cli.py::TestEnergy::test_report_golden",
         "tests/test_cli.py::TestTrialTools::test_rank_output"),
    ),
    Mutant(
        "augment: every run seeded with 0",
        "src/birdedge/cli.py",
        "augment.chunk_rng(args.seed, index)",
        "augment.chunk_rng(0, index)",
        ("tests/test_cli.py::TestAugment::test_golden_digests",),
    ),
    Mutant(
        "augment: a missing noise pool read as an empty one",
        "src/birdedge/cli.py",
        "        if not pool_dir.is_dir():\n"
        '            raise BirdEdgeError(f"noise pool {pool_dir} is not a directory")\n',
        "",
        ("tests/test_cli.py::TestAugment::test_missing_noise_pool_exits_1",),
    ),
    Mutant(
        "preprocess: inputs sharing a stem not checked",
        "src/birdedge/cli.py",
        "        if first is not file:\n",
        "        if False:\n",
        ("tests/test_cli.py::TestPreprocess::test_two_inputs_with_one_stem_exit_1",),
    ),
    Mutant(
        "bench: repetitions below 1 not checked",
        "src/birdedge/cli.py",
        "    if reps < 1:\n"
        '        raise ConfigError(f"repetitions must be >= 1, got {reps}")\n',
        "",
        ("tests/test_cli.py::TestBench::test_repetitions_below_1_exit_1",),
    ),
    Mutant(
        "_emit: --out written without its manifest",
        "src/birdedge/cli.py",
        '    _write_manifest(path.with_name(path.name + ".manifest.json"), args, [str(path)])\n',
        "",
        ("tests/test_cli.py::TestInfer::test_out_manifest",
         "tests/test_cli.py::TestGenFixture::test_writes_model_and_manifest"),
    ),
    Mutant(
        "cli: parser rebuilt on every call",
        "src/birdedge/cli.py",
        "@functools.cache\ndef _parser()",
        "def _parser()",
        ("tests/test_cli.py::TestRepeatedCalls::test_parser_is_built_once",),
    ),
    Mutant(
        "cli: one namespace shared by every call",
        "src/birdedge/cli.py",
        "args = _parser().parse_args(argv)",
        "args = _parser().parse_args(argv, namespace=_parser)",
        ("tests/test_cli.py::TestRepeatedCalls::test_pareto_flag_does_not_carry_over",),
    ),
    Mutant(
        "main: a ValueError caught as an input error",
        "src/birdedge/cli.py",
        "    except (BirdEdgeError, OSError) as err:",
        "    except (BirdEdgeError, ValueError, OSError) as err:",
        ("tests/test_cli.py::TestErrorContract::test_a_bug_is_not_an_input_error",),
    ),
    Mutant(
        "parse_profile: zero active time accepted",
        "src/birdedge/energy.py",
        '    if si["t_infer_s"] + si["t_dsp_s"] == 0:\n',
        "    if False:\n",
        ("tests/test_energy.py::TestParsers::test_profile_errors",
         "tests/test_cli.py::TestErrorContract::test_input_error_exits_1[zero-active-time]"),
    ),
    Mutant(
        "parse_profile: an efficiency that underflows to 0 named by its SI field",
        "src/birdedge/energy.py",
        "not (0.0 < value / per_si and value <= per_si)",
        "not 0.0 < value <= per_si",
        ("tests/test_energy.py::TestParsers::test_an_efficiency_that_underflows_names_its_key",),
    ),
    Mutant(
        "monthly_report: an underflowed panel_area denominator accepted",
        "src/birdedge/energy.py",
        "    if any(profile.eta_solar * profile.eta_bat * s_rad == 0 ",
        "    if False and any(profile.eta_solar * profile.eta_bat * s_rad == 0 ",
        ("tests/test_energy.py::TestMonthlyReport::test_underflowed_denominator_rejected",
         "tests/test_cli.py::TestErrorContract::test_input_error_exits_1[irradiance-underflow]"),
    ),
    Mutant(
        "load_profile, load_irradiance: bytes that are not UTF-8 not converted",
        "src/birdedge/energy.py",
        "    except UnicodeDecodeError as err:",
        "    except LookupError as err:",
        ("tests/test_energy.py::TestParsers::test_bytes_that_are_not_utf8_are_a_config_error",
         "tests/test_cli.py::TestErrorContract::test_input_error_exits_1[profile-not-utf8]"),
    ),
    Mutant(
        "read_trials_csv: bytes that are not UTF-8 not converted",
        "src/birdedge/trials.py",
        "        except UnicodeDecodeError as err:",
        "        except LookupError as err:",
        ("tests/test_trials.py::TestCsv::test_bytes_that_are_not_utf8_are_a_format_error",
         "tests/test_cli.py::TestErrorContract::test_input_error_exits_1[trials-not-utf8]"),
    ),
    Mutant(
        "read_trials_csv: a non-numeric field not converted",
        "src/birdedge/trials.py",
        "        except ValueError as err:",
        "        except LookupError as err:",
        ("tests/test_trials.py::TestCsv::"
         "test_non_numeric_field_is_a_format_error_naming_its_line",
         "tests/test_cli.py::TestErrorContract::test_input_error_exits_1[trials-not-a-number]"),
    ),
    Mutant(
        "chunk_rng: negative seed accepted",
        "src/birdedge/augment.py",
        "    if seed < 0:\n",
        "    if False:\n",
        ("tests/test_augment.py::TestAugmentChunk::test_negative_seed_is_a_config_error",
         "tests/test_cli.py::TestErrorContract::test_input_error_exits_1[augment-negative-seed]"),
    ),
    Mutant(
        "generate_fixture_model: negative seed accepted",
        "src/birdedge/nnrt/fixture.py",
        "    if seed < 0:\n",
        "    if False:\n",
        ("tests/test_nnrt.py::TestFixtureModel::test_bad_arguments_are_config_errors[negative-seed]",
         "tests/test_cli.py::TestErrorContract::"
         "test_input_error_exits_1[gen-fixture-negative-seed]"),
    ),
    Mutant(
        "save_model: the loader's limits not applied",
        "src/birdedge/nnrt/serialize.py",
        "    _check_header(len(model.layers), model.input_shape)\n"
        "    for layer in model.layers:\n"
        "        if layer.kind in WEIGHTED_KINDS:\n"
        "            _check_layer(layer.kind, layer.in_ch, layer.out_ch, layer.kernel)\n",
        "",
        ("tests/test_nnrt.py::TestSerialization::test_save_applies_the_loader_limits",),
    ),
    Mutant(
        "_worst_accumulator: the bias left out, so save_model writes an accumulator "
        "past int32 and a float32 requantize misses the integers the bias reaches",
        "src/birdedge/nnrt/graph.py",
        "+ bias).max()",
        ").max()",
        ("tests/test_nnrt.py::TestSerialization::"
         "test_int32_bound_uses_each_layers_input_zero_point",
         "tests/test_nnrt.py::TestFloat32Requantize::"
         "test_a_refused_layer_matches_the_reference"),
    ),
    Mutant(
        "validate_graph: the int32 bound skipped",
        "src/birdedge/nnrt/graph.py",
        "            if (worst := _worst_accumulator(layer, zero_point)) > np.iinfo(np.int32).max:\n",
        "            if False:\n",
        ("tests/test_nnrt.py::TestSerialization::"
         "test_int32_accumulator_bound_is_checked_at_build",
         "tests/test_nnrt.py::TestSerialization::"
         "test_int32_accumulator_overflow_rejected_on_load"),
    ),
    Mutant(
        "LayerSpec: arrays left writeable",
        "src/birdedge/nnrt/graph.py",
        "np.frombuffer(array.tobytes(), array.dtype).reshape(array.shape)",
        "np.array(array)",
        ("tests/test_nnrt.py::TestBuiltOnce::test_built_arrays_are_read_only",),
    ),
    Mutant(
        "LayerSpec: the caller's array kept instead of copied",
        "src/birdedge/nnrt/graph.py",
        "np.frombuffer(array.tobytes(), array.dtype).reshape(array.shape)",
        "array",
        ("tests/test_nnrt.py::TestBuiltOnce::test_the_callers_arrays_are_copied",),
    ),
    Mutant(
        "LayerSpec: the caller's memory shared through a memoryview",
        "src/birdedge/nnrt/graph.py",
        "np.frombuffer(array.tobytes(), array.dtype)",
        "np.frombuffer(memoryview(array), array.dtype)",
        ("tests/test_nnrt.py::TestBuiltOnce::test_the_callers_arrays_are_copied",),
    ),
    Mutant(
        "LayerSpec: a read-only copy whose writeable flag can be set back",
        "src/birdedge/nnrt/graph.py",
        "np.frombuffer(array.tobytes(), array.dtype).reshape(array.shape)\n",
        "np.array(array)\n                    array.flags.writeable = False\n",
        ("tests/test_nnrt.py::TestBuiltOnce::test_built_arrays_are_read_only",),
    ),
    Mutant(
        "LayerSpec: an object array raises ValueError, not GraphError",
        "src/birdedge/nnrt/graph.py",
        "with suppress(ValueError):  # an object array: validate_graph names it\n",
        "if True:\n",
        ("tests/test_nnrt.py::TestValidation::test_object_weights",),
    ),
    Mutant(
        "_plain: a numpy bool converted to the int it equals",
        "src/birdedge/nnrt/graph.py",
        "    if isinstance(value, np.integer):\n",
        "    if isinstance(value, (np.integer, np.bool_)):\n",
        ("tests/test_nnrt.py::TestIntegerFields::test_a_numpy_bool_is_not_an_integer",),
    ),
    Mutant(
        "_plain: numpy scalars kept as they are",
        "src/birdedge/nnrt/graph.py",
        "    if isinstance(value, np.integer):\n"
        "        return int(value)\n"
        "    return float(value) if isinstance(value, np.floating) else value\n",
        "    return value\n",
        ("tests/test_nnrt.py::TestIntegerFields::test_numpy_float_scales_are_python_floats",
         "tests/test_nnrt.py::TestIntegerFields::test_a_numpy_kernel_on_a_wide_input[tuple]"),
    ),
    Mutant(
        "compression_table: an overflowing rate accepted",
        "src/birdedge/trials.py",
        "        if not math.isfinite(row[3]):\n",
        "        if False:\n",
        ("tests/test_trials.py::TestCompression::test_rate_overflow_is_rejected",
         "tests/test_cli.py::TestErrorContract::test_input_error_exits_1[compress-rate-overflow]"),
    ),
    Mutant(
        "validate_graph: a weighted layer without output channels accepted",
        "src/birdedge/nnrt/graph.py",
        "            if layer.out_ch < 1:\n"
        "                raise GraphError(f\"layer {i}: {kind} has no output channels\")\n",
        "",
        ("tests/test_nnrt.py::TestZeroChannels::test_every_entry_raises[conv2d-infer]",),
    ),
    Mutant(
        "validate_graph: a stride of 0 accepted",
        "src/birdedge/nnrt/graph.py",
        "layer.stride < 1",
        "layer.stride < 0",
        ("tests/test_nnrt.py::TestValidation::test_bad_kernel_geometry[stride]",),
    ),
    Mutant(
        "ModelGraph: default input scale left unrounded",
        "src/birdedge/nnrt/graph.py",
        "input_scale: float = float(np.float32(80.0 / 255.0))",
        "input_scale: float = 80.0 / 255.0",
        ("tests/test_nnrt.py::TestSerialization::"
         "test_default_input_scale_classifies_the_same_after_load",),
    ),
    Mutant(
        "generate_fixture_model: probes and biases drawn from a fresh generator",
        "src/birdedge/nnrt/fixture.py",
        "    return _calibrated(ModelGraph(layers=layers, class_count=class_count), rng)\n",
        "    return _calibrated(ModelGraph(layers=layers, class_count=class_count),\n"
        "                       np.random.default_rng(seed))\n",
        ("tests/test_cli.py::TestInfer::test_model_digest",
         "tests/test_nnrt.py::TestPinnedOutputs::test_fixture_model_bytes"),
    ),
    Mutant(
        "generate_fixture_model: class bound lifted by one",
        "src/birdedge/nnrt/fixture.py",
        "    if not 1 <= class_count <= _MAX_DIM:\n",
        "    if not 1 <= class_count <= _MAX_DIM + 1:\n",
        ("tests/test_nnrt.py::TestFixtureModel::"
         "test_class_bound_is_checked_before_any_weight_is_drawn",),
    ),
    Mutant(
        "validate_graph: a weighted layer's geometry not checked for integers",
        "src/birdedge/nnrt/graph.py",
        "                _check_integer(value, what, i)\n",
        "                pass\n",
        ("tests/test_nnrt.py::TestIntegerFields::test_every_entry_raises[padding-validate_graph]",
         "tests/test_nnrt.py::TestIntegerFields::test_every_entry_raises[out_ch-infer]"),
    ),
    Mutant(
        "validate_graph: padding left out of the integer check",
        "src/birdedge/nnrt/graph.py",
        '("stride", stride), ("padding", padding)):',
        '("stride", stride)):',
        ("tests/test_nnrt.py::TestIntegerFields::test_every_entry_raises[padding-validate_graph]",),
    ),
    Mutant(
        "_plain: a numpy integer field kept, so validate_graph rejects it",
        "src/birdedge/nnrt/graph.py",
        "    if isinstance(value, np.integer):\n        return int(value)\n",
        "",
        ("tests/test_nnrt.py::TestIntegerFields::test_numpy_integers_are_integers",),
    ),
    Mutant(
        "_check_zero_point: a zero point that is not an integer accepted",
        "src/birdedge/nnrt/graph.py",
        "    if not (-128 <= value <= 127 and isinstance(value, int)):\n",
        "    if not -128 <= value <= 127:\n",
        ("tests/test_nnrt.py::TestIntegerFields::test_every_entry_raises[depthwise-zero-point-validate_graph]",
         "tests/test_nnrt.py::TestIntegerFields::test_every_entry_raises[input-zero-point-save_model]"),
    ),
    Mutant(
        "validate_graph: the last layer's zero point not checked for an integer",
        "src/birdedge/nnrt/graph.py",
        "        else:\n"
        "            _check_integer(layer.out_zero_point, \"output zero point\", i)\n",
        "",
        ("tests/test_nnrt.py::TestIntegerFields::test_every_entry_raises[terminal-zero-point-save_model]",),
    ),
    Mutant(
        "validate_graph: a skip source that is not an integer accepted",
        "src/birdedge/nnrt/graph.py",
        "            _check_integer(layer.skip_from, \"skip source\", i)\n",
        "",
        ("tests/test_nnrt.py::TestIntegerFields::test_every_entry_raises[skip_from-validate_graph]",),
    ),
    Mutant(
        "validate_graph: a class count that is not an integer accepted",
        "src/birdedge/nnrt/graph.py",
        "    _check_integer(model.class_count, \"class count\")\n",
        "",
        ("tests/test_nnrt.py::TestIntegerFields::test_every_entry_raises[class-count-save_model]",),
    ),
    Mutant(
        "validate_graph: an input dimension that is not an integer accepted",
        "src/birdedge/nnrt/graph.py",
        "    for dim in input_shape:\n"
        "        _check_integer(dim, \"input dimension\")\n",
        "",
        ("tests/test_nnrt.py::TestIntegerFields::test_every_entry_raises[input-dimension-infer]",),
    ),
    Mutant(
        "validate_graph: a list input shape compared as a list",
        "src/birdedge/nnrt/graph.py",
        "    input_shape = tuple(map(_plain, model.input_shape))",
        "    input_shape = model.input_shape",
        ("tests/test_nnrt.py::TestIntegerFields::test_input_shape_as_a_list_is_the_tuple",),
    ),
    Mutant(
        "ModelGraph: input_shape not normalised, so _check_input compares a list",
        "src/birdedge/nnrt/graph.py",
        "        object.__setattr__(self, \"input_shape\", shapes[0])\n",
        "",
        ("tests/test_nnrt.py::TestIntegerFields::test_input_shape_as_a_list_is_the_tuple",),
    ),
    Mutant(
        "parse_irradiance: rows split by str.splitlines",
        "src/birdedge/energy.py",
        'csv.reader(io.StringIO(text, newline=""))',
        "csv.reader(text.splitlines())",
        ("tests/test_energy.py::TestParsers::"
         "test_rows_break_only_where_the_csv_module_breaks_them[ff]",
         "tests/test_cli.py::TestErrorContract::test_form_feeds_do_not_end_rows[energy]"),
    ),
    Mutant(
        "add_noise: an overflowed power not rejected",
        "src/birdedge/augment.py",
        "    if not ref < np.inf:  # inf, or NaN from 0 * inf\n",
        "    if False:\n",
        ("tests/test_augment.py::TestAddNoise",
         "tests/test_fuzz.py::test_every_mutant_keeps_the_error_contract[mels-mels]"),
    ),
    Mutant(
        "BaselineRecord: the trial rule not applied",
        "src/birdedge/trials.py",
        "    def __post_init__(self):\n        _check_measures(self, \"baseline\")\n",
        "",
        ("tests/test_trials.py::TestCompression::test_baseline_takes_the_trial_rule[ram-0]",),
    ),
    Mutant(
        "_dominates: exact duplicates dominate each other",
        "src/birdedge/trials.py",
        "and a[3] >= b[3] and a != b",
        "and a[3] >= b[3] and True",
        ("tests/test_trials.py::TestTieBreaking::test_duplicates_share_the_front",
         "tests/test_trials.py::TestParetoFront::test_dominates_table[duplicate]"),
    ),
    Mutant(
        "_dominates: equal costs dominate without accuracy",
        "src/birdedge/trials.py",
        "and a[:3] != b[:3]",
        "and True",
        ("tests/test_trials.py::TestParetoFront::test_dominates_table[acc-tie-ignored]",
         "tests/test_trials.py::TestParetoFront::test_matches_oracle_on_grids"),
    ),
    Mutant(
        "pareto_front: dominance tested inline, not through _dominates",
        "src/birdedge/trials.py",
        "            if _dominates(member, candidate, include_accuracy):\n",
        "            if (member[1] <= candidate[1] and member[2] <= candidate[2]\n"
        "                    and member[3] >= candidate[3] and member != candidate):\n",
        ("tests/test_trials.py::TestParetoFront::test_dominance_tests_bounded_by_front",
         "tests/test_trials.py::TestParetoFront::test_front_is_scanned_newest_first"),
    ),
    Mutant(
        "_check_measures: flops left out of the fast path",
        "src/birdedge/trials.py",
        "\n            and 0.0 < record.rom < math.inf and 0.0 < record.flops < math.inf):",
        "\n            and 0.0 < record.rom < math.inf):",
        ("tests/test_trials.py::TestScores::test_nonfinite_costs_rejected[nan-flops]",),
    ),
    Mutant(
        "read_trials_csv: a row of the wrong width not checked",
        "src/birdedge/trials.py",
        "        if len(row) != 5:\n"
        '            raise FormatError(f"bad row {row}")\n',
        "",
        ("tests/test_trials.py::TestCsv::test_bad_row_width",
         "tests/test_fuzz.py::test_every_text_mutant_keeps_the_error_contract[trials]"),
    ),
    Mutant(
        "validate_graph: a kernel that is not a pair escapes as a ValueError",
        "src/birdedge/nnrt/graph.py",
        "            try:\n"
        "                kh, kw = layer.kernel\n"
        "            except (TypeError, ValueError):\n"
        "                raise GraphError(\n"
        '                    f"layer {i}: kernel must be a pair of integers, got {layer.kernel!r}"\n'
        "                ) from None\n",
        "            kh, kw = layer.kernel\n",
        ("tests/test_nnrt.py::TestIntegerFields::test_every_entry_raises[kernel-one-side-infer]",
         "tests/test_nnrt.py::TestIntegerFields::test_every_entry_raises[kernel-int-save_model]"),
    ),
    Mutant(
        "validate_graph: an input shape that is not a sequence escapes as a TypeError",
        "src/birdedge/nnrt/graph.py",
        "    try:\n"
        "        input_shape = tuple(map(_plain, model.input_shape))  # a list != a tuple\n"
        "    except TypeError:\n"
        "        raise GraphError(\n"
        '            f"input shape must be a sequence of 3 integers, got {model.input_shape!r}"\n'
        "        ) from None\n",
        "    input_shape = tuple(map(_plain, model.input_shape))  # a list != a tuple\n",
        ("tests/test_nnrt.py::TestIntegerFields::"
         "test_every_entry_raises[input-shape-int-validate_graph]",),
    ),
    Mutant(
        "AudioClip: a sample rate below 1 accepted",
        "src/birdedge/audio_io.py",
        "        if not self.sample_rate >= 1:  # NaN too\n",
        "        if False:\n",
        ("tests/test_audio_io.py::TestAudioClip::test_sample_rate_below_1_rejected[0]",),
    ),
    Mutant(
        "preprocess_recording: a clip below 8 kHz resampled",
        "src/birdedge/preprocess.py",
        "    if clip.sample_rate < MIN_SAMPLE_RATE:\n",
        "    if clip.sample_rate < 1:\n",
        # not the 1 Hz case: resampling it takes about a gigabyte
        ("tests/test_preprocess.py::TestPipeline::"
         "test_rate_below_the_floor_is_unsupported_whatever_the_length[short]",),
    ),
    Mutant(
        "parse_irradiance: only the header's first field checked",
        "src/birdedge/energy.py",
        '[h.strip().lower() for h in header] != ["month", "s_rad_w_m2"]',
        '[h.strip().lower() for h in header][:1] != ["month"]',
        ("tests/test_energy.py::TestParsers::test_irradiance_errors[header-month]",),
    ),
    Mutant(
        "cmd_preprocess: an earlier run's chunks left in --out",
        "src/birdedge/cli.py",
        "                    path.unlink()\n",
        "                    pass\n",
        ("tests/test_cli.py::TestPreprocess::test_rerun_leaves_only_the_manifests_files",),
    ),
    Mutant(
        "cmd_preprocess: stale-file pattern widened to *",
        "src/birdedge/cli.py",
        'r"\\d+\\.mels"',
        'r".*\\.mels"',
        ("tests/test_cli.py::TestPreprocess::test_stale_removal_spares_other_stems",),
    ),
    Mutant(
        "_rolled: vacated band not floored",
        "src/birdedge/augment.py",
        "    out[tuple(vacated)] = FLOOR_DB\n",
        "",
        ("tests/test_augment.py::TestRolls",),
    ),
    Mutant(
        "_rolled: vacated band taken from the wrong end",
        "src/birdedge/augment.py",
        "slice(0, shift) if shift >= 0 else slice(shift, None)",
        "slice(-shift, None) if shift >= 0 else slice(0, -shift)",
        ("tests/test_augment.py::TestRolls",),
    ),
    Mutant(
        "AugmentConfig: a float max_augs accepted",
        "src/birdedge/augment.py",
        '        check_integer(self.max_augs, "max_augs")\n',
        "",
        ("tests/test_augment.py::TestConfig::test_max_augs_must_be_an_integer",),
    ),
    Mutant(
        "chunk_rng: a float seed passed to numpy",
        "src/birdedge/augment.py",
        '    check_integer(seed, "seed")\n',
        "",
        ("tests/test_augment.py::TestAugmentChunk::"
         "test_a_bad_seed_or_chunk_index_is_a_config_error",),
    ),
    Mutant(
        "chunk_rng: a float chunk index passed to numpy",
        "src/birdedge/augment.py",
        '    check_integer(chunk_index, "chunk_index")\n',
        "",
        ("tests/test_augment.py::TestAugmentChunk::"
         "test_a_bad_seed_or_chunk_index_is_a_config_error",),
    ),
    Mutant(
        "chunk_rng: a negative chunk index passed to numpy",
        "src/birdedge/augment.py",
        "    if chunk_index < 0:",
        "    if chunk_index < -1:",
        ("tests/test_augment.py::TestAugmentChunk::"
         "test_a_bad_seed_or_chunk_index_is_a_config_error",),
    ),
    Mutant(
        "split_chunks, preprocess_recording: a float max_chunks accepted",
        "src/birdedge/preprocess.py",
        '    check_integer(max_chunks, "max_chunks")\n',
        "",
        ("tests/test_preprocess.py::TestSplitChunks::test_cap_must_be_an_integer",),
    ),
    Mutant(
        "generate_fixture_model: a float class count accepted",
        "src/birdedge/nnrt/fixture.py",
        '    check_integer(class_count, "class_count")\n',
        "",
        ("tests/test_nnrt.py::TestFixtureModel::"
         "test_bad_arguments_are_config_errors[float-classes]",),
    ),
    Mutant(
        "generate_fixture_model: a float seed accepted",
        "src/birdedge/nnrt/fixture.py",
        '    check_integer(seed, "seed")\n',
        "",
        ("tests/test_nnrt.py::TestFixtureModel::"
         "test_bad_arguments_are_config_errors[float-seed]",),
    ),
    Mutant(
        "monthly_report: a negative irradiance accepted",
        "src/birdedge/energy.py",
        "        if not 0 < s_rad < math.inf:",
        "        if not -math.inf < s_rad < math.inf:",
        ("tests/test_energy.py::TestMonthlyReport::"
         "test_irradiance_must_be_finite_and_positive[-100.0]",),
    ),
    Mutant(
        "_row_tiles: the last partial tile dropped",
        "src/birdedge/nnrt/engine.py",
        "for top in range(0, height, rows)]",
        "for top in range(0, height - rows + 1, rows)]",
        ("tests/test_nnrt.py::TestRowTiles::test_tiles_are_the_most_rows_under_the_cap",),
    ),
    Mutant(
        "_row_tiles: one row per tile more than fits the cap",
        "src/birdedge/nnrt/engine.py",
        "    rows = max(1, cap // row_bytes)\n",
        "    rows = max(1, cap // row_bytes + 1)\n",
        ("tests/test_nnrt.py::TestRowTiles::test_tiles_are_the_most_rows_under_the_cap",),
    ),
    Mutant(
        "_correlation: the whole patch matrix built as one tile",  # the
        # outputs are the same: only the scratch bound sees it
        "src/birdedge/nnrt/engine.py",
        "        if len(tiles) < 2:\n",
        "        if True:\n",
        ("tests/test_nnrt.py::TestRowTiles::test_each_weighted_step_stays_under_the_cap",),
    ),
)


# Mutants no test can kill, because the output cannot change; each gives
# the reason. The script applies them too, and there their tests must pass.
EQUIVALENT = (
    Mutant(
        "pareto_front: front scanned oldest first",  # the same for/else over
        # the same members: the order changes the count of dominance tests
        # (pinned by test_front_is_scanned_newest_first), never the front
        "src/birdedge/trials.py",
        "for member in reversed(front)",
        "for member in front",
        ("tests/test_trials.py::TestParetoFront::test_matches_oracle_on_grids",),
    ),
    Mutant(
        "remove_silence: runs a quiet gap of exactly 2*half apart split",  # the
        # two runs, widened by half, then touch: [.., stop + half) and
        # [stop + half, ..) concatenate to the samples of the merged run
        "src/birdedge/preprocess.py",
        "starts[1:] - stops[:-1] > 2 * half",
        "starts[1:] - stops[:-1] >= 2 * half",
        ("tests/test_preprocess.py::TestRemoveSilenceAgainstFilter::test_run_split_boundary",
         "tests/test_preprocess.py::TestRemoveSilenceAgainstFilter::test_matches_filter"),
    ),
    Mutant(
        "has_peak: the two median indices swapped",  # low + high is
        # commutative in IEEE arithmetic, and an odd count's indices coincide
        "src/birdedge/preprocess.py",
        "low = neighbors[:, index, (count - 1) // 2]\n"
        "    high = neighbors[:, index, count // 2]",
        "low = neighbors[:, index, count // 2]\n"
        "    high = neighbors[:, index, (count - 1) // 2]",
        ("tests/test_preprocess.py::TestHasPeakAgainstLoop::test_matches_loop",),
    ),
    Mutant(
        "_int8_step: the shape bound fan_in * 128 * (128 + |zp_in|) + max |bias|",  # it
        # is at least _worst_accumulator, so it covers every accumulator too: a layer
        # it puts past 2**24 sums exactly in float64, and one it refuses requantizes
        # in float64; the dtype never shows in the output
        "src/birdedge/nnrt/engine.py",
        "        bound = _worst_accumulator(layer, zero_point)\n",
        "        bound = layer.weight.size // layer.out_ch * 128 * (128 + abs(zero_point))\n"
        "        if layer.bias is not None:\n"
        "            bound += int(np.abs(layer.bias.astype(np.int64)).max())\n",
        ("tests/test_nnrt.py::TestAccumulatorDtype",
         "tests/test_nnrt.py::TestFloat32Requantize::"
         "test_a_refused_layer_matches_the_reference",
         "tests/test_nnrt.py::TestInt8Oracle::test_random_graphs_match_the_reference",
         "tests/test_nnrt.py::TestPinnedOutputs"),
    ),
)


def run_tests(tree: Path, node_ids) -> subprocess.CompletedProcess:
    """pytest run on the given node ids in the copied tree, its output kept."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # pyproject.toml puts the copy's src first
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-profile=mutants", *node_ids],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    return result


def tail(result: subprocess.CompletedProcess, count: int = 40) -> str:
    """The last lines of a pytest run's output, which name the failing test."""
    return "\n".join((result.stdout + result.stderr).splitlines()[-count:])


def main() -> int:
    everything = MUTANTS + EQUIVALENT
    stale = [m.name for m in everything if (ROOT / m.path).read_text().count(m.old) != 1]
    for name in stale:
        print(f"STALE     {name}: old text not found exactly once", file=sys.stderr)
    if stale:
        return 1

    failures = 0
    with tempfile.TemporaryDirectory(prefix="birdedge-mutants-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(
                    source, tree / name,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
                )
            else:
                shutil.copy2(source, tree / name)
        every_node = sorted({node for m in everything for node in m.kills})
        result = run_tests(tree, every_node)
        if result.returncode != 0:
            print(f"the unmutated tests do not pass (pytest exit {result.returncode})\n"
                  f"{tail(result)}", file=sys.stderr)
            return 1
        for m in everything:
            path = tree / m.path
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            try:
                result = run_tests(tree, m.kills)
            finally:
                path.write_text(original)
            code = result.returncode
            # pytest exits 1 when a test failed; 0 means the mutant survived,
            # and anything else (collection error, unknown node) proves nothing
            if m in EQUIVALENT:
                verdict = {0: "equivalent", 1: "KILLED"}.get(code, f"ERROR {code}")
                failures += code != 0
            else:
                verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR {code}")
                failures += code != 1
            print(f"{verdict:10} {m.name}")
            if verdict.startswith(("ERROR", "KILLED")):  # say which test failed
                print(tail(result))
    print(f"{len(MUTANTS)} mutants and {len(EQUIVALENT)} equivalent ones, "
          f"{failures} not as listed")
    return int(failures > 0)


if __name__ == "__main__":
    sys.exit(main())
