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
        "pad = np.full(span, np.inf, dtype=maxima.dtype)",
        "pad = np.full(span, 0, dtype=maxima.dtype)",
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
        "AugmentConfig.validate: warp limit may reach half the frames",
        "src/birdedge/augment.py",
        "WARP_LIMIT >= n_frames / 2",
        "WARP_LIMIT > n_frames / 2",
        ("tests/test_augment.py::TestConfig::test_warp_limit_vs_frames",),
    ),
    Mutant(
        "augment_chunk: frame count checked when nothing can run",
        "src/birdedge/augment.py",
        "n_frames=spec.n_frames if can_run else None",
        "n_frames=spec.n_frames",
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
        "_int8_acc: always float32",
        "src/birdedge/nnrt/engine.py",
        "layer.weight.astype(np.float32 if bound < 2**24 else np.float64)",
        "layer.weight.astype(np.float32)",
        ("tests/test_nnrt.py::TestAccumulatorDtype",),
    ),
    Mutant(
        "_int8_acc: float32 bound doubled",
        "src/birdedge/nnrt/engine.py",
        "np.float32 if bound < 2**24 else",
        "np.float32 if bound < 2**25 else",
        ("tests/test_nnrt.py::TestAccumulatorDtype",),
    ),
    Mutant(
        "residual_add: index built with the operands swapped",
        "src/birdedge/nnrt/engine.py",
        "index = np.left_shift(x.view(np.uint8), 8, dtype=np.uint16)\n"
        "        index |= skip_x.view(np.uint8)",
        "index = np.left_shift(skip_x.view(np.uint8), 8, dtype=np.uint16)\n"
        "        index |= x.view(np.uint8)",
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
        "buffers[layer.skip_from - INPUT_BUFFER]",
        "buffers[layer.skip_from]",
        ("tests/test_nnrt.py::TestInt8Oracle::test_random_graphs_match_the_reference",
         "tests/test_nnrt.py::TestInt8Oracle::test_hand_built_graphs_match_the_reference"),
    ),
    Mutant(
        "unpadded conv: zero point not subtracted",
        "src/birdedge/nnrt/engine.py",
        "return np.subtract(x, zero_point, dtype=dtype)",
        "return x.astype(dtype)",
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
        "np.subtract(x, zero_point, out=inner, dtype=dtype)",
        "np.subtract(x, zero_point, out=inner)",
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
        "    shapes = validate_graph(model)\n    return ResourceReport(",
        "    shapes = [model.input_shape] * (len(model.layers) + 1)\n"
        "    return ResourceReport(",
        ("tests/test_nnrt.py::TestResources::test_report_of_an_invalid_graph_raises",
         "tests/test_nnrt.py::TestResources::test_rom_of_an_invalid_graph_raises",
         "tests/test_nnrt.py::TestResources::test_report_validates_the_graph_once"),
    ),
    Mutant(
        "resource_report: the graph validated again for the RAM",
        "src/birdedge/nnrt/resources.py",
        "ram_bytes=_peak_ram(model, shapes),",
        "ram_bytes=_peak_ram(model, validate_graph(model)),",
        ("tests/test_nnrt.py::TestResources::test_report_validates_the_graph_once",),
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
        "map(_flops_of, model.layers, shapes[1:])",
        "map(_flops_of, model.layers, shapes[:-1])",
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
        '    if chunk.dtype.kind in "biu":\n'
        "        chunk = chunk.astype(np.float64)\n"
        "    edges = np.arange(0, len(chunk), window)\n"
        "    return np.maximum.reduceat(np.abs(chunk), edges)\n",
        "    edges = np.arange(0, len(chunk), window)\n"
        "    maxima = np.maximum.reduceat(np.abs(chunk), edges)\n"
        '    return maxima if maxima.dtype.kind == "f" else maxima.astype(np.float64)\n',
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
        '"d": "{:d}"',
        '"d": "{}"',
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
        "            _check_layer(layer)\n",
        "",
        ("tests/test_nnrt.py::TestSerialization::test_save_applies_the_loader_limits",),
    ),
    Mutant(
        "save_model: an accumulator past int32 written",
        "src/birdedge/nnrt/serialize.py",
        "            _check_layer(layer)\n    check_int32_accumulators(model)\n",
        "            _check_layer(layer)\n",
        ("tests/test_nnrt.py::TestSerialization::"
         "test_int32_bound_uses_each_layers_input_zero_point",),
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
        "generate_fixture_model: biases drawn before the probes",
        "src/birdedge/nnrt/fixture.py",
        "    probes = rng.uniform(-80.0, 0.0, size=(_PROBE_COUNT, *model.input_shape[1:]))\n"
        "    _calibrate(model, probes)  # draws nothing: the biases come next from rng\n"
        "    _attach_biases(model, rng)\n",
        "    _attach_biases(model, rng)\n"
        "    probes = rng.uniform(-80.0, 0.0, size=(_PROBE_COUNT, *model.input_shape[1:]))\n"
        "    _calibrate(model, probes)  # draws nothing: the biases come next from rng\n",
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
        "                    _check_integer(value, what, i)\n",
        "                    pass\n",
        ("tests/test_nnrt.py::TestIntegerFields::test_every_entry_raises[padding-validate_graph]",
         "tests/test_nnrt.py::TestIntegerFields::test_every_entry_raises[out_ch-infer]"),
    ),
    Mutant(
        "validate_graph: padding left out of the integer fast path",
        "src/birdedge/nnrt/graph.py",
        "is type(stride) is type(padding) is int",
        "is type(stride) is int",
        ("tests/test_nnrt.py::TestIntegerFields::test_every_entry_raises[padding-validate_graph]",),
    ),
    Mutant(
        "validate_graph: a numpy integer field rejected",
        "src/birdedge/nnrt/graph.py",
        "    if not isinstance(value, _INTEGER):\n",
        "    if type(value) is not int:\n",
        ("tests/test_nnrt.py::TestIntegerFields::test_numpy_integers_are_integers",),
    ),
    Mutant(
        "_check_zero_point: a zero point that is not an integer accepted",
        "src/birdedge/nnrt/graph.py",
        "    if not (-128 <= value <= 127 and isinstance(value, _INTEGER)):\n",
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
        "    input_shape = tuple(model.input_shape)",
        "    input_shape = model.input_shape",
        ("tests/test_nnrt.py::TestIntegerFields::test_input_shape_as_a_list_is_the_tuple",),
    ),
    Mutant(
        "_check_input: the spectrogram compared with a list input shape",
        "src/birdedge/nnrt/engine.py",
        "    expected = validate_graph(model)[0][1:]  # the input shape, as a tuple\n",
        "    validate_graph(model)\n    expected = model.input_shape[1:]\n",
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
        "AudioClip: a sample rate below 1 accepted",
        "src/birdedge/audio_io.py",
        "        if not self.sample_rate >= 1:  # NaN too\n",
        "        if False:\n",
        ("tests/test_audio_io.py::TestAudioClip::test_sample_rate_below_1_rejected[0]",),
    ),
)


# Mutants no test can kill, because the output cannot change; each gives
# the reason. The script applies them too, and there their tests must pass.
EQUIVALENT = (
    Mutant(
        "pareto_front: front scanned oldest first",  # the same any() over
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
        "low = neighbors[index, (count - 1) // 2]\n"
        "    high = neighbors[index, count // 2]",
        "low = neighbors[index, count // 2]\n"
        "    high = neighbors[index, (count - 1) // 2]",
        ("tests/test_preprocess.py::TestHasPeakAgainstLoop::test_matches_loop",),
    ),
)


def run_tests(tree: Path, node_ids) -> int:
    """pytest's exit code for the given node ids, run in the copied tree."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # pyproject.toml puts the copy's src first
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-profile=mutants", *node_ids],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    return result.returncode


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
        code = run_tests(tree, every_node)
        if code != 0:
            print(f"the unmutated tests do not pass (pytest exit {code})", file=sys.stderr)
            return 1
        for m in everything:
            path = tree / m.path
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            try:
                code = run_tests(tree, m.kills)
            finally:
                path.write_text(original)
            # pytest exits 1 when a test failed; 0 means the mutant survived,
            # and anything else (collection error, unknown node) proves nothing
            if m in EQUIVALENT:
                verdict = {0: "equivalent", 1: "KILLED"}.get(code, f"ERROR {code}")
                failures += code != 0
            else:
                verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR {code}")
                failures += code != 1
            print(f"{verdict:10} {m.name}")
    print(f"{len(MUTANTS)} mutants and {len(EQUIVALENT)} equivalent ones, "
          f"{failures} not as listed")
    return int(failures > 0)


if __name__ == "__main__":
    sys.exit(main())
