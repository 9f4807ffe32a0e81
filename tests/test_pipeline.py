from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from flowcam import pipeline
from flowcam.errors import ConfigError, RangeError
from flowcam.feature_engine import update_threshold
from flowcam.pipeline import (
    PARAMETER_SETS,
    STAGES,
    finalize_report,
    frontend_apply,
    hardware_reference,
    run_parameter_set,
    run_pipeline,
    synthesize_sequence,
    throughput_report,
)
from flowcam.scene_synth import MotionSpec, TextureSpec, generate_texture, render_sequence
from flowcam.sensor_frontend import (
    FULL_HEIGHT,
    FULL_WIDTH,
    Frame,
    SensorConfig,
    downscale_for_of,
    load_config,
    of_scale,
)
from flowcam.wire_format import read_ofv
from oracles import bin_blocks_reference, save_config


def small_config(**overrides):
    base = dict(
        out_width=160, out_height=120, frame_rate=60, brief_target=64,
        brief_max=256, tile_budget=4, max_displacement=8, ratio_threshold=0.8,
    )
    base.update(overrides)
    return SensorConfig(**base)


def still_frames(n=4, size=(160, 120), seed=0):
    tex = generate_texture(TextureSpec("blocks", seed, (2 * size[0], 2 * size[1])))
    return render_sequence(tex, MotionSpec("still"), n, size)


class TestParameterSets:
    # (id, width, height, crop, factor, fps, target, cap, tile)
    TABLE = [
        (1, 1124, 1364, (0, 0), 1, 60, 1536, 2048, 2),
        (2, 1120, 1344, (0, 0), 1, 60, 1536, 2048, 2),
        (3, 640, 480, (240, 432), 1, 140, 768, 1024, 4),
        (4, 560, 672, (280, 336), 1, 140, 768, 1024, 4),
        (5, 560, 672, (0, 0), 2, 140, 768, 1024, 4),
        (6, 272, 336, (420, 504), 1, 240, 384, 512, 8),
        (7, 280, 336, (0, 0), 4, 240, 384, 512, 8),
    ]

    @pytest.mark.parametrize("row", TABLE, ids=[f"set{r[0]}" for r in TABLE])
    def test_catalog_matches_documented_settings(self, row):
        sid, w, h, crop, factor, fps, target, cap, tile = row
        cfg = PARAMETER_SETS[sid]
        assert (cfg.out_width, cfg.out_height) == (w, h)
        assert cfg.crop_origin == crop
        assert cfg.subsample_factor == factor
        assert cfg.frame_rate == fps
        assert cfg.brief_target == target
        assert cfg.brief_max == cap
        assert cfg.tile_budget == tile

    @pytest.mark.parametrize("sid", list(PARAMETER_SETS))
    def test_round_trip_through_config_file(self, sid, tmp_path):
        cfg = PARAMETER_SETS[sid]
        path = tmp_path / f"set{sid}.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_ten_second_frame_counts(self):
        assert round(PARAMETER_SETS[1].frame_rate * 10) == 600
        assert round(PARAMETER_SETS[6].frame_rate * 10) == 2400


class TestFrontendApply:
    def test_pass_through_at_output_size(self):
        cfg = PARAMETER_SETS[4]
        frame = Frame(
            np.zeros((cfg.out_height, cfg.out_width), dtype=np.uint8)
        )
        assert frontend_apply(frame, cfg) is frame

    def test_full_sensor_cropped(self):
        rng = np.random.default_rng(0)
        full = Frame(rng.integers(0, 256, size=(1364, 1124), dtype=np.uint8))
        cfg = PARAMETER_SETS[4]
        out = frontend_apply(full, cfg)
        assert (out.width, out.height) == (560, 672)
        assert out.pixels[0, 0] == full.pixels[336, 280]

    def test_full_sensor_subsampled(self):
        rng = np.random.default_rng(1)
        full = Frame(rng.integers(0, 256, size=(1364, 1124), dtype=np.uint8))
        out = frontend_apply(full, PARAMETER_SETS[5])
        assert (out.width, out.height) == (560, 672)
        assert out.pixels[0, 0] == full.pixels[0, 0]  # decimation keeps (0, 0)
        out7 = frontend_apply(full, PARAMETER_SETS[7])
        assert (out7.width, out7.height) == (280, 336)

    def test_dimension_mismatch_rejected(self):
        frame = Frame(np.zeros((100, 100), dtype=np.uint8))
        with pytest.raises(ConfigError):
            frontend_apply(frame, PARAMETER_SETS[3])

    def test_crop_the_subsampler_would_cut_rejected(self):
        # 600 px is off the sensor's 32-px sub-sampling grid: its 2x
        # sub-sampler would address 576x480 and read 288x240, not the 300x240
        # the config asks for. Without crop keys the window is at (0, 0).
        with pytest.raises(ConfigError, match="crop window 600x480 .* read 288x240"):
            small_config(out_width=300, out_height=240, crop_origin=(0, 0),
                         subsample_factor=2)
        with pytest.raises(ConfigError, match="crop window 600x480 .* read 288x240"):
            small_config(out_width=300, out_height=240, subsample_factor=2)

    def test_window_leaving_the_sensor_rejected(self):
        # Set 3's 640x480 window at (600, 1000) would end at (1240, 1480).
        with pytest.raises(ConfigError, match=r"window 640x480 at \(600, 1000\) leaves "
                                              r"the 1124x1364 sensor array"):
            replace(PARAMETER_SETS[3], crop_origin=(600, 1000))
        with pytest.raises(ConfigError, match="window 1120x960 at"):
            small_config(out_width=560, out_height=480, crop_origin=(32, 0),
                         subsample_factor=2)

    def test_window_at_the_sensor_corner_accepted(self):
        origin = (FULL_WIDTH - 640, FULL_HEIGHT - 480)
        cfg = replace(PARAMETER_SETS[3], crop_origin=origin)
        rng = np.random.default_rng(3)
        full = Frame(rng.integers(0, 256, size=(FULL_HEIGHT, FULL_WIDTH), dtype=np.uint8))
        out = frontend_apply(full, cfg)
        assert np.array_equal(out.pixels, full.pixels[origin[1]:, origin[0]:])

    @pytest.mark.parametrize("config", [
        PARAMETER_SETS[3], PARAMETER_SETS[5], PARAMETER_SETS[7],
        replace(PARAMETER_SETS[5], subsample_mode="bin"),
        replace(PARAMETER_SETS[7], subsample_mode="bin"),
        small_config(out_width=320, out_height=240, crop_origin=(64, 32), subsample_factor=2,
                     subsample_mode="bin"),
        small_config(out_width=64, out_height=32, crop_origin=(96, 416), subsample_factor=4),
    ], ids=["set3", "set5", "set7", "set5-bin", "set7-bin", "crop-2x-bin", "crop-4x"])
    def test_window_view_matches_crop_then_subsample(self, config):
        # The window sliced from the array, then decimated or block-averaged.
        rng = np.random.default_rng(4)
        full = Frame(rng.integers(0, 256, size=(FULL_HEIGHT, FULL_WIDTH), dtype=np.uint8))
        f = config.subsample_factor
        (ox, oy), w, h = config.crop_origin, config.out_width * f, config.out_height * f
        window = full.pixels[oy : oy + h, ox : ox + w]
        if config.subsample_mode == "bin":
            expected = bin_blocks_reference(window, f)
        else:
            expected = window[::f, ::f]
        out = frontend_apply(full, config)
        assert out.pixels.flags.c_contiguous
        assert np.array_equal(out.pixels, expected)

    def test_addressable_crop_window_accepted(self):
        cfg = small_config(out_width=320, out_height=240, crop_origin=(64, 32),
                           subsample_factor=2)
        rng = np.random.default_rng(2)
        full = Frame(rng.integers(0, 256, size=(FULL_HEIGHT, FULL_WIDTH), dtype=np.uint8))
        out = frontend_apply(full, cfg)
        assert (out.width, out.height) == (320, 240)
        assert out.pixels[0, 0] == full.pixels[32, 64]


class TestOfScale:
    @pytest.mark.parametrize(
        "sid,scale", [(1, 2), (2, 2), (3, 1), (4, 2), (5, 2), (6, 1), (7, 1)]
    )
    def test_catalog_scales(self, sid, scale):
        cfg = PARAMETER_SETS[sid]
        assert of_scale(cfg.out_width, cfg.out_height) == scale

    @pytest.mark.parametrize(
        "w,h,scale", [(640, 480, 1), (641, 480, 2), (480, 640, 1), (640, 481, 2)]
    )
    def test_vga_bound_matches_downscale(self, w, h, scale):
        _, applied = downscale_for_of(Frame(np.zeros((h, w), dtype=np.uint8)))
        assert of_scale(w, h) == applied == scale


class TestRunPipeline:
    def test_static_two_frames_all_zero_vectors(self):
        cfg = small_config()
        frames = still_frames(2)
        vectors, report = run_pipeline(cfg, frames)
        assert len(vectors[0]) == 0
        assert len(vectors[1]) > 0
        assert all(v.dx == 0 and v.dy == 0 and v.best_score == 0 for v in vectors[1])

    def test_needs_two_frames(self):
        with pytest.raises(ConfigError):
            run_pipeline(small_config(), still_frames(1))

    def test_vector_count_never_exceeds_cap(self):
        cfg = small_config(brief_max=32, brief_target=16)
        vectors, report = run_pipeline(cfg, still_frames(5))
        assert (report.per_frame["emitted"] <= cfg.brief_max).all()
        assert (report.per_frame["produced"] <= cfg.brief_max).all()

    def test_per_frame_record(self):
        # a target below what the scene offers moves the threshold
        cfg = small_config(brief_max=32, brief_target=16)
        vectors, report = run_pipeline(cfg, still_frames(6), initial_threshold=11)
        rows = report.per_frame
        assert report.n_frames == len(rows) == 6
        assert rows["emitted"].tolist() == [len(v) for v in vectors]
        assert (rows["produced"] <= cfg.brief_max).all()
        assert rows["threshold"][0] == 11
        for prev, row in zip(rows[:-1], rows[1:]):
            assert row["threshold"] == update_threshold(
                int(prev["threshold"]), int(prev["produced"]), cfg.brief_target)
        assert len(set(rows["threshold"].tolist())) > 1

    def test_determinism(self):
        cfg = small_config()
        frames = still_frames(5, seed=2)
        v1, _ = run_pipeline(cfg, frames)
        v2, _ = run_pipeline(cfg, frames)
        assert v1 == v2

    def test_stream_is_the_encoded_payloads(self, tmp_path):
        vectors, report = run_pipeline(small_config(), still_frames(3))
        assert vectors.rows.dtype.str == "<i2"
        assert vectors.offsets.tolist() == [0, *np.cumsum(report.per_frame["emitted"])]
        assert len(vectors[1]) > 0
        finalize_report(vectors, report, None, tmp_path, name="s")
        _, _, back = read_ofv(tmp_path / "s.ofv")
        assert back == vectors

    def test_timings_non_negative_and_complete(self):
        _, report = run_pipeline(small_config(), still_frames(3))
        assert set(report.stage_us) == {"frontend", "detect", "describe", "match", "encode"}
        assert all(v >= 0 for v in report.stage_us.values())
        assert report.throughput_fps > 0
        total_ns = sum(int(report.per_frame[f"{s}_ns"].sum()) for s in STAGES)
        assert report.throughput_fps == pytest.approx(3 / (total_ns / 1e9))
        assert report.total_us_per_frame == pytest.approx(total_ns / 3 / 1000)

    def test_set6_still_converges_to_target(self):
        # 240-frame standstill run: the vector count settles within 10 percent
        # of the 384-descriptor target.
        vectors, report = run_parameter_set(6, "still", 1.0, seed=3)
        assert report.n_frames == 240
        counts = report.per_frame["emitted"][20:]
        assert np.all(np.abs(counts - 384) <= 0.1 * 384)

    def test_set3_translation_tracks_ground_truth(self):
        from flowcam.track_analyzer import mean_flow

        vectors, report = run_parameter_set(
            3, "translate-easy", 0.0, n_frames=80, seed=0, speed_px_s=420.0
        )
        flows = mean_flow(vectors)[21:]
        assert all(f is not None for f in flows)
        assert all(abs(f[0] - 3.0) <= 0.25 and abs(f[1]) <= 0.25 for f in flows)

    def test_translate_hard_report_has_final_rel_err(self):
        vectors, report = run_parameter_set(
            3, "translate-hard", 0.0, n_frames=30, seed=0
        )
        assert "final_rel_err" in report.summary


class TestSynthesizeSequence:
    def test_frame_counts_follow_rate(self):
        vectors, report = run_parameter_set(6, "still", 0.1, seed=0)
        assert report.n_frames == round(240 * 0.1)

    def test_ground_truth_in_of_units(self):
        cfg = PARAMETER_SETS[5]  # 2x record subsample, 2x OF downscale
        frames, gt = synthesize_sequence(cfg, "translate-easy", 3, seed=0,
                                         speed_px_s=560.0)
        assert gt[0] == (0.0, 0.0)
        assert gt[1] == (560.0 / 140.0 / 4.0, 0.0)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(RangeError):
            synthesize_sequence(PARAMETER_SETS[6], "warp", 3)

    # Sub-sampled configs are run in both readout modes; the last two
    # configs have no crop keys, so they record the window at (0, 0).
    WINDOWS = {
        "5": PARAMETER_SETS[5],
        "7": PARAMETER_SETS[7],
        "3": PARAMETER_SETS[3],
        "160x120": small_config(),
        "320x240-2x": small_config(out_width=320, out_height=240, subsample_factor=2),
    }

    @pytest.mark.parametrize("config", list(WINDOWS.values()), ids=list(WINDOWS))
    @pytest.mark.parametrize("scenario", ["translate-easy", "rotate", "still"])
    def test_binned_readout_matches_the_frontend(self, config, scenario):
        full = replace(config, out_width=FULL_WIDTH, out_height=FULL_HEIGHT,
                       crop_origin=(0, 0), subsample_factor=1)
        full_frames, _ = synthesize_sequence(full, scenario, 3, seed=3)
        modes = ("decimate", "bin") if config.subsample_factor > 1 else ("decimate",)
        readouts = []
        for mode in modes:
            recorded = replace(config, subsample_mode=mode)
            frames, gt = synthesize_sequence(recorded, scenario, 3, seed=3)
            for frame, full_frame in zip(frames, full_frames):
                expected = frontend_apply(full_frame, recorded)
                assert np.array_equal(frame.pixels, expected.pixels)
            readouts.append((frames, gt))
        if len(readouts) == 2:
            (strided, strided_gt), (binned, gt) = readouts
            assert gt == strided_gt
            for frame, strided_frame in zip(binned, strided):
                assert not np.array_equal(frame.pixels, strided_frame.pixels)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(RangeError, match="finite"):
            run_parameter_set(6, "still", duration)

    @pytest.mark.parametrize("duration, n_frames, message", [
        (10.0, 2**32, "frame count 4294967296; a stream holds fewer than 4294967296"),
        (10.0, 1, "frame count 1; a run needs at least 2"),
        (0.001, None, "duration 0.001 s is 0 frames; a run needs at least 2"),
        (17895697.07, None, "duration 17895697.07 s is 4294967297 frames; a stream"),
    ])
    def test_frame_count_checked_before_synthesis(self, duration, n_frames, message):
        with mock.patch.object(pipeline, "generate_texture",
                               side_effect=AssertionError("texture generated")):
            with pytest.raises(RangeError, match=f"^{message}"):
                run_parameter_set(6, "still", duration, n_frames=n_frames)

    def test_same_seed_same_frames(self):
        cfg = PARAMETER_SETS[6]
        a, _ = synthesize_sequence(cfg, "translate-easy", 3, seed=5)
        b, _ = synthesize_sequence(cfg, "translate-easy", 3, seed=5)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.pixels, fb.pixels)


class TestThroughput:
    def test_hardware_reference_exact_rows(self):
        assert hardware_reference(480, 1024) == 205
        assert hardware_reference(1364, 2048) == 80

    def test_hardware_reference_floors_vector_budget(self):
        assert hardware_reference(1364, 1536) == 84

    def test_hardware_reference_missing_points(self):
        assert hardware_reference(672, 768) is None
        assert hardware_reference(336, 384) is None
        assert hardware_reference(240, 500) is None

    def test_needs_fifty_frames(self):
        with pytest.raises(RangeError):
            throughput_report(small_config(), still_frames(10))

    def test_report_fields(self):
        cfg = small_config()
        report = throughput_report(cfg, still_frames(50))
        assert report.n_frames == 50
        assert report.total_us_per_frame > 0
        assert report.hw_reference is None  # 120-px frame height not documented
        assert report.hw_model_fps is None  # below the rate-model height range
