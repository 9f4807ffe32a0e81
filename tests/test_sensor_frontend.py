import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowcam.errors import BoundsError, ConfigError, FlowcamError, RangeError
from flowcam.sensor_frontend import (
    _CONFIG_KEYS,
    RATE_TABLE,
    Frame,
    SensorConfig,
    downscale_for_of,
    hardware_reference,
    load_config,
    max_frame_rate,
    read_pgm,
    write_pgm,
)
from flowcam.pipeline import frontend_apply
from oracles import bin_blocks_reference, save_config


def make_frame(width, height, seed=0):
    rng = np.random.default_rng(seed)
    return Frame(rng.integers(0, 256, size=(height, width), dtype=np.uint8))


class TestFrame:
    def test_size_is_the_pixel_shape(self):
        frame = Frame(np.zeros((23, 37), dtype=np.uint8))
        assert (frame.width, frame.height) == (37, 23)

    @pytest.mark.parametrize("shape", [(), (16,), (4, 4, 3), (1, 4, 4)])
    def test_non_2d_buffer_rejected(self, shape):
        with pytest.raises(BoundsError, match="2-D"):
            Frame(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("values", [
        [[300, -1, 2.7]], [[0, 256]], [[-1, 0]], [[0.0, 2.7]], [[0.0, -0.5]],
        [[0.0, np.nan]], [[0.0, np.inf]], [[255.5, 0.0]], [["1", "2"]], [[1 + 0j, 2]],
    ])
    def test_values_a_byte_cannot_hold_rejected(self, values):
        with pytest.raises(RangeError, match=r"integers in \[0, 255\]"):
            Frame(np.array(values))

    @pytest.mark.parametrize("values", [
        np.array([[0, 255], [7, 128]], dtype=np.int64),
        np.array([[0.0, 255.0], [7.0, 128.0]]),
        np.array([[0, 255], [7, 128]], dtype=np.uint16),
        [[0, 255], [7, 128]],
    ])
    def test_whole_values_in_range_stored_as_bytes(self, values):
        frame = Frame(values)
        assert frame.pixels.dtype == np.uint8
        assert frame.pixels.tolist() == [[0, 255], [7, 128]]

    def test_bool_and_empty_buffers_accepted(self):
        assert Frame(np.array([[True, False]])).pixels.tolist() == [[1, 0]]
        assert Frame(np.zeros((0, 4), dtype=np.int64)).pixels.shape == (0, 4)


def window_config(size, origin=(0, 0), factor=1, mode="decimate"):
    """A setting that records the `size` output of the window at `origin`."""
    return SensorConfig(out_width=size[0], out_height=size[1], frame_rate=60,
                        brief_target=1, brief_max=1, tile_budget=2, max_displacement=1,
                        crop_origin=origin, subsample_factor=factor, subsample_mode=mode)


class TestCrop:
    def test_full_sensor_center_crop(self):
        frame = make_frame(1124, 1364)
        out = frontend_apply(frame, window_config((560, 672), (280, 336)))
        assert (out.width, out.height) == (560, 672)
        assert out.pixels[0, 0] == frame.pixels[336, 280]
        assert out.pixels[671, 559] == frame.pixels[1007, 839]

    def test_identity_crop(self):
        frame = make_frame(64, 48)
        assert frontend_apply(frame, window_config((64, 48))) is frame

    def test_single_pixel(self):
        pixels = np.zeros((4, 4), dtype=np.uint8)
        pixels[3, 2] = 77
        out = frontend_apply(Frame(pixels), window_config((1, 1), (2, 3)))
        assert (out.width, out.height) == (1, 1)
        assert out.pixels[0, 0] == 77

    def test_out_of_bounds_names_coordinate(self):
        frame = make_frame(64, 48)
        with pytest.raises(ConfigError, match=r"^frame 64x48 cannot supply the 8x8 "
                                              r"window at \(60, 0\)$"):
            frontend_apply(frame, window_config((8, 8), (60, 0)))
        with pytest.raises(ConfigError, match=r"^frame 64x48 cannot supply the 8x8 "
                                              r"window at \(0, 44\)$"):
            frontend_apply(frame, window_config((8, 8), (0, 44)))


class TestSubsample:
    def test_full_sensor_2x_matches_documented_size(self):
        frame = make_frame(1124, 1364)
        out = frontend_apply(frame, window_config((560, 672), factor=2))
        assert (out.width, out.height) == (560, 672)
        with pytest.raises(ConfigError, match="read 560x672, not 562x682"):
            window_config((562, 682), factor=2)

    def test_full_sensor_4x_matches_documented_size(self):
        frame = make_frame(1124, 1364)
        out = frontend_apply(frame, window_config((280, 336), factor=4, mode="bin"))
        assert (out.width, out.height) == (280, 336)
        with pytest.raises(ConfigError, match="read 280x336, not 281x341"):
            window_config((281, 341), factor=4, mode="bin")

    @pytest.mark.parametrize("factor, accepted, rejected", [
        (2, (7, 8, 9, 15, 16, 32, 64), (17, 31, 33, 63)),
        (4, (7, 8, 16, 32, 64), (9, 15, 17, 31, 33, 63)),
    ])
    def test_window_side_verdicts(self, factor, accepted, rejected):
        # Output sides whose windows straddle 32 px and its multiples: a
        # sub-sampled window side of 32 px or more must be a multiple of 32.
        for side in accepted:
            window_config((side, 8), factor=factor)
            window_config((8, side), factor=factor)
        for side in rejected:
            for size in ((side, 8), (8, side)):
                with pytest.raises(ConfigError, match="would address .* and read"):
                    window_config(size, factor=factor)

    def test_two_by_two_block(self):
        pixels = np.array([[10, 20], [30, 40]], dtype=np.uint8)
        frame = Frame(pixels)
        binned = frontend_apply(frame, window_config((1, 1), factor=2, mode="bin"))
        assert binned.pixels[0, 0] == 25
        assert frontend_apply(frame, window_config((1, 1), factor=2)).pixels[0, 0] == 10

    def test_bin_rounds_half_up(self):
        pixels = np.array([[1, 1], [2, 2]], dtype=np.uint8)  # mean 1.5
        out = frontend_apply(Frame(pixels), window_config((1, 1), factor=2, mode="bin"))
        assert out.pixels[0, 0] == 2

    @pytest.mark.parametrize("mode", ["decimate", "bin"])
    def test_constant_frame_fixed_point(self, mode):
        frame = Frame(np.full((96, 64), 133, dtype=np.uint8))
        out = frontend_apply(frame, window_config((32, 48), factor=2, mode=mode))
        assert (out.width, out.height) == (32, 48)
        assert np.all(out.pixels == 133)

    def test_decimate_values_come_from_input(self):
        frame = make_frame(64, 64, seed=9)
        out = frontend_apply(frame, window_config((16, 16), factor=4))
        assert np.array_equal(out.pixels, frame.pixels[::4, ::4])

    def test_bad_factor_rejected(self):
        with pytest.raises(ConfigError, match="subsample_factor must be 1, 2 or 4, got 3"):
            window_config((16, 16), factor=3, mode="bin")
        with pytest.raises(ConfigError, match="unknown subsample_mode 'area'"):
            window_config((32, 32), factor=2, mode="area")


class TestDownscaleForOf:
    def test_full_resolution_halved_once(self):
        frame = make_frame(1124, 1364)
        out, scale = downscale_for_of(frame)
        assert scale == 2
        assert (out.width, out.height) == (562, 682)

    def test_vga_passes_through(self):
        frame = make_frame(640, 480)
        out, scale = downscale_for_of(frame)
        assert scale == 1
        assert out is frame

    def test_small_frame_passes_through(self):
        frame = make_frame(280, 336)
        out, scale = downscale_for_of(frame)
        assert scale == 1
        assert np.array_equal(out.pixels, frame.pixels)

    def test_portrait_vga_passes_through(self):
        out, scale = downscale_for_of(make_frame(480, 640))
        assert scale == 1

    def test_idempotent_within_bound(self):
        # Frames already within the OF bound are fixed points.
        for w, h in [(640, 480), (480, 640), (100, 100), (33, 600)]:
            frame = make_frame(w, h, seed=w)
            once, scale = downscale_for_of(frame)
            assert scale == 1
            again, scale2 = downscale_for_of(once)
            assert scale2 == 1 and np.array_equal(again.pixels, once.pixels)

    @pytest.mark.parametrize("w, h", [(701, 481), (700, 481), (701, 480), (1123, 1365)])
    def test_odd_size_bins_the_even_top_left_crop(self, w, h):
        frame = make_frame(w, h, seed=h)
        out, scale = downscale_for_of(frame)
        even = frame.pixels[: h // 2 * 2, : w // 2 * 2]
        assert scale == 2
        assert np.array_equal(out.pixels, bin_blocks_reference(even, 2))

    def test_binning_used_not_decimation(self):
        pixels = np.zeros((700, 700), dtype=np.uint8)
        pixels[0, 0] = 100
        pixels[0, 1] = 100
        pixels[1, 0] = 100
        pixels[1, 1] = 104
        out, scale = downscale_for_of(Frame(pixels))
        assert scale == 2
        assert out.pixels[0, 0] == 101  # mean 101.0, not the corner sample


class TestMaxFrameRate:
    @pytest.mark.parametrize(
        "height,vectors,fps",
        [
            (240, 1024, 338),
            (240, 2048, 288),
            (480, 0, 229),
            (480, 1024, 205),
            (480, 2048, 186),
            (1364, 0, 88),
            (1364, 1024, 84),
            (1364, 2048, 80),
        ],
    )
    def test_documented_rows_exact(self, height, vectors, fps):
        assert max_frame_rate(height, vectors) == fps

    def test_extrapolated_corner(self):
        # The table has no (240, 0) point; the grid extends its row: 2*338 - 288.
        assert max_frame_rate(240, 0) == 388

    @pytest.mark.parametrize("height, vectors", sorted(RATE_TABLE))
    def test_reference_and_model_agree_on_the_table(self, height, vectors):
        assert hardware_reference(height, vectors) == max_frame_rate(height, vectors)

    def test_interpolates_between_rows(self):
        # Halfway between (480, 1024)=205 and (480, 2048)=186.
        assert max_frame_rate(480, 1536) == pytest.approx(195.5)

    def test_reported_to_one_decimal(self):
        value = max_frame_rate(700, 700)
        assert value == round(value, 1)

    def test_monotone_in_both_axes(self):
        heights = [240, 300, 480, 672, 900, 1364]
        vectors = [0, 256, 1024, 1500, 2048]
        for vs in vectors:
            rates = [max_frame_rate(h, vs) for h in heights]
            assert rates == sorted(rates, reverse=True)
        for h in heights:
            rates = [max_frame_rate(h, v) for v in vectors]
            assert rates == sorted(rates, reverse=True)

    def test_out_of_range_rejected(self):
        with pytest.raises(RangeError):
            max_frame_rate(100, 0)
        with pytest.raises(RangeError):
            max_frame_rate(480, 4096)


class TestPgmIo:
    def test_round_trip(self, tmp_path):
        frame = make_frame(37, 23, seed=5)
        path = tmp_path / "frame.pgm"
        write_pgm(frame, path)
        back = read_pgm(path)
        assert np.array_equal(back.pixels, frame.pixels)

    def test_reads_commented_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        raster = bytes(range(6))
        path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + raster)
        frame = read_pgm(path)
        assert (frame.width, frame.height) == (3, 2)
        assert frame.pixels[1, 2] == 5

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n4 4\n255\nxy")
        with pytest.raises(ConfigError):
            read_pgm(path)

    @pytest.mark.parametrize("size", [b"0 0", b"0 4", b"4 0"])
    def test_rejects_empty_raster(self, tmp_path, size):
        path = tmp_path / "empty.pgm"
        path.write_bytes(b"P5\n" + size + b"\n255\n")
        with pytest.raises(ConfigError, match="empty.pgm"):
            read_pgm(path)

    # Each example rewrites the same file, so sharing tmp_path is harmless.
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(header=st.binary(max_size=24), raster=st.binary(max_size=40))
    def test_only_typed_errors_escape(self, tmp_path, header, raster):
        path = tmp_path / "fuzz.pgm"
        path.write_bytes(b"P5" + header + raster)
        try:
            read_pgm(path)
        except FlowcamError:
            pass


def write_config(path, **overrides):
    values = dict(out_width="64", out_height="64", frame_rate="60",
                  brief_target="64", brief_max="128", tile_budget="4",
                  max_displacement="8", crop_x="0", crop_y="0")
    values.update(overrides)
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    return path


class TestConfigIo:
    def test_round_trip_with_crop(self, tmp_path):
        cfg = SensorConfig(
            out_width=640, out_height=480, frame_rate=140, brief_target=768,
            brief_max=1024, tile_budget=4, max_displacement=16,
            ratio_threshold=0.8, crop_origin=(240, 432),
        )
        path = tmp_path / "cam.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_round_trip_with_subsample(self, tmp_path):
        cfg = SensorConfig(
            out_width=280, out_height=336, frame_rate=240, brief_target=384,
            brief_max=512, tile_budget=8, max_displacement=16,
            subsample_factor=4, subsample_mode="decimate",
        )
        path = tmp_path / "cam.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cam.cfg"
        path.write_text("out_width=64\nbogus=1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("out_width", "abc"), ("frame_rate", "fast"), ("tile_budget", "2.5"),
        ("crop_x", ""), ("ratio_threshold", "0,8"), ("subsample_factor", "two"),
    ])
    def test_bad_value_names_file_and_key(self, tmp_path, key, value):
        path = write_config(tmp_path / "cam.cfg", **{key: value})
        with pytest.raises(ConfigError, match=f"cam.cfg: {key}="):
            load_config(path)

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf", "0", "-1"])
    def test_frame_rate_must_be_positive_and_finite(self, tmp_path, rate):
        path = write_config(tmp_path / "cam.cfg", frame_rate=rate)
        with pytest.raises(ConfigError, match="frame_rate"):
            load_config(path)

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = write_config(tmp_path / "cam.cfg")
        path.write_text(path.read_text() + "out_width=32\n")
        with pytest.raises(ConfigError, match=r"cam.cfg:10: key 'out_width' already "
                                              r"on line 1$"):
            load_config(path)

    def test_omitted_optional_keys_keep_defaults(self, tmp_path):
        path = write_config(tmp_path / "cam.cfg")
        config = load_config(path)
        defaults = SensorConfig(out_width=64, out_height=64, frame_rate=60,
                                brief_target=64, brief_max=128, tile_budget=4,
                                max_displacement=8, crop_origin=(0, 0))
        assert config == defaults

    def test_window_leaving_the_sensor_rejected(self, tmp_path):
        path = write_config(tmp_path / "cam.cfg", out_width="640", out_height="480",
                            crop_x="600", crop_y="1000")
        with pytest.raises(ConfigError, match=r"window 640x480 at \(600, 1000\) leaves "
                                              r"the 1124x1364 sensor array"):
            load_config(path)

    def test_missing_key_named(self, tmp_path):
        path = tmp_path / "cam.cfg"
        path.write_text("out_width=64\n")
        with pytest.raises(ConfigError, match="missing key 'out_height'"):
            load_config(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "cam.cfg"
        path.write_bytes(b"out_width=\xff\n")
        with pytest.raises(ConfigError, match="cam.cfg"):
            load_config(path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.sampled_from(_CONFIG_KEYS), st.text(max_size=8)),
                    max_size=14))
    def test_only_typed_errors_escape(self, tmp_path, entries):
        path = tmp_path / "fuzz.cfg"
        path.write_text("".join(f"{k}={v}\n" for k, v in entries), encoding="utf-8")
        try:
            load_config(path)
        except FlowcamError:
            pass

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ConfigError):
            SensorConfig(
                out_width=64, out_height=64, frame_rate=60, brief_target=512,
                brief_max=256, tile_budget=4, max_displacement=8,
            )
        with pytest.raises(ConfigError):
            SensorConfig(
                out_width=64, out_height=64, frame_rate=60, brief_target=128,
                brief_max=256, tile_budget=9, max_displacement=8,
            )
