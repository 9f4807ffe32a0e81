import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcam.errors import CoverageError, FrameSizeError, RangeError
from flowcam.feature_engine import detect_fast
from flowcam.scene_synth import (
    MOTION_KINDS,
    MotionSpec,
    TextureSpec,
    _bilinear,
    _foliage,
    generate_texture,
    ground_truth_flow,
    load_manifest,
    load_sequence,
    mean_ground_truth_flow,
    render_camera_sequence,
    render_sequence,
    save_sequence,
)
from flowcam.sensor_frontend import Frame, subsample
from oracles import render_reference


class TestTextures:
    def test_same_spec_identical(self):
        spec = TextureSpec("blocks", 42, (128, 96))
        a, b = generate_texture(spec), generate_texture(spec)
        assert np.array_equal(a.pixels, b.pixels)

    def test_blocks_are_corner_rich(self):
        tex = generate_texture(TextureSpec("blocks", 7, (640, 480)))
        corners = detect_fast(tex, 20)
        assert len(corners) >= 500
        assert len(corners) == 1639  # frozen from the reference run

    def test_wheel_constant_along_rays(self):
        tex = generate_texture(TextureSpec("wheel", 3, (256, 256)))
        cx = cy = (256 - 1) / 2
        rng = np.random.default_rng(0)
        for _ in range(200):
            # pick an angle safely inside a sector, walk out along the ray
            sector = rng.integers(0, 12)
            theta = (sector + 0.5) * 2 * math.pi / 12
            values = set()
            for r in (20, 45, 70, 100):
                x = int(round(cx + r * math.cos(theta)))
                y = int(round(cy + r * math.sin(theta)))
                values.add(tex.pixels[y, x])
            assert len(values) == 1

    def test_wheel_four_fold_symmetric(self):
        tex = generate_texture(TextureSpec("wheel", 5, (256, 256)))
        assert np.array_equal(np.rot90(tex.pixels), tex.pixels)

    def test_noise_uses_full_range(self):
        tex = generate_texture(TextureSpec("noise", 1, (128, 128)))
        assert tex.pixels.min() < 8 and tex.pixels.max() > 247

    def test_foliage_holds_two_float_fields_at_most(self):
        # The noise field and its padded copy; a third full buffer would
        # put the peak near 3x.
        w, h = 512, 384
        tracemalloc.start()
        try:
            _foliage(np.random.default_rng(0), w, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * w * h * 8

    def test_undersized_rejected(self):
        with pytest.raises(FrameSizeError):
            TextureSpec("blocks", 0, (63, 128))

    def test_unknown_kind_rejected(self):
        with pytest.raises(RangeError):
            TextureSpec("marble", 0, (128, 128))


class TestMotionSpec:
    @pytest.mark.parametrize("kind, kwargs", [
        ("translate", {"velocity": (math.nan, 0.0)}),
        ("translate", {"velocity": (0.0, -math.inf)}),
        ("zoom", {"rate": math.nan}),
        ("zoom", {"rate": math.inf}),
        ("rotate", {"omega": math.inf}),
        ("rotate", {"center": (math.nan, 10.0)}),
    ])
    def test_non_finite_value_rejected(self, kind, kwargs):
        with pytest.raises(RangeError, match="finite"):
            MotionSpec(kind, **kwargs)


class TestRenderSequence:
    def test_still_motion_identical_frames(self):
        tex = generate_texture(TextureSpec("blocks", 1, (128, 128)))
        frames = render_sequence(tex, MotionSpec("still"), 4, (64, 64))
        assert len(frames) == 4
        for f in frames[1:]:
            assert np.array_equal(f.pixels, frames[0].pixels)

    def test_still_frames_share_one_read_only_buffer(self):
        tex = generate_texture(TextureSpec("blocks", 1, (128, 128)))
        frames = render_camera_sequence(tex, MotionSpec("still"), 4, (64, 64))
        assert all(f.pixels is frames[0].pixels for f in frames)
        with pytest.raises(ValueError):
            frames[2].pixels[0, 0] = 1

    def test_integer_translation_is_exact_shift(self):
        tex = generate_texture(TextureSpec("blocks", 2, (160, 160)))
        frames = render_sequence(tex, MotionSpec("translate", velocity=(1, 0)), 3, (64, 64))
        # content moves +1 px per frame: frame2(x) == frame1(x-1)
        assert np.array_equal(frames[2].pixels[:, 1:], frames[1].pixels[:, :-1])

    def test_quarter_turn_on_symmetric_wheel_is_identity(self):
        tex = generate_texture(TextureSpec("wheel", 4, (256, 256)))
        frames = render_sequence(
            tex, MotionSpec("rotate", omega=math.pi / 2, center=(63.5, 63.5)), 3, (128, 128)
        )
        assert np.array_equal(frames[1].pixels, frames[0].pixels)
        assert np.array_equal(frames[2].pixels, frames[0].pixels)

    def test_translate_requires_double_texture(self):
        tex = generate_texture(TextureSpec("blocks", 3, (100, 100)))
        with pytest.raises(CoverageError):
            render_sequence(tex, MotionSpec("translate", velocity=(1, 0)), 2, (64, 64))

    def test_escaping_motion_reports_first_bad_frame(self):
        tex = generate_texture(TextureSpec("blocks", 3, (128, 128)))
        with pytest.raises(CoverageError, match="frame 3"):
            render_sequence(tex, MotionSpec("translate", velocity=(16, 0)), 5, (64, 64))

    def test_deterministic(self):
        tex = generate_texture(TextureSpec("foliage", 9, (128, 128)))
        motion = MotionSpec("translate", velocity=(0.5, -0.25))
        a = render_sequence(tex, motion, 5, (64, 64))
        b = render_sequence(tex, motion, 5, (64, 64))
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.pixels, fb.pixels)

    def test_bilinear_matches_float64_formula(self):
        rng = np.random.default_rng(5)
        tex = rng.integers(0, 256, size=(40, 50), dtype=np.uint8)
        sx = rng.uniform(0, 49, size=(6, 7))
        sy = rng.uniform(0, 39, size=(6, 7))
        sx[0, 0], sy[0, 0] = 49.0, 39.0  # bottom-right corner sample
        x0 = np.minimum(np.floor(sx).astype(int), 48)
        y0 = np.minimum(np.floor(sy).astype(int), 38)
        fx, fy = sx - x0, sy - y0
        t = tex.astype(np.float64)
        val = (t[y0, x0] * (1 - fx) * (1 - fy) + t[y0, x0 + 1] * fx * (1 - fy)
               + t[y0 + 1, x0] * (1 - fx) * fy + t[y0 + 1, x0 + 1] * fx * fy)
        expected = np.floor(val + 0.5).astype(np.uint8)
        assert np.array_equal(_bilinear(tex, sx, sy, 0), expected)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_bilinear_rejects_nan_coordinate(self, axis):
        tex = np.zeros((20, 30), dtype=np.uint8)
        sx = np.full((1, 5), 3.5)
        sy = np.full((4, 1), 2.25)
        (sx if axis == "x" else sy)[0, 0] = math.nan
        with pytest.raises(CoverageError, match="frame 7"):
            _bilinear(tex, sx, sy, 7)

    def test_strided_readout_matches_decimation(self):
        tex = generate_texture(TextureSpec("blocks", 6, (256, 256)))
        motion = MotionSpec("translate", velocity=(2, 0))
        full = render_camera_sequence(tex, motion, 3, (128, 128), fov=(128, 128))
        strided = render_camera_sequence(
            tex, motion, 3, (64, 64), fov=(128, 128), stride=2
        )
        for f, s in zip(full, strided):
            assert np.array_equal(subsample(f, 2, "decimate").pixels, s.pixels)


VELOCITY = st.one_of(
    st.integers(-3, 3).map(float),
    st.integers(-12, 12).map(lambda k: k / 4),
    st.floats(-2.5, 2.5),
)


@st.composite
def render_cases(draw):
    """Window, field of view, texture size and motion for one render."""
    stride = draw(st.sampled_from([1, 2, 4]))
    vw, vh = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    ox, oy = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    fov = (ox + vw * stride + draw(st.integers(0, 3)),
           oy + vh * stride + draw(st.integers(0, 3)))
    size = (fov[0] + draw(st.integers(0, 9)), fov[1] + draw(st.integers(0, 9)))
    motion = MotionSpec(
        draw(st.sampled_from(MOTION_KINDS)),
        velocity=(draw(VELOCITY), draw(VELOCITY)),
        rate=draw(st.one_of(st.just(1.0), st.floats(0.8, 1.25))),
        omega=draw(st.floats(-0.5, 0.5)),
    )
    return size, motion, draw(st.integers(1, 5)), (vw, vh), fov, (ox, oy), stride


def render_outcome(render, texture, case):
    """The frames a renderer returns, or the text of its CoverageError."""
    _, motion, n_frames, viewport, fov, origin, stride = case
    try:
        return render(texture, motion, n_frames, viewport, fov=fov,
                      window_origin=origin, stride=stride)
    except CoverageError as exc:
        return str(exc)


class TestRenderOracle:
    """`render_camera_sequence` against the full-grid reference renderer."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), case=render_cases())
    # integer samples at exactly w-1 and h-1 (the direct gather)
    @example(seed=1, case=((8, 8), MotionSpec("still"), 2, (8, 8), (8, 8), (0, 0), 1))
    # x at exactly w-1 while y is fractional, down to the last cell: x0
    # clamps to w-2 with fx = 1, or the +w+1 corner would leave the texture
    @example(seed=2, case=((8, 10), MotionSpec("translate", velocity=(0.0, -0.5)), 3,
                           (8, 8), (8, 8), (0, 0), 1))
    # y at exactly h-1 while x is fractional, out to the last cell
    @example(seed=3, case=((10, 8), MotionSpec("translate", velocity=(-0.5, 0.0)), 3,
                           (8, 8), (8, 8), (0, 0), 1))
    # stride 4 from an unaligned origin, half-pixel texture offsets
    @example(seed=4, case=((40, 30), MotionSpec("translate", velocity=(0.25, -0.75)), 3,
                           (8, 6), (37, 27), (3, 1), 4))
    # the content leaves the texture at frame 2
    @example(seed=5, case=((20, 12), MotionSpec("translate", velocity=(3.0, 0.0)), 5,
                           (8, 8), (12, 8), (1, 0), 1))
    def test_matches_full_grid_reference(self, seed, case):
        w, h = case[0]
        rng = np.random.default_rng(seed)
        texture = Frame.from_array(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
        expected = render_outcome(render_reference, texture, case)
        got = render_outcome(render_camera_sequence, texture, case)
        if isinstance(expected, str):
            assert got == expected
            return
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.pixels.flags.c_contiguous
            assert np.array_equal(g.pixels, e.pixels)


class TestGroundTruth:
    def test_still(self):
        assert ground_truth_flow(MotionSpec("still"), (12, 7)) == (0.0, 0.0)

    def test_translate_uniform(self):
        motion = MotionSpec("translate", velocity=(3, -2))
        assert ground_truth_flow(motion, (0, 0)) == (3.0, -2.0)
        assert ground_truth_flow(motion, (55, 99)) == (3.0, -2.0)
        assert mean_ground_truth_flow(motion) == (3.0, -2.0)

    def test_quarter_turn_unit_point(self):
        motion = MotionSpec("rotate", omega=math.pi / 2, center=(100, 100))
        dx, dy = ground_truth_flow(motion, (101, 100))
        # (101, 100) maps to (100, 101): displacement (-1, +1)
        assert dx == pytest.approx(-1.0, abs=1e-9)
        assert dy == pytest.approx(1.0, abs=1e-9)

    def test_rotation_chord_length(self):
        omega = 0.3
        motion = MotionSpec("rotate", omega=omega, center=(50, 50))
        for r, angle in [(10, 0.1), (25, 2.0), (60, 4.5)]:
            point = (50 + r * math.cos(angle), 50 + r * math.sin(angle))
            dx, dy = ground_truth_flow(motion, point)
            assert math.hypot(dx, dy) == pytest.approx(2 * r * math.sin(omega / 2))

    def test_zoom_radial(self):
        motion = MotionSpec("zoom", rate=1.1, center=(10, 10))
        dx, dy = ground_truth_flow(motion, (20, 10))
        assert (dx, dy) == pytest.approx((1.0, 0.0))


class TestSequenceIo:
    def test_round_trip(self, tmp_path):
        tex = generate_texture(TextureSpec("blocks", 8, (128, 128)))
        frames = render_sequence(tex, MotionSpec("still"), 3, (64, 64))
        gt = [(0.0, 0.0)] * 3
        manifest = {"texture": "blocks", "seed": 8, "motion": "still", "n_frames": 3}
        save_sequence(tmp_path / "seq", frames, gt, manifest)
        back = load_sequence(tmp_path / "seq")
        assert len(back) == 3
        for a, b in zip(frames, back):
            assert np.array_equal(a.pixels, b.pixels)
        loaded = load_manifest(tmp_path / "seq")
        assert loaded["texture"] == "blocks"
        assert loaded["n_frames"] == "3"
        assert (tmp_path / "seq" / "frame_000001.pgm").exists()
        assert (tmp_path / "seq" / "ground_truth.csv").exists()
