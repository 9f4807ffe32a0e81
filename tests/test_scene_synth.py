import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcam import scene_synth
from flowcam.errors import CoverageError, FlowcamError, FrameSizeError, RangeError
from flowcam.feature_engine import detect_fast
from flowcam.pipeline import PARAMETER_SETS, synthesize_sequence
from flowcam.scene_synth import (
    _RENDER_BAND,
    MOTION_KINDS,
    MotionSpec,
    TextureSpec,
    _axis,
    _bilinear,
    _box_blur,
    _covers,
    _foliage,
    _sum_bounds,
    _wheel,
    generate_texture,
    load_sequence,
    mean_ground_truth_flow,
    render_camera_sequence,
    render_sequence,
    save_sequence,
)
from flowcam.sensor_frontend import Frame, write_pgm
from oracles import (
    box_blur_reference,
    foliage_reference,
    ground_truth_flow,
    render_reference,
    wheel_reference,
)


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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("size", [(64, 64), (65, 97), (1000, 300), (1776, 1776)],
                             ids=lambda size: f"{size[0]}x{size[1]}")
    def test_wheel_matches_reference(self, size, seed):
        # 1000x300 ends in a partial band; 1776 is set 1's rotate texture.
        w, h = size
        got = _wheel(np.random.default_rng(seed), w, h)
        assert got.flags.c_contiguous
        assert np.array_equal(got, wheel_reference(np.random.default_rng(seed), w, h))

    def test_noise_uses_full_range(self):
        tex = generate_texture(TextureSpec("noise", 1, (128, 128)))
        assert tex.pixels.min() < 8 and tex.pixels.max() > 247

    def test_foliage_holds_one_float_field(self):
        # The noise field, blurred in place through a few band buffers, and
        # then the uint8 texture; a padded copy of the field would put the
        # peak near 2x. The size keeps the band buffers (about 0.5 MB) small
        # against the 6.3 MB field.
        w, h = 1024, 768
        tracemalloc.start()
        try:
            _foliage(np.random.default_rng(0), w, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * w * h * 8

    def test_translate_hard_synthesis_holds_one_float_field(self):
        # Set 6's translate-hard texture (2248x2728 foliage, a 49 MB float64
        # field) dominates synthesis; its two 272x336 frames are small.
        tracemalloc.start()
        try:
            synthesize_sequence(PARAMETER_SETS[6], "translate-hard", 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * 2248 * 2728 * 8

    def test_undersized_rejected(self):
        with pytest.raises(FrameSizeError):
            TextureSpec("blocks", 0, (63, 128))

    def test_unknown_kind_rejected(self):
        with pytest.raises(RangeError):
            TextureSpec("marble", 0, (128, 128))

    def test_negative_seed_rejected(self):
        with pytest.raises(RangeError, match="seed must be non-negative, got -1"):
            TextureSpec("blocks", -1, (128, 128))


class TestBandedBlur:
    """`_box_blur` and `_foliage` against the blur through one padded copy.

    Band heights from one row, which carries the prefix rows over from a
    band shorter than the carry, to more rows than the texture has; most
    draws end in a partial band.
    """

    @settings(max_examples=60, deadline=None)
    @given(w=st.integers(64, 300), h=st.integers(64, 300), band_rows=st.integers(1, 320),
           seed=st.integers(0, 2**32 - 1))
    @example(w=64, h=64, band_rows=1, seed=0)
    @example(w=100, h=77, band_rows=10, seed=31)
    @example(w=300, h=64, band_rows=100, seed=0)
    def test_foliage_matches_reference(self, w, h, band_rows, seed):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scene_synth, "_RENDER_BAND", band_rows * w)
            got = _foliage(np.random.default_rng(seed), w, h)
        assert np.array_equal(got, foliage_reference(np.random.default_rng(seed), w, h))

    @settings(max_examples=60, deadline=None)
    @given(w=st.integers(64, 300), h=st.integers(64, 300), band_rows=st.integers(1, 320),
           radius=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    # a last band of three rows whose padded rows all lie below the image
    @example(w=64, h=67, band_rows=4, radius=4, seed=0)
    def test_box_blur_matches_reference_bits(self, w, h, band_rows, radius, seed):
        noise = np.random.default_rng(seed).normal(0.0, 1.0, size=(h, w))
        expected = noise.copy()
        box_blur_reference(expected, radius)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scene_synth, "_RENDER_BAND", band_rows * w)
            _box_blur(noise, radius)
        assert np.array_equal(noise.view(np.int64), expected.view(np.int64))


class TestMotionSpec:
    @pytest.mark.parametrize("kind, kwargs", [
        ("translate", {"velocity": (math.nan, 0.0)}),
        ("translate", {"velocity": (0.0, -math.inf)}),
        ("zoom", {"rate": math.nan}),
        ("zoom", {"rate": math.inf}),
        ("rotate", {"omega": math.inf}),
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
            tex, MotionSpec("rotate", omega=math.pi / 2), 3, (128, 128)
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
        out = np.empty((6, 7), dtype=np.uint8)
        _bilinear(tex, _axis(sx, 50), _axis(sy, 40), out)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_bilinear_rejects_nan_coordinate(self, axis):
        # The (1, 5) row and (4, 1) column terms of each axis of a rotated
        # band on a 30x20 texture; a NaN in the x row term or in the y
        # column term fails that axis's check.
        terms = {"x": (np.full((1, 5), 3.5), np.full((4, 1), 0.25)),
                 "y": (np.full((1, 5), 2.0), np.full((4, 1), 0.25))}
        terms[axis][axis == "y"][0, 0] = math.nan
        with pytest.raises(CoverageError, match="frame 7"):
            for (row, col), n in zip(terms.values(), (30, 20)):
                _covers(*_sum_bounds(row, col), n, 7)

    def test_strided_readout_matches_decimation(self):
        tex = generate_texture(TextureSpec("blocks", 6, (256, 256)))
        motion = MotionSpec("translate", velocity=(2, 0))
        full = render_camera_sequence(tex, motion, 3, (128, 128), fov=(128, 128))
        strided = render_camera_sequence(
            tex, motion, 3, (64, 64), fov=(128, 128), stride=2
        )
        for f, s in zip(full, strided):
            assert np.array_equal(f.pixels[::2, ::2], s.pixels)


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
        texture = Frame(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
        expected = render_outcome(render_reference, texture, case)
        got = render_outcome(render_camera_sequence, texture, case)
        if isinstance(expected, str):
            assert got == expected
            return
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.pixels.flags.c_contiguous
            assert np.array_equal(g.pixels, e.pixels)


FINITE = st.floats(-1e12, 1e12, allow_subnormal=True)
NEAR_AXIS = st.one_of(st.floats(-2, 40), st.sampled_from([math.nan, math.inf, -math.inf]))


def grid_terms(elements):
    """A `(1, w)` row term and an `(r, 1)` column term."""
    row = st.lists(elements, min_size=1, max_size=8).map(lambda v: np.array(v)[None, :])
    col = st.lists(elements, min_size=1, max_size=8).map(lambda v: np.array(v)[:, None])
    return st.tuples(row, col)


class TestRotationBounds:
    """A rotated frame's coverage is checked on the bounds of its terms."""

    @settings(max_examples=300, deadline=None)
    @given(terms=grid_terms(FINITE))
    # rounding ties: the sums land between adjacent doubles
    @example(terms=(np.array([[0.1, 0.7, 1e-17]]), np.array([[0.2], [-0.1], [3.0]])))
    def test_bounds_from_terms_equal_grid_min_and_max(self, terms):
        row, col = terms
        grid = row + col
        assert _sum_bounds(row, col) == (grid.min(), grid.max())

    @settings(max_examples=300, deadline=None)
    @given(terms=grid_terms(NEAR_AXIS), n=st.integers(2, 40))
    @example(terms=(np.array([[math.inf]]), np.array([[-math.inf]])), n=10)  # inf - inf
    def test_check_on_bounds_matches_check_on_grid(self, terms, n):
        row, col = terms
        with np.errstate(invalid="ignore"):
            grid = row + col
            inside = bool(grid.min() >= 0 and grid.max() <= n - 1)
            try:
                _covers(*_sum_bounds(row, col), n, 3)
                passed = True
            except CoverageError:
                passed = False
        assert passed == inside


# Windows of more than two render bands whose last band is partial.
BAND_VIEWPORT = (185, 185)
BAND_MOTIONS = [
    MotionSpec("translate", velocity=(0.75, -1.25)),
    MotionSpec("zoom", rate=1.05),
    MotionSpec("rotate", omega=0.3),
    MotionSpec("still"),
]


class TestBandedRender:
    """Frames rendered band by band against the full-grid reference."""

    def test_window_spans_bands(self):
        vw, vh = BAND_VIEWPORT
        assert vw * vh > 2 * _RENDER_BAND
        assert vh % (_RENDER_BAND // vw) != 0

    @pytest.mark.parametrize("stride", [1, 2, 4])
    @pytest.mark.parametrize("motion", BAND_MOTIONS, ids=lambda m: m.kind)
    def test_matches_full_grid_reference(self, motion, stride):
        vw, vh = BAND_VIEWPORT
        fov = (vw * stride + 3, vh * stride + 5)
        # Integer texture offsets, so frame 0 and the still frame take the
        # direct gather; the margin holds the rotated field of view.
        margin = int(math.hypot(*fov) - min(fov)) // 2 + 4
        size = (fov[1] + 2 * margin, fov[0] + 2 * margin)
        texture = Frame(np.random.default_rng(stride).integers(0, 256, size, dtype=np.uint8))
        case = (None, motion, 3, BAND_VIEWPORT, fov, (1, 2), stride)
        expected = render_outcome(render_reference, texture, case)
        got = render_outcome(render_camera_sequence, texture, case)
        assert len(got) == len(expected) == 3
        for g, e in zip(got, expected):
            assert g.pixels.flags.c_contiguous
            assert np.array_equal(g.pixels, e.pixels)

    def test_coverage_error_from_a_later_band(self):
        # The texture's rows end with the field of view's. Content moving up
        # half a pixel per frame puts frame 1's bottom row outside it, while
        # its first band, rows 0.5 to band - 0.5, stays inside.
        vw, vh = BAND_VIEWPORT
        assert _RENDER_BAND // vw - 0.5 <= vh - 1
        texture = Frame(np.random.default_rng(0).integers(0, 256, (vh, vw + 8), dtype=np.uint8))
        case = (None, MotionSpec("translate", velocity=(0.0, -0.5)), 3, BAND_VIEWPORT,
                (vw, vh), (0, 0), 1)
        expected = render_outcome(render_reference, texture, case)
        assert expected == "frame 1: motion samples the texture outside its bounds"
        assert render_outcome(render_camera_sequence, texture, case) == expected

    @pytest.mark.parametrize("kind, n_frames", [("rotate", 2), ("still", 1)])
    def test_peak_memory_is_frames_plus_a_few_bands(self, kind, n_frames):
        # Set 1's full-array window. Frame 0 of a rotation is the identity
        # map, so the rotated frame is frame 1. One full-frame float64 or
        # int64 temporary (12 MB) would break the bound.
        config = PARAMETER_SETS[1]
        viewport = (config.out_width, config.out_height)
        side = int(math.ceil(math.hypot(*viewport))) + 8
        texture = generate_texture(TextureSpec("wheel", 0, (side, side)))
        motion = MotionSpec(kind, omega=math.radians(2))
        tracemalloc.start()
        try:
            render_camera_sequence(texture, motion, n_frames, viewport)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        frame_bytes = viewport[0] * viewport[1]
        assert peak < n_frames * frame_bytes + 16 * 8 * _RENDER_BAND


class TestGroundTruth:
    def test_still(self):
        assert ground_truth_flow(MotionSpec("still"), (12, 7), (64, 64)) == (0.0, 0.0)

    def test_translate_uniform(self):
        motion = MotionSpec("translate", velocity=(3, -2))
        assert ground_truth_flow(motion, (0, 0), (64, 64)) == (3.0, -2.0)
        assert ground_truth_flow(motion, (55, 99), (64, 64)) == (3.0, -2.0)
        assert mean_ground_truth_flow(motion) == (3.0, -2.0)

    def test_quarter_turn_unit_point(self):
        motion = MotionSpec("rotate", omega=math.pi / 2)
        dx, dy = ground_truth_flow(motion, (101, 100), (201, 201))  # pivot (100, 100)
        # (101, 100) maps to (100, 101): displacement (-1, +1)
        assert dx == pytest.approx(-1.0, abs=1e-9)
        assert dy == pytest.approx(1.0, abs=1e-9)

    def test_rotation_chord_length(self):
        omega = 0.3
        motion = MotionSpec("rotate", omega=omega)
        for r, angle in [(10, 0.1), (25, 2.0), (60, 4.5)]:
            point = (50 + r * math.cos(angle), 50 + r * math.sin(angle))
            dx, dy = ground_truth_flow(motion, point, (101, 101))  # pivot (50, 50)
            assert math.hypot(dx, dy) == pytest.approx(2 * r * math.sin(omega / 2))

    def test_zoom_radial(self):
        motion = MotionSpec("zoom", rate=1.1)
        dx, dy = ground_truth_flow(motion, (20, 10), (21, 21))  # pivot (10, 10)
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
        lines = (tmp_path / "seq" / "manifest.txt").read_text().splitlines()
        assert "texture=blocks" in lines
        assert "n_frames=3" in lines
        assert (tmp_path / "seq" / "frame_000001.pgm").exists()
        assert (tmp_path / "seq" / "ground_truth.csv").exists()

    def test_frames_load_in_number_order(self, tmp_path):
        for n in (10, 2, 1):
            write_pgm(Frame(np.full((4, 4), n, dtype=np.uint8)), tmp_path / f"frame_{n}.pgm")
        assert [frame.pixels[0, 0] for frame in load_sequence(tmp_path)] == [1, 2, 10]

    def test_frame_name_without_a_number_rejected(self, tmp_path):
        for name in ("frame_1.pgm", "frame_1b.pgm"):
            write_pgm(Frame(np.zeros((4, 4), dtype=np.uint8)), tmp_path / name)
        with pytest.raises(FlowcamError, match=r"frame_1b\.pgm: .*frame_<digits>\.pgm"):
            load_sequence(tmp_path)

    def test_two_files_with_one_number_rejected(self, tmp_path):
        for name in ("frame_7.pgm", "frame_007.pgm"):
            write_pgm(Frame(np.zeros((4, 4), dtype=np.uint8)), tmp_path / name)
        with pytest.raises(FlowcamError, match=r"frame_007\.pgm and .*frame_7\.pgm .*frame 7"):
            load_sequence(tmp_path)
