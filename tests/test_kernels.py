"""Bit-equality oracles for the flat-index hot kernels.

Each reference is the straightforward formulation the kernel replaced: here
the int16 adjacent-pair compass filter, sliding-window arc strength on
circle-minus-centre differences, 2-D-index NMS and the lexsort tile budget;
in `oracles` reshape-sum binning, orientation moments and BRIEF sampling.
The production kernels must agree with them bit for bit on every input,
including the edge cases listed in the `@example` decorators and the
hand-made frames.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcam import feature_engine
from flowcam.errors import RangeError
from flowcam.feature_engine import (
    BORDER_MARGIN,
    ORIENTATION_BINS,
    PATCH_RADIUS,
    _ARC,
    _CIRCLE,
    _COMPASS,
    _COMPASS_BAND,
    _MOMENT_WEIGHTS,
    _RUN_ROWS,
    _SCORE_BLOCK,
    _compass_filter,
    _corner_patches,
    _nms,
    _run_extreme,
    compute_orientations,
    describe_batch,
    describe_corners,
    detect_fast,
    enforce_tile_budget,
    select_corners,
)
from flowcam.pipeline import PARAMETER_SETS, frontend_apply, synthesize_sequence
from flowcam.sensor_frontend import (
    Frame,
    SUBSAMPLE_ALIGN,
    SensorConfig,
    _bin_blocks,
    downscale_for_of,
)
from oracles import (
    DISC_DX,
    DISC_DY,
    bin_blocks_reference,
    corner_list,
    describe_reference,
    orientations_reference,
)

# ---------------------------------------------------------------------------
# Reference formulations
# ---------------------------------------------------------------------------


def arc_strength_reference(diffs):
    wrapped = np.concatenate([diffs, diffs[: _ARC - 1]], axis=0)
    windows = np.lib.stride_tricks.sliding_window_view(wrapped, _ARC, axis=0)
    return windows.min(axis=-1).max(axis=0)


def nms_reference(ay, ax, score, h, w):
    smap = np.zeros((h + 2, w + 2), dtype=np.int32)
    smap[ay + 1, ax + 1] = score
    py, px = ay + 1, ax + 1
    survive = np.ones(ay.size, dtype=bool)
    for dy, dx in ((-1, -1), (-1, 0), (-1, 1), (0, -1)):
        survive &= score > smap[py + dy, px + dx]
    for dy, dx in ((0, 1), (1, -1), (1, 0), (1, 1)):
        survive &= score >= smap[py + dy, px + dx]
    return survive


def tile_budget_reference(corners, frame_width, tile_budget):
    if not len(corners):
        return corners
    xs, ys, ss = corners.T
    tiles_x = (frame_width + 15) // 16
    tile_id = (ys // 16) * tiles_x + (xs // 16)
    order = np.lexsort((xs, ys, -ss, tile_id))
    sorted_tiles = tile_id[order]
    is_start = np.empty(order.size, dtype=bool)
    is_start[0] = True
    is_start[1:] = sorted_tiles[1:] != sorted_tiles[:-1]
    start_pos = np.maximum.accumulate(np.where(is_start, np.arange(order.size), 0))
    rank = np.arange(order.size) - start_pos
    kept = order[rank < tile_budget]
    return corners[kept[np.lexsort((xs[kept], ys[kept]))]]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def frame_from(seed, width, height, style):
    """Random, constant or blocky test frames of any size."""
    rng = np.random.default_rng(seed)
    if style == "zeros":
        pixels = np.zeros((height, width), dtype=np.uint8)
    elif style == "full":
        pixels = np.full((height, width), 255, dtype=np.uint8)
    elif style == "binary":
        pixels = (rng.integers(0, 2, size=(height, width)) * 255).astype(np.uint8)
    elif style == "blocks":
        pixels = np.full((height, width), int(rng.integers(0, 256)), dtype=np.uint8)
        for _ in range(max(1, width * height // 300)):
            x, y = rng.integers(0, width), rng.integers(0, height)
            bw, bh = rng.integers(2, 12, size=2)
            pixels[y : y + bh, x : x + bw] = rng.choice([0, 255, int(rng.integers(0, 256))])
    else:
        pixels = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
    return Frame(pixels)


STYLES = st.sampled_from(["random", "blocks", "binary", "zeros", "full"])


def margin_points(frame, rng, n):
    """Random in-margin points plus the four extreme margin positions."""
    lo = PATCH_RADIUS
    xs = rng.integers(lo, frame.width - lo, size=n)
    ys = rng.integers(lo, frame.height - lo, size=n)
    edge_x = [lo, frame.width - lo - 1, lo, frame.width - lo - 1]
    edge_y = [lo, lo, frame.height - lo - 1, frame.height - lo - 1]
    return np.r_[xs, edge_x].astype(np.int64), np.r_[ys, edge_y].astype(np.int64)


# ---------------------------------------------------------------------------
# Binning
# ---------------------------------------------------------------------------

class TestBinBlocks:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), factor=st.sampled_from([2, 4]),
           bw=st.integers(1, 40), bh=st.integers(1, 40), style=STYLES)
    @example(seed=0, factor=4, bw=3, bh=5, style="full")
    @example(seed=0, factor=2, bw=1, bh=1, style="zeros")
    def test_matches_reshape_sum(self, seed, factor, bw, bh, style):
        pixels = frame_from(seed, bw * factor, bh * factor, style).pixels
        np.testing.assert_array_equal(
            _bin_blocks(pixels, factor), bin_blocks_reference(pixels, factor)
        )

    @pytest.mark.parametrize("factor", [2, 4])
    def test_saturated_blocks(self, factor):
        pixels = np.full((8 * factor, 8 * factor), 255, dtype=np.uint8)
        pixels[:factor, :factor] = 254  # one block just below saturation
        out = _bin_blocks(pixels, factor)
        np.testing.assert_array_equal(out, bin_blocks_reference(pixels, factor))
        assert out[0, 0] == 254 and (out.ravel()[1:] == 255).all()

    @pytest.mark.parametrize("factor", [2, 4])
    def test_every_rounding_remainder(self, factor):
        # One block per block sum 0 .. factor^2 * 255: every remainder and
        # both sides of every half-way point.
        n = factor * factor
        sums = np.arange(n * 255 + 1)
        blocks = np.zeros((sums.size, n), dtype=np.uint8)
        for i in range(n):
            blocks[:, i] = np.clip(sums - 255 * i, 0, 255)
        pixels = (blocks.reshape(sums.size, factor, factor)
                  .transpose(1, 0, 2).reshape(factor, sums.size * factor))
        np.testing.assert_array_equal(
            _bin_blocks(pixels, factor), bin_blocks_reference(pixels, factor)
        )

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 90),
           height=st.integers(1, 90), style=STYLES)
    def test_non_aligned_frames_through_public_paths(self, seed, width, height, style):
        # Bin the largest window at (0, 0) that a config may ask for.
        frame = frame_from(seed, width, height, style)
        for factor in (2, 4):
            # Sides of 32 px or more in whole 32-px steps, smaller ones in
            # whole blocks.
            w, h = (d - d % (SUBSAMPLE_ALIGN if d >= SUBSAMPLE_ALIGN else factor)
                    for d in (width, height))
            if not (w and h):
                continue
            config = SensorConfig(out_width=w // factor, out_height=h // factor,
                                  frame_rate=60, brief_target=1, brief_max=1, tile_budget=2,
                                  max_displacement=1, subsample_factor=factor,
                                  subsample_mode="bin")
            ref = bin_blocks_reference(frame.pixels[:h, :w], factor)
            np.testing.assert_array_equal(frontend_apply(frame, config).pixels, ref)
        big = frame_from(seed, 641 + width, 481 + height, style)
        out, scale = downscale_for_of(big)
        even = big.pixels[: (big.height // 2) * 2, : (big.width // 2) * 2]
        assert scale == 2
        np.testing.assert_array_equal(out.pixels, bin_blocks_reference(even, 2))


# ---------------------------------------------------------------------------
# FAST: compass filter, arc strength and NMS
# ---------------------------------------------------------------------------

PIXEL = st.integers(0, 255)


def wrap(ring):
    """The 16 circle rows followed by rows 0-7 again, as `_run_extreme` reads them."""
    return np.concatenate([ring, ring[: _ARC - 1]], axis=0)


def run_strengths(centre, ring):
    """Bright and dark arc strengths of the (16, k) uint8 `ring` around the
    k `centre` pixels, from the two run extrema."""
    k = ring.shape[1]
    work = np.empty((_RUN_ROWS, k), dtype=np.uint8)
    brightest = _run_extreme(wrap(ring), np.minimum, np.maximum, work,
                             np.empty(k, dtype=np.uint8))
    darkest = _run_extreme(wrap(ring), np.maximum, np.minimum, work,
                           np.empty(k, dtype=np.uint8))
    return brightest.astype(np.int16) - centre, centre.astype(np.int16) - darkest


class TestArcStrength:
    """Run minima and maxima on the ring's bytes give the sliding-window arc
    strength of `ring - centre`, for both polarities."""

    # Each drawn column is a centre followed by its 16 circle pixels.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(PIXEL, min_size=17, max_size=17), min_size=1, max_size=12))
    @example([[0] + [255] * 16, [255] + [0] * 16, [0] + [255, 0] * 8,
              [255] + [0] * 8 + [255] * 8])
    @example([[0] + [255] * 9 + [0] * 7, [255] + [0] + [255] * 9 + [0] * 6])
    @example([[255] + [255] * 15 + [0]])
    def test_matches_sliding_window(self, columns):
        table = np.array(columns, dtype=np.uint8).T.copy()
        centre, ring = table[0], table[1:]
        diffs = ring.astype(np.int16) - centre
        bright, dark = run_strengths(centre, ring)
        np.testing.assert_array_equal(bright, arc_strength_reference(diffs))
        np.testing.assert_array_equal(dark, arc_strength_reference(-diffs))

    def test_every_run_position(self):
        # A 9-run of 255 starting at every circle position, the rest 0,
        # around a centre of 0; then the same ring inverted around 255.
        ring = np.zeros((16, 16), dtype=np.uint8)
        for start in range(16):
            ring[[(start + j) % 16 for j in range(_ARC)], start] = 255
        centre = np.zeros(16, dtype=np.uint8)
        bright, _ = run_strengths(centre, ring)
        np.testing.assert_array_equal(bright, np.full(16, 255))
        np.testing.assert_array_equal(bright, arc_strength_reference(ring.astype(np.int16)))
        _, dark = run_strengths(centre + 255, 255 - ring)
        np.testing.assert_array_equal(dark, np.full(16, 255))
        np.testing.assert_array_equal(dark, arc_strength_reference(ring.astype(np.int16)))


def adjacent_compass_reference(frame, threshold):
    """Whole-frame (h, w) mask of the pixels inside the border margin with
    two adjacent compass points both brighter than center+threshold, or
    both darker than center-threshold, in int16."""
    img = frame.pixels.astype(np.int16)
    h, w = img.shape
    m = BORDER_MARGIN
    center = img[m : h - m, m : w - m]
    points = [img[m + dy : h - m + dy, m + dx : w - m + dx]
              for dx, dy in (_CIRCLE[k] for k in _COMPASS)]
    mask = np.zeros((h, w), dtype=bool)
    inner = mask[m : h - m, m : w - m]
    for a, b in zip(points, points[1:] + points[:1]):
        inner |= (a > center + threshold) & (b > center + threshold)
        inner |= (a < center - threshold) & (b < center - threshold)
    return mask


def segment_test_reference(frame, threshold):
    """(h, w) mask of every pixel inside the border margin that passes the
    FAST-9 segment test, from the sliding-window arc strength."""
    img = frame.pixels.astype(np.int16)
    h, w = img.shape
    m = BORDER_MARGIN
    center = img[m : h - m, m : w - m]
    diffs = np.stack([img[m + dy : h - m + dy, m + dx : w - m + dx] - center
                      for dx, dy in _CIRCLE]).reshape(16, -1)
    score = np.maximum(arc_strength_reference(diffs), arc_strength_reference(-diffs)) - 1
    mask = np.zeros((h, w), dtype=bool)
    mask[m : h - m, m : w - m] = (score >= threshold).reshape(center.shape)
    return mask


class TestCompassFilter:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(32, 75),
           height=st.integers(32, 75), style=STYLES, threshold=st.integers(1, 255),
           band=st.integers(1, 6000))
    @example(seed=0, width=32, height=32, style="full", threshold=1, band=1)  # c + t > 255
    @example(seed=0, width=32, height=32, style="zeros", threshold=1, band=1)  # c - t < 0
    @example(seed=0, width=40, height=33, style="binary", threshold=254, band=100)
    @example(seed=1, width=75, height=75, style="binary", threshold=255, band=6000)
    @example(seed=2, width=61, height=47, style="blocks", threshold=1, band=200)
    def test_matches_adjacent_pair_reference(self, seed, width, height, style,
                                             threshold, band):
        # Bands from one row to the whole frame; every segment-test passer
        # must pass the filter.
        frame = frame_from(seed, width, height, style)
        with mock.patch.object(feature_engine, "_COMPASS_BAND", band):
            mask = _compass_filter(frame.pixels.ravel(), height, width, threshold)
        assert mask.shape == (height * width,) and mask.dtype == bool
        mask = mask.reshape(height, width)
        np.testing.assert_array_equal(mask, adjacent_compass_reference(frame, threshold))
        assert not (segment_test_reference(frame, threshold) & ~mask).any()


class TestNms:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(32, 61),
           height=st.integers(32, 61), density=st.floats(0.05, 1.0),
           top=st.integers(1, 254), dtype=st.sampled_from([np.int16, np.uint8]))
    @example(seed=1, width=33, height=32, density=1.0, top=1, dtype=np.int16)
    @example(seed=1, width=33, height=32, density=1.0, top=254, dtype=np.uint8)
    def test_matches_2d_reference(self, seed, width, height, density, top, dtype):
        # Candidates in row-major order inside the detection margin, scores
        # from a narrow range so ties between neighbours are common.
        rng = np.random.default_rng(seed)
        m = BORDER_MARGIN
        inner = np.zeros((height - 2 * m, width - 2 * m), dtype=bool)
        inner[rng.random(inner.shape) < density] = True
        cy, cx = np.nonzero(inner)
        ay, ax = cy + m, cx + m
        score = rng.integers(max(0, top - 3), top + 1, size=ay.size).astype(dtype)
        got = _nms(ay * width + ax, score, height, width)
        np.testing.assert_array_equal(got, nms_reference(ay, ax, score, height, width))


class TestDetectFast:
    """The whole detector against the old one on hand-made frames."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(32, 75),
           height=st.integers(32, 75), style=STYLES, threshold=st.integers(1, 255))
    @example(seed=0, width=33, height=47, style="binary", threshold=1)
    @example(seed=0, width=32, height=32, style="full", threshold=1)
    def test_matches_reference_formulation(self, seed, width, height, style, threshold):
        frame = frame_from(seed, width, height, style)
        got = corner_list(detect_fast(frame, threshold))
        assert got == detect_fast_reference(frame, threshold)

    def test_corners_at_margin(self):
        # Bright single pixels on the first and last detectable rows/columns.
        pixels = np.zeros((41, 47), dtype=np.uint8)
        m = BORDER_MARGIN
        for x, y in ((m, m), (47 - m - 1, m), (m, 41 - m - 1), (47 - m - 1, 41 - m - 1)):
            pixels[y, x] = 255
        frame = Frame(pixels)
        got = corner_list(detect_fast(frame, 10))
        assert got == detect_fast_reference(frame, 10)
        assert {(x, y) for x, y, _ in got} == {
            (m, m), (47 - m - 1, m), (m, 41 - m - 1), (47 - m - 1, 41 - m - 1)}
        assert all(s == 254 for _, _, s in got)


class TestTileBudget:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 200),
           height=st.integers(1, 200), n=st.integers(0, 300),
           top=st.integers(0, 255), spread=st.integers(0, 3),
           budget=st.integers(2, 8))
    @example(seed=0, width=16, height=16, n=40, top=255, spread=0, budget=2)
    @example(seed=1, width=200, height=3, n=300, top=0, spread=0, budget=8)
    def test_matches_lexsort_reference(self, seed, width, height, n, top, spread,
                                       budget):
        # Shuffled (not row-major) corners, repeated positions, and scores
        # from a narrow range so ties inside a tile are common.
        rng = np.random.default_rng(seed)
        xs = rng.integers(0, width, size=n)
        ys = rng.integers(0, height, size=n)
        ss = rng.integers(max(0, top - spread), top + 1, size=n)
        corners = np.column_stack((xs, ys, ss)).astype(np.int64).reshape(-1, 3)
        got = enforce_tile_budget(corners, width, height, budget)
        np.testing.assert_array_equal(got, tile_budget_reference(corners, width, budget))
        assert got.shape[1:] == (3,) and got.dtype == np.int64

    @pytest.mark.parametrize("row", [(-1, 0, 5), (0, -1, 5), (1 << 16, 0, 5),
                                     (0, 1 << 16, 5), (0, 0, -1), (0, 0, 256)])
    def test_fields_too_wide_for_the_key(self, row):
        corners = np.array([(3, 4, 9), row], dtype=np.int64)
        with pytest.raises(RangeError):
            enforce_tile_budget(corners, 64, 64, 2)

    @pytest.mark.parametrize("width", [16, 32752, 65536])
    def test_widest_fields_fit(self, width):
        # The tallest frame of this width, at most 65536 rows, whose tile
        # numbers stay below 2**23: 4096 tile rows of 1 or 2047 tiles, or
        # 2048 rows of 4096. Its far corners hold the widest fields.
        height = min(1 << 16, (1 << 23) // ((width + 15) // 16) * 16)
        x, y = width - 1, height - 1
        corners = np.array([(x, y, 255), (x, y - 1, 0), (x - 1, y, 0),
                            (0, 0, 255), (0, 0, 0), (15, 1, 0)], dtype=np.int64)
        got = enforce_tile_budget(corners, width, height, 2)
        np.testing.assert_array_equal(got, tile_budget_reference(corners, width, 2))

    @pytest.mark.parametrize("row", [(64, 2, 5), (70, 2, 5), (2, 80, 5), (2, 95, 5)])
    def test_corner_off_the_frame(self, row):
        # Unchecked, (70, 2) on a 64-wide frame would alias into tile
        # (row 1, col 0) and evict (2, 21).
        corners = np.array([(2, 21, 1), (3, 22, 2), row], dtype=np.int64)
        with pytest.raises(RangeError, match="inside the 64x80 frame"):
            enforce_tile_budget(corners, 64, 80, 2)

    def test_too_many_tiles(self):
        corners = np.array([(65535, 65535, 9)], dtype=np.int64)
        with pytest.raises(RangeError):
            enforce_tile_budget(corners, 1 << 30, 65536, 2)


def compass_reference(frame, threshold):
    """Whole-frame compass pre-filter: the mask of candidates inside the
    border margin."""
    img = frame.pixels.astype(np.int16)
    h, w = img.shape
    m = BORDER_MARGIN
    center = img[m : h - m, m : w - m]
    bright = np.zeros(center.shape, dtype=np.uint8)
    dark = np.zeros(center.shape, dtype=np.uint8)
    for k in _COMPASS:
        dx, dy = _CIRCLE[k]
        ring = img[m + dy : h - m + dy, m + dx : w - m + dx]
        bright += ring > center + threshold
        dark += ring < center - threshold
    return (bright >= 2) | (dark >= 2)


def detect_fast_reference(frame, threshold):
    """Detector as built from the whole-frame compass filter, 2-D gathers,
    the sliding-window arc strength and the padded 2-D NMS map."""
    img = frame.pixels.astype(np.int16)
    h, w = img.shape
    m = BORDER_MARGIN
    cy, cx = np.nonzero(compass_reference(frame, threshold))
    if cy.size == 0:
        return []
    ay, ax = cy + m, cx + m
    diffs = np.empty((16, ay.size), dtype=np.int16)
    base = img[ay, ax]
    for k, (dx, dy) in enumerate(_CIRCLE):
        diffs[k] = img[ay + dy, ax + dx] - base
    score = np.maximum(arc_strength_reference(diffs), arc_strength_reference(-diffs)) - 1
    keep = score >= threshold
    if not keep.any():
        return []
    ay, ax, score = ay[keep], ax[keep], score[keep].astype(np.int32)
    survive = nms_reference(ay, ax, score, h, w)
    ys, xs, ss = ay[survive], ax[survive], score[survive]
    order = np.lexsort((xs, ys))
    return [(int(xs[i]), int(ys[i]), int(ss[i])) for i in order]


# ---------------------------------------------------------------------------
# Orientation and BRIEF
# ---------------------------------------------------------------------------

class TestOrientationAndBrief:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(31, 80),
           height=st.integers(31, 80), style=STYLES, n=st.integers(0, 40))
    @example(seed=0, width=31, height=31, style="full", n=0)
    @example(seed=0, width=33, height=31, style="zeros", n=1)
    def test_match_2d_reference(self, seed, width, height, style, n):
        frame = frame_from(seed, width, height, style)
        rng = np.random.default_rng(seed)
        xs, ys = margin_points(frame, rng, n)
        patches = _corner_patches(frame, xs, ys)
        got = compute_orientations(patches)
        ref = orientations_reference(frame, xs, ys)
        assert got.tobytes() == ref.tobytes()
        np.testing.assert_array_equal(
            describe_batch(patches, got), describe_reference(frame, xs, ys, ref)
        )

    @pytest.mark.parametrize("width", [31, 32, 57, 64])
    def test_every_orientation_bin(self, width):
        # Each of the 30 bins, sampled at its center and just inside both of
        # its edges, at the four extreme margin positions.
        frame = frame_from(width, width, 45, "random")
        step = 2 * math.pi / ORIENTATION_BINS
        centers = np.arange(ORIENTATION_BINS) * step
        angles = np.concatenate([centers, centers + 0.499 * step,
                                 (centers - 0.499 * step) % (2 * math.pi)])
        xs, ys = margin_points(frame, np.random.default_rng(0), 0)
        ax = np.repeat(xs, angles.size)
        ay = np.repeat(ys, angles.size)
        aa = np.tile(angles, xs.size)
        np.testing.assert_array_equal(
            describe_batch(_corner_patches(frame, ax, ay), aa),
            describe_reference(frame, ax, ay, aa),
        )

    def test_extreme_moments(self):
        # Half-planes of 255 against 0 give the largest first moments.
        for side in range(4):
            pixels = np.zeros((31, 31), dtype=np.uint8)
            [pixels[:, 16:], pixels[:, :15], pixels[16:, :], pixels[:15, :]][side][...] = 255
            frame = Frame(pixels)
            xs, ys = np.array([15]), np.array([15])
            got = compute_orientations(_corner_patches(frame, xs, ys))
            assert got.tobytes() == orientations_reference(frame, xs, ys).tobytes()

    def test_moment_weights_exact_in_float32(self):
        # The moments are exact in float32 only while every partial sum stays
        # below 2**24; a wider patch radius would break that.
        assert (np.abs(_MOMENT_WEIGHTS).sum(axis=0) * 255 < 2**24).all()
        side = 2 * PATCH_RADIUS + 1
        dx, dy = np.zeros((side, side)), np.zeros((side, side))
        dx[DISC_DY + PATCH_RADIUS, DISC_DX + PATCH_RADIUS] = DISC_DX
        dy[DISC_DY + PATCH_RADIUS, DISC_DX + PATCH_RADIUS] = DISC_DY
        np.testing.assert_array_equal(_MOMENT_WEIGHTS, np.stack([dx.ravel(), dy.ravel()], 1))
        assert not np.signbit(_MOMENT_WEIGHTS[_MOMENT_WEIGHTS == 0]).any()

    def test_zero_and_half_plane_moments(self):
        # A zero patch has +0.0 moments, so its angle is +0.0, not -0.0; each
        # half-plane gives one exact axis angle.
        expected = [0.0, math.pi, math.pi / 2, -math.pi / 2 + 2 * math.pi]
        for side in range(-1, 4):
            pixels = np.zeros((31, 31), dtype=np.uint8)
            if side >= 0:
                [pixels[:, 16:], pixels[:, :15], pixels[16:, :], pixels[:15, :]][side][...] = 255
            frame = Frame(pixels)
            xs, ys = np.array([15]), np.array([15])
            patches = _corner_patches(frame, xs, ys)
            moments = patches @ _MOMENT_WEIGHTS
            got = compute_orientations(patches)
            assert got.tobytes() == orientations_reference(frame, xs, ys).tobytes()
            if side < 0:
                assert not np.signbit(moments).any()
                assert got.tobytes() == np.array([0.0]).tobytes()
            else:
                assert not np.signbit(moments[moments == 0]).any()
                assert got[0] == expected[side]

    def test_no_corners(self):
        frame = frame_from(0, 31, 31, "random")
        features = describe_corners(frame, np.empty((0, 3), dtype=np.int64))
        assert len(features) == 0
        assert features.desc.shape == (0, 32) and features.desc.dtype == np.uint8
        assert features.orientations.shape == (0,)
        assert features.orientations.dtype == np.float64


# (set, scenario, frame, settled threshold) of the three benchmark workloads
# on seed 0; the set-1 frame occupies all 30 orientation bins.
WORKLOAD_FRAMES = [(1, "still", 1, 113), (3, "rotate", 1, 2), (6, "translate-hard", 1, 26)]


@pytest.mark.parametrize("threshold", [20, 113])
def test_full_frame_detection_matches_reference(threshold):
    # A set-1 OF frame (562x682) has more compass candidates than one score
    # block at both the controller's first threshold and its settled one,
    # and its compass filter runs in several row bands.
    frames, _ = synthesize_sequence(PARAMETER_SETS[1], "still", 2, seed=0)
    frame, _ = downscale_for_of(frontend_apply(frames[1], PARAMETER_SETS[1]))
    assert (frame.width, frame.height) == (562, 682)
    assert adjacent_compass_reference(frame, threshold).sum() > _SCORE_BLOCK
    assert frame.width * (frame.height - 2 * BORDER_MARGIN) > 2 * _COMPASS_BAND
    assert corner_list(detect_fast(frame, threshold)) == detect_fast_reference(frame, threshold)


@pytest.mark.parametrize("set_id, scenario, index, threshold", WORKLOAD_FRAMES)
def test_workload_frames_match_references(set_id, scenario, index, threshold):
    config = PARAMETER_SETS[set_id]
    frames, _ = synthesize_sequence(config, scenario, index + 1, seed=0)
    frame, _ = downscale_for_of(frontend_apply(frames[index], config))
    assert corner_list(detect_fast(frame, threshold)) == detect_fast_reference(frame, threshold)
    corners = select_corners(frame, threshold, config.tile_budget, config.brief_max)
    xs, ys = corners[:, 0], corners[:, 1]
    features = describe_corners(frame, corners)
    ref = orientations_reference(frame, xs, ys)
    assert features.orientations.tobytes() == ref.tobytes()
    assert features.desc.tobytes() == describe_reference(frame, xs, ys, ref).tobytes()
    bins = np.floor(ref / (2 * math.pi / ORIENTATION_BINS) + 0.5).astype(np.int64)
    occupied = np.unique(bins % ORIENTATION_BINS).size
    assert len(features) > 150
    if set_id == 1:
        assert occupied == ORIENTATION_BINS


def peak_bytes(fn, *args):
    """tracemalloc peak of `fn(*args)`, after one untraced call."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_full_frame_detection_under_2_mb():
    # Set 1's 562x682 OF frame at the controller's first threshold: about
    # 72 000 compass candidates. Detection in int16 (an int16 ring buffer,
    # score map and filter bands) peaked at 2.45 MB.
    frames, _ = synthesize_sequence(PARAMETER_SETS[1], "still", 2, seed=0)
    frame, _ = downscale_for_of(frontend_apply(frames[1], PARAMETER_SETS[1]))
    assert peak_bytes(detect_fast, frame, 20) < 2.0e6


def test_full_array_binning_under_0_8_mb():
    # The 1124x1364 array binned to 562x682 (a 383 KB result). Summing whole
    # strided planes into a whole-frame uint16 sum peaked at 1.15 MB, and a
    # whole-frame row pass makes a 1.5 MB temporary.
    frames, _ = synthesize_sequence(PARAMETER_SETS[1], "still", 1, seed=0)
    frame = frontend_apply(frames[0], PARAMETER_SETS[1])
    assert (frame.width, frame.height) == (1124, 1364)
    assert peak_bytes(downscale_for_of, frame) < 0.8e6
