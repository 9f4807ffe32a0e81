"""Bit-equality oracles for the flat-index hot kernels.

Each reference below is the straightforward formulation the kernel replaced
(reshape-sum binning, sliding-window arc strength, 2-D-index NMS,
orientation moments and BRIEF sampling). The production kernels must agree
with them bit for bit on every input, including the edge cases listed in
the `@example` decorators and the hand-made frames.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcam.feature_engine import (
    BORDER_MARGIN,
    ORIENTATION_BINS,
    PATCH_RADIUS,
    _ARC,
    _CIRCLE,
    _COMPASS,
    _DISC_DX,
    _DISC_DY,
    _ROTATED,
    _arc_strength,
    _nms,
    compute_orientations,
    describe_batch,
    detect_fast,
)
from flowcam.sensor_frontend import Frame, _bin_blocks, downscale_for_of, subsample
from oracles import corner_list

# ---------------------------------------------------------------------------
# Reference formulations
# ---------------------------------------------------------------------------


def bin_blocks_reference(pixels, factor):
    h, w = pixels.shape
    blocks = pixels.reshape(h // factor, factor, w // factor, factor)
    sums = blocks.sum(axis=(1, 3), dtype=np.uint32)
    return ((sums * 2 + factor * factor) // (2 * factor * factor)).astype(np.uint8)


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


def orientations_reference(frame, xs, ys):
    vals = frame.pixels[ys[:, None] + _DISC_DY, xs[:, None] + _DISC_DX].astype(np.int64)
    m10 = vals @ _DISC_DX
    m01 = vals @ _DISC_DY
    angles = np.arctan2(m01.astype(np.float64), m10.astype(np.float64))
    angles[angles < 0] += 2 * math.pi
    angles[angles >= 2 * math.pi] = 0.0
    return angles


def describe_reference(frame, xs, ys, orientations):
    step = 2 * math.pi / ORIENTATION_BINS
    bins = np.floor(orientations / step + 0.5).astype(np.int64) % ORIENTATION_BINS
    tables = _ROTATED[bins]
    img = frame.pixels
    px = xs[:, None] + tables[:, :, 0]
    py = ys[:, None] + tables[:, :, 1]
    qx = xs[:, None] + tables[:, :, 2]
    qy = ys[:, None] + tables[:, :, 3]
    bits = img[py, px] < img[qy, qx]
    return np.packbits(bits, axis=1, bitorder="little")


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
    return Frame.from_array(pixels)


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
        frame = frame_from(seed, width, height, style)
        for factor in (2, 4):
            if width < factor or height < factor:
                continue
            out = subsample(frame, factor, "bin").pixels
            h, w = out.shape
            ref = bin_blocks_reference(frame.pixels[: h * factor, : w * factor], factor)
            np.testing.assert_array_equal(out, ref)
        big = frame_from(seed, 641 + width, 481 + height, style)
        out, scale = downscale_for_of(big)
        even = big.pixels[: (big.height // 2) * 2, : (big.width // 2) * 2]
        assert scale == 2
        np.testing.assert_array_equal(out.pixels, bin_blocks_reference(even, 2))


# ---------------------------------------------------------------------------
# FAST: arc strength and NMS
# ---------------------------------------------------------------------------

DIFF = st.integers(-255, 255)


class TestArcStrength:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(DIFF, min_size=16, max_size=16), min_size=1, max_size=12))
    @example([[255] * 16, [-255] * 16, [255, -255] * 8, [-255] * 8 + [255] * 8])
    @example([[255] * 9 + [-255] * 7, [-255] + [255] * 9 + [-255] * 6])
    @example([[0] * 15 + [-255]])
    def test_matches_sliding_window(self, columns):
        diffs = np.array(columns, dtype=np.int16).T.copy()
        for d in (diffs, -diffs):
            np.testing.assert_array_equal(_arc_strength(d), arc_strength_reference(d))

    def test_every_run_position(self):
        # A 9-run of +255 starting at every circle position, the rest -255.
        diffs = np.full((16, 16), -255, dtype=np.int16)
        for start in range(16):
            diffs[[(start + j) % 16 for j in range(_ARC)], start] = 255
        np.testing.assert_array_equal(_arc_strength(diffs), np.full(16, 255))
        np.testing.assert_array_equal(_arc_strength(diffs), arc_strength_reference(diffs))


class TestNms:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(32, 61),
           height=st.integers(32, 61), density=st.floats(0.05, 1.0),
           top=st.integers(1, 254))
    @example(seed=1, width=33, height=32, density=1.0, top=1)
    def test_matches_2d_reference(self, seed, width, height, density, top):
        # Candidates in row-major order inside the detection margin, scores
        # from a narrow range so ties between neighbours are common.
        rng = np.random.default_rng(seed)
        m = BORDER_MARGIN
        inner = np.zeros((height - 2 * m, width - 2 * m), dtype=bool)
        inner[rng.random(inner.shape) < density] = True
        cy, cx = np.nonzero(inner)
        ay, ax = cy + m, cx + m
        score = rng.integers(max(0, top - 3), top + 1, size=ay.size).astype(np.int16)
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
        frame = Frame.from_array(pixels)
        got = corner_list(detect_fast(frame, 10))
        assert got == detect_fast_reference(frame, 10)
        assert {(x, y) for x, y, _ in got} == {
            (m, m), (47 - m - 1, m), (m, 41 - m - 1), (47 - m - 1, 41 - m - 1)}
        assert all(s == 254 for _, _, s in got)


def detect_fast_reference(frame, threshold):
    """Detector as built from 2-D gathers, the sliding-window arc strength
    and the padded 2-D NMS map."""
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
    cy, cx = np.nonzero((bright >= 2) | (dark >= 2))
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
        got = compute_orientations(frame, xs, ys)
        ref = orientations_reference(frame, xs, ys)
        assert got.tobytes() == ref.tobytes()
        np.testing.assert_array_equal(
            describe_batch(frame, xs, ys, got), describe_reference(frame, xs, ys, ref)
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
            describe_batch(frame, ax, ay, aa), describe_reference(frame, ax, ay, aa)
        )

    def test_extreme_moments(self):
        # Half-planes of 255 against 0 give the largest first moments.
        for side in range(4):
            pixels = np.zeros((31, 31), dtype=np.uint8)
            [pixels[:, 16:], pixels[:, :15], pixels[16:, :], pixels[:15, :]][side][...] = 255
            frame = Frame.from_array(pixels)
            xs, ys = np.array([15]), np.array([15])
            got = compute_orientations(frame, xs, ys)
            assert got.tobytes() == orientations_reference(frame, xs, ys).tobytes()
