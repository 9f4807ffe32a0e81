import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcam import feature_engine
from flowcam.errors import FrameSizeError, MarginError, RangeError
from flowcam.feature_engine import (
    BORDER_MARGIN,
    ORIENTATION_BINS,
    PAIR_TABLE,
    cap_global,
    compute_orientations,
    describe_batch,
    describe_corners,
    detect_fast,
    enforce_tile_budget,
    select_corners,
    update_threshold,
)
from flowcam.pipeline import PARAMETER_SETS, frontend_apply, synthesize_sequence
from flowcam.sensor_frontend import Frame, downscale_for_of
from oracles import (
    compute_orientation,
    corner_array,
    corner_list,
    describe_brief,
    describe_per_corner,
    describe_reference,
    extract_features,
    orientations_reference,
    patch_frame,
)

CIRCLE = [
    (0, -3), (1, -3), (2, -2), (3, -1), (3, 0), (3, 1), (2, 2), (1, 3),
    (0, 3), (-1, 3), (-2, 2), (-3, 1), (-3, 0), (-3, -1), (-2, -2), (-1, -3),
]


def oracle_fast(frame, threshold):
    """Per-pixel reference segment test, independent of the vectorized path."""
    img = frame.pixels.astype(int)
    h, w = img.shape
    scored = {}
    for y in range(BORDER_MARGIN, h - BORDER_MARGIN):
        for x in range(BORDER_MARGIN, w - BORDER_MARGIN):
            diffs = [img[y + dy, x + dx] - img[y, x] for dx, dy in CIRCLE]
            best = 0
            for start in range(16):
                run_min = min(diffs[(start + j) % 16] for j in range(9))
                run_max = max(diffs[(start + j) % 16] for j in range(9))
                best = max(best, run_min, -run_max)
            score = best - 1
            if score >= threshold:
                scored[(x, y)] = score
    corners = []
    for (x, y), s in scored.items():
        ok = True
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dx == dy == 0:
                    continue
                other = scored.get((x + dx, y + dy))
                if other is None:
                    continue
                earlier = (dy, dx) < (0, 0)
                if earlier and not s > other:
                    ok = False
                if not earlier and not s >= other:
                    ok = False
        if ok:
            corners.append((x, y, s))
    corners.sort(key=lambda c: (c[1], c[0]))
    return corners


def textured_frame(width=64, height=64, seed=0):
    rng = np.random.default_rng(seed)
    pixels = np.full((height, width), 40, dtype=np.uint8)
    for _ in range(14):
        x, y = rng.integers(4, width - 16), rng.integers(4, height - 16)
        w, h = rng.integers(6, 14, size=2)
        pixels[y : y + h, x : x + w] = rng.integers(0, 256)
    return Frame(pixels)


class TestDetectFast:
    def test_constant_frame_has_no_corners(self):
        frame = Frame(np.full((64, 64), 99, dtype=np.uint8))
        assert corner_list(detect_fast(frame, 10)) == []

    def test_threshold_255_is_unattainable(self):
        frame = textured_frame(seed=1)
        assert corner_list(detect_fast(frame, 255)) == []

    def test_square_corners_detected(self):
        # A 30x30 bright square with gentle radial shading; a perfectly flat
        # square ties the max-threshold score along the edges, which leaves
        # suppression nothing to rank corners by.
        yy, xx = np.mgrid[0:64, 0:64]
        ring = np.maximum(abs(xx - 31.5), abs(yy - 31.5))
        pixels = np.full((64, 64), 30.0)
        inside = (xx >= 17) & (xx < 47) & (yy >= 17) & (yy < 47)
        pixels[inside] = 200 - 2 * ring[inside]
        frame = Frame(pixels.astype(np.uint8))
        corners = corner_list(detect_fast(frame, 20))
        assert corners == oracle_fast(frame, 20)
        geometric = [(17, 17), (46, 17), (17, 46), (46, 46)]
        assert len(corners) == 4
        for gx, gy in geometric:
            assert any(abs(x - gx) <= 1 and abs(y - gy) <= 1 for x, y, _ in corners)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("threshold", [5, 20, 60])
    def test_matches_reference_oracle(self, seed, threshold):
        frame = textured_frame(seed=seed)
        assert corner_list(detect_fast(frame, threshold)) == oracle_fast(frame, threshold)

    def test_count_monotone_in_threshold(self):
        frame = textured_frame(seed=4)
        counts = [len(detect_fast(frame, t)) for t in (1, 5, 10, 20, 40, 80, 160)]
        assert counts == sorted(counts, reverse=True)

    def test_translation_equivariance(self):
        # Noise keeps corner scores distinct; flat edges would tie scores in
        # long chains whose suppression survivor depends on where the margin
        # cuts the chain.
        rng = np.random.default_rng(7)
        frame = Frame(rng.integers(0, 256, size=(96, 96), dtype=np.uint8))
        a, b = 5, 3
        shifted = np.full((96, 96), 40, dtype=np.uint8)
        shifted[b:, a:] = frame.pixels[: 96 - b, : 96 - a]
        margin = BORDER_MARGIN
        lo_x, lo_y = margin + a + 2, margin + b + 2
        hi = 96 - margin - 2
        base = {
            (x + a, y + b, s)
            for x, y, s in detect_fast(frame, 15).tolist()
            if lo_x <= x + a < hi and lo_y <= y + b < hi
        }
        moved = {
            (x, y, s)
            for x, y, s in detect_fast(Frame(shifted), 15).tolist()
            if lo_x <= x < hi and lo_y <= y < hi
        }
        assert base and base == moved

    def test_small_frame_rejected(self):
        with pytest.raises(FrameSizeError):
            detect_fast(Frame(np.zeros((31, 40), dtype=np.uint8)), 10)

    def test_bad_threshold_rejected(self):
        frame = textured_frame()
        with pytest.raises(RangeError):
            detect_fast(frame, 0)
        with pytest.raises(RangeError):
            detect_fast(frame, 256)


class TestTileBudget:
    def test_nine_in_one_tile_budget_eight(self):
        corners = corner_array([(x, 2, 10 + x) for x in range(9)])  # all in tile (0, 0)
        kept = corner_list(enforce_tile_budget(corners, 64, 64, 8))
        assert len(kept) == 8
        assert (0, 2, 10) not in kept  # lowest score dropped

    def test_spread_corners_untouched(self):
        corners = [(16 * i + 3, 16 * i + 5, 7) for i in range(4)]
        assert corner_list(enforce_tile_budget(corner_array(corners), 96, 96, 2)) == corners

    def test_equal_scores_keep_smallest_row_major(self):
        corners = corner_array([(4, 1, 9), (9, 1, 9), (2, 3, 9), (7, 5, 9), (1, 8, 9)])
        kept = corner_list(enforce_tile_budget(corners, 64, 64, 2))
        assert kept == [(4, 1, 9), (9, 1, 9)]

    def test_output_order_row_major(self):
        corners = corner_array([(3, 1, 5), (20, 1, 50), (5, 2, 40), (21, 2, 8), (6, 18, 3)])
        kept = corner_list(enforce_tile_budget(corners, 64, 64, 2))
        assert kept == sorted(kept, key=lambda c: (c[1], c[0]))

    def test_never_exceeds_budget_per_tile(self):
        rng = np.random.default_rng(11)
        corners = sorted(
            {(int(x), int(y)) for x, y in rng.integers(0, 64, size=(200, 2))},
            key=lambda p: (p[1], p[0]),
        )
        corners = corner_array([(x, y, int(rng.integers(1, 200))) for x, y in corners])
        for budget in (2, 5, 8):
            kept = corner_list(enforce_tile_budget(corners, 64, 64, budget))
            tiles = {}
            for x, y, _ in kept:
                tiles[(x // 16, y // 16)] = tiles.get((x // 16, y // 16), 0) + 1
            assert all(n <= budget for n in tiles.values())


class TestGlobalCap:
    def test_cap_keeps_first_in_row_major(self):
        corners = [(x % 50, x // 50, 5) for x in range(2500)]
        kept = corner_list(cap_global(corner_array(corners), 2048))
        assert kept == corners[:2048]

    def test_under_cap_untouched(self):
        corners = [(x, 0, 1) for x in range(100)]
        assert corner_list(cap_global(corner_array(corners), 512)) == corners

    def test_bottom_rows_starved(self):
        top = [(x, 10, 3) for x in range(40)]
        bottom = [(x, 600, 3) for x in range(25)]
        kept = corner_list(cap_global(corner_array(top + bottom), len(top)))
        assert kept == top

    @pytest.mark.parametrize("brief_max", [-1, 0, 2049])
    def test_cap_out_of_range_rejected(self, brief_max):
        corners = corner_array([(x, 0, 1) for x in range(100)])
        with pytest.raises(RangeError, match=rf"brief_max must be in \[1, 2048\], "
                                             rf"got {brief_max}$"):
            cap_global(corners, brief_max)


class TestOrientation:
    def oracle(self, frame, x, y):
        m10 = m01 = 0
        for dy in range(-15, 16):
            for dx in range(-15, 16):
                if dx * dx + dy * dy <= 225:
                    v = int(frame.pixels[y + dy, x + dx])
                    m10 += dx * v
                    m01 += dy * v
        angle = math.atan2(m01, m10)
        return angle + 2 * math.pi if angle < 0 else angle

    def test_constant_patch_is_zero(self):
        frame = Frame(np.full((40, 40), 70, dtype=np.uint8))
        assert compute_orientation(frame, (20, 20)) == 0.0

    def test_bright_positive_x_side(self):
        pixels = np.full((40, 40), 10, dtype=np.uint8)
        pixels[:, 21:] = 200
        frame = Frame(pixels)
        assert abs(compute_orientation(frame, (20, 20))) < 1e-6

    def test_matches_bruteforce_oracle(self):
        frame = textured_frame(seed=3)
        for x, y in [(20, 20), (31, 17), (16, 40), (45, 45)]:
            assert compute_orientation(frame, (x, y)) == self.oracle(frame, x, y)

    def test_rotating_patch_rotates_orientation(self):
        rng = np.random.default_rng(5)
        patch = rng.integers(0, 256, size=(31, 31), dtype=np.uint8)
        frame = Frame(patch)
        rotated = Frame(np.rot90(patch, k=-1).copy())
        o1 = compute_orientation(frame, (15, 15))
        o2 = compute_orientation(rotated, (15, 15))
        assert ((o2 - o1) % (2 * math.pi)) == pytest.approx(math.pi / 2, abs=1e-9)

    def test_margin_enforced(self):
        frame = textured_frame()
        with pytest.raises(MarginError):
            compute_orientation(frame, (10, 20))


def _distinct_pair_patch(seed=8):
    """Patch whose sampled pairs at orientation 0 never compare equal."""
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(40, 40), dtype=np.uint8)
    cx = cy = 20
    for _ in range(100):
        clashes = [
            (px, py, qx, qy)
            for px, py, qx, qy in PAIR_TABLE
            if pixels[cy + py, cx + px] == pixels[cy + qy, cx + qx]
        ]
        if not clashes:
            return Frame(pixels)
        for px, py, qx, qy in clashes:
            pixels[cy + qy, cx + qx] = (int(pixels[cy + qy, cx + qx]) + 37) % 256
    raise AssertionError("could not build a clash-free patch")


class TestDescriptor:
    def test_deterministic(self):
        frame = textured_frame(seed=6)
        d1 = describe_brief(frame, (25, 25), 1.234)
        d2 = describe_brief(frame, (25, 25), 1.234)
        assert d1 == d2
        assert len(d1) == 32

    def test_inverted_patch_gives_complement(self):
        frame = _distinct_pair_patch()
        inverted = Frame(255 - frame.pixels)
        d = describe_brief(frame, (20, 20), 0.0)
        d_inv = describe_brief(inverted, (20, 20), 0.0)
        assert bytes(a ^ b for a, b in zip(d, d_inv)) == b"\xff" * 32

    def test_one_quantization_step_rotation_stays_close(self):
        # Bright square rotated by exactly one 12-degree bin about the corner,
        # descriptor orientation advanced one bin. The distance is frozen from
        # a reference run and must stay at or below 32 differing bits.
        pixels = np.full((64, 64), 30, dtype=np.uint8)
        pixels[10:32, 10:32] = 220
        frame = Frame(pixels)
        cx, cy = 31, 31
        step = 2 * math.pi / 30
        rot = np.full((64, 64), 30, dtype=np.float64)
        c, s = math.cos(-step), math.sin(-step)
        for y in range(16, 47):
            for x in range(16, 47):
                sx = cx + c * (x - cx) - s * (y - cy)
                sy = cy + s * (x - cx) + c * (y - cy)
                x0, y0 = int(math.floor(sx)), int(math.floor(sy))
                fx, fy = sx - x0, sy - y0
                v = (
                    pixels[y0, x0] * (1 - fx) * (1 - fy)
                    + pixels[y0, x0 + 1] * fx * (1 - fy)
                    + pixels[y0 + 1, x0] * (1 - fx) * fy
                    + pixels[y0 + 1, x0 + 1] * fx * fy
                )
                rot[y, x] = v
        rotated = Frame(np.floor(rot + 0.5).astype(np.uint8))
        d0 = describe_brief(frame, (cx, cy), 0.0)
        d1 = describe_brief(rotated, (cx, cy), step)
        distance = sum((a ^ b).bit_count() for a, b in zip(d0, d1))
        assert distance <= 32
        assert distance == 9  # frozen from the reference run

    def test_margin_enforced(self):
        with pytest.raises(MarginError):
            describe_brief(textured_frame(), (20, 60), 0.0)


class TestDescribeMargin:
    # On a 64x80 frame a corner's 31x31 patch fits for 15 <= x <= 48 (w - 16)
    # and 15 <= y <= 64 (h - 16).
    FRAME = dict(width=64, height=80, seed=2)

    @pytest.mark.parametrize("x, y", [(15, 40), (48, 40), (32, 15), (32, 64),
                                      (15, 15), (48, 64)])
    def test_exact_edges_are_described(self, x, y):
        frame = textured_frame(**self.FRAME)
        corners = corner_array([(x, y, 9)])
        assert list(describe_corners(frame, corners)) == describe_per_corner(frame, corners)

    @pytest.mark.parametrize("x, y", [(14, 40), (49, 40), (32, 14), (32, 65),
                                      (3, 40), (60, 40), (32, -1), (-1, 32)])
    def test_corner_past_an_edge_names_it(self, x, y):
        frame = textured_frame(**self.FRAME)
        # A valid corner first and a later offender: the message names (x, y).
        corners = corner_array([(32, 40, 9), (x, y, 9), (0, 0, 9)])
        with pytest.raises(MarginError, match=rf"^corner \({x}, {y}\) closer than 15 px "
                                              r"to the border of a 64x80 frame$"):
            describe_corners(frame, corners)


class TestFeatureSet:
    @given(seed=st.integers(0, 2**32 - 1), threshold=st.integers(1, 80),
           budget=st.integers(2, 8), cap=st.integers(1, 2048))
    @example(seed=0, threshold=255, budget=2, cap=1)  # no corners at all
    @settings(max_examples=60, deadline=None)
    def test_records_match_per_corner_oracles(self, seed, threshold, budget, cap):
        frame = textured_frame(width=96, height=80, seed=seed)
        corners = select_corners(frame, threshold, budget, cap)
        features = describe_corners(frame, corners)
        assert len(features) == len(corners)
        assert features.desc.shape == (len(corners), 32)
        assert features.desc.dtype == np.uint8 and features.desc.flags.c_contiguous
        assert list(features) == describe_per_corner(frame, corners)

    def test_fortran_ordered_input_is_stored_row_major(self):
        pixels = textured_frame(width=96, height=80, seed=7).pixels
        fortran = Frame(np.asfortranarray(pixels))
        copy = Frame(pixels.copy())
        assert fortran.pixels.flags.c_contiguous
        assert Frame(pixels).pixels is pixels  # row-major: no copy
        corners = detect_fast(fortran, 20)
        assert len(corners) > 0
        assert np.array_equal(corners, detect_fast(copy, 20))
        assert list(describe_corners(fortran, corners)) == list(describe_corners(copy, corners))


@st.composite
def patch_blocks(draw):
    """An (n, 961) uint8 patch block and per-row orientations.

    Pixels are drawn from a few levels or all 256, so that moments tie and
    pair comparisons meet equal pixels; orientations fall in a few bins,
    often on a bin's edge, so that a bin holds many rows.
    """
    n = draw(st.integers(0, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([2, 3, 256]))
    patches = (rng.integers(0, levels, size=(n, 961)) * (255 // (levels - 1))).astype(np.uint8)
    bins = rng.integers(0, draw(st.integers(1, ORIENTATION_BINS)), size=n)
    offsets = rng.choice([0.0, 0.5, -0.5, 0.25], size=n)
    orientations = (bins + offsets) * (2 * math.pi / ORIENTATION_BINS) % (2 * math.pi)
    return patches, orientations


class TestBlockedDescription:
    """Orientation in row blocks and description from the unsorted block
    give the bits of the 2-D-index references, read from the same patches
    laid out as a frame."""

    @given(block=st.integers(1, 7), case=patch_blocks())
    @example(block=1, case=(np.zeros((0, 961), dtype=np.uint8), np.empty(0)))
    @settings(max_examples=60, deadline=None)
    def test_orientations_match_whole_block_product(self, block, case):
        patches, _ = case
        with mock.patch.object(feature_engine, "_ORIENT_BLOCK", block):
            got = compute_orientations(patches)
        expected = orientations_reference(*patch_frame(patches))
        assert got.dtype == np.float64
        assert np.array_equal(got, expected)

    @given(case=patch_blocks())
    @settings(max_examples=60, deadline=None)
    def test_descriptors_match_sorted_block(self, case):
        patches, orientations = case
        got = describe_batch(patches, orientations)
        assert got.dtype == np.uint8 and got.shape == (len(patches), 32)
        assert got.flags.c_contiguous
        frame, xs, ys = patch_frame(patches)
        assert np.array_equal(got, describe_reference(frame, xs, ys, orientations))

    def test_full_array_frame_under_3_5_mb(self):
        # Set 1's 562x682 OF frame at the 2048-feature cap. Widening the whole
        # patch block to float32 (7.9 MB) or copying it in bin order (2 MB)
        # breaks the bound.
        config = PARAMETER_SETS[1]
        frames, _ = synthesize_sequence(config, "still", 2, seed=0)
        of_frame, _ = downscale_for_of(frontend_apply(frames[0], config))
        corners = select_corners(of_frame, 10, config.tile_budget, config.brief_max)
        assert len(corners) == 2048
        describe_corners(of_frame, corners)  # first-call allocations out of the count
        tracemalloc.start()
        try:
            describe_corners(of_frame, corners)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5e6


class TestThresholdController:
    def test_equilibrium_is_stable(self):
        assert update_threshold(37, 512, 512) == 37

    def test_sixteen_fold_overshoot_doubles(self):
        assert update_threshold(20, 16 * 64, 64) == 40

    def test_zero_count_clamps_at_floor(self):
        assert update_threshold(1, 0, 512) == 1

    def test_upper_clamp(self):
        assert update_threshold(250, 2048, 1) == 255

    def test_threshold_always_in_range(self):
        for produced in (0, 1, 50, 100, 1000, 2048):
            new = update_threshold(128, produced, 100)
            assert 1 <= new <= 255

    @pytest.mark.parametrize("threshold, produced, target, message", [
        (0, 10, 64, r"threshold must be in \[1, 255\], got 0"),
        (256, 10, 64, r"threshold must be in \[1, 255\], got 256"),
        (20, -1, 64, "produced count must be non-negative, got -1"),
        (20, 10, 0, "target must be positive, got 0"),
    ])
    def test_out_of_range_inputs_rejected(self, threshold, produced, target, message):
        with pytest.raises(RangeError, match=message):
            update_threshold(threshold, produced, target)


class TestEngineLoop:
    def test_determinism_bit_for_bit(self):
        frame = textured_frame(width=96, height=96, seed=12)
        feats1, n1 = extract_features(frame, 10, 4, 256)
        feats2, n2 = extract_features(frame, 10, 4, 256)
        assert n1 == n2
        assert feats1 == feats2

    @pytest.mark.parametrize("start", [1, 20, 128, 255])
    def test_static_scene_count_converges(self, start):
        # Scene with far more corners at threshold 1 than the target (the
        # quartic-root gain rounds to a no-op at threshold 1 unless the
        # overshoot ratio exceeds ~5x) and a loose cap so the controller can
        # move at full rate.
        rng = np.random.default_rng(2)
        pixels = np.full((160, 160), 60, dtype=np.uint8)
        for _ in range(120):
            x, y = rng.integers(2, 140, size=2)
            w, h = rng.integers(5, 14, size=2)
            pixels[y : y + h, x : x + w] = rng.integers(0, 256)
        frame = Frame(pixels)
        target = 48
        threshold = start
        assert len(detect_fast(frame, 1)) >= 6 * target

        counts = []
        for _ in range(60):
            _, produced = extract_features(frame, threshold, 8, 2048)
            counts.append(produced)
            threshold = update_threshold(threshold, produced, target)
        settle = counts[19:]
        assert all(abs(c - target) <= 0.1 * target for c in settle), (start, counts)
