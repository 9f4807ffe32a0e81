"""Corner detection, descriptor generation and the descriptor-count controller.

The feature engine mirrors the on-sensor pipeline stage by stage: a FAST-9/16
segment-test detector with 3x3 non-maximum suppression, a per-tile budget that
spreads features across the frame, a global cap that drops features bottom
first, an intensity-centroid orientation estimate, and a 256-bit binary
descriptor sampled on a fixed point-pair pattern rotated in 12-degree steps.

Detection indexes the row-major pixel buffer `frame.pixels.ravel()` directly:
a pixel at offset (dx, dy) from position `i` is `flat[i + dy*W + dx]` for
frame width W, so the FAST circle and the NMS neighbourhood are flat offsets.
It works on the frame's own bytes, in uint8, and its two heavy passes work in
cache-sized pieces: the compass pre-filter in flat row bands of the frame, and
the segment test on the survivors in blocks of `_SCORE_BLOCK` candidates, one
circle row gathered at a time into a reused (24, k) uint8 buffer whose run
minima and maxima give both arc strengths. NMS reads a uint8 score map.
Description reads each selected corner's 31x31 patch once, as one row of an
(n, 961) uint8 block cut from a sliding-window view of the frame; the
orientation disc and the 30 rotated BRIEF pair tables are patch-local
indices `(dy + 15) * 31 + (dx + 15)` into those rows, built once at import.
Corners keep the 15-pixel border margin, so every patch lies inside the
frame. The block is the largest thing description holds (2 MB at the
2048-feature cap), so nothing copies it whole: orientation widens it to
float32 `_ORIENT_BLOCK` rows at a time, and BRIEF takes each orientation
bin's rows from it where they lie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import FrameSizeError, MarginError, RangeError
from .sensor_frontend import Frame

BORDER_MARGIN = 15
PATCH_RADIUS = 15
DESCRIPTOR_BITS = 256
ORIENTATION_BINS = 30  # 12-degree steps

# Bresenham circle of radius 3, clockwise from 12 o'clock.
_CIRCLE = (
    (0, -3), (1, -3), (2, -2), (3, -1), (3, 0), (3, 1), (2, 2), (1, 3),
    (0, 3), (-1, 3), (-2, 2), (-3, 1), (-3, 0), (-3, -1), (-2, -2), (-1, -3),
)
_CIRCLE_DX = np.array([dx for dx, _ in _CIRCLE], dtype=np.int64)
_CIRCLE_DY = np.array([dy for _, dy in _CIRCLE], dtype=np.int64)
_COMPASS = (0, 4, 8, 12)
_ARC = 9
_ARC_ROWS = 16 + _ARC - 1  # the circle, then its first 8 rows again
_RUN_ROWS = 22 + 20  # the runs of 2 and of 4 that `_run_extreme` builds
# Pixels per band of the compass filter: its two uint8 planes and the dark
# mask (3 bytes a pixel, 192 KiB) then fit a core's L2 cache.
_COMPASS_BAND = 1 << 16
# Candidates scored per block. The (24, 8192) uint8 ring buffer and the
# (42, 8192) run buffer are 192 and 336 KiB, so one block's working set
# stays in a core's L2 cache; at the set-1 full frame's first threshold a
# whole-frame pass touched several MB.
_SCORE_BLOCK = 8192
# Patch rows per orientation product. A (256, 961) float32 slice of the
# patch block is about 1 MB, where casting a full set-1 block of 2048 rows
# made a 7.9 MB copy.
_ORIENT_BLOCK = 256


@dataclass(frozen=True)
class Feature:
    """One described corner in OF-frame coordinates, as a record.

    The pipeline keeps features in a `FeatureSet`; records are built only
    when a set is iterated, for oracles and outside checkers.
    """

    x: int
    y: int
    score: int
    orientation: float
    descriptor: bytes

    def __post_init__(self) -> None:
        if len(self.descriptor) * 8 != DESCRIPTOR_BITS:
            raise RangeError(f"descriptor must be {DESCRIPTOR_BITS} bits")


@dataclass(frozen=True, eq=False)
class FeatureSet:
    """One frame's described corners, one array entry per feature.

    `xs`, `ys` and `scores` are int64, `orientations` float64 radians in
    [0, 2pi), and `desc` the packed 256-bit descriptors as a C-contiguous
    (n, 32) uint8 array, bit i of a descriptor at byte i // 8, bit i % 8.
    Entries are in row-major corner order. Iterating yields `Feature`
    records.
    """

    xs: np.ndarray
    ys: np.ndarray
    scores: np.ndarray
    orientations: np.ndarray
    desc: np.ndarray

    def __len__(self) -> int:
        return self.xs.size

    def __iter__(self):
        columns = (self.xs.tolist(), self.ys.tolist(), self.scores.tolist(),
                   self.orientations.tolist(), self.desc)
        for x, y, score, orientation, row in zip(*columns):
            yield Feature(x, y, score, orientation, row.tobytes())


def detect_fast(frame: Frame, threshold: int) -> np.ndarray:
    """FAST-9/16 corners with scores, 3x3 non-maximum suppressed.

    A pixel is a corner when at least 9 contiguous pixels of its radius-3
    circle are all brighter than center+threshold or all darker than
    center-threshold. The score is the largest threshold at which the test
    still passes. Corners closer than 15 pixels to a border are excluded so
    the descriptor patch always fits. Returned in row-major order as an
    (n, 3) int64 array of (x, y, score) rows.
    """
    if frame.width < 32 or frame.height < 32:
        raise FrameSizeError(
            f"detection needs at least 32x32 pixels, got {frame.width}x{frame.height}"
        )
    if not 1 <= threshold <= 255:
        raise RangeError(f"threshold must be in [1, 255], got {threshold}")

    flat = frame.pixels.ravel()
    h, w = frame.pixels.shape
    idx = np.flatnonzero(_compass_filter(flat, h, w, threshold))  # row-major
    if idx.size == 0:
        return np.empty((0, 3), dtype=np.int64)

    # Scored in blocks of _SCORE_BLOCK candidates: on a set-1 frame the
    # controller's thresholds leave about 15 000 to 73 000 of them.
    # Kept entries are picked by position with `take`: boolean indexing with
    # these scattered masks was about 5x slower.
    score = _segment_scores(flat, idx, w)
    passers = np.flatnonzero(score >= threshold)
    if passers.size == 0:
        return np.empty((0, 3), dtype=np.int64)
    # A passer's score lies in [threshold, 254], so it fits a byte.
    idx, score = idx.take(passers), score.take(passers).astype(np.uint8)
    kept = np.flatnonzero(_nms(idx, score, h, w))
    ys, xs = np.divmod(idx.take(kept), w)
    return np.column_stack((xs, ys, score.take(kept).astype(np.int64)))


def _compass_filter(flat: np.ndarray, h: int, w: int, threshold: int) -> np.ndarray:
    """The (h*w,) mask of the pixels inside the border margin that pass the
    exact compass pre-filter, for the raveled h x w frame `flat`.

    Any 9-run of the circle holds two adjacent compass points (0 and 4, 4
    and 8, 8 and 12, or 12 and 0), so a pixel can pass the bright test only
    if such a pair is brighter than center+threshold. Expanding the four
    pairs, that is `min(max(p0, p8), max(p4, p12)) > c + t`, and the dark
    test needs `max(min(p0, p8), min(p4, p12)) < c - t`. Both stay in uint8:
    `a > c + t` is `max(a, t) - t > c`, and `b < c - t` is
    `min(b, 255 - t) + t < c`. Rows are filtered `_COMPASS_BAND` pixels at
    a time as flat runs of whole rows, whose circle points are flat offsets;
    the margin columns, which wrap across rows, are cleared at the end.
    """
    m = BORDER_MARGIN
    t = threshold
    mask = np.zeros(h * w, dtype=bool)
    rows = max(1, _COMPASS_BAND // w)
    band = np.empty((2, rows * w), dtype=np.uint8)
    dark = np.empty(rows * w, dtype=bool)
    shifts = [dy * w + dx for dx, dy in (_CIRCLE[k] for k in _COMPASS)]
    for y0 in range(m, h - m, rows):
        lo, hi = y0 * w, min(y0 + rows, h - m) * w
        n = hi - lo
        p0, p4, p8, p12 = (flat[lo + s : hi + s] for s in shifts)
        a, b = band[0, :n], band[1, :n]
        np.maximum(p0, p8, out=a)
        np.maximum(p4, p12, out=b)
        np.minimum(a, b, out=a)
        np.maximum(a, t, out=a)
        np.subtract(a, t, out=a)
        np.greater(a, flat[lo:hi], out=mask[lo:hi])
        np.minimum(p0, p8, out=a)
        np.minimum(p4, p12, out=b)
        np.maximum(a, b, out=a)
        np.minimum(a, 255 - t, out=a)
        np.add(a, t, out=a)
        np.less(a, flat[lo:hi], out=dark[:n])
        np.logical_or(mask[lo:hi], dark[:n], out=mask[lo:hi])
    grid = mask.reshape(h, w)
    grid[:, :m] = False
    grid[:, w - m :] = False
    return mask


def _segment_scores(flat: np.ndarray, idx: np.ndarray, w: int) -> np.ndarray:
    """FAST score of each candidate at `idx` in a frame of width `w`, as
    int16: the stronger of the bright and the dark arc strength, minus one.

    The bright arc strength is the best 9-run's darkest pixel minus the
    centre, `max over runs of min(R) - c`, and the dark one `c - min over
    runs of max(R)`: `min(R_i - c) = min(R_i) - c`, so the runs are taken on
    the ring's own bytes. Candidates are scored `_SCORE_BLOCK` at a time:
    each circle row is gathered from a shifted view of `flat` into a reused
    (24, k) uint8 buffer, whose rows 16-23 repeat rows 0-7 so that every
    9-run is contiguous.
    """
    ring = _CIRCLE_DY * w + _CIRCLE_DX
    first = int(ring.min())  # candidates keep the margin, so pos + first >= 0
    k = min(idx.size, _SCORE_BLOCK)
    # Flat buffers, so that a short last block is a contiguous (rows, n) view.
    wrapped_buf = np.empty(_ARC_ROWS * k, dtype=np.uint8)
    work_buf = np.empty(_RUN_ROWS * k, dtype=np.uint8)
    ends = np.empty((3, k), dtype=np.uint8)
    dark = np.empty(k, dtype=np.int16)
    score = np.empty(idx.size, dtype=np.int16)
    for lo in range(0, idx.size, _SCORE_BLOCK):
        pos = idx[lo : lo + _SCORE_BLOCK]
        n = pos.size
        wrapped = wrapped_buf[: _ARC_ROWS * n].reshape(_ARC_ROWS, n)
        work = work_buf[: _RUN_ROWS * n].reshape(_RUN_ROWS, n)
        center, brightest, darkest = ends[0, :n], ends[1, :n], ends[2, :n]
        flat.take(pos, out=center, mode="clip")
        base = pos + first
        for row, shift in enumerate(ring - first):
            flat[shift:].take(base, out=wrapped[row], mode="clip")
        wrapped[16:] = wrapped[: _ARC_ROWS - 16]
        _run_extreme(wrapped, np.minimum, np.maximum, work, brightest)
        _run_extreme(wrapped, np.maximum, np.minimum, work, darkest)
        out = score[lo : lo + n]
        np.subtract(brightest, center, out=out, dtype=np.int16)
        np.subtract(center, darkest, out=dark[:n], dtype=np.int16)
        np.maximum(out, dark[:n], out=out)
        out -= 1
    return score


def _run_extreme(wrapped: np.ndarray, along: np.ufunc, across: np.ufunc,
                 work: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`across` over the 16 circular 9-runs of `along` over each run.

    `wrapped` holds the 16 circle rows followed by rows 0-7 again, and
    `work` is (42, k) scratch of the same dtype. `along` = minimum, `across`
    = maximum gives the brightest run's darkest pixel; the reverse gives the
    darkest run's brightest pixel. Runs by doubling: 2, 4 and 8, then one
    more row for 9.
    """
    pairs, quads = work[:22], work[22:]
    along(wrapped[:22], wrapped[1:23], out=pairs)
    along(pairs[:20], pairs[2:22], out=quads)
    along(quads[:16], quads[4:20], out=pairs[:16])
    along(pairs[:16], wrapped[8:24], out=pairs[:16])
    return across.reduce(pairs[:16], axis=0, out=out)


def _nms(idx: np.ndarray, score: np.ndarray, h: int, w: int) -> np.ndarray:
    """3x3 non-maximum suppression on a flat h*w uint8 score map.

    `idx` are row-major flat positions at least one pixel inside the frame,
    and `score` their scores in [0, 255]. Ties are broken toward the earlier
    row-major position: a corner survives if it strictly beats the
    neighbors before it and at least ties the neighbors after it. Each
    neighbour is read from a shifted view of the map with `take`. Returns
    the survivor mask.
    """
    smap = np.zeros(h * w, dtype=np.uint8)
    smap[idx] = score
    base = idx - (w + 1)
    near = np.empty(idx.size, dtype=np.uint8)
    beats = np.empty(idx.size, dtype=bool)
    survive = np.ones(idx.size, dtype=bool)
    for steps, test in (((-w - 1, -w, -w + 1, -1), np.greater),
                        ((1, w - 1, w, w + 1), np.greater_equal)):
        for step in steps:
            smap[step + w + 1 :].take(base, out=near, mode="clip")
            survive &= test(score, near, out=beats)
    return survive


def enforce_tile_budget(
    corners: np.ndarray,
    frame_width: int,
    frame_height: int,
    tile_budget: int,
) -> np.ndarray:
    """Keep at most `tile_budget` corners per 16x16 tile, best score first.

    `corners` are (x, y, score) rows inside the frame. Score ties go to the
    smaller row-major position. The surviving corners come out in row-major
    order.

    Each corner is sorted on one int64 key, `tile << 40 | (255 - score) << 32
    | y << 16 | x`, so x and y must lie in [0, 65536), scores in [0, 255]
    and tile numbers below 2**23.
    """
    if not 2 <= tile_budget <= 8:
        raise RangeError(f"tile_budget must be in [2, 8], got {tile_budget}")
    if not len(corners):
        return corners
    xs, ys, ss = corners.astype(np.int64, copy=False).T
    tiles_x = (frame_width + 15) // 16
    tile_id = (ys // 16) * tiles_x + (xs // 16)
    if (min(xs.min(), ys.min(), ss.min()) < 0 or xs.max() >= min(frame_width, 1 << 16)
            or ys.max() >= min(frame_height, 1 << 16) or ss.max() > 255
            or tile_id.max() >= 1 << 23):
        raise RangeError(f"tile budget needs corners inside the {frame_width}x"
                         f"{frame_height} frame, x and y in [0, 65536), scores in "
                         "[0, 255] and fewer than 2**23 tiles")
    position = ys << 16 | xs
    order = np.argsort(tile_id << 40 | (255 - ss) << 32 | position)
    sorted_tiles = tile_id[order]
    is_start = np.empty(order.size, dtype=bool)
    is_start[0] = True
    is_start[1:] = sorted_tiles[1:] != sorted_tiles[:-1]
    start_pos = np.maximum.accumulate(np.where(is_start, np.arange(order.size), 0))
    rank = np.arange(order.size) - start_pos
    kept = order[rank < tile_budget]
    return corners[kept[np.argsort(position[kept], kind="stable")]]


def cap_global(corners: np.ndarray, brief_max: int) -> np.ndarray:
    """Drop everything after the first `brief_max` corner rows.

    The detector works top to bottom, so the cap starves the bottom of the
    frame first. Input must already be in row-major order.
    """
    if not 1 <= brief_max <= 2048:
        raise RangeError(f"brief_max must be in [1, 2048], got {brief_max}")
    return corners[: brief_max]


# ---------------------------------------------------------------------------
# Patches, orientation and descriptors
# ---------------------------------------------------------------------------

_PATCH_SIDE = 2 * PATCH_RADIUS + 1


def _corner_patches(frame: Frame, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The 31x31 patches centred on the corners as one (n, 961) uint8 block.

    Corners must keep the 15-pixel border margin (`describe_corners` checks
    it); a negative window index would wrap silently.
    """
    windows = np.lib.stride_tricks.sliding_window_view(
        frame.pixels, (_PATCH_SIDE, _PATCH_SIDE))
    patches = windows[ys - PATCH_RADIUS, xs - PATCH_RADIUS]
    return patches.reshape(xs.size, _PATCH_SIDE * _PATCH_SIDE)


def _moment_weights(radius: int) -> np.ndarray:
    """(961, 2) float32 table of dx and dy inside the disc, +0.0 outside."""
    span = np.arange(-radius, radius + 1)
    dx, dy = np.meshgrid(span, span)
    inside = dx * dx + dy * dy <= radius * radius
    return np.stack([np.where(inside, dx, 0).ravel(), np.where(inside, dy, 0).ravel()],
                    axis=1).astype(np.float32)

_MOMENT_WEIGHTS = _moment_weights(PATCH_RADIUS)


def compute_orientations(patches: np.ndarray) -> np.ndarray:
    """Intensity-centroid orientation of each patch row, in [0, 2pi).

    The moments are taken `_ORIENT_BLOCK` rows at a time into one (n, 2)
    float32 array, so only one slice of the uint8 block is ever widened.
    """
    # Every product and partial sum is an integer of magnitude at most
    # sum(|dx|) * 255 = 1 154 640 < 2**24, so float32 sums it exactly in any
    # order and any blocking. A zero moment is +0.0: the dx = 0 and dy = 0
    # terms are +0.0.
    moments = np.empty((len(patches), 2), dtype=np.float32)
    for lo in range(0, len(patches), _ORIENT_BLOCK):
        np.matmul(patches[lo : lo + _ORIENT_BLOCK], _MOMENT_WEIGHTS,
                  out=moments[lo : lo + _ORIENT_BLOCK])
    angles = np.arctan2(moments[:, 1], moments[:, 0], dtype=np.float64)
    angles[angles < 0] += 2 * math.pi
    angles[angles >= 2 * math.pi] = 0.0
    return angles


def _load_pair_table() -> np.ndarray:
    text = resources.files("flowcam").joinpath("data/brief_pairs.txt").read_text("ascii")
    rows = [line.split() for line in text.splitlines() if line.strip()]
    table = np.array(rows, dtype=np.int64)
    if table.shape != (DESCRIPTOR_BITS, 4):
        raise RangeError(f"pair table must be {DESCRIPTOR_BITS}x4, got {table.shape}")
    if np.hypot(table[:, 0], table[:, 1]).max() > PATCH_RADIUS or \
       np.hypot(table[:, 2], table[:, 3]).max() > PATCH_RADIUS:
        raise RangeError("pair table points must lie within the radius-15 disc")
    return table


def _rotated_tables(pairs: np.ndarray) -> np.ndarray:
    """Integer pair tables for the 30 quantized orientations, (30, 256, 4)."""
    out = np.empty((ORIENTATION_BINS, DESCRIPTOR_BITS, 4), dtype=np.int64)
    for b in range(ORIENTATION_BINS):
        a = 2 * math.pi * b / ORIENTATION_BINS
        c, s = math.cos(a), math.sin(a)
        for col in (0, 2):
            x, y = pairs[:, col].astype(np.float64), pairs[:, col + 1].astype(np.float64)
            out[b, :, col] = np.floor(c * x - s * y + 0.5).astype(np.int64)
            out[b, :, col + 1] = np.floor(s * x + c * y + 0.5).astype(np.int64)
    return out

PAIR_TABLE = _load_pair_table()
_ROTATED = _rotated_tables(PAIR_TABLE)
# Patch-local indices (dy + 15) * 31 + (dx + 15) per bin, (30, 512): the 256
# first pair points, then the 256 second ones.
_PAIR_INDEX = ((_ROTATED[:, :, 1::2] + PATCH_RADIUS) * _PATCH_SIDE
               + _ROTATED[:, :, 0::2] + PATCH_RADIUS).transpose(0, 2, 1).reshape(
                   ORIENTATION_BINS, 2 * DESCRIPTOR_BITS)


def describe_batch(patches: np.ndarray, orientations: np.ndarray) -> np.ndarray:
    """Descriptors of the patch rows as an (n, 32) uint8 array.

    The rows are grouped by orientation bin with one argsort. Each occupied
    bin takes its rows from the unsorted patch block, gathers them at that
    bin's pair indices and writes its bits at those rows; the whole bit
    table is packed once.
    """
    step = 2 * math.pi / ORIENTATION_BINS
    bins = np.floor(orientations / step + 0.5).astype(np.int64) % ORIENTATION_BINS
    order = np.argsort(bins, kind="stable")
    ends = np.cumsum(np.bincount(bins, minlength=ORIENTATION_BINS)).tolist()
    bits = np.empty((bins.size, DESCRIPTOR_BITS), dtype=bool)
    for b, (lo, hi) in enumerate(zip([0] + ends, ends)):
        if lo < hi:
            rows = order[lo:hi]
            pairs = patches.take(rows, axis=0).take(_PAIR_INDEX[b], axis=1)
            bits[rows] = pairs[:, :DESCRIPTOR_BITS] < pairs[:, DESCRIPTOR_BITS:]
    return np.packbits(bits, axis=1, bitorder="little")


def update_threshold(threshold: int, produced: int, target: int) -> int:
    """One controller step from `threshold` toward the descriptor target.

    Damped multiplicative correction, applied once per frame:
    threshold' = clamp(round(threshold * (produced/target)^(1/4)), 1, 255),
    with a zero count treated as one so the threshold can always recover.
    """
    if not 1 <= threshold <= 255:
        raise RangeError(f"threshold must be in [1, 255], got {threshold}")
    if produced < 0:
        raise RangeError(f"produced count must be non-negative, got {produced}")
    if target <= 0:
        raise RangeError(f"target must be positive, got {target}")
    gain = (max(produced, 1) / target) ** 0.25
    return max(1, min(255, int(math.floor(threshold * gain + 0.5))))


def select_corners(frame: Frame, threshold: int, tile_budget: int,
                   brief_max: int) -> np.ndarray:
    """Detection half of the engine: detect, tile budget, global cap."""
    corners = detect_fast(frame, threshold)
    corners = enforce_tile_budget(corners, frame.width, frame.height, tile_budget)
    return cap_global(corners, brief_max)


def describe_corners(frame: Frame, corners: np.ndarray) -> FeatureSet:
    """Description half of the engine: orient and describe selected corners.

    Every corner must keep the 15-pixel border margin, so that its patch
    lies inside the frame; `MarginError` names the first one that does not.
    """
    xs, ys, scores = corners.T
    if not len(corners):
        return FeatureSet(xs, ys, scores, np.empty(0),
                          np.empty((0, DESCRIPTOR_BITS // 8), dtype=np.uint8))
    r = PATCH_RADIUS
    outside = (xs < r) | (ys < r) | (xs >= frame.width - r) | (ys >= frame.height - r)
    if outside.any():
        x, y = corners[outside.argmax(), :2].tolist()
        raise MarginError(f"corner ({x}, {y}) closer than {r} px to the border of a "
                          f"{frame.width}x{frame.height} frame")
    patches = _corner_patches(frame, xs, ys)
    orientations = compute_orientations(patches)
    return FeatureSet(xs, ys, scores, orientations, describe_batch(patches, orientations))
