"""Corner detection, descriptor generation and the descriptor-count controller.

The feature engine mirrors the on-sensor pipeline stage by stage: a FAST-9/16
segment-test detector with 3x3 non-maximum suppression, a per-tile budget that
spreads features across the frame, a global cap that drops features bottom
first, an intensity-centroid orientation estimate, and a 256-bit binary
descriptor sampled on a fixed point-pair pattern rotated in 12-degree steps.

The per-frame kernels index the row-major pixel buffer `frame.pixels.ravel()`
directly: a pixel at offset (dx, dy) from position `i` is `flat[i + dy*W + dx]`
for frame width W. The FAST circle, the orientation disc and the 30 rotated
BRIEF pair tables are turned into such flat offsets once per call, so each
gathers with one fancy index instead of separate row and column arrays.
Corners keep the 15-pixel border margin, so no offset leaves the frame or
wraps into a neighbouring row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class Feature:
    """A described corner in OF-frame coordinates."""

    x: int
    y: int
    score: int
    orientation: float
    descriptor: bytes

    def __post_init__(self) -> None:
        if len(self.descriptor) * 8 != DESCRIPTOR_BITS:
            raise RangeError(f"descriptor must be {DESCRIPTOR_BITS} bits")


@dataclass(frozen=True)
class DetectorState:
    """Contrast threshold plus the budgets it is regulated against."""

    threshold: int
    brief_target: int
    brief_max: int
    tile_budget: int

    def __post_init__(self) -> None:
        if not 1 <= self.threshold <= 255:
            raise RangeError(f"threshold must be in [1, 255], got {self.threshold}")
        if not 0 < self.brief_target <= self.brief_max <= 2048:
            raise RangeError("need 0 < brief_target <= brief_max <= 2048")
        if not 2 <= self.tile_budget <= 8:
            raise RangeError("tile_budget must be in [2, 8]")


def detect_fast(frame: Frame, threshold: int) -> list[tuple[int, int, int]]:
    """FAST-9/16 corners with scores, 3x3 non-maximum suppressed.

    A pixel is a corner when at least 9 contiguous pixels of its radius-3
    circle are all brighter than center+threshold or all darker than
    center-threshold. The score is the largest threshold at which the test
    still passes. Corners closer than 15 pixels to a border are excluded so
    the descriptor patch always fits. Returned in row-major order.
    """
    if frame.width < 32 or frame.height < 32:
        raise FrameSizeError(
            f"detection needs at least 32x32 pixels, got {frame.width}x{frame.height}"
        )
    if not 1 <= threshold <= 255:
        raise RangeError(f"threshold must be in [1, 255], got {threshold}")

    flat = frame.pixels.ravel()
    img = frame.pixels.astype(np.int16)
    h, w = img.shape
    m = BORDER_MARGIN
    center = img[m : h - m, m : w - m]

    # Cheap candidate filter: any 9-run of the circle covers at least two of
    # the four compass points, so fewer than two rules the pixel out.
    bright_compass = np.zeros(center.shape, dtype=np.uint8)
    dark_compass = np.zeros(center.shape, dtype=np.uint8)
    for k in _COMPASS:
        dx, dy = _CIRCLE[k]
        ring = img[m + dy : h - m + dy, m + dx : w - m + dx]
        bright_compass += ring > center + threshold
        dark_compass += ring < center - threshold
    candidate = np.zeros((h, w), dtype=bool)
    np.logical_or(bright_compass >= 2, dark_compass >= 2, out=candidate[m : h - m, m : w - m])
    idx = np.flatnonzero(candidate)  # row-major flat positions, ascending
    if idx.size == 0:
        return []

    diffs = flat[idx + (_CIRCLE_DY * w + _CIRCLE_DX)[:, None]].astype(np.int16)
    diffs -= flat[idx]

    score = np.maximum(_arc_strength(diffs), _arc_strength(-diffs)) - 1
    keep = score >= threshold
    if not keep.any():
        return []
    idx, score = idx[keep], score[keep]
    survive = _nms(idx, score, h, w)
    ys, xs = np.divmod(idx[survive], w)
    return list(zip(xs.tolist(), ys.tolist(), score[survive].tolist()))


def _arc_strength(diffs: np.ndarray) -> np.ndarray:
    """Max over circular 9-runs of the minimum diff along the run.

    Run minima by doubling over the 24 wrapped rows: runs of 2, 4 and 8,
    then one more row for 9.
    """
    wrapped = np.concatenate([diffs, diffs[: _ARC - 1]], axis=0)
    run = np.minimum(wrapped[:22], wrapped[1:23])
    run = np.minimum(run[:20], run[2:22])
    run = np.minimum(run[:16], run[4:20])
    return np.minimum(run, wrapped[8:24]).max(axis=0)


def _nms(idx: np.ndarray, score: np.ndarray, h: int, w: int) -> np.ndarray:
    """3x3 non-maximum suppression on a flat h*w score map.

    `idx` are row-major flat positions at least one pixel inside the frame.
    Ties are broken toward the earlier row-major position: a corner survives
    if it strictly beats the neighbors before it and at least ties the
    neighbors after it. Returns the survivor mask.
    """
    smap = np.zeros(h * w, dtype=score.dtype)
    smap[idx] = score
    survive = np.ones(idx.size, dtype=bool)
    for step in (-w - 1, -w, -w + 1, -1):
        survive &= score > smap[idx + step]
    for step in (1, w - 1, w, w + 1):
        survive &= score >= smap[idx + step]
    return survive


def enforce_tile_budget(
    corners: list[tuple[int, int, int]],
    frame_width: int,
    frame_height: int,
    tile_budget: int,
) -> list[tuple[int, int, int]]:
    """Keep at most `tile_budget` corners per 16x16 tile, best score first.

    Score ties go to the smaller row-major position. The surviving corners
    keep their row-major order.
    """
    if not 2 <= tile_budget <= 8:
        raise RangeError(f"tile_budget must be in [2, 8], got {tile_budget}")
    if not corners:
        return []
    xs = np.array([c[0] for c in corners], dtype=np.int64)
    ys = np.array([c[1] for c in corners], dtype=np.int64)
    ss = np.array([c[2] for c in corners], dtype=np.int64)
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
    kept_sorted = kept[np.lexsort((xs[kept], ys[kept]))]
    return [corners[i] for i in kept_sorted]


def cap_global(
    corners: list[tuple[int, int, int]], brief_max: int
) -> list[tuple[int, int, int]]:
    """Drop everything after the first `brief_max` corners.

    The detector works top to bottom, so the cap starves the bottom of the
    frame first. Input must already be in row-major order.
    """
    return corners[: brief_max]


# ---------------------------------------------------------------------------
# Orientation
# ---------------------------------------------------------------------------

def _disc_offsets(radius: int) -> tuple[np.ndarray, np.ndarray]:
    span = np.arange(-radius, radius + 1)
    dx, dy = np.meshgrid(span, span)
    inside = dx * dx + dy * dy <= radius * radius
    return dx[inside].astype(np.int64), dy[inside].astype(np.int64)

_DISC_DX, _DISC_DY = _disc_offsets(PATCH_RADIUS)
_DISC_XY = np.stack([_DISC_DX, _DISC_DY], axis=1).astype(np.float64)


def _check_margin(frame: Frame, x: int, y: int) -> None:
    if not (PATCH_RADIUS <= x < frame.width - PATCH_RADIUS
            and PATCH_RADIUS <= y < frame.height - PATCH_RADIUS):
        raise MarginError(
            f"corner ({x}, {y}) closer than {PATCH_RADIUS} px to the border of "
            f"a {frame.width}x{frame.height} frame"
        )


def compute_orientations(frame: Frame, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Intensity-centroid orientation for a batch of corners, in [0, 2pi)."""
    w = frame.width
    vals = frame.pixels.ravel()[(ys * w + xs)[:, None] + (_DISC_DY * w + _DISC_DX)]
    # Integer moments below 2.7e6 in magnitude: float64 sums them exactly in
    # any order, and never to -0.0 (the dx = 0 and dy = 0 terms are +0.0).
    moments = vals @ _DISC_XY
    angles = np.arctan2(moments[:, 1], moments[:, 0])
    angles[angles < 0] += 2 * math.pi
    angles[angles >= 2 * math.pi] = 0.0
    return angles


def compute_orientation(frame: Frame, corner: tuple[int, int]) -> float:
    """Orientation of one corner via the patch intensity centroid."""
    x, y = corner
    _check_margin(frame, x, y)
    return float(compute_orientations(frame, np.array([x]), np.array([y]))[0])


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

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


def describe_batch(frame: Frame, xs: np.ndarray, ys: np.ndarray,
                   orientations: np.ndarray) -> np.ndarray:
    """Descriptors for a batch of corners as an (n, 32) uint8 array."""
    step = 2 * math.pi / ORIENTATION_BINS
    bins = np.floor(orientations / step + 0.5).astype(np.int64) % ORIENTATION_BINS
    w = frame.width
    p_offsets = _ROTATED[:, :, 1] * w + _ROTATED[:, :, 0]  # (30, 256)
    q_offsets = _ROTATED[:, :, 3] * w + _ROTATED[:, :, 2]
    flat = frame.pixels.ravel()
    base = (ys * w + xs)[:, None]
    bits = flat[base + p_offsets[bins]] < flat[base + q_offsets[bins]]
    return np.packbits(bits, axis=1, bitorder="little")


def describe_brief(frame: Frame, corner: tuple[int, int], orientation: float) -> bytes:
    """256-bit descriptor: bit i set when intensity at p_i < intensity at q_i.

    The point pairs come from the fixed table shipped with the package,
    rotated by the orientation quantized to 12-degree steps and sampled with
    nearest-neighbor lookup.
    """
    x, y = corner
    _check_margin(frame, x, y)
    packed = describe_batch(
        frame, np.array([x]), np.array([y]), np.array([orientation], dtype=np.float64)
    )
    return packed[0].tobytes()


def update_threshold(state: DetectorState, produced_count: int) -> DetectorState:
    """One controller step toward the descriptor target.

    Damped multiplicative correction, applied once per frame:
    threshold' = clamp(round(threshold * (produced/target)^(1/4)), 1, 255),
    with a zero count treated as one so the threshold can always recover.
    """
    if produced_count < 0:
        raise RangeError("produced_count must be non-negative")
    produced = max(produced_count, 1)
    gain = (produced / state.brief_target) ** 0.25
    new = int(math.floor(state.threshold * gain + 0.5))
    return replace(state, threshold=max(1, min(255, new)))


def select_corners(frame: Frame, state: DetectorState) -> list[tuple[int, int, int]]:
    """Detection half of the engine: detect, tile budget, global cap."""
    corners = detect_fast(frame, state.threshold)
    corners = enforce_tile_budget(corners, frame.width, frame.height, state.tile_budget)
    return cap_global(corners, state.brief_max)


def describe_corners(frame: Frame, corners: list[tuple[int, int, int]]) -> list[Feature]:
    """Description half of the engine: orient and describe selected corners."""
    if not corners:
        return []
    xs = np.array([c[0] for c in corners], dtype=np.int64)
    ys = np.array([c[1] for c in corners], dtype=np.int64)
    orientations = compute_orientations(frame, xs, ys)
    packed = describe_batch(frame, xs, ys, orientations)
    return [
        Feature(int(x), int(y), int(s), float(o), row.tobytes())
        for (x, y, s), o, row in zip(corners, orientations, packed)
    ]


def extract_features(frame: Frame, state: DetectorState) -> tuple[list[Feature], int]:
    """Full engine pass: detect, budget, cap, orient and describe.

    Returns the feature list and the produced descriptor count the
    controller consumes (after the per-tile budget and the global cap).
    """
    features = describe_corners(frame, select_corners(frame, state))
    return features, len(features)
