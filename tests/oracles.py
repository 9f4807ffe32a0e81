"""Per-record reference formulations the tests compare the pipeline against.

The pipeline keeps corners, features, vectors and tracks as NumPy batches.
These helpers work one corner, pair, vector or track at a time on the record
types (`Feature`, `FlowVector`, `Track`) and have no caller in `src/`. The
converters at the top turn record lists into the batch types and back. The
scene renderer at the bottom samples full 2-D coordinate grids for every
frame.
"""

import heapq
import math

import numpy as np

from flowcam.errors import CoverageError, MarginError, RangeError
from flowcam.feature_engine import (
    DESCRIPTOR_BITS,
    PATCH_RADIUS,
    Feature,
    FeatureSet,
    compute_orientations,
    describe_batch,
    describe_corners,
    select_corners,
)
from flowcam.matcher import NO_COMPETITOR, FlowVector, VectorBatch
from flowcam.sensor_frontend import Frame
from flowcam.track_analyzer import Track, TrackSet

# ---------------------------------------------------------------------------
# Records <-> batches
# ---------------------------------------------------------------------------


def corner_array(corners):
    """(x, y, score) tuples as the (n, 3) int64 array the detector returns."""
    return np.array(corners, dtype=np.int64).reshape(-1, 3)


def corner_list(corners):
    """A detector corner array as a list of (x, y, score) tuples."""
    assert corners.dtype == np.int64 and corners.shape[1:] == (3,)
    return [tuple(c) for c in corners.tolist()]


def feature_set(features):
    """A list of `Feature` records as a `FeatureSet`."""
    n = len(features)
    desc = np.frombuffer(b"".join(f.descriptor for f in features), dtype=np.uint8)
    return FeatureSet(
        np.array([f.x for f in features], dtype=np.int64),
        np.array([f.y for f in features], dtype=np.int64),
        np.array([f.score for f in features], dtype=np.int64),
        np.array([f.orientation for f in features], dtype=np.float64),
        desc.reshape(n, DESCRIPTOR_BITS // 8),
    )


def vector_batch(vectors):
    """A list of `FlowVector` records as a `VectorBatch`."""
    rows = [(v.x_prev, v.y_prev, v.dx, v.dy, v.best_score, v.second_score)
            for v in vectors]
    return VectorBatch(np.array(rows, dtype=np.int64).reshape(-1, 6))


def track_set(tracks):
    """A list of `Track` records as a `TrackSet`."""
    def offsets(counts):
        return np.cumsum([0] + counts, dtype=np.int64)

    return TrackSet(
        np.array([t.id for t in tracks], dtype=np.int64),
        np.array([p for t in tracks for p in t.points], dtype=np.int64).reshape(-1, 3),
        offsets([len(t.points) for t in tracks]),
        np.array([g for t in tracks for g in t.gaps], dtype=np.int64).reshape(-1, 2),
        offsets([len(t.gaps) for t in tracks]),
    )


# ---------------------------------------------------------------------------
# Feature engine, one corner at a time
# ---------------------------------------------------------------------------


def _check_margin(frame, x, y):
    if not (PATCH_RADIUS <= x < frame.width - PATCH_RADIUS
            and PATCH_RADIUS <= y < frame.height - PATCH_RADIUS):
        raise MarginError(
            f"corner ({x}, {y}) closer than {PATCH_RADIUS} px to the border of "
            f"a {frame.width}x{frame.height} frame"
        )


def compute_orientation(frame, corner):
    """Orientation of one corner via the patch intensity centroid."""
    x, y = corner
    _check_margin(frame, x, y)
    return float(compute_orientations(frame, np.array([x]), np.array([y]))[0])


def describe_brief(frame, corner, orientation):
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


def extract_features(frame, state):
    """Full engine pass as records: detect, budget, cap, orient and describe.

    Returns the feature list and the produced descriptor count the
    controller consumes (after the per-tile budget and the global cap).
    """
    features = list(describe_corners(frame, select_corners(frame, state)))
    return features, len(features)


def describe_per_corner(frame, corners):
    """`Feature` records for detector corners, built with the per-corner
    orientation and descriptor."""
    features = []
    for x, y, score in corners.tolist():
        orientation = compute_orientation(frame, (x, y))
        features.append(
            Feature(x, y, score, orientation, describe_brief(frame, (x, y), orientation))
        )
    return features


# ---------------------------------------------------------------------------
# Matcher, one pair at a time
# ---------------------------------------------------------------------------


def hamming(d1, d2):
    """Number of differing bits between two 256-bit descriptors."""
    if len(d1) * 8 != DESCRIPTOR_BITS or len(d2) * 8 != DESCRIPTOR_BITS:
        raise RangeError("descriptors must be 256 bits")
    return (int.from_bytes(d1, "little") ^ int.from_bytes(d2, "little")).bit_count()


def match_features_bruteforce(prev, curr, max_displacement):
    """All-pairs reference matcher over `Feature` lists, with the same gate
    and tie rules. `match_features` must be output-identical to this."""
    if max_displacement <= 0:
        raise RangeError(f"max_displacement must be positive, got {max_displacement}")
    curr_ranked = sorted(range(len(curr)), key=lambda i: (curr[i].y, curr[i].x, i))
    vectors = []
    for f in sorted(prev, key=lambda f: (f.y, f.x)):
        scored = []
        for rank, i in enumerate(curr_ranked):
            g = curr[i]
            cheb = max(abs(g.x - f.x), abs(g.y - f.y))
            if cheb <= max_displacement:
                scored.append((hamming(f.descriptor, g.descriptor), cheb, rank, g))
        if not scored:
            continue
        scored.sort(key=lambda t: t[:3])
        best_ham, _, _, g = scored[0]
        second = scored[1][0] if len(scored) > 1 else NO_COMPETITOR
        vectors.append(
            FlowVector(f.x, f.y, g.x - f.x, g.y - f.y, best_ham, second)
        )
    return vectors


# ---------------------------------------------------------------------------
# Track analysis, one vector and one candidate at a time
# ---------------------------------------------------------------------------


def link_tracks_reference(per_frame_vectors):
    """`link_tracks` as one dict `pop`/`setdefault` per vector, on records.

    A vector pops the track that ends at its previous-frame position, so only
    the first vector leaving a point continues it; its head is claimed with
    `setdefault`, so the first track reaching a point keeps it.
    """
    tracks = []
    open_ends = {}
    for t, vectors in enumerate(per_frame_vectors):
        for x, y, dx, dy, _, _ in vectors.rows.tolist():
            tail = (t - 1, x, y)
            head = (t, x + dx, y + dy)
            tid = open_ends.pop(tail, None)
            if tid is None:
                tid = len(tracks)
                tracks.append(Track(tid, [tail, head]))
            else:
                tracks[tid].points.append(head)
            open_ends.setdefault(head, tid)
    return tracks


def redetect_reference(tracks, max_gap, radius):
    """The original full scan over `Track` records: every start in the next
    max_gap frames is a candidate for every track end."""
    merged = [Track(t.id, list(t.points), list(t.gaps)) for t in tracks]
    alive = {t.id: t for t in merged}
    starts = {}
    for t in merged:
        starts.setdefault(t.start_frame, []).append(t)
    heap = [(t.end_frame, t.id) for t in merged]
    heapq.heapify(heap)
    consumed = set()
    while heap:
        end_frame, tid = heapq.heappop(heap)
        track = alive.get(tid)
        if track is None or tid in consumed or track.end_frame != end_frame:
            continue
        _, ex, ey = track.points[-1]
        best = None
        for start in range(end_frame + 2, end_frame + max_gap + 2):
            for cand in starts.get(start, ()):
                if cand.id == tid or cand.id in consumed or cand.id not in alive:
                    continue
                _, sx, sy = cand.points[0]
                cheb = max(abs(sx - ex), abs(sy - ey))
                if cheb > radius:
                    continue
                key = (cand.start_frame, cheb, sy, sx, cand.id)
                if best is None or key < best[0]:
                    best = (key, cand)
        if best is None:
            continue
        other = best[1]
        track.gaps.append((end_frame + 1, other.start_frame - 1))
        track.points.extend(other.points)
        track.gaps.extend(other.gaps)
        consumed.add(other.id)
        del alive[other.id]
        heapq.heappush(heap, (track.end_frame, tid))
    return [t for t in merged if t.id not in consumed]


# ---------------------------------------------------------------------------
# Scene rendering on full coordinate grids
# ---------------------------------------------------------------------------


def _bilinear_reference(texture, sx, sy, frame_index):
    """Bilinear sample at 2-D grids sx, sy with four 2-D fancy indexes."""
    h, w = texture.shape
    if sx.min() < 0 or sy.min() < 0 or sx.max() > w - 1 or sy.max() > h - 1:
        raise CoverageError(
            f"frame {frame_index}: motion samples the texture outside its bounds"
        )
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx = sx - x0
    fy = sy - y0
    if not fx.any() and not fy.any():
        return texture[y0, x0]
    x0 = np.minimum(x0, w - 2)
    y0 = np.minimum(y0, h - 2)
    fx = sx - x0
    fy = sy - y0
    val = (
        texture[y0, x0] * (1 - fx) * (1 - fy)
        + texture[y0, x0 + 1] * fx * (1 - fy)
        + texture[y0 + 1, x0] * (1 - fx) * fy
        + texture[y0 + 1, x0 + 1] * fx * fy
    )
    return np.floor(val + 0.5).astype(np.uint8)


def _motion_grid_reference(motion, t, base_x, base_y, center_tex):
    """Texture sample grids for frame t, given the frame-0 grids."""
    cx, cy = center_tex
    if motion.kind == "still" or t == 0:
        return base_x, base_y
    if motion.kind == "translate":
        vx, vy = motion.velocity
        return base_x - t * vx, base_y - t * vy
    if motion.kind == "rotate":
        a = -motion.omega * t
        c, s = math.cos(a), math.sin(a)
        dx, dy = base_x - cx, base_y - cy
        return cx + c * dx - s * dy, cy + s * dx + c * dy
    inv = motion.rate ** (-t)
    return cx + (base_x - cx) * inv, cy + (base_y - cy) * inv


def render_reference(texture, motion, n_frames, viewport, *, fov=None,
                     window_origin=(0, 0), stride=1):
    """`render_camera_sequence` as a meshgrid of frame-0 coordinates that
    every frame, still ones included, maps and samples in full."""
    if n_frames <= 0:
        raise RangeError("n_frames must be positive")
    vw, vh = viewport
    fw, fh = fov if fov is not None else (vw * stride, vh * stride)
    ox, oy = window_origin
    if ox + vw * stride > fw or oy + vh * stride > fh:
        raise CoverageError("window does not fit inside the field of view")
    base_off_x = (texture.width - fw) / 2
    base_off_y = (texture.height - fh) / 2
    if base_off_x < 0 or base_off_y < 0:
        raise CoverageError(
            f"texture {texture.width}x{texture.height} smaller than fov {fw}x{fh}"
        )
    center_tex = (base_off_x + (fw - 1) / 2, base_off_y + (fh - 1) / 2)
    cols = base_off_x + ox + stride * np.arange(vw, dtype=np.float64)
    rows = base_off_y + oy + stride * np.arange(vh, dtype=np.float64)
    base_x, base_y = np.meshgrid(cols, rows)
    frames = []
    for t in range(n_frames):
        sx, sy = _motion_grid_reference(motion, t, base_x, base_y, center_tex)
        pixels = _bilinear_reference(texture.pixels, sx, sy, t)
        frames.append(Frame(vw, vh, pixels))
    return frames
