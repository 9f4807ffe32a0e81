"""Reference formulations and record types the tests compare the pipeline
against, with no caller in `src/`.

The pipeline keeps corners, features, vectors and tracks as NumPy batches.
The helpers here work one corner, pair, vector or track at a time on the
record types (`Feature`, `FlowVector`, and the `Track` defined here). The
converters at the top turn record lists into the batch types and back. The
closed-form flow of a motion, the config-file writer that `load_config`
is round-tripped against, block binning as a reshaped block mean, a scene
renderer that samples full 2-D coordinate grids for every frame, the
sector wheel texture computed on the whole grid at once, and the foliage
texture blurred through one edge-padded copy of the whole noise field
follow. The feature engine's section also holds orientation from exact
integer moments of the disc pixels and description from each bin's rotated
pair table, both read from a frame by 2-D index; `patch_frame` lays a
patch block out as such a frame.
"""

import heapq
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from flowcam.errors import CoverageError, MarginError, RangeError
from flowcam.feature_engine import (
    _ROTATED,
    DESCRIPTOR_BITS,
    ORIENTATION_BINS,
    PATCH_RADIUS,
    Feature,
    FeatureSet,
    _corner_patches,
    compute_orientations,
    describe_batch,
    describe_corners,
    select_corners,
)
from flowcam.matcher import NO_COMPETITOR, FlowVector, VectorBatch
from flowcam.scene_synth import WHEEL_SECTORS
from flowcam.sensor_frontend import Frame
from flowcam.track_analyzer import TrackSet

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


@dataclass
class Track:
    """One physical feature followed across frames, as a record."""

    id: int
    points: list[tuple[int, int, int]]  # (frame index, x, y)
    gaps: list[tuple[int, int]] = field(default_factory=list)

    @property
    def start_frame(self) -> int:
        return self.points[0][0]

    @property
    def end_frame(self) -> int:
        return self.points[-1][0]

    @property
    def length(self) -> int:
        return len(self.points)


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


def tracks(track_set):
    """The `Track` records of a `TrackSet`, in its order."""
    points = list(map(tuple, track_set.points.tolist()))
    gaps = list(map(tuple, track_set.gaps.tolist()))
    po, go = track_set.offsets.tolist(), track_set.gap_offsets.tolist()
    for k, tid in enumerate(track_set.ids.tolist()):
        yield Track(tid, points[po[k]:po[k + 1]], gaps[go[k]:go[k + 1]])


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
    patches = _corner_patches(frame, np.array([x]), np.array([y]))
    return float(compute_orientations(patches)[0])


def describe_brief(frame, corner, orientation):
    """256-bit descriptor: bit i set when intensity at p_i < intensity at q_i.

    The point pairs come from the fixed table shipped with the package,
    rotated by the orientation quantized to 12-degree steps and sampled with
    nearest-neighbor lookup.
    """
    x, y = corner
    _check_margin(frame, x, y)
    packed = describe_batch(_corner_patches(frame, np.array([x]), np.array([y])),
                            np.array([orientation], dtype=np.float64))
    return packed[0].tobytes()


def _disc_offsets(radius):
    span = np.arange(-radius, radius + 1)
    dx, dy = np.meshgrid(span, span)
    inside = dx * dx + dy * dy <= radius * radius
    return dx[inside].astype(np.int64), dy[inside].astype(np.int64)


DISC_DX, DISC_DY = _disc_offsets(PATCH_RADIUS)


def orientations_reference(frame, xs, ys):
    """Intensity-centroid angles of the corners at (xs, ys) from exact int64
    moments over the disc pixels, gathered by 2-D index."""
    vals = frame.pixels[ys[:, None] + DISC_DY, xs[:, None] + DISC_DX].astype(np.int64)
    m10 = vals @ DISC_DX
    m01 = vals @ DISC_DY
    angles = np.arctan2(m01.astype(np.float64), m10.astype(np.float64))
    angles[angles < 0] += 2 * math.pi
    angles[angles >= 2 * math.pi] = 0.0
    return angles


def describe_reference(frame, xs, ys, orientations):
    """BRIEF bits of the corners at (xs, ys), each pair of its bin's rotated
    table sampled by 2-D index."""
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


def patch_frame(patches):
    """An (n, 961) patch block as a frame of the n 31x31 patches stacked top to
    bottom, with the patch centres, for the two references above."""
    side = 2 * PATCH_RADIUS + 1
    n = len(patches)
    ys = np.arange(n, dtype=np.int64) * side + PATCH_RADIUS
    return Frame(patches.reshape(n * side, side)), np.full(n, PATCH_RADIUS), ys


def extract_features(frame, threshold, tile_budget, brief_max):
    """Full engine pass as records: detect, budget, cap, orient and describe.

    Returns the feature list and the produced descriptor count the
    controller consumes (after the per-tile budget and the global cap).
    """
    corners = select_corners(frame, threshold, tile_budget, brief_max)
    features = list(describe_corners(frame, corners))
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
# Closed-form flow and config files
# ---------------------------------------------------------------------------


def ground_truth_flow(motion, point, fov):
    """Closed-form displacement of the content at `point` from one frame to
    the next, in a field of view of `fov` (width, height) pixels; zoom and
    rotation pivot on its centre, as rendering does."""
    if motion.kind == "still":
        return (0.0, 0.0)
    if motion.kind == "translate":
        return (float(motion.velocity[0]), float(motion.velocity[1]))
    cx, cy = (fov[0] - 1) / 2, (fov[1] - 1) / 2
    px, py = point[0] - cx, point[1] - cy
    if motion.kind == "rotate":
        c, s = math.cos(motion.omega), math.sin(motion.omega)
        return (c * px - s * py - px, s * px + c * py - py)
    return ((motion.rate - 1) * px, (motion.rate - 1) * py)


def save_config(config, path):
    """Write `config` as the key=value file `load_config` reads back."""
    lines = [
        f"out_width={config.out_width}",
        f"out_height={config.out_height}",
        f"crop_x={config.crop_origin[0]}",
        f"crop_y={config.crop_origin[1]}",
        f"subsample_factor={config.subsample_factor}",
        f"subsample_mode={config.subsample_mode}",
        f"frame_rate={config.frame_rate:g}",
        f"brief_target={config.brief_target}",
        f"brief_max={config.brief_max}",
        f"tile_budget={config.tile_budget}",
        f"max_displacement={config.max_displacement}",
        f"ratio_threshold={config.ratio_threshold:g}",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Block binning by a reshaped block mean
# ---------------------------------------------------------------------------


def bin_blocks_reference(pixels, factor):
    """Round-half-up mean of each factor x factor block of an array whose
    sides are multiples of `factor`, summed over a reshaped block axis."""
    h, w = pixels.shape
    blocks = pixels.astype(np.int64).reshape(h // factor, factor, w // factor, factor)
    n = factor * factor
    return ((blocks.sum(axis=(1, 3)) + n // 2) // n).astype(np.uint8)


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
        frames.append(Frame(pixels))
    return frames


def wheel_reference(rng, w, h):
    """`scene_synth._wheel` on the whole grid: `np.remainder` of the angle
    and an int64 `% 12 % 3` into the shuffled palette."""
    palette = rng.permutation(np.array([40, 130, 220], dtype=np.uint8))
    yy, xx = np.ogrid[0:h, 0:w]
    theta = np.arctan2(yy - (h - 1) / 2, xx - (w - 1) / 2)
    theta %= 2 * math.pi
    theta /= 2 * math.pi / WHEEL_SECTORS
    sector = np.floor(theta).astype(np.int64)
    return palette[sector % WHEEL_SECTORS % 3]


def foliage_reference(rng, w, h):
    """`scene_synth._foliage` with `box_blur_reference` for its blurs."""
    noise = rng.normal(0.0, 1.0, size=(h, w))
    for _ in range(2):
        box_blur_reference(noise, 2)
    lo, hi = noise.min(), noise.max()
    # floor((noise - lo) / (hi - lo) * 255 + 0.5), one step at a time in place
    noise -= lo
    noise /= hi - lo
    noise *= 255
    noise += 0.5
    return np.floor(noise, out=noise).astype(np.uint8)


def box_blur_reference(img, radius):
    """Replace `img` by its mean over a (2r+1)-square with edge padding.

    A window sum is the difference of two prefix sums `size` apart; the
    first window's is the prefix sum itself (the same bits as subtracting
    the zero prefix). Padding copies `img`, so the result is written back
    into it: the padded buffer is the only one allocated.
    """
    size = 2 * radius + 1
    padded = np.pad(img, radius, mode="edge")
    # Column prefix sums one row at a time: the same additions in the same
    # order as np.cumsum(axis=0), which walks each column at a row stride
    # and is about four times slower on a large texture.
    for i in range(1, padded.shape[0]):
        padded[i] += padded[i - 1]
    # Window differences in place, bottom row first, so every prefix row is
    # read before it is overwritten.
    for i in range(padded.shape[0] - 1, size - 1, -1):
        padded[i] -= padded[i - size]
    vert = padded[size - 1:]
    vert /= size
    np.cumsum(vert, axis=1, out=vert)
    img[:, 0] = vert[:, size - 1]
    np.subtract(vert[:, size:], vert[:, :-size], out=img[:, 1:])
    img /= size
