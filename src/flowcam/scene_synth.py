"""Deterministic synthetic textures and motion sequences with analytic flow.

Procedural stand-ins for the printed test scenes: a blocky city-like texture
with strong corners, a foliage-like band-limited noise that is hard to track,
a sector wheel for rotation experiments and plain white noise. Sequences are
rendered by sampling the texture under a cumulative motion transform with
bilinear interpolation, so the true flow field is known in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CoverageError, FrameSizeError, RangeError
from .sensor_frontend import Frame, read_pgm, write_pgm

TEXTURE_KINDS = ("blocks", "foliage", "wheel", "noise")
MOTION_KINDS = ("translate", "zoom", "rotate", "still")

WHEEL_SECTORS = 12  # palette repeats every 3 sectors: 4-fold symmetric


@dataclass(frozen=True)
class TextureSpec:
    kind: str
    seed: int
    size: tuple[int, int]  # (width, height)

    def __post_init__(self) -> None:
        if self.kind not in TEXTURE_KINDS:
            raise RangeError(f"unknown texture kind {self.kind!r}")
        if self.size[0] < 64 or self.size[1] < 64:
            raise FrameSizeError(f"texture must be at least 64x64, got {self.size}")


@dataclass(frozen=True)
class MotionSpec:
    """Motion of the scene content in image pixels per frame."""

    kind: str
    velocity: tuple[float, float] = (0.0, 0.0)  # translate
    rate: float = 1.0  # zoom: scale factor per frame
    omega: float = 0.0  # rotate: radians per frame
    center: tuple[float, float] | None = None  # zoom/rotate pivot

    def __post_init__(self) -> None:
        if self.kind not in MOTION_KINDS:
            raise RangeError(f"unknown motion kind {self.kind!r}")
        fields = {"velocity": self.velocity, "rate": (self.rate,),
                  "omega": (self.omega,), "center": self.center or ()}
        for name, values in fields.items():
            if not all(math.isfinite(v) for v in values):
                raise RangeError(f"motion {name} must be finite, got {getattr(self, name)}")
        if self.kind == "zoom" and self.rate <= 0:
            raise RangeError("zoom rate must be positive")


def generate_texture(spec: TextureSpec) -> Frame:
    """Deterministic texture for a spec; same spec gives identical pixels."""
    w, h = spec.size
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "blocks":
        pixels = _blocks(rng, w, h)
    elif spec.kind == "foliage":
        pixels = _foliage(rng, w, h)
    elif spec.kind == "wheel":
        pixels = _wheel(rng, w, h)
    else:
        pixels = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    return Frame(w, h, pixels)


def _blocks(rng: np.random.Generator, w: int, h: int) -> np.ndarray:
    """City-like texture: many axis-aligned rectangles of random intensity."""
    pixels = np.full((h, w), 32, dtype=np.uint8)
    n_rects = max(64, (w * h) // 550)
    xs = rng.integers(0, w - 8, size=n_rects)
    ys = rng.integers(0, h - 8, size=n_rects)
    ws = rng.integers(6, 40, size=n_rects)
    hs = rng.integers(6, 40, size=n_rects)
    vals = rng.integers(0, 256, size=n_rects)
    for x, y, rw, rh, v in zip(xs, ys, ws, hs, vals):
        pixels[y : y + rh, x : x + rw] = v
    return pixels


def _foliage(rng: np.random.Generator, w: int, h: int) -> np.ndarray:
    """Band-limited noise: smoothed white noise, low contrast structure."""
    noise = rng.normal(0.0, 1.0, size=(h, w))
    for _ in range(2):
        _box_blur(noise, 2)
    lo, hi = noise.min(), noise.max()
    # floor((noise - lo) / (hi - lo) * 255 + 0.5), one step at a time in place
    noise -= lo
    noise /= hi - lo
    noise *= 255
    noise += 0.5
    return np.floor(noise, out=noise).astype(np.uint8)


def _box_blur(img: np.ndarray, radius: int) -> None:
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


def _wheel(rng: np.random.Generator, w: int, h: int) -> np.ndarray:
    """Gray sector wheel, 12 sectors with a 3-value palette (4-fold symmetric)."""
    palette = rng.permutation(np.array([40, 130, 220], dtype=np.uint8))
    yy, xx = np.ogrid[0:h, 0:w]
    theta = np.arctan2(yy - (h - 1) / 2, xx - (w - 1) / 2)
    theta %= 2 * math.pi
    theta /= 2 * math.pi / WHEEL_SECTORS
    sector = np.floor(theta, out=theta).astype(int)
    sector %= WHEEL_SECTORS
    sector %= 3
    return palette[sector]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _bilinear(texture: np.ndarray, sx: np.ndarray, sy: np.ndarray,
              frame_index: int) -> np.ndarray:
    """Sample `texture` bilinearly at (sx, sy), rounded to uint8.

    sx and sy broadcast to the output shape: a `(1, w)` row of columns and
    an `(h, 1)` column of rows for a separable map, full grids otherwise.
    The four corners are gathered from the flat texture at `y0*w + x0` and
    its `+1`, `+w`, `+w+1` neighbours, so the result is a fresh row-major
    array of the broadcast shape. (Gathering columns of a row block, as in
    `texture[y0][:, x0]`, gives the same pixels in Fortran order, and every
    kernel's `ravel()` would then copy the frame.)
    """
    h, w = texture.shape
    # Written so that a NaN coordinate fails the check too.
    if not (sx.min() >= 0 and sy.min() >= 0 and sx.max() <= w - 1 and sy.max() <= h - 1):
        raise CoverageError(
            f"frame {frame_index}: motion samples the texture outside its bounds"
        )
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx = sx - x0
    fy = sy - y0
    flat = texture.ravel()
    if not fx.any() and not fy.any():
        return flat[y0 * w + x0]
    x0 = np.minimum(x0, w - 2)
    y0 = np.minimum(y0, h - 2)
    fx = sx - x0
    fy = sy - y0
    gx, gy = 1 - fx, 1 - fy
    idx = y0 * w + x0
    # The float64 weights promote the gathered corners exactly; converting
    # the whole texture instead would copy it once per rendered frame. The
    # sum keeps the order T00*gx*gy + T01*fx*gy + T10*gx*fy + T11*fx*fy.
    val = flat[idx] * gx
    val *= gy
    term = np.multiply(flat[1:][idx], fx)
    term *= gy
    val += term
    np.multiply(flat[w:][idx], gx, out=term)
    term *= fy
    val += term
    np.multiply(flat[w + 1:][idx], fx, out=term)
    term *= fy
    val += term
    val += 0.5
    return np.floor(val, out=val).astype(np.uint8)


def _sample_coords(
    motion: MotionSpec,
    t: int,
    cols: np.ndarray,
    rows: np.ndarray,
    center_tex: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray]:
    """Texture sample coordinates for frame t.

    `cols` is the `(1, w)` row of frame-0 texture columns and `rows` the
    `(h, 1)` column of frame-0 texture rows. Translate and zoom maps are
    separable and keep those shapes; rotate broadcasts them to full grids.
    """
    if t == 0:
        return cols, rows
    cx, cy = center_tex
    if motion.kind == "translate":
        vx, vy = motion.velocity
        return cols - t * vx, rows - t * vy
    dx, dy = cols - cx, rows - cy
    if motion.kind == "rotate":
        # Content rotates by +omega per frame; sample with the inverse map.
        a = -motion.omega * t
        c, s = math.cos(a), math.sin(a)
        return cx + c * dx - s * dy, cy + s * dx + c * dy
    # zoom: content scales by `rate` per frame about the center
    inv = motion.rate ** (-t)
    return cx + dx * inv, cy + dy * inv


def render_camera_sequence(
    texture: Frame,
    motion: MotionSpec,
    n_frames: int,
    viewport: tuple[int, int],
    *,
    fov: tuple[int, int] | None = None,
    window_origin: tuple[int, int] = (0, 0),
    stride: int = 1,
) -> list[Frame]:
    """Render what a sensor window sees of a moving scene.

    The scene fills a field of view of `fov` pixels centered in the texture;
    the recorded window reads `viewport` pixels starting at `window_origin`
    with the given sampling stride (1 for crop-only, 2/4 for sub-sampled
    readout). Motion is expressed in field-of-view pixels per frame.

    A still scene is rendered once: every frame shares one read-only pixel
    buffer.
    """
    if n_frames <= 0:
        raise RangeError("n_frames must be positive")
    vw, vh = viewport
    fw, fh = fov if fov is not None else (vw * stride, vh * stride)
    ox, oy = window_origin
    if ox + vw * stride > fw or oy + vh * stride > fh:
        raise CoverageError("window does not fit inside the field of view")

    tex = texture.pixels
    base_off_x = (texture.width - fw) / 2
    base_off_y = (texture.height - fh) / 2
    if base_off_x < 0 or base_off_y < 0:
        raise CoverageError(
            f"texture {texture.width}x{texture.height} smaller than fov {fw}x{fh}"
        )
    center_tex = (base_off_x + (fw - 1) / 2, base_off_y + (fh - 1) / 2)

    cols = base_off_x + ox + stride * np.arange(vw, dtype=np.float64)[None, :]
    rows = base_off_y + oy + stride * np.arange(vh, dtype=np.float64)[:, None]

    if motion.kind == "still":
        pixels = _bilinear(tex, cols, rows, 0)
        pixels.flags.writeable = False
        return [Frame(vw, vh, pixels) for _ in range(n_frames)]
    frames = []
    for t in range(n_frames):
        sx, sy = _sample_coords(motion, t, cols, rows, center_tex)
        pixels = _bilinear(tex, sx, sy, t)
        frames.append(Frame(vw, vh, pixels))
    return frames


def render_sequence(
    texture: Frame,
    motion: MotionSpec,
    n_frames: int,
    viewport: tuple[int, int],
) -> list[Frame]:
    """Render a centered viewport of the texture under the given motion."""
    vw, vh = viewport
    if motion.kind == "translate" and (texture.width < 2 * vw or texture.height < 2 * vh):
        raise CoverageError(
            f"translate needs a texture at least twice the viewport, got "
            f"{texture.width}x{texture.height} for {vw}x{vh}"
        )
    return render_camera_sequence(texture, motion, n_frames, viewport)


def ground_truth_flow(
    motion: MotionSpec, point: tuple[float, float], t: int = 0
) -> tuple[float, float]:
    """Closed-form displacement of the content at `point`, frame t to t+1."""
    if motion.kind == "still":
        return (0.0, 0.0)
    if motion.kind == "translate":
        return (float(motion.velocity[0]), float(motion.velocity[1]))
    if motion.center is None:
        raise RangeError(f"{motion.kind} motion needs a center")
    cx, cy = motion.center
    px, py = point[0] - cx, point[1] - cy
    if motion.kind == "rotate":
        c, s = math.cos(motion.omega), math.sin(motion.omega)
        return (c * px - s * py - px, s * px + c * py - py)
    return ((motion.rate - 1) * px, (motion.rate - 1) * py)


def mean_ground_truth_flow(motion: MotionSpec) -> tuple[float, float]:
    """Area-mean flow over a viewport centered on the motion pivot.

    Translation is spatially constant; rotation and zoom fields average to
    zero over a symmetric window; standstill is zero.
    """
    if motion.kind == "translate":
        return (float(motion.velocity[0]), float(motion.velocity[1]))
    return (0.0, 0.0)


# ---------------------------------------------------------------------------
# Sequence directories
# ---------------------------------------------------------------------------

def save_sequence(
    directory: str | Path,
    frames: list[Frame],
    ground_truth: list[tuple[float, float]],
    manifest: dict[str, object],
) -> None:
    """Write numbered PGM frames, the ground-truth CSV and a manifest."""
    from .track_analyzer import write_ground_truth_csv

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames, start=1):
        write_pgm(frame, directory / f"frame_{i:06d}.pgm")
    write_ground_truth_csv(directory / "ground_truth.csv", ground_truth)
    lines = [f"{key}={value}" for key, value in manifest.items()]
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_sequence(directory: str | Path) -> list[Frame]:
    directory = Path(directory)
    paths = sorted(directory.glob("frame_*.pgm"))
    if not paths:
        raise FrameSizeError(f"no frame_*.pgm files in {directory}")
    return [read_pgm(path) for path in paths]


def load_manifest(directory: str | Path) -> dict[str, str]:
    path = Path(directory) / "manifest.txt"
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and "=" in line:
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out
