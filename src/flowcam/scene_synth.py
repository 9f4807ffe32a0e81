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
        noise = _box_blur(noise, 2)
    lo, hi = noise.min(), noise.max()
    return np.floor((noise - lo) / (hi - lo) * 255 + 0.5).astype(np.uint8)


def _box_blur(img: np.ndarray, radius: int) -> np.ndarray:
    size = 2 * radius + 1
    padded = np.pad(img, radius, mode="edge")
    csum = np.cumsum(padded, axis=0)
    csum = np.vstack([np.zeros((1, padded.shape[1])), csum])
    vert = (csum[size:] - csum[:-size]) / size
    csum = np.cumsum(vert, axis=1)
    csum = np.hstack([np.zeros((vert.shape[0], 1)), csum])
    return (csum[:, size:] - csum[:, :-size]) / size


def _wheel(rng: np.random.Generator, w: int, h: int) -> np.ndarray:
    """Gray sector wheel, 12 sectors with a 3-value palette (4-fold symmetric)."""
    palette = rng.permutation(np.array([40, 130, 220], dtype=np.uint8))
    yy, xx = np.mgrid[0:h, 0:w]
    theta = np.arctan2(yy - (h - 1) / 2, xx - (w - 1) / 2) % (2 * math.pi)
    sector = np.floor(theta / (2 * math.pi / WHEEL_SECTORS)).astype(int) % WHEEL_SECTORS
    return palette[sector % 3]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _bilinear(texture: np.ndarray, sx: np.ndarray, sy: np.ndarray,
              frame_index: int) -> np.ndarray:
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
    # The float64 weights promote the gathered corners exactly; converting
    # the whole texture instead would copy it once per rendered frame.
    val = (
        texture[y0, x0] * (1 - fx) * (1 - fy)
        + texture[y0, x0 + 1] * fx * (1 - fy)
        + texture[y0 + 1, x0] * (1 - fx) * fy
        + texture[y0 + 1, x0 + 1] * fx * fy
    )
    return np.floor(val + 0.5).astype(np.uint8)


def _motion_offset_grid(
    motion: MotionSpec,
    t: int,
    base_x: np.ndarray,
    base_y: np.ndarray,
    center_tex: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray]:
    """Texture sample coordinates for frame t, given base (frame 0) coords."""
    cx, cy = center_tex
    if motion.kind == "still" or t == 0:
        return base_x, base_y
    if motion.kind == "translate":
        vx, vy = motion.velocity
        return base_x - t * vx, base_y - t * vy
    if motion.kind == "rotate":
        # Content rotates by +omega per frame; sample with the inverse map.
        a = -motion.omega * t
        c, s = math.cos(a), math.sin(a)
        dx, dy = base_x - cx, base_y - cy
        return cx + c * dx - s * dy, cy + s * dx + c * dy
    # zoom: content scales by `rate` per frame about the center
    inv = motion.rate ** (-t)
    return cx + (base_x - cx) * inv, cy + (base_y - cy) * inv


def render_camera_sequence(
    texture: Frame,
    motion: MotionSpec,
    n_frames: int,
    viewport: tuple[int, int],
    *,
    fov: tuple[int, int] | None = None,
    window_origin: tuple[int, int] = (0, 0),
    stride: int = 1,
    frame_rate: float = 0.0,
) -> list[Frame]:
    """Render what a sensor window sees of a moving scene.

    The scene fills a field of view of `fov` pixels centered in the texture;
    the recorded window reads `viewport` pixels starting at `window_origin`
    with the given sampling stride (1 for crop-only, 2/4 for sub-sampled
    readout). Motion is expressed in field-of-view pixels per frame.
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

    cols = base_off_x + ox + stride * np.arange(vw, dtype=np.float64)
    rows = base_off_y + oy + stride * np.arange(vh, dtype=np.float64)
    base_x, base_y = np.meshgrid(cols, rows)

    frames = []
    dt = 1.0 / frame_rate if frame_rate > 0 else 0.0
    for t in range(n_frames):
        sx, sy = _motion_offset_grid(motion, t, base_x, base_y, center_tex)
        pixels = _bilinear(tex, sx, sy, t)
        frames.append(Frame(vw, vh, pixels, index=t, timestamp=t * dt))
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
    return [read_pgm(path, index=i) for i, path in enumerate(paths)]


def load_manifest(directory: str | Path) -> dict[str, str]:
    path = Path(directory) / "manifest.txt"
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and "=" in line:
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out
