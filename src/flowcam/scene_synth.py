"""Deterministic synthetic textures and motion sequences with analytic flow.

Procedural stand-ins for the printed test scenes: a blocky city-like texture
with strong corners, a foliage-like band-limited noise that is hard to track,
a sector wheel for rotation experiments and plain white noise. Sequences are
rendered by sampling the texture under a cumulative motion transform with
bilinear interpolation, so the true flow field is known in closed form.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CoverageError, FlowcamError, FrameSizeError, RangeError
from .sensor_frontend import Frame, read_pgm, write_pgm

TEXTURE_KINDS = ("blocks", "foliage", "wheel", "noise")
MOTION_KINDS = ("translate", "zoom", "rotate", "still")

WHEEL_SECTORS = 12  # palette repeats every 3 sectors: 4-fold symmetric

# Frames, the wheel texture and the foliage blur are computed in row bands
# of about this many pixels, so that each band's float64 temporaries stay
# in cache: about ten of them live at once while a rotated band is sampled.
_RENDER_BAND = 1 << 14


@dataclass(frozen=True)
class TextureSpec:
    kind: str
    seed: int
    size: tuple[int, int]  # (width, height)

    def __post_init__(self) -> None:
        if self.kind not in TEXTURE_KINDS:
            raise RangeError(f"unknown texture kind {self.kind!r}")
        if self.seed < 0:
            raise RangeError(f"texture seed must be non-negative, got {self.seed}")
        if self.size[0] < 64 or self.size[1] < 64:
            raise FrameSizeError(f"texture must be at least 64x64, got {self.size}")


@dataclass(frozen=True)
class MotionSpec:
    """Motion of the scene content in image pixels per frame.

    Zoom and rotation pivot on the centre of the rendered field of view.
    """

    kind: str
    velocity: tuple[float, float] = (0.0, 0.0)  # translate
    rate: float = 1.0  # zoom: scale factor per frame
    omega: float = 0.0  # rotate: radians per frame

    def __post_init__(self) -> None:
        if self.kind not in MOTION_KINDS:
            raise RangeError(f"unknown motion kind {self.kind!r}")
        fields = {"velocity": self.velocity, "rate": (self.rate,), "omega": (self.omega,)}
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
    return Frame(pixels)


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

    Works in place, in bands of about `_RENDER_BAND` pixels. With P[p] the
    column prefix sum of the edge-padded image down to padded row p and
    P[-1] = 0, output row i is the window sum P[i+2r] - P[i-1] over `size`,
    then the same prefix sum and window difference along the row. `prefix`
    row k holds P[i0-1+k] for the band from output row i0; its first `size`
    rows carry over from the previous band. A band writes its rows after
    reading image rows up to r below them, which no earlier band wrote. The
    additions and divisions are those of a whole-image prefix-sum blur, in
    the same order, so the result has the same bits.
    """
    size = 2 * radius + 1
    h, w = img.shape
    rows = max(1, _RENDER_BAND // w)
    prefix = np.empty((size + rows, w + 2 * radius))
    window = np.empty((rows, w + 2 * radius))
    prefix[0] = 0
    lo = 1  # first prefix row the band computes
    for i0 in range(0, h, rows):
        n = min(rows, h - i0)
        hi = size + n
        # Padded rows i0-1+lo .. i0-2+hi are the image rows `radius` above
        # them, clipped to the image (the row edge of np.pad(mode="edge")),
        # with each row's end pixels repeated (the column edge).
        src = np.clip(np.arange(i0 - 1 + lo, i0 - 1 + hi) - radius, 0, h - 1)
        band = prefix[lo:hi]
        band[:, radius : radius + w] = img[src]
        band[:, :radius] = band[:, radius : radius + 1]
        band[:, radius + w :] = band[:, radius + w - 1 : radius + w]
        # Column prefix sums one row at a time: the same additions in the
        # same order as np.cumsum(axis=0), which walks each column at a row
        # stride and is about four times slower on a large texture. P[0] is
        # padded row 0 itself.
        for k in range(lo + (i0 == 0), hi):
            prefix[k] += prefix[k - 1]
        sums = window[:n]
        np.subtract(prefix[size:hi], prefix[:n], out=sums)
        sums /= size
        np.cumsum(sums, axis=1, out=sums)
        out = img[i0 : i0 + n]
        out[:, 0] = sums[:, size - 1]
        np.subtract(sums[:, size:], sums[:, :-size], out=out[:, 1:])
        out /= size
        prefix[:size] = prefix[n:hi]
        lo = size


def _wheel(rng: np.random.Generator, w: int, h: int) -> np.ndarray:
    """Gray sector wheel, 12 sectors with a 3-value palette (4-fold symmetric).

    Rows are filled `_RENDER_BAND` pixels at a time. On arctan2's range
    [-pi, pi], `theta % 2pi` is theta plus 2pi where theta is negative (a
    -0.0 stays in sector 0). The floored sector indexes a 13-entry gray
    table whose last entry is sector 0's, for a quotient that rounds up to
    exactly 12.
    """
    palette = rng.permutation(np.array([40, 130, 220], dtype=np.uint8))
    gray = palette[np.arange(WHEEL_SECTORS + 1) % WHEEL_SECTORS % 3]
    dx = np.arange(w) - (w - 1) / 2
    dy = np.arange(h)[:, None] - (h - 1) / 2
    pixels = np.empty((h, w), dtype=np.uint8)
    rows = max(1, _RENDER_BAND // w)
    for r0 in range(0, h, rows):
        theta = np.arctan2(dy[r0 : r0 + rows], dx)
        np.add(theta, 2 * math.pi, out=theta, where=theta < 0)
        theta /= 2 * math.pi / WHEEL_SECTORS
        np.floor(theta, out=theta)
        pixels[r0 : r0 + rows] = gray[theta.astype(np.intp)]
    return pixels


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _covers(lo: float, hi: float, n: int, frame_index: int) -> None:
    """Raise `CoverageError` unless the samples from `lo` to `hi` lie on a
    texture axis of n pixels."""
    # Written so that a NaN bound fails the check too.
    if not (lo >= 0 and hi <= n - 1):
        raise CoverageError(
            f"frame {frame_index}: motion samples the texture outside its bounds"
        )


def _sum_bounds(row: np.ndarray, col: np.ndarray) -> tuple[float, float]:
    """Min and max of `row + col` over the grid of a `(1, w)` row term and an
    `(r, 1)` column term, without building the grid.

    Rounding is monotone, so the least rounded sum is the rounded sum of the
    least terms, and likewise the greatest. A NaN or an inf term gives a NaN
    or an infinite bound.
    """
    return row.min() + col.min(), row.max() + col.max()


def _axis(coords: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The bilinear terms of sample coordinates inside a texture axis of n
    pixels: the corners, clamped to n - 2 and then floored, and the
    fractions from them.

    Clamping first gives the one fraction bilinear sampling needs, 1 at the
    axis's last pixel. The corners stay float64, exact integers.
    """
    c0 = np.minimum(coords, n - 2)
    np.floor(c0, out=c0)
    return c0, coords - c0


def _bilinear(texture: np.ndarray, x: tuple, y: tuple, out: np.ndarray) -> None:
    """Sample `texture` bilinearly into the uint8 band `out`, rounded half
    up, from the `_axis` terms of its columns `x` and rows `y`.

    The terms broadcast to the band's shape: a `(1, w)` row of columns and
    an `(r, 1)` column of rows for a separable map, full bands otherwise.
    The flat index `y0*w + x0` is built once, in float64, where it is exact,
    and the texture is gathered with `take` there and at its `+1`, `+w` and
    `+w+1` neighbours. The corners' buffers then take the weights, so the
    terms are used up. A sample on a pixel gets that pixel exactly: its
    other corners weigh zero.
    """
    w = texture.shape[1]
    flat = texture.ravel()
    x0, fx = x
    y0, fy = y
    idx = (y0 * w + x0).astype(np.intp)
    gx = np.subtract(1, fx, out=x0)
    gy = np.subtract(1, fy, out=y0)
    # The float64 weights promote the gathered corners exactly; converting
    # the whole texture instead would copy it once per rendered frame. The
    # sum keeps the order T00*gx*gy + T01*fx*gy + T10*gx*fy + T11*fx*fy.
    val = flat.take(idx) * gx
    val *= gy
    term = np.multiply(flat[1:].take(idx), fx)
    term *= gy
    val += term
    np.multiply(flat[w:].take(idx), gx, out=term)
    term *= fy
    val += term
    np.multiply(flat[w + 1:].take(idx), fx, out=term)
    term *= fy
    val += term
    val += 0.5
    out[...] = np.floor(val, out=val)


def _sample_coords(
    motion: MotionSpec,
    t: int,
    cols: np.ndarray,
    rows: np.ndarray,
    center_tex: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray]:
    """Texture sample coordinates of frame t under a separable map.

    `cols` is the `(1, w)` row of frame-0 texture columns and `rows` an
    `(r, 1)` column of frame-0 texture rows. Translate and zoom keep those
    shapes.
    """
    if t == 0:
        return cols, rows
    cx, cy = center_tex
    if motion.kind == "translate":
        vx, vy = motion.velocity
        return cols - t * vx, rows - t * vy
    # zoom: content scales by `rate` per frame about the center
    inv = motion.rate ** (-t)
    return cx + (cols - cx) * inv, cy + (rows - cy) * inv


def _rotation_terms(
    motion: MotionSpec,
    t: int,
    cols: np.ndarray,
    rows: np.ndarray,
    center_tex: tuple[float, float],
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The sample coordinates of rotated frame t as (row, column) terms per
    axis: x = xr + xc and y = yr + yc on the grid of the `(1, w)` row terms
    and the `(r, 1)` column terms.

    Content rotates by +omega per frame, so the frame samples the texture
    through the inverse map `cx + c*dx - s*dy`, `cy + s*dx + c*dy`. Negation
    is exact, so adding `-s*dy` rounds as subtracting `s*dy` does.
    """
    cx, cy = center_tex
    a = -motion.omega * t
    c, s = math.cos(a), math.sin(a)
    dx, dy = cols - cx, rows - cy
    return (cx + c * dx, -s * dy), (cy + s * dx, c * dy)


def _render_frame(
    texture: np.ndarray,
    motion: MotionSpec,
    t: int,
    cols: np.ndarray,
    rows: np.ndarray,
    center_tex: tuple[float, float],
) -> np.ndarray:
    """Frame t as one row-major uint8 buffer, sampled in row bands of
    about `_RENDER_BAND` pixels.

    Coverage is checked once per frame, before any band is sampled. A
    separable map's coordinates are computed once per frame, and a map whose
    samples all lie on pixels is gathered directly. A rotation adds its row
    and column terms into each band's full grid.
    """
    h, w = texture.shape
    flat = texture.ravel()
    pixels = np.empty((rows.shape[0], cols.shape[1]), dtype=np.uint8)
    band = max(1, _RENDER_BAND // cols.shape[1])
    if motion.kind == "rotate" and t != 0:
        (xr, xc), (yr, yc) = _rotation_terms(motion, t, cols, rows, center_tex)
        _covers(*_sum_bounds(xr, xc), w, t)
        _covers(*_sum_bounds(yr, yc), h, t)
        for r0 in range(0, rows.shape[0], band):
            _bilinear(texture, _axis(xr + xc[r0 : r0 + band], w),
                      _axis(yr + yc[r0 : r0 + band], h), pixels[r0 : r0 + band])
        return pixels
    sx, sy = _sample_coords(motion, t, cols, rows, center_tex)
    _covers(sx.min(), sx.max(), w, t)
    _covers(sy.min(), sy.max(), h, t)
    if (sx == np.floor(sx)).all() and (sy == np.floor(sy)).all():
        x_on, y_on = sx.astype(np.intp), sy.astype(np.intp)
        for r0 in range(0, rows.shape[0], band):
            pixels[r0 : r0 + band] = flat.take(y_on[r0 : r0 + band] * w + x_on)
        return pixels
    for r0 in range(0, rows.shape[0], band):
        _bilinear(texture, _axis(sx, w), _axis(sy[r0 : r0 + band], h),
                  pixels[r0 : r0 + band])
    return pixels


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
        pixels = _render_frame(tex, motion, 0, cols, rows, center_tex)
        pixels.flags.writeable = False
        return [Frame(pixels) for _ in range(n_frames)]
    return [
        Frame(_render_frame(tex, motion, t, cols, rows, center_tex))
        for t in range(n_frames)
    ]


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
    """Read the `frame_<n>.pgm` files of a directory in the order of n."""
    directory = Path(directory)
    paths: dict[int, Path] = {}
    for path in sorted(directory.glob("frame_*.pgm")):
        number = re.fullmatch(r"frame_([0-9]+)\.pgm", path.name)
        if number is None:
            raise FlowcamError(f"{path}: frame files must be named frame_<digits>.pgm")
        n = int(number.group(1))
        if n in paths:
            raise FlowcamError(f"{paths[n]} and {path} are both frame {n}")
        paths[n] = path
    if not paths:
        raise FrameSizeError(f"no frame_*.pgm files in {directory}")
    return [read_pgm(paths[n]) for n in sorted(paths)]

