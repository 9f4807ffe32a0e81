"""Frame frontend of the optical-flow sensor emulator.

Turns a full-resolution sensor frame into the image the optical-flow unit
actually sees (crop, sub-sample or bin, automatic down-scaling to the OF
unit's size bound) and models the achievable frame rates of the part.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BoundsError, ConfigError, RangeError

FULL_WIDTH = 1124
FULL_HEIGHT = 1364

# The OF unit accepts images up to VGA size; larger frames are binned 2x once.
OF_MAX_LONG = 640
OF_MAX_SHORT = 480

# Sub-sampling works on a 32-pixel grid: it is the only constant alignment
# that yields both 560x672 (2x) and 280x336 (4x) from the full 1124x1364 array.
SUBSAMPLE_ALIGN = 32

SUBSAMPLE_MODES = ("decimate", "bin")


@dataclass(eq=False)
class Frame:
    """Monochrome 8-bit raster."""

    width: int
    height: int
    pixels: np.ndarray  # shape (height, width), dtype uint8, row-major

    def __post_init__(self) -> None:
        # Row-major, so every kernel's ravel() is a view; an array that
        # already is (a shared read-only still frame too) is not copied.
        self.pixels = np.ascontiguousarray(self.pixels, dtype=np.uint8)
        if self.pixels.shape != (self.height, self.width):
            raise BoundsError(
                f"pixel buffer shape {self.pixels.shape} does not match "
                f"{self.width}x{self.height}"
            )

    @classmethod
    def from_array(cls, pixels: np.ndarray) -> "Frame":
        pixels = np.asarray(pixels, dtype=np.uint8)
        h, w = pixels.shape
        return cls(width=w, height=h, pixels=pixels)

    def pixel(self, x: int, y: int) -> int:
        return int(self.pixels[y, x])

    def same_pixels(self, other: "Frame") -> bool:
        return (
            self.width == other.width
            and self.height == other.height
            and bool(np.array_equal(self.pixels, other.pixels))
        )


@dataclass(frozen=True)
class SensorConfig:
    """One camera setting: geometry, rate and feature-engine budgets."""

    out_width: int
    out_height: int
    frame_rate: float
    brief_target: int
    brief_max: int
    tile_budget: int
    max_displacement: int
    ratio_threshold: float = 1.0
    crop_origin: tuple[int, int] | None = None
    subsample_factor: int = 1
    subsample_mode: str = "decimate"

    def __post_init__(self) -> None:
        if self.out_width <= 0 or self.out_height <= 0:
            raise ConfigError("output dimensions must be positive")
        if not (0 < self.brief_target <= self.brief_max <= 2048):
            raise ConfigError(
                f"need 0 < brief_target <= brief_max <= 2048, got "
                f"{self.brief_target}/{self.brief_max}"
            )
        if not 2 <= self.tile_budget <= 8:
            raise ConfigError(f"tile_budget must be in [2, 8], got {self.tile_budget}")
        if self.subsample_factor not in (1, 2, 4):
            raise ConfigError(f"subsample_factor must be 1, 2 or 4, got {self.subsample_factor}")
        if self.subsample_mode not in SUBSAMPLE_MODES:
            raise ConfigError(f"unknown subsample_mode {self.subsample_mode!r}")
        if not (self.frame_rate > 0 and math.isfinite(self.frame_rate)):
            raise ConfigError(f"frame_rate must be positive and finite, got {self.frame_rate}")
        if self.max_displacement <= 0:
            raise ConfigError("max_displacement must be positive")
        if not 0 < self.ratio_threshold <= 1:
            raise ConfigError("ratio_threshold must be in (0, 1]")
        if self.crop_origin is not None:
            cx, cy = self.crop_origin
            if cx < 0 or cy < 0:
                raise ConfigError("crop origin must be non-negative")


@dataclass(frozen=True)
class RateTablePoint:
    frame_height: int
    n_vectors: int
    max_fps: int


# Datasheet operating points: frame height, vector budget, achievable FPS.
RATE_TABLE = (
    RateTablePoint(240, 1024, 338),
    RateTablePoint(240, 2048, 288),
    RateTablePoint(480, 0, 229),
    RateTablePoint(480, 1024, 205),
    RateTablePoint(480, 2048, 186),
    RateTablePoint(1364, 0, 88),
    RateTablePoint(1364, 1024, 84),
    RateTablePoint(1364, 2048, 80),
)

_GRID_HEIGHTS = (240.0, 480.0, 1364.0)
_GRID_VECTORS = (0.0, 1024.0, 2048.0)
# The documented table has no (240, 0) point; extend the height-240 row
# linearly so the grid is complete (338 + (338 - 288) = 388).
_GRID_FPS = (
    (388.0, 338.0, 288.0),
    (229.0, 205.0, 186.0),
    (88.0, 84.0, 80.0),
)


def crop(frame: Frame, origin: tuple[int, int], size: tuple[int, int]) -> Frame:
    """Extract the axis-aligned window at `origin` with the given size."""
    ox, oy = origin
    w, h = size
    if ox < 0 or oy < 0:
        raise BoundsError(f"crop origin must be non-negative, got ({ox}, {oy})")
    if w <= 0 or h <= 0:
        raise BoundsError(f"crop size must be positive, got ({w}, {h})")
    if ox + w > frame.width:
        raise BoundsError(f"crop x extent {ox}+{w} exceeds frame width {frame.width}")
    if oy + h > frame.height:
        raise BoundsError(f"crop y extent {oy}+{h} exceeds frame height {frame.height}")
    out = frame.pixels[oy : oy + h, ox : ox + w].copy()
    return Frame(w, h, out)


def _divisibility_crop(frame: Frame, factor: int) -> Frame:
    """Top-left crop to the area the sub-sampling hardware can address.

    Dimensions of at least 32 pixels are cut to a multiple of 32 (the grid
    that reproduces the sensor's documented 2x and 4x output sizes from the
    full array); smaller dimensions fall back to plain factor divisibility.
    """
    def cut(dim: int) -> int:
        if dim >= SUBSAMPLE_ALIGN:
            return (dim // SUBSAMPLE_ALIGN) * SUBSAMPLE_ALIGN
        return (dim // factor) * factor

    w, h = cut(frame.width), cut(frame.height)
    if (w, h) == (frame.width, frame.height):
        return frame
    return crop(frame, (0, 0), (w, h))


def _bin_blocks(pixels: np.ndarray, factor: int) -> np.ndarray:
    """Mean of each factor x factor block, rounded half up to 8 bits.

    Sums the factor^2 strided planes in uint16 (at most 16*255 + 8 for 4x4
    blocks, so nothing overflows); dividing by the power of two factor^2
    after adding half of it is the exact round-half-up mean.
    """
    n = factor * factor
    sums = pixels[::factor, ::factor].astype(np.uint16)
    for dy in range(factor):
        for dx in range(factor):
            if dy or dx:
                sums += pixels[dy::factor, dx::factor]
    sums += n // 2
    sums >>= n.bit_length() - 1
    return sums.astype(np.uint8)


def subsample(frame: Frame, factor: int, mode: str) -> Frame:
    """Reduce resolution by keeping every `factor`-th pixel or averaging blocks."""
    if factor not in (2, 4):
        raise ConfigError(f"subsample factor must be 2 or 4, got {factor}")
    if mode not in SUBSAMPLE_MODES:
        raise ConfigError(f"unknown subsample mode {mode!r}")
    base = _divisibility_crop(frame, factor)
    if base.width < factor or base.height < factor:
        raise BoundsError(
            f"frame {frame.width}x{frame.height} too small for {factor}x sub-sampling"
        )
    if mode == "decimate":
        out = base.pixels[::factor, ::factor].copy()
    else:
        out = _bin_blocks(base.pixels, factor)
    h, w = out.shape
    return Frame(w, h, out)


def of_scale(width: int, height: int) -> int:
    """Down-scale factor the OF unit applies to a width x height frame.

    Frames larger than 640x480 in either orientation get 2 (the hardware
    bins exactly once); frames within the bound get 1.
    """
    within = max(width, height) <= OF_MAX_LONG and min(width, height) <= OF_MAX_SHORT
    return 1 if within else 2


def downscale_for_of(frame: Frame) -> tuple[Frame, int]:
    """Down-scale a frame that exceeds the OF unit's VGA bound.

    Frames `of_scale` gives 2 are binned 2x and reported with scale 2;
    smaller frames pass through with scale 1. Flow coordinates downstream are
    in the returned frame's system.
    """
    w, h = frame.width, frame.height
    if of_scale(w, h) == 1:
        return frame, 1
    even_w, even_h = (w // 2) * 2, (h // 2) * 2
    base = frame if (even_w, even_h) == (w, h) else crop(frame, (0, 0), (even_w, even_h))
    out = _bin_blocks(base.pixels, 2)
    oh, ow = out.shape
    return Frame(ow, oh, out), 2


def max_frame_rate(frame_height: int, n_vectors: int) -> float:
    """Achievable sensor frame rate for a frame height and vector budget.

    Exact at the documented operating points, bilinear between them, rounded
    to one decimal.
    """
    if not 240 <= frame_height <= 1364:
        raise RangeError(f"frame_height must be in [240, 1364], got {frame_height}")
    if not 0 <= n_vectors <= 2048:
        raise RangeError(f"n_vectors must be in [0, 2048], got {n_vectors}")
    h = float(frame_height)
    v = float(n_vectors)
    hi = 0
    while hi < len(_GRID_HEIGHTS) - 2 and h > _GRID_HEIGHTS[hi + 1]:
        hi += 1
    vi = 0
    while vi < len(_GRID_VECTORS) - 2 and v > _GRID_VECTORS[vi + 1]:
        vi += 1
    h0, h1 = _GRID_HEIGHTS[hi], _GRID_HEIGHTS[hi + 1]
    v0, v1 = _GRID_VECTORS[vi], _GRID_VECTORS[vi + 1]
    th = (h - h0) / (h1 - h0)
    tv = (v - v0) / (v1 - v0)
    f00 = _GRID_FPS[hi][vi]
    f01 = _GRID_FPS[hi][vi + 1]
    f10 = _GRID_FPS[hi + 1][vi]
    f11 = _GRID_FPS[hi + 1][vi + 1]
    fps = (
        f00 * (1 - th) * (1 - tv)
        + f01 * (1 - th) * tv
        + f10 * th * (1 - tv)
        + f11 * th * tv
    )
    return round(fps, 1)


# ---------------------------------------------------------------------------
# PGM frame files (binary P5, maxval 255)
# ---------------------------------------------------------------------------

def write_pgm(frame: Frame, path: str | Path) -> None:
    with open(path, "wb") as f:
        f.write(f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii"))
        f.write(frame.pixels.tobytes())


def read_pgm(path: str | Path) -> Frame:
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise ConfigError(f"{path}: not a binary PGM (P5) file")
    # Header: magic, width, height, maxval, separated by whitespace/comments.
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        m = re.match(rb"\d+", data[pos:])
        if not m:
            raise ConfigError(f"{path}: malformed PGM header")
        fields.append(int(m.group()))
        pos += m.end()
    width, height, maxval = fields
    if width == 0 or height == 0:
        raise ConfigError(f"{path}: empty {width}x{height} raster")
    if maxval != 255:
        raise ConfigError(f"{path}: only maxval 255 is supported, got {maxval}")
    pos += 1  # single whitespace before raster
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise ConfigError(f"{path}: truncated raster")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()
    return Frame(width, height, pixels)


# ---------------------------------------------------------------------------
# key=value config files
# ---------------------------------------------------------------------------

_CONFIG_KEYS = (
    "out_width", "out_height", "crop_x", "crop_y", "subsample_factor",
    "subsample_mode", "frame_rate", "brief_target", "brief_max",
    "tile_budget", "max_displacement", "ratio_threshold",
)


def save_config(config: SensorConfig, path: str | Path) -> None:
    lines = [
        f"out_width={config.out_width}",
        f"out_height={config.out_height}",
    ]
    if config.crop_origin is not None:
        lines.append(f"crop_x={config.crop_origin[0]}")
        lines.append(f"crop_y={config.crop_origin[1]}")
    lines += [
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


def load_config(path: str | Path) -> SensorConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()

    def field(key, convert, default=None):
        setting = values.get(key, default)
        if setting is None:
            raise ConfigError(f"{path}: missing key {key!r}")
        try:
            return convert(setting)
        except ValueError:
            raise ConfigError(
                f"{path}: {key}={setting!r} is not a valid {convert.__name__}"
            ) from None

    crop_origin = None
    if "crop_x" in values or "crop_y" in values:
        crop_origin = (field("crop_x", int), field("crop_y", int))
    return SensorConfig(
        out_width=field("out_width", int),
        out_height=field("out_height", int),
        frame_rate=field("frame_rate", float),
        brief_target=field("brief_target", int),
        brief_max=field("brief_max", int),
        tile_budget=field("tile_budget", int),
        max_displacement=field("max_displacement", int),
        ratio_threshold=field("ratio_threshold", float, "1.0"),
        crop_origin=crop_origin,
        subsample_factor=field("subsample_factor", int, "1"),
        subsample_mode=values.get("subsample_mode", "decimate"),
    )

