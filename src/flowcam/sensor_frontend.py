"""Frame frontend of the optical-flow sensor emulator.

Holds the frame type, the camera setting (`SensorConfig`) with the one
window of the sensor array a run records, block binning, the automatic 2x
down-scale to the OF unit's size bound, PGM and config files, and the model
of the part's achievable frame rates. `pipeline.frontend_apply` cuts the
window from a larger frame.
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

# Input pixels per band of `_bin_blocks`. Its two uint16 sum buffers are then
# about 190 KiB, where a whole-frame row pass made a 1.5 MB temporary; on a
# 1124x1364 frame 64 K-pixel bands were about 12 % slower (twice the calls).
_BIN_BAND = 1 << 17


@dataclass(eq=False)
class Frame:
    """Monochrome 8-bit raster; its size is the shape of `pixels`."""

    pixels: np.ndarray  # shape (height, width), dtype uint8, row-major

    def __post_init__(self) -> None:
        pixels = np.asarray(self.pixels)
        if pixels.ndim != 2:
            raise BoundsError(f"pixel buffer must be 2-D, got shape {pixels.shape}")
        if pixels.dtype != np.uint8 and not _holds_uint8(pixels):
            raise RangeError(f"{pixels.dtype} pixel buffer holds values that are not "
                             "integers in [0, 255]")
        # Row-major, so every kernel's ravel() is a view; an array that
        # already is (a shared read-only still frame too) is not copied.
        self.pixels = np.ascontiguousarray(pixels, dtype=np.uint8)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


def _holds_uint8(pixels: np.ndarray) -> bool:
    """Whether every value of a numeric buffer is an integer in [0, 255]."""
    if pixels.dtype.kind not in "biuf":
        return False
    if not pixels.size:
        return True
    if pixels.dtype.kind == "f" and not np.all(np.floor(pixels) == pixels):
        return False  # fractions and NaN
    return bool(pixels.min() >= 0 and pixels.max() <= 255)  # infinities too


@dataclass(frozen=True)
class SensorConfig:
    """One camera setting: geometry, rate and feature-engine budgets.

    It records the window at `crop_origin` of `subsample_factor` times the
    output size, which must lie inside the sensor's array; synthesis renders
    that window and `frontend_apply` cuts it.
    """

    out_width: int
    out_height: int
    frame_rate: float
    brief_target: int
    brief_max: int
    tile_budget: int
    max_displacement: int
    ratio_threshold: float = 1.0
    crop_origin: tuple[int, int] = (0, 0)
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
        cx, cy = self.crop_origin
        if cx < 0 or cy < 0:
            raise ConfigError("crop origin must be non-negative")
        f = self.subsample_factor
        window = (self.out_width * f, self.out_height * f)
        # With f > 1, a side of 32 px or more is addressed in whole 32-px steps.
        read = tuple(d - d % SUBSAMPLE_ALIGN if d >= SUBSAMPLE_ALIGN else d for d in window)
        if f > 1 and read != window:
            raise ConfigError(
                f"crop window {window[0]}x{window[1]} is off the sensor's "
                f"{SUBSAMPLE_ALIGN}-px sub-sampling grid: its {f}x sub-sampler "
                f"would address {read[0]}x{read[1]} and read "
                f"{read[0] // f}x{read[1] // f}, not {self.out_width}x{self.out_height}"
            )
        if cx + window[0] > FULL_WIDTH or cy + window[1] > FULL_HEIGHT:
            raise ConfigError(
                f"window {window[0]}x{window[1]} at ({cx}, {cy}) leaves the "
                f"{FULL_WIDTH}x{FULL_HEIGHT} sensor array"
            )


# Datasheet operating points: (frame height, vector budget) -> achievable fps.
RATE_TABLE = {
    (240, 1024): 338, (240, 2048): 288,
    (480, 0): 229, (480, 1024): 205, (480, 2048): 186,
    (1364, 0): 88, (1364, 1024): 84, (1364, 2048): 80,
}

# The bilinear grid of the rate model: the table plus the one corner it
# lacks, (240, 0), extended linearly along the height-240 row to
# 338 + (338 - 288) = 388.
_GRID_FPS = {**RATE_TABLE, (240, 0): 2 * RATE_TABLE[240, 1024] - RATE_TABLE[240, 2048]}
_GRID_HEIGHTS = sorted({h for h, _ in _GRID_FPS})
_GRID_VECTORS = sorted({v for _, v in _GRID_FPS})


def _bin_blocks(pixels: np.ndarray, factor: int) -> np.ndarray:
    """Mean of each whole factor x factor block, rounded half up to 8 bits.

    A partial last block row or column is dropped. The frame is binned in
    bands of about `_BIN_BAND` input pixels: each band's rows of a block
    are added first, in uint16, into a reused buffer, then the column
    groups of that sum into a second one. The sums reach at most
    16*255 + 8 for 4x4 blocks, so nothing overflows, and dividing by the
    power of two factor^2 after adding half of it is the exact round-half-up
    mean.
    """
    h, w = pixels.shape
    h, w = h // factor, w // factor  # output size
    n = factor * factor
    out = np.empty((h, w), dtype=np.uint8)
    rows = max(1, _BIN_BAND // (w * n))  # output rows per band
    row_sums = np.empty((rows, w * factor), dtype=np.uint16)
    sums = np.empty((rows, w), dtype=np.uint16)
    for y0 in range(0, h, rows):
        y1 = min(y0 + rows, h)
        band = pixels[y0 * factor : y1 * factor, : w * factor]
        r, s = row_sums[: y1 - y0], sums[: y1 - y0]
        np.add(band[0::factor], band[1::factor], out=r, dtype=np.uint16)
        for dy in range(2, factor):
            r += band[dy::factor]
        np.add(r[:, 0::factor], r[:, 1::factor], out=s)
        for dx in range(2, factor):
            s += r[:, dx::factor]
        s += n // 2
        s >>= n.bit_length() - 1
        out[y0:y1] = s
    return out


def of_scale(width: int, height: int) -> int:
    """Down-scale factor the OF unit applies to a width x height frame.

    Frames larger than 640x480 in either orientation get 2 (the hardware
    bins exactly once); frames within the bound get 1.
    """
    within = max(width, height) <= OF_MAX_LONG and min(width, height) <= OF_MAX_SHORT
    return 1 if within else 2


def downscale_for_of(frame: Frame) -> tuple[Frame, int]:
    """Down-scale a frame that exceeds the OF unit's VGA bound.

    Frames `of_scale` gives 2 are binned 2x (an odd last row or column is
    dropped) and reported with scale 2; smaller frames pass through with
    scale 1. Flow coordinates downstream are in the returned frame's system.
    """
    if of_scale(frame.width, frame.height) == 1:
        return frame, 1
    return Frame(_bin_blocks(frame.pixels, 2)), 2


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
    # The grid is 3x3: the bracket is the lower or the upper pair of rows
    # and of columns, and a value on the middle line takes the lower one.
    hi = int(h > _GRID_HEIGHTS[1])
    vi = int(v > _GRID_VECTORS[1])
    h0, h1 = _GRID_HEIGHTS[hi : hi + 2]
    v0, v1 = _GRID_VECTORS[vi : vi + 2]
    th = (h - h0) / (h1 - h0)
    tv = (v - v0) / (v1 - v0)
    fps = (
        _GRID_FPS[h0, v0] * (1 - th) * (1 - tv)
        + _GRID_FPS[h0, v1] * (1 - th) * tv
        + _GRID_FPS[h1, v0] * th * (1 - tv)
        + _GRID_FPS[h1, v1] * th * tv
    )
    return round(fps, 1)


def hardware_reference(frame_height: int, n_vectors: int) -> float | None:
    """Datasheet frame rate at the nearest documented operating point.

    Only exact table heights have a reference; the vector budget is rounded
    down to the closest documented row. None means no documented point.
    """
    rows = [(v, fps) for (h, v), fps in RATE_TABLE.items()
            if h == frame_height and v <= n_vectors]
    return float(max(rows)[1]) if rows else None


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
    return Frame(np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy())


# ---------------------------------------------------------------------------
# key=value config files
# ---------------------------------------------------------------------------

_CONFIG_KEYS = (
    "out_width", "out_height", "crop_x", "crop_y", "subsample_factor",
    "subsample_mode", "frame_rate", "brief_target", "brief_max",
    "tile_budget", "max_displacement", "ratio_threshold",
)


def load_config(path: str | Path) -> SensorConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
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
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already on line {lines[key]}")
        values[key], lines[key] = value.strip(), lineno

    def field(key, convert):
        setting = values.get(key)
        if setting is None:
            raise ConfigError(f"{path}: missing key {key!r}")
        try:
            return convert(setting)
        except ValueError:
            raise ConfigError(
                f"{path}: {key}={setting!r} is not a valid {convert.__name__}"
            ) from None

    # Keys a file may leave out keep SensorConfig's defaults.
    optional = {key: field(key, convert) for key, convert in (
        ("ratio_threshold", float), ("subsample_factor", int), ("subsample_mode", str),
    ) if key in values}
    if "crop_x" in values or "crop_y" in values:
        optional["crop_origin"] = (field("crop_x", int), field("crop_y", int))
    return SensorConfig(
        out_width=field("out_width", int),
        out_height=field("out_height", int),
        frame_rate=field("frame_rate", float),
        brief_target=field("brief_target", int),
        brief_max=field("brief_max", int),
        tile_budget=field("tile_budget", int),
        max_displacement=field("max_displacement", int),
        **optional,
    )

