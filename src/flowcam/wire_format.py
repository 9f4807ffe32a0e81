"""Bit-exact codec for the motion-vector payload.

A vector is six little-endian 16-bit fields in transmission order: x_prev,
y_prev (unsigned), dx, dy (two's complement), best and second Hamming score
(unsigned). Records travel in lines of 16; a short final line is padded with
sentinel records whose six fields are all 0xFFFF.

Records keep one rule: positions below 2048, dx and dy that fit int16, and
0 <= best <= second <= SCORE_LIMIT. `encode`, `write_ofv` and `read_ofv` all
refuse what breaks it; no sentinel keeps it, so padding cannot pass as a record.

A `VectorBatch` already holds its rows in wire field order, so encoding is a
rule check and an int16 cast. A run's records live in one `VectorTable`,
which `write_ofv` pads into lines frame by frame and `read_ofv` rebuilds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EncodingError, FlowcamError, FramingError, PayloadError
from .matcher import NO_COMPETITOR, VectorBatch

RECORD_BYTES = 12
VECTORS_PER_LINE = 16
LINE_BYTES = RECORD_BYTES * VECTORS_PER_LINE
SENTINEL_FIELD = 0xFFFF
COORD_LIMIT = 2048
SCORE_LIMIT = NO_COMPETITOR
# A stream header's width, height and frame count are 4-byte fields.
HEADER_FIELD_LIMIT = 1 << 32

OFV_MAGIC = b"OFV1"


# The record rule: each field within its inclusive bounds, in wire order,
# and best_score <= second_score.
_FIELDS = ("x_prev", "y_prev", "dx", "dy", "best_score", "second_score")
_LOW = np.array([0, 0, -(2**15), -(2**15), 0, 0])
_HIGH = np.array([COORD_LIMIT - 1, COORD_LIMIT - 1, 2**15 - 1, 2**15 - 1, SCORE_LIMIT, SCORE_LIMIT])
_WIRE_HIGH = np.where(_LOW == 0, _HIGH, 0xFFFF).astype(np.uint16)
_SENTINEL_RECORD = SENTINEL_FIELD.to_bytes(2, "little") * len(_FIELDS)


def _check_rule(rows: np.ndarray, error: type[FlowcamError], name) -> None:
    """Raise `error` for the first record of (n, 6) wire-order `rows` that
    breaks the record rule, named `name(i)`. Int16 records are read as uint16
    against `_WIRE_HIGH`, so wire records are never widened: dx and dy then
    fit any value, and a negative field exceeds every other upper bound."""
    if rows.dtype == np.int16:
        rows = rows.view(np.uint16)
        out = rows > _WIRE_HIGH
    else:
        out = (rows < _LOW) | (rows > _HIGH)
    order = rows[:, 4] > rows[:, 5]
    if not (out.any() or order.any()):
        return
    i = int((out.any(axis=1) | order).argmax())
    row = rows[i].tolist()
    if out[i].any():
        c = int(out[i].argmax())
        raise error(f"{name(i)} carries {_FIELDS[c]} {row[c]}, not in [{_LOW[c]}, {_HIGH[c]}]")
    raise error(f"{name(i)} carries scores {row[4]}/{row[5]}, need best <= second")


def encode(vectors: VectorBatch) -> np.ndarray:
    """Cast vectors into (n, 6) little-endian int16 wire records; a vector
    that breaks the record rule raises `EncodingError` naming it."""
    _check_rule(vectors.rows, EncodingError, lambda i: f"record {i}")
    # Every bound fits int16; dx and dy travel as two's complement.
    return vectors.rows.astype("<i2")


@dataclass(frozen=True, eq=False)
class VectorTable:
    """A run's flow vectors, held once: `rows` is an (N, 6) little-endian int16
    array of wire records, and frame t's vectors are
    `rows[offsets[t]:offsets[t + 1]]` of the (n_frames + 1,) int64 `offsets`.
    `len` is the frame count; indexing and iteration yield per-frame
    `VectorBatch` views. Two tables are equal when both arrays are.
    """

    rows: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_frames(cls, records: list[np.ndarray]) -> VectorTable:
        """One table of the per-frame `encode` outputs."""
        rows = np.concatenate(records) if records else np.empty((0, 6), "<i2")
        return cls(rows, np.cumsum([0] + [len(r) for r in records]))

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, t: int) -> VectorBatch:
        t = range(len(self))[t]
        return VectorBatch(self.rows[self.offsets[t]:self.offsets[t + 1]])

    def __iter__(self):
        bounds = self.offsets.tolist()
        return (VectorBatch(self.rows[a:b]) for a, b in zip(bounds, bounds[1:]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorTable):
            return NotImplemented
        return np.array_equal(self.rows, other.rows) and np.array_equal(self.offsets, other.offsets)

    __hash__ = None


# ---------------------------------------------------------------------------
# .ofv stream files: a whole run's per-frame vector blocks
# ---------------------------------------------------------------------------

def write_ofv(
    path: str | Path,
    frame_width: int,
    frame_height: int,
    table: VectorTable,
) -> None:
    """Write one stream file: 16-byte header, then per-frame line blocks.

    Each frame's records are padded with sentinel records to whole lines.
    `EncodingError` refuses, before anything is written, a table that
    `read_ofv` would not return unchanged: rows that are not (N, 6) int16
    records keeping the record rule, or offsets that do not rise from 0 to N.
    """
    rows, offsets = table.rows, table.offsets
    if rows.dtype != np.dtype("<i2") or rows.shape[1:] != (6,):
        raise EncodingError(f"table rows are {rows.dtype} {rows.shape}, not (n, 6) <i2 records")
    header = {"frame width": int(frame_width), "frame height": int(frame_height),
              "frame count": offsets.size - 1}
    parts = [OFV_MAGIC]
    for name, value in header.items():
        if not 0 <= value < HEADER_FIELD_LIMIT:
            raise EncodingError(f"{name} {value} does not fit the 4-byte header field")
        parts.append(value.to_bytes(4, "little"))
    # Only now: a header-sized frame count fails above without a diff of its offsets.
    if offsets[0] != 0 or offsets[-1] != len(rows) or (np.diff(offsets) < 0).any():
        raise EncodingError(f"{path}: table offsets do not rise from 0 to its {len(rows)} rows")

    def record(i):
        t = int(np.searchsorted(offsets, i, "right")) - 1
        return f"{path}: frame {t}: record {i - offsets[t]}"
    _check_rule(rows, EncodingError, record)
    for vectors in table:
        pad = -len(vectors) % VECTORS_PER_LINE
        parts.append(((len(vectors) + pad) // VECTORS_PER_LINE).to_bytes(4, "little"))
        parts.append(vectors.rows.tobytes())
        parts.append(_SENTINEL_RECORD * pad)
    Path(path).write_bytes(b"".join(parts))


def read_ofv(path: str | Path) -> tuple[int, int, VectorTable]:
    """Read a stream file. Errors name the file and, inside a block, the frame.

    Sentinels only pad the end of a block, so a real record after a sentinel
    is rejected rather than silently shifted into its slot. Every real record
    must keep the record rule.
    """
    data = Path(path).read_bytes()
    if len(data) < 16 or data[:4] != OFV_MAGIC:
        raise FramingError(f"{path}: missing OFV1 header")
    width = int.from_bytes(data[4:8], "little")
    height = int.from_bytes(data[8:12], "little")
    n_frames = int.from_bytes(data[12:16], "little")
    pos = 16
    frames = []
    for t in range(n_frames):
        if pos + 4 > len(data):
            raise FramingError(f"{path}: frame {t}: truncated frame block header")
        n_lines = int.from_bytes(data[pos : pos + 4], "little")
        pos += 4
        end = pos + n_lines * LINE_BYTES
        if end > len(data):
            raise FramingError(f"{path}: frame {t}: truncated frame block payload")
        fields = np.frombuffer(data, "<u2", (end - pos) // 2, pos).reshape(-1, 6)
        sentinel = (fields == SENTINEL_FIELD).all(axis=1)
        n_real = int(sentinel.argmax()) if sentinel.any() else len(fields)
        stray = np.flatnonzero(~sentinel[n_real:])
        if stray.size:
            raise PayloadError(f"{path}: frame {t}: record {n_real + stray[0]} "
                               f"follows the sentinel record {n_real}")
        frames.append(fields[:n_real].view("<i2"))
        _check_rule(frames[-1], PayloadError, lambda i: f"{path}: frame {t}: record {i}")
        pos = end
    if pos != len(data):
        raise FramingError(f"{path}: {len(data) - pos} trailing bytes")
    return width, height, VectorTable.from_frames(frames)
