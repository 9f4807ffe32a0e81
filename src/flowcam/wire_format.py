"""Bit-exact codec for the motion-vector payload.

A vector is six little-endian 16-bit fields in transmission order: x_prev,
y_prev (unsigned), dx, dy (two's complement), best and second Hamming score
(unsigned). Records travel in lines of 16; a short final line is padded with
sentinel records whose six fields are all 0xFFFF. Valid scores never exceed
256, so a sentinel cannot collide with a real record.

A `VectorBatch` already holds its rows in wire field order, so encoding is a
range check and an int16 cast. A run's records live in one `VectorTable`,
which `write_ofv` pads into lines frame by frame and `read_ofv` rebuilds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EncodingError, FramingError, PayloadError
from .matcher import VectorBatch

RECORD_BYTES = 12
VECTORS_PER_LINE = 16
LINE_BYTES = RECORD_BYTES * VECTORS_PER_LINE
SENTINEL_FIELD = 0xFFFF
COORD_LIMIT = 2048
SCORE_LIMIT = 256

OFV_MAGIC = b"OFV1"


# Field names and inclusive bounds in wire order.
_FIELDS = ("x_prev", "y_prev", "dx", "dy", "best_score", "second_score")
_LOW = np.array([0, 0, -(2**15), -(2**15), 0, 0])
_HIGH = np.array([COORD_LIMIT - 1, COORD_LIMIT - 1, 2**15 - 1, 2**15 - 1,
                  SCORE_LIMIT, SCORE_LIMIT])
_SENTINEL_RECORD = SENTINEL_FIELD.to_bytes(2, "little") * len(_FIELDS)


def encode(vectors: VectorBatch) -> np.ndarray:
    """Range-check vectors into (n, 6) little-endian int16 wire records."""
    rows = vectors.rows
    bad = (rows < _LOW) | (rows > _HIGH)
    if bad.any():
        col = int(bad.any(axis=0).argmax())
        row = int(bad[:, col].argmax())
        raise EncodingError(
            f"{_FIELDS[col]} out of range in vector {row}: {rows[row, col]} "
            f"not in [{_LOW[col]}, {_HIGH[col]}]"
        )
    # Every bound fits int16; dx and dy travel as two's complement.
    return rows.astype("<i2")


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
    """
    if table.rows.dtype != np.dtype("<i2"):
        raise EncodingError(f"table rows are {table.rows.dtype}, not the <i2 records of encode")
    parts = [
        OFV_MAGIC,
        int(frame_width).to_bytes(4, "little"),
        int(frame_height).to_bytes(4, "little"),
        len(table).to_bytes(4, "little"),
    ]
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
    must satisfy 0 <= best <= second <= 256 and carry positions below 2048.
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
        where = f"{path}: frame {t}: record"
        sentinel = (fields == SENTINEL_FIELD).all(axis=1)
        n_real = int(sentinel.argmax()) if sentinel.any() else len(fields)
        stray = np.flatnonzero(~sentinel[n_real:])
        if stray.size:
            raise PayloadError(
                f"{where} {n_real + stray[0]} follows the sentinel record {n_real}"
            )
        real = fields[:n_real]
        best, second = real[:, 4], real[:, 5]
        bad = np.flatnonzero((best > second) | (second > SCORE_LIMIT))
        if bad.size:
            i = bad[0]
            raise PayloadError(
                f"{where} {i} carries scores {best[i]}/{second[i]}, "
                f"need best <= second <= {SCORE_LIMIT}"
            )
        far = real[:, :2] >= COORD_LIMIT
        if far.any():
            i = int(far.any(axis=1).argmax())
            col = int(far[i].argmax())
            raise PayloadError(
                f"{where} {i} carries {_FIELDS[col]} {real[i, col]}, "
                f"need below {COORD_LIMIT}"
            )
        frames.append(real.view("<i2"))
        pos = end
    if pos != len(data):
        raise FramingError(f"{path}: {len(data) - pos} trailing bytes")
    return width, height, VectorTable.from_frames(frames)
