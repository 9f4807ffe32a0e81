"""Bit-exact codec for the motion-vector payload.

A vector is six little-endian 16-bit fields in transmission order: x_prev,
y_prev (unsigned), dx, dy (two's complement), best and second Hamming score
(unsigned). Records travel in lines of 16; a short final line is padded with
sentinel records whose six fields are all 0xFFFF. Valid scores never exceed
256, so a sentinel cannot collide with a real record.

A `VectorBatch` already holds its rows in wire field order, so encoding is a
range check and an int16 cast, and decoding is one `np.frombuffer` view of
the payload.
"""

from __future__ import annotations

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


def encode(vectors: VectorBatch) -> bytes:
    """Pack vectors into whole 192-byte lines of 16 records."""
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
    pad = np.full((-len(rows) % VECTORS_PER_LINE, 6), SENTINEL_FIELD, dtype="<u2")
    return rows.astype("<i2").tobytes() + pad.tobytes()


def decode(data: bytes) -> VectorBatch:
    """Inverse of `encode`: drop sentinels, reject malformed payloads.

    Sentinels only pad the end of a payload, so a real record after a
    sentinel is rejected rather than silently shifted into its slot. Every
    real record must satisfy 0 <= best <= second <= 256.
    """
    if len(data) % LINE_BYTES != 0:
        raise FramingError(
            f"stream length {len(data)} is not a multiple of {LINE_BYTES}"
        )
    fields = np.frombuffer(data, dtype="<u2").reshape(-1, 6)
    sentinel = (fields == SENTINEL_FIELD).all(axis=1)
    n_real = int(sentinel.argmax()) if sentinel.any() else len(fields)
    stray = np.flatnonzero(~sentinel[n_real:])
    if stray.size:
        raise PayloadError(
            f"record {n_real + stray[0]} follows the sentinel record {n_real}"
        )
    real = fields[:n_real]
    best, second = real[:, 4], real[:, 5]
    bad = np.flatnonzero((best > second) | (second > SCORE_LIMIT))
    if bad.size:
        i = bad[0]
        raise PayloadError(
            f"record {i} carries scores {best[i]}/{second[i]}, "
            f"need best <= second <= {SCORE_LIMIT}"
        )
    rows = real.astype(np.int64)
    rows[:, 2:4] = real[:, 2:4].view("<i2")
    return VectorBatch(rows)


# ---------------------------------------------------------------------------
# .ofv stream files: a whole run's per-frame vector blocks
# ---------------------------------------------------------------------------

def write_ofv(
    path: str | Path,
    frame_width: int,
    frame_height: int,
    payloads: list[bytes],
) -> None:
    """Write one stream file: 16-byte header, then per-frame line blocks.

    `payloads` are the per-frame outputs of `encode`.
    """
    parts = [
        OFV_MAGIC,
        int(frame_width).to_bytes(4, "little"),
        int(frame_height).to_bytes(4, "little"),
        len(payloads).to_bytes(4, "little"),
    ]
    for t, payload in enumerate(payloads):
        if len(payload) % LINE_BYTES != 0:
            raise FramingError(
                f"frame {t}: payload length {len(payload)} is not a multiple "
                f"of {LINE_BYTES}"
            )
        parts.append((len(payload) // LINE_BYTES).to_bytes(4, "little"))
        parts.append(payload)
    Path(path).write_bytes(b"".join(parts))


def read_ofv(path: str | Path) -> tuple[int, int, list[VectorBatch]]:
    """Read a stream file. Errors name the file and, inside a block, the frame."""
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
        try:
            frames.append(decode(data[pos:end]))
        except PayloadError as exc:
            raise PayloadError(f"{path}: frame {t}: {exc}") from None
        pos = end
    if pos != len(data):
        raise FramingError(f"{path}: {len(data) - pos} trailing bytes")
    return width, height, frames
