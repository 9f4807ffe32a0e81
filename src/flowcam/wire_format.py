"""Bit-exact codec for the motion-vector payload.

A vector is six little-endian 16-bit fields in transmission order: x_prev,
y_prev (unsigned), dx, dy (two's complement), best and second Hamming score
(unsigned). Records travel in lines of 16; a short final line is padded with
sentinel records whose six fields are all 0xFFFF. Valid scores never exceed
256, so a sentinel cannot collide with a real record.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path

import numpy as np

from .errors import EncodingError, FramingError, PayloadError
from .matcher import FlowVector

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


def encode(vectors: list[FlowVector]) -> bytes:
    """Pack vectors into whole 192-byte lines of 16 records."""
    if not vectors:
        return b""
    table = np.fromiter(
        chain.from_iterable(
            (v.x_prev, v.y_prev, v.dx, v.dy, v.best_score, v.second_score) for v in vectors
        ),
        dtype=np.int64, count=6 * len(vectors),
    ).reshape(-1, 6)
    bad = (table < _LOW) | (table > _HIGH)
    if bad.any():
        col = int(bad.any(axis=0).argmax())
        row = int(bad[:, col].argmax())
        raise EncodingError(
            f"{_FIELDS[col]} out of range in vector {row}: {table[row, col]} "
            f"not in [{_LOW[col]}, {_HIGH[col]}]"
        )
    # Every bound fits int16; dx and dy travel as two's complement.
    pad = np.full((-len(vectors) % VECTORS_PER_LINE, 6), SENTINEL_FIELD, dtype="<u2")
    return np.vstack([table.astype("<i2").view("<u2"), pad]).tobytes()


def decode(data: bytes) -> list[FlowVector]:
    """Inverse of `encode`: drop sentinels, reject malformed payloads.

    Sentinels only pad the end of a payload, so a real record after a
    sentinel is rejected rather than silently shifted into its slot.
    """
    if len(data) % LINE_BYTES != 0:
        raise FramingError(
            f"stream length {len(data)} is not a multiple of {LINE_BYTES}"
        )
    if not data:
        return []
    fields = np.frombuffer(data, dtype="<u2").reshape(-1, 6)
    sentinel = (fields == SENTINEL_FIELD).all(axis=1)
    n_real = int(sentinel.argmax()) if sentinel.any() else len(fields)
    stray = np.flatnonzero(~sentinel[n_real:])
    if stray.size:
        raise PayloadError(
            f"record {n_real + stray[0]} follows the sentinel record {n_real}"
        )
    real = fields[:n_real]
    scores = real[:, 4:6]
    bad = np.flatnonzero((scores > SCORE_LIMIT).any(axis=1))
    if bad.size:
        raise PayloadError(
            f"record {bad[0]} carries a score above {SCORE_LIMIT}"
        )
    rows = real.astype(np.int32)
    rows[:, 2:4] = real[:, 2:4].view("<i2")
    return [FlowVector(*row) for row in rows.tolist()]


# ---------------------------------------------------------------------------
# .ofv stream files: a whole run's per-frame vector blocks
# ---------------------------------------------------------------------------

def write_ofv(
    path: str | Path,
    frame_width: int,
    frame_height: int,
    per_frame_vectors: list[list[FlowVector]],
) -> None:
    """Write one stream file: 16-byte header, then per-frame line blocks."""
    parts = [
        OFV_MAGIC,
        int(frame_width).to_bytes(4, "little"),
        int(frame_height).to_bytes(4, "little"),
        len(per_frame_vectors).to_bytes(4, "little"),
    ]
    for vectors in per_frame_vectors:
        payload = encode(vectors)
        parts.append((len(payload) // LINE_BYTES).to_bytes(4, "little"))
        parts.append(payload)
    Path(path).write_bytes(b"".join(parts))


def read_ofv(path: str | Path) -> tuple[int, int, list[list[FlowVector]]]:
    data = Path(path).read_bytes()
    if len(data) < 16 or data[:4] != OFV_MAGIC:
        raise FramingError(f"{path}: missing OFV1 header")
    width = int.from_bytes(data[4:8], "little")
    height = int.from_bytes(data[8:12], "little")
    n_frames = int.from_bytes(data[12:16], "little")
    pos = 16
    frames = []
    for _ in range(n_frames):
        if pos + 4 > len(data):
            raise FramingError(f"{path}: truncated frame block header")
        n_lines = int.from_bytes(data[pos : pos + 4], "little")
        pos += 4
        end = pos + n_lines * LINE_BYTES
        if end > len(data):
            raise FramingError(f"{path}: truncated frame block payload")
        frames.append(decode(data[pos:end]))
        pos = end
    if pos != len(data):
        raise FramingError(f"{path}: {len(data) - pos} trailing bytes")
    return width, height, frames
