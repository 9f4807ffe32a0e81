"""Output checks made apart from the program.

Nothing here calls flowcam's codec, matcher or analysis code: the stream is
parsed from the documented byte layout, the matcher is re-implemented as an
all-pairs search, and the remaining checks are properties the method must
have. Each check returns a list of failure messages (empty when it passes).
"""

from __future__ import annotations

import numpy as np

RECORD_FIELDS = 6
LINE_RECORDS = 16
LINE_BYTES = 2 * RECORD_FIELDS * LINE_RECORDS
SENTINEL = 0xFFFF
NO_COMPETITOR = 256
BORDER = 15  # corners keep 15 px from every edge so the descriptor patch fits

# Settling allowance for the translate accuracy check: the threshold
# controller starts at 20 and needs a few frames to reach its target count.
SETTLE_FRAMES = 20
# Bound on |mean dx - 1.75| and |mean dy| over the settled frames, in OF
# px/frame: a quarter of the integer matching step, the per-frame bound the
# acceptance tests use. Foliage mismatches bias the mean toward zero; over
# seeds 0-45 the largest error seen was 0.16 px.
TRANSLATE_FLOW_TOL = 0.25


def vector_rows(vectors) -> np.ndarray:
    """FlowVector list as an (n, 6) int64 array in wire field order."""
    rows = [(v.x_prev, v.y_prev, v.dx, v.dy, v.best_score, v.second_score)
            for v in vectors]
    return np.array(rows, dtype=np.int64).reshape(-1, RECORD_FIELDS)


def parse_ofv(data: bytes) -> tuple[int, int, list[np.ndarray]]:
    """Parse an .ofv stream: 16-byte header, then per frame a u32 line count
    and that many 192-byte lines of 16 twelve-byte records. Only the last
    line of a frame may hold sentinel (all 0xFFFF) records, and only after
    every real record. Raises ValueError on any departure from the layout."""
    if len(data) < 16 or data[:4] != b"OFV1":
        raise ValueError("missing OFV1 header")
    width, height, n_frames = np.frombuffer(data, "<u4", 3, 4).tolist()
    pos = 16
    frames = []
    for i in range(n_frames):
        if pos + 4 > len(data):
            raise ValueError(f"frame {i}: truncated line count")
        n_lines = int(np.frombuffer(data, "<u4", 1, pos)[0])
        pos += 4
        end = pos + n_lines * LINE_BYTES
        if end > len(data):
            raise ValueError(f"frame {i}: truncated payload")
        fields = np.frombuffer(data[pos:end], "<u2").reshape(-1, RECORD_FIELDS)
        sentinel = (fields == SENTINEL).all(axis=1)
        n_real = int((~sentinel).sum())
        if sentinel[:n_real].any() or n_real <= len(fields) - LINE_RECORDS:
            raise ValueError(f"frame {i}: sentinel records out of place")
        real = fields[:n_real].astype(np.int64)
        real[:, 2:4] = fields[:n_real, 2:4].view("<i2")
        frames.append(real)
        pos = end
    if pos != len(data):
        raise ValueError(f"{len(data) - pos} trailing bytes")
    return width, height, frames


def check_stream(data: bytes, vectors, of_size: tuple[int, int]):
    """The stream must carry exactly the vectors run_pipeline returned.
    Returns the parsed records per frame (None if unparsable) and failures."""
    try:
        width, height, parsed = parse_ofv(data)
    except ValueError as exc:
        return None, [f"stream does not follow the documented layout: {exc}"]
    errors = []
    if (width, height) != of_size:
        errors.append(f"stream header says {width}x{height}, OF frame is {of_size}")
    if len(parsed) != len(vectors):
        return None, errors + [f"stream has {len(parsed)} frames, run has {len(vectors)}"]
    for t, (rows, vecs) in enumerate(zip(parsed, vectors)):
        if not np.array_equal(rows, vector_rows(vecs)):
            errors.append(f"frame {t}: stream records differ from run_pipeline's vectors")
            break
    return parsed, errors


def check_vectors(frames: list[np.ndarray], of_size: tuple[int, int],
                  max_displacement: int, ratio_threshold: float,
                  brief_max: int) -> list[str]:
    """Gate, score order, ratio rule and corner margins on every vector."""
    errors = []
    if len(frames[0]):
        errors.append("frame 0 has vectors but no previous frame")
    w, h = of_size
    for t, r in enumerate(frames):
        if not len(r):
            continue
        x, y, dx, dy, best, second = r.T
        xc, yc = x + dx, y + dy
        bad = {
            "outside the displacement gate":
                np.maximum(np.abs(dx), np.abs(dy)) > max_displacement,
            "with scores not ordered 0 <= best <= second <= 256":
                (best < 0) | (best > second) | (second > NO_COMPETITOR),
            "failing the ratio rule":
                (best != 0) & ~(best < ratio_threshold * second),
            "with an endpoint inside the border margin":
                (np.minimum(x, xc) < BORDER) | (np.maximum(x, xc) >= w - BORDER)
                | (np.minimum(y, yc) < BORDER) | (np.maximum(y, yc) >= h - BORDER),
        }
        for what, mask in bad.items():
            if mask.any():
                errors.append(f"frame {t}: {int(mask.sum())} vectors {what}")
        if len(r) > brief_max:
            errors.append(f"frame {t}: {len(r)} vectors exceed brief_max {brief_max}")
        if len(np.unique(r[:, :2], axis=0)) != len(r):
            errors.append(f"frame {t}: two vectors share a previous position")
    return errors


def check_translate_flow(frames: list[np.ndarray], expected: tuple[float, float]) -> list[str]:
    """Vector-weighted mean flow after the controller settles."""
    settled = [r for r in frames[SETTLE_FRAMES:] if len(r)]
    if not settled:
        return ["no vectors after the controller settled"]
    rows = np.concatenate(settled)
    mean = rows[:, 2].mean(), rows[:, 3].mean()
    if max(abs(mean[0] - expected[0]), abs(mean[1] - expected[1])) > TRANSLATE_FLOW_TOL:
        return [f"settled mean flow ({mean[0]:.4f}, {mean[1]:.4f}) is not within "
                f"{TRANSLATE_FLOW_TOL} of {expected}"]
    return []


def _feature_arrays(features):
    xs = np.array([f.x for f in features], dtype=np.int64)
    ys = np.array([f.y for f in features], dtype=np.int64)
    desc = np.frombuffer(b"".join(f.descriptor for f in features), np.uint8)
    return xs, ys, desc.reshape(len(features), -1)


def bruteforce_match(prev, curr, max_displacement: int) -> np.ndarray:
    """All-pairs gated Hamming matcher, as (n, 6) rows.

    For each previous feature in row-major order, the candidate with the
    lowest Hamming distance inside the Chebyshev gate wins; ties go to the
    smaller Chebyshev displacement, then to the earlier row-major current
    feature. The second score is the second-lowest Hamming among the
    candidates, or 256 when there is only one.
    """
    if not prev or not curr:
        return np.empty((0, RECORD_FIELDS), dtype=np.int64)
    px, py, pd = _feature_arrays(prev)
    cx, cy, cd = _feature_arrays(curr)
    prev_order = np.lexsort((np.arange(len(prev)), px, py))
    curr_rank = np.empty(len(curr), dtype=np.int64)
    curr_rank[np.lexsort((np.arange(len(curr)), cx, cy))] = np.arange(len(curr))
    rows = []
    for chunk in np.array_split(prev_order, max(1, len(prev) // 128)):
        ham = np.bitwise_count(pd[chunk, None, :] ^ cd[None, :, :]).sum(axis=2, dtype=np.int64)
        ddx = cx[None, :] - px[chunk, None]
        ddy = cy[None, :] - py[chunk, None]
        cheb = np.maximum(np.abs(ddx), np.abs(ddy))
        gate = cheb <= max_displacement
        key = np.where(gate, (ham * (max_displacement + 1) + cheb) * len(curr)
                       + curr_rank[None, :], np.iinfo(np.int64).max)
        best = key.argmin(axis=1)
        n_cand = gate.sum(axis=1)
        gated_ham = np.where(gate, ham, NO_COMPETITOR + 1)
        second = np.partition(gated_ham, 1, axis=1)[:, 1] if len(curr) > 1 \
            else np.full(len(chunk), NO_COMPETITOR)
        second = np.where(n_cand > 1, second, NO_COMPETITOR)
        i = np.arange(len(chunk))
        block = np.stack([px[chunk], py[chunk], ddx[i, best], ddy[i, best],
                          ham[i, best], second], axis=1)
        rows.append(block[n_cand > 0])
    return np.concatenate(rows)


def check_matcher(prev, curr, result, max_displacement: int, frame: int) -> list[str]:
    expected = bruteforce_match(prev, curr, max_displacement)
    if not np.array_equal(vector_rows(result), expected):
        return [f"frame {frame}: match_features differs from the all-pairs matcher"]
    return []


def check_still_pair(prev, curr, matched, emitted: np.ndarray, frame: int) -> list[str]:
    """On a still scene a feature found again at the same place with the same
    descriptor must match itself: vector (0, 0) with best score 0, which the
    ratio filter always keeps."""
    here = {(f.x, f.y): f.descriptor for f in curr}
    again = {(f.x, f.y) for f in prev if here.get((f.x, f.y)) == f.descriptor}
    if not again:
        return [f"frame {frame}: no feature is present in both frames"]
    errors = []
    for rows, what in ((vector_rows(matched), "matched"), (emitted, "emitted")):
        zero = {(int(r[0]), int(r[1])) for r in rows
                if r[2] == 0 and r[3] == 0 and r[4] == 0}
        missing = len(again - zero)
        if missing:
            errors.append(f"frame {frame}: {missing} of {len(again)} re-found features "
                          f"lack a (0, 0) best-0 {what} vector")
    return errors
