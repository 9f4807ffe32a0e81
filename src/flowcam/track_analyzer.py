"""Track linking, re-detection and ground-truth comparison.

Per-frame flow vectors are chained into multi-frame tracks by exact endpoint
continuation (the emulator works in integer coordinates, so no tolerance is
involved). Interrupted tracks can be re-joined across short gaps, and mean
flow / traveled distance are compared against analytic or ingested ground
truth. Each step takes a whole run at once: linking joins every frame pair
in one pass, re-detection tables every track end's candidates once, and
the mean flow of every frame comes from one segmented sum.
"""

from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import AlignmentError, FlowcamError, RangeError
from .wire_format import VectorTable

# Default re-detection window: frames a track may vanish for, and how far
# (Chebyshev, px) its reappearance may lie from where it vanished.
REDETECT_MAX_GAP = 4
REDETECT_RADIUS = 1
# Bytes of probe arrays `_candidate_table` holds at once; a wide radius
# probes its track ends in chunks that fit.
_PROBE_BYTES = 4 << 20


@dataclass(frozen=True, eq=False)
class TrackSet:
    """Tracks as flat int64 arrays, one segment per track.

    `ids` holds the n track ids. `points` is an (m, 3) array of (frame, x, y)
    rows grouped by track, frames ascending within a track: track k is
    `points[offsets[k]:offsets[k + 1]]` and has at least one point. `gaps` is a
    (g, 2) array of re-detection gaps (first, last missing frame), segmented
    the same way by `gap_offsets`. Two sets are equal when their arrays are.
    """

    ids: np.ndarray
    points: np.ndarray
    offsets: np.ndarray
    gaps: np.ndarray
    gap_offsets: np.ndarray

    def __len__(self) -> int:
        return self.ids.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrackSet):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    __hash__ = None


def _segment_gather(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices of the runs `starts[i]`, ..., `starts[i] + lengths[i] - 1`, in order."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lengths, lengths)


def _offsets(lengths: np.ndarray) -> np.ndarray:
    out = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """`keys` sorted stably, the order that sorts them (None when they already
    ascend, as a pipeline stream's tails do), and a mask of the first key of
    each run of equal keys in sorted order."""
    order = None
    if not (keys[1:] >= keys[:-1]).all():
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys, order, first


def _unsorted(order: np.ndarray | None, mask: np.ndarray) -> np.ndarray:
    """The input indices of the sorted positions that `mask` selects."""
    return np.flatnonzero(mask) if order is None else order[mask]


def _roots(parent: np.ndarray) -> np.ndarray:
    """Follow `parent` pointers (a root points at itself) to their roots by
    pointer jumping: each round halves every remaining path."""
    while True:
        up = np.take(parent, parent)
        if np.array_equal(up, parent):
            return parent
        parent = up


def link_tracks(table: VectorTable) -> TrackSet:
    """Chain flow vectors into tracks.

    Frame t of the table holds the vectors from frame t-1 to frame t (frame 0
    is normally empty). A vector extends the track whose last point is exactly
    its previous-frame position; otherwise it starts a new two-point track.
    When two tracks converge on the same point, the older one (the earlier
    row) keeps it; when two vectors leave the same point, the earlier row
    continues the track. New tracks are numbered by frame, then row.

    The whole run is linked at once. Each vector's tail is keyed as (t, y, x)
    and its head as (t + 1, y + dy, x + dx), so a tail meets only the heads
    of the frame before. The first vector of each distinct tail is joined to
    the first vector of the equal head with one `searchsorted`, which gives
    each vector at most one predecessor; pointer jumping then finds each
    vector's root, the first vector of its track. A track gains one point in
    each frame from its first one on, so a point's row in `points` is its
    track's offset plus its frame's distance from the track's first frame,
    and every point is written straight to its row. Keys and indices are
    int32 whenever the run's range fits.
    """
    rows = table.rows
    n = rows.shape[0]
    if not n:
        return TrackSet(np.empty(0, dtype=np.int64), np.empty((0, 3), dtype=np.int64),
                        np.zeros(1, dtype=np.int64), np.empty((0, 2), dtype=np.int64),
                        np.zeros(1, dtype=np.int64))
    # Wire records are int16, so heads are summed wider.
    wide = np.promote_types(rows.dtype, np.int32)

    def heads(k):
        return np.add(rows[:, k], rows[:, k + 2], dtype=wide)

    lo, size = [], []  # the box of every tail and head, x then y
    for k in (0, 1):
        head = heads(k)
        lo.append(min(int(rows[:, k].min()), int(head.min())))
        size.append(max(int(rows[:, k].max()), int(head.max())) - lo[k] + 1)
    del head
    width, height = size
    n_frames = len(table)
    # Frame, vector and point indices, and the keys below, are int32 when they fit.
    index = np.int32 if 2 * n + n_frames < 1 << 31 else np.int64
    key = np.int32 if (n_frames + 1) * height * width < 1 << 31 else np.int64
    frame = np.repeat(np.arange(n_frames, dtype=index), np.diff(table.offsets))

    def keys(px, py, shift):
        # (frame + shift, py, px) counted from the box's corner, ascending in that order
        k = frame.astype(key)
        k += shift
        k *= height
        k += np.subtract(py, lo[1], dtype=wide)
        k *= width
        k += np.subtract(px, lo[0], dtype=wide)
        return k

    tail_keys, tail_order, lead = _runs(keys(rows[:, 0], rows[:, 1], 0))
    head_keys, head_order, first = _runs(keys(heads(0), heads(1), 1))
    head_keys = head_keys[first]
    pos = np.searchsorted(head_keys, tail_keys)
    pos[pos == head_keys.size] = 0
    lead &= np.take(head_keys, pos) == tail_keys  # the tails that continue a track
    # Each step drops what it has spent, to keep the peak near the points' size.
    del tail_keys, head_keys
    pred = np.take(_unsorted(head_order, first), pos)
    del head_order, first, pos
    # Each vector points at its predecessor, or at itself in a root.
    root = np.arange(n, dtype=index)
    root[_unsorted(tail_order, lead)] = pred[lead]
    del tail_order, lead, pred
    is_root = root == np.arange(n, dtype=index)
    root = _roots(root)
    # Roots ascend by frame, then row, so their rank is the track id.
    track = np.cumsum(is_root, dtype=index)
    track -= 1
    track = np.take(track, root)
    del root
    roots = np.flatnonzero(is_root)
    del is_root
    root_frame = np.take(frame, roots)
    n_tracks = roots.size
    offsets = _offsets(np.bincount(track, minlength=n_tracks) + 1)
    # A track's point in frame t lies at offsets[track] + t - (root_frame - 1).
    row = np.take((offsets[:-1] + 1 - root_frame).astype(index), track)
    del track
    row += frame
    points = np.empty((offsets[-1], 3), dtype=np.int64)
    points[row, 0] = frame
    del frame
    points[row, 1] = heads(0)
    points[row, 2] = heads(1)
    del row
    root_rows = offsets[:-1]  # a root's tail is its track's first point
    points[root_rows, 0] = root_frame - 1
    points[root_rows, 1:] = np.take(rows[:, :2], roots, axis=0)
    return TrackSet(
        np.arange(n_tracks, dtype=np.int64),
        points,
        offsets,
        np.empty((0, 2), dtype=np.int64),
        np.zeros(n_tracks + 1, dtype=np.int64),
    )


def _candidate_table(
    starts: np.ndarray, ends: np.ndarray, ids: np.ndarray, max_gap: int, radius: int
) -> tuple[np.ndarray, np.ndarray]:
    """For every track end, the tracks whose start may continue it, best first.

    `starts` and `ends` are the (frame, x, y) first and last points of the
    tracks. Track s is a candidate for the end of track e when s starts
    2..max_gap+1 frames after e ends, within Chebyshev `radius`. Returns the
    candidate track indices and the (n+1,) offsets that segment them by end;
    each end's candidates are sorted by (start frame, Chebyshev distance,
    start y, start x, id).

    Points are keyed linearly by (frame, y, x) in a box padded by `radius`,
    so key(end) + key(offset) is the key of the shifted point (the key
    stays below 2**63 for any stream the wire format can carry). The starts
    within `radius` in x of a probed (frame, y) are one run of the sorted
    start keys. One `searchsorted` finds the first start at or after each
    probe window, over a chunk of the ends in key order, so each offset's
    probes arrive sorted; only the few windows whose first start lies
    inside are bounded on the right. Chunks keep the probe arrays within
    `_PROBE_BYTES`; the final sort orders the pairs whatever the chunking.
    """
    n = ids.size
    # Column by column: an axis-0 reduction over three columns is far slower.
    f0, x0, y0 = (min(starts[:, k].min(), ends[:, k].min()) for k in range(3))
    x1, y1 = (max(starts[:, k].max(), ends[:, k].max()) for k in (1, 2))
    width = x1 - x0 + 2 * radius + 1
    height = y1 - y0 + 2 * radius + 1

    def keys(p):
        return ((p[:, 0] - f0) * height + p[:, 2] - y0 + radius) * width + p[:, 1] - x0 + radius

    # No start lies further than this past any end, so wider gaps go unprobed.
    df = np.arange(2, min(max_gap + 1, starts[:, 0].max() - ends[:, 0].min()) + 1)
    dy = np.arange(-radius, radius + 1)
    probe = ((df[:, None] * height + dy).ravel() * width - radius)[:, None]
    start_order = np.lexsort((ids, keys(starts)))
    # A sentinel past every key gives each window a first start to compare.
    start_keys = np.append(keys(starts)[start_order], np.iinfo(np.int64).max)
    end_keys = keys(ends)
    end_order = np.argsort(end_keys, kind="stable")
    # window, lo, the first start and its bound take 8 bytes a probe each
    step = max(1, _PROBE_BYTES // (32 * max(probe.size, 1)))
    ranks, pair_ends = [], []
    for i in range(0, n, step):
        chunk = end_order[i : i + step]
        window = (end_keys[chunk] + probe).ravel()
        lo = np.searchsorted(start_keys, window)
        window += 2 * radius
        hit = np.flatnonzero(start_keys[lo] <= window)
        lo = lo[hit]
        counts = np.searchsorted(start_keys, window[hit], side="right") - lo
        ranks.append(_segment_gather(lo, counts))  # position among the sorted starts
        pair_ends.append(np.repeat(chunk[hit % chunk.size], counts))
    rank = np.concatenate(ranks)
    end = np.concatenate(pair_ends)
    cand = start_order[rank]
    cheb = np.abs(starts[cand, 1:] - ends[end, 1:]).max(axis=1)
    best = np.lexsort((rank, cheb, starts[cand, 0], end))
    return cand[best], _offsets(np.bincount(end, minlength=n))


def redetect(tracks: TrackSet, max_gap: int, radius: int) -> TrackSet:
    """Merge a track that re-appears near where another ended.

    A track ending at frame t joins one starting at frame t' when
    1 < t' - t <= max_gap + 1 and the endpoints are within `radius`
    (Chebyshev). Greedy in ascending end time, then id; among candidates the
    earliest start wins, then the spatially nearest, then the smaller
    row-major position, then the smaller id. Gap frame ranges are recorded
    on the merged track, which keeps the id and place of its first track.

    The candidates of every track end are tabled once. A merged track ends
    where the last track it absorbed ends, so only ends that have candidates
    ever enter the heap, and the greedy merge touches no other track. The
    merged tracks are then assembled in arrays: each absorbed track points
    at its predecessor, pointer jumping finds each chain's first track, and
    ordering by (first track, start frame) lays every chain out in order,
    since a track starts after its predecessor ends. The input is not
    modified; when nothing merges it is returned as it is.
    """
    if max_gap < 1:
        raise RangeError(f"max_gap must be at least 1, got {max_gap}")
    if radius < 0:
        raise RangeError(f"radius must be at least 0, got {radius}")
    n = len(tracks)
    if not n:
        return tracks
    starts = np.take(tracks.points, tracks.offsets[:-1], axis=0)
    ends = np.take(tracks.points, tracks.offsets[1:] - 1, axis=0)
    cand, cand_offsets = _candidate_table(starts, ends, tracks.ids, max_gap, radius)

    # The greedy merge, over the ends that have candidates only.
    open_ends = np.flatnonzero(np.diff(cand_offsets))
    cand = cand.tolist()
    options = {e: cand[a:b] for e, a, b in zip(open_ends.tolist(),
                                               cand_offsets[open_ends].tolist(),
                                               cand_offsets[open_ends + 1].tolist())}
    end_frame = dict(zip(options, ends[open_ends, 0].tolist()))
    heap = list(zip(end_frame.values(), tracks.ids[open_ends].tolist(), options))
    heapq.heapify(heap)
    after = {}  # a track's successor in its chain
    absorbed = set()
    last = {}  # the last track of a chain, by its first track, once it has merged
    while heap:
        _, tid, k = heapq.heappop(heap)
        if k in absorbed:
            continue
        e = last.get(k, k)
        s = next((c for c in options[e] if c not in absorbed), None)
        if s is None:
            continue
        after[e] = s
        absorbed.add(s)
        last[k] = e = last.get(s, s)
        if e in options:
            heapq.heappush(heap, (end_frame[e], tid, k))
    if not after:
        return tracks

    extended, joined = (np.fromiter(side, dtype=np.int64, count=len(after))
                        for side in (after, after.values()))
    pred = np.arange(n)  # a chain's first track points at itself
    pred[joined] = extended
    succ = np.full(n, -1)
    succ[extended] = joined
    chain = np.lexsort((starts[:, 0], _roots(pred)))  # tracks in output order
    heads = np.append(np.flatnonzero(pred[chain] == chain), n)  # where each chain starts
    lengths = np.diff(tracks.offsets)[chain]
    points = np.take(tracks.points, _segment_gather(tracks.offsets[chain], lengths), axis=0)

    # Each track contributes its own gaps, then the gap to its successor.
    succ = succ[chain]
    linked = succ >= 0
    link_gaps = np.stack((ends[chain, 0] + 1, starts[succ, 0] - 1), axis=1)
    gap_counts = np.diff(tracks.gap_offsets)[chain] + linked
    gap_rows = _segment_gather(tracks.gap_offsets[chain], gap_counts)
    gap_rows[(np.cumsum(gap_counts) - 1)[linked]] = len(tracks.gaps) + np.flatnonzero(linked)
    gaps = np.concatenate((tracks.gaps, link_gaps))[gap_rows]

    return TrackSet(
        tracks.ids[chain[heads[:-1]]],
        points,
        _offsets(lengths)[heads],
        gaps,
        _offsets(gap_counts)[heads],
    )


def mean_flow(table: VectorTable) -> list[tuple[float, float] | None]:
    """Each frame's arithmetic mean displacement, None for a frame without
    vectors.

    One `reduceat` sums the dx and dy columns of every frame that has
    vectors, in int64. Each frame's sums are divided by its count as Python
    ints, so the floats equal the per-vector `sum(...) / n` exactly.
    """
    counts = np.diff(table.offsets)
    filled = np.flatnonzero(counts)
    sums = np.zeros((counts.size, 2), dtype=np.int64)
    sums[filled] = np.add.reduceat(table.rows[:, 2:4], table.offsets[filled], axis=0,
                                   dtype=np.int64)
    return [None if not n else (dx / n, dy / n)
            for (dx, dy), n in zip(sums.tolist(), counts.tolist())]


def traveled_distance(
    mean_flows: list[tuple[float, float] | None]
) -> list[float]:
    """Cumulative Euclidean distance of the per-frame mean flow.

    Frames without data contribute zero displacement.
    """
    out = []
    total = 0.0
    for flow in mean_flows:
        if flow is not None:
            total += math.hypot(flow[0], flow[1])
        out.append(total)
    return out


@dataclass(frozen=True)
class AccuracyReport:
    per_frame_error: list[tuple[float, float]]  # signed (est - gt) per axis
    rmse_x: float
    rmse_y: float
    final_rel_err: float | None  # None when the ground truth stands still
    cum_est: list[float]
    cum_gt: list[float]
    no_data_frames: list[int]


def accuracy_metrics(
    estimated: list[tuple[float, float] | None],
    ground_truth: list[tuple[float, float]],
) -> AccuracyReport:
    """Compare estimated per-frame mean flow against ground truth.

    Frames without an estimate count as zero flow and are listed in
    `no_data_frames`. The final relative error compares total traveled
    distances and is None (n/a) when the ground-truth distance is zero.
    """
    if len(estimated) != len(ground_truth):
        raise AlignmentError(
            f"estimate has {len(estimated)} frames, ground truth {len(ground_truth)}"
        )
    errors = []
    no_data = []
    sq_x = sq_y = 0.0
    for i, (est, gt) in enumerate(zip(estimated, ground_truth)):
        if est is None:
            est = (0.0, 0.0)
            no_data.append(i)
        ex, ey = est[0] - gt[0], est[1] - gt[1]
        errors.append((ex, ey))
        sq_x += ex * ex
        sq_y += ey * ey
    n = max(len(errors), 1)
    cum_est = traveled_distance(estimated)
    cum_gt = traveled_distance(list(ground_truth))
    final_gt = cum_gt[-1] if cum_gt else 0.0
    final_est = cum_est[-1] if cum_est else 0.0
    rel = abs(final_est - final_gt) / final_gt if final_gt > 0 else None
    return AccuracyReport(
        per_frame_error=errors,
        rmse_x=math.sqrt(sq_x / n),
        rmse_y=math.sqrt(sq_y / n),
        final_rel_err=rel,
        cum_est=cum_est,
        cum_gt=cum_gt,
        no_data_frames=no_data,
    )


@dataclass(frozen=True)
class Analysis:
    """What a consumer derives from a stream of per-frame flow vectors."""

    estimates: list[tuple[float, float] | None]  # per-frame mean flow
    accuracy: AccuracyReport | None  # None without ground truth
    tracks: TrackSet  # linked, then re-detected across short gaps
    # `track_stats`, plus rmse_x, rmse_y, final_rel_err and no_data_frames
    # (a count) with ground truth
    summary: dict


def analyze(
    per_frame_vectors: VectorTable,
    ground_truth: list[tuple[float, float]] | None = None,
    max_gap: int = REDETECT_MAX_GAP,
    radius: int = REDETECT_RADIUS,
) -> Analysis:
    """Mean flow, accuracy against ground truth when given, tracks and their
    one summary."""
    estimates = mean_flow(per_frame_vectors)
    accuracy = None if ground_truth is None else accuracy_metrics(estimates, ground_truth)
    tracks = redetect(link_tracks(per_frame_vectors), max_gap, radius)
    summary = track_stats(tracks)
    if accuracy is not None:
        summary.update(
            rmse_x=accuracy.rmse_x,
            rmse_y=accuracy.rmse_y,
            final_rel_err=accuracy.final_rel_err,
            no_data_frames=len(accuracy.no_data_frames),
        )
    return Analysis(estimates, accuracy, tracks, summary)


def track_stats(tracks: TrackSet) -> dict:
    lengths = np.sort(np.diff(tracks.offsets)).tolist()
    if lengths:
        mid = len(lengths) // 2
        if len(lengths) % 2:
            p50 = float(lengths[mid])
        else:
            p50 = (lengths[mid - 1] + lengths[mid]) / 2
    else:
        p50 = 0.0
    return {
        "n_tracks": len(tracks),
        "max_track_len": lengths[-1] if lengths else 0,
        "p50_track_len": p50,
        "redetected_count": len(tracks.gaps),
    }


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

def read_ground_truth_csv(path: str | Path) -> list[tuple[float, float]]:
    """Read per-frame ground-truth flow rows (frame_index, dx, dy).

    The n rows carry each frame index 0..n-1 exactly once, in any order, and
    finite flows. Returned in frame order.
    """
    rows: list[tuple[int, int, float, float]] = []  # (line, frame, dx, dy)
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            for raw in reader:
                if not raw or raw[0].strip().lower() in ("frame", "frame_index"):
                    continue
                frame, dx, dy = raw[:3]
                rows.append((reader.line_num, int(frame), float(dx), float(dy)))
        except UnicodeDecodeError as exc:
            raise FlowcamError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except (ValueError, csv.Error) as exc:
            raise FlowcamError(
                f"{path}:{reader.line_num}: expected frame,dx,dy numbers: {exc}"
            ) from None
    flows: dict[int, tuple[float, float]] = {}
    lines: dict[int, int] = {}
    for line, frame, dx, dy in rows:
        if not (math.isfinite(dx) and math.isfinite(dy)):
            raise FlowcamError(f"{path}:{line}: flow ({dx}, {dy}) is not finite")
        if frame in lines:
            raise FlowcamError(f"{path}:{line}: frame {frame} already on line {lines[frame]}")
        if not 0 <= frame < len(rows):
            raise FlowcamError(f"{path}:{line}: frame {frame} outside 0..{len(rows) - 1} "
                               f"for {len(rows)} rows")
        flows[frame], lines[frame] = (dx, dy), line
    return [flows[frame] for frame in range(len(rows))]


def written_ground_truth(flows: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """The flows as `write_ground_truth_csv` writes them, to six decimals."""
    return [(float(f"{dx:.6f}"), float(f"{dy:.6f}")) for dx, dy in flows]


def write_ground_truth_csv(path: str | Path, flows: list[tuple[float, float]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["frame", "gt_dx", "gt_dy"])
        for i, (dx, dy) in enumerate(flows):
            writer.writerow([i, f"{dx:.6f}", f"{dy:.6f}"])


def write_frame_report_csv(
    path: str | Path,
    estimated: list[tuple[float, float] | None],
    ground_truth: list[tuple[float, float]],
    report: AccuracyReport,
) -> None:
    """Per-frame comparison table; frames without data leave est/err blank."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["frame", "est_dx", "est_dy", "gt_dx", "gt_dy", "err_dx", "err_dy",
             "cum_dist_est", "cum_dist_gt"]
        )
        for i, (est, gt) in enumerate(zip(estimated, ground_truth)):
            if est is None:
                est_dx = est_dy = err_dx = err_dy = ""
            else:
                est_dx, est_dy = f"{est[0]:.6f}", f"{est[1]:.6f}"
                err = report.per_frame_error[i]
                err_dx, err_dy = f"{err[0]:.6f}", f"{err[1]:.6f}"
            writer.writerow(
                [i, est_dx, est_dy, f"{gt[0]:.6f}", f"{gt[1]:.6f}", err_dx, err_dy,
                 f"{report.cum_est[i]:.6f}", f"{report.cum_gt[i]:.6f}"]
            )


def write_summary_csv(path: str | Path, summary: dict) -> None:
    """One-row summary of an `Analysis`; accuracy columns it lacks read n/a."""
    accuracy = [summary.get(key) for key in ("rmse_x", "rmse_y", "final_rel_err")]
    track_keys = ["n_tracks", "max_track_len", "p50_track_len", "redetected_count"]
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["rmse_x", "rmse_y", "final_rel_err"] + track_keys)
        writer.writerow(["n/a" if value is None else f"{value:.6f}" for value in accuracy]
                        + [summary[key] for key in track_keys])


def write_analysis(
    analysis: Analysis,
    ground_truth: list[tuple[float, float]] | None,
    out_dir: str | Path,
    prefix: str,
) -> None:
    """Write `<prefix>_summary.csv` and, with ground truth, `<prefix>_frames.csv`.

    `ground_truth` is the series `analysis` was computed against, or None.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_summary_csv(out_dir / f"{prefix}_summary.csv", analysis.summary)
    if analysis.accuracy is not None:
        write_frame_report_csv(out_dir / f"{prefix}_frames.csv", analysis.estimates,
                               ground_truth, analysis.accuracy)
