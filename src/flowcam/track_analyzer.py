"""Track linking, re-detection and ground-truth comparison.

Per-frame flow vectors are chained into multi-frame tracks by exact endpoint
continuation (the emulator works in integer coordinates, so no tolerance is
involved). Interrupted tracks can be re-joined across short gaps, and mean
flow / traveled distance are compared against analytic or ingested ground
truth.
"""

from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import AlignmentError, FlowcamError, RangeError
from .matcher import VectorBatch

# Default re-detection window: frames a track may vanish for, and how far
# (Chebyshev, px) its reappearance may lie from where it vanished.
REDETECT_MAX_GAP = 4
REDETECT_RADIUS = 1


@dataclass
class Track:
    """One physical feature followed across frames."""

    id: int
    points: list[tuple[int, int, int]]  # (frame index, x, y)
    gaps: list[tuple[int, int]] = field(default_factory=list)

    @property
    def start_frame(self) -> int:
        return self.points[0][0]

    @property
    def end_frame(self) -> int:
        return self.points[-1][0]

    @property
    def length(self) -> int:
        return len(self.points)


def link_tracks(per_frame_vectors: list[VectorBatch]) -> list[Track]:
    """Chain flow vectors into tracks.

    Entry t of the input holds the vectors from frame t-1 to frame t (entry 0
    is normally empty). A vector extends the track whose last point is exactly
    its previous-frame position; otherwise it starts a new two-point track.
    When two tracks converge on the same point, the older one continues.
    """
    tracks: list[Track] = []
    open_ends: dict[tuple[int, int, int], int] = {}
    for t, vectors in enumerate(per_frame_vectors):
        for x, y, dx, dy, _, _ in vectors.rows.tolist():
            tail = (t - 1, x, y)
            head = (t, x + dx, y + dy)
            tid = open_ends.pop(tail, None)
            if tid is None:
                tid = len(tracks)
                tracks.append(Track(tid, [tail, head]))
            else:
                tracks[tid].points.append(head)
            open_ends.setdefault(head, tid)
    return tracks


def redetect(tracks: list[Track], max_gap: int, radius: int) -> list[Track]:
    """Merge a track that re-appears near where another ended.

    A track ending at frame t joins one starting at frame t' when
    1 < t' - t <= max_gap + 1 and the endpoints are within `radius`
    (Chebyshev). Greedy in ascending end time; among candidates the earliest
    start wins, then the spatially nearest, then the smaller row-major
    position. Gap frame ranges are recorded on the merged track.

    Track starts are indexed once by frame and by square grid cell of side
    radius + 1, so every start within `radius` of an endpoint lies in the
    3x3 cells around it. A track end probes at most 9 cells in each of the
    `max_gap` candidate frames, stopping at the first frame with a match, so
    its cost grows with the starts near it rather than with all starts in
    those frames.
    """
    if max_gap < 1:
        raise RangeError(f"max_gap must be at least 1, got {max_gap}")
    merged = [Track(t.id, list(t.points), list(t.gaps)) for t in tracks]
    alive = {t.id: t for t in merged}
    cell = radius + 1
    starts: dict[int, dict[tuple[int, int], list[Track]]] = {}
    for t in merged:
        frame, x, y = t.points[0]
        starts.setdefault(frame, {}).setdefault((x // cell, y // cell), []).append(t)

    # Process track ends in ascending time; a merge extends the end, so the
    # surviving track is revisited at its new end time.
    heap = [(t.end_frame, t.id) for t in merged]
    heapq.heapify(heap)
    consumed: set[int] = set()
    while heap:
        end_frame, tid = heapq.heappop(heap)
        track = alive.get(tid)
        if track is None or tid in consumed or track.end_frame != end_frame:
            continue
        _, ex, ey = track.points[-1]
        cx, cy = ex // cell, ey // cell
        best = None
        for start in range(end_frame + 2, end_frame + max_gap + 2):
            grid = starts.get(start)
            if grid is None:
                continue
            for gx in (cx - 1, cx, cx + 1):
                for gy in (cy - 1, cy, cy + 1):
                    for cand in grid.get((gx, gy), ()):
                        if cand.id == tid or cand.id in consumed or cand.id not in alive:
                            continue
                        _, sx, sy = cand.points[0]
                        cheb = max(abs(sx - ex), abs(sy - ey))
                        if cheb > radius:
                            continue
                        key = (cheb, sy, sx, cand.id)
                        if best is None or key < best[0]:
                            best = (key, cand)
            if best is not None:
                break
        if best is None:
            continue
        other = best[1]
        track.gaps.append((end_frame + 1, other.start_frame - 1))
        track.points.extend(other.points)
        track.gaps.extend(other.gaps)
        consumed.add(other.id)
        del alive[other.id]
        heapq.heappush(heap, (track.end_frame, tid))
    return [t for t in merged if t.id not in consumed]


def mean_flow(vectors: VectorBatch) -> tuple[float, float] | None:
    """Arithmetic mean displacement, or None when there are no vectors.

    Each column's integer sum is divided by n as a Python int, so the
    floats equal the per-vector `sum(...) / n` exactly.
    """
    n = len(vectors)
    if not n:
        return None
    dx, dy = vectors.rows[:, 2:4].sum(axis=0).tolist()
    return (dx / n, dy / n)


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
    tracks: list[Track]  # linked, then re-detected across short gaps


def analyze(
    per_frame_vectors: list[VectorBatch],
    ground_truth: list[tuple[float, float]] | None = None,
    max_gap: int = REDETECT_MAX_GAP,
    radius: int = REDETECT_RADIUS,
) -> Analysis:
    """Mean flow, accuracy against ground truth when given, and tracks."""
    estimates = [mean_flow(v) for v in per_frame_vectors]
    accuracy = None if ground_truth is None else accuracy_metrics(estimates, ground_truth)
    tracks = redetect(link_tracks(per_frame_vectors), max_gap, radius)
    return Analysis(estimates, accuracy, tracks)


def track_stats(tracks: list[Track]) -> dict:
    lengths = sorted(t.length for t in tracks)
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
        "redetected_count": sum(len(t.gaps) for t in tracks),
    }


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

def read_ground_truth_csv(path: str | Path) -> list[tuple[float, float]]:
    """Read per-frame ground-truth flow rows (frame_index, dx, dy)."""
    rows: list[tuple[int, float, float]] = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            for raw in reader:
                if not raw or raw[0].strip().lower() in ("frame", "frame_index"):
                    continue
                frame, dx, dy = raw[:3]
                rows.append((int(frame), float(dx), float(dy)))
        except UnicodeDecodeError as exc:
            raise FlowcamError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except (ValueError, csv.Error) as exc:
            raise FlowcamError(
                f"{path}:{reader.line_num}: expected frame,dx,dy numbers: {exc}"
            ) from None
    rows.sort(key=lambda r: r[0])
    return [(dx, dy) for _, dx, dy in rows]


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


def write_summary_csv(
    path: str | Path, report: AccuracyReport | None, tracks: list[Track]
) -> None:
    stats = track_stats(tracks)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["rmse_x", "rmse_y", "final_rel_err", "n_tracks", "max_track_len",
             "p50_track_len", "redetected_count"]
        )
        if report is None:
            rmse_x = rmse_y = rel = "n/a"
        else:
            rmse_x = f"{report.rmse_x:.6f}"
            rmse_y = f"{report.rmse_y:.6f}"
            rel = "n/a" if report.final_rel_err is None else f"{report.final_rel_err:.6f}"
        writer.writerow(
            [rmse_x, rmse_y, rel, stats["n_tracks"], stats["max_track_len"],
             stats["p50_track_len"], stats["redetected_count"]]
        )
