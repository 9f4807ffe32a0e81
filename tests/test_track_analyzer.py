import heapq
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcam.errors import AlignmentError, FlowcamError
from flowcam.matcher import FlowVector
from flowcam.pipeline import PARAMETER_SETS, run_pipeline, synthesize_sequence
from flowcam.track_analyzer import (
    Track,
    accuracy_metrics,
    analyze,
    link_tracks,
    mean_flow,
    read_ground_truth_csv,
    redetect,
    track_stats,
    traveled_distance,
    write_frame_report_csv,
    write_ground_truth_csv,
    write_summary_csv,
)


def vec(x_prev, y_prev, dx=1, dy=0, best=0, second=256):
    return FlowVector(x_prev, y_prev, dx, dy, best, second)


class TestLinkTracks:
    def test_thirty_frame_pairs_make_length_31(self):
        per_frame = [[]]
        x = 10
        for t in range(1, 31):
            per_frame.append([vec(x, 20, 1, 0)])
            x += 1
        [track] = link_tracks(per_frame)
        assert track.length == 31
        assert track.points[0] == (0, 10, 20)
        assert track.points[-1] == (30, 40, 20)

    def test_empty_input(self):
        assert link_tracks([]) == []
        assert link_tracks([[], [], []]) == []

    def test_one_pixel_offset_breaks_chain(self):
        per_frame = [
            [],
            [vec(10, 10, 1, 0)],  # ends at (1, 11, 10)
            [vec(12, 10, 1, 0)],  # starts from (1, 12, 10): no link
        ]
        tracks = link_tracks(per_frame)
        assert len(tracks) == 2
        assert all(t.length == 2 for t in tracks)

    def test_convergent_vectors_keep_older_track(self):
        per_frame = [
            [],
            [vec(10, 10, 1, 0), vec(12, 10, -1, 0)],  # both end at (1, 11, 10)
            [vec(11, 10, 1, 0)],
        ]
        tracks = link_tracks(per_frame)
        assert len(tracks) == 2
        assert tracks[0].length == 3  # older track continued
        assert tracks[1].length == 2

    def test_vector_conservation(self):
        rng = np.random.default_rng(0)
        per_frame = [[]]
        total = 0
        for t in range(1, 20):
            n = int(rng.integers(0, 6))
            frame_vectors = []
            for k in range(n):
                frame_vectors.append(
                    vec(int(rng.integers(0, 12)), int(rng.integers(0, 12)),
                        int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
                )
            # drop duplicate prev positions within the frame
            seen = set()
            unique = []
            for v in frame_vectors:
                if (v.x_prev, v.y_prev) not in seen:
                    seen.add((v.x_prev, v.y_prev))
                    unique.append(v)
            total += len(unique)
            per_frame.append(unique)
        tracks = link_tracks(per_frame)
        assert sum(t.length - 1 for t in tracks) == total


class TestRedetect:
    def track(self, tid, points):
        return Track(tid, points)

    def test_short_gap_merged(self):
        a = self.track(0, [(9, 50, 50), (10, 50, 50)])
        b = self.track(1, [(12, 50, 50), (13, 50, 50)])
        [merged] = redetect([a, b], max_gap=2, radius=1)
        assert merged.length == 4
        assert merged.gaps == [(11, 11)]
        assert merged.end_frame == 13

    def test_long_gap_not_merged(self):
        a = self.track(0, [(9, 50, 50), (10, 50, 50)])
        b = self.track(1, [(20, 50, 50), (21, 50, 50)])
        assert len(redetect([a, b], max_gap=2, radius=1)) == 2

    def test_distance_gate(self):
        a = self.track(0, [(9, 50, 50), (10, 50, 50)])
        b = self.track(1, [(12, 55, 50), (13, 55, 50)])
        assert len(redetect([a, b], max_gap=2, radius=1)) == 2

    def test_no_gaps_identity(self):
        tracks = [
            self.track(0, [(0, 1, 1), (1, 2, 1)]),
            self.track(1, [(1, 9, 9), (2, 9, 9)]),
        ]
        out = redetect(tracks, max_gap=3, radius=2)
        assert [(t.id, t.points) for t in out] == [(t.id, t.points) for t in tracks]

    def test_nearest_start_wins_and_chains(self):
        a = self.track(0, [(5, 50, 50), (6, 50, 50)])
        near = self.track(1, [(8, 50, 50), (9, 50, 50)])
        far = self.track(2, [(11, 50, 50), (12, 50, 50)])
        out = redetect([a, near, far], max_gap=4, radius=1)
        merged = next(t for t in out if t.id == 0)
        assert merged.gaps == [(7, 7), (10, 10)]
        # and the chain continues into the far track afterwards
        assert merged.end_frame == 12
        assert len(out) == 1

    def test_never_decreases_length_or_increases_count(self):
        rng = np.random.default_rng(1)
        tracks = []
        for tid in range(20):
            start = int(rng.integers(0, 30))
            n = int(rng.integers(2, 6))
            x, y = int(rng.integers(0, 20)), int(rng.integers(0, 20))
            tracks.append(self.track(tid, [(start + k, x, y) for k in range(n)]))
        before = {t.id: t.length for t in tracks}
        out = redetect(tracks, max_gap=3, radius=2)
        assert len(out) <= len(tracks)
        for t in out:
            assert t.length >= before[t.id]

    def test_conservation_with_gap_links(self):
        a = self.track(0, [(0, 5, 5), (1, 5, 5), (2, 5, 5)])
        b = self.track(1, [(4, 5, 5), (5, 5, 5)])
        n_vectors = (a.length - 1) + (b.length - 1)
        [merged] = redetect([a, b], max_gap=2, radius=0)
        assert merged.length - 1 == n_vectors + len(merged.gaps)


def redetect_reference(tracks, max_gap, radius):
    """The original full scan: every start in the next max_gap frames is a
    candidate for every track end. Kept as the oracle for `redetect`."""
    merged = [Track(t.id, list(t.points), list(t.gaps)) for t in tracks]
    alive = {t.id: t for t in merged}
    starts = {}
    for t in merged:
        starts.setdefault(t.start_frame, []).append(t)
    heap = [(t.end_frame, t.id) for t in merged]
    heapq.heapify(heap)
    consumed = set()
    while heap:
        end_frame, tid = heapq.heappop(heap)
        track = alive.get(tid)
        if track is None or tid in consumed or track.end_frame != end_frame:
            continue
        _, ex, ey = track.points[-1]
        best = None
        for start in range(end_frame + 2, end_frame + max_gap + 2):
            for cand in starts.get(start, ()):
                if cand.id == tid or cand.id in consumed or cand.id not in alive:
                    continue
                _, sx, sy = cand.points[0]
                cheb = max(abs(sx - ex), abs(sy - ey))
                if cheb > radius:
                    continue
                key = (cand.start_frame, cheb, sy, sx, cand.id)
                if best is None or key < best[0]:
                    best = (key, cand)
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


def as_tuples(tracks):
    return [(t.id, t.points, t.gaps) for t in tracks]


@st.composite
def track_sets(draw):
    """Short tracks packed into a few frames and a 10x10 patch that reaches
    below zero, so starts share points, distances tie and gaps chain."""
    n = draw(st.integers(0, 24))
    ids = draw(st.permutations(range(n)))
    tracks = []
    for tid in ids:
        start = draw(st.integers(0, 14))
        x, y = draw(st.integers(-3, 6)), draw(st.integers(-3, 6))
        points = [(start, x, y)]
        for k in range(1, draw(st.integers(2, 4))):
            x += draw(st.integers(-1, 1))
            y += draw(st.integers(-1, 1))
            points.append((start + k, x, y))
        tracks.append(Track(tid, points))
    return tracks


# Hand-made sets that the generated ones must not be trusted to hit.
SHARED_STARTS = [
    Track(0, [(0, 5, 5), (1, 5, 5)]),
    Track(1, [(3, 5, 5), (4, 6, 5)]),
    Track(2, [(3, 5, 5), (4, 4, 5)]),
    Track(3, [(0, 5, 6), (1, 5, 5)]),
]
CHEB_SY_SX_TIES = [
    Track(0, [(0, 5, 5), (1, 5, 5)]),
    Track(4, [(3, 6, 4), (4, 6, 4)]),  # cheb 1, sy 4, sx 6
    Track(2, [(3, 4, 4), (4, 4, 4)]),  # cheb 1, sy 4, sx 4
    Track(3, [(3, 6, 6), (4, 6, 6)]),  # cheb 1, sy 6
    Track(1, [(3, 4, 4), (4, 3, 3)]),  # same start as id 2, smaller id: wins
]
MERGE_CHAIN = [
    Track(0, [(0, 0, 0), (1, 0, 0)]),
    Track(1, [(3, 1, 0), (4, 1, 0)]),
    Track(2, [(6, 2, 1), (7, 2, 1)]),
    Track(3, [(9, 3, 1), (10, 3, 2)]),
    Track(4, [(13, 4, 3), (14, 4, 3)]),
]


class TestRedetectOracle:
    @given(track_sets(), st.integers(1, 5), st.integers(0, 3))
    @example(SHARED_STARTS, 2, 1)
    @example(CHEB_SY_SX_TIES, 2, 1)
    @example(MERGE_CHAIN, 2, 1)
    @example(MERGE_CHAIN, 1, 3)
    @settings(max_examples=300, deadline=None)
    def test_matches_full_scan(self, tracks, max_gap, radius):
        expected = as_tuples(redetect_reference(tracks, max_gap, radius))
        assert as_tuples(redetect(tracks, max_gap, radius)) == expected

    def test_hand_made_sets_exercise_their_case(self):
        [merged] = [t for t in redetect(MERGE_CHAIN, 2, 1) if t.id == 0]
        assert len(merged.gaps) == 4
        out = {t.id: t for t in redetect(CHEB_SY_SX_TIES, 2, 1)}
        assert out[0].points[2:] == [(3, 4, 4), (4, 3, 3)] and 1 not in out

    @pytest.mark.parametrize("max_gap,radius", [(4, 1), (1, 1), (2, 2), (5, 3)])
    def test_matches_full_scan_on_rotate_run(self, rotate_tracks, max_gap, radius):
        expected = redetect_reference(rotate_tracks, max_gap, radius)
        assert as_tuples(redetect(rotate_tracks, max_gap, radius)) == as_tuples(expected)
        assert sum(len(t.gaps) for t in expected) > 0


@pytest.fixture(scope="module")
def rotate_tracks():
    config = PARAMETER_SETS[6]
    frames, _ = synthesize_sequence(config, "rotate", 12, seed=0)
    vectors, _ = run_pipeline(config, frames)
    return link_tracks(vectors)


class TestAnalyze:
    def test_matches_separate_steps(self):
        per_frame = [[], [vec(5, 5), vec(9, 9, 0, 1)], [vec(6, 5)], [], []]
        gt = [(1.0, 0.0)] * len(per_frame)
        result = analyze(per_frame, gt, max_gap=2, radius=1)
        est = [mean_flow(v) for v in per_frame]
        assert result.estimates == est
        assert result.accuracy == accuracy_metrics(est, gt)
        assert as_tuples(result.tracks) == as_tuples(
            redetect(link_tracks(per_frame), 2, 1)
        )

    def test_without_ground_truth(self):
        assert analyze([[], [vec(5, 5)]]).accuracy is None


class TestMeanFlow:
    def test_constant_field(self):
        vectors = [vec(i, 0, 1, 0) for i in range(5)]
        assert mean_flow(vectors) == (1.0, 0.0)

    def test_empty_is_no_data(self):
        assert mean_flow([]) is None

    def test_mixed(self):
        vectors = [vec(0, 0, 2, 0), vec(1, 0, 4, 0), vec(2, 0, 0, 6)]
        assert mean_flow(vectors) == (2.0, 2.0)

    def test_union_is_weighted_mean(self):
        rng = np.random.default_rng(2)
        a = [vec(0, 0, int(rng.integers(-5, 6)), int(rng.integers(-5, 6))) for _ in range(7)]
        b = [vec(0, 0, int(rng.integers(-5, 6)), int(rng.integers(-5, 6))) for _ in range(13)]
        ma, mb, mu = mean_flow(a), mean_flow(b), mean_flow(a + b)
        assert mu[0] == pytest.approx((7 * ma[0] + 13 * mb[0]) / 20)
        assert mu[1] == pytest.approx((7 * ma[1] + 13 * mb[1]) / 20)


class TestTraveledDistance:
    def test_unit_steps(self):
        assert traveled_distance([(1, 0)] * 3) == [1, 2, 3]

    def test_three_four_five(self):
        assert traveled_distance([(3, 4), (0, 0)]) == [5, 5]

    def test_empty(self):
        assert traveled_distance([]) == []

    def test_no_data_contributes_zero(self):
        assert traveled_distance([(1, 0), None, (1, 0)]) == [1, 1, 2]

    def test_monotone(self):
        rng = np.random.default_rng(3)
        flows = [(float(rng.normal()), float(rng.normal())) for _ in range(30)]
        cum = traveled_distance(flows)
        assert all(b >= a for a, b in zip(cum, cum[1:]))


class TestAccuracyMetrics:
    def test_perfect_estimate(self):
        gt = [(1.0, 0.5)] * 10
        report = accuracy_metrics(list(gt), gt)
        assert report.rmse_x == 0 and report.rmse_y == 0
        assert report.final_rel_err == 0

    def test_half_speed_estimate(self):
        est = [(1.0, 0.0)] * 10
        gt = [(2.0, 0.0)] * 10
        report = accuracy_metrics(est, gt)
        assert report.rmse_x == pytest.approx(1.0)
        assert report.rmse_y == 0
        assert report.final_rel_err == pytest.approx(0.5)

    def test_standstill_truth(self):
        est = [(1.0, 0.0), (0.0, 1.0)]
        gt = [(0.0, 0.0)] * 2
        report = accuracy_metrics(est, gt)
        assert report.final_rel_err is None
        assert report.rmse_x == pytest.approx(math.sqrt(0.5))
        assert report.rmse_y == pytest.approx(math.sqrt(0.5))

    def test_no_data_frames_flagged(self):
        report = accuracy_metrics([(1.0, 0.0), None], [(1.0, 0.0)] * 2)
        assert report.no_data_frames == [1]
        assert report.per_frame_error[1] == (-1.0, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError):
            accuracy_metrics([(1.0, 0.0)], [(1.0, 0.0)] * 2)


class TestCsvInterfaces:
    def test_ground_truth_round_trip(self, tmp_path):
        flows = [(1.25, -0.5), (0.0, 0.0), (3.0, 4.0)]
        path = tmp_path / "gt.csv"
        write_ground_truth_csv(path, flows)
        assert read_ground_truth_csv(path) == flows

    @pytest.mark.parametrize("bad_row,message", [
        (b"2,1.0", r"gt\.csv:4: expected frame,dx,dy"),
        (b"2,abc,0.0", r"gt\.csv:4: expected frame,dx,dy"),
        (b"x,1.0,0.0", r"gt\.csv:4: expected frame,dx,dy"),
        (b"2,\xff,0", r"gt\.csv: not UTF-8"),
    ])
    def test_bad_ground_truth_row_names_file(self, tmp_path, bad_row, message):
        path = tmp_path / "gt.csv"
        path.write_bytes(b"frame,gt_dx,gt_dy\n0,0.0,0.0\n1,1.0,0.0\n" + bad_row + b"\n")
        with pytest.raises(FlowcamError, match=message):
            read_ground_truth_csv(path)

    def test_report_files(self, tmp_path):
        est = [(1.0, 0.0), None, (0.5, 0.5)]
        gt = [(1.0, 0.0)] * 3
        report = accuracy_metrics(est, gt)
        tracks = link_tracks([[], [vec(5, 5)], [vec(6, 5)]])
        frame_csv = tmp_path / "frames.csv"
        summary_csv = tmp_path / "summary.csv"
        write_frame_report_csv(frame_csv, est, gt, report)
        write_summary_csv(summary_csv, report, tracks)
        lines = frame_csv.read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[2].split(",")[1] == ""  # no-data frame leaves est blank
        header, row = summary_csv.read_text().strip().splitlines()
        assert header.startswith("rmse_x")
        stats = track_stats(tracks)
        assert stats["n_tracks"] == 1
        assert stats["max_track_len"] == 3
