import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from flowcam import track_analyzer
from flowcam.errors import AlignmentError, FlowcamError, RangeError
from flowcam.matcher import FlowVector
from flowcam.pipeline import PARAMETER_SETS, run_pipeline, synthesize_sequence
from flowcam.track_analyzer import (
    REDETECT_MAX_GAP,
    REDETECT_RADIUS,
    TrackSet,
    accuracy_metrics,
    analyze,
    link_tracks,
    mean_flow,
    read_ground_truth_csv,
    redetect,
    track_stats,
    traveled_distance,
    write_analysis,
    write_ground_truth_csv,
)
from flowcam.wire_format import VectorTable, encode
from oracles import (
    Track,
    link_tracks_reference,
    redetect_reference,
    track_set,
    vector_batch,
)
from oracles import tracks as track_records


def batches(per_frame):
    """Per-frame record lists as the per-frame batches the analysis takes."""
    return [vector_batch(vectors) for vectors in per_frame]


def vec(x_prev, y_prev, dx=1, dy=0, best=0, second=256):
    return FlowVector(x_prev, y_prev, dx, dy, best, second)


class TestLinkTracks:
    def test_thirty_frame_pairs_make_length_31(self):
        per_frame = [[]]
        x = 10
        for t in range(1, 31):
            per_frame.append([vec(x, 20, 1, 0)])
            x += 1
        [track] = track_records(link_tracks(batches(per_frame)))
        assert track.length == 31
        assert track.points[0] == (0, 10, 20)
        assert track.points[-1] == (30, 40, 20)

    def test_track_set_layout(self):
        tracks = link_tracks(batches([[], [vec(10, 10), vec(20, 20)], [vec(11, 10)]]))
        assert isinstance(tracks, TrackSet) and len(tracks) == 2
        assert tracks.ids.tolist() == [0, 1]
        assert tracks.points.tolist() == [[0, 10, 10], [1, 11, 10], [2, 12, 10],
                                          [0, 20, 20], [1, 21, 20]]
        assert tracks.offsets.tolist() == [0, 3, 5]
        assert tracks.gaps.shape == (0, 2) and tracks.gap_offsets.tolist() == [0, 0, 0]
        assert {a.dtype for a in (tracks.ids, tracks.points, tracks.offsets, tracks.gaps,
                                  tracks.gap_offsets)} == {np.dtype(np.int64)}

    def test_empty_input(self):
        assert list(track_records(link_tracks([]))) == []
        assert list(track_records(link_tracks(batches([[], [], []])))) == []

    def test_one_pixel_offset_breaks_chain(self):
        per_frame = [
            [],
            [vec(10, 10, 1, 0)],  # ends at (1, 11, 10)
            [vec(12, 10, 1, 0)],  # starts from (1, 12, 10): no link
        ]
        tracks = list(track_records(link_tracks(batches(per_frame))))
        assert len(tracks) == 2
        assert all(t.length == 2 for t in tracks)

    def test_convergent_vectors_keep_older_track(self):
        per_frame = [
            [],
            [vec(10, 10, 1, 0), vec(12, 10, -1, 0)],  # both end at (1, 11, 10)
            [vec(11, 10, 1, 0)],
        ]
        tracks = list(track_records(link_tracks(batches(per_frame))))
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
        tracks = track_records(link_tracks(batches(per_frame)))
        assert sum(t.length - 1 for t in tracks) == total


def redetect_records(tracks, max_gap, radius):
    """`redetect` on a list of `Track` records, as records."""
    return list(track_records(redetect(track_set(tracks), max_gap, radius)))


class TestRedetect:
    def track(self, tid, points):
        return Track(tid, points)

    def test_short_gap_merged(self):
        a = self.track(0, [(9, 50, 50), (10, 50, 50)])
        b = self.track(1, [(12, 50, 50), (13, 50, 50)])
        [merged] = redetect_records([a, b], max_gap=2, radius=1)
        assert merged.length == 4
        assert merged.gaps == [(11, 11)]
        assert merged.end_frame == 13

    def test_long_gap_not_merged(self):
        a = self.track(0, [(9, 50, 50), (10, 50, 50)])
        b = self.track(1, [(20, 50, 50), (21, 50, 50)])
        assert len(redetect_records([a, b], max_gap=2, radius=1)) == 2

    def test_distance_gate(self):
        a = self.track(0, [(9, 50, 50), (10, 50, 50)])
        b = self.track(1, [(12, 55, 50), (13, 55, 50)])
        assert len(redetect_records([a, b], max_gap=2, radius=1)) == 2

    def test_no_gaps_identity(self):
        tracks = [
            self.track(0, [(0, 1, 1), (1, 2, 1)]),
            self.track(1, [(1, 9, 9), (2, 9, 9)]),
        ]
        out = redetect_records(tracks, max_gap=3, radius=2)
        assert [(t.id, t.points) for t in out] == [(t.id, t.points) for t in tracks]

    def test_nearest_start_wins_and_chains(self):
        a = self.track(0, [(5, 50, 50), (6, 50, 50)])
        near = self.track(1, [(8, 50, 50), (9, 50, 50)])
        far = self.track(2, [(11, 50, 50), (12, 50, 50)])
        out = redetect_records([a, near, far], max_gap=4, radius=1)
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
        out = redetect_records(tracks, max_gap=3, radius=2)
        assert len(out) <= len(tracks)
        for t in out:
            assert t.length >= before[t.id]

    def test_conservation_with_gap_links(self):
        a = self.track(0, [(0, 5, 5), (1, 5, 5), (2, 5, 5)])
        b = self.track(1, [(4, 5, 5), (5, 5, 5)])
        n_vectors = (a.length - 1) + (b.length - 1)
        [merged] = redetect_records([a, b], max_gap=2, radius=0)
        assert merged.length - 1 == n_vectors + len(merged.gaps)


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
    @given(track_sets(), st.integers(1, 5), st.integers(0, 60))
    @example(SHARED_STARTS, 2, 1)
    @example(CHEB_SY_SX_TIES, 2, 1)
    @example(MERGE_CHAIN, 2, 1)
    @example(MERGE_CHAIN, 1, 3)
    @settings(max_examples=300, deadline=None)
    def test_matches_full_scan(self, tracks, max_gap, radius):
        expected = as_tuples(redetect_reference(tracks, max_gap, radius))
        given_set = track_set(tracks)
        assert as_tuples(track_records(redetect(given_set, max_gap, radius))) == expected
        assert given_set == track_set(tracks)  # the input is left as it was

    def test_hand_made_sets_exercise_their_case(self):
        [merged] = [t for t in redetect_records(MERGE_CHAIN, 2, 1) if t.id == 0]
        assert len(merged.gaps) == 4
        out = {t.id: t for t in redetect_records(CHEB_SY_SX_TIES, 2, 1)}
        assert out[0].points[2:] == [(3, 4, 4), (4, 3, 3)] and 1 not in out

    def test_gaps_of_merged_input_carry_over(self):
        once = redetect(track_set(MERGE_CHAIN), 1, 3)
        expected = redetect_reference(list(track_records(once)), 2, 3)
        assert as_tuples(track_records(redetect(once, 2, 3))) == as_tuples(expected)
        assert sum(len(t.gaps) for t in expected) > len(once.gaps) > 0

    @pytest.mark.parametrize("max_gap,radius", [(4, 1), (1, 1), (2, 2), (5, 3)])
    def test_matches_full_scan_on_rotate_run(self, rotate_tracks, max_gap, radius):
        expected = redetect_reference(list(track_records(rotate_tracks)), max_gap, radius)
        assert (as_tuples(track_records(redetect(rotate_tracks, max_gap, radius)))
                == as_tuples(expected))
        assert sum(len(t.gaps) for t in expected) > 0

    @pytest.mark.parametrize("budget", [1, 1 << 16])
    def test_chunked_probes_match_full_scan(self, monkeypatch, rotate_tracks, budget):
        # At max_gap 4 and radius 5 an end takes 4 * 11 probes of 32 bytes, so
        # a 1-byte budget probes one end per chunk and 64 KiB 46 ends; the
        # rotate run's ends span many chunks either way.
        assert len(rotate_tracks) >= 3 * 46
        monkeypatch.setattr(track_analyzer, "_PROBE_BYTES", budget)
        expected = redetect_reference(list(track_records(rotate_tracks)), 4, 5)
        assert (as_tuples(track_records(redetect(rotate_tracks, 4, 5)))
                == as_tuples(expected))

    @pytest.mark.parametrize("max_gap,radius", [(0, 1), (1, -1), (4, -2)])
    def test_window_out_of_range(self, max_gap, radius):
        with pytest.raises(RangeError):
            redetect(track_set(MERGE_CHAIN), max_gap, radius)


@pytest.fixture(scope="module")
def rotate_tracks():
    config = PARAMETER_SETS[6]
    frames, _ = synthesize_sequence(config, "rotate", 12, seed=0)
    vectors, _ = run_pipeline(config, frames)
    return link_tracks(vectors)


# Positions near both ends of the wire range and displacements at its
# limits; the small pools make tails repeat within a frame and heads
# converge, so `pop` and `setdefault` order both matter.
COORDS = st.one_of(st.integers(0, 3), st.integers(65533, 65535))
SHIFTS = st.one_of(st.integers(-1, 1), st.sampled_from([-32767, 32767]))
VECTORS = st.builds(vec, COORDS, COORDS, SHIFTS, SHIFTS)

DUPLICATE_TAILS = [[], [vec(0, 0)], [vec(1, 0), vec(1, 0, 0, 1)], [vec(2, 0), vec(1, 1)]]
CONVERGING_HEADS = [[vec(0, 0, 1, 0), vec(2, 0, -1, 0)], [vec(1, 0, 1, 0)],
                    [], [vec(2, 0)]]
WIRE_LIMITS = [[vec(65535, 0, -32767, 32767)], [vec(32768, 32767, 32767, -32767)],
               [vec(65535, 0, 0, 0), vec(0, 65535, 0, 0)]]


class TestLinkOracle:
    @given(st.lists(st.lists(VECTORS, max_size=8), max_size=7))
    @example(DUPLICATE_TAILS)
    @example(CONVERGING_HEADS)
    @example(WIRE_LIMITS)
    @settings(max_examples=300, deadline=None)
    def test_matches_per_vector_dict(self, per_frame):
        vectors = batches(per_frame)
        assert (as_tuples(track_records(link_tracks(vectors)))
                == as_tuples(link_tracks_reference(vectors)))

    def test_hand_made_streams_exercise_their_case(self):
        [kept, fresh, late] = track_records(link_tracks(batches(CONVERGING_HEADS)))
        assert kept.points == [(-1, 0, 0), (0, 1, 0), (1, 2, 0)]
        assert fresh.points == [(-1, 2, 0), (0, 1, 0)]
        assert late.points == [(2, 2, 0), (3, 3, 0)]  # the empty frame breaks the chain
        [first, second] = track_records(link_tracks(batches(DUPLICATE_TAILS)))
        assert first.points == [(0, 0, 0), (1, 1, 0), (2, 2, 0), (3, 3, 0)]
        assert second.points == [(1, 1, 0), (2, 1, 1), (3, 2, 1)]
        [first, second] = track_records(link_tracks(batches(WIRE_LIMITS)))
        assert first.points == [(-1, 65535, 0), (0, 32768, 32767), (1, 65535, 0),
                                (2, 65535, 0)]
        assert second.points == [(1, 0, 65535), (2, 0, 65535)]

    def test_int16_table_links_like_int64_batches(self):
        # Heads at 2047 + 32767 leave int16, so linking widens the records.
        per_frame = [[vec(2047, 0, 32767, -32768)], [vec(0, 2047, 2047, 0)],
                     [vec(2047, 2047, -2047, -2047)]]
        table = VectorTable.from_frames([encode(b) for b in batches(per_frame)])
        assert table.rows.dtype.str == "<i2"
        assert link_tracks(table) == link_tracks(batches(per_frame))
        assert len(link_tracks(table)) == 2


@pytest.fixture(scope="module", params=[(1, "still", 6), (3, "rotate", 24),
                                        (6, "translate-hard", 24)])
def seed0_vectors(request):
    set_id, scenario, n_frames = request.param
    config = PARAMETER_SETS[set_id]
    frames, _ = synthesize_sequence(config, scenario, n_frames, seed=0)
    vectors, _ = run_pipeline(config, frames)
    return vectors


class TestAnalyze:
    def test_matches_separate_steps(self):
        per_frame = batches([[], [vec(5, 5), vec(9, 9, 0, 1)], [vec(6, 5)], [], []])
        gt = [(1.0, 0.0)] * len(per_frame)
        result = analyze(per_frame, gt, max_gap=2, radius=1)
        est = [mean_flow(v) for v in per_frame]
        assert result.estimates == est
        assert result.accuracy == accuracy_metrics(est, gt)
        assert result.tracks == redetect(link_tracks(per_frame), 2, 1)
        assert result.summary == dict(
            track_stats(result.tracks), rmse_x=result.accuracy.rmse_x,
            rmse_y=result.accuracy.rmse_y, final_rel_err=result.accuracy.final_rel_err,
            no_data_frames=len(result.accuracy.no_data_frames))

    def test_without_ground_truth(self):
        result = analyze(batches([[], [vec(5, 5)]]))
        assert result.accuracy is None
        assert result.summary == track_stats(result.tracks)

    def test_tracks_match_references_on_short_runs(self, seed0_vectors):
        tracks = analyze(seed0_vectors).tracks
        expected = redetect_reference(link_tracks_reference(seed0_vectors),
                                      REDETECT_MAX_GAP, REDETECT_RADIUS)
        assert tracks == track_set(expected)
        assert len(tracks) > 100


class TestMeanFlow:
    def test_constant_field(self):
        vectors = [vec(i, 0, 1, 0) for i in range(5)]
        assert mean_flow(vector_batch(vectors)) == (1.0, 0.0)

    def test_empty_is_no_data(self):
        assert mean_flow(vector_batch([])) is None

    def test_mixed(self):
        vectors = [vec(0, 0, 2, 0), vec(1, 0, 4, 0), vec(2, 0, 0, 6)]
        assert mean_flow(vector_batch(vectors)) == (2.0, 2.0)

    def test_union_is_weighted_mean(self):
        rng = np.random.default_rng(2)
        a = [vec(0, 0, int(rng.integers(-5, 6)), int(rng.integers(-5, 6))) for _ in range(7)]
        b = [vec(0, 0, int(rng.integers(-5, 6)), int(rng.integers(-5, 6))) for _ in range(13)]
        ma, mb, mu = (mean_flow(vector_batch(v)) for v in (a, b, a + b))
        assert mu[0] == pytest.approx((7 * ma[0] + 13 * mb[0]) / 20)
        assert mu[1] == pytest.approx((7 * ma[1] + 13 * mb[1]) / 20)

    @given(st.lists(st.tuples(st.integers(-2048, 2048), st.integers(-2048, 2048)),
                    min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_equals_record_sums(self, flows):
        """Bit-equal to the per-record sum divided by the count."""
        vectors = [vec(0, 0, dx, dy) for dx, dy in flows]
        n = len(vectors)
        expected = (sum(v.dx for v in vectors) / n, sum(v.dy for v in vectors) / n)
        assert mean_flow(vector_batch(vectors)) == expected


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

    def test_ground_truth_rows_in_any_order(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("frame,gt_dx,gt_dy\n2,3.0,0.0\n0,1.0,0.0\n1,2.0,0.0\n")
        assert read_ground_truth_csv(path) == [(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]

    @pytest.mark.parametrize("bad_row,message", [
        (b"2,1.0", r"gt\.csv:4: expected frame,dx,dy"),
        (b"2,abc,0.0", r"gt\.csv:4: expected frame,dx,dy"),
        (b"x,1.0,0.0", r"gt\.csv:4: expected frame,dx,dy"),
        (b"2,\xff,0", r"gt\.csv: not UTF-8"),
        (b"1,0.5,0.0", r"gt\.csv:4: frame 1 already on line 3"),
        (b"0,0.5,0.0", r"gt\.csv:4: frame 0 already on line 2"),
        (b"5,0.5,0.0", r"gt\.csv:4: frame 5 outside 0\.\.2"),
        (b"-1,0.5,0.0", r"gt\.csv:4: frame -1 outside 0\.\.2"),
        (b"2,nan,0.0", r"gt\.csv:4: flow \(nan, 0\.0\) is not finite"),
        (b"2,0.0,1e400", r"gt\.csv:4: flow \(0\.0, inf\) is not finite"),
        (b"2,-inf,0.0", r"gt\.csv:4: flow \(-inf, 0\.0\) is not finite"),
    ])
    def test_bad_ground_truth_row_names_file(self, tmp_path, bad_row, message):
        path = tmp_path / "gt.csv"
        path.write_bytes(b"frame,gt_dx,gt_dy\n0,0.0,0.0\n1,1.0,0.0\n" + bad_row + b"\n")
        with pytest.raises(FlowcamError, match=message):
            read_ground_truth_csv(path)

    # Each example rewrites the same file, so sharing tmp_path is harmless.
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.one_of(
        st.binary(max_size=200),
        st.lists(st.lists(st.sampled_from(
            ["frame", "0", "-1", "1.5", "nan", "1e400", "x", "", " 2 ", "\"", "\xff"]),
            max_size=4).map(",".join), max_size=6).map("\n".join).map(str.encode),
    ))
    def test_only_typed_errors_escape(self, tmp_path, data):
        path = tmp_path / "fuzz.csv"
        path.write_bytes(data)
        try:
            read_ground_truth_csv(path)
        except FlowcamError:
            pass

    def test_report_files(self, tmp_path):
        per_frame = batches([[], [vec(5, 5)], [vec(6, 5)]])
        gt = [(1.0, 0.0)] * 3
        write_analysis(analyze(per_frame, gt), gt, tmp_path / "gt", "a")
        assert sorted(p.name for p in (tmp_path / "gt").iterdir()) == [
            "a_frames.csv", "a_summary.csv"]
        lines = (tmp_path / "gt" / "a_frames.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[1].split(",")[1] == ""  # no-data frame leaves est blank
        header, row = (tmp_path / "gt" / "a_summary.csv").read_text().strip().splitlines()
        assert header.startswith("rmse_x")
        stats = track_stats(redetect(link_tracks(per_frame), REDETECT_MAX_GAP,
                                     REDETECT_RADIUS))
        assert stats["n_tracks"] == 1
        assert stats["max_track_len"] == 3
        assert row.split(",")[3:] == [str(v) for v in stats.values()]

        write_analysis(analyze(per_frame), None, tmp_path / "none", "b")
        assert [p.name for p in (tmp_path / "none").iterdir()] == ["b_summary.csv"]
        _, row = (tmp_path / "none" / "b_summary.csv").read_text().strip().splitlines()
        assert row.split(",")[:3] == ["n/a"] * 3
