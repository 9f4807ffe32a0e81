"""The benchmark's contract with the package, checked by the test suite.

`perfbench/checks.py` parses `.ofv` streams on its own and re-implements the
matcher. It reads `run_pipeline`'s per-frame batches and `match_features`'
feature sets through `len`, iteration and record attributes, and
`perfbench/run.py` compares repeated runs with `!=` and times frames as
`run_pipeline` pulls them from its list. It also requires the run's
summary and frame CSVs to equal those of the `flowcam report` replay, byte
for byte, and the report's track keys to equal the CSV row. The checks
module is loaded here read-only from its path, so a change to the batch
types fails these tests rather than the benchmark.
"""

import csv
import types
from pathlib import Path

import pytest

import flowcam.pipeline as pipeline
from flowcam.cli import main
from flowcam.matcher import VectorBatch
from flowcam.pipeline import PARAMETER_SETS, finalize_report, run_pipeline, synthesize_sequence
from flowcam.wire_format import VectorTable

CHECKS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
CONFIG = PARAMETER_SETS[6]


@pytest.fixture(scope="module")
def checks():
    # Compiled from the source text, so no bytecode is written next to it.
    module = types.ModuleType("perfbench_checks")
    module.__file__ = str(CHECKS_PATH)
    exec(compile(CHECKS_PATH.read_text(encoding="utf-8"), str(CHECKS_PATH), "exec"),
         module.__dict__)
    return module


class FrameLog(list):
    """Frame list that logs each request, as perfbench's frame clock does."""

    def __init__(self, frames, events):
        super().__init__(frames)
        self.events = events

    def __iter__(self):
        for i, frame in enumerate(list.__iter__(self)):
            self.events.append(("frame", i))
            yield frame


def traced_run(scenario, n_frames, out_dir):
    """One `flowcam run --scenario` on set 6 with `match_features` spied on.

    Returns the batches, the report, the stream bytes, the (prev, curr,
    result) of every match call and the ordered frame/match events."""
    frames, gt = synthesize_sequence(CONFIG, scenario, n_frames, seed=0)
    calls, events = [], []
    original = pipeline.match_features

    def spy(prev, curr, max_displacement):
        result = original(prev, curr, max_displacement)
        calls.append((prev, curr, result))
        events.append(("match", len(calls)))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "match_features", spy)
        vectors, report = run_pipeline(CONFIG, FrameLog(frames, events))
    again, _ = run_pipeline(CONFIG, frames)
    finalize_report(vectors, report, gt, out_dir, name="run")
    stream = (out_dir / "run.ofv").read_bytes()
    return dict(vectors=vectors, again=again, report=report, stream=stream,
                calls=calls, events=events, out_dir=out_dir)


@pytest.fixture(scope="module")
def translate(tmp_path_factory):
    return traced_run("translate-hard", 12, tmp_path_factory.mktemp("translate"))


@pytest.fixture(scope="module")
def still(tmp_path_factory):
    return traced_run("still", 3, tmp_path_factory.mktemp("still"))


@pytest.fixture(scope="module")
def replayed(translate, tmp_path_factory):
    """`flowcam report` and `flowcam tracks` on the translate run's stream,
    each into its own directory, as perfbench replays it."""
    run_dir = translate["out_dir"]
    report_dir = tmp_path_factory.mktemp("report")
    tracks_dir = tmp_path_factory.mktemp("tracks")
    assert main(["report", "--ofv", str(run_dir / "run.ofv"),
                 "--gt", str(run_dir / "run_gt.csv"), "--out", str(report_dir)]) == 0
    assert main(["tracks", "--ofv", str(run_dir / "run.ofv"),
                 "--out", str(tracks_dir)]) == 0
    return run_dir, report_dir, tracks_dir


def summary_row(path):
    with open(path, newline="", encoding="utf-8") as f:
        return next(csv.DictReader(f))


def of_size(run):
    return run["report"].of_width, run["report"].of_height


def test_stream_carries_the_returned_batches(checks, translate):
    rows, errors = checks.check_stream(translate["stream"], translate["vectors"],
                                       of_size(translate))
    assert errors == [] and rows is not None
    assert sum(len(r) for r in rows) > 0
    assert checks.check_vectors(rows, of_size(translate), CONFIG.max_displacement,
                                CONFIG.ratio_threshold, CONFIG.brief_max) == []


def test_stream_check_sees_a_changed_vector(checks, translate):
    vectors = list(translate["vectors"])
    changed = vectors[-1].rows.copy()
    changed[0, 2] += 1
    vectors[-1] = VectorBatch(changed)
    _, errors = checks.check_stream(translate["stream"], vectors, of_size(translate))
    assert errors


def test_matcher_pair_against_all_pairs(checks, translate):
    prev, curr, matched = translate["calls"][len(translate["calls"]) // 2]
    assert len(matched) > 0
    assert checks.check_matcher(prev, curr, matched, CONFIG.max_displacement, 6) == []


def test_still_pair_self_matches(checks, still):
    rows, errors = checks.check_stream(still["stream"], still["vectors"], of_size(still))
    assert errors == []
    prev, curr, matched = still["calls"][-1]
    frame = len(still["calls"])
    assert checks.check_still_pair(prev, curr, matched, rows[frame], frame) == []


def test_repeated_runs_compare_equal(translate):
    vectors, again = translate["vectors"], translate["again"]
    assert again is not vectors
    equal = vectors[-1] == again[-1]
    assert type(equal) is bool and equal
    assert not (again != vectors)
    assert len(again[-1]) > 0
    rows = again.rows.copy()
    rows[-1, 2] += 1  # the last record of the last frame
    assert VectorTable(rows, again.offsets) != vectors


def test_frames_are_pulled_one_at_a_time(translate):
    events = translate["events"]
    n = len(events) // 2 + 1
    expected = [("frame", 0)]
    for i in range(1, n):
        expected += [("frame", i), ("match", i)]
    assert events == expected


TRACK_KEYS = ("n_tracks", "max_track_len", "p50_track_len", "redetected_count")


def test_output_directories_hold_the_known_files(replayed):
    run_dir, report_dir, tracks_dir = replayed
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "run.ofv", "run_frames.csv", "run_gt.csv", "run_summary.csv"]
    assert sorted(p.name for p in report_dir.iterdir()) == [
        "report_frames.csv", "report_summary.csv"]
    assert [p.name for p in tracks_dir.iterdir()] == ["tracks_summary.csv"]


def test_replay_reports_equal_the_run_reports(replayed):
    run_dir, report_dir, _ = replayed
    for kind in ("summary", "frames"):
        assert ((run_dir / f"run_{kind}.csv").read_bytes()
                == (report_dir / f"report_{kind}.csv").read_bytes())


def test_run_summary_equals_the_replay_row(translate, replayed):
    row = summary_row(replayed[1] / "report_summary.csv")
    summary = translate["report"].summary
    for key in TRACK_KEYS:
        assert float(row[key]) == float(summary[key])


def test_tracks_summary_has_the_run_tracks(replayed):
    run_dir, _, tracks_dir = replayed
    run_row = summary_row(run_dir / "run_summary.csv")
    row = summary_row(tracks_dir / "tracks_summary.csv")
    assert [row[key] for key in TRACK_KEYS] == [run_row[key] for key in TRACK_KEYS]
    assert [row[key] for key in ("rmse_x", "rmse_y", "final_rel_err")] == ["n/a"] * 3
