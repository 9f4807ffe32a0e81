"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavyweight sequence
runs are shared through session fixtures where criteria compare against each
other.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from flowcam.feature_engine import Feature, detect_fast, enforce_tile_budget, cap_global
from flowcam.matcher import match_features
from flowcam.pipeline import (
    PARAMETER_SETS,
    hardware_reference,
    run_parameter_set,
    run_pipeline,
    synthesize_sequence,
    throughput_report,
)
from flowcam.scene_synth import MotionSpec, TextureSpec, generate_texture, render_sequence
from flowcam.sensor_frontend import SensorConfig, max_frame_rate, of_scale
from flowcam.track_analyzer import link_tracks, mean_flow, redetect, track_stats, traveled_distance
from flowcam.wire_format import LINE_BYTES, VectorTable, encode, read_ofv, write_ofv
from flowcam.matcher import VectorBatch
from oracles import feature_set, match_features_bruteforce


def report_line(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"{status} criterion {num:2d}: {detail}"
    print(line)
    assert ok, line


def translation_rel_error(set_id, seed, speed_px_s, n_frames):
    cfg = PARAMETER_SETS[set_id]
    vectors, report = run_parameter_set(
        set_id, "translate-easy", 0.0, n_frames=n_frames, seed=seed,
        speed_px_s=speed_px_s,
    )
    flows = mean_flow(vectors)
    per_frame = speed_px_s / cfg.frame_rate / (cfg.subsample_factor * of_scale(cfg.out_width, cfg.out_height))
    gt_total = per_frame * (n_frames - 1)
    est_total = traveled_distance(flows)[-1]
    return flows, abs(est_total - gt_total) / gt_total


@pytest.fixture(scope="session")
def set3_fast_run():
    """Criterion 2's run: set 3, blocks, 3 px/frame, 300 frames."""
    start = time.perf_counter()
    flows, rel = translation_rel_error(3, seed=0, speed_px_s=420.0, n_frames=300)
    runtime = time.perf_counter() - start
    return flows, rel, runtime


def test_criterion_01_rate_model_fidelity():
    rows = [
        (240, 1024, 338), (240, 2048, 288),
        (480, 0, 229), (480, 1024, 205), (480, 2048, 186),
        (1364, 0, 88), (1364, 1024, 84), (1364, 2048, 80),
    ]
    start = time.perf_counter()
    exact = all(max_frame_rate(h, v) == fps for h, v, fps in rows)
    runtime = time.perf_counter() - start
    report_line(
        1, exact and runtime < 1.0,
        f"rate model reproduces all 8 documented rows exactly in {runtime:.3f}s",
    )


def test_criterion_02_translation_accuracy(set3_fast_run):
    flows, rel, runtime = set3_fast_run
    settled = flows[21:]
    per_frame_ok = all(
        f is not None and abs(f[0] - 3.0) <= 0.25 and abs(f[1]) <= 0.25
        for f in settled
    )
    ok = per_frame_ok and rel < 0.02 and runtime < 60.0
    report_line(
        2, ok,
        f"set 3 at 3 px/frame: per-frame flow within 0.25 px after frame 20 "
        f"({per_frame_ok}), distance error {rel:.3%} < 2%, runtime {runtime:.1f}s < 60s",
    )


def test_criterion_03_subpixel_degradation(set3_fast_run):
    _, rel_fast, _ = set3_fast_run
    _, rel_slow = translation_rel_error(3, seed=0, speed_px_s=70.0, n_frames=300)
    report_line(
        3, rel_slow > rel_fast,
        f"0.5 px/frame distance error {rel_slow:.3%} exceeds "
        f"3 px/frame error {rel_fast:.3%}",
    )


def test_criterion_04_subsampling_degradation():
    votes = 0
    details = []
    for seed in (0, 1, 2):
        _, e3 = translation_rel_error(3, seed, 700.0, n_frames=140)
        _, e1 = translation_rel_error(1, seed, 700.0, n_frames=60)
        _, e5 = translation_rel_error(5, seed, 700.0, n_frames=140)
        ordered = e3 <= e1 <= e5
        votes += ordered
        details.append(f"seed{seed}: {e3:.2%}/{e1:.2%}/{e5:.2%} {'ok' if ordered else 'x'}")
    report_line(
        4, votes >= 2,
        f"error ordering set3<=set1<=set5 holds in {votes}/3 seeds ({'; '.join(details)})",
    )


def test_criterion_05_rotation_failure():
    rates = {}
    for omega in (2.0, 20.0):
        vectors, report = run_parameter_set(
            6, "rotate", 0.0, n_frames=40, seed=1, omega_deg_frame=omega,
        )
        emitted = report.per_frame["emitted"][1:].sum()
        prev_features = report.per_frame["produced"][:-1].sum()
        rates[omega] = emitted / prev_features
    ok = rates[20.0] < 0.5 * rates[2.0]
    report_line(
        5, ok,
        f"wheel survival {rates[20.0]:.3f} at 20 deg/frame < half of "
        f"{rates[2.0]:.3f} at 2 deg/frame",
    )


def test_criterion_06_track_lengths():
    vectors, _ = run_parameter_set(4, "still", 0.0, n_frames=60, seed=0)
    tracks = redetect(link_tracks(vectors), 4, 1)
    stats = track_stats(tracks)
    ok = stats["max_track_len"] >= 31 and stats["p50_track_len"] >= 10
    report_line(
        6, ok,
        f"set 4 standstill: longest track {stats['max_track_len']} >= 31 points, "
        f"median {stats['p50_track_len']} >= 10",
    )


def test_criterion_07_controller_convergence():
    config = SensorConfig(
        out_width=640, out_height=480, frame_rate=60, brief_target=512,
        brief_max=2048, tile_budget=8, max_displacement=16, ratio_threshold=0.8,
    )
    texture = generate_texture(TextureSpec("blocks", 11, (1280, 960)))
    frames = render_sequence(texture, MotionSpec("still"), 61, (640, 480))
    at_one = cap_global(
        enforce_tile_budget(detect_fast(frames[0], 1), 640, 480, 8), 2048
    )
    supported = len(at_one) >= 2 * config.brief_target
    _, report = run_pipeline(config, frames, initial_threshold=20)
    produced = report.per_frame["produced"]
    in_band = np.abs(produced[20:61] - 512) <= 0.1 * 512
    ok = supported and bool(in_band.all())
    report_line(
        7, ok,
        f"scene supports {len(at_one)} >= 1024 corners at threshold 1; counts "
        f"within 10% of 512 from frame 20 through 60 "
        f"(range {produced[20:61].min()}..{produced[20:61].max()})",
    )


def test_criterion_08_matcher_oracle_equivalence():
    rng = np.random.default_rng(20240808)
    cases = 0
    for _ in range(1000):
        n_prev = int(rng.integers(0, 65))
        n_curr = int(rng.integers(0, 65))
        gate = int(rng.integers(1, 80))

        def features(n):
            return [
                Feature(
                    int(rng.integers(0, 96)), int(rng.integers(0, 96)), 10, 0.0,
                    rng.integers(0, 256, size=32, dtype=np.uint8).tobytes(),
                )
                for _ in range(n)
            ]

        prev, curr = features(n_prev), features(n_curr)
        got = match_features(feature_set(prev), feature_set(curr), gate)
        assert list(got) == match_features_bruteforce(prev, curr, gate)
        cases += 1
    report_line(
        8, cases == 1000,
        f"{cases} randomized cases bit-identical to the brute-force oracle",
    )


def test_criterion_09_wire_round_trip(tmp_path):
    rng = np.random.default_rng(99)
    batches = []
    for _ in range(1000):
        n = int(rng.integers(0, 2049))
        best = rng.integers(0, 257, size=n)
        second = np.maximum(best, rng.integers(0, 257, size=n))
        batches.append(VectorBatch(np.stack([
            rng.integers(0, 2048, size=n), rng.integers(0, 2048, size=n),
            rng.integers(-2048, 2049, size=n), rng.integers(-2048, 2049, size=n),
            best, second,
        ], axis=1)))
    # Each batch is one frame block of a 1000-frame stream.
    path = tmp_path / "c9.ofv"
    write_ofv(path, 640, 480, VectorTable.from_frames([encode(v) for v in batches]))
    data = path.read_bytes()
    _, _, back = read_ofv(path)
    assert len(back) == len(batches)
    cases, pos = 0, 16
    for vectors, got in zip(batches, back):
        n = len(vectors)
        n_lines = int.from_bytes(data[pos : pos + 4], "little")
        block = data[pos + 4 : pos + 4 + n_lines * LINE_BYTES]
        assert len(block) == -(-n // 16) * LINE_BYTES
        padding = block[n * 12 :]
        assert padding == b"\xff" * len(padding)
        assert got == vectors
        pos += 4 + len(block)
        cases += 1
    assert pos == len(data)
    report_line(
        9, cases == 1000,
        f"{cases} randomized round trips exact, lengths ceil(n/16)*192, "
        f"sentinel padding verified",
    )


def test_criterion_10_determinism(tmp_path):
    cli = [sys.executable, "-m", "flowcam.cli"]
    seq = tmp_path / "seq"
    subprocess.run(
        cli + ["gen", "--out", str(seq), "--texture", "blocks", "--seed", "3",
               "--viewport", "272x336", "--motion", "still", "--frames", "100",
               "--frame-rate", "240"],
        check=True, capture_output=True,
    )
    streams = []
    for name in ("a", "b"):
        out = tmp_path / name
        subprocess.run(
            cli + ["run", "--param-set", "6", "--seq", str(seq),
                   "--out", str(out)],
            check=True, capture_output=True,
        )
        streams.append((out / "run.ofv").read_bytes())
    ok = streams[0] == streams[1] and len(streams[0]) > 16
    report_line(
        10, ok,
        f"two `run --param-set 6` invocations produced byte-identical "
        f".ofv streams ({len(streams[0])} bytes)",
    )


def test_criterion_11_throughput_scaling():
    votes = []
    points = []
    refs = {}
    for set_id in (1, 4, 6):
        cfg = PARAMETER_SETS[set_id]
        frames, _ = synthesize_sequence(cfg, "still", 55, seed=0)
        report = throughput_report(cfg, frames)
        points.append((cfg.out_width * cfg.out_height, report.total_us_per_frame))
        refs[set_id] = report.hw_reference
    x = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    predicted = design @ coef
    ss_res = float(((y - predicted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    ref_text = "/".join(
        "—" if refs[s] is None else f"{refs[s]:.0f}" for s in (1, 4, 6)
    )
    ok = r2 >= 0.9 and refs[1] == 84.0 and refs[4] is None and refs[6] is None
    report_line(
        11, ok,
        f"per-frame time linear in pixel count with R^2={r2:.4f} >= 0.9; "
        f"hardware references {ref_text}",
    )
