#!/usr/bin/env python3
"""Desk-scale reproduction of the benchmark experiments.

Runs the seven built-in parameter sets over the synthetic scenarios and
collects accuracy, track and throughput numbers into one CSV per scenario
plus a combined summary. A full pass takes a few minutes; use --duration to
trade runtime for averaging.
"""

from __future__ import annotations

import argparse
import csv
import time
from pathlib import Path

from flowcam.pipeline import (
    PARAMETER_SETS,
    SCENARIOS,
    run_parameter_set,
    synthesize_sequence,
    throughput_report,
)


def run_scenario(scenario: str, sets: list[int], duration: float, seed: int,
                 speed: float, out_dir: Path) -> list[dict]:
    rows = []
    for set_id in sets:
        start = time.perf_counter()
        vectors, report = run_parameter_set(
            set_id, scenario, duration, seed=seed, speed_px_s=speed,
            out_dir=out_dir / scenario,
        )
        elapsed = time.perf_counter() - start
        summary = report.summary
        rel = summary.get("final_rel_err")
        row = {
            "scenario": scenario,
            "set": set_id,
            "frames": report.n_frames,
            "of_frame": f"{report.of_width}x{report.of_height}",
            "of_scale": report.of_scale,
            "mean_vectors": round(
                report.per_frame["emitted"].sum() / max(1, report.n_frames - 1), 1
            ),
            "final_rel_err": "n/a" if rel is None else f"{rel:.4f}",
            "rmse_x": f"{summary.get('rmse_x', float('nan')):.4f}",
            "n_tracks": summary.get("n_tracks", 0),
            "max_track_len": summary.get("max_track_len", 0),
            "p50_track_len": summary.get("p50_track_len", 0),
            "us_per_frame": round(report.total_us_per_frame, 1),
            "wall_s": round(elapsed, 1),
        }
        rows.append(row)
        print(
            f"{scenario:15s} set {set_id}: {row['frames']:4d} frames, "
            f"rel_err {row['final_rel_err']}, vectors {row['mean_vectors']}, "
            f"{row['us_per_frame']} us/frame"
        )
    return rows


def run_throughput(sets: list[int], frames: int) -> list[dict]:
    rows = []
    for set_id in sets:
        config = PARAMETER_SETS[set_id]
        seq, _ = synthesize_sequence(config, "still", frames, seed=0)
        report = throughput_report(config, seq)
        ref = report.hw_reference
        rows.append(
            {
                "set": set_id,
                "pixels": config.out_width * config.out_height,
                "us_per_frame": round(report.total_us_per_frame, 1),
                "software_fps": round(report.throughput_fps, 1),
                "hw_reference_fps": "-" if ref is None else int(ref),
                "hw_model_fps": report.hw_model_fps,
            }
        )
        print(
            f"throughput set {set_id}: {rows[-1]['us_per_frame']} us/frame, "
            f"{rows[-1]['software_fps']} fps (hardware point "
            f"{rows[-1]['hw_reference_fps']})"
        )
    return rows


def write_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        return
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="experiments", help="output directory")
    parser.add_argument("--duration", type=float, default=0.5,
                        help="seconds of footage per run (10 for full-scale runs)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--speed", type=float, default=700.0,
                        help="translation speed, full-sensor px/s")
    parser.add_argument("--sets", type=int, nargs="+",
                        default=[1, 2, 3, 4, 5, 6, 7])
    parser.add_argument("--scenarios", nargs="+", choices=SCENARIOS,
                        default=list(SCENARIOS))
    parser.add_argument("--bench-frames", type=int, default=55)
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_rows = []
    for scenario in args.scenarios:
        rows = run_scenario(
            scenario, args.sets, args.duration, args.seed, args.speed, out_dir
        )
        write_csv(out_dir / f"{scenario}.csv", rows)
        all_rows.extend(rows)
    write_csv(out_dir / "all_runs.csv", all_rows)
    write_csv(out_dir / "throughput.csv", run_throughput(args.sets, args.bench_frames))


if __name__ == "__main__":
    main()
