"""Command-line harness: sequence generation, pipeline runs, benchmarks.

Subcommands: `gen` renders a synthetic sequence to PGM files, `run` drives
the pipeline over a sequence or a generated scenario and writes the .ofv
stream plus report CSVs, `bench` measures throughput next to the hardware
reference, `tracks` analyzes a stored .ofv stream, `report` compares a
stream against a ground-truth CSV.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

from .errors import FlowcamError, RangeError
from .pipeline import (
    DEFAULT_OMEGA_DEG_FRAME,
    DEFAULT_SPEED_PX_S,
    DEFAULT_ZOOM_RATE_FRAME,
    INITIAL_THRESHOLD,
    PARAMETER_SETS,
    SCENARIOS,
    check_frame_count,
    finalize_report,
    frame_count,
    run_pipeline,
    synthesize_sequence,
    throughput_report,
)
from .scene_synth import (
    MOTION_KINDS,
    MotionSpec,
    TEXTURE_KINDS,
    TextureSpec,
    generate_texture,
    load_sequence,
    mean_ground_truth_flow,
    render_sequence,
    save_sequence,
)
from .sensor_frontend import SensorConfig, load_config, of_scale
from .track_analyzer import (
    REDETECT_MAX_GAP,
    REDETECT_RADIUS,
    analyze,
    read_ground_truth_csv,
    write_analysis,
)
from .wire_format import read_ofv


def _size(text: str, option: str) -> tuple[int, int]:
    w, _, h = text.lower().partition("x")
    if not (w.isdecimal() and h.isdecimal() and int(w) > 0 and int(h) > 0):
        raise FlowcamError(f"{option} must be WxH in positive integers, got {text!r}")
    return int(w), int(h)


def _pair(text: str, option: str) -> tuple[float, float]:
    x, _, y = text.partition(",")
    try:
        return float(x), float(y)
    except ValueError:
        raise FlowcamError(f"{option} must be two numbers as X,Y, got {text!r}") from None


def _resolve_config(args) -> SensorConfig:
    if args.param_set is not None:
        if args.param_set not in PARAMETER_SETS:
            raise FlowcamError(f"--param-set must be 1..7, got {args.param_set}")
        config = PARAMETER_SETS[args.param_set]
    elif args.config:
        config = load_config(args.config)
    else:
        raise FlowcamError("one of --param-set or --config is required")
    overrides = {}
    if args.max_displacement is not None:
        overrides["max_displacement"] = args.max_displacement
    if args.ratio_threshold is not None:
        overrides["ratio_threshold"] = args.ratio_threshold
    if overrides:
        config = replace(config, **overrides)
    return config


def cmd_gen(args) -> int:
    # `run --seq` reads the sequence back, so it must hold a runnable count.
    check_frame_count(args.frames)
    if not (args.frame_rate > 0 and math.isfinite(args.frame_rate)):
        raise RangeError(f"frame_rate must be positive and finite, got {args.frame_rate}")
    viewport = _size(args.viewport, "--viewport")
    tex_size = _size(args.texture_size, "--texture-size") if args.texture_size else (
        2 * viewport[0], 2 * viewport[1]
    )
    motion = MotionSpec(
        args.motion,
        velocity=_pair(args.velocity, "--velocity"),
        rate=args.zoom_rate,
        omega=math.radians(args.omega_deg),
    )
    texture = generate_texture(TextureSpec(args.texture, args.seed, tex_size))
    frames = render_sequence(texture, motion, args.frames, viewport)
    scale = of_scale(*viewport)
    gt_view = mean_ground_truth_flow(motion)
    gt = [(0.0, 0.0)] + [(gt_view[0] / scale, gt_view[1] / scale)] * (args.frames - 1)
    manifest = {
        "texture": args.texture,
        "seed": args.seed,
        "texture_size": f"{tex_size[0]}x{tex_size[1]}",
        "motion": args.motion,
        "velocity": f"{motion.velocity[0]},{motion.velocity[1]}",
        "omega_deg": args.omega_deg,
        "zoom_rate": args.zoom_rate,
        "n_frames": args.frames,
        "viewport": f"{viewport[0]}x{viewport[1]}",
        "frame_rate": args.frame_rate,
        "of_scale": scale,
    }
    save_sequence(args.out, frames, gt, manifest)
    print(f"wrote {args.frames} frames to {args.out}")
    return 0


def cmd_run(args) -> int:
    config = _resolve_config(args)
    out_dir = Path(args.out)
    if args.seq:
        frames = load_sequence(args.seq)
        gt_path = Path(args.seq) / "ground_truth.csv"
        gt = read_ground_truth_csv(gt_path) if gt_path.exists() else None
        if gt is not None and len(gt) != len(frames):
            print(
                f"flowcam run: ignoring {gt_path}: {len(gt)} rows for "
                f"{len(frames)} frames",
                file=sys.stderr,
            )
            gt = None
        name = args.name or "run"
    else:
        if args.scenario is None:
            raise FlowcamError("one of --seq or --scenario is required")
        n_frames = frame_count(config, args.duration, args.frames)
        frames, gt = synthesize_sequence(
            config, args.scenario, n_frames, seed=args.seed,
            speed_px_s=args.speed, omega_deg_frame=args.omega_deg_frame,
            zoom_rate_frame=args.zoom_rate_frame,
        )
        label = f"set{args.param_set}" if args.param_set else "custom"
        name = args.name or f"{label}_{args.scenario}"
    vectors, report = run_pipeline(config, frames, args.initial_threshold)
    finalize_report(vectors, report, gt, out_dir, name=name)
    summary = report.summary
    rel = summary.get("final_rel_err")
    rel_text = "n/a" if rel is None else f"{rel:.4f}"
    print(
        f"{name}: {report.n_frames} frames, OF {report.of_width}x{report.of_height} "
        f"(scale {report.of_scale}), mean vectors "
        f"{report.per_frame['emitted'].sum() / max(1, report.n_frames - 1):.0f}, "
        f"final_rel_err {rel_text}, tracks {summary.get('n_tracks', 0)} "
        f"(max len {summary.get('max_track_len', 0)})"
    )
    print(f"outputs in {out_dir}")
    return 0


def cmd_bench(args) -> int:
    config = _resolve_config(args)
    if args.seq:
        frames = load_sequence(args.seq)
    else:
        frames, _ = synthesize_sequence(config, "still", args.frames, seed=args.seed)
    report = throughput_report(config, frames, args.initial_threshold)
    print(f"frames: {report.n_frames}   OF frame: {report.of_width}x{report.of_height}")
    for stage, us in report.stage_us.items():
        print(f"  {stage:<9s} {us:10.1f} us/frame")
    print(f"  {'total':<9s} {report.total_us_per_frame:10.1f} us/frame")
    print(f"software throughput: {report.throughput_fps:.1f} fps")
    ref = "—" if report.hw_reference is None else f"{report.hw_reference:.0f}"
    model = "—" if report.hw_model_fps is None else f"{report.hw_model_fps:.1f}"
    point = f"{config.out_height} rows and {config.brief_target} vectors"
    if report.hw_reference is None:
        print(f"flowcam bench: no documented operating point for {point}; "
              "hardware reference not shown", file=sys.stderr)
    if report.hw_model_fps is None:
        print(f"flowcam bench: the rate model does not cover {point}; "
              "rate-model figure not shown", file=sys.stderr)
    print(f"hardware reference: {ref} fps (documented point), {model} fps (rate model)")
    print("software numbers claim no parity with the sensor.")
    return 0


def cmd_tracks(args) -> int:
    width, height, per_frame = read_ofv(args.ofv)
    analysis = analyze(per_frame, max_gap=args.max_gap, radius=args.radius)
    stats = analysis.summary
    print(
        f"{args.ofv}: {len(per_frame)} frames ({width}x{height}), "
        f"{stats['n_tracks']} tracks, max len {stats['max_track_len']}, "
        f"median len {stats['p50_track_len']}, "
        f"{stats['redetected_count']} re-detections"
    )
    if args.out:
        write_analysis(analysis, None, args.out, "tracks")
        print(f"outputs in {Path(args.out)}")
    return 0


def cmd_report(args) -> int:
    width, height, per_frame = read_ofv(args.ofv)
    gt = read_ground_truth_csv(args.gt)
    analysis = analyze(per_frame, gt, args.max_gap, args.radius)
    write_analysis(analysis, gt, args.out, "report")
    accuracy = analysis.accuracy
    rel = "n/a" if accuracy.final_rel_err is None else f"{accuracy.final_rel_err:.4f}"
    print(
        f"rmse ({accuracy.rmse_x:.4f}, {accuracy.rmse_y:.4f}), final_rel_err {rel}, "
        f"reports in {Path(args.out)}"
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowcam",
        description="On-sensor optical-flow emulator and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags `run` and `bench` share
    camera = argparse.ArgumentParser(add_help=False)
    camera.add_argument("--param-set", type=int, default=None, help="built-in set 1..7")
    camera.add_argument("--config", default=None, help="key=value config file")
    camera.add_argument("--seq", default=None, help="directory of frame_*.pgm")
    camera.add_argument("--seed", type=int, default=0)
    camera.add_argument("--initial-threshold", type=int, default=INITIAL_THRESHOLD)
    camera.add_argument("--max-displacement", type=int, default=None)
    camera.add_argument("--ratio-threshold", type=float, default=None)

    # flags `tracks` and `report` share
    stream = argparse.ArgumentParser(add_help=False)
    stream.add_argument("--ofv", required=True)
    stream.add_argument("--max-gap", type=int, default=REDETECT_MAX_GAP)
    stream.add_argument("--radius", type=int, default=REDETECT_RADIUS)

    p = sub.add_parser("gen", help="generate a synthetic PGM sequence")
    p.add_argument("--out", required=True)
    p.add_argument("--texture", choices=TEXTURE_KINDS, default="blocks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--viewport", default="640x480", help="WxH of output frames")
    p.add_argument("--texture-size", default=None, help="WxH, default 2x viewport")
    p.add_argument("--motion", choices=MOTION_KINDS, default="still")
    p.add_argument("--velocity", default="0,0", help="px/frame, e.g. 3,-1")
    p.add_argument("--omega-deg", type=float, default=0.0, help="deg/frame")
    p.add_argument("--zoom-rate", type=float, default=1.0, help="scale/frame")
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--frame-rate", type=float, default=60.0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", parents=[camera], help="run the pipeline over a sequence")
    p.add_argument("--scenario", choices=SCENARIOS, default=None)
    p.add_argument("--duration", type=float, default=10.0, help="seconds")
    p.add_argument("--frames", type=int, default=None, help="overrides --duration")
    p.add_argument("--speed", type=float, default=DEFAULT_SPEED_PX_S,
                   help="translation speed, full-sensor px/s")
    p.add_argument("--omega-deg-frame", type=float, default=DEFAULT_OMEGA_DEG_FRAME)
    p.add_argument("--zoom-rate-frame", type=float, default=DEFAULT_ZOOM_RATE_FRAME)
    p.add_argument("--name", default=None, help="output file basename")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", parents=[camera], help="measure software throughput")
    p.add_argument("--frames", type=int, default=60)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("tracks", parents=[stream], help="track statistics of an .ofv stream")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tracks)

    p = sub.add_parser("report", parents=[stream], help="accuracy report for an .ofv stream")
    p.add_argument("--gt", required=True, help="ground-truth CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FlowcamError, OSError) as exc:
        print(f"flowcam {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
