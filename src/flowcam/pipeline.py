"""End-to-end pipeline runner and the built-in camera parameter sets.

Wires the stages the way the sensor does per frame: frontend geometry, the
automatic OF down-scale, detection under the current contrast threshold,
tile budget, global cap, orientation and description, matching against the
previous frame, the ratio filter, and one controller update. Also provides
the benchmark scenarios and the throughput report with the hardware
frame-rate reference.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BoundsError, ConfigError, RangeError
from .feature_engine import describe_corners, select_corners, update_threshold
from .matcher import VectorBatch, match_features, ratio_filter
from .scene_synth import (
    MotionSpec,
    TextureSpec,
    generate_texture,
    mean_ground_truth_flow,
    render_camera_sequence,
)
from .sensor_frontend import (
    FULL_HEIGHT,
    FULL_WIDTH,
    Frame,
    SensorConfig,
    _bin_blocks,
    crop,
    downscale_for_of,
    hardware_reference,
    max_frame_rate,
    of_scale,
    subsample,
)
from .track_analyzer import (
    analyze,
    write_analysis,
    write_ground_truth_csv,
    written_ground_truth,
)
from .wire_format import VectorTable, encode, write_ofv

INITIAL_THRESHOLD = 20

# Vector-search window half-width; the datasheet parameter table does not
# publish one, 16 px covers every benchmark motion comfortably.
DEFAULT_MAX_DISPLACEMENT = 16

# The sensor transmits both Hamming scores and leaves ratio suppression to
# the consumer; the harness applies the usual 0.8 as that later step.
DEFAULT_RATIO_THRESHOLD = 0.8


def _pset(out_w, out_h, fps, target, cap, tile, crop_origin, factor=1):
    return SensorConfig(
        out_width=out_w,
        out_height=out_h,
        frame_rate=fps,
        brief_target=target,
        brief_max=cap,
        tile_budget=tile,
        max_displacement=DEFAULT_MAX_DISPLACEMENT,
        ratio_threshold=DEFAULT_RATIO_THRESHOLD,
        crop_origin=crop_origin,
        subsample_factor=factor,
        subsample_mode="decimate",
    )

PARAMETER_SETS: dict[int, SensorConfig] = {
    1: _pset(1124, 1364, 60, 1536, 2048, 2, (0, 0)),
    2: _pset(1120, 1344, 60, 1536, 2048, 2, (0, 0)),
    3: _pset(640, 480, 140, 768, 1024, 4, (240, 432)),
    4: _pset(560, 672, 140, 768, 1024, 4, (280, 336)),
    5: _pset(560, 672, 140, 768, 1024, 4, (0, 0), factor=2),
    6: _pset(272, 336, 240, 384, 512, 8, (420, 504)),
    7: _pset(280, 336, 240, 384, 512, 8, (0, 0), factor=4),
}

SCENARIOS = ("translate-easy", "translate-hard", "zoom", "rotate", "still")

_SCENARIO_TEXTURE = {
    "translate-easy": "blocks",
    "translate-hard": "foliage",
    "zoom": "blocks",
    "rotate": "wheel",
    "still": "blocks",
}

DEFAULT_SPEED_PX_S = 420.0  # translation speed in full-sensor px/s
DEFAULT_OMEGA_DEG_FRAME = 2.0
DEFAULT_ZOOM_RATE_FRAME = 1.002


STAGES = ("frontend", "detect", "describe", "match", "encode")

# One row per frame: the ns spent in each stage, the controller threshold the
# frame was detected under, the post-cap descriptor count the controller
# consumed, and the flow vectors emitted (0 for frame 0).
PER_FRAME = np.dtype(
    [(f"{stage}_ns", np.int64) for stage in STAGES]
    + [("threshold", np.int64), ("produced", np.int64), ("emitted", np.int64)]
)


@dataclass
class RunReport:
    """Per-frame record and outcome summary of one pipeline run."""

    per_frame: np.ndarray  # PER_FRAME rows, one per frame
    of_width: int
    of_height: int
    of_scale: int
    summary: dict = field(default_factory=dict)
    hw_reference: float | None = None
    hw_model_fps: float | None = None

    @property
    def n_frames(self) -> int:
        return len(self.per_frame)

    @property
    def stage_us(self) -> dict[str, float]:
        """Mean microseconds per frame, per stage."""
        n = self.n_frames
        return {s: int(self.per_frame[f"{s}_ns"].sum()) / n / 1000.0 for s in STAGES}

    @property
    def throughput_fps(self) -> float:
        total_s = sum(int(self.per_frame[f"{s}_ns"].sum()) for s in STAGES) / 1e9
        return self.n_frames / total_s if total_s > 0 else 0.0

    @property
    def total_us_per_frame(self) -> float:
        return sum(self.stage_us.values())


def frontend_apply(frame: Frame, config: SensorConfig) -> Frame:
    """Reduce an input frame to the configured recorded geometry.

    Frames already at the output size pass through; from any other frame the
    config's window is cut and sub-sampled, as `synthesize_sequence` renders it.
    """
    if (frame.width, frame.height) == (config.out_width, config.out_height):
        return frame
    f = config.subsample_factor
    try:
        window = crop(frame, config.crop_origin, (config.out_width * f, config.out_height * f))
        return subsample(window, f, config.subsample_mode) if f > 1 else window
    except BoundsError as exc:
        raise ConfigError(f"frame {frame.width}x{frame.height} cannot supply the "
                          f"configured geometry: {exc}") from exc


def run_pipeline(
    config: SensorConfig,
    frames: list[Frame],
    initial_threshold: int = INITIAL_THRESHOLD,
) -> tuple[VectorTable, RunReport]:
    """Run the full per-frame pipeline over a frame sequence.

    Returns the run's wire records (frame t holds the vectors from frame t-1
    to t; frame 0 is empty) and a report with one `PER_FRAME` row per frame.
    The controller consumes the post-cap descriptor count and updates once
    per frame; frame 0 only seeds features.
    """
    if len(frames) < 2:
        raise ConfigError("need at least 2 frames")
    threshold = initial_threshold
    per_frame = np.zeros(len(frames), PER_FRAME)
    records: list[np.ndarray] = []
    prev_features = None
    of_size = None

    for t, frame in enumerate(frames):
        t0 = time.perf_counter_ns()
        recorded = frontend_apply(frame, config)
        of_frame, scale = downscale_for_of(recorded)
        t1 = time.perf_counter_ns()
        corners = select_corners(of_frame, threshold, config.tile_budget,
                                 config.brief_max)
        t2 = time.perf_counter_ns()
        features = describe_corners(of_frame, corners)
        produced = len(features)
        t3 = time.perf_counter_ns()
        if prev_features is None:
            vectors = VectorBatch.empty()
        else:
            vectors = match_features(prev_features, features, config.max_displacement)
            vectors = ratio_filter(vectors, config.ratio_threshold)
        t4 = time.perf_counter_ns()
        records.append(encode(vectors))
        t5 = time.perf_counter_ns()

        per_frame[t] = (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4,
                        threshold, produced, len(vectors))
        threshold = update_threshold(threshold, produced, config.brief_target)
        prev_features = features
        of_size = (of_frame.width, of_frame.height, scale)

    report = RunReport(
        per_frame=per_frame,
        of_width=of_size[0],
        of_height=of_size[1],
        of_scale=of_size[2],
    )
    return VectorTable.from_frames(records), report


# ---------------------------------------------------------------------------
# Scenario synthesis
# ---------------------------------------------------------------------------

def synthesize_sequence(
    config: SensorConfig,
    scenario: str,
    n_frames: int,
    seed: int = 0,
    speed_px_s: float = DEFAULT_SPEED_PX_S,
    omega_deg_frame: float = DEFAULT_OMEGA_DEG_FRAME,
    zoom_rate_frame: float = DEFAULT_ZOOM_RATE_FRAME,
) -> tuple[list[Frame], list[tuple[float, float]]]:
    """Render the recorded-resolution frames a configuration would capture.

    The scene lives in full-sensor coordinates so different configurations
    observe the same physical motion; translation speed is given in
    full-sensor pixels per second, rotation and zoom per frame. Returns the
    frames plus the per-frame mean ground-truth flow in OF-unit pixels.
    """
    if scenario not in SCENARIOS:
        raise RangeError(f"unknown scenario {scenario!r}")
    for name, value in (("speed_px_s", speed_px_s), ("omega_deg_frame", omega_deg_frame),
                        ("zoom_rate_frame", zoom_rate_frame)):
        if not math.isfinite(value):
            raise RangeError(f"{name} must be finite, got {value}")
    stride = config.subsample_factor
    # Binned readout averages each stride x stride block of the window at
    # full resolution, as `subsample` does; decimated readout samples one
    # pixel of each block.
    binned = stride if config.subsample_mode == "bin" else 1
    viewport = (config.out_width * binned, config.out_height * binned)
    fov = (FULL_WIDTH, FULL_HEIGHT)

    if scenario.startswith("translate"):
        per_frame = speed_px_s / config.frame_rate
        motion = MotionSpec("translate", velocity=(per_frame, 0.0))
        # centered viewport: either side must absorb the whole drift
        drift = int(math.ceil(per_frame * (n_frames - 1)))
        tex_size = (
            max(2 * fov[0], fov[0] + 2 * drift + 8),
            2 * fov[1],
        )
    elif scenario == "rotate":
        motion = MotionSpec("rotate", omega=math.radians(omega_deg_frame))
        side = int(math.ceil(math.hypot(*fov))) + 8
        tex_size = (side, side)
    elif scenario == "zoom":
        motion = MotionSpec("zoom", rate=zoom_rate_frame)
        side = int(math.ceil(math.hypot(*fov))) + 8
        tex_size = (side, side)
    else:
        motion = MotionSpec("still")
        tex_size = (fov[0] + 8, fov[1] + 8)

    texture = generate_texture(TextureSpec(_SCENARIO_TEXTURE[scenario], seed, tex_size))
    frames = render_camera_sequence(
        texture, motion, n_frames, viewport,
        fov=fov, window_origin=config.crop_origin, stride=stride // binned,
    )
    if binned > 1:
        # Each buffer is binned once: a still scene's frames share one.
        blocks: dict[int, np.ndarray] = {}
        for frame in frames:
            if id(frame.pixels) not in blocks:
                blocks[id(frame.pixels)] = _bin_blocks(frame.pixels, binned)
        frames = [Frame(blocks[id(frame.pixels)]) for frame in frames]
    of_units = stride * of_scale(config.out_width, config.out_height)
    gt_fov = mean_ground_truth_flow(motion)
    gt = [(0.0, 0.0)]
    gt += [(gt_fov[0] / of_units, gt_fov[1] / of_units)] * (n_frames - 1)
    return frames, gt


def frames_for_duration(config: SensorConfig, duration_s: float) -> int:
    """Frame count of a `duration_s`-second sequence at the config's rate."""
    if not math.isfinite(duration_s):
        raise RangeError(f"duration must be finite, got {duration_s}")
    return round(config.frame_rate * duration_s)


def run_parameter_set(
    set_id: int,
    scenario: str,
    duration_s: float,
    *,
    n_frames: int | None = None,
    seed: int = 0,
    out_dir: str | Path | None = None,
    speed_px_s: float = DEFAULT_SPEED_PX_S,
    omega_deg_frame: float = DEFAULT_OMEGA_DEG_FRAME,
    zoom_rate_frame: float = DEFAULT_ZOOM_RATE_FRAME,
    initial_threshold: int = INITIAL_THRESHOLD,
) -> tuple[VectorTable, RunReport]:
    """Generate the benchmark sequence for one built-in set and run it."""
    if set_id not in PARAMETER_SETS:
        raise RangeError(f"parameter set must be 1..7, got {set_id}")
    config = PARAMETER_SETS[set_id]
    if n_frames is None:
        n_frames = frames_for_duration(config, duration_s)
    frames, gt = synthesize_sequence(
        config, scenario, n_frames, seed=seed, speed_px_s=speed_px_s,
        omega_deg_frame=omega_deg_frame, zoom_rate_frame=zoom_rate_frame,
    )
    vectors, report = run_pipeline(config, frames, initial_threshold)
    finalize_report(vectors, report, gt, out_dir, name=f"set{set_id}_{scenario}")
    return vectors, report


def finalize_report(
    vectors: VectorTable,
    report: RunReport,
    ground_truth: list[tuple[float, float]] | None,
    out_dir: str | Path | None,
    name: str = "run",
) -> None:
    """Attach the analysis summary to a report and write output files.

    Writes `<name>.ofv`, the analysis CSVs and, with ground truth,
    `<name>_gt.csv`. The .ofv stream holds the records `run_pipeline`
    returned; the analysis reads the ground truth as `<name>_gt.csv` holds
    it, so `flowcam report` reproduces it.
    """
    if ground_truth is not None:
        ground_truth = written_ground_truth(ground_truth)
    analysis = analyze(vectors, ground_truth)
    report.summary.update(analysis.summary)
    if out_dir is None:
        return
    out_dir = Path(out_dir)
    write_analysis(analysis, ground_truth, out_dir, name)
    write_ofv(out_dir / f"{name}.ofv", report.of_width, report.of_height, vectors)
    if ground_truth is not None:
        write_ground_truth_csv(out_dir / f"{name}_gt.csv", ground_truth)


# ---------------------------------------------------------------------------
# Throughput
# ---------------------------------------------------------------------------

def throughput_report(
    config: SensorConfig,
    frames: list[Frame],
    initial_threshold: int = INITIAL_THRESHOLD,
) -> RunReport:
    """Measure software throughput and attach the hardware reference.

    The software numbers make no claim of matching the sensor; the reference
    is printed for context only.
    """
    if len(frames) < 50:
        raise RangeError(f"need at least 50 frames for stable timing, got {len(frames)}")
    _, report = run_pipeline(config, frames, initial_threshold)
    report.hw_reference = hardware_reference(config.out_height, config.brief_target)
    try:
        report.hw_model_fps = max_frame_rate(config.out_height, config.brief_target)
    except RangeError:
        report.hw_model_fps = None
    return report
