"""flowcam benchmark: end-to-end and per-layer figures for three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload still-set1 --seed 0 --seconds 30 --trace 0

Each pass is what `flowcam run --scenario` does (synthesize_sequence, then
run_pipeline, then finalize_report, which writes the .ofv stream and the
CSVs), followed by the `flowcam report` replay of that stream. Passes repeat
back to back in one single-threaded process until --seconds is used up.
With --trace 1 each round is an untraced pass followed by a traced one, and
the per-layer figures come from the traced passes. The last line of stdout
is one JSON object; see README.md for the metrics, workloads and checks.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before NumPy is imported, here and in children

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# p90 needs at least ten samples beyond it, so a run pools at least this
# many frame latencies (frame 0 of each pass only seeds features and is left
# out).
MIN_FRAME_SAMPLES = 100
MIN_PASSES = 3
SETUP_REPEATS = 7


@dataclass(frozen=True)
class Workload:
    set_id: int
    scenario: str
    n_frames: int
    # run_pipeline calls and report replays per pass. Machine noise on a
    # shared host drifts over seconds, so the short steps are repeated to
    # spread their samples over the whole run.
    pipelines: int
    replays: int
    # Closed-form mean flow in OF px/frame, checked after the controller
    # settles; None where the mean over the frame is not a useful check.
    flow: tuple[float, float] | None = None


WORKLOADS = {
    "still-set1": Workload(1, "still", 30, pipelines=1, replays=3),
    # 420 full-sensor px/s at 240 fps, cropped and not binned: 1.75 OF px/frame
    "translate-hard-set6": Workload(6, "translate-hard", 100, pipelines=2, replays=2,
                                    flow=(1.75, 0.0)),
    "rotate-set3": Workload(3, "rotate", 40, pipelines=3, replays=2),
}

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import flowcam, flowcam.cli
flowcam.PARAMETER_SETS[int(sys.argv[2])]
print(time.perf_counter() - start)
"""


class FrameClock(list):
    """Frame list that stamps the moment the pipeline asks for each frame.

    run_pipeline processes frames back to back, so the gap between two
    requests is the latency of one frame from frontend to encode.
    """

    def __iter__(self):
        self.stamps = []
        for frame in list.__iter__(self):
            self.stamps.append(perf_counter_ns())
            yield frame


@dataclass
class Pass:
    wall_s: float
    pipeline_s: list[float]
    replay_s: list[float]
    frame_ms: list[float]
    stream: bytes
    rss_mb: float | None = None  # peak RSS once the first replay is done
    rows: list = field(default_factory=list)  # parsed stream, per frame
    errors: list[str] = field(default_factory=list)


def import_flowcam():
    if not (SRC / "flowcam" / "__init__.py").is_file():
        sys.exit(f"perfbench: no flowcam sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import flowcam
    import flowcam.cli
    if Path(flowcam.__file__).resolve().parent != SRC / "flowcam":
        sys.exit(f"perfbench: imported flowcam from {flowcam.__file__}, not from {SRC}")
    return flowcam


def measure_setup(set_id: int) -> float:
    """Median time for a fresh interpreter to import flowcam and resolve the
    parameter set. The first start is discarded: it may write bytecode."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(set_id)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times[1:])


def timed_pipeline(fc, config, frames, n_frames: int):
    """run_pipeline on a FrameClock: (vectors, report, seconds, frame latencies)."""
    clocked = FrameClock(frames)
    t1 = perf_counter_ns()
    vectors, report = fc.pipeline.run_pipeline(config, clocked)
    t2 = perf_counter_ns()
    stamps = clocked.stamps + [t2]
    # With 30 or more frames per pass no single frame legitimately takes half
    # of the call; if one does, the frames were not taken one at a time.
    if (len(stamps) != n_frames + 1 or stamps[0] - t1 > 0.05 * (t2 - t1)
            or max(b - a for a, b in zip(stamps, stamps[1:])) > 0.5 * (t2 - t1)):
        raise RuntimeError("run_pipeline no longer takes frames one at a time; "
                           "per-frame latency cannot be measured this way")
    frame_ms = [(b - a) / 1e6 for a, b in zip(stamps[1:-1], stamps[2:])]
    return vectors, report, (t2 - t1) / 1e9, frame_ms


def run_pass(fc, wl: Workload, seed: int, out_dir: Path, tracer=None) -> Pass:
    """One `flowcam run --scenario`, then wl.pipelines - 1 more run_pipeline
    calls on the same frames and wl.replays `flowcam report` replays."""
    config = fc.PARAMETER_SETS[wl.set_id]
    gc.collect()
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = perf_counter_ns()
        frames, gt = fc.pipeline.synthesize_sequence(config, wl.scenario, wl.n_frames, seed=seed)
        vectors, report, pipeline_s, frame_ms = timed_pipeline(fc, config, frames, wl.n_frames)
        fc.pipeline.finalize_report(vectors, report, gt, out_dir, name="run")
        result = Pass(wall_s=(perf_counter_ns() - t0) / 1e9, pipeline_s=[pipeline_s],
                      replay_s=[], frame_ms=frame_ms,
                      stream=(out_dir / "run.ofv").read_bytes())
        for _ in range(wl.pipelines - 1):
            again, _, pipeline_s, frame_ms = timed_pipeline(fc, config, frames, wl.n_frames)
            result.pipeline_s.append(pipeline_s)
            result.frame_ms += frame_ms
            if again != vectors:
                result.errors.append("a repeated run_pipeline gave other vectors")
            del again
        del frames
        for _ in range(wl.replays):
            start = perf_counter_ns()
            with contextlib.redirect_stdout(io.StringIO()):
                status = fc.cli.main(["report", "--ofv", str(out_dir / "run.ofv"),
                                      "--gt", str(out_dir / "run_gt.csv"),
                                      "--out", str(out_dir / "replay")])
            result.replay_s.append((perf_counter_ns() - start) / 1e9)
            if result.rss_mb is None:
                result.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.errors += check_pass(result, config, wl, vectors, report, status, out_dir)
    return result


def check_pass(result: Pass, config, wl: Workload, vectors, report, status: int,
               out_dir: Path) -> list[str]:
    of_size = (report.of_width, report.of_height)
    rows, errors = checks.check_stream(result.stream, vectors, of_size)
    if rows is None:
        return errors
    result.rows = rows
    errors += checks.check_vectors(result.rows, of_size, config.max_displacement,
                                   config.ratio_threshold, config.brief_max)
    if wl.flow is not None:
        errors += checks.check_translate_flow(result.rows, wl.flow)
    if status != 0:
        return errors + [f"flowcam report exited with {status}"]
    replay = out_dir / "replay"
    for ours, theirs in (("run_summary.csv", "report_summary.csv"),
                         ("run_frames.csv", "report_frames.csv")):
        if (out_dir / ours).read_bytes() != (replay / theirs).read_bytes():
            errors.append(f"replay {theirs} differs from the run's {ours}")
    with open(replay / "report_summary.csv", newline="", encoding="utf-8") as f:
        row = next(csv.DictReader(f))
    for key in ("n_tracks", "max_track_len", "p50_track_len", "redetected_count"):
        if float(row[key]) != float(report.summary[key]):
            errors.append(f"replay {key} {row[key]} != run's {report.summary[key]}")
    return errors


def check_traced_pairs(tracer, wl: Workload, config, traced: Pass) -> list[str]:
    errors = []
    for (_, call), (args, matched) in sorted(tracer.kept.items()):
        prev, curr = args[0], args[1]
        frame = call + 1  # frame 0 is not matched
        errors += checks.check_matcher(prev, curr, matched, config.max_displacement, frame)
        if wl.scenario == "still":
            errors += checks.check_still_pair(prev, curr, matched, traced.rows[frame], frame)
    tracer.kept.clear()
    tracer.keep.clear()
    return errors


def repeat(seconds: float, min_rounds: int, one_round) -> None:
    """Run whole rounds until the next one would overrun `seconds`."""
    start = perf_counter()
    durations = []
    while True:
        t = perf_counter()
        one_round()
        durations.append(perf_counter() - t)
        if (len(durations) >= min_rounds
                and perf_counter() - start + statistics.median(durations) > seconds):
            return


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    fc = import_flowcam()
    wl = WORKLOADS[args.workload]
    config = fc.PARAMETER_SETS[wl.set_id]
    out_dir = OUT / args.workload
    plain: list[Pass] = []
    traced: list[Pass] = []
    errors: list[str] = []
    tracer = None

    if args.trace:
        last = wl.n_frames - 2
        tracer = spans.Tracer(keep={"matcher.match_features": {0, last // 2, last}})

        def one_round():
            plain.append(run_pass(fc, wl, args.seed, out_dir))
            traced.append(run_pass(fc, wl, args.seed, out_dir, tracer))
            if tracer.keep:
                errors.extend(check_traced_pairs(tracer, wl, config, traced[-1]))

        repeat(args.seconds, 2, one_round)
    else:
        setup_s = measure_setup(wl.set_id)
        samples_per_pass = wl.pipelines * (wl.n_frames - 1)
        min_passes = max(MIN_PASSES, math.ceil(MIN_FRAME_SAMPLES / samples_per_pass))
        repeat(args.seconds, min_passes,
               lambda: plain.append(run_pass(fc, wl, args.seed, out_dir)))

    passes = plain + traced
    for i, p in enumerate(passes):
        errors += p.errors
        if p.stream != passes[0].stream:
            errors.append(f"pass {i} wrote a different stream from pass 0")
    digests = sorted({hashlib.sha256(p.stream).hexdigest() for p in passes})
    print(f"{args.workload}: set {wl.set_id} {wl.scenario}, seed {args.seed}, "
          f"{wl.n_frames} frames per pass, {len(plain)} untraced and {len(traced)} "
          f"traced passes; stream sha256 {' '.join(digests)} (reference only)")

    if args.trace:
        n = wl.n_frames
        figures = [spans.layer_figures([s for s in tracer.spans if s[0] == i], n,
                                       len(passes[0].stream))
                   for i in range(len(traced))]
        metrics = {key: statistics.median(f[key] for f in figures) for key in figures[0]}
        metrics["pipeline.trace_overhead_ms"] = statistics.median(
            (statistics.median(t.pipeline_s) - statistics.median(p.pipeline_s)) / n * 1e3
            for p, t in zip(plain, traced))
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        result = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    else:
        fps = statistics.median(wl.n_frames / s for p in plain for s in p.pipeline_s)
        hw = fc.pipeline.hardware_reference(config.out_height, config.brief_target)
        print(f"software {fps:.1f} fps on this host; documented sensor rate at "
              f"{config.out_height} rows: {hw if hw is not None else 'n/a'} fps "
              f"(context only, no parity claimed)")
        print("per pass: run_wall_s " + " ".join(f"{p.wall_s:.3f}" for p in plain)
              + "; pipeline_s " + " ".join(f"{s:.3f}" for p in plain for s in p.pipeline_s)
              + "; replay_s " + " ".join(f"{r:.3f}" for p in plain for r in p.replay_s))
        pooled = [ms for p in plain for ms in p.frame_ms]
        p50, p90 = statistics.quantiles(pooled, n=10, method="inclusive")[4::4]
        result = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_wall_s": {"value": statistics.median(p.wall_s for p in plain), "unit": "s"},
            "pipeline_fps": {"value": fps, "unit": "1/s"},
            "frame_ms_p50": {"value": p50, "unit": "ms"},
            "frame_ms_p90": {"value": p90, "unit": "ms"},
            "replay_s": {"value": statistics.median(r for p in plain for r in p.replay_s),
                         "unit": "s"},
            # Peak of the first `flowcam run` plus `flowcam report` in the
            # process; later passes add heap fragmentation that depends on
            # how many passes fit in the run.
            "peak_rss_mb": {"value": plain[0].rss_mb, "unit": "MB"},
        }
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": len(passes), "failed": 0,
                      "metrics": result}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
